//! Rank supervision: failure detection, coordinated rollback, and
//! bitwise-deterministic restart on top of [`crate::checkpoint`].
//!
//! [`run_supervised`] wraps [`run_distributed_with`] in a bounded retry
//! loop. Each attempt runs the caller's program with checkpointing
//! attached; when an attempt fails, the supervisor:
//!
//! 1. **Classifies** the failure from the per-rank join results. Any
//!    contained panic (an injected crash, a validity violation that
//!    escalated, a kernel bug) means a *dead rank*. Failures that are
//!    exclusively receive deadlines ([`CommError::Timeout`]) and their
//!    hangup cascade mean a *straggler* — a slow-but-alive peer — and
//!    the receive deadline is doubled before the retry so the same
//!    slowness cannot trip the detector twice (recorded as an
//!    escalation in [`RecoveryRec`](crate::trace::RecoveryRec)).
//! 2. **Rolls back** every rank to the newest checkpoint epoch that
//!    exists on *all* ranks. Epochs are taken at identical program cuts
//!    on every rank, so the agreed epoch names one globally consistent
//!    state; checkpoints above it and journal entries past its cut are
//!    discarded.
//! 3. **Restarts** the world: a fresh transport (channels re-opened,
//!    per-peer buffer pools re-installed from the carried state), every
//!    rank's dats/validity/tags/boundary counters restored from the
//!    agreed checkpoint, plan caches and thread pools carried over
//!    untouched, and the program replayed — journal-served (no side
//!    effects) up to the restored cut, live after it.
//!
//! The retry budget is [`SuperviseOptions::max_recoveries`]; exhausting
//! it degrades gracefully into the typed
//! [`RuntimeError::RecoveryExhausted`], carrying the final attempt's
//! per-rank traces and failures.
//!
//! **Determinism contract**: a run that crashes and recovers `k` times
//! produces results bitwise identical to a fault-free run. The restored
//! state is a prefix of the fault-free execution; replayed units serve
//! journaled bit-exact results without re-executing; live units resume
//! from the same dats, validity, tags and boundary counters the
//! fault-free run had at that cut; and recoverable link faults never
//! alter delivered payloads. `tests/recovery.rs` asserts this across
//! crash sites, boundaries and thread counts.

use crate::checkpoint::{lock, CheckpointConfig, RankState};
use crate::comm::CommError;
use crate::env::RankEnv;
use crate::error::{RankFailure, RuntimeError};
use crate::harness::{run_distributed_with, DistOutcome, RunOptions};
use op2_core::Domain;
use op2_partition::RankLayout;
use std::sync::{Arc, Mutex};

/// Policy knobs for a supervised run.
#[derive(Debug, Clone, Default)]
pub struct SuperviseOptions {
    /// The underlying run options (fault plan, comm policy, threading,
    /// checkpoint cadence) applied to every attempt.
    pub run: RunOptions,
    /// Recovery budget: how many coordinated rollback-and-restart
    /// cycles may follow the initial attempt before the supervisor
    /// gives up with [`RuntimeError::RecoveryExhausted`].
    pub max_recoveries: u32,
    /// Double the receive deadline when a failure classifies as a
    /// straggler (timeouts, no dead rank), so persistent slowness
    /// converges instead of re-tripping the detector.
    pub escalate_deadline: bool,
}

impl SuperviseOptions {
    /// Default supervision (3 recoveries, deadline escalation on) over
    /// the given run options.
    pub fn new(run: RunOptions) -> Self {
        SuperviseOptions {
            run,
            max_recoveries: 3,
            escalate_deadline: true,
        }
    }

    /// Override the recovery budget (builder style).
    pub fn max_recoveries(mut self, n: u32) -> Self {
        self.max_recoveries = n;
        self
    }
}

/// Did any rank die (contained panic), as opposed to merely timing out?
fn any_dead(results: &[Result<(), &RankFailure>]) -> bool {
    results
        .iter()
        .any(|r| matches!(r, Err(RankFailure::Panicked { .. })))
}

/// Did any rank trip its receive deadline?
fn any_timeout(results: &[Result<(), &RankFailure>]) -> bool {
    results.iter().any(|r| {
        matches!(
            r,
            Err(RankFailure::Failed {
                error: RuntimeError::Comm(CommError::Timeout { .. }),
                ..
            })
        )
    })
}

/// Coordinated rollback: agree on the newest checkpoint epoch present
/// on every rank, truncate everything above it, and mark every slot for
/// restore-on-attach.
fn rollback(slots: &[Arc<Mutex<RankState>>]) {
    let agreed = slots
        .iter()
        .map(|s| {
            let mut st = lock(s);
            // A migration may have fenced some slots already; snapshots
            // of an older layout must not enter the epoch agreement.
            st.drop_foreign_layouts();
            st.last_epoch()
                .expect("supervised rank lost its baseline checkpoint")
        })
        .min()
        .expect("supervised run has at least one rank");
    for slot in slots {
        let mut st = lock(slot);
        while st.last_epoch().is_some_and(|e| e > agreed) {
            st.checkpoints.pop();
        }
        let cut = st
            .checkpoints
            .last()
            .expect("agreed epoch exists on every rank")
            .units_done;
        st.journal.truncate(cut);
        st.rec.rollbacks += 1;
        st.restore = true;
    }
}

/// Run `program` under supervision: checkpointed attempts, coordinated
/// rollback on failure, bounded retries, bitwise-deterministic results.
/// See the module docs for the full protocol.
///
/// Returns the successful attempt's [`DistOutcome`] (its traces carry
/// the cumulative [`RecoveryRec`](crate::trace::RecoveryRec) counters),
/// or [`RuntimeError::RecoveryExhausted`] when the budget runs out, or
/// [`RuntimeError::Config`] when the checkpoint cadence is malformed.
pub fn run_supervised<F, R>(
    dom: &mut Domain,
    layouts: &[RankLayout],
    opts: &SuperviseOptions,
    program: F,
) -> Result<DistOutcome<R>, RuntimeError>
where
    F: Fn(&mut RankEnv<'_>) -> Result<R, RuntimeError> + Sync,
    R: Send,
{
    let slots = RankState::fresh_slots(layouts.len());
    run_supervised_with_state(dom, layouts, opts, &slots, program)
}

/// [`run_supervised`] over caller-provided per-rank state slots — the
/// resident service's entry point. The slots may arrive pre-seeded with
/// carried resources (plan cache, thread context, transport buffer
/// pools) from a previous job on the same world; the first attempt's
/// [`RankEnv::ckpt_attach`] installs them exactly as a restart installs
/// carried state. After the call — success or failure — the slots hold
/// the sealed end-of-attempt state ([`RankEnv`]'s `ckpt_seal` runs for
/// failed ranks too), so the caller can harvest it for the next job.
pub fn run_supervised_with_state<F, R>(
    dom: &mut Domain,
    layouts: &[RankLayout],
    opts: &SuperviseOptions,
    slots: &[Arc<Mutex<RankState>>],
    program: F,
) -> Result<DistOutcome<R>, RuntimeError>
where
    F: Fn(&mut RankEnv<'_>) -> Result<R, RuntimeError> + Sync,
    R: Send,
{
    assert_eq!(
        slots.len(),
        layouts.len(),
        "one state slot per rank is required"
    );
    let cfg = match opts.run.checkpoint {
        Some(c) => c,
        None => CheckpointConfig::try_from_env()?,
    };
    let slots_ref = slots;
    let mut run_opts = opts.run.clone();
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let out = run_distributed_with(dom, layouts, &run_opts, |env| {
            env.ckpt_attach(cfg, Arc::clone(&slots_ref[env.rank as usize]));
            program(env)
        });
        if out.all_ok() {
            return Ok(out);
        }
        let verdicts: Vec<Result<(), &RankFailure>> = out
            .results
            .iter()
            .map(|r| r.as_ref().map(|_| ()))
            .collect();
        if attempts > opts.max_recoveries {
            let DistOutcome { traces, results } = out;
            let failures = results.into_iter().filter_map(Result::err).collect();
            return Err(RuntimeError::RecoveryExhausted {
                attempts,
                traces,
                failures,
            });
        }
        // Straggler vs dead rank: pure timeouts (and their hangup
        // cascade) with nobody dead mean a slow peer — give the next
        // attempt twice the patience.
        if opts.escalate_deadline && !any_dead(&verdicts) && any_timeout(&verdicts) {
            run_opts.comm.deadline *= 2;
            for slot in slots_ref {
                lock(slot).rec.escalations += 1;
            }
        }
        rollback(slots_ref);
    }
}
