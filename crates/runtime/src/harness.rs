//! The rank harness: spawn, run, contain, collect.
//!
//! [`run_distributed`] is the reproduction's `mpirun`: it wires a
//! [`CommWorld`], spawns one OS thread per rank, hands each a fresh
//! [`RankEnv`] over its layout, runs the caller's program closure, and
//! afterwards scatters every **successful** rank's owned data back into
//! the global domain (halo copies are discarded — owners are
//! authoritative, exactly as in OP2's fetch semantics).
//!
//! Unlike a real `mpirun`, a failing rank does not take the job down:
//! each rank runs under `catch_unwind`, and both panics (including
//! fault-injected crashes) and [`RuntimeError`]s are reported as that
//! rank's [`RankFailure`] in [`DistOutcome::results`]. Whenever a rank
//! exits — success or failure — it broadcasts a hangup sentinel, so
//! peers blocked on it unwind promptly with
//! [`PeerHangup`](crate::comm::CommError::PeerHangup) instead of
//! sitting out their full receive deadline. The data of failed ranks is
//! *not* scattered back: their owned elements keep the pre-run values,
//! mirroring the data loss of a real rank failure.
//!
//! [`RunOptions`] is the whole configuration of a run: the harness
//! copies its threading into every rank's [`RankEnv::threading`] and
//! reads nothing from the process environment.

use crate::checkpoint::CheckpointConfig;
use crate::comm::{CommConfig, CommWorld};
use crate::env::RankEnv;
use crate::error::{RankFailure, RuntimeError};
use crate::fault::FaultPlan;
use crate::threads::Threading;
use crate::trace::RankTrace;
use op2_core::{DatId, Domain};
use op2_partition::RankLayout;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Schedule drain selector, kept only so callers that name it still
/// build: both variants select the one drain, one round of a one-level
/// schedule ([`crate::threads::run_schedule_pooled_ctx`]), so results
/// and traces are identical under either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The one drain.
    #[default]
    Levels,
    /// The same drain as [`ExecMode::Levels`].
    Dataflow,
}

/// Everything that configures a distributed run besides the program
/// itself. The defaults: a perfect network, the default receive policy,
/// one thread per rank and (under supervision) a checkpoint after every
/// chain.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault plan to subject the run's traffic (and boundaries) to.
    pub faults: Option<Arc<FaultPlan>>,
    /// Receive-side deadline/retry policy.
    pub comm: CommConfig,
    /// Intra-rank threading for kernel execution, **per rank**, block
    /// size included.
    pub threading: Threading,
    /// Checkpoint cadence for supervised runs
    /// ([`run_supervised`](crate::supervise::run_supervised));
    /// unsupervised runs ignore this field entirely.
    pub checkpoint: CheckpointConfig,
}

impl RunOptions {
    /// Options for a chaos run under `plan`.
    pub fn with_faults(plan: FaultPlan) -> Self {
        RunOptions {
            faults: Some(Arc::new(plan)),
            ..RunOptions::default()
        }
    }

    /// Override the receive policy (builder style).
    pub fn comm_config(mut self, comm: CommConfig) -> Self {
        self.comm = comm;
        self
    }

    /// Run every rank's kernels on `n_threads` threads (builder style).
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.threading = Threading::with_threads(n_threads);
        self
    }

    /// Full per-rank threading configuration (builder style).
    pub fn threading(mut self, threading: Threading) -> Self {
        self.threading = threading;
        self
    }

    /// Checkpoint every `every` chain completions under supervision
    /// (builder style).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint = CheckpointConfig::new(every);
        self
    }

    /// No effect: every [`ExecMode`] selects the one drain (builder
    /// style, kept for callers that name a mode).
    pub fn exec(self, _mode: ExecMode) -> Self {
        self
    }
}

/// Everything a distributed run returns.
#[derive(Debug)]
pub struct DistOutcome<R> {
    /// Per-rank instrumentation, indexed by rank. Present for failed
    /// ranks too (whatever they recorded before dying), including the
    /// transport counters in [`RankTrace::comm`].
    pub traces: Vec<RankTrace>,
    /// Per-rank program verdicts, indexed by rank.
    pub results: Vec<Result<R, RankFailure>>,
}

impl<R> DistOutcome<R> {
    /// True when every rank completed.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// The failures, in rank order.
    pub fn failures(&self) -> Vec<&RankFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Unwrap every rank's result, panicking with a readable listing if
    /// any rank failed. The shortcut for healthy-network callers.
    pub fn unwrap_results(self) -> Vec<R> {
        let mut out = Vec::with_capacity(self.results.len());
        let mut errs = Vec::new();
        for r in self.results {
            match r {
                Ok(v) => out.push(v),
                Err(f) => errs.push(f.to_string()),
            }
        }
        if !errs.is_empty() {
            panic!("{} rank(s) failed:\n  {}", errs.len(), errs.join("\n  "));
        }
        out
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute `program` on every rank concurrently over a perfect network.
/// On return, the global domain's dats hold each successful owner's
/// final values. See [`run_distributed_with`] for fault injection and
/// receive-policy overrides.
pub fn run_distributed<F, R>(
    dom: &mut Domain,
    layouts: &[RankLayout],
    program: F,
) -> DistOutcome<R>
where
    F: Fn(&mut RankEnv<'_>) -> Result<R, RuntimeError> + Sync,
    R: Send,
{
    run_distributed_with(dom, layouts, &RunOptions::default(), program)
}

/// [`run_distributed`] with explicit [`RunOptions`] (fault plan,
/// receive deadline/retry policy, threading).
pub fn run_distributed_with<F, R>(
    dom: &mut Domain,
    layouts: &[RankLayout],
    opts: &RunOptions,
    program: F,
) -> DistOutcome<R>
where
    F: Fn(&mut RankEnv<'_>) -> Result<R, RuntimeError> + Sync,
    R: Send,
{
    // One rank's homeward payload: local dats (successful ranks only),
    // trace, verdict.
    type RankYield<R> = (Option<Vec<Vec<f64>>>, RankTrace, Result<R, RankFailure>);
    let nparts = layouts.len();
    assert!(nparts >= 1);
    let world = match &opts.faults {
        Some(plan) => CommWorld::with_faults(nparts, plan.clone()),
        None => CommWorld::new(nparts),
    }
    .with_config(opts.comm);
    let comms = world.into_ranks();

    let dom_ref: &Domain = dom;
    let program_ref = &program;
    let mut collected: Vec<Option<RankYield<R>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .zip(layouts.iter())
            .map(|(comm, layout)| {
                scope.spawn(move || {
                    let mut env = RankEnv::new(layout, dom_ref, comm);
                    env.threading = opts.threading;
                    let run = catch_unwind(AssertUnwindSafe(|| program_ref(&mut env)));
                    let verdict = match run {
                        Ok(Ok(r)) => Ok(r),
                        Ok(Err(error)) => Err(RankFailure::Failed {
                            rank: env.rank,
                            error,
                        }),
                        Err(payload) => Err(RankFailure::Panicked {
                            rank: env.rank,
                            message: panic_message(payload),
                        }),
                    };
                    // Exit broadcast, success or not: peers blocked on
                    // this rank unwind with PeerHangup instead of
                    // waiting out their deadlines. FIFO order keeps the
                    // sentinel behind every real message.
                    env.comm.hangup_all();
                    env.trace.comm = env.comm.counters;
                    env.trace.plan = env.plans.stats;
                    // Park checkpoint state (plan cache, thread pool,
                    // comm pools, recovery counters) back into the
                    // supervisor's slot — runs for failed ranks too,
                    // since the env survives catch_unwind.
                    env.ckpt_seal();
                    let dats = verdict.is_ok().then_some(env.dats);
                    (dats, env.trace, verdict)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| Some(h.join().expect("rank thread died outside catch_unwind")))
            .collect()
    });

    // The rank environments are gone, but what they freed stays in the
    // rank threads' malloc arenas. Hand it back before the scatter below
    // first touches the global dats' zeroed pages, so peak RSS does not
    // depend on the order in which the ranks exited.
    release_freed_heap();
    let mut traces = Vec::with_capacity(nparts);
    let mut results = Vec::with_capacity(nparts);
    for (layout, slot) in layouts.iter().zip(collected.iter_mut()) {
        let (dats, trace, verdict) = slot.take().expect("every rank joined");
        if let Some(dats) = dats {
            for (didx, local) in dats.iter().enumerate() {
                layout.scatter_owned(dom, DatId(didx as u32), local);
            }
        }
        traces.push(trace);
        results.push(verdict);
    }
    DistOutcome { traces, results }
}

/// Return the free pages of every malloc arena to the OS (glibc's
/// `malloc_trim`); nothing on other targets.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointer and touches only glibc's
        // own allocator state, under the arena locks; any thread may call
        // it at any time.
        unsafe { malloc_trim(0) };
    }
}

/// What a command-line front end should warn about when `ranks` ranks
/// of `threads` kernel threads each exceed the host's `cores`
/// (`std::thread::available_parallelism`): `--threads`/
/// [`RunOptions::with_threads`] is per rank and never capped, and on
/// shared cores the threaded lowering can lose to one thread (the
/// `mgcfd-compute` shape ran 1.7× slower at 2 ranks × 2 threads on a
/// 2-vCPU host). `None` when they fit. Nothing is capped here.
pub fn oversubscription(ranks: usize, threads: usize, cores: usize) -> Option<String> {
    let wanted = ranks.saturating_mul(threads);
    (wanted > cores).then(|| {
        format!(
            "{ranks} ranks x {threads} per rank = {wanted} threads on {cores} available cores; \
             the run is oversubscribed and may be slower than with fewer threads"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_chain, run_loop};

    #[test]
    fn oversubscription_warns_only_past_the_cores() {
        assert_eq!(oversubscription(2, 1, 2), None);
        assert_eq!(oversubscription(1, 2, 2), None);
        let w = oversubscription(2, 2, 2).expect("4 threads on 2 cores");
        assert!(
            w.contains("2 ranks x 2 per rank = 4 threads on 2 available cores"),
            "{w}"
        );
    }
    use op2_core::{AccessMode, Arg, Args, ChainSpec, GblDecl, LoopSpec};
    use op2_mesh::Quad2D;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition};

    fn count_kernel(args: &Args<'_>) {
        args.inc(0, 0, 1.0);
        args.inc(1, 0, 1.0);
    }

    fn sum_kernel(args: &Args<'_>) {
        args.inc(1, 0, args.get(0, 0));
    }

    fn setup(nx: usize, ny: usize, nparts: usize, depth: usize) -> (Quad2D, Vec<RankLayout>) {
        let m = Quad2D::generate(nx, ny);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let layouts = build_layouts(&m.dom, &own, depth);
        (m, layouts)
    }

    /// Distributed degree count (integer-valued: exact across any
    /// execution order) matches the sequential reference.
    #[test]
    fn distributed_matches_sequential_exactly() {
        let (mut m, layouts) = setup(7, 5, 4, 2);
        let deg = m.dom.decl_dat_zeros("deg", m.nodes, 1);
        let spec = LoopSpec::new(
            "count",
            m.edges,
            vec![
                Arg::dat_indirect(deg, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(deg, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );

        // Sequential reference.
        let mut seq_dom = m.dom.clone();
        op2_core::seq::run_loop(&mut seq_dom, &spec);

        run_distributed(&mut m.dom, &layouts, |env| {
            run_loop(env, &spec)?;
            Ok(())
        })
        .unwrap_results();
        assert_eq!(m.dom.dat(deg).data, seq_dom.dat(deg).data);
    }

    /// Global reductions count every owned element exactly once, even
    /// though redundant halo iterations execute.
    #[test]
    fn reduction_not_double_counted() {
        let (mut m, layouts) = setup(6, 6, 3, 2);
        let ones = {
            let n = m.dom.set(m.nodes).size;
            m.dom.decl_dat("ones", m.nodes, 1, vec![1.0; n])
        };
        let spec = LoopSpec::with_gbls(
            "sum",
            m.nodes,
            vec![
                Arg::dat_direct(ones, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::reduction(1)],
            sum_kernel,
        );
        let n_nodes = m.dom.set(m.nodes).size as f64;
        let out = run_distributed(&mut m.dom, &layouts, |env| run_loop(env, &spec));
        for r in out.unwrap_results() {
            assert_eq!(r.gbls[0], vec![n_nodes]);
        }
    }

    /// A 2-loop chain under Alg 2 equals the sequential result exactly
    /// (integer data) and sends exactly one grouped message per
    /// neighbour.
    #[test]
    fn chain_matches_sequential_and_groups_messages() {
        let (mut m, layouts) = setup(8, 8, 4, 2);
        let a = m.dom.decl_dat_zeros("a", m.nodes, 1);
        let b = m.dom.decl_dat_zeros("b", m.nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            m.edges,
            vec![
                Arg::dat_indirect(a, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );
        fn consume_kernel(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0));
            args.inc(3, 0, args.get(1, 0));
        }
        let consume = LoopSpec::new(
            "consume",
            m.edges,
            vec![
                Arg::dat_indirect(a, m.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(a, m.e2n, 1, AccessMode::Read),
                Arg::dat_indirect(b, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(b, m.e2n, 1, AccessMode::Inc),
            ],
            consume_kernel,
        );
        let chain = ChainSpec::new("pc", vec![produce.clone(), consume.clone()], None, &[])
            .unwrap();
        assert_eq!(chain.halo_ext, vec![2, 1]);

        let mut seq_dom = m.dom.clone();
        op2_core::seq::run_loop(&mut seq_dom, &produce);
        op2_core::seq::run_loop(&mut seq_dom, &consume);

        let out = run_distributed(&mut m.dom, &layouts, |env| run_chain(env, &chain));
        assert!(out.all_ok());
        assert_eq!(m.dom.dat(a).data, seq_dom.dat(a).data);
        assert_eq!(m.dom.dat(b).data, seq_dom.dat(b).data);
        // One grouped message per neighbour.
        for (trace, layout) in out.traces.iter().zip(layouts.iter()) {
            let rec = &trace.chains[0];
            assert!(rec.exch.n_msgs <= layout.neighbors.len());
        }
    }

    /// Single-rank execution works without any communication.
    #[test]
    fn single_rank_runs() {
        let (mut m, layouts) = setup(4, 4, 1, 2);
        let deg = m.dom.decl_dat_zeros("deg", m.nodes, 1);
        let spec = LoopSpec::new(
            "count",
            m.edges,
            vec![
                Arg::dat_indirect(deg, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(deg, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );
        let out = run_distributed(&mut m.dom, &layouts, |env| run_loop(env, &spec));
        assert!(out.all_ok());
        assert_eq!(out.traces[0].loops[0].exch.n_msgs, 0);
        let total: f64 = m.dom.dat(deg).data.iter().sum();
        assert_eq!(total, 2.0 * m.dom.set(m.edges).size as f64);
    }

    /// A panicking rank no longer brings the harness down: its failure
    /// is contained and reported; other ranks unwind via hangup; their
    /// data still scatters back.
    #[test]
    fn rank_panic_is_contained() {
        let (mut m, layouts) = setup(6, 6, 3, 1);
        let d = m.dom.decl_dat_zeros("d", m.nodes, 1);
        let before = m.dom.dat(d).data.clone();
        let spec = LoopSpec::new(
            "count",
            m.edges,
            vec![
                Arg::dat_indirect(d, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(d, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );
        let out = run_distributed(&mut m.dom, &layouts, |env| {
            if env.rank == 1 {
                panic!("deliberate test panic on rank 1");
            }
            run_loop(env, &spec)?;
            Ok(env.rank)
        });
        assert!(!out.all_ok());
        match &out.results[1] {
            Err(RankFailure::Panicked { rank, message }) => {
                assert_eq!(*rank, 1);
                assert!(message.contains("deliberate test panic"), "{message}");
            }
            other => panic!("expected rank 1 panic, got {other:?}"),
        }
        // Rank 1's owned elements keep their pre-run values.
        let own = &layouts[1];
        let dd = m.dom.dat(d);
        for set_l in [&own.sets[dd.set.idx()]] {
            for &g in set_l.locals.iter().take(set_l.n_owned) {
                assert_eq!(dd.data[g as usize], before[g as usize]);
            }
        }
    }

    /// Returning a RuntimeError from the program closure is a per-rank
    /// failure, not a panic.
    #[test]
    fn rank_error_is_reported() {
        let (mut m, layouts) = setup(4, 4, 2, 1);
        let out: DistOutcome<()> = run_distributed(&mut m.dom, &layouts, |env| {
            if env.rank == 0 {
                Err(RuntimeError::Comm(crate::comm::CommError::PeerHangup {
                    peer: 9,
                }))
            } else {
                Ok(())
            }
        });
        assert!(matches!(
            &out.results[0],
            Err(RankFailure::Failed { rank: 0, .. })
        ));
        assert!(out.results[1].is_ok());
        assert_eq!(out.failures().len(), 1);
    }
}
