//! Chain-boundary checkpointing: the state capture/restore half of the
//! self-healing runtime (the failure detection and restart policy live
//! in [`crate::supervise`]), plus what a supervised run carries from one
//! attempt to the next.
//!
//! ## Consistency model
//!
//! A *unit* is one executor invocation — a [`crate::exec::run_loop`] or
//! a `run_chain*` call. Units execute in the same order on every rank
//! (the SPMD invariant the whole runtime is built on), so "after unit
//! `k`" names a globally consistent cut: no messages are in flight
//! between units, every rank's validity/tag state at that cut is a pure
//! function of the program prefix. Checkpoints are taken at chain
//! boundaries (every [`CheckpointConfig::every`] completed chains, set
//! by [`crate::harness::RunOptions::checkpoint`] and 1 by default, plus
//! a baseline at attempt start), tagged with a monotonically increasing
//! *epoch* that is identical across ranks for the same cut — which is
//! what lets the supervisor roll every rank back to the newest epoch
//! that exists everywhere and get a consistent world.
//!
//! ## What a checkpoint holds
//!
//! The rank's full dat payloads (incrementally: a dat whose version
//! counter has not moved since the previous checkpoint shares that
//! checkpoint's `Arc` instead of being re-copied — the dirty-tracking
//! version counters are bumped by every mutation site: loop/chain
//! write-sets and exchange unpacks), the validity depths, the tag
//! sequence, and the boundary counters. Restoring a checkpoint rewinds
//! all of them, so a replayed program re-derives bitwise-identical
//! traffic and results.
//!
//! ## Replay journal
//!
//! Completed units are journaled (`UnitRecord`), loops with their
//! bit-exact global-argument results. After a restore, units before the
//! checkpoint's cut are *skipped*: the executor returns the journaled
//! result without touching dats, communicating, or crossing fault
//! boundaries. Replay is therefore free of side effects and cannot
//! diverge from the original execution.

use crate::env::RankEnv;
use crate::plan::PlanCache;
use crate::threads::ThreadCtx;
use crate::trace::RecoveryRec;
use std::sync::{Arc, Mutex, MutexGuard};

/// Checkpoint cadence configuration
/// ([`crate::harness::RunOptions::checkpoint`]; default every chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Take a checkpoint every `every` completed chains (≥ 1). The
    /// attempt-start baseline is always taken regardless.
    pub every: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { every: 1 }
    }
}

impl CheckpointConfig {
    /// Checkpoint every `every` chains.
    pub fn new(every: u64) -> Self {
        assert!(every >= 1, "checkpoint cadence must be at least 1");
        CheckpointConfig { every }
    }
}

/// What a rank of one supervised run carries from one attempt to the
/// next: the plan cache (every product of the rank's layout), the thread
/// context (pool and scratch, layout-free) and the transport's per-peer
/// payload pools. A restart runs on the layouts the state was built on,
/// so nothing in it is ever invalidated, and a restarted attempt
/// re-inspects nothing the failed one already planned.
#[derive(Default)]
pub(crate) struct Carry {
    pub(crate) plans: PlanCache,
    pub(crate) threads: ThreadCtx,
    /// Per-peer payload buffer pools (empty until a transport sealed
    /// them), so the next transport starts warm.
    pub(crate) pools: Vec<Vec<Vec<f64>>>,
}

/// One completed unit in the replay journal.
#[derive(Debug, Clone)]
pub(crate) enum UnitRecord {
    /// A `run_loop` completion, with its bit-exact global-argument
    /// results (reductions included — replay must not re-reduce).
    Loop(Vec<Vec<f64>>),
    /// A `run_chain*` completion (chains carry no result values).
    Chain,
}

/// One epoch-tagged snapshot of a rank's restorable state.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    /// Globally consistent epoch (identical across ranks for the same
    /// program cut): 0 = attempt-start baseline.
    pub(crate) epoch: u64,
    /// Units completed at the cut this checkpoint captures.
    pub(crate) units_done: usize,
    /// Full dat payloads. Shared (`Arc`) with the previous checkpoint
    /// for dats whose version counter did not move — the incremental
    /// half of the snapshot.
    dats: Vec<Arc<Vec<f64>>>,
    /// Halo validity depths at the cut.
    valid: Vec<u8>,
    /// Tag sequence at the cut (restored so replayed traffic reuses the
    /// original tags, keeping ranks in lockstep).
    tag_seq: u64,
    /// Boundary counters at the cut (restored so fault-plan coordinates
    /// keep their meaning across a rollback).
    boundaries: [u64; 3],
    /// Per-dat version counters at the cut.
    dat_vers: Vec<u64>,
}

/// The persistent per-rank recovery state, owned by the supervisor and
/// shared with each attempt's [`RankEnv`] via `Arc<Mutex<..>>` — it
/// must outlive rank threads (including panicked ones), which is why it
/// does not live in the env itself.
#[derive(Default)]
pub struct RankState {
    /// Epoch-ordered checkpoints (the supervisor truncates above the
    /// rollback epoch).
    pub(crate) checkpoints: Vec<Checkpoint>,
    /// Completed units, journal-ordered.
    pub(crate) journal: Vec<UnitRecord>,
    /// Cumulative recovery counters across attempts; sealed into
    /// [`crate::trace::RankTrace::recovery`] at the end of each attempt.
    pub(crate) rec: RecoveryRec,
    /// Resources carried across attempts; `None` while an attempt holds
    /// them.
    pub(crate) carry: Option<Carry>,
    /// Set by the supervisor after a rollback: the next attach must
    /// restore from the newest checkpoint instead of taking a baseline.
    pub(crate) restore: bool,
}

impl std::fmt::Debug for RankState {
    // Manual: ThreadCtx (a live worker pool) is not Debug.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankState")
            .field("checkpoints", &self.checkpoints.len())
            .field("journal", &self.journal.len())
            .field("rec", &self.rec)
            .field("restore", &self.restore)
            .finish_non_exhaustive()
    }
}

impl RankState {
    /// Fresh state for one rank of a supervised run.
    pub fn new() -> Self {
        RankState::default()
    }

    /// One fresh shared slot per rank, what every
    /// [`crate::supervise::run_supervised`] call starts with.
    pub(crate) fn fresh_slots(nparts: usize) -> Vec<Arc<Mutex<RankState>>> {
        (0..nparts)
            .map(|_| Arc::new(Mutex::new(RankState::new())))
            .collect()
    }

    /// Epoch of the newest checkpoint, if any (supervisor-side view for
    /// the rollback epoch agreement).
    pub(crate) fn last_epoch(&self) -> Option<u64> {
        self.checkpoints.last().map(|c| c.epoch)
    }
}

/// Poison-resilient lock: a rank that panicked while holding a state
/// lock (it never does — all holds are short straight-line copies — but
/// belt and braces) must not wedge the supervisor.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Per-env checkpoint context: configuration, the shared persistent
/// state, and the live position/version tracking. Inert (all hooks
/// no-ops) unless [`RankEnv::ckpt_attach`] was called.
#[derive(Debug, Default)]
pub struct CheckpointCtx {
    cfg: Option<CheckpointConfig>,
    shared: Option<Arc<Mutex<RankState>>>,
    /// Units completed (or skipped) so far this attempt.
    units_done: usize,
    /// Units to serve from the journal before executing live (the
    /// restored checkpoint's cut; 0 when starting fresh).
    replay_until: usize,
    /// Chains completed since the last snapshot.
    since_snapshot: u64,
    /// Per-dat version counters: bumped by every mutation site, so an
    /// incremental snapshot knows which dats are clean.
    dat_vers: Vec<u64>,
}

impl CheckpointCtx {
    /// The inert context every env starts with.
    pub(crate) fn inert() -> Self {
        CheckpointCtx::default()
    }

    /// Dirty-tracking hook: dat `d`'s payload was (or is about to be)
    /// mutated. No-op when inert (the version vector is empty).
    #[inline]
    pub(crate) fn note_write(&mut self, d: usize) {
        if let Some(v) = self.dat_vers.get_mut(d) {
            *v += 1;
        }
    }
}

impl RankEnv<'_> {
    /// Attach this env to a supervised run's persistent state: install
    /// the carried plan cache, thread context and transport buffer
    /// pools, then either restore the newest checkpoint (after a
    /// rollback) or take the attempt-start baseline.
    pub fn ckpt_attach(&mut self, cfg: CheckpointConfig, shared: Arc<Mutex<RankState>>) {
        self.ckpt = CheckpointCtx {
            cfg: Some(cfg),
            shared: Some(Arc::clone(&shared)),
            units_done: 0,
            replay_until: 0,
            since_snapshot: 0,
            dat_vers: vec![1; self.dats.len()],
        };
        let take_baseline = {
            let mut st = lock(&shared);
            if let Some(carry) = st.carry.take() {
                // The carried context keeps its pool and scratch; the
                // configuration is this attempt's `threading`.
                self.plans = carry.plans;
                self.threads = carry.threads;
                if !carry.pools.is_empty() {
                    self.comm.install_pool(carry.pools);
                }
            }
            if st.restore {
                st.restore = false;
                let ck = st
                    .checkpoints
                    .last()
                    .expect("rollback targeted a rank with no checkpoint");
                let restored = self.restore(ck);
                st.rec.restored_bytes += restored;
                false
            } else {
                true
            }
        };
        if take_baseline {
            self.ckpt_take();
        }
    }

    /// Rewind dats, validity, tags, boundary counters and dirty tracking
    /// to `ck`, replaying up to its cut. Returns the bytes restored.
    fn restore(&mut self, ck: &Checkpoint) -> u64 {
        for (buf, saved) in self.dats.iter_mut().zip(&ck.dats) {
            buf.clone_from(saved);
        }
        self.valid.clone_from(&ck.valid);
        self.tag_seq = ck.tag_seq;
        self.boundaries = ck.boundaries;
        self.ckpt.replay_until = ck.units_done;
        self.ckpt.dat_vers.clone_from(&ck.dat_vers);
        ck.dats.iter().map(|d| d.len() as u64 * 8).sum()
    }

    /// Snapshot the rank's restorable state into a new epoch-tagged
    /// checkpoint. Incremental: dats whose version counter has not
    /// moved since the previous checkpoint share its buffers instead of
    /// being re-copied. Returns the bytes actually copied (0 when
    /// checkpointing is inert).
    pub fn ckpt_take(&mut self) -> usize {
        let Some(shared) = self.ckpt.shared.clone() else {
            return 0;
        };
        let mut st = lock(&shared);
        let mut dats = Vec::with_capacity(self.dats.len());
        let mut bytes = 0usize;
        let mut snapped = 0u64;
        let mut skipped = 0u64;
        for (d, buf) in self.dats.iter().enumerate() {
            let clean = st
                .checkpoints
                .last()
                .is_some_and(|p| p.dat_vers[d] == self.ckpt.dat_vers[d]);
            if clean {
                dats.push(Arc::clone(&st.checkpoints.last().unwrap().dats[d]));
                skipped += 1;
            } else {
                bytes += buf.len() * 8;
                snapped += 1;
                dats.push(Arc::new(buf.clone()));
            }
        }
        let epoch = st.last_epoch().map_or(0, |e| e + 1);
        st.checkpoints.push(Checkpoint {
            epoch,
            units_done: self.ckpt.units_done,
            dats,
            valid: self.valid.clone(),
            tag_seq: self.tag_seq,
            boundaries: self.boundaries,
            dat_vers: self.ckpt.dat_vers.clone(),
        });
        st.rec.checkpoints += 1;
        st.rec.ckpt_bytes += bytes as u64;
        st.rec.dats_snapshotted += snapped;
        st.rec.dats_skipped += skipped;
        bytes
    }

    /// Rewind this env to its newest checkpoint in place (the
    /// single-rank restore path, used by benches and tests; supervised
    /// rollbacks go through the `RankState::restore` flag and a fresh attach
    /// instead). Returns false when there is nothing to restore.
    pub fn ckpt_rewind(&mut self) -> bool {
        let Some(shared) = self.ckpt.shared.clone() else {
            return false;
        };
        let mut st = lock(&shared);
        let Some(ck) = st.checkpoints.last() else {
            return false;
        };
        let restored = self.restore(ck);
        let cut = ck.units_done;
        self.ckpt.units_done = 0;
        self.ckpt.since_snapshot = 0;
        st.journal.truncate(cut);
        st.rec.rollbacks += 1;
        st.rec.restored_bytes += restored;
        true
    }

    /// Executor hook: if the next unit is inside the replay window,
    /// serve the journaled loop result (no execution, no communication,
    /// no boundary crossing) and advance. `None` = execute live.
    pub(crate) fn ckpt_skip_loop(&mut self) -> Option<Vec<Vec<f64>>> {
        if self.ckpt.units_done >= self.ckpt.replay_until {
            return None;
        }
        let shared = self.ckpt.shared.as_ref()?;
        let mut st = lock(shared);
        match st.journal.get(self.ckpt.units_done) {
            Some(UnitRecord::Loop(gbls)) => {
                let gbls = gbls.clone();
                st.rec.replayed_loops += 1;
                drop(st);
                self.ckpt.units_done += 1;
                Some(gbls)
            }
            other => panic!(
                "rank {}: replay journal out of sync at unit {}: expected a loop, found {:?}",
                self.rank, self.ckpt.units_done, other
            ),
        }
    }

    /// Chain-side twin of [`RankEnv::ckpt_skip_loop`]: true = the chain
    /// was served from the journal and must not execute.
    pub(crate) fn ckpt_skip_chain(&mut self) -> bool {
        if self.ckpt.units_done >= self.ckpt.replay_until {
            return false;
        }
        let Some(shared) = self.ckpt.shared.as_ref() else {
            return false;
        };
        let mut st = lock(shared);
        match st.journal.get(self.ckpt.units_done) {
            Some(UnitRecord::Chain) => {
                st.rec.replayed_chains += 1;
                drop(st);
                self.ckpt.units_done += 1;
                true
            }
            other => panic!(
                "rank {}: replay journal out of sync at unit {}: expected a chain, found {:?}",
                self.rank, self.ckpt.units_done, other
            ),
        }
    }

    /// Executor hook: a loop unit completed live. Journals its result.
    pub(crate) fn ckpt_loop_done(&mut self, gbls: &[Vec<f64>]) {
        let Some(shared) = self.ckpt.shared.clone() else {
            return;
        };
        let mut st = lock(&shared);
        st.journal.truncate(self.ckpt.units_done);
        st.journal.push(UnitRecord::Loop(gbls.to_vec()));
        drop(st);
        self.ckpt.units_done += 1;
    }

    /// Executor hook: a chain unit completed live. Journals it and
    /// takes a snapshot when the cadence comes due.
    pub(crate) fn ckpt_chain_done(&mut self) {
        let Some(shared) = self.ckpt.shared.clone() else {
            return;
        };
        let mut st = lock(&shared);
        st.journal.truncate(self.ckpt.units_done);
        st.journal.push(UnitRecord::Chain);
        drop(st);
        self.ckpt.units_done += 1;
        self.ckpt.since_snapshot += 1;
        let every = self.ckpt.cfg.map_or(u64::MAX, |c| c.every);
        if self.ckpt.since_snapshot >= every {
            self.ckpt.since_snapshot = 0;
            self.ckpt_take();
        }
    }

    /// End-of-attempt hook (harness side, runs for failed attempts
    /// too): seal the cumulative recovery counters into the trace and
    /// stash the carried state (plan cache, thread context, buffer
    /// pools) back into the shared slot for the next attempt. Detaches
    /// the env.
    pub(crate) fn ckpt_seal(&mut self) {
        let Some(shared) = self.ckpt.shared.take() else {
            return;
        };
        let mut st = lock(&shared);
        st.rec.attempts += 1;
        self.trace.recovery = st.rec;
        st.carry = Some(Carry {
            plans: std::mem::take(&mut self.plans),
            threads: std::mem::take(&mut self.threads),
            pools: self.comm.take_pool(),
        });
    }
}
