//! Online rebalancing: trace-driven imbalance detection, live element
//! migration, and epoch-safe replanning.
//!
//! The paper's experiments partition once, up front, from element
//! counts. Real workloads drift: adaptive physics, cache effects and
//! heterogeneous nodes skew per-rank cost until the slowest rank gates
//! every exchange. This module closes the loop at runtime:
//!
//! 1. **Detector** — [`LoadEstimate`] aggregates the measured per-unit
//!    wall times each executor already stamps into
//!    [`RankTrace`] (a sliding window of the
//!    most recent units) into a per-rank load vector; migration triggers
//!    when `max/mean` reaches the [`RebalanceConfig`] threshold.
//! 2. **Planner** — the measured rank load is spread over each rank's
//!    owned base elements ([`element_costs`]) and fed to the weighted
//!    partitioners; [`op2_partition::plan_migration`] diffs old against
//!    new ownership into per-peer move lists and rebuilds rings, halos
//!    and grouped-message layouts.
//! 3. **Executor** — [`ship_migration`] runs a one-shot distributed
//!    program over the *old* layouts: every old owner packs its moved
//!    elements' dat slices plus the global-id renumbering table and
//!    ships them to the new owner over the same fault-tolerant
//!    transport the solver uses; the staged payloads are then applied
//!    to the global domain. The shipped bytes are authoritative — a
//!    transport that corrupted them would break the bitwise contract
//!    the tests assert.
//! 4. **Epoch fence** — [`fence_slots`] makes the switch coherent for
//!    carried supervisor state: the carried plan cache bumps its layout
//!    epoch (the one fence the resident service applies too),
//!    checkpoints and journals of the old layout are discarded and the
//!    [`RankState`] layout epoch advances, so a crash-recovery rollback
//!    after a migration can only ever restore post-migration state.
//!
//! **Bitwise contract**: migration copies owned values verbatim — the
//! machinery itself is value-preserving. For programs whose arithmetic
//! is exact in f64 (integer-valued dats, the repo's bitwise fixtures) a
//! migrated run is **bitwise identical** to a never-migrated run — at
//! any thread count, and across crash-recovery rollbacks that straddle
//! the migration boundary (`tests/rebalance.rs`). For rounding kernels
//! one caveat is inherited from the executor, not introduced by
//! migration: the owner assignment decides the order of indirect `Inc`
//! contributions at partition-boundary nodes and of each rank's
//! reduction partials, so any two partitions — static or migrated —
//! differ by ~1 ULP at a handful of boundary entries and in the
//! reductions (RMS/norm); the contract there is 1e-10 relative
//! (DESIGN.md §15).

use crate::checkpoint::RankState;
use crate::error::RuntimeError;
use crate::harness::{run_distributed_with, RunOptions};
use crate::job::{run_job_with_state, Job, JobRun};
use crate::supervise::SuperviseOptions;
use crate::trace::{RankTrace, RebalanceRec};
use op2_core::{DatId, Domain, SetId};
use op2_partition::{
    ownership_from_layouts, plan_migration, rcb_partition_weighted, MigrationPlan, RankLayout,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Rebalancing trigger policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Trigger when the windowed `max/mean` per-rank load ratio reaches
    /// this value. 1 triggers on any measurable imbalance; 0 always
    /// triggers (a ratio below 1 cannot occur).
    pub threshold: f64,
    /// How many most-recent units (loops + chains) of each rank's trace
    /// enter the load estimate.
    pub window: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            threshold: 1.25,
            window: 8,
        }
    }
}

impl RebalanceConfig {
    /// Policy with an explicit threshold and window.
    pub fn new(threshold: f64, window: usize) -> Self {
        assert!(threshold.is_finite() && threshold >= 0.0);
        assert!(window >= 1, "rebalance window must be at least 1");
        RebalanceConfig { threshold, window }
    }
}

/// Host-level rebalancing policy: the detector configuration plus how a
/// segmented run (detection at segment boundaries) behaves.
/// [`run_job_rebalanced`] splits a job's iteration sequence into
/// segments, runs each under supervision, and consults the detector
/// between segments.
#[derive(Debug, Clone, Default)]
pub struct RebalancePolicy {
    /// Detector configuration (threshold, window).
    pub cfg: RebalanceConfig,
    /// Iterations per supervised segment (0 = run everything in one
    /// segment, i.e. never check). Detection happens only at segment
    /// boundaries — a chain boundary, where no messages are in flight.
    pub segment_iters: usize,
    /// Explicit per-element cost override. `None` derives costs from
    /// the measured per-rank load ([`element_costs`]); tests pass
    /// explicit skews so the re-sharded partition is deterministic.
    pub costs: Option<Vec<f64>>,
    /// Migration budget per run (0 = unlimited).
    pub max_migrations: usize,
    /// Fault plan injected into the first segment *after* a migration —
    /// the chaos hook for crash-recovery straddling a migration
    /// boundary. Segments before the migration run with the caller's
    /// own fault plan.
    pub post_migration_faults: Option<Arc<crate::fault::FaultPlan>>,
}

impl RebalancePolicy {
    /// A policy that checks every `segment_iters` iterations and
    /// migrates at most once.
    pub fn every(segment_iters: usize, cfg: RebalanceConfig) -> Self {
        RebalancePolicy {
            cfg,
            segment_iters,
            costs: None,
            max_migrations: 1,
            post_migration_faults: None,
        }
    }

    /// Override the per-element costs used for the re-shard.
    pub fn with_costs(mut self, costs: Vec<f64>) -> Self {
        self.costs = Some(costs);
        self
    }
}

/// Windowed per-rank load estimate, aggregated from measured unit wall
/// times.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadEstimate {
    /// Summed wall time of each rank's most recent `window` units.
    pub per_rank_ns: Vec<u64>,
}

impl LoadEstimate {
    /// Aggregate the most recent `window` units of every rank's trace.
    pub fn from_traces(traces: &[RankTrace], window: usize) -> Self {
        LoadEstimate {
            per_rank_ns: traces.iter().map(|t| t.recent_wall_ns(window)).collect(),
        }
    }

    /// `max/mean` load ratio — 1.0 for a perfectly balanced (or
    /// unmeasured) world, growing with imbalance.
    pub fn ratio(&self) -> f64 {
        let n = self.per_rank_ns.len();
        if n == 0 {
            return 1.0;
        }
        let total: u64 = self.per_rank_ns.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = *self.per_rank_ns.iter().max().expect("non-empty") as f64;
        max / (total as f64 / n as f64)
    }

    /// The ratio in fixed-point milli units (trace/JSON friendly).
    pub fn imbalance_milli(&self) -> u64 {
        (self.ratio() * 1000.0).round() as u64
    }
}

/// Does the windowed estimate warrant a migration under `cfg`? Returns
/// the estimate when it does.
pub fn detect(traces: &[RankTrace], cfg: &RebalanceConfig) -> Option<LoadEstimate> {
    let est = LoadEstimate::from_traces(traces, cfg.window);
    (est.ratio() >= cfg.threshold).then_some(est)
}

/// Spread each rank's measured load evenly over its owned base
/// elements: the per-element cost weights the weighted partitioners
/// consume. Falls back to uniform cost when nothing was measured.
pub fn element_costs(
    dom: &Domain,
    base: SetId,
    layouts: &[RankLayout],
    est: &LoadEstimate,
) -> Vec<f64> {
    let n = dom.set(base).size;
    let mut costs = vec![1.0f64; n];
    if est.per_rank_ns.iter().all(|&ns| ns == 0) {
        return costs;
    }
    for (r, l) in layouts.iter().enumerate() {
        let sl = &l.sets[base.idx()];
        if sl.n_owned == 0 {
            continue;
        }
        let per = (est.per_rank_ns.get(r).copied().unwrap_or(0) as f64 / sl.n_owned as f64)
            .max(f64::MIN_POSITIVE);
        for &g in &sl.locals[..sl.n_owned] {
            costs[g as usize] = per;
        }
    }
    costs
}

/// Predicted post-migration imbalance: the same cost vector summed
/// under the new base ownership.
fn predicted_ratio_milli(costs: &[f64], new_base: &[u32], nparts: usize) -> u64 {
    let mut loads = vec![0.0f64; nparts];
    for (e, &o) in new_base.iter().enumerate() {
        loads[o as usize] += costs[e];
    }
    let total: f64 = loads.iter().sum();
    if total <= 0.0 {
        return 1000;
    }
    let max = loads.iter().fold(0.0f64, |a, &b| a.max(b));
    (max / (total / nparts as f64) * 1000.0).round() as u64
}

/// Aggregate outcome of one executed migration.
#[derive(Debug)]
pub struct RebalanceOutcome {
    /// The rebuilt per-rank layouts — subsequent segments run on these.
    pub layouts: Vec<RankLayout>,
    /// The new base-set owner per element.
    pub base_owner: Vec<u32>,
    /// Aggregate counters (also stamped per rank in `per_rank`).
    pub rec: RebalanceRec,
    /// Per-rank counters from the shipping program's traces.
    pub per_rank: Vec<RebalanceRec>,
}

/// The dats declared on `set`, with their dims, in [`DatId`] order —
/// the wire order both sides of a migration payload derive
/// independently.
fn dats_on(dom: &Domain, set: SetId) -> Vec<(DatId, usize)> {
    (0..dom.n_dats())
        .map(|d| DatId(d as u32))
        .filter(|&d| dom.dat(d).set == set)
        .map(|d| (d, dom.dat(d).dim))
        .collect()
}

/// Execute a planned migration over the **old** layouts: each old owner
/// packs `[gid, dat slices...]` per moved element per destination peer
/// and ships it through the transport; the received payloads are
/// verified against the plan's renumbering tables and applied to the
/// global domain. Returns per-rank counters (bytes/elements shipped).
///
/// The applied values travelled the wire — after this call the moved
/// elements' global values are whatever the transport delivered, which
/// is what makes the end-to-end bitwise tests a real transport check.
pub fn ship_migration(
    dom: &mut Domain,
    old_layouts: &[RankLayout],
    plan: &MigrationPlan,
    opts: &RunOptions,
) -> Result<Vec<RebalanceRec>, RuntimeError> {
    assert_eq!(old_layouts.len(), plan.nparts);
    let out = run_distributed_with(dom, old_layouts, opts, |env| {
        let me = env.rank;
        let tag = env.next_tag();
        for ml in plan.outgoing(me) {
            let cap = MigrationPlan::wire_f64s(env.dom, ml);
            let mut payload = env.comm.take_buf(ml.to, cap);
            for sm in &ml.sets {
                let sl = &env.layout.sets[sm.set.idx()];
                let g2l: HashMap<u32, usize> = sl.locals[..sl.n_owned]
                    .iter()
                    .enumerate()
                    .map(|(l, &g)| (g, l))
                    .collect();
                let dats = dats_on(env.dom, sm.set);
                for &gid in &sm.elems {
                    payload.push(gid as f64);
                    let l = *g2l
                        .get(&gid)
                        .expect("move list names an element this rank does not own");
                    for &(d, dim) in &dats {
                        payload.extend_from_slice(&env.dats[d.idx()][l * dim..(l + 1) * dim]);
                    }
                }
            }
            debug_assert_eq!(payload.len(), cap);
            env.trace.rebalance.elements_out += ml.elements() as u64;
            env.trace.rebalance.bytes_out += (payload.len() * 8) as u64;
            env.comm.isend(ml.to, tag, payload);
        }
        env.trace.rebalance.migrations += 1;
        let mut staged: Vec<(u32, Vec<f64>)> = Vec::new();
        for ml in plan.incoming(me) {
            let payload = env.comm.recv(ml.from, tag)?;
            staged.push((ml.from, payload));
        }
        Ok(staged)
    });
    let mut recs = Vec::with_capacity(plan.nparts);
    for t in &out.traces {
        recs.push(t.rebalance);
    }
    let staged = out.unwrap_results();
    for (r, recvd) in staged.into_iter().enumerate() {
        let mut lists = plan.incoming(r as u32);
        for (from, payload) in recvd {
            let ml = lists.next().expect("more payloads than incoming lists");
            assert_eq!(ml.from, from, "migration payloads arrived out of plan order");
            let mut off = 0usize;
            for sm in &ml.sets {
                let dats = dats_on(dom, sm.set);
                for &gid in &sm.elems {
                    assert_eq!(
                        payload[off], gid as f64,
                        "migration renumbering table mismatch (rank {r} from {from})"
                    );
                    off += 1;
                    let g = gid as usize;
                    for &(d, dim) in &dats {
                        dom.dat_mut(d).data[g * dim..(g + 1) * dim]
                            .copy_from_slice(&payload[off..off + dim]);
                        off += dim;
                    }
                }
            }
            assert_eq!(off, payload.len(), "migration payload length mismatch");
        }
        assert!(lists.next().is_none(), "fewer payloads than incoming lists");
    }
    Ok(recs)
}

/// Plan and execute one migration: re-shard the base set from
/// per-element `costs` (weighted RCB over `coords`), diff into move
/// lists, ship the moved elements, and return the rebuilt layouts plus
/// counters. Returns `None` when the re-shard moves nothing (already
/// balanced under the given costs).
///
/// The caller owns the epoch fence: call [`fence_slots`] on any carried
/// supervisor state (and, in the resident service, re-key the world)
/// before running on the returned layouts.
#[allow(clippy::too_many_arguments)]
pub fn rebalance(
    dom: &mut Domain,
    base: SetId,
    coords: DatId,
    dims: usize,
    layouts: &[RankLayout],
    costs: &[f64],
    imbalance_before_milli: u64,
    opts: &RunOptions,
) -> Result<Option<RebalanceOutcome>, RuntimeError> {
    let nparts = layouts.len();
    let t0 = Instant::now();
    let new_base = rcb_partition_weighted(&dom.dat(coords).data, dims, costs, nparts);
    let old = ownership_from_layouts(dom, layouts);
    let plan = plan_migration(dom, base, &old, new_base, layouts[0].depth);
    let replan_ns = t0.elapsed().as_nanos() as u64;
    if plan.moves.is_empty() {
        return Ok(None);
    }
    let imbalance_after_milli = predicted_ratio_milli(costs, &plan.base_owner, nparts);
    let mut per_rank = ship_migration(dom, layouts, &plan, opts)?;
    let mut rec = RebalanceRec::default();
    for r in &mut per_rank {
        r.replans = 1;
        r.replan_ns = replan_ns;
        r.imbalance_before_milli = imbalance_before_milli;
        r.imbalance_after_milli = imbalance_after_milli;
        rec.add(r);
    }
    rec.migrations = 1;
    rec.replans = 1;
    rec.replan_ns = replan_ns;
    let MigrationPlan {
        base_owner, layouts, ..
    } = plan;
    Ok(Some(RebalanceOutcome {
        layouts,
        base_owner,
        rec,
        per_rank,
    }))
}

/// What a re-shard partitions: the base set, its coordinate dat and the
/// coordinate dimension.
#[derive(Debug, Clone, Copy)]
pub struct ShardBasis {
    /// The set ownership derives from.
    pub set: SetId,
    /// Its coordinates (weighted RCB cuts along these).
    pub coords: DatId,
    /// Coordinates per element.
    pub dims: usize,
}

/// [`crate::job::run_job_supervised`] with **online rebalancing** — the
/// one segmented host. The job's iterations are split into segments of
/// `policy.segment_iters`; each segment runs under supervision over
/// shared per-rank state slots (setup with the first, finish with the
/// last — [`crate::job::exec_job_program`] stays the only walker), and
/// at every segment boundary the windowed detector inspects the
/// segment's measured per-rank wall times. When it trips, the base set
/// is re-sharded from per-element costs (measured, or `policy.costs`),
/// the moved elements ship over the transport ([`rebalance`]), the
/// carried state is epoch-fenced ([`fence_slots`]), and the remaining
/// segments run on the new layouts. `policy.post_migration_faults`
/// replace the caller's fault plan for the first segment on a migrated
/// layout (the chaos hook); migration traffic itself is never a fault
/// target.
///
/// The machinery is value-preserving (see the module docs for the
/// bitwise contract). Returns the run (final segment's traces), the
/// aggregate [`RebalanceRec`], and the layouts the run finished on.
pub fn run_job_rebalanced(
    dom: &mut Domain,
    layouts: &[RankLayout],
    job: &Job,
    opts: &SuperviseOptions,
    policy: &RebalancePolicy,
    basis: ShardBasis,
) -> Result<(JobRun, RebalanceRec, Vec<RankLayout>), RuntimeError> {
    let slots = RankState::fresh_slots(layouts.len());
    let mut cur = layouts.to_vec();
    let seg_len = match policy.segment_iters {
        0 => job.iters.max(1),
        n => n,
    };
    let mut done = 0usize;
    let mut migrations = 0usize;
    let mut post_migration = false;
    let mut rec = RebalanceRec::default();
    loop {
        let seg = seg_len.min(job.iters - done);
        let mut sopts = opts.clone();
        if std::mem::take(&mut post_migration) {
            sopts.run.faults = policy.post_migration_faults.clone();
        }
        let run = run_job_with_state(dom, &cur, &job.segment(done, seg), &sopts, &slots, 0)?;
        done += seg;
        if done >= job.iters {
            return Ok((run, rec, cur));
        }
        if policy.max_migrations != 0 && migrations >= policy.max_migrations {
            continue;
        }
        let Some(est) = detect(&run.traces, &policy.cfg) else {
            continue;
        };
        let costs = match &policy.costs {
            Some(c) => c.clone(),
            None => element_costs(dom, basis.set, &cur, &est),
        };
        let mut ship_opts = opts.run.clone();
        ship_opts.faults = None;
        if let Some(outcome) = rebalance(
            dom,
            basis.set,
            basis.coords,
            basis.dims,
            &cur,
            &costs,
            est.imbalance_milli(),
            &ship_opts,
        )? {
            fence_slots(&slots);
            cur = outcome.layouts;
            rec.add(&outcome.rec);
            migrations += 1;
            post_migration = true;
        }
    }
}

/// Epoch fence over carried supervisor state after a migration: bump
/// each slot's layout epoch, discard checkpoints and journal entries of
/// the old layout (their dats, tags and boundary counters describe
/// index spaces that no longer exist), and fence the carried resources:
/// the plan cache drops every plan, exchange and lowering of the old
/// layout, while the worker pool and the payload pools survive.
pub fn fence_slots(slots: &[Arc<Mutex<RankState>>]) {
    for slot in slots {
        let mut st = crate::checkpoint::lock(slot);
        st.layout_epoch += 1;
        let cur = st.layout_epoch;
        st.checkpoints.retain(|c| c.layout_epoch == cur);
        st.journal.clear();
        st.restore = false;
        if let Some(carry) = st.carry.as_mut() {
            carry.fence();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ChainRec, LoopRec};

    fn trace_with(walls: &[u64]) -> RankTrace {
        let mut t = RankTrace::default();
        for &w in walls {
            t.loops.push(LoopRec {
                wall_ns: w,
                ..LoopRec::default()
            });
        }
        t
    }

    #[test]
    fn detector_windows_and_triggers() {
        // Rank 1 is 3x slower over the window: ratio = 3 / 1.5 = 2.
        let traces = vec![trace_with(&[100; 4]), trace_with(&[300; 4])];
        let est = LoadEstimate::from_traces(&traces, 4);
        assert_eq!(est.per_rank_ns, vec![400, 1200]);
        assert!((est.ratio() - 1.5).abs() < 1e-12);
        assert_eq!(est.imbalance_milli(), 1500);

        // The window slides: only the last 2 units count.
        let traces = vec![trace_with(&[1000, 100, 100]), trace_with(&[1, 100, 100])];
        let est = LoadEstimate::from_traces(&traces, 2);
        assert_eq!(est.per_rank_ns, vec![200, 200]);
        assert!((est.ratio() - 1.0).abs() < 1e-12);

        let hot = vec![trace_with(&[100; 4]), trace_with(&[300; 4])];
        assert!(detect(&hot, &RebalanceConfig::new(1.4, 4)).is_some());
        assert!(detect(&hot, &RebalanceConfig::new(1.6, 4)).is_none());
        // Threshold 0 always triggers (forced-migration test hook).
        let idle = [trace_with(&[]), trace_with(&[])];
        assert!(detect(&idle, &RebalanceConfig::new(0.0, 4)).is_some());
    }

    #[test]
    fn unmeasured_world_is_balanced() {
        let est = LoadEstimate::from_traces(&[RankTrace::default(), RankTrace::default()], 8);
        assert_eq!(est.ratio(), 1.0);
        let mut t = RankTrace::default();
        t.chains.push(ChainRec::default());
        assert_eq!(LoadEstimate::from_traces(&[t], 8).ratio(), 1.0);
    }

    #[test]
    fn predicted_ratio_counts_new_owners() {
        let costs = vec![1.0, 1.0, 1.0, 3.0];
        // All on one rank: max 6 / mean 3 = 2.
        assert_eq!(predicted_ratio_milli(&costs, &[0, 0, 0, 0], 2), 2000);
        // Split hot element off: 3 vs 3 — balanced.
        assert_eq!(predicted_ratio_milli(&costs, &[0, 0, 0, 1], 2), 1000);
    }
}
