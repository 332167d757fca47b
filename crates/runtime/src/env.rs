//! Per-rank execution state.
//!
//! A [`RankEnv`] owns everything one MPI-rank-equivalent needs: its local
//! dat buffers (in layout order: owned, then import rings level by
//! level), the transport endpoint, instrumentation, and — the key piece —
//! per-dat **halo validity depths**.
//!
//! ## Validity depths (multi-level dirty bits)
//!
//! OP2 keeps one *dirty bit* per dat: set when any loop modifies the dat,
//! cleared by a halo exchange. With multi-layered halos this generalises
//! to an integer `valid[d] = v`: our copies of rings `1..=v` agree with
//! their owners. The transitions implemented by the executors:
//!
//! * a halo exchange ([`crate::halo`]) to depth `t` raises validity to `t`;
//! * a loop executed to halo extent `e` that modifies `d` *indirectly*
//!   (INC / indirect RW / indirect WRITE) leaves `valid[d] = e − 1`: the
//!   outermost executed ring received only the increments of executed
//!   iterations, so it holds partial sums;
//! * a loop that *directly writes* `d` over extent `e` leaves
//!   `valid[d] = e` — each written element is recomputed from inputs the
//!   executor has verified valid, so our copies equal the owner's. (For
//!   the OP2-baseline executor we deliberately degrade this to 0,
//!   matching OP2's conservative single dirty bit, so baseline message
//!   counts reproduce the paper's.)
//!
//! Executors check their read requirements against `valid` before
//! touching data: an analysis bug or an under-pinned extent becomes a
//! typed [`crate::error::RuntimeError::Validity`], never silent
//! numerical corruption.

use crate::comm::RankComm;
use crate::fault::{BoundaryAction, BoundaryKind};
use crate::plan::{loop_signature, ChainPlan, LoweredSchedule, LoweringKey, PlanCache};
use crate::policy::{ExecMode, ExecPolicy};
use crate::threads::{run_schedule_dataflow, run_schedule_pooled_ctx, ExecStats, ThreadCtx};
use crate::trace::{RankTrace, SchedKind, ThreadRec};
use op2_core::conflict::chain_accesses;
use op2_core::dag::ChunkDag;
use op2_core::par::thread_schedule;
use op2_core::schedule::{BoundLoop, MapBinding, Schedule, ScheduleKind};
use op2_core::{DatId, Domain, LoopSig, LoopSpec};
use op2_partition::layout::RankLayout;
use std::collections::HashSet;

/// Per-rank state: local data, validity, transport, trace.
pub struct RankEnv<'a> {
    /// This rank.
    pub rank: u32,
    /// The rank's layout (local index spaces, maps, exchange plans).
    pub layout: &'a RankLayout,
    /// The global domain (metadata only: dims, sets; payload is local).
    pub dom: &'a Domain,
    /// Transport endpoint.
    pub comm: RankComm,
    /// Local dat buffers, indexed by `DatId`.
    pub dats: Vec<Vec<f64>>,
    /// Halo validity depth per dat.
    pub valid: Vec<u8>,
    /// Instrumentation.
    pub trace: RankTrace,
    /// Inspector–executor plan cache: one [`ChainPlan`] per (chain
    /// signature, dirty-state class) plus the standalone-loop lowerings.
    pub plans: PlanCache,
    /// Monotone tag sequence (identical across ranks by construction).
    pub tag_seq: u64,
    /// Intra-rank threading state: the rank's pool and the executors'
    /// scratch.
    pub threads: ThreadCtx,
    /// How this rank executes: pool width, drain.
    /// Sequential/leveled until the harness installs the run's policy
    /// (copied from its [`crate::harness::RunOptions`]) before the
    /// program runs.
    pub policy: ExecPolicy,
    /// Exchange plans (by content key) whose message buffers are already
    /// pre-sized into the transport's per-peer pool (see
    /// [`crate::halo::ExchangePlan::post`]).
    pub(crate) warmed: HashSet<u64>,
    /// Checkpoint/replay state (see [`crate::checkpoint`]); inert — all
    /// hooks are no-ops — unless [`RankEnv::ckpt_attach`] was called.
    pub ckpt: crate::checkpoint::CheckpointCtx,
    /// Boundaries crossed so far, per [`BoundaryKind`] — the coordinates
    /// fault plans name crash/stall points by. Restored by checkpoint
    /// rollback so those coordinates keep their meaning across restarts.
    pub(crate) boundaries: [u64; 3],
    /// Service job id this env executes for (0 outside the resident
    /// service). Stamped into [`crate::trace::TunerRec`] and
    /// [`crate::trace::RecoveryRec`] so per-job traces stay attributable
    /// when many jobs share one world.
    pub job: u64,
}

impl<'a> RankEnv<'a> {
    /// Gather this rank's view of every dat and start fully valid (the
    /// initial gather replicates owner data into every ring).
    pub fn new(layout: &'a RankLayout, dom: &'a Domain, comm: RankComm) -> Self {
        let dats: Vec<Vec<f64>> = (0..dom.n_dats())
            .map(|d| layout.gather_dat(dom, DatId(d as u32)))
            .collect();
        let valid = vec![layout.depth as u8; dom.n_dats()];
        RankEnv {
            rank: layout.rank,
            layout,
            dom,
            comm,
            dats,
            valid,
            trace: RankTrace {
                rank: layout.rank,
                ..Default::default()
            },
            plans: PlanCache::new(),
            tag_seq: 0,
            threads: ThreadCtx::default(),
            policy: ExecPolicy::default(),
            warmed: HashSet::new(),
            ckpt: crate::checkpoint::CheckpointCtx::inert(),
            boundaries: [0; 3],
            job: 0,
        }
    }

    /// Heap allocations the persistent schedule contexts (owner-computes
    /// sinks and windows) have performed so far — flat across repeat
    /// executions of the same loops and chains, which tests assert (zero
    /// steady-state allocations).
    pub fn sched_allocs(&self) -> u64 {
        self.threads.sched_ctxs.iter().map(|c| c.allocs()).sum()
    }

    /// Fresh tag for the next collective/exchange round.
    pub fn next_tag(&mut self) -> u64 {
        self.tag_seq += 64;
        self.tag_seq
    }

    /// Executor hook: this rank crossed a loop/chain boundary. If the
    /// attached fault plan names this boundary, act on it: a stall is a
    /// plain sleep (long enough to trip peers' deadlines when configured
    /// so); a crash hangs up the transport — so peers unwind promptly
    /// with [`crate::comm::CommError::PeerHangup`] — and panics, which the harness
    /// contains via `catch_unwind` and reports as a per-rank failure.
    pub fn boundary(&mut self, kind: BoundaryKind) {
        let slot = match kind {
            BoundaryKind::Loop => 0,
            BoundaryKind::Chain => 1,
            BoundaryKind::ChainLoop => 2,
        };
        let index = self.boundaries[slot];
        self.boundaries[slot] += 1;
        let Some(plan) = self.comm.fault_plan() else {
            return;
        };
        match plan.boundary_action(self.rank, kind, index) {
            None => {}
            Some(BoundaryAction::Stall(dur)) => std::thread::sleep(dur),
            Some(BoundaryAction::Crash) => {
                self.comm.hangup_all();
                panic!(
                    "fault injection: rank {} crashed at {kind:?} boundary {index}",
                    self.rank
                );
            }
        }
    }

    /// Execute `spec`'s kernel over local iterations `[start, end)`.
    /// `gbl_bufs` supplies the global-argument buffers (constants or
    /// reduction accumulators), one per [`op2_core::GblDecl`].
    ///
    /// With threading active and a range worth splitting, the range is
    /// lowered for the rank's pool (`build_loop_schedule`,
    /// cached per (loop, range, block size, width) in the rank's
    /// [`PlanCache`]) and executed there. Results are bitwise identical
    /// either way.
    pub fn exec_range(
        &mut self,
        spec: &LoopSpec,
        start: usize,
        end: usize,
        gbl_bufs: &mut [Vec<f64>],
    ) {
        self.exec_range_in(spec, start, end, gbl_bufs, None)
    }

    /// [`RankEnv::exec_range`] over either lowering cache: the plan's
    /// for the chain loop at position `pos` (`chain = Some((plan,
    /// pos))` — the lowering sits alongside the other inspector
    /// products, so repeat chain invocations re-lower nothing), the
    /// rank's plan cache for a standalone loop.
    pub(crate) fn exec_range_in(
        &mut self,
        spec: &LoopSpec,
        start: usize,
        end: usize,
        gbl_bufs: &mut [Vec<f64>],
        chain: Option<(&ChainPlan, usize)>,
    ) {
        let Some(block) = self.threaded_block_size(spec, start, end) else {
            // Sequential: the shared [`BoundLoop`] path over one range
            // (there is no second execution loop in the runtime either).
            if start < end {
                self.bind_loop(spec, gbl_bufs).run_range(start, end);
            }
            return;
        };
        let (cache, owner) = match chain {
            Some((plan, pos)) => (&plan.lowered, pos as u64),
            None => (&self.plans.lowered, loop_signature(spec)),
        };
        let key = LoweringKey {
            owner,
            start,
            end,
            block,
            width: self.policy.threading.n_threads,
        };
        let (low, built) =
            cache.get_or_build(key, || self.build_loop_schedule(spec, start, end, block));
        if built {
            self.plans.stats.color_misses += 1;
        } else {
            self.plans.stats.color_hits += 1;
        }
        let bound = self.bind_loop(spec, gbl_bufs);
        self.run_pooled(&spec.name, || vec![spec.sig()], &[bound], &low);
    }

    /// Should `[start, end)` of `spec` run on the thread pool — and with
    /// which block size? `None` means run sequentially. Requires an
    /// active configuration, no global reduction (order-sensitive float
    /// sums must accumulate in sequential order), and more than one
    /// block's worth of iterations (a single block has no parallelism to
    /// expose).
    fn threaded_block_size(&self, spec: &LoopSpec, start: usize, end: usize) -> Option<usize> {
        let t = self.policy.threading;
        (t.active() && !spec.has_reduction() && end.saturating_sub(start) > t.block_size)
            .then_some(t.block_size)
    }

    /// Inspector: lower `[start, end)` of `spec` for this rank's pool
    /// width over its localized maps ([`thread_schedule`]) —
    /// owner-computes windows when the access descriptors admit it, the
    /// block coloring at `block_size` otherwise. Only executable
    /// iterations are lowered, so every dereferenced map target is a
    /// valid local index (the layout invariant the executor itself
    /// relies on).
    fn build_loop_schedule(
        &self,
        spec: &LoopSpec,
        start: usize,
        end: usize,
        block_size: usize,
    ) -> Schedule {
        let set_sizes = self.layout.set_sizes();
        thread_schedule(
            &self.layout.maps,
            &spec.sig(),
            start,
            end,
            self.policy.threading.n_threads,
            block_size,
            &set_sizes,
        )
    }

    /// Resolve one loop's arguments against this rank's local buffers
    /// and localized maps — the runtime-side constructor of the shared
    /// [`BoundLoop`] execution path.
    fn bind_loop(&mut self, spec: &LoopSpec, gbl_bufs: &mut [Vec<f64>]) -> BoundLoop {
        BoundLoop::bind_with(spec, gbl_bufs, |dat, map| {
            let base = self.dats[dat.idx()].as_mut_ptr();
            let map = map.map(|m| {
                let lm = &self.layout.maps[m.idx()];
                MapBinding::of(lm, self.layout.sets[lm.to.idx()].n_local())
            });
            (base, self.dom.dat(dat).dim as u32, map)
        })
    }

    /// Drain `bound` over `low` on the rank's pool. Under
    /// [`ExecMode::Dataflow`] the dataflow executor runs it, on the chunk
    /// DAG derived from the chain-wide conflict accesses of `sigs()`
    /// ([`chain_accesses`]) over this rank's localized maps and kept
    /// beside the schedule; otherwise the leveled walk pays one barrier
    /// per level. Bitwise identical either way. A single-level schedule
    /// has no barrier for dataflow to remove and always takes the leveled
    /// drain — which also keeps windowed (owner-computes) chunks, always
    /// a single level, out of the DAG.
    fn drain_schedule(
        &mut self,
        sigs: impl FnOnce() -> Vec<LoopSig>,
        bound: &[BoundLoop],
        low: &LoweredSchedule,
    ) -> ExecStats {
        let pool = self.threads.pool(self.policy.threading.n_threads);
        if self.policy.exec == ExecMode::Dataflow && low.n_levels() > 1 && low.has_parallelism() {
            let layout = self.layout;
            let dag = low.dag(|sched| {
                ChunkDag::build(sched, &layout.set_sizes(), &chain_accesses(&layout.maps, &sigs()))
            });
            return run_schedule_dataflow(
                &pool,
                bound,
                low,
                dag,
                &mut self.threads.sched_ctxs,
                &mut self.threads.dataflow,
            );
        }
        run_schedule_pooled_ctx(&pool, bound, low, &mut self.threads.sched_ctxs)
    }

    /// Executor: run a loop's lowered schedule on the rank's own pool and
    /// append its [`ThreadRec`] (per-level wall times, per-worker
    /// idle/steal/fire counters), recorded by how the schedule was
    /// lowered.
    ///
    /// Same-level chunks write disjoint elements (race-free): disjoint
    /// windows under the owner-computes lowering, where each element
    /// takes its increments from one chunk in ascending iteration order;
    /// disjoint blocks under the colored fallback, where conflicting
    /// chunks are ordered by ascending level — and the dataflow drain
    /// preserves exactly the conflicting-pair order through the chunk
    /// DAG. Either way per-element update order equals the sequential
    /// executor's: results are bitwise identical for any thread count and
    /// either drain.
    fn run_pooled(
        &mut self,
        name: &str,
        sigs: impl FnOnce() -> Vec<LoopSig>,
        bound: &[BoundLoop],
        low: &LoweredSchedule,
    ) {
        let stats = self.drain_schedule(sigs, bound, low);
        let (kind, block_size) = match low.kind {
            ScheduleKind::Owned { .. } => (SchedKind::Owned, 0),
            ScheduleKind::Colored { block_size } => (SchedKind::Colored, block_size),
            _ => (SchedKind::Colored, 0),
        };
        let redundant_iters = low.redundant_iters();
        let iters: usize = (0..low.n_loops).map(|j| low.loop_iters(j)).sum();
        self.trace.threads.push(ThreadRec {
            name: name.to_string(),
            iters: iters - redundant_iters,
            redundant_iters,
            n_threads: self.threads.pool(self.policy.threading.n_threads).n_threads(),
            block_size,
            n_chunks: low.n_chunks(),
            n_levels: low.n_levels(),
            kind,
            level_ns: stats.level_ns,
            crit_path: stats.crit_path,
            dataflow: stats.dataflow,
            idle_ns: stats.idle_ns,
            steals: stats.steals,
            fires: stats.fires,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use crate::halo::{ExchangePlan, Split};
    use op2_core::{AccessMode, Arg, Args, LoopSpec};
    use op2_mesh::Quad2D;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition};

    fn noop(_: &Args<'_>) {}

    /// Pack → send → recv → unpack round-trips every ring value for a
    /// 2-rank split, checked against the global dats directly, under
    /// both splits of the one engine.
    #[test]
    fn exchange_roundtrip_restores_rings() {
        let mut mesh = Quad2D::generate(6, 6);
        let n = mesh.dom.set(mesh.nodes).size;
        let vals: Vec<f64> = (0..n * 2).map(|i| i as f64).collect();
        let v = mesh.dom.decl_dat("v", mesh.nodes, 2, vals);
        let w = mesh.dom.decl_dat("w", mesh.nodes, 1, (0..n).map(|i| -(i as f64)).collect());
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 2);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 2);
        let layouts = build_layouts(&mesh.dom, &own, 2);

        for split in [Split::PerDat, Split::Grouped] {
            let comms = CommWorld::new(2).into_ranks();
            let dom = &mesh.dom;
            std::thread::scope(|scope| {
                for (comm, layout) in comms.into_iter().zip(layouts.iter()) {
                    scope.spawn(move || {
                        let mut env = RankEnv::new(layout, dom, comm);
                        // Corrupt every import ring, then exchange to
                        // depth 2 and verify restoration against the
                        // global truth.
                        let set_layout = &layout.sets[mesh.nodes.idx()];
                        let n_owned = set_layout.n_owned;
                        for dat in [v, w] {
                            let dim = dom.dat(dat).dim;
                            for x in &mut env.dats[dat.idx()][n_owned * dim..] {
                                *x = -1.0;
                            }
                            env.valid[dat.idx()] = 0;
                        }
                        let x = ExchangePlan::build(layout, dom, vec![(v, 2), (w, 2)], split);
                        let mut rec = x.post(&mut env);
                        x.complete(&mut env, &mut rec).unwrap();
                        let msgs_per_nbr = if split == Split::PerDat { 2 } else { 1 };
                        assert_eq!(rec.n_msgs, layout.neighbors.len() * msgs_per_nbr, "{split:?}");
                        // Every local copy must now equal the owner's
                        // global values.
                        for dat in [v, w] {
                            assert_eq!(env.valid[dat.idx()], 2);
                            let dim = dom.dat(dat).dim;
                            for (l, &g) in set_layout.locals.iter().enumerate() {
                                for c in 0..dim {
                                    assert_eq!(
                                        env.dats[dat.idx()][l * dim + c],
                                        dom.dat(dat).data[g as usize * dim + c],
                                        "{split:?} rank {} local {l}",
                                        layout.rank
                                    );
                                }
                            }
                        }
                    });
                }
            });
        }
    }

    /// Empty exchange lists are free: no messages, no validity change.
    #[test]
    fn empty_exchange_is_noop() {
        let mut mesh = Quad2D::generate(4, 4);
        let d = mesh.dom.decl_dat_zeros("v", mesh.nodes, 1);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 2);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 2);
        let layouts = build_layouts(&mesh.dom, &own, 1);
        for split in [Split::PerDat, Split::Grouped] {
            let comms = CommWorld::new(2).into_ranks();
            let dom = &mesh.dom;
            std::thread::scope(|scope| {
                for (comm, layout) in comms.into_iter().zip(layouts.iter()) {
                    scope.spawn(move || {
                        let mut env = RankEnv::new(layout, dom, comm);
                        env.valid[d.idx()] = 0;
                        let x = ExchangePlan::build(layout, dom, Vec::new(), split);
                        let mut rec = x.post(&mut env);
                        x.complete(&mut env, &mut rec).unwrap();
                        assert_eq!(rec.n_msgs, 0);
                        assert_eq!(env.valid[d.idx()], 0);
                        assert_eq!(env.comm.sent_msgs, 0);
                    });
                }
            });
        }
    }

    /// exec_range over an empty range calls nothing.
    #[test]
    fn empty_range_is_noop() {
        let mut mesh = Quad2D::generate(3, 3);
        let d = mesh.dom.decl_dat_zeros("v", mesh.nodes, 1);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 1);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 1);
        let layouts = build_layouts(&mesh.dom, &own, 1);
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&layouts[0], &mesh.dom, comm);
        let spec = LoopSpec::new(
            "noop",
            mesh.nodes,
            vec![Arg::dat_direct(d, AccessMode::Rw)],
            noop,
        );
        env.exec_range(&spec, 5, 5, &mut []);
    }
}
