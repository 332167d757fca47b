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
//! * a halo exchange to depth `t` raises validity to `t`;
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

use crate::comm::{CommError, RankComm};
use crate::fault::{BoundaryAction, BoundaryKind};
use crate::plan::{
    loop_signature, ChainPlan, Lowered, LoweredSchedule, LoweringKey, NeighborPack, PlanCache,
};
use crate::policy::{ExecMode, ExecPolicy};
use crate::threads::{run_schedule_dataflow, run_schedule_pooled_ctx, ExecStats, ThreadCtx};
use crate::trace::{ExchangeRec, RankTrace, SchedKind, ThreadRec};
use op2_core::conflict::{chain_accesses, conflict_accesses};
use op2_core::dag::ChunkDag;
use op2_core::par::{adaptive_block_size, thread_schedule};
use op2_core::schedule::{
    run_schedule_ctx, BoundArg, BoundLoop, SchedCtx, Schedule, ScheduleKind,
};
use op2_core::{Arg, ChainSpec, DatId, Domain, LoopSig, LoopSpec};
use op2_partition::layout::{NeighborPlan, RankLayout};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// Payload size above which planned pack/unpack splits a neighbour's
/// index lists across the rank's thread pool. Tuned so the fork/join
/// cost (two pool barriers, ~µs) stays well under the memory traffic it
/// parallelises; below it the sequential copy wins.
pub const PACK_THREAD_BYTES: usize = 32 << 10;

/// Raw-pointer wrapper so pack/unpack closures can fan copies out over
/// the pool; safety rests on the disjointness of the copied ranges (pack
/// entries partition the payload; receive ranges are disjoint local
/// windows).
struct PackPtr(*mut f64);
unsafe impl Send for PackPtr {}
unsafe impl Sync for PackPtr {}

impl PackPtr {
    /// The raw pointer. Going through a method (rather than `.0`) keeps
    /// closures capturing the `Sync` wrapper, not the bare pointer.
    #[inline]
    fn get(&self) -> *mut f64 {
        self.0
    }
}

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
    /// signature, dirty-state class), invalidated by layout-epoch bumps.
    pub plans: PlanCache,
    /// Monotone tag sequence (identical across ranks by construction).
    pub tag_seq: u64,
    /// Intra-rank threading state: the rank's pool, the standalone-loop
    /// lowering cache (chain loops cache theirs in the [`ChainPlan`])
    /// and the executors' scratch.
    pub threads: ThreadCtx,
    /// How this rank executes: pool width, fusion, drain, pinning.
    /// Sequential/unfused/leveled until the harness installs the run's
    /// resolved policy ([`ExecPolicy::resolve`]) before the program
    /// runs, so env creation itself never reads the environment.
    pub policy: ExecPolicy,
    /// Plans — by (chain signature, dirty class), the key that selects a
    /// [`ChainPlan`] — whose message buffers are already pre-sized into
    /// the transport's per-peer pool (see [`RankEnv::exchange_planned`]).
    warmed: HashSet<(u64, u64)>,
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

    /// Heap allocations the persistent schedule contexts (scratch pools,
    /// slot tables) have performed so far — flat across repeat fused
    /// executions of the same chains, which tests and the bench assert
    /// (zero steady-state scratch allocations).
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
    /// with [`CommError::PeerHangup`] — and panics, which the harness
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
    /// lowered for the rank's pool ([`RankEnv::build_loop_schedule`],
    /// cached per (loop, range, block size) in the rank's [`ThreadCtx`])
    /// and executed there. Results are bitwise identical either way.
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
    /// rank's own for a standalone loop.
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
            None => (&self.threads.lowered, loop_signature(spec)),
        };
        let key = LoweringKey::Range {
            owner,
            start,
            end,
            block,
        };
        let lowered = cache.get_or_build(key, || {
            let sched = self.build_loop_schedule(spec, start, end, block);
            Lowered::Range(Arc::new(LoweredSchedule::new(sched)))
        });
        let (Lowered::Range(low), built) = lowered else {
            unreachable!("a Range key holds a range lowering");
        };
        if built {
            self.plans.stats.color_misses += 1;
        } else {
            self.plans.stats.color_hits += 1;
        }
        let bound = self.bind_loop(spec, gbl_bufs);
        self.run_pooled(&spec.name, false, || vec![spec.sig()], &[bound], &low);
    }

    /// Should `[start, end)` of `spec` run on the thread pool — and with
    /// which block size? `None` means run sequentially. Requires an
    /// active configuration, no global reduction (order-sensitive float
    /// sums must accumulate in sequential order), and more than one
    /// block's worth of iterations (a single block has no parallelism to
    /// expose). Under `OP2_BLOCK_SIZE=auto` the block size is picked
    /// per-loop from the measured conflict degree.
    fn threaded_block_size(&self, spec: &LoopSpec, start: usize, end: usize) -> Option<usize> {
        if !self.policy.threading.active() || spec.has_reduction() {
            return None;
        }
        let block_size = self.chosen_block_size(spec, start, end);
        (end.saturating_sub(start) > block_size).then_some(block_size)
    }

    /// The block size for `[start, end)` of `spec`: the configured value,
    /// or — under `OP2_BLOCK_SIZE=auto` — the adaptive per-loop pick from
    /// the measured conflict degree over this rank's localized maps.
    pub fn chosen_block_size(&self, spec: &LoopSpec, start: usize, end: usize) -> usize {
        if !self.policy.threading.auto_block {
            return self.policy.threading.block_size;
        }
        let sig = spec.sig();
        let set_sizes = self.layout.set_sizes();
        let accesses = conflict_accesses(&self.layout.maps, &sig);
        adaptive_block_size(start, end, &set_sizes, &accesses)
    }

    /// Inspector: lower `[start, end)` of `spec` for this rank's pool
    /// width over its localized maps ([`thread_schedule`]) —
    /// owner-computes windows when the access descriptors admit it, the
    /// block coloring at `block_size` otherwise. The one lowering the
    /// executor runs and the tuner prices. Only executable iterations
    /// are lowered, so every dereferenced map target is a valid local
    /// index (the layout invariant the executor itself relies on).
    pub fn build_loop_schedule(
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
        let mut args = Vec::with_capacity(spec.args.len());
        for arg in &spec.args {
            match arg {
                Arg::Dat { dat, map, mode } => {
                    let dim = self.dom.dat(*dat).dim as u32;
                    let base = self.dats[dat.idx()].as_mut_ptr();
                    let map_info = map.map(|(m, idx)| {
                        let lm = &self.layout.maps[m.idx()];
                        (lm.values.as_ptr(), lm.arity, idx as usize)
                    });
                    args.push(BoundArg {
                        base,
                        dim,
                        mode: *mode,
                        map: map_info,
                        direct: map.is_none(),
                    });
                }
                Arg::Gbl { idx, mode } => {
                    let buf = &mut gbl_bufs[*idx as usize];
                    args.push(BoundArg {
                        base: buf.as_mut_ptr(),
                        dim: buf.len() as u32,
                        mode: *mode,
                        map: None,
                        direct: false,
                    });
                }
            }
        }
        BoundLoop::from_parts(spec.kernel, args)
    }

    /// Should this schedule drain through the dataflow executor?
    /// `OP2_EXEC=levels`/`dataflow` decide directly; `auto` asks the
    /// profit arm — critical-path hand-offs against barrier count times
    /// this rank's measured pool sync cost.
    fn dataflow_chosen(&mut self, sched: &Schedule, dag: &ChunkDag) -> bool {
        match self.policy.exec {
            ExecMode::Levels => false,
            ExecMode::Dataflow => true,
            ExecMode::Auto => {
                let threads = self.policy.threading.n_threads;
                let sync_s = self.threads.sync_cost(threads);
                op2_model::classify_exec(threads, sched.n_levels(), dag.crit_path as usize, sync_s)
                    .dataflow
            }
        }
    }

    /// Drain `bound` over `low` on the rank's pool, through whichever
    /// executor [`RankEnv::dataflow_chosen`] picks — dataflow needs the
    /// chunk DAG, derived from the chain-wide conflict accesses of
    /// `sigs()` ([`chain_accesses`]) over this rank's localized maps and
    /// kept beside the schedule; levels pays one barrier per level.
    /// Bitwise identical either way. A single-level schedule has no
    /// barrier for dataflow to remove and always takes the leveled
    /// drain, whatever [`ExecMode`] says — which also keeps windowed
    /// (owner-computes) chunks, always a single level, out of the DAG.
    fn drain_schedule(
        &mut self,
        sigs: impl FnOnce() -> Vec<LoopSig>,
        bound: &[BoundLoop],
        low: &LoweredSchedule,
    ) -> ExecStats {
        let pool = self.threads.pool(self.policy.threading.n_threads);
        if self.policy.exec != ExecMode::Levels && low.n_levels() > 1 && low.has_parallelism() {
            let layout = self.layout;
            let dag = low.dag(|sched| {
                ChunkDag::build(sched, &layout.set_sizes(), &chain_accesses(&layout.maps, &sigs()))
            });
            if self.dataflow_chosen(low, dag) {
                return run_schedule_dataflow(
                    &pool,
                    bound,
                    low,
                    dag,
                    self.policy.pin,
                    &mut self.threads.sched_ctxs,
                    &mut self.threads.dataflow,
                );
            }
        }
        run_schedule_pooled_ctx(&pool, bound, low, &mut self.threads.sched_ctxs)
    }

    /// Executor: run a lowered schedule on the rank's own pool and
    /// append its [`ThreadRec`] (per-level wall times, per-worker
    /// idle/steal/fire counters) — a whole chain's schedule is recorded
    /// as [`SchedKind::Tiled`], one loop's by how it was lowered.
    ///
    /// Same-level chunks write disjoint elements (race-free): disjoint
    /// windows under the owner-computes lowering, where each element
    /// takes its increments from one chunk in ascending iteration order;
    /// disjoint blocks under the colored fallback and disjoint tiles
    /// under the tile plan, where conflicting chunks are ordered by
    /// ascending level — and the dataflow drain preserves exactly the
    /// conflicting-pair order through the chunk DAG. Either way
    /// per-element update order equals the sequential executor's:
    /// results are bitwise identical for any thread count and either
    /// drain.
    fn run_pooled(
        &mut self,
        name: &str,
        whole_chain: bool,
        sigs: impl FnOnce() -> Vec<LoopSig>,
        bound: &[BoundLoop],
        low: &LoweredSchedule,
    ) {
        let stats = self.drain_schedule(sigs, bound, low);
        let (kind, block_size) = match low.kind {
            _ if whole_chain => (SchedKind::Tiled, 0),
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

    /// Executor: run a whole chain's lowered schedule (tiled core/post,
    /// fused) — on the rank's pool when threading is active and the
    /// schedule has parallelism to expose ([`RankEnv::run_pooled`]),
    /// sequentially (level order, which is bitwise identical) otherwise.
    pub(crate) fn exec_chain_schedule(&mut self, chain: &ChainSpec, low: &LoweredSchedule) {
        debug_assert_eq!(low.n_loops, chain.len());
        let mut gbls: Vec<Vec<f64>> = Vec::new();
        let mut bound = Vec::with_capacity(chain.len());
        // Flatten per-loop gbl buffers into one arena so every bind's
        // pointers stay valid (chain loops carry constants only — the
        // chain analysis rejects reductions).
        let mut gbl_ranges = Vec::with_capacity(chain.len());
        for spec in &chain.loops {
            debug_assert!(!spec.has_reduction());
            let s = gbls.len();
            gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
            gbl_ranges.push(s);
        }
        for (spec, &s) in chain.loops.iter().zip(gbl_ranges.iter()) {
            let bufs = &mut gbls[s..s + spec.gbls.len()];
            bound.push(self.bind_loop(spec, bufs));
        }
        if self.policy.threading.active() && low.has_parallelism() {
            self.run_pooled(&chain.name, true, || chain.sigs(), &bound, low);
        } else {
            // The context persists in ThreadCtx across invocations, so
            // steady-state fused execution performs zero scratch-pool or
            // slot-table heap allocations (asserted via
            // `SchedCtx::allocs`); the pooled drain keeps one per worker.
            if self.threads.sched_ctxs.is_empty() {
                self.threads.sched_ctxs.push(SchedCtx::new());
            }
            run_schedule_ctx(&bound, low, &mut self.threads.sched_ctxs[0]);
        }
    }

    /// Exchange halos for `dats`, each to its required depth.
    ///
    /// `grouped = false` → Alg 1 style: one message per (dat, neighbour).
    /// `grouped = true` → Alg 2 style: a single message per neighbour
    /// carrying every dat's segments back-to-back (Figure 8).
    ///
    /// Both sides derive the identical wire layout from (plan order ×
    /// given dat order), so no headers are exchanged. Raises validity.
    pub fn exchange(&mut self, dats: &[(DatId, u8)], grouped: bool) -> ExchangeRec {
        let tag = self.next_tag();
        let mut rec = ExchangeRec::default();
        if dats.is_empty() {
            return rec;
        }
        let layout = self.layout;
        rec.n_neighbors = layout.neighbors.len();

        // One message per neighbour carrying every dat (grouped), or one
        // per (neighbour, dat). Payloads are staged in the per-peer
        // buffer pool, never freshly allocated once the pool is warm.
        let step = if grouped { dats.len() } else { 1 };
        for nbr in &layout.neighbors {
            for msg in dats.chunks(step) {
                let cap: usize = msg
                    .iter()
                    .map(|&(dat, depth)| self.send_len(nbr, dat, depth))
                    .sum();
                if cap == 0 {
                    continue;
                }
                let mut payload = self.comm.take_buf(nbr.rank, cap);
                let t0 = Instant::now();
                for &(dat, depth) in msg {
                    self.pack_dat(nbr, dat, depth, &mut payload);
                }
                rec.pack_ns += t0.elapsed().as_nanos() as u64;
                rec.n_msgs += 1;
                let bytes = payload.len() * 8;
                rec.bytes += bytes;
                rec.max_msg_bytes = rec.max_msg_bytes.max(bytes);
                rec.packed_elems += payload.len();
                rec.nbr_bits |= 1u128 << nbr.rank.min(127);
                self.comm.isend(nbr.rank, tag, payload);
            }
        }
        rec
    }

    /// Outgoing f64 count for one (dat, neighbour) at `depth` — the
    /// exact capacity [`RankEnv::exchange`] borrows from the pool, so a
    /// pack never reallocates mid-copy.
    fn send_len(&self, nbr: &NeighborPlan, dat: DatId, depth: u8) -> usize {
        let d = self.dom.dat(dat);
        nbr.send
            .iter()
            .filter(|seg| seg.set == d.set && seg.level <= depth)
            .map(|seg| seg.elems.len() * d.dim)
            .sum()
    }

    /// Complete the exchange posted by [`RankEnv::exchange`] (the
    /// `MPI_Wait` of Algs 1–2): receive and unpack from every neighbour.
    ///
    /// Grouped messages complete in **arrival order** (`recv_any`):
    /// whichever neighbour's payload lands first is unpacked first, so
    /// the tail is one slowest neighbour, not the sum of in-order stalls.
    /// Receive segments of different neighbours are disjoint local
    /// ranges, so unpack order cannot change results. Wait/unpack wall
    /// time accumulates into `rec`; payload buffers return to the
    /// per-peer pool.
    ///
    /// Transport failures (timeout, hangup, corruption past the retry
    /// budget) surface as [`CommError`]; validity is only raised after
    /// *every* neighbour delivered, so a failed wait never leaves rings
    /// marked valid that were not actually filled.
    pub fn exchange_wait(
        &mut self,
        dats: &[(DatId, u8)],
        grouped: bool,
        rec: &mut ExchangeRec,
    ) -> Result<(), CommError> {
        if dats.is_empty() {
            return Ok(());
        }
        let tag = self.tag_seq;
        // Collect neighbor ranks first (borrow discipline).
        let nbr_ranks: Vec<u32> = self.layout.neighbors.iter().map(|n| n.rank).collect();
        if grouped {
            let mut pending: Vec<usize> = Vec::new();
            let mut peers: Vec<u32> = Vec::new();
            for (ni, &peer) in nbr_ranks.iter().enumerate() {
                if self.expected_len(ni, dats) > 0 {
                    pending.push(ni);
                    peers.push(peer);
                }
            }
            while !pending.is_empty() {
                let t0 = Instant::now();
                let (i, payload) = self.comm.recv_any(&peers, tag)?;
                rec.wait_ns += t0.elapsed().as_nanos() as u64;
                let ni = pending.remove(i);
                let peer = peers.remove(i);
                assert_eq!(
                    payload.len(),
                    self.expected_len(ni, dats),
                    "grouped message length mismatch"
                );
                let t1 = Instant::now();
                let mut off = 0;
                for &(dat, depth) in dats {
                    off = self.unpack_dat(ni, dat, depth, &payload, off);
                }
                debug_assert_eq!(off, payload.len());
                rec.unpack_ns += t1.elapsed().as_nanos() as u64;
                self.comm.recycle(peer, payload);
            }
        } else {
            for (ni, &peer) in nbr_ranks.iter().enumerate() {
                for &(dat, depth) in dats {
                    let expect = self.expected_len(ni, &[(dat, depth)]);
                    if expect == 0 {
                        continue;
                    }
                    let t0 = Instant::now();
                    let payload = self.comm.recv(peer, tag)?;
                    rec.wait_ns += t0.elapsed().as_nanos() as u64;
                    assert_eq!(payload.len(), expect, "per-dat message length mismatch");
                    let t1 = Instant::now();
                    let off = self.unpack_dat(ni, dat, depth, &payload, 0);
                    debug_assert_eq!(off, payload.len());
                    rec.unpack_ns += t1.elapsed().as_nanos() as u64;
                    self.comm.recycle(peer, payload);
                }
            }
        }
        for &(dat, depth) in dats {
            self.valid[dat.idx()] = self.valid[dat.idx()].max(depth);
            // Unpack mutated the import rings: the dat is dirty for
            // incremental checkpointing even if no loop touches it.
            self.ckpt.note_write(dat.idx());
        }
        Ok(())
    }

    /// Grouped (Alg 2 style) exchange driven by a cached [`ChainPlan`]:
    /// the executor-side fast path. Pack index lists and per-neighbour
    /// message sizes come straight from the plan — no per-call segment
    /// filtering — and the wire layout is identical to
    /// [`RankEnv::exchange`] with `grouped = true` over `plan.import`,
    /// so planned and unplanned ranks interoperate. Consumes no tag when
    /// the plan imports nothing, matching the unplanned path exactly.
    pub fn exchange_planned(&mut self, plan: &ChainPlan) -> ExchangeRec {
        let mut rec = ExchangeRec::default();
        if plan.import.is_empty() {
            return rec;
        }
        // The `MPI_Send_init` moment, once per plan: size each peer's
        // pool slot to the larger of the pair's send/recv payloads.
        // Buffers travel with messages and return with the peer's
        // replies, so one warmed to `max(send, recv)` keeps circulating
        // on its pair without ever growing — steady-state planned
        // exchanges make zero payload allocations (asserted via
        // [`crate::comm::CommCounters::payload_allocs`]).
        if self.warmed.insert((plan.sig, plan.dirty)) {
            for pack in &plan.packs {
                self.comm.ensure_buf(pack.rank, pack.send_f64s.max(pack.recv_f64s));
            }
        }
        let tag = self.next_tag();
        rec.n_neighbors = self.layout.neighbors.len();
        for pack in &plan.packs {
            if pack.send_f64s == 0 {
                continue;
            }
            let mut payload = self.comm.take_buf(pack.rank, pack.send_f64s);
            let t0 = Instant::now();
            if !self.threaded_pack(plan, pack, &mut payload) {
                for (di, &(dat, _)) in plan.import.iter().enumerate() {
                    let dim = self.dom.dat(dat).dim;
                    let buf = &self.dats[dat.idx()];
                    for &e in &pack.send[di] {
                        let e = e as usize;
                        payload.extend_from_slice(&buf[e * dim..(e + 1) * dim]);
                    }
                }
            }
            rec.pack_ns += t0.elapsed().as_nanos() as u64;
            debug_assert_eq!(payload.len(), pack.send_f64s);
            rec.n_msgs += 1;
            let bytes = payload.len() * 8;
            rec.bytes += bytes;
            rec.max_msg_bytes = rec.max_msg_bytes.max(bytes);
            rec.packed_elems += payload.len();
            rec.nbr_bits |= 1u128 << pack.rank.min(127);
            self.comm.isend(pack.rank, tag, payload);
        }
        rec
    }

    /// Pack one neighbour's grouped payload on the thread pool when the
    /// message is big enough to amortize the fork/join
    /// ([`PACK_THREAD_BYTES`]). The pack's flattened index entries are
    /// split into even contiguous spans, one per thread; every entry
    /// writes a disjoint `dim`-sized window of the payload, so the copy
    /// is race-free and the payload is byte-identical to the sequential
    /// pack. Returns false (caller packs sequentially) when threading is
    /// off or the message is small.
    fn threaded_pack(&mut self, plan: &ChainPlan, pack: &NeighborPack, payload: &mut Vec<f64>) -> bool {
        if !self.policy.threading.active() || pack.send_f64s * 8 < PACK_THREAD_BYTES {
            return false;
        }
        let pool = self.threads.pool(self.policy.threading.n_threads);
        let n_tasks = pool.n_threads();
        if n_tasks <= 1 {
            return false;
        }
        payload.resize(pack.send_f64s, 0.0);
        let n_dats = plan.import.len();
        // Entry e = one element copy; entry_start maps dat → first entry.
        let mut entry_start = Vec::with_capacity(n_dats + 1);
        let mut f64_off = Vec::with_capacity(n_dats);
        let mut dims = Vec::with_capacity(n_dats);
        let mut srcs: Vec<PackPtr> = Vec::with_capacity(n_dats);
        let mut entries = 0usize;
        let mut off = 0usize;
        for (di, &(dat, _)) in plan.import.iter().enumerate() {
            let dim = self.dom.dat(dat).dim;
            entry_start.push(entries);
            f64_off.push(off);
            dims.push(dim);
            srcs.push(PackPtr(self.dats[dat.idx()].as_ptr() as *mut f64));
            entries += pack.send[di].len();
            off += pack.send[di].len() * dim;
        }
        entry_start.push(entries);
        debug_assert_eq!(off, pack.send_f64s);
        let dst = PackPtr(payload.as_mut_ptr());
        pool.run_spans(entries, &|lo, hi| {
            let mut di = entry_start.partition_point(|&s| s <= lo) - 1;
            for e in lo..hi {
                while entry_start[di + 1] <= e {
                    di += 1;
                }
                let j = e - entry_start[di];
                let dim = dims[di];
                let el = pack.send[di][j] as usize;
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        srcs[di].get().add(el * dim) as *const f64,
                        dst.get().add(f64_off[di] + j * dim),
                        dim,
                    );
                }
            }
        });
        true
    }

    /// Scatter one neighbour's grouped payload on the thread pool (the
    /// unpack mirror of [`RankEnv::threaded_pack`]): the payload is
    /// split into even f64 spans, one per thread, and each thread copies
    /// the intersection of its span with the plan's contiguous receive
    /// ranges. Destination ranges are disjoint, so the scatter is
    /// race-free and bitwise identical to the sequential unpack.
    fn threaded_unpack(&mut self, plan: &ChainPlan, pack: &NeighborPack, payload: &[f64]) -> bool {
        if !self.policy.threading.active() || pack.recv_f64s * 8 < PACK_THREAD_BYTES {
            return false;
        }
        let pool = self.threads.pool(self.policy.threading.n_threads);
        let n_tasks = pool.n_threads();
        if n_tasks <= 1 {
            return false;
        }
        let n_dats = plan.import.len();
        let mut dims = Vec::with_capacity(n_dats);
        let mut bases: Vec<PackPtr> = Vec::with_capacity(n_dats);
        for &(dat, _) in plan.import.iter() {
            dims.push(self.dom.dat(dat).dim);
            bases.push(PackPtr(self.dats[dat.idx()].as_mut_ptr()));
        }
        let total = pack.recv_f64s;
        let src = PackPtr(payload.as_ptr() as *mut f64);
        pool.run_spans(total, &|lo, hi| {
            let mut off = 0usize;
            'outer: for di in 0..n_dats {
                let dim = dims[di];
                for &(start, len) in &pack.recv[di] {
                    let n = len as usize * dim;
                    let a = off.max(lo);
                    let b = (off + n).min(hi);
                    if a < b {
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                src.get().add(a) as *const f64,
                                bases[di].get().add(start as usize * dim + (a - off)),
                                b - a,
                            );
                        }
                    }
                    off += n;
                    if off >= hi {
                        break 'outer;
                    }
                }
            }
        });
        true
    }

    /// Complete a planned exchange: receive each neighbour's grouped
    /// message (size known from the plan) and scatter it through the
    /// plan's contiguous copy ranges. Completion is in **arrival
    /// order** — whichever neighbour's message lands first is unpacked
    /// first (receive ranges of different neighbours are disjoint, so
    /// order cannot change results). Wait/unpack wall time accumulates
    /// into `rec`; payload buffers return to the per-peer pool. Raises
    /// validity to each dat's planned import depth only after every
    /// neighbour delivered.
    pub fn exchange_wait_planned(
        &mut self,
        plan: &ChainPlan,
        rec: &mut ExchangeRec,
    ) -> Result<(), CommError> {
        if plan.import.is_empty() {
            return Ok(());
        }
        let tag = self.tag_seq;
        let mut pending: Vec<usize> = Vec::new();
        let mut peers: Vec<u32> = Vec::new();
        for (pi, pack) in plan.packs.iter().enumerate() {
            if pack.recv_f64s > 0 {
                pending.push(pi);
                peers.push(pack.rank);
            }
        }
        while !pending.is_empty() {
            let t0 = Instant::now();
            let (i, payload) = self.comm.recv_any(&peers, tag)?;
            rec.wait_ns += t0.elapsed().as_nanos() as u64;
            let pi = pending.remove(i);
            let peer = peers.remove(i);
            let pack = &plan.packs[pi];
            assert_eq!(
                payload.len(),
                pack.recv_f64s,
                "planned grouped message length mismatch"
            );
            let t1 = Instant::now();
            if !self.threaded_unpack(plan, pack, &payload) {
                let mut off = 0;
                for (di, &(dat, _)) in plan.import.iter().enumerate() {
                    let dim = self.dom.dat(dat).dim;
                    let buf = &mut self.dats[dat.idx()];
                    for &(start, len) in &pack.recv[di] {
                        let n = len as usize * dim;
                        let s = start as usize * dim;
                        buf[s..s + n].copy_from_slice(&payload[off..off + n]);
                        off += n;
                    }
                }
                debug_assert_eq!(off, payload.len());
            }
            rec.unpack_ns += t1.elapsed().as_nanos() as u64;
            self.comm.recycle(peer, payload);
        }
        for &(dat, depth) in &plan.import {
            self.valid[dat.idx()] = self.valid[dat.idx()].max(depth);
            self.ckpt.note_write(dat.idx());
        }
        Ok(())
    }

    /// Bytes-in-f64s this rank will receive from neighbour index `ni`
    /// for the given (dat, depth) list.
    fn expected_len(&self, ni: usize, dats: &[(DatId, u8)]) -> usize {
        let nbr = &self.layout.neighbors[ni];
        let mut len = 0usize;
        for &(dat, depth) in dats {
            let d = self.dom.dat(dat);
            for seg in &nbr.recv {
                if seg.set == d.set && seg.level <= depth {
                    len += seg.len as usize * d.dim;
                }
            }
        }
        len
    }

    /// Append one dat's outgoing segments for one neighbour to `payload`.
    fn pack_dat(
        &self,
        nbr: &op2_partition::layout::NeighborPlan,
        dat: DatId,
        depth: u8,
        payload: &mut Vec<f64>,
    ) {
        let d = self.dom.dat(dat);
        let buf = &self.dats[dat.idx()];
        for seg in &nbr.send {
            if seg.set == d.set && seg.level <= depth {
                for &e in &seg.elems {
                    let e = e as usize;
                    payload.extend_from_slice(&buf[e * d.dim..(e + 1) * d.dim]);
                }
            }
        }
    }

    /// Unpack one dat's incoming segments from neighbour index `ni`,
    /// starting at `off`; returns the new offset. Receive segments are
    /// contiguous local ranges — plain copies.
    fn unpack_dat(
        &mut self,
        ni: usize,
        dat: DatId,
        depth: u8,
        payload: &[f64],
        mut off: usize,
    ) -> usize {
        let d = self.dom.dat(dat);
        let dim = d.dim;
        let set = d.set;
        let nbr = &self.layout.neighbors[ni];
        let buf = &mut self.dats[dat.idx()];
        for seg in &nbr.recv {
            if seg.set == set && seg.level <= depth {
                let n = seg.len as usize * dim;
                let start = seg.start as usize * dim;
                buf[start..start + n].copy_from_slice(&payload[off..off + n]);
                off += n;
            }
        }
        off
    }

    /// Total bytes this rank will receive for a (dat, depth) list —
    /// the staged-in volume a GPU pipeline copies host→device.
    pub fn expected_recv_bytes(&self, dats: &[(DatId, u8)]) -> usize {
        (0..self.layout.neighbors.len())
            .map(|ni| self.expected_len(ni, dats) * std::mem::size_of::<f64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use op2_core::{AccessMode, Arg, Args, LoopSpec};
    use op2_mesh::Quad2D;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition};

    fn noop(_: &Args<'_>) {}

    /// Pack → send → recv → unpack round-trips every ring value for a
    /// 2-rank split, checked against the global dat directly.
    #[test]
    fn exchange_roundtrip_restores_rings() {
        let mut mesh = Quad2D::generate(6, 6);
        let n = mesh.dom.set(mesh.nodes).size;
        let vals: Vec<f64> = (0..n * 2).map(|i| i as f64).collect();
        let _ = mesh.dom.decl_dat("v", mesh.nodes, 2, vals);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 2);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 2);
        let layouts = build_layouts(&mesh.dom, &own, 2);

        let comms = CommWorld::new(2).into_ranks();
        let dom = &mesh.dom;
        let handles: Vec<_> = std::thread::scope(|scope| {
            comms
                .into_iter()
                .zip(layouts.iter())
                .map(|(comm, layout)| {
                    scope.spawn(move || {
                        let mut env = RankEnv::new(layout, dom, comm);
                        // Corrupt every import ring, then exchange to
                        // depth 2 and verify restoration against the
                        // global truth.
                        let dat = dom.dat_by_name("v").unwrap();
                        let set_layout = &layout.sets[dom.dat(dat).set.idx()];
                        let n_owned = set_layout.n_owned;
                        for x in &mut env.dats[dat.idx()][n_owned * 2..] {
                            *x = -1.0;
                        }
                        env.valid[dat.idx()] = 0;
                        let spec = [(dat, 2u8)];
                        let mut rec = env.exchange(&spec, true);
                        env.exchange_wait(&spec, true, &mut rec).unwrap();
                        assert_eq!(env.valid[dat.idx()], 2);
                        // Every local copy must now equal the owner's
                        // global values.
                        for (l, &g) in set_layout.locals.iter().enumerate() {
                            for c in 0..2 {
                                assert_eq!(
                                    env.dats[dat.idx()][l * 2 + c],
                                    dom.dat(dat).data[g as usize * 2 + c],
                                    "rank {} local {l}",
                                    layout.rank
                                );
                            }
                        }
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join())
                .collect()
        });
        for h in handles {
            h.expect("rank ok");
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
        let comms = CommWorld::new(2).into_ranks();
        let dom = &mesh.dom;
        std::thread::scope(|scope| {
            for (comm, layout) in comms.into_iter().zip(layouts.iter()) {
                scope.spawn(move || {
                    let mut env = RankEnv::new(layout, dom, comm);
                    env.valid[d.idx()] = 0;
                    let mut rec = env.exchange(&[], true);
                    env.exchange_wait(&[], true, &mut rec).unwrap();
                    assert_eq!(rec.n_msgs, 0);
                    assert_eq!(env.valid[d.idx()], 0);
                    assert_eq!(env.comm.sent_msgs, 0);
                });
            }
        });
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

    /// `OP2_FUSE` knob grammar: on/off/auto (case-insensitive, with the
    /// usual boolean spellings), unset defaults to Off, anything else is
    /// a typed [`ConfigError`] naming the knob.
    #[test]
    fn fuse_mode_knob_grammar() {
        use crate::error::ConfigError;
        use crate::policy::FuseMode;

        assert_eq!(FuseMode::parse(None).unwrap(), FuseMode::Off);
        for v in ["on", "1", "true", "ON", "True"] {
            assert_eq!(FuseMode::parse(Some(v)).unwrap(), FuseMode::On, "{v}");
        }
        for v in ["off", "0", "false", "OFF"] {
            assert_eq!(FuseMode::parse(Some(v)).unwrap(), FuseMode::Off, "{v}");
        }
        for v in ["auto", "AUTO", "Auto"] {
            assert_eq!(FuseMode::parse(Some(v)).unwrap(), FuseMode::Auto, "{v}");
        }

        let err = FuseMode::parse(Some("maybe")).unwrap_err();
        assert!(matches!(&err, ConfigError { knob: "OP2_FUSE", value, .. } if value == "maybe"));
        let msg = err.to_string();
        assert!(msg.contains("OP2_FUSE") && msg.contains("maybe"), "{msg}");
    }

    /// `OP2_EXEC` knob grammar: levels/dataflow/auto (case-insensitive),
    /// unset defaults to Levels, anything else is a typed
    /// [`ConfigError`] naming the knob.
    #[test]
    fn exec_mode_knob_grammar() {
        use crate::error::ConfigError;

        assert_eq!(ExecMode::parse(None).unwrap(), ExecMode::Levels);
        for v in ["levels", "LEVELS", "Levels"] {
            assert_eq!(ExecMode::parse(Some(v)).unwrap(), ExecMode::Levels, "{v}");
        }
        for v in ["dataflow", "DATAFLOW", "DataFlow"] {
            assert_eq!(ExecMode::parse(Some(v)).unwrap(), ExecMode::Dataflow, "{v}");
        }
        for v in ["auto", "AUTO"] {
            assert_eq!(ExecMode::parse(Some(v)).unwrap(), ExecMode::Auto, "{v}");
        }

        let err = ExecMode::parse(Some("async")).unwrap_err();
        assert!(matches!(&err, ConfigError { knob: "OP2_EXEC", value, .. } if value == "async"));
        let msg = err.to_string();
        assert!(msg.contains("OP2_EXEC") && msg.contains("async"), "{msg}");
    }

    /// `OP2_THREAD_PIN` knob grammar: the boolean spellings
    /// (case-insensitive), unset defaults to off, anything else is a
    /// typed [`ConfigError`] naming the knob.
    #[test]
    fn thread_pin_knob_grammar() {
        use crate::error::ConfigError;
        use crate::policy::parse_thread_pin;

        assert!(!parse_thread_pin(None).unwrap());
        for v in ["1", "true", "on", "TRUE", "On"] {
            assert!(parse_thread_pin(Some(v)).unwrap(), "{v}");
        }
        for v in ["0", "false", "off", "FALSE", "Off"] {
            assert!(!parse_thread_pin(Some(v)).unwrap(), "{v}");
        }

        let err = parse_thread_pin(Some("yes-please")).unwrap_err();
        assert!(
            matches!(&err, ConfigError { knob: "OP2_THREAD_PIN", value, .. } if value == "yes-please")
        );
        let msg = err.to_string();
        assert!(msg.contains("OP2_THREAD_PIN") && msg.contains("yes-please"), "{msg}");
    }
}
