//! Cached chain plans — the inspector of the inspector–executor split.
//!
//! The CA back-end (Alg 2) is an inspector–executor design: halo-layer
//! analysis, import depths, the grouped per-neighbour message layout and
//! (for the tiled executor) the tile schedule are *analysis*, reusable
//! across every repetition of the same chain on the same partition. The
//! executors used to re-derive all of it per invocation even though
//! MG-CFD replays one chain `nchains` times per cycle.
//!
//! A [`ChainPlan`] captures that analysis once per
//! **(chain signature, partition layout, dirty-state class)**:
//!
//! * the chain depth `r` and the grouped entry exchange — import list
//!   (per-dat depths), per-neighbour pack index lists and receive copy
//!   ranges, the wire layout of Figure 8 — as one
//!   [`ExchangePlan`] (see [`crate::halo`]);
//! * per-loop latency-hiding core ends, execute-region ends, read
//!   requirements and produced-validity transitions, and the validity
//!   verdict they imply ([`ChainPlan::stale`]);
//! * lazily, every **lowering** an executor asked for — a loop range
//!   lowered for the thread pool, the tile plan for a tile count, a
//!   fused whole-chain schedule — in one [`LoweringCache`] under one
//!   [`LoweringKey`], each schedule with its chunk DAG stored beside it
//!   ([`LoweredSchedule`]). The rank's standalone-loop schedules live in
//!   a second instance of the same cache type
//!   ([`crate::threads::ThreadCtx`]).
//!
//! Plans live in a per-rank [`PlanCache`] keyed by a stable FNV-1a hash
//! of [`ChainSpec::sigs`]-equivalent structure plus the entry-validity
//! class of the touched dats. The cache carries an explicit **layout
//! epoch**: [`PlanCache::bump_epoch`] invalidates everything when
//! ownership changes (repartitioning); a change in any touched dat's
//! validity depth selects a different dirty class and therefore a
//! different (or freshly built) plan. Hit/miss/invalidation counters
//! land in the rank trace so tests can assert that repeat invocations
//! do **zero** re-analysis. The same cache holds Alg 1's per-dat
//! exchange plans ([`loop_exchange_for`]), uncounted.

use crate::halo::{ExchangePlan, Split};
use op2_core::chain::{produced_validity, read_requirement};
use op2_core::conflict::{chain_accesses, conflict_accesses, conflict_levels};
use op2_core::par::block_units;
use op2_core::schedule::{elision_valid, Chunk, FusedGroup, Piece, ScheduleKind, ScratchBind};
use op2_core::tiling::{
    build_tile_plan_raw, overlap_core_tiles, seed_blocks, seed_from_targets, TilePlan,
};
use op2_core::{AccessMode, Arg, ChainSpec, ChunkDag, DatId, Domain, LoopSpec, Schedule};
use op2_partition::layout::RankLayout;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

pub(crate) fn fnv_usize(h: &mut u64, v: usize) {
    fnv_bytes(h, &v.to_le_bytes());
}

fn mode_code(mode: AccessMode) -> u8 {
    match mode {
        AccessMode::Read => 0,
        AccessMode::Write => 1,
        AccessMode::Rw => 2,
        AccessMode::Inc => 3,
    }
}

/// Stable hash of a chain's structure: loop names, iteration sets,
/// argument access descriptors and halo extents, plus the execution
/// mode. Identical across ranks and across process runs (no pointer or
/// RandomState input), so it can key caches and cross-rank agreement.
pub fn chain_signature(chain: &ChainSpec, relaxed: bool) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_bytes(&mut h, chain.name.as_bytes());
    fnv_usize(&mut h, chain.loops.len());
    for (spec, &ext) in chain.loops.iter().zip(&chain.halo_ext) {
        fnv_usize(&mut h, ext);
        fnv_loop(&mut h, spec);
    }
    fnv_bytes(&mut h, &[u8::from(relaxed)]);
    h
}

/// Hash one loop's structure: name, iteration set, argument access
/// descriptors.
fn fnv_loop(h: &mut u64, spec: &LoopSpec) {
    fnv_bytes(h, spec.name.as_bytes());
    fnv_usize(h, spec.set.idx());
    for arg in &spec.args {
        match arg {
            Arg::Dat { dat, map, mode } => {
                fnv_bytes(h, &[1u8, mode_code(*mode)]);
                fnv_usize(h, dat.idx());
                match map {
                    Some((m, i)) => {
                        fnv_usize(h, m.idx() + 1);
                        fnv_usize(h, *i as usize);
                    }
                    None => fnv_usize(h, 0),
                }
            }
            Arg::Gbl { idx, mode } => {
                fnv_bytes(h, &[2u8, mode_code(*mode)]);
                fnv_usize(h, *idx as usize);
            }
        }
    }
}

/// Stable hash of one loop's structure (name, iteration set, argument
/// access descriptors) — the standalone-loop analogue of
/// [`chain_signature`], keying the rank's lowering cache for the Alg 1
/// threaded path.
pub fn loop_signature(spec: &LoopSpec) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_loop(&mut h, spec);
    h
}

/// Stable structural signature of a partitioned mesh: rank count, halo
/// depth, per-rank set sizes and the complete exchange topology (send
/// element lists, receive ranges, levels). Two identical meshes
/// partitioned identically hash equal, so the signature keys the
/// resident service's world table and the cross-job [`PlanRegistry`] —
/// a [`ChainPlan`] built for rank `r` of one world is valid verbatim
/// for rank `r` of any world with the same signature.
pub fn mesh_signature(layouts: &[RankLayout]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_usize(&mut h, layouts.len());
    for l in layouts {
        fnv_usize(&mut h, l.rank as usize);
        fnv_usize(&mut h, l.depth);
        fnv_usize(&mut h, l.sets.len());
        for s in &l.sets {
            fnv_usize(&mut h, s.n_owned);
            fnv_usize(&mut h, s.locals.len());
            for &g in &s.locals {
                fnv_usize(&mut h, g as usize);
            }
        }
        fnv_usize(&mut h, l.neighbors.len());
        for n in &l.neighbors {
            fnv_usize(&mut h, n.rank as usize);
            fnv_usize(&mut h, n.send.len());
            for seg in &n.send {
                fnv_usize(&mut h, seg.set.idx());
                fnv_bytes(&mut h, &[seg.level]);
                fnv_usize(&mut h, seg.elems.len());
                for &e in &seg.elems {
                    fnv_usize(&mut h, e as usize);
                }
            }
            fnv_usize(&mut h, n.recv.len());
            for seg in &n.recv {
                fnv_usize(&mut h, seg.set.idx());
                fnv_bytes(&mut h, &[seg.level]);
                fnv_usize(&mut h, seg.start as usize);
                fnv_usize(&mut h, seg.len as usize);
            }
        }
    }
    h
}

/// Dirty-state class of a chain's (or one loop's) `loops` at entry: a
/// hash of the entry validity depths of every dat they touch
/// (first-appearance order). Import depths and therefore the whole
/// exchange layout are a function of these depths, so two invocations
/// in the same class can share one plan verbatim.
pub fn dirty_class(loops: &[LoopSpec], valid: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut seen: Vec<DatId> = Vec::new();
    for spec in loops {
        for arg in &spec.args {
            if let Arg::Dat { dat, .. } = arg {
                if !seen.contains(dat) {
                    seen.push(*dat);
                    fnv_usize(&mut h, dat.idx());
                    fnv_bytes(&mut h, &[valid[dat.idx()]]);
                }
            }
        }
    }
    h
}

/// Everything the chain executors would otherwise recompute per
/// invocation. Immutable once built; shared via `Arc` out of the cache.
#[derive(Debug)]
pub struct ChainPlan {
    /// Structure hash (see [`chain_signature`]).
    pub sig: u64,
    /// Layout epoch the plan was built under.
    pub epoch: u64,
    /// Dirty-state class (see [`dirty_class`]).
    pub dirty: u64,
    /// Relaxed (paper-mode) analysis?
    pub relaxed: bool,
    /// Import depth `r` (max halo layers).
    pub depth: usize,
    /// The grouped (Alg 2) exchange at chain entry: per dat, the depth
    /// to deliver, and the per-neighbour message layout of Figure 8.
    pub exchange: ExchangePlan,
    /// Per-loop latency-hiding core depths.
    pub core_depths: Vec<usize>,
    /// Per-loop prewait core end (exclusive local index).
    pub core_end: Vec<usize>,
    /// Per-loop execute-region end (owned + rings ≤ extent).
    pub exec_end: Vec<usize>,
    /// Per-loop read requirements: (dat, required validity depth).
    pub reqs: Vec<Vec<(DatId, u8)>>,
    /// Per-loop produced validity: (dat, validity after the loop).
    pub produces: Vec<Vec<(DatId, u8)>>,
    /// Reads the chain makes beyond what will be valid when they happen,
    /// in loop order — pre-simulated from the entry validity (which the
    /// dirty class pins), the import, `reqs` and `produces`, so it equals
    /// what a live post-wait check would find. A strict executor fails
    /// on the first ([`crate::error::RuntimeError::Validity`]); a relaxed
    /// one reports the count as `stale_reads`.
    pub stale: Vec<StaleRead>,
    /// Every lowering built for this plan so far (inspector work, paid
    /// once per key), dropped with the plan on epoch invalidation.
    pub lowered: LoweringCache,
}

/// One under-valid read found by the plan's validity pre-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRead {
    /// Chain position of the reading loop.
    pub pos: usize,
    /// The dat read.
    pub dat: DatId,
    /// Halo depth the loop requires.
    pub need: u8,
    /// Halo depth valid at that point.
    pub have: u8,
}

/// Which lowering a [`LoweringCache`] entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoweringKey {
    /// Iterations `[start, end)` of one loop lowered for the thread pool
    /// ([`op2_core::par::thread_schedule`]) at `block` iterations per
    /// colored block. `owner` is the loop's chain position in a
    /// [`ChainPlan`]'s cache and its [`loop_signature`] in the rank's
    /// standalone-loop cache.
    Range {
        /// Chain position or loop signature.
        owner: u64,
        /// First iteration.
        start: usize,
        /// One past the last iteration.
        end: usize,
        /// Colored-fallback block size.
        block: usize,
    },
    /// The chain's tile plan for this many tiles per rank.
    Tiled(usize),
    /// The fused chain as direct range interleaving (one sequential
    /// chunk).
    FusedDirect,
    /// The fused chain block-colored at this block size.
    FusedColored(usize),
    /// The fused chain over the tile plan for this many tiles.
    FusedTiled(usize),
}

/// A lowered schedule with its chunk dependency DAG stored beside it,
/// built on the first dataflow drain — one DAG per lowering, living and
/// dying with its schedule.
#[derive(Debug)]
pub struct LoweredSchedule {
    sched: Schedule,
    dag: OnceLock<ChunkDag>,
}

impl LoweredSchedule {
    /// Wrap a freshly lowered schedule (no DAG yet).
    pub fn new(sched: Schedule) -> Self {
        LoweredSchedule {
            sched,
            dag: OnceLock::new(),
        }
    }

    /// The schedule's chunk DAG, running `build` only on first request.
    pub fn dag(&self, build: impl FnOnce(&Schedule) -> ChunkDag) -> &ChunkDag {
        self.dag.get_or_init(|| build(&self.sched))
    }
}

impl std::ops::Deref for LoweredSchedule {
    type Target = Schedule;
    fn deref(&self) -> &Schedule {
        &self.sched
    }
}

/// What a [`LoweringCache`] holds under a [`LoweringKey`]: a `Range` key
/// holds one schedule, a `Tiled` key the tile plan with its schedules, a
/// `Fused*` key the fused schedule with its elision facts.
#[derive(Debug, Clone)]
pub enum Lowered {
    /// One loop range's pool schedule.
    Range(Arc<LoweredSchedule>),
    /// A tile plan and its full / core / post schedules.
    Tiled(Arc<TiledChain>),
    /// A fused whole-chain schedule.
    Fused(Arc<FusedChain>),
}

/// The one cache of lowered schedules: key → lowering, each entry built
/// at most once per cache. Held by every [`ChainPlan`] (chain lowerings)
/// and by the rank's [`crate::threads::ThreadCtx`] (standalone loops).
#[derive(Debug, Default)]
pub struct LoweringCache {
    map: Mutex<HashMap<LoweringKey, Lowered>>,
}

impl LoweringCache {
    /// The lowering under `key`, running `build` on a miss. Returns
    /// `(lowering, built)`. The lock is not held while building — a
    /// build may itself consult the cache (the fused-tiled lowering
    /// starts from the tiled one).
    pub fn get_or_build(&self, key: LoweringKey, build: impl FnOnce() -> Lowered) -> (Lowered, bool) {
        let hit = self.map.lock().expect("lowering cache poisoned").get(&key).cloned();
        if let Some(low) = hit {
            return (low, false);
        }
        let fresh = build();
        let mut map = self.map.lock().expect("lowering cache poisoned");
        (map.entry(key).or_insert(fresh).clone(), true)
    }
}

/// A whole-chain fused schedule for one lowering, plus the facts the
/// fused executor and the lowering decision need: which intermediates
/// were actually elided (scratch-resident, never written to memory) and
/// how much memory traffic that removes per invocation. Built once per
/// ([`ChainPlan`], lowering) and cached — see [`ChainPlan::fused_chain`].
#[derive(Debug)]
pub struct FusedChain {
    /// The fused leveled schedule over the whole chain.
    pub sched: LoweredSchedule,
    /// Per chain loop: fusion group membership (the legality analysis's
    /// verdict; `None` = the loop runs unfused).
    pub group_of: Vec<Option<usize>>,
    /// Intermediates elided under this lowering. A dat declared scratch
    /// ([`ChainSpec::with_scratch`]) drops out when the lowering left
    /// any consumer piece unfused — fusion stays, elision write-throughs.
    pub elided: Vec<DatId>,
    /// Intermediate memory traffic elided per invocation, in bytes: for
    /// every elided dat, the producer's write plus each consumer's
    /// read-back over the fused extent.
    pub elided_bytes: u64,
    /// Fused pieces in `sched` (0 = nothing fused; callers fall back to
    /// the unfused executor).
    pub fused_pieces: u64,
}

/// A cached tile plan together with its lowered schedules: the full
/// leveled schedule plus the core/post split the overlap executor uses
/// (see [`overlap_core_tiles`]). All inspector work — built once per
/// (plan, tile count), replayed by every tiled invocation.
#[derive(Debug)]
pub struct TiledChain {
    /// The leveled tile plan itself.
    pub tiles: Arc<TilePlan>,
    /// Full schedule over every tile (what the fused-tiled lowering and
    /// the tuner's barrier count start from).
    pub sched: LoweredSchedule,
    /// Overlap-eligible tiles only — footprint inside every loop's core
    /// region and demotion-closed against earlier post tiles, so they
    /// may run while the grouped exchange is in flight.
    pub core: LoweredSchedule,
    /// The remaining tiles, run after the wait. Core then post replays
    /// the full plan's conflict order exactly.
    pub post: LoweredSchedule,
    /// Number of overlap-eligible tiles (`core`'s chunk count).
    pub n_core_tiles: usize,
}

impl ChainPlan {
    /// Run the full chain inspection for one rank: import depths, core
    /// depths, execute ranges, validity bookkeeping and the grouped
    /// per-neighbour message layout.
    pub fn build(
        layout: &RankLayout,
        dom: &Domain,
        valid: &[u8],
        chain: &ChainSpec,
        relaxed: bool,
        epoch: u64,
    ) -> ChainPlan {
        let sig = chain_signature(chain, relaxed);
        let dirty = dirty_class(&chain.loops, valid);
        let depth = chain.max_halo_layers();
        let sigs = chain.sigs();
        let entry = |d: DatId| valid[d.idx()] as usize;
        // The relaxed import analysis in both modes: on consistent
        // extents it equals the strict one, and where a pinned extent is
        // too small it deepens the import instead of panicking — strict
        // executors then refuse the chain through `stale` (typed), rather
        // than the inspector killing the rank.
        let import: Vec<(DatId, u8)> =
            op2_core::chain::import_depths_relaxed(&sigs, &chain.halo_ext, &entry)
                .into_iter()
                .map(|(d, t)| (d, t as u8))
                .collect();

        let core_depths = if relaxed {
            vec![1usize; chain.len()]
        } else {
            op2_core::chain::core_depths(&sigs)
        };
        let core_end: Vec<usize> = sigs
            .iter()
            .zip(&core_depths)
            .map(|(s, &cd)| layout.sets[s.set.idx()].core_end(cd - 1))
            .collect();
        let exec_end: Vec<usize> = sigs
            .iter()
            .zip(&chain.halo_ext)
            .map(|(s, &e)| layout.sets[s.set.idx()].exec_end(e))
            .collect();

        let mut reqs = Vec::with_capacity(chain.len());
        let mut produces = Vec::with_capacity(chain.len());
        for (sig_l, &ext) in sigs.iter().zip(&chain.halo_ext) {
            let mut r = Vec::new();
            let mut p = Vec::new();
            for d in sig_l.dats() {
                if let Some((mode, indirect)) = sig_l.access_of(d) {
                    r.push((d, read_requirement(mode, indirect, ext) as u8));
                    if let Some(v) = produced_validity(mode, indirect, ext) {
                        p.push((d, v as u8));
                    }
                }
            }
            reqs.push(r);
            produces.push(p);
        }

        // Validity pre-simulation: the wait raises every import to its
        // depth, then requirements are met (or not) in loop order as
        // each loop's produced validity lands.
        let mut sim = valid.to_vec();
        for &(d, t) in &import {
            sim[d.idx()] = sim[d.idx()].max(t);
        }
        let mut stale = Vec::new();
        for (pos, (r, p)) in reqs.iter().zip(&produces).enumerate() {
            for &(dat, need) in r {
                let have = sim[dat.idx()];
                if have < need {
                    stale.push(StaleRead { pos, dat, need, have });
                }
            }
            for &(d, v) in p {
                sim[d.idx()] = v;
            }
        }

        ChainPlan {
            sig,
            epoch,
            dirty,
            relaxed,
            depth,
            exchange: ExchangePlan::build(layout, dom, import, Split::Grouped),
            core_depths,
            core_end,
            exec_end,
            reqs,
            produces,
            stale,
            lowered: LoweringCache::default(),
        }
    }

    /// The tile plan for `n_tiles` intra-rank tiles with its lowered
    /// schedules (full and core/post overlap split), built on first
    /// request and cached together, so repeat tiled invocations neither
    /// re-inspect nor re-lower. Returns `(tiled, built)` — `built` is
    /// true when this call ran the tiling inspection (the caller records
    /// it as a tile-plan miss).
    pub fn tile_schedule(
        &self,
        layout: &RankLayout,
        chain: &ChainSpec,
        n_tiles: usize,
    ) -> (Arc<TiledChain>, bool) {
        let build = || Lowered::Tiled(Arc::new(self.build_tiled(layout, chain, n_tiles)));
        match self.lowered.get_or_build(LoweringKey::Tiled(n_tiles), build) {
            (Lowered::Tiled(tc), built) => (tc, built),
            _ => unreachable!("a Tiled key holds a tiled lowering"),
        }
    }

    fn build_tiled(&self, layout: &RankLayout, chain: &ChainSpec, n_tiles: usize) -> TiledChain {
        let sigs = chain.sigs();
        let set_sizes = layout.set_sizes();
        // Seed through the first loop's map targets when it has one:
        // target-set numbering (e.g. lexicographic nodes) is spatially
        // coherent even when the iteration set's is not (direction-
        // grouped edges), so target-seeded tiles conflict only with
        // their spatial neighbours and the red-black levelization can
        // run about half of them per level.
        let seed = match sigs[0].args.iter().find_map(|a| match a {
            Arg::Dat {
                map: Some((m, idx)),
                ..
            } => Some((*m, *idx)),
            _ => None,
        }) {
            Some((m, idx)) => {
                let md = &layout.maps[m.idx()];
                let n_targets = set_sizes[md.to.idx()];
                let targets: Vec<u32> = (0..self.exec_end[0])
                    .map(|e| md.values[e * md.arity + idx as usize])
                    .collect();
                seed_from_targets(&targets, n_targets, n_tiles)
            }
            None => seed_blocks(self.exec_end[0], n_tiles),
        };
        let tp = Arc::new(build_tile_plan_raw(
            &set_sizes,
            &layout.maps,
            &sigs,
            &self.exec_end,
            &seed,
        ));
        let accesses = chain_accesses(&layout.maps, &sigs);
        let subset = |keep: &[bool]| {
            LoweredSchedule::new(Schedule::from_tile_plan_subset(&tp, keep, &accesses, &set_sizes))
        };
        let sched = LoweredSchedule::new(Schedule::from_tile_plan(&tp, &accesses, &set_sizes));
        // The overlap split: tiles whose footprint sits inside every
        // loop's core region run while the exchange is in flight.
        let keep = overlap_core_tiles(&set_sizes, &accesses, &tp, &self.core_end);
        let n_core_tiles = keep.iter().filter(|&&k| k).count();
        let core = subset(&keep);
        let not_keep: Vec<bool> = keep.iter().map(|&k| !k).collect();
        let post = subset(&not_keep);
        TiledChain {
            tiles: tp,
            sched,
            core,
            post,
            n_core_tiles,
        }
    }

    /// The fused whole-chain schedule for one lowering, built on first
    /// request and cached inside the plan. Returns `(fused, built)` —
    /// `built` is true when this call ran the fusion analysis and
    /// lowering (a fused-schedule miss).
    ///
    /// The build runs [`ChainSpec::fusion`] (legality analysis), lowers
    /// per `key` (a `Fused*` one) — direct range interleaving,
    /// union-conflict block coloring, or the cached tile schedule put
    /// through
    /// [`Schedule::fuse`] — then re-verifies scratch elision against the
    /// *actual* pieces ([`elision_valid`]): a lowering that left any
    /// consumer piece unfused keeps the fusion but write-throughs the
    /// intermediate (scratch binds stripped), so correctness never
    /// depends on the lowering lining up.
    pub fn fused_chain(
        &self,
        layout: &RankLayout,
        dom: &Domain,
        chain: &ChainSpec,
        key: LoweringKey,
    ) -> (Arc<FusedChain>, bool) {
        let build = || Lowered::Fused(Arc::new(self.build_fused(layout, dom, chain, key)));
        match self.lowered.get_or_build(key, build) {
            (Lowered::Fused(fc), built) => (fc, built),
            _ => panic!("{key:?} is not a fused lowering"),
        }
    }

    fn build_fused(
        &self,
        layout: &RankLayout,
        dom: &Domain,
        chain: &ChainSpec,
        key: LoweringKey,
    ) -> FusedChain {
        let fp = chain.fusion();
        let groups = fused_groups_for(chain, dom, &fp);
        let mut sched = match key {
            LoweringKey::FusedColored(block) => colored_fused(
                layout,
                chain,
                &self.exec_end,
                block.max(1),
                groups,
                &fp.group_of,
            ),
            LoweringKey::FusedTiled(n_tiles) => {
                let (tc, _) = self.tile_schedule(layout, chain, n_tiles);
                Schedule::clone(&tc.sched).fuse(groups, &fp.group_of)
            }
            _ => Schedule::chain_ranges_fused(&self.exec_end, groups, &fp.group_of),
        };
        if !elision_valid(&[&sched], &sched.fused, &fp.group_of) {
            for g in &mut sched.fused {
                g.scratch.clear();
            }
        }
        let mut elided = Vec::new();
        let mut elided_bytes = 0u64;
        for (g, gi) in sched.fused.iter().zip(&fp.groups) {
            let common = gi
                .members()
                .map(|j| self.exec_end[j])
                .min()
                .unwrap_or(0) as u64;
            for (s, &d) in g.scratch.iter().zip(&gi.elided) {
                let accesses = s.consumers().count() as u64 + 1;
                elided_bytes += common * s.dim as u64 * 8 * accesses;
                elided.push(d);
            }
        }
        FusedChain {
            fused_pieces: sched.n_fused_pieces() as u64,
            group_of: fp.group_of,
            elided,
            elided_bytes,
            sched: LoweredSchedule::new(sched),
        }
    }
}

/// Translate a chain's [`op2_core::chain::FusionPlan`] into the schedule
/// IR's [`FusedGroup`]s: member loop lists plus one [`ScratchBind`] per
/// elidable intermediate, with pool offsets laid out consecutively
/// across all groups (one per-worker pool serves the whole chain).
fn fused_groups_for(
    chain: &ChainSpec,
    dom: &Domain,
    fp: &op2_core::chain::FusionPlan,
) -> Vec<FusedGroup> {
    let mut out = Vec::with_capacity(fp.groups.len());
    let mut offset = 0u32;
    for gi in &fp.groups {
        let mut g = FusedGroup {
            loops: gi.members().map(|j| j as u32).collect(),
            scratch: Vec::new(),
        };
        for &d in &gi.elided {
            let dim = dom.dat(d).dim as u32;
            let mut binds = Vec::new();
            let mut producer = 0u32;
            let mut first = true;
            for (mp, j) in gi.members().enumerate() {
                for (a, arg) in chain.loops[j].args.iter().enumerate() {
                    if matches!(arg, Arg::Dat { dat, .. } if *dat == d) {
                        if first {
                            producer = mp as u32;
                            first = false;
                        }
                        binds.push((mp as u32, a as u32));
                    }
                }
            }
            g.scratch.push(ScratchBind {
                dim,
                offset,
                producer,
                binds,
            });
            offset += dim;
        }
        out.push(g);
    }
    out
}

/// The colored fused lowering: the chain cut into program-order
/// *segments* — per fusion group the members' common extent as
/// [`Piece::Fused`] blocks, then each member's tail beyond it, and every
/// solo loop, as [`Piece::Range`] blocks — each segment levelized on its
/// own ([`conflict_levels`] under the per-loop [`conflict_accesses`]; a
/// fused block unions its members', since it runs all their kernels) and
/// the level runs concatenated, which preserves the per-location update
/// order of the unfused colored walk.
fn colored_fused(
    layout: &RankLayout,
    chain: &ChainSpec,
    ends: &[usize],
    block: usize,
    groups: Vec<FusedGroup>,
    group_of: &[Option<usize>],
) -> Schedule {
    let sigs = chain.sigs();
    let set_sizes = layout.set_sizes();
    let accesses: Vec<_> = (sigs.iter())
        .map(|sig| conflict_accesses(&layout.maps, sig))
        .collect();
    let (mut units, mut levels): (Vec<Chunk>, Vec<u32>) = (Vec::new(), Vec::new());
    let mut segment = |lo: usize, hi: usize, piece: &dyn Fn(u32, u32) -> Piece| {
        let blocks = block_units(lo, hi, block, piece);
        let base = levels.iter().max().map_or(0, |&l| l + 1);
        let within = conflict_levels(&blocks, &groups, &accesses, &set_sizes);
        levels.extend(within.iter().map(|&l| base + l));
        units.extend(blocks);
    };
    let range_of = |loop_idx: u32| move |start, end| Piece::Range { loop_idx, start, end };
    let mut j = 0usize;
    while j < sigs.len() {
        match group_of[j] {
            Some(g) if groups[g].loops.first() == Some(&(j as u32)) => {
                let members = &groups[g].loops;
                let common = members.iter().map(|&m| ends[m as usize]).min().unwrap_or(0);
                let group = g as u32;
                segment(0, common, &|start, end| Piece::Fused { group, start, end });
                for &m in members {
                    segment(common, ends[m as usize], &range_of(m));
                }
                j += members.len();
            }
            _ => {
                segment(0, ends[j], &range_of(j as u32));
                j += 1;
            }
        }
    }
    let kind = ScheduleKind::Colored { block_size: block };
    Schedule::from_levels(kind, groups, units, &levels, &accesses, &set_sizes)
}

/// Plan-cache activity counters, copied into the rank trace by the
/// harness (alongside the transport counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Chain invocations served from the cache (zero re-analysis).
    pub hits: u64,
    /// Chain invocations that built a fresh plan.
    pub misses: u64,
    /// Plans discarded by epoch bumps (layout/ownership changes).
    pub invalidations: u64,
    /// Tiled invocations that reused a cached tile schedule.
    pub tile_hits: u64,
    /// Tiled invocations that ran the tiling inspection.
    pub tile_misses: u64,
    /// Threaded executions that reused a cached block coloring.
    pub color_hits: u64,
    /// Threaded executions that ran the block-coloring inspection.
    pub color_misses: u64,
    /// Tiles executed *while an exchange was in flight* by the tiled
    /// overlap executor (summed over invocations). A pure function of
    /// the plan and tile count, so deterministic across thread counts.
    pub overlap_tiles: u64,
    /// Local-cache misses served by the cross-job [`PlanRegistry`]
    /// instead of a fresh inspection (zero re-analysis — the resident
    /// service's warm path). Not counted in `misses`.
    pub registry_hits: u64,
    /// Fresh inspections published to an attached registry (the cold
    /// path that warms it for every later job on the same mesh).
    pub registry_misses: u64,
    /// Fused pieces executed by the fused chain executor — each one ran
    /// every member kernel of its group back-to-back per element.
    pub fused_pieces: u64,
    /// Bytes of intermediate-dat memory traffic elided by scratch-pool
    /// fusion (loads + stores that never reached the dat's storage).
    pub elided_bytes: u64,
}

impl PlanStats {
    /// Accumulate another rank's (or job's) counters — the aggregation
    /// the service metrics and bench report sum per-rank stats with.
    pub fn add(&mut self, other: &PlanStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.invalidations += other.invalidations;
        self.tile_hits += other.tile_hits;
        self.tile_misses += other.tile_misses;
        self.color_hits += other.color_hits;
        self.color_misses += other.color_misses;
        self.overlap_tiles += other.overlap_tiles;
        self.registry_hits += other.registry_hits;
        self.registry_misses += other.registry_misses;
        self.fused_pieces += other.fused_pieces;
        self.elided_bytes += other.elided_bytes;
    }
}

/// Cross-job chain-plan registry: the resident service's shared,
/// immutable inspection artifacts. Keys are `(mesh signature, rank,
/// chain signature, dirty class)` — a [`ChainPlan`] is built against one
/// rank's layout, so sharing is across *jobs* on the same mesh, not
/// across ranks. Values are the same `Arc<ChainPlan>`s the per-rank
/// [`PlanCache`] holds; a plan's [`LoweringCache`] is mutex-guarded, so
/// the lazily built lowerings are shared (and warmed) across jobs too.
///
/// Epoch invalidation is preserved: [`PlanCache::bump_epoch`] on a
/// registry-attached cache drops the mesh's registry entries along with
/// the local ones, so a repartitioned world can never serve stale
/// exchange layouts to the next job.
#[derive(Debug, Default)]
pub struct PlanRegistry {
    inner: Mutex<HashMap<RegistryKey, Arc<ChainPlan>>>,
}

/// `(mesh signature, rank, chain signature, dirty class)`.
type RegistryKey = (u64, u32, u64, u64);

impl PlanRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        PlanRegistry::default()
    }

    /// Look up a published plan.
    pub fn get(&self, mesh: u64, rank: u32, sig: u64, dirty: u64) -> Option<Arc<ChainPlan>> {
        self.inner
            .lock()
            .expect("plan registry poisoned")
            .get(&(mesh, rank, sig, dirty))
            .cloned()
    }

    /// Publish a freshly built plan for every later job on this mesh.
    pub fn publish(&self, mesh: u64, rank: u32, sig: u64, dirty: u64, plan: Arc<ChainPlan>) {
        self.inner
            .lock()
            .expect("plan registry poisoned")
            .insert((mesh, rank, sig, dirty), plan);
    }

    /// Drop every plan belonging to `mesh` (layout-epoch invalidation).
    pub fn invalidate_mesh(&self, mesh: u64) -> usize {
        let mut inner = self.inner.lock().expect("plan registry poisoned");
        let before = inner.len();
        inner.retain(|&(m, _, _, _), _| m != mesh);
        before - inner.len()
    }

    /// Resident plan count across all meshes and ranks.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("plan registry poisoned").len()
    }

    /// True when nothing is published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Per-rank plan cache: `(signature, dirty class) → Arc<ChainPlan>`,
/// all entries belonging to the current layout epoch.
#[derive(Debug, Default)]
pub struct PlanCache {
    epoch: u64,
    map: HashMap<(u64, u64), Arc<ChainPlan>>,
    /// Alg 1's per-dat exchanges, `(loop signature, dirty class) →
    /// plan`: dropped with the chain plans, never counted in `stats`.
    loops: HashMap<(u64, u64), Arc<ExchangePlan>>,
    /// Cross-job registry this cache resolves misses through (resident
    /// service only; `None` for standalone runs).
    registry: Option<Arc<PlanRegistry>>,
    /// Mesh signature and rank keying this cache's registry slice.
    mesh: u64,
    rank: u32,
    /// Activity counters (see [`PlanStats`]).
    pub stats: PlanStats,
}

impl PlanCache {
    /// Empty cache at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current layout epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cached plan count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Invalidate every cached plan: the partition layout (ownership,
    /// halo structure) changed, so all exchange layouts are stale. Call
    /// after repartitioning / layout rebuilds. With a registry attached,
    /// the mesh's published plans are dropped too — cross-job sharing
    /// must never outlive the layout it was built for.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.stats.invalidations += self.map.len() as u64;
        self.map.clear();
        self.loops.clear();
        if let Some(reg) = &self.registry {
            reg.invalidate_mesh(self.mesh);
        }
    }

    /// Wire this cache to a cross-job [`PlanRegistry`]: local misses are
    /// resolved through the registry's `(mesh, rank)` slice before
    /// falling back to a fresh inspection, and fresh plans are published
    /// back. Idempotent — a supervised restart re-attaches the carried
    /// cache with the same registry.
    pub fn attach_registry(&mut self, registry: Arc<PlanRegistry>, mesh: u64, rank: u32) {
        self.registry = Some(registry);
        self.mesh = mesh;
        self.rank = rank;
    }

    /// The attached registry, if any (service-side introspection).
    pub fn registry(&self) -> Option<&Arc<PlanRegistry>> {
        self.registry.as_ref()
    }
}

/// Look up (or build and cache) the plan for `chain` given the rank's
/// current validity state. The cache hit path does zero halo-layer,
/// import-depth or exchange-layout recomputation. A local miss on a
/// registry-attached cache (resident service) consults the cross-job
/// [`PlanRegistry`] next — a hit there still skips inspection entirely
/// (counted as `registry_hits`, not `misses`); only a miss on both runs
/// [`ChainPlan::build`], and the fresh plan is published back for every
/// later job on the mesh.
pub fn plan_for(
    env: &mut crate::env::RankEnv<'_>,
    chain: &ChainSpec,
    relaxed: bool,
) -> Arc<ChainPlan> {
    let sig = chain_signature(chain, relaxed);
    let dirty = dirty_class(&chain.loops, &env.valid);
    if let Some(p) = env.plans.map.get(&(sig, dirty)) {
        env.plans.stats.hits += 1;
        return Arc::clone(p);
    }
    if let Some(reg) = env.plans.registry.clone() {
        if let Some(p) = reg.get(env.plans.mesh, env.plans.rank, sig, dirty) {
            env.plans.stats.registry_hits += 1;
            env.plans.map.insert((sig, dirty), Arc::clone(&p));
            return p;
        }
    }
    env.plans.stats.misses += 1;
    let plan = Arc::new(ChainPlan::build(
        env.layout,
        env.dom,
        &env.valid,
        chain,
        relaxed,
        env.plans.epoch,
    ));
    env.plans.map.insert((sig, dirty), Arc::clone(&plan));
    if let Some(reg) = &env.plans.registry {
        env.plans.stats.registry_misses += 1;
        reg.publish(env.plans.mesh, env.plans.rank, sig, dirty, Arc::clone(&plan));
    }
    plan
}

/// The per-dat (Alg 1) exchange `spec` needs under the rank's current
/// validity: its [`crate::exec::exchange_list`] depends only on the
/// loop's structure and its dats' entry validity, so it is derived and
/// resolved against the layout only on a cache miss.
pub fn loop_exchange_for(env: &mut crate::env::RankEnv<'_>, spec: &LoopSpec) -> Arc<ExchangePlan> {
    let key = (loop_signature(spec), dirty_class(std::slice::from_ref(spec), &env.valid));
    if let Some(x) = env.plans.loops.get(&key) {
        return Arc::clone(x);
    }
    let import = crate::exec::exchange_list(env, spec, crate::exec::standalone_extent(spec));
    let x = Arc::new(ExchangePlan::build(env.layout, env.dom, import, Split::PerDat));
    env.plans.loops.insert(key, Arc::clone(&x));
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use crate::env::RankEnv;
    use op2_core::schedule::Level;
    use op2_core::LoopSpec;
    use op2_mesh::Quad2D;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};

    fn noop(_: &op2_core::Args<'_>) {}

    struct Fix {
        mesh: Quad2D,
        layouts: Vec<RankLayout>,
        chain: ChainSpec,
    }

    fn fix() -> Fix {
        let mut mesh = Quad2D::generate(6, 6);
        let a = mesh.dom.decl_dat_zeros("a", mesh.nodes, 1);
        let b = mesh.dom.decl_dat_zeros("b", mesh.nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            mesh.edges,
            vec![
                Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let consume = LoopSpec::new(
            "consume",
            mesh.edges,
            vec![
                Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Read),
                Arg::dat_indirect(b, mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(b, mesh.e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let chain = ChainSpec::new("pc", vec![produce, consume], None, &[]).unwrap();
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 1);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 1);
        let layouts = build_layouts(&mesh.dom, &own, 2);
        Fix {
            mesh,
            layouts,
            chain,
        }
    }

    /// The structure hash is stable across clones and sensitive to the
    /// execution mode and halo extents.
    #[test]
    fn signature_stable_and_discriminating() {
        let f = fix();
        assert_eq!(
            chain_signature(&f.chain, false),
            chain_signature(&f.chain.clone(), false)
        );
        assert_ne!(
            chain_signature(&f.chain, false),
            chain_signature(&f.chain, true)
        );
        let mut widened = f.chain.clone();
        widened.halo_ext[1] += 1;
        assert_ne!(
            chain_signature(&f.chain, false),
            chain_signature(&widened, false)
        );
    }

    /// Repeat lookups in the same dirty class hit; a validity change
    /// selects a different class (miss); an epoch bump clears the cache.
    #[test]
    fn cache_hits_and_invalidation() {
        let f = fix();
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&f.layouts[0], &f.mesh.dom, comm);

        let p1 = plan_for(&mut env, &f.chain, false);
        assert_eq!(env.plans.stats, PlanStats { misses: 1, ..Default::default() });
        let p2 = plan_for(&mut env, &f.chain, false);
        assert!(Arc::ptr_eq(&p1, &p2), "same class must share the plan");
        assert_eq!(env.plans.stats.hits, 1);

        // Dirty-bit class change: dat `a` becomes fully dirty.
        let a = f.mesh.dom.dat_by_name("a").unwrap();
        env.valid[a.idx()] = 0;
        let p3 = plan_for(&mut env, &f.chain, false);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(env.plans.stats.misses, 2);
        assert_eq!(env.plans.len(), 2);

        // Layout-epoch bump: everything out.
        env.plans.bump_epoch();
        assert_eq!(env.plans.stats.invalidations, 2);
        assert!(env.plans.is_empty());
        let _ = plan_for(&mut env, &f.chain, false);
        assert_eq!(env.plans.stats.misses, 3);
        assert_eq!(env.plans.epoch(), 1);
    }

    /// Alg 1's per-dat exchange is cached per (loop, dirty class): repeat
    /// `run_loop`s in one class build it once, a different class builds
    /// another, an epoch bump drops them all — and none of it touches
    /// the chain-plan counters.
    #[test]
    fn loop_exchanges_cached_per_dirty_class() {
        let f = fix();
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&f.layouts[0], &f.mesh.dom, comm);
        let a = f.mesh.dom.dat_by_name("a").unwrap();
        let consume = &f.chain.loops[1];
        let key = |env: &RankEnv<'_>| {
            (loop_signature(consume), dirty_class(std::slice::from_ref(consume), &env.valid))
        };
        let mut first = None;
        for _ in 0..3 {
            env.valid.fill(0);
            let k = key(&env);
            crate::exec::run_loop(&mut env, consume).unwrap();
            let x = Arc::clone(&env.plans.loops[&k]);
            assert_eq!(x.import, vec![(a, 1)]);
            assert!(Arc::ptr_eq(first.get_or_insert_with(|| Arc::clone(&x)), &x));
        }
        assert_eq!(env.plans.loops.len(), 1, "one class, one plan");
        // `a` is now valid to depth 1: a second class, a second plan.
        crate::exec::run_loop(&mut env, consume).unwrap();
        assert_eq!(env.plans.loops.len(), 2);
        assert_eq!(env.plans.stats, PlanStats::default());
        env.plans.bump_epoch();
        assert!(env.plans.loops.is_empty());
        assert_eq!(env.plans.stats, PlanStats::default());
    }

    /// The built plan matches what the executors would derive inline.
    #[test]
    fn plan_matches_inline_analysis() {
        let f = fix();
        let layout = &f.layouts[0];
        let valid = vec![0u8; f.mesh.dom.n_dats()];
        let plan = ChainPlan::build(layout, &f.mesh.dom, &valid, &f.chain, false, 0);
        assert_eq!(plan.depth, f.chain.max_halo_layers());
        let sigs = f.chain.sigs();
        assert_eq!(plan.core_depths, op2_core::chain::core_depths(&sigs));
        let expect: Vec<(DatId, u8)> =
            op2_core::chain::import_depths(&sigs, &f.chain.halo_ext, &|_| 0)
                .into_iter()
                .map(|(d, t)| (d, t as u8))
                .collect();
        assert_eq!(plan.exchange.import, expect);
        for (pos, sig_l) in sigs.iter().enumerate() {
            let ext = f.chain.halo_ext[pos];
            assert_eq!(
                plan.exec_end[pos],
                layout.sets[sig_l.set.idx()].exec_end(ext)
            );
        }
    }

    /// Tile schedules are built once per tile count and reused.
    #[test]
    fn tile_plans_cached_per_count() {
        let f = fix();
        let layout = &f.layouts[0];
        let valid = vec![0u8; f.mesh.dom.n_dats()];
        let plan = ChainPlan::build(layout, &f.mesh.dom, &valid, &f.chain, false, 0);
        let (t1, built1) = plan.tile_schedule(layout, &f.chain, 4);
        assert!(built1);
        let (t2, built2) = plan.tile_schedule(layout, &f.chain, 4);
        assert!(!built2);
        assert!(Arc::ptr_eq(&t1.tiles, &t2.tiles));
        let (_, built3) = plan.tile_schedule(layout, &f.chain, 2);
        assert!(built3, "a different tile count is a fresh schedule");
    }

    /// The one lowering cache: the same key yields the same `Arc`, a
    /// schedule's DAG is built once and lives beside it, the fused-tiled
    /// lowering shares the tiled entry it starts from, and an epoch bump
    /// drops schedules and DAGs together with their plan.
    #[test]
    fn lowering_cache_shares_entries_and_dags_and_drops_with_the_plan() {
        let (f, _) = fusable_fix();
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&f.layouts[0], &f.mesh.dom, comm);
        let plan = plan_for(&mut env, &f.chain, false);

        let key = LoweringKey::Range {
            owner: 0,
            start: 0,
            end: 8,
            block: 4,
        };
        let builds = std::cell::Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            Lowered::Range(Arc::new(LoweredSchedule::new(Schedule::range(0, 8))))
        };
        let (Lowered::Range(a), true) = plan.lowered.get_or_build(key, build) else {
            panic!("first lookup must build a range lowering");
        };
        let (Lowered::Range(b), false) = plan.lowered.get_or_build(key, build) else {
            panic!("second lookup must hit");
        };
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.get(), 1);

        // The DAG is stored with its schedule: built once, same object
        // on every later request, whoever holds the lowering.
        let dag_builds = std::cell::Cell::new(0);
        let build_dag = |sched: &Schedule| {
            dag_builds.set(dag_builds.get() + 1);
            ChunkDag::build(sched, &[], &[Vec::new()])
        };
        let d1: *const ChunkDag = a.dag(build_dag);
        let d2: *const ChunkDag = b.dag(build_dag);
        assert_eq!((d1, dag_builds.get()), (d2, 1));

        // Fused-tiled is built from the tiled entry, not a second tiling.
        let _ = plan.fused_chain(&f.layouts[0], &f.mesh.dom, &f.chain, LoweringKey::FusedTiled(3));
        let (_, built) = plan.tile_schedule(&f.layouts[0], &f.chain, 3);
        assert!(!built, "the fused-tiled build must have cached the tiling");

        // Epoch bump: the plan cache lets go of the plan, and with it
        // every schedule and DAG.
        let schedule = Arc::downgrade(&a);
        drop((a, b, plan));
        assert!(schedule.upgrade().is_some(), "the cached plan keeps its lowerings alive");
        env.plans.bump_epoch();
        assert!(schedule.upgrade().is_none(), "epoch bump must drop schedule and DAG");
    }

    /// A fusable stage→apply pair with a declared scratch intermediate,
    /// on a single-rank layout.
    fn fusable_fix() -> (Fix, DatId) {
        let mut mesh = Quad2D::generate(6, 6);
        let a = mesh.dom.decl_dat_zeros("a", mesh.nodes, 1);
        let tmp = mesh.dom.decl_dat_zeros("tmp", mesh.nodes, 1);
        let stage = LoopSpec::new(
            "stage",
            mesh.nodes,
            vec![
                Arg::dat_direct(a, AccessMode::Read),
                Arg::dat_direct(tmp, AccessMode::Write),
            ],
            noop,
        );
        let apply = LoopSpec::new(
            "apply",
            mesh.nodes,
            vec![
                Arg::dat_direct(tmp, AccessMode::Read),
                Arg::dat_direct(a, AccessMode::Rw),
            ],
            noop,
        );
        let chain = ChainSpec::new("sa", vec![stage, apply], None, &[])
            .unwrap()
            .with_scratch(&[tmp]);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 1);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 1);
        let layouts = build_layouts(&mesh.dom, &own, 2);
        (
            Fix {
                mesh,
                layouts,
                chain,
            },
            tmp,
        )
    }

    /// Fused schedules are built once per (lowering kind, grain) key,
    /// cached thereafter, and carry the elision bookkeeping the stats
    /// counters and the auto profit arm consume.
    #[test]
    fn fused_chains_cached_per_key_with_elision() {
        let (f, tmp) = fusable_fix();
        let layout = &f.layouts[0];
        let valid = vec![0u8; f.mesh.dom.n_dats()];
        let plan = ChainPlan::build(layout, &f.mesh.dom, &valid, &f.chain, false, 0);

        let (fc, built) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, LoweringKey::FusedDirect);
        assert!(built);
        assert!(fc.fused_pieces > 0, "direct lowering must fuse the pair");
        assert_eq!(fc.elided, vec![tmp]);
        // Write + one read of a dim-1 f64 intermediate per fused element.
        let common = plan.exec_end.iter().min().copied().unwrap() as u64;
        assert_eq!(fc.elided_bytes, common * 8 * 2);
        assert_eq!(fc.sched.scratch_pool_len(), 1);

        let (fc2, built2) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, LoweringKey::FusedDirect);
        assert!(!built2);
        assert!(Arc::ptr_eq(&fc, &fc2), "same key must share the schedule");

        // The colored lowering is a distinct cache entry but fuses and
        // elides identically (direct loops: one color, aligned blocks).
        let (fc3, built3) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, LoweringKey::FusedColored(8));
        assert!(built3, "a different key is a fresh schedule");
        assert!(fc3.fused_pieces > 0);
        assert_eq!(fc3.elided, vec![tmp]);
    }

    /// The fused-colored lowering, literally: on a path, the fused
    /// stage+apply blocks share a node with their neighbours and ladder
    /// (the group's segment, levelized under the union of its members'
    /// accesses); the solo loop's segment follows on one level of its
    /// own (it modifies nothing through a map).
    #[test]
    fn fused_colored_levels_are_literal() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 9);
        let edges = dom.decl_set("edges", 8);
        let path: Vec<u32> = (0..8).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, path).unwrap();
        let w = dom.decl_dat_zeros("w", edges, 1);
        let r = dom.decl_dat_zeros("r", nodes, 1);
        let stage = LoopSpec::new("stage", edges, vec![Arg::dat_direct(w, AccessMode::Write)], noop);
        let apply = LoopSpec::new(
            "apply",
            edges,
            vec![
                Arg::dat_direct(w, AccessMode::Read),
                Arg::dat_indirect(r, e2n, 0, AccessMode::Rw),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Rw),
            ],
            noop,
        );
        let scale = LoopSpec::new("scale", nodes, vec![Arg::dat_direct(r, AccessMode::Rw)], noop);
        let chain = ChainSpec::new("sas", vec![stage, apply, scale], None, &[]).unwrap();
        let own = derive_ownership(&dom, nodes, vec![0; 9], 1);
        let layout = &build_layouts(&dom, &own, 2)[0];
        let plan = ChainPlan::build(layout, &dom, &vec![0u8; dom.n_dats()], &chain, false, 0);
        assert_eq!(plan.exec_end, vec![8, 8, 9]);

        let (fc, _) = plan.fused_chain(layout, &dom, &chain, LoweringKey::FusedColored(2));
        let level = |pieces: Vec<Piece>| Level {
            chunks: pieces.into_iter().map(|p| Chunk::new(vec![p])).collect(),
        };
        let fused = |start, end| Piece::Fused { group: 0, start, end };
        let solo = |start, end| Piece::Range { loop_idx: 2, start, end };
        let expect = Schedule {
            n_loops: 3,
            kind: ScheduleKind::Colored { block_size: 2 },
            levels: vec![
                level(vec![fused(0, 2)]),
                level(vec![fused(2, 4)]),
                level(vec![fused(4, 6)]),
                level(vec![fused(6, 8)]),
                level(vec![solo(0, 2), solo(2, 4), solo(4, 6), solo(6, 8), solo(8, 9)]),
            ],
            fused: vec![FusedGroup {
                loops: vec![0, 1],
                scratch: Vec::new(),
            }],
        };
        assert_eq!(*fc.sched, expect);
    }

    /// A chain whose loops cannot legally interleave yields an empty
    /// fused plan — the dispatcher's signal to stay on the split path.
    #[test]
    fn unfusable_chain_yields_no_fused_pieces() {
        let f = fix();
        let layout = &f.layouts[0];
        let valid = vec![0u8; f.mesh.dom.n_dats()];
        let plan = ChainPlan::build(layout, &f.mesh.dom, &valid, &f.chain, false, 0);
        let (fc, _) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, LoweringKey::FusedDirect);
        assert_eq!(fc.fused_pieces, 0);
        assert!(fc.elided.is_empty());
        assert_eq!(fc.elided_bytes, 0);
    }
}
