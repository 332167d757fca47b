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
//! * the import list (per-dat depths, strict or relaxed) and chain depth
//!   `r`;
//! * per-loop latency-hiding core ends, execute-region ends, read
//!   requirements and produced-validity transitions;
//! * per-neighbour **pack index lists** (flattened sender-local element
//!   indices) and receive copy ranges — the wire layout of Figure 8,
//!   ready for `memcpy`-style pack/unpack with no per-call segment
//!   filtering (the GPU executor stages exactly these lists);
//! * lazily, one [`TilePlan`] per requested tile count.
//!
//! Plans live in a per-rank [`PlanCache`] keyed by a stable FNV-1a hash
//! of [`ChainSpec::sigs`]-equivalent structure plus the entry-validity
//! class of the touched dats. The cache carries an explicit **layout
//! epoch**: [`PlanCache::bump_epoch`] invalidates everything when
//! ownership changes (repartitioning); a change in any touched dat's
//! validity depth selects a different dirty class and therefore a
//! different (or freshly built) plan. Hit/miss/invalidation counters
//! land in the rank trace so tests can assert that repeat invocations
//! do **zero** re-analysis.

use op2_core::chain::{produced_validity, read_requirement};
use op2_core::par::{color_blocks_raw, conflict_accesses, BlockColoring};
use op2_core::schedule::{
    elision_valid, Chunk, FusedGroup, Level, Piece, ScheduleKind, ScratchBind,
};
use op2_core::tiling::{
    build_tile_plan_raw, overlap_core_tiles, seed_blocks, seed_from_targets, TilePlan,
};
use op2_core::{AccessMode, Arg, ChainSpec, ChunkDag, DatId, Domain, LoopSpec, Schedule};
use op2_partition::layout::RankLayout;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
        fnv_bytes(&mut h, spec.name.as_bytes());
        fnv_usize(&mut h, spec.set.idx());
        fnv_usize(&mut h, ext);
        for arg in &spec.args {
            match arg {
                Arg::Dat { dat, map, mode } => {
                    fnv_bytes(&mut h, &[1u8, mode_code(*mode)]);
                    fnv_usize(&mut h, dat.idx());
                    match map {
                        Some((m, i)) => {
                            fnv_usize(&mut h, m.idx() + 1);
                            fnv_usize(&mut h, *i as usize);
                        }
                        None => fnv_usize(&mut h, 0),
                    }
                }
                Arg::Gbl { idx, mode } => {
                    fnv_bytes(&mut h, &[2u8, mode_code(*mode)]);
                    fnv_usize(&mut h, *idx as usize);
                }
            }
        }
    }
    fnv_bytes(&mut h, &[u8::from(relaxed)]);
    h
}

/// Stable hash of one loop's structure (name, iteration set, argument
/// access descriptors) — the standalone-loop analogue of
/// [`chain_signature`], keying the per-rank block-coloring cache for the
/// Alg 1 threaded path.
pub fn loop_signature(spec: &LoopSpec) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_bytes(&mut h, spec.name.as_bytes());
    fnv_usize(&mut h, spec.set.idx());
    for arg in &spec.args {
        match arg {
            Arg::Dat { dat, map, mode } => {
                fnv_bytes(&mut h, &[1u8, mode_code(*mode)]);
                fnv_usize(&mut h, dat.idx());
                match map {
                    Some((m, i)) => {
                        fnv_usize(&mut h, m.idx() + 1);
                        fnv_usize(&mut h, *i as usize);
                    }
                    None => fnv_usize(&mut h, 0),
                }
            }
            Arg::Gbl { idx, mode } => {
                fnv_bytes(&mut h, &[2u8, mode_code(*mode)]);
                fnv_usize(&mut h, *idx as usize);
            }
        }
    }
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

/// Dirty-state class of a chain at entry: a hash of the entry validity
/// depths of every dat the chain touches (first-appearance order).
/// Import depths and therefore the whole exchange layout are a function
/// of these depths, so two invocations in the same class can share one
/// plan verbatim.
pub fn dirty_class(chain: &ChainSpec, valid: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut seen: Vec<DatId> = Vec::new();
    for spec in &chain.loops {
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

/// Precomputed exchange layout with one neighbour: the pack index lists
/// (sender side) and contiguous copy ranges (receiver side) of the
/// grouped message, per import dat.
#[derive(Debug, Clone)]
pub struct NeighborPack {
    /// The neighbour's rank.
    pub rank: u32,
    /// Per import dat (plan order): sender-local owned element indices,
    /// flattened across all send segments within the import depth.
    pub send: Vec<Vec<u32>>,
    /// Per import dat: receiver-side `(elem_start, elem_len)` copy
    /// ranges in local element units.
    pub recv: Vec<Vec<(u32, u32)>>,
    /// Outgoing grouped payload length in f64s.
    pub send_f64s: usize,
    /// Incoming grouped payload length in f64s.
    pub recv_f64s: usize,
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
    /// Grouped-import plan: per dat, the depth to deliver at entry.
    pub import: Vec<(DatId, u8)>,
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
    /// Per-neighbour pack layout, index-aligned with
    /// `layout.neighbors`.
    pub packs: Vec<NeighborPack>,
    /// Grouped messages this rank will send (non-empty payloads).
    pub n_msgs: usize,
    /// Total outgoing payload bytes.
    pub send_bytes: usize,
    /// Largest single outgoing message in bytes.
    pub max_msg_bytes: usize,
    /// Total incoming payload bytes (the staged-in volume).
    pub recv_bytes: usize,
    /// Bitmask of neighbour ranks receiving a message (`min(rank,127)`).
    pub nbr_bits: u128,
    /// Tile plans and their lowered schedules by tile count, built
    /// lazily on first use.
    tiles: Mutex<HashMap<usize, Arc<TiledChain>>>,
    /// Fused whole-chain schedules by lowering (see [`FusedKey`]), built
    /// lazily on first fused execution — the fusion legality analysis
    /// and the lowering are inspector work, paid once per (chain
    /// signature, dirty class, lowering).
    fused: Mutex<HashMap<FusedKey, Arc<FusedChain>>>,
    /// Lowered colored schedules for the threaded executor, keyed by
    /// `(loop position, start, end, block size)` and built lazily on
    /// first threaded execution of that range — the coloring is
    /// inspector work, paid once per plan like the tile schedules.
    colorings: Mutex<HashMap<ColoringKey, Arc<Schedule>>>,
    /// Chunk dependency DAGs for the dataflow executor, one per lowered
    /// schedule this plan owns (colored, tiled core/post, fused), built
    /// lazily on first dataflow drain. Keyed by the schedule's identity
    /// — schedules are themselves cached one-per-lowering-key, so this
    /// is one DAG per lowering. Each entry pins its schedule `Arc`, so
    /// a key can never be reused by a reallocation while it is live,
    /// and the DAGs drop with the plan on epoch invalidation.
    dags: Mutex<DagCache>,
}

/// Schedule-identity-keyed DAG cache: each entry pins the schedule
/// `Arc` whose address keys it.
pub type DagCache = HashMap<usize, (Arc<Schedule>, Arc<ChunkDag>)>;

/// Key of a cached colored schedule: `(loop position, start, end, block
/// size)`.
pub type ColoringKey = (usize, usize, usize, usize);

/// Lowering key of a cached fused schedule: `(0, 0)` = direct (one
/// sequential chunk), `(1, block_size)` = colored, `(2, n_tiles)` =
/// tiled.
pub type FusedKey = (u8, usize);

/// A whole-chain fused schedule for one lowering, plus the facts the
/// fused executor and the profit arm need: which intermediates were
/// actually elided (scratch-resident, never written to memory) and how
/// much memory traffic that removes per invocation. Built once per
/// ([`ChainPlan`], lowering) and cached — see [`ChainPlan::fused_chain`].
#[derive(Debug)]
pub struct FusedChain {
    /// The fused leveled schedule over the whole chain.
    pub sched: Arc<Schedule>,
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
    /// Full schedule over every tile (the non-overlapping executor).
    pub sched: Arc<Schedule>,
    /// Overlap-eligible tiles only — footprint inside every loop's core
    /// region and demotion-closed against earlier post tiles, so they
    /// may run while the grouped exchange is in flight.
    pub core: Arc<Schedule>,
    /// The remaining tiles, run after the wait. Core then post replays
    /// the full plan's conflict order exactly.
    pub post: Arc<Schedule>,
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
        let dirty = dirty_class(chain, valid);
        let depth = chain.max_halo_layers();
        let sigs = chain.sigs();
        let entry = |d: DatId| valid[d.idx()] as usize;
        let import: Vec<(DatId, u8)> = if relaxed {
            op2_core::chain::import_depths_relaxed(&sigs, &chain.halo_ext, &entry)
        } else {
            op2_core::chain::import_depths(&sigs, &chain.halo_ext, &entry)
        }
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

        let mut packs = Vec::with_capacity(layout.neighbors.len());
        let mut n_msgs = 0usize;
        let mut send_bytes = 0usize;
        let mut max_msg_bytes = 0usize;
        let mut recv_bytes = 0usize;
        let mut nbr_bits = 0u128;
        for nbr in &layout.neighbors {
            let mut send = Vec::with_capacity(import.len());
            let mut recv = Vec::with_capacity(import.len());
            let mut s64 = 0usize;
            let mut r64 = 0usize;
            for &(dat, dep) in &import {
                let dd = dom.dat(dat);
                let mut elems: Vec<u32> = Vec::new();
                for seg in &nbr.send {
                    if seg.set == dd.set && seg.level <= dep {
                        elems.extend_from_slice(&seg.elems);
                    }
                }
                s64 += elems.len() * dd.dim;
                send.push(elems);
                let mut ranges: Vec<(u32, u32)> = Vec::new();
                for seg in &nbr.recv {
                    if seg.set == dd.set && seg.level <= dep {
                        ranges.push((seg.start, seg.len));
                        r64 += seg.len as usize * dd.dim;
                    }
                }
                recv.push(ranges);
            }
            if s64 > 0 {
                n_msgs += 1;
                send_bytes += s64 * 8;
                max_msg_bytes = max_msg_bytes.max(s64 * 8);
                nbr_bits |= 1u128 << nbr.rank.min(127);
            }
            recv_bytes += r64 * 8;
            packs.push(NeighborPack {
                rank: nbr.rank,
                send,
                recv,
                send_f64s: s64,
                recv_f64s: r64,
            });
        }

        ChainPlan {
            sig,
            epoch,
            dirty,
            relaxed,
            depth,
            import,
            core_depths,
            core_end,
            exec_end,
            reqs,
            produces,
            packs,
            n_msgs,
            send_bytes,
            max_msg_bytes,
            recv_bytes,
            nbr_bits,
            tiles: Mutex::new(HashMap::new()),
            colorings: Mutex::new(HashMap::new()),
            fused: Mutex::new(HashMap::new()),
            dags: Mutex::new(HashMap::new()),
        }
    }

    /// Cached chunk dependency DAG for one of this plan's lowered
    /// schedules, if a dataflow drain already built it.
    pub fn cached_dag(&self, sched: &Arc<Schedule>) -> Option<Arc<ChunkDag>> {
        self.dags
            .lock()
            .expect("dag cache poisoned")
            .get(&(Arc::as_ptr(sched) as usize))
            .map(|(_, d)| Arc::clone(d))
    }

    /// Store a freshly built chunk dependency DAG for `sched` (pinning
    /// the schedule so the identity key stays unique).
    pub fn store_dag(&self, sched: &Arc<Schedule>, dag: Arc<ChunkDag>) {
        self.dags.lock().expect("dag cache poisoned").insert(
            Arc::as_ptr(sched) as usize,
            (Arc::clone(sched), dag),
        );
    }

    /// Cached colored schedule for `(loop position, start, end, block
    /// size)`, if a threaded execution of that range already lowered
    /// one.
    pub fn cached_schedule(&self, key: ColoringKey) -> Option<Arc<Schedule>> {
        self.colorings
            .lock()
            .expect("schedule cache poisoned")
            .get(&key)
            .cloned()
    }

    /// Store a freshly lowered colored schedule under `key`.
    pub fn store_schedule(&self, key: ColoringKey, sched: Arc<Schedule>) {
        self.colorings
            .lock()
            .expect("schedule cache poisoned")
            .insert(key, sched);
    }

    /// Grouped message size `m^r` of Eq 4 on this rank: the largest
    /// incoming grouped payload over neighbours, in bytes.
    pub fn m_r_bytes(&self) -> usize {
        self.packs
            .iter()
            .map(|p| p.recv_f64s * 8)
            .max()
            .unwrap_or(0)
    }

    /// The tile schedule for `n_tiles` intra-rank tiles, built on first
    /// request and cached inside the plan. Returns `(plan, built)` —
    /// `built` is true when this call ran the tiling inspection (the
    /// caller records it as a tile-plan miss).
    pub fn tile_plan(
        &self,
        layout: &RankLayout,
        chain: &ChainSpec,
        n_tiles: usize,
    ) -> (Arc<TilePlan>, bool) {
        let (tc, built) = self.tile_schedule(layout, chain, n_tiles);
        (Arc::clone(&tc.tiles), built)
    }

    /// [`ChainPlan::tile_plan`] plus the plan's lowered schedules (full
    /// and core/post overlap split) — all cached together, so repeat
    /// tiled invocations neither re-inspect nor re-lower.
    pub fn tile_schedule(
        &self,
        layout: &RankLayout,
        chain: &ChainSpec,
        n_tiles: usize,
    ) -> (Arc<TiledChain>, bool) {
        let mut tiles = self.tiles.lock().expect("tile cache poisoned");
        if let Some(tc) = tiles.get(&n_tiles) {
            return (Arc::clone(tc), false);
        }
        let sigs = chain.sigs();
        let set_sizes: Vec<usize> = layout.sets.iter().map(|s| s.n_local()).collect();
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
        let sched = Arc::new(Schedule::from_tile_plan(&tp));
        // The overlap split: tiles whose footprint sits inside every
        // loop's core region run while the exchange is in flight.
        let keep = overlap_core_tiles(&set_sizes, &layout.maps, &sigs, &tp, &self.core_end);
        let n_core_tiles = keep.iter().filter(|&&k| k).count();
        let core = Arc::new(Schedule::from_tile_plan_subset(&tp, &keep));
        let not_keep: Vec<bool> = keep.iter().map(|&k| !k).collect();
        let post = Arc::new(Schedule::from_tile_plan_subset(&tp, &not_keep));
        let tc = Arc::new(TiledChain {
            tiles: tp,
            sched,
            core,
            post,
            n_core_tiles,
        });
        tiles.insert(n_tiles, Arc::clone(&tc));
        (tc, true)
    }

    /// The fused whole-chain schedule for one lowering, built on first
    /// request and cached inside the plan. Returns `(fused, built)` —
    /// `built` is true when this call ran the fusion analysis and
    /// lowering (a fused-schedule miss).
    ///
    /// The build runs [`ChainSpec::fusion`] (legality analysis), lowers
    /// per `key` — direct range interleaving, union-conflict block
    /// coloring, or the cached tile schedule put through
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
        key: FusedKey,
    ) -> (Arc<FusedChain>, bool) {
        let mut cache = self.fused.lock().expect("fused cache poisoned");
        if let Some(fc) = cache.get(&key) {
            return (Arc::clone(fc), false);
        }
        let fp = chain.fusion();
        let groups = fused_groups_for(chain, dom, &fp);
        let mut sched = match key {
            (1, block) => colored_fused(
                layout,
                chain,
                &self.exec_end,
                block.max(1),
                groups,
                &fp.group_of,
            ),
            (2, n_tiles) => {
                let (tc, _) = self.tile_schedule(layout, chain, n_tiles);
                tc.sched.as_ref().clone().fuse(groups, &fp.group_of)
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
        let fc = Arc::new(FusedChain {
            fused_pieces: sched.n_fused_pieces() as u64,
            group_of: fp.group_of,
            elided,
            elided_bytes,
            sched: Arc::new(sched),
        });
        cache.insert(key, Arc::clone(&fc));
        (fc, true)
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

/// The colored fused lowering: per fusion group, an order-preserving
/// block coloring of the members' common extent under the **union** of
/// every member's conflict accesses (a fused block runs all member
/// kernels, so same-level blocks must be disjoint under all of them
/// combined), lowered to [`Piece::Fused`] chunks; then per-member tail
/// colorings for extents beyond the common prefix, then solo loops —
/// all as sequential level runs in program order, which preserves the
/// per-location update order of the unfused colored walk.
fn colored_fused(
    layout: &RankLayout,
    chain: &ChainSpec,
    ends: &[usize],
    block: usize,
    groups: Vec<FusedGroup>,
    group_of: &[Option<usize>],
) -> Schedule {
    let sigs = chain.sigs();
    let set_sizes: Vec<usize> = layout.sets.iter().map(|s| s.n_local()).collect();
    let mut levels: Vec<Level> = Vec::new();
    fn push_colored(levels: &mut Vec<Level>, bc: &BlockColoring, piece: &dyn Fn(u32, u32) -> Piece) {
        for bucket in &bc.by_color {
            let chunks: Vec<Chunk> = bucket
                .iter()
                .map(|&b| {
                    let (s, e) = bc.block_range(b as usize);
                    Chunk::new(vec![piece(s as u32, e as u32)])
                })
                .collect();
            if !chunks.is_empty() {
                levels.push(Level { chunks });
            }
        }
    }
    let mut j = 0usize;
    while j < sigs.len() {
        match group_of[j] {
            Some(g) if groups[g].loops.first() == Some(&(j as u32)) => {
                let members = &groups[g].loops;
                let common = members.iter().map(|&m| ends[m as usize]).min().unwrap_or(0);
                let mut acc = Vec::new();
                for &m in members {
                    acc.extend(conflict_accesses(&layout.maps, &sigs[m as usize]));
                }
                let bc = color_blocks_raw(0, common, block, &set_sizes, &acc);
                let gu = g as u32;
                push_colored(&mut levels, &bc, &|s, e| Piece::Fused {
                    group: gu,
                    start: s,
                    end: e,
                });
                for &m in members {
                    let end_m = ends[m as usize];
                    if end_m > common {
                        let acc_m = conflict_accesses(&layout.maps, &sigs[m as usize]);
                        let bc = color_blocks_raw(common, end_m, block, &set_sizes, &acc_m);
                        push_colored(&mut levels, &bc, &|s, e| Piece::Range {
                            loop_idx: m,
                            start: s,
                            end: e,
                        });
                    }
                }
                j += members.len();
            }
            _ => {
                let acc = conflict_accesses(&layout.maps, &sigs[j]);
                let bc = color_blocks_raw(0, ends[j], block, &set_sizes, &acc);
                let ju = j as u32;
                push_colored(&mut levels, &bc, &|s, e| Piece::Range {
                    loop_idx: ju,
                    start: s,
                    end: e,
                });
                j += 1;
            }
        }
    }
    Schedule {
        n_loops: sigs.len(),
        kind: ScheduleKind::Colored { block_size: block },
        levels,
        fused: groups,
    }
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
/// [`PlanCache`] holds; a plan's interior tile/coloring caches are
/// mutex-guarded, so the lazily built tile schedules and lowered
/// colorings are shared (and warmed) across jobs too.
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
    let dirty = dirty_class(chain, &env.valid);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use crate::env::RankEnv;
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
        assert_eq!(plan.import, expect);
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
        let (t1, built1) = plan.tile_plan(layout, &f.chain, 4);
        assert!(built1);
        let (t2, built2) = plan.tile_plan(layout, &f.chain, 4);
        assert!(!built2);
        assert!(Arc::ptr_eq(&t1, &t2));
        let (_, built3) = plan.tile_plan(layout, &f.chain, 2);
        assert!(built3, "a different tile count is a fresh schedule");
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

        let (fc, built) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, (0, 0));
        assert!(built);
        assert!(fc.fused_pieces > 0, "direct lowering must fuse the pair");
        assert_eq!(fc.elided, vec![tmp]);
        // Write + one read of a dim-1 f64 intermediate per fused element.
        let common = plan.exec_end.iter().min().copied().unwrap() as u64;
        assert_eq!(fc.elided_bytes, common * 8 * 2);
        assert_eq!(fc.sched.scratch_pool_len(), 1);

        let (fc2, built2) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, (0, 0));
        assert!(!built2);
        assert!(Arc::ptr_eq(&fc, &fc2), "same key must share the schedule");

        // The colored lowering is a distinct cache entry but fuses and
        // elides identically (direct loops: one color, aligned blocks).
        let (fc3, built3) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, (1, 8));
        assert!(built3, "a different key is a fresh schedule");
        assert!(fc3.fused_pieces > 0);
        assert_eq!(fc3.elided, vec![tmp]);
    }

    /// A chain whose loops cannot legally interleave yields an empty
    /// fused plan — the dispatcher's signal to stay on the split path.
    #[test]
    fn unfusable_chain_yields_no_fused_pieces() {
        let f = fix();
        let layout = &f.layouts[0];
        let valid = vec![0u8; f.mesh.dom.n_dats()];
        let plan = ChainPlan::build(layout, &f.mesh.dom, &valid, &f.chain, false, 0);
        let (fc, _) = plan.fused_chain(layout, &f.mesh.dom, &f.chain, (0, 0));
        assert_eq!(fc.fused_pieces, 0);
        assert!(fc.elided.is_empty());
        assert_eq!(fc.elided_bytes, 0);
    }
}
