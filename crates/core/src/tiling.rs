//! Shared-memory sparse tiling — the second level of communication
//! avoidance (§2.2 of the paper, after Luporini et al.).
//!
//! Within one memory space, a loop-chain can be executed *tile by tile*:
//! pick a seed partition of the first loop's iteration space into tiles
//! sized for cache, then derive, for every later loop, which tile each
//! of its iterations belongs to, such that executing tiles in increasing
//! id — running each tile's slice of `L_0`, then of `L_1`, … — never
//! reads a value a later tile still has to produce. The derivation is
//! the classic *tile growth*:
//!
//! * each loop stamps every data element its iterations *modify* with
//!   the iteration's tile id, and every element they *read* with a
//!   separate read stamp (max across iterations in both cases);
//! * an `L_{j}` iteration is assigned the max **write stamp** over every
//!   element it touches (read-after-write: by the time its tile runs,
//!   every earlier-tile contribution — including all INC partial sums,
//!   which commute — has landed) joined with the max **read stamp** over
//!   every element it modifies (write-after-read: it must not overwrite
//!   or increment a value an earlier loop's later-tile iteration still
//!   has to read; same-tile is fine because loops run in program order
//!   within a tile).
//!
//! Stamps are kept per (set, element) — coarser than per (dat, element),
//! hence slightly conservative (two independent dats on one set share a
//! stamp), which only ever grows tiles, never breaks them.
//!
//! The payoff is cache locality: a tile's working set (its slice of
//! every dat it touches) stays resident across all `n` loops of the
//! chain instead of being streamed `n` times. The
//! `ablation_tiling` benchmark measures exactly this on the MG-CFD
//! synthetic chain.

use crate::conflict::{chain_accesses, conflict_levels, for_each_touch, ConflictAccess};
use crate::domain::Domain;
use crate::loops::LoopSig;
use crate::schedule::{bind_chain, run_schedule, Chunk, Piece, Schedule};
use crate::ChainSpec;

/// A sparse-tiling schedule for one chain over one memory space,
/// annotated with inter-tile conflict levels — the rule of
/// [`crate::conflict`] with tiles, in ascending id, as its units under
/// the chain-wide selector: same-level tiles touch disjoint modified
/// elements, so they may execute concurrently, and conflicting tiles sit
/// on strictly ascending levels in tile-id order, so level-order
/// execution is bitwise identical to the ascending-tile sequential walk.
#[derive(Debug, Clone)]
pub struct TilePlan {
    /// Number of tiles.
    pub n_tiles: usize,
    /// `iters[loop][tile]` — iteration ids, in ascending order.
    pub iters: Vec<Vec<Vec<u32>>>,
    /// Conflict level of every tile (0-based).
    pub levels: Vec<u32>,
}

impl TilePlan {
    /// Total iterations scheduled for `loop_idx` (must equal the set
    /// size — every iteration lands in exactly one tile).
    pub fn loop_total(&self, loop_idx: usize) -> usize {
        self.iters[loop_idx].iter().map(Vec::len).sum()
    }

    /// Tile `t` as an executable chunk — its slice of every loop in
    /// program order, empty slices skipped — and, with the tiles taken in
    /// ascending id, a unit of the conflict levelizer.
    pub fn unit(&self, t: usize) -> Chunk {
        let slice = |(j, per_loop): (usize, &Vec<Vec<u32>>)| {
            (!per_loop[t].is_empty()).then(|| Piece::List {
                loop_idx: j as u32,
                iters: per_loop[t].clone(),
            })
        };
        Chunk::new(self.iters.iter().enumerate().filter_map(slice).collect())
    }
}

/// Seed the first loop's iterations into `n_tiles` spatially contiguous
/// blocks, numbered red-black: even-positioned blocks take tile ids
/// `0..⌈T/2⌉`, odd-positioned blocks take the rest. The default seeding
/// (grid generators emit spatially coherent numbering; pair with a
/// coordinate sort or partitioner assignment for scattered meshes).
///
/// The interleaved numbering matters for the conflict levelization in
/// [`TilePlan::levels`]: spatially adjacent blocks — which always
/// conflict through their shared boundary — land in different id
/// phases, so the order-preserving levelizer packs roughly half the
/// tiles per level instead of degenerating into one ladder level per
/// tile. Conflicting pairs still execute in ascending tile id in both
/// the sequential and the leveled executor, so the bitwise contract is
/// unaffected by the renumbering.
pub fn seed_blocks(n_iterations: usize, n_tiles: usize) -> Vec<u32> {
    assert!(n_tiles >= 1);
    let chunk = n_iterations.div_ceil(n_tiles).max(1);
    (0..n_iterations)
        .map(|e| red_black_id(e / chunk, n_tiles))
        .collect()
}

/// Red-black tile id for spatial block `b` out of `n_tiles`: even
/// blocks occupy ids `0..⌈T/2⌉`, odd blocks the rest.
#[inline]
fn red_black_id(b: usize, n_tiles: usize) -> u32 {
    let evens = n_tiles.div_ceil(2);
    let id = if b.is_multiple_of(2) {
        b / 2
    } else {
        evens + b / 2
    };
    id as u32
}

/// Seed the first loop's iterations into `n_tiles` tiles by a
/// *representative data-side target*: `targets[e]` (e.g. the first node
/// of edge `e`, out of `n_targets` nodes) picks the spatial block, and
/// blocks are numbered red-black as in [`seed_blocks`]. Use this when
/// the iteration set's own numbering is not spatially coherent (e.g.
/// grid generators that group edges by direction) but the target set's
/// is — the resulting tiles follow the target set's geometry, so far
/// fewer tile pairs conflict and the levelizer exposes real
/// parallelism. Targets of `u32::MAX` (beyond the built halo) fall back
/// to an iteration-index block.
pub fn seed_from_targets(targets: &[u32], n_targets: usize, n_tiles: usize) -> Vec<u32> {
    assert!(n_tiles >= 1);
    let chunk = n_targets.div_ceil(n_tiles).max(1);
    let iter_chunk = targets.len().div_ceil(n_tiles).max(1);
    targets
        .iter()
        .enumerate()
        .map(|(e, &t)| {
            let b = if t == u32::MAX {
                e / iter_chunk
            } else {
                (t as usize / chunk).min(n_tiles - 1)
            };
            red_black_id(b, n_tiles)
        })
        .collect()
}

/// Build the tile-growth schedule over a whole domain. `seed[e]`
/// assigns every iteration of the chain's *first* loop to a tile.
pub fn build_tile_plan(dom: &Domain, sigs: &[LoopSig], seed: &[u32]) -> TilePlan {
    let set_sizes = dom.set_sizes();
    let ranges: Vec<usize> = sigs.iter().map(|s| dom.set(s.set).size).collect();
    build_tile_plan_raw(&set_sizes, dom.maps(), sigs, &ranges, seed)
}

/// The tile-growth schedule over *raw* local structures: per-set element
/// counts, (possibly localized) maps in domain order, and per-loop
/// iteration ranges `[0, ranges[j])`. This is the form the distributed
/// executor uses to tile each rank's owned-plus-halo region; map entries
/// equal to `u32::MAX` (beyond the built halo depth) are ignored — they
/// are never dereferenced by iterations inside the given ranges.
pub fn build_tile_plan_raw(
    set_sizes: &[usize],
    maps: &[crate::MapData],
    sigs: &[LoopSig],
    ranges: &[usize],
    seed: &[u32],
) -> TilePlan {
    assert!(!sigs.is_empty());
    assert_eq!(ranges.len(), sigs.len());
    assert_eq!(seed.len(), ranges[0]);
    let n_tiles = seed.iter().copied().max().map_or(1, |m| m as usize + 1);

    // Per-set element stamps: the max tile that last modified / read
    // data living on the element. u32::MAX = untouched (imposes no
    // ordering).
    const CLEAN: u32 = u32::MAX;
    let mut wstamp: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![CLEAN; s]).collect();
    let mut rstamp: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![CLEAN; s]).collect();

    let mut iters: Vec<Vec<Vec<u32>>> = Vec::with_capacity(sigs.len());
    for (j, sig) in sigs.iter().enumerate() {
        let n_iter = ranges[j];
        let mut assignment = vec![0u32; n_iter];
        for e in 0..n_iter {
            let mut tile = if j == 0 { seed[e] } else { 0 };
            for arg in &sig.args {
                if let crate::access::Arg::Dat { map, mode, .. } = arg {
                    let (set_idx, elem) = match map {
                        None => (sig.set.idx(), e),
                        Some((m, idx)) => {
                            let md = &maps[m.idx()];
                            let v = md.values[e * md.arity + *idx as usize];
                            if v == u32::MAX {
                                continue; // beyond the built halo depth
                            }
                            (md.to.idx(), v as usize)
                        }
                    };
                    // Read-after-write (and WAW): follow write stamps.
                    let w = wstamp[set_idx][elem];
                    if w != CLEAN {
                        tile = tile.max(w);
                    }
                    // Write-after-read: a modifier must not run before a
                    // tile that still reads the old value.
                    if mode.modifies() {
                        let r = rstamp[set_idx][elem];
                        if r != CLEAN {
                            tile = tile.max(r);
                        }
                    }
                }
            }
            assignment[e] = tile;
        }
        // Re-stamp touched elements with the assigned tiles.
        for e in 0..n_iter {
            let tile = assignment[e];
            for arg in &sig.args {
                if let crate::access::Arg::Dat { map, mode, .. } = arg {
                    let (set_idx, elem) = match map {
                        None => (sig.set.idx(), e),
                        Some((m, idx)) => {
                            let md = &maps[m.idx()];
                            let v = md.values[e * md.arity + *idx as usize];
                            if v == u32::MAX {
                                continue;
                            }
                            (md.to.idx(), v as usize)
                        }
                    };
                    if mode.modifies() {
                        let s = &mut wstamp[set_idx][elem];
                        *s = if *s == CLEAN { tile } else { (*s).max(tile) };
                    }
                    if mode.reads() {
                        let s = &mut rstamp[set_idx][elem];
                        *s = if *s == CLEAN { tile } else { (*s).max(tile) };
                    }
                }
            }
        }
        // Bucket iterations by tile.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_tiles];
        for (e, &t) in assignment.iter().enumerate() {
            buckets[t as usize].push(e as u32);
        }
        iters.push(buckets);
    }
    let mut plan = TilePlan {
        n_tiles,
        iters,
        levels: Vec::new(),
    };
    // Ascending tile id is the sequential order of the tiled walk.
    let units: Vec<Chunk> = (0..n_tiles).map(|t| plan.unit(t)).collect();
    plan.levels = conflict_levels(&units, &chain_accesses(maps, sigs), set_sizes);
    plan
}

/// Which tiles may execute **while a halo exchange is in flight**
/// (before the wait), given per-loop core ends: the latency-hiding
/// analogue of Alg 2's prewait core, lifted to whole tiles.
///
/// A tile is *eligible* when every iteration of every loop it holds
/// lies inside that loop's core region (`< core_end[j]`) — such
/// iterations read nothing the exchange delivers, by the core-depth
/// construction. Eligibility alone is not enough, though: the split
/// runs eligible tiles *before* the remaining ("post") tiles, which
/// inverts the ascending-tile-id order for any (post `b` < core `t`)
/// pair. The function therefore closes the split under **demotion**: a
/// tile that conflicts (shared element of a chain-modified dat, at
/// least one side modifying) with any lower-id post tile is demoted to
/// post, in one ascending pass — by the time tile `t` is decided, every
/// lower tile's fate is final. For every conflicting pair `a < b` the
/// split then preserves order: both-core and both-post keep their level
/// order; core `a` / post `b` runs `a` first; post `a` / core `b` is
/// exactly what demotion removed. Executing core tiles prewait and
/// post tiles after the wait is thus bitwise identical to the
/// sequential ascending-tile walk.
///
/// Returns one flag per tile; `true` = overlap-eligible (core). Fully
/// deterministic: a pure function of the plan and the core ends.
pub fn overlap_core_tiles(
    set_sizes: &[usize],
    accesses: &[Vec<ConflictAccess<'_>>],
    plan: &TilePlan,
    core_end: &[usize],
) -> Vec<bool> {
    assert_eq!(core_end.len(), plan.iters.len());
    // Elements touched by already-decided post tiles.
    let mut post_w: Vec<Vec<bool>> = set_sizes.iter().map(|&s| vec![false; s]).collect();
    let mut post_r: Vec<Vec<bool>> = set_sizes.iter().map(|&s| vec![false; s]).collect();
    let decide = |t: usize| {
        let mut core = (plan.iters.iter().zip(core_end))
            .all(|(per_loop, &ce)| per_loop[t].iter().all(|&e| (e as usize) < ce));
        let unit = plan.unit(t);
        if core {
            // A lower-id post tile wrote this element (any access of
            // ours must come after), or read it and we modify it (WAR).
            for_each_touch(accesses, &unit, &mut |a, elem| {
                core &= !(post_w[a.set][elem] || (a.writes && post_r[a.set][elem]));
            });
        }
        if !core {
            for_each_touch(accesses, &unit, &mut |a, elem| {
                let post = if a.writes { &mut post_w } else { &mut post_r };
                post[a.set][elem] = true;
            });
        }
        core
    };
    (0..plan.n_tiles).map(decide).collect()
}

/// A plan's full leveled schedule over the global domain `dom`.
fn global_schedule(dom: &Domain, chain: &ChainSpec, plan: &TilePlan) -> Schedule {
    assert_eq!(plan.iters.len(), chain.len());
    let accesses = chain_accesses(dom.maps(), &chain.sigs());
    Schedule::from_tile_plan(plan, &accesses, &dom.set_sizes())
}

/// Execute a chain tile by tile on the global domain (the shared-memory
/// execution of §2.2: all iterations of tile `T_i` across every loop,
/// then tile `T_{i+1}`, …) — lowered through [`Schedule::from_tile_plan`]
/// and walked sequentially. Level order equals ascending-tile order on
/// every conflicting pair, so this is bitwise identical to the classic
/// tile-id walk.
pub fn run_chain_tiled(dom: &mut Domain, chain: &ChainSpec, plan: &TilePlan) {
    for spec in &chain.loops {
        debug_assert!(!spec.has_reduction());
    }
    let sched = global_schedule(dom, chain, plan);
    let (bound, _gbls) = bind_chain(dom, chain);
    run_schedule(&bound, &sched);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMode, Arg};
    use crate::conflict::levels_valid;
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use crate::seq;

    fn produce_kernel(args: &Args<'_>) {
        args.inc(0, 0, args.get(2, 0) + 1.0);
        args.inc(1, 0, args.get(3, 0) + 2.0);
    }
    fn consume_kernel(args: &Args<'_>) {
        args.inc(2, 0, args.get(0, 0) + args.get(1, 0));
        args.inc(3, 0, args.get(0, 0) - args.get(1, 0));
    }

    /// The plan's lowered schedule, after the checker has passed the
    /// plan's levels over its tiles in ascending id.
    fn checked_schedule(dom: &Domain, sigs: &[LoopSig], plan: &TilePlan) -> Schedule {
        let units: Vec<Chunk> = (0..plan.n_tiles).map(|t| plan.unit(t)).collect();
        let (accesses, set_sizes) = (chain_accesses(dom.maps(), sigs), dom.set_sizes());
        assert!(levels_valid(&units, &plan.levels, &accesses, &set_sizes));
        Schedule::from_tile_plan(plan, &accesses, &set_sizes)
    }

    /// A 1D path mesh: easy to reason about tile growth by hand.
    fn path_domain(n_nodes: usize) -> (Domain, LoopSpec, LoopSpec, [crate::DatId; 3]) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n_nodes);
        let edges = dom.decl_set("edges", n_nodes - 1);
        let vals: Vec<u32> = (0..n_nodes as u32 - 1).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let seedv: Vec<f64> = (0..n_nodes).map(|i| ((i * 3 + 1) % 7) as f64).collect();
        let s = dom.decl_dat("s", nodes, 1, seedv);
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let b = dom.decl_dat_zeros("b", nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            edges,
            vec![
                Arg::dat_indirect(a, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(s, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(s, e2n, 1, AccessMode::Read),
            ],
            produce_kernel,
        );
        let consume = LoopSpec::new(
            "consume",
            edges,
            vec![
                Arg::dat_indirect(a, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(a, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(b, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(b, e2n, 1, AccessMode::Inc),
            ],
            consume_kernel,
        );
        (dom, produce, consume, [s, a, b])
    }

    #[test]
    fn seed_blocks_cover_evenly() {
        let seed = seed_blocks(10, 3);
        assert_eq!(seed.len(), 10);
        assert_eq!(seed.iter().filter(|&&t| t == 0).count(), 4);
        assert_eq!(*seed.iter().max().unwrap(), 2);
        // Red-black numbering: spatial blocks 0..3 map to ids 0,4,1,5
        // (evens first), so 4 iterations over 8 tiles peak at id 5.
        assert_eq!(seed_blocks(4, 8).iter().max().copied(), Some(5));
        // Spatially adjacent blocks always land in different phases.
        let seed = seed_blocks(40, 8);
        for w in seed.windows(2) {
            if w[0] != w[1] {
                assert!((w[0] < 4) != (w[1] < 4), "adjacent blocks {w:?} share a phase");
            }
        }
    }

    /// Every iteration of every loop lands in exactly one tile, and the
    /// second loop's tiles only ever *shrink toward later ids* relative
    /// to the seed (growth pushes iterations to higher tiles).
    #[test]
    fn plan_partitions_iterations() {
        let (dom, produce, consume, _) = path_domain(30);
        let sigs = vec![produce.sig(), consume.sig()];
        let seed = seed_blocks(29, 4);
        let plan = build_tile_plan(&dom, &sigs, &seed);
        assert_eq!(plan.n_tiles, 4);
        for j in 0..2 {
            assert_eq!(plan.loop_total(j), 29, "loop {j}");
            let mut all: Vec<u32> = plan.iters[j].iter().flatten().copied().collect();
            all.sort_unstable();
            let expect: Vec<u32> = (0..29).collect();
            assert_eq!(all, expect);
        }
        // Tile growth on the path: the consumer edge at a tile boundary
        // must move to the later-id tile (it reads a node the later
        // tile's producer increments). Red-black seed: edges 0..8 are
        // tile 0, edges 8..16 are tile 2 (odd spatial block, second
        // phase).
        let boundary_edge = 7u32;
        let in_tile0 = plan.iters[1][0].contains(&boundary_edge);
        let in_tile2 = plan.iters[1][2].contains(&boundary_edge);
        assert!(in_tile2 && !in_tile0, "boundary edge must grow forward");
    }

    /// Tiled execution equals plain sequential execution exactly on
    /// integer data, across tile counts.
    #[test]
    fn tiled_matches_sequential() {
        for n_tiles in [1, 2, 3, 7] {
            let (dom, produce, consume, dats) = path_domain(40);
            let chain =
                ChainSpec::new("pc", vec![produce.clone(), consume.clone()], None, &[]).unwrap();

            let mut plain = dom.clone();
            seq::run_loop(&mut plain, &produce);
            seq::run_loop(&mut plain, &consume);

            let mut tiled = dom.clone();
            let seed = seed_blocks(39, n_tiles);
            let plan = build_tile_plan(&tiled, &chain.sigs(), &seed);
            run_chain_tiled(&mut tiled, &chain, &plan);

            for d in dats {
                assert_eq!(
                    plain.dat(d).data,
                    tiled.dat(d).data,
                    "n_tiles = {n_tiles}, dat {}",
                    plain.dat(d).name
                );
            }
        }
    }

    /// Write-after-read: a later loop *writing* what an earlier loop
    /// reads must not run ahead of the reader's tile. Without read
    /// stamps, the writer's iterations would all land in tile 0 and
    /// clobber values tiles 1.. still have to read.
    #[test]
    fn war_hazard_orders_writer_after_readers() {
        let (dom, _produce, _consume, dats) = path_domain(24);
        let [s, a, _b] = dats;
        let e2n = dom.map_by_name("e2n").unwrap();
        let edges = dom.set_by_name("edges").unwrap();
        let nodes = dom.set_by_name("nodes").unwrap();
        // reader: edges, READ s at both ends, INC a at both ends.
        fn reader(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0));
            args.inc(3, 0, args.get(1, 0));
        }
        // clobber: nodes, direct WRITE s — the WAR partner.
        fn clobber(args: &Args<'_>) {
            args.set(0, 0, -1.0);
        }
        let read_loop = LoopSpec::new(
            "reader",
            edges,
            vec![
                Arg::dat_indirect(s, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(s, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(a, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, e2n, 1, AccessMode::Inc),
            ],
            reader,
        );
        let write_loop = LoopSpec::new(
            "clobber",
            nodes,
            vec![Arg::dat_direct(s, AccessMode::Write)],
            clobber,
        );
        let chain =
            ChainSpec::new("war", vec![read_loop.clone(), write_loop.clone()], None, &[])
                .unwrap();

        let mut plain = dom.clone();
        seq::run_loop(&mut plain, &read_loop);
        seq::run_loop(&mut plain, &write_loop);

        for n_tiles in [2, 4] {
            let mut tiled = dom.clone();
            let seed = seed_blocks(23, n_tiles);
            let plan = build_tile_plan(&tiled, &chain.sigs(), &seed);
            run_chain_tiled(&mut tiled, &chain, &plan);
            assert_eq!(
                plain.dat(a).data,
                tiled.dat(a).data,
                "WAR violated at {n_tiles} tiles"
            );
            assert_eq!(plain.dat(s).data, tiled.dat(s).data);
        }
    }

    /// On a path chain, spatially adjacent tiles share boundary nodes
    /// and always conflict — but the red-black seed numbering puts
    /// neighbours in different id phases, so the levelizer packs the
    /// even-phase tiles into level 0 and the odd-phase tiles into level
    /// 1 instead of degenerating into a 4-rung ladder. The plan must
    /// also pass the validity checker.
    #[test]
    fn path_tiles_level_red_black() {
        let (dom, produce, consume, _) = path_domain(40);
        let sigs = vec![produce.sig(), consume.sig()];
        let seed = seed_blocks(39, 4);
        let plan = build_tile_plan(&dom, &sigs, &seed);
        let sched = checked_schedule(&dom, &sigs, &plan);
        assert_eq!(plan.levels, vec![0, 0, 1, 1]);
        assert_eq!(sched.n_levels(), 2);
        assert!(sched.has_parallelism());
    }

    /// Tiles over disconnected mesh components share one level (full
    /// parallelism), and the schedule lowering reflects it.
    #[test]
    fn disjoint_tiles_share_a_level() {
        // 4 disconnected 2-node components, one edge each.
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 8);
        let edges = dom.decl_set("edges", 4);
        let vals: Vec<u32> = (0..4u32).flat_map(|i| [2 * i, 2 * i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let s = dom.decl_dat_zeros("s", nodes, 1);
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            edges,
            vec![
                Arg::dat_indirect(a, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(s, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(s, e2n, 1, AccessMode::Read),
            ],
            produce_kernel,
        );
        let sigs = vec![produce.sig()];
        let seed: Vec<u32> = (0..4).collect(); // one edge per tile
        let plan = build_tile_plan(&dom, &sigs, &seed);
        let sched = checked_schedule(&dom, &sigs, &plan);
        assert_eq!(sched.n_levels(), 1);
        assert_eq!(sched.max_level_chunks(), 4);
        assert!(sched.has_parallelism());
    }

    /// The leveled tile schedule, walked in order and with each level's
    /// tiles reversed, is bitwise identical to plain sequential execution
    /// — the core-level statement of the extended determinism contract:
    /// same-level tiles may run on threads in any order.
    #[test]
    fn threaded_tiles_bitwise_equal_sequential() {
        for n_tiles in [1, 3, 7] {
            let (dom, produce, consume, dats) = path_domain(60);
            let chain =
                ChainSpec::new("pc", vec![produce.clone(), consume.clone()], None, &[]).unwrap();
            let seed = seed_blocks(59, n_tiles);
            let plan = build_tile_plan(&dom, &chain.sigs(), &seed);
            let sched = checked_schedule(&dom, &chain.sigs(), &plan);

            let mut plain = dom.clone();
            seq::run_loop(&mut plain, &produce);
            seq::run_loop(&mut plain, &consume);

            for (walk, sched) in sched.walk_orders() {
                let mut tiled = dom.clone();
                let (bound, _gbls) = bind_chain(&mut tiled, &chain);
                run_schedule(&bound, &sched);
                for d in dats {
                    let a: Vec<u64> = plain.dat(d).data.iter().map(|v| v.to_bits()).collect();
                    let b: Vec<u64> = tiled.dat(d).data.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(a, b, "n_tiles={n_tiles}, {walk}");
                }
            }
        }
    }

    /// Direct accesses participate in stamping: a direct-write loop
    /// followed by an indirect reader keeps the reader behind the
    /// writer's tile.
    #[test]
    fn direct_access_orders_tiles() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 12);
        let edges = dom.decl_set("edges", 11);
        let vals: Vec<u32> = (0..11u32).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let b = dom.decl_dat_zeros("b", nodes, 1);
        fn writer(args: &Args<'_>) {
            args.set(0, 0, 5.0);
        }
        fn reader(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0));
            args.inc(3, 0, args.get(1, 0));
        }
        let w = LoopSpec::new("w", nodes, vec![Arg::dat_direct(a, AccessMode::Write)], writer);
        let r = LoopSpec::new(
            "r",
            edges,
            vec![
                Arg::dat_indirect(a, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(a, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(b, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(b, e2n, 1, AccessMode::Inc),
            ],
            reader,
        );
        let chain = ChainSpec::new("wr", vec![w.clone(), r.clone()], None, &[]).unwrap();
        let mut plain = dom.clone();
        seq::run_loop(&mut plain, &w);
        seq::run_loop(&mut plain, &r);
        let seed = seed_blocks(12, 3);
        let plan = build_tile_plan(&dom, &chain.sigs(), &seed);
        let mut tiled = dom;
        run_chain_tiled(&mut tiled, &chain, &plan);
        assert_eq!(plain.dat(b).data, tiled.dat(b).data);
    }
}
