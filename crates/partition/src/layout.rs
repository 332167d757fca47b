//! Per-rank local layouts: the Figure 6(b) restructuring.
//!
//! Each rank's view of a set is one contiguous local index space:
//!
//! ```text
//! [ owned, deepest core first … boundary last | ring 1 | ring 2 | … ]
//! ```
//!
//! * **owned** elements are sorted by descending inner (core) depth, so
//!   the latency-hiding core of a loop at chain position `j` is always a
//!   *prefix* (`core_end(j)`), and the post-exchange remainder a suffix;
//! * **import rings** follow level by level; within a level, elements are
//!   sorted by owner rank, which makes every neighbour's contribution to
//!   every level a *contiguous range* — the receive side of the paper's
//!   grouped halo message (Figure 8) unpacks with plain `memcpy`s, and
//!   per-level execute ranges need no indirection lists;
//! * **inside each of those ranges** (a core-depth class, a ring level,
//!   one owner's run of a level) elements follow one global *locality
//!   order* per set (Cuthill–McKee for map targets, lowest target for
//!   the rest; see `order.rs`), so consecutive iterations gather and
//!   scatter nearby data whatever the input numbering. The ranges hold
//!   the same elements under any order; only their order within changes;
//! * **maps are localized**: every map row of a local element is
//!   rewritten to local indices (entries pointing beyond the built depth
//!   hold [`NONLOCAL`] and are never dereferenced by a correct executor).
//!
//! [`build_layouts`] is the inspection phase of Alg 2. OP2 performs it
//! cooperatively, one MPI rank per core; here it runs in one process on
//! every core, and the per-rank structures are identical in shape:
//!
//! 1. the locality order runs on a scoped thread beside the seed scan
//!    and every rank's ring BFS (the order needs only the mesh);
//! 2. each rank's ranges and import runs, then its localized maps and
//!    exchange plans, are built by `min(available_parallelism, nparts)`
//!    scoped workers over contiguous rank chunks, each with its own
//!    dense per-set scratch (core depths, global→local tables).
//!
//! A rank's output depends on its rank alone, so the layouts are
//! bitwise the same for any core count. Beyond the ring BFS and the sort
//! of each import level every stage is linear.

use crate::order::LocalityOrder;
use crate::ownership::Ownership;
use crate::rings::{compute_rings, find_seeds, MapAdj, RankRings};
use op2_core::{rows, Domain, MapData, SetId};

/// Sentinel local index for map entries pointing beyond the built halo
/// depth. Executors must never dereference it; debug executors assert.
pub const NONLOCAL: u32 = u32::MAX;

/// One set's local index space on one rank.
#[derive(Debug, Clone)]
pub struct SetLayout {
    /// Number of owned elements.
    pub n_owned: usize,
    /// `core_prefix[k]` = number of owned elements with inner depth ≥ k
    /// (`core_prefix[0] == n_owned`). Valid for `k ≤ depth + 1`.
    pub core_prefix: Vec<usize>,
    /// Import counts per ring level (index 0 = ring 1).
    pub import_level_counts: Vec<usize>,
    /// Global ids in local order: owned first, then rings.
    pub locals: Vec<u32>,
}

impl SetLayout {
    /// Total local elements (owned + all import rings).
    #[inline]
    pub fn n_local(&self) -> usize {
        self.locals.len()
    }

    /// End (exclusive) of the prewait core for a loop at chain position
    /// `j` (0-based): owned elements with inner depth ≥ j + 1. For `j`
    /// beyond the built depth returns 0 (no safe overlap — everything
    /// runs after the exchange).
    #[inline]
    pub fn core_end(&self, chain_pos: usize) -> usize {
        match self.core_prefix.get(chain_pos + 1) {
            Some(&c) => c,
            None => 0,
        }
    }

    /// End (exclusive) of the execute region for halo extent `ext`:
    /// owned plus rings 1..=ext.
    #[inline]
    pub fn exec_end(&self, ext: usize) -> usize {
        let rings: usize = self.import_level_counts.iter().take(ext).sum();
        self.n_owned + rings
    }

    /// Start of import ring `level` (1-based) in local numbering.
    #[inline]
    pub fn import_start(&self, level: usize) -> usize {
        self.n_owned
            + self
                .import_level_counts
                .iter()
                .take(level - 1)
                .sum::<usize>()
    }
}

/// What one rank exchanges with one neighbour, segment by segment. Both
/// sides enumerate segments in identical (set, level) order, and a send
/// segment lists its elements in the receiver's local order, so a single
/// packed buffer per neighbour round-trips without headers — exactly the
/// grouped layout of Figure 8.
#[derive(Debug, Clone)]
pub struct NeighborPlan {
    /// The neighbour's rank.
    pub rank: u32,
    /// Send segments: our owned elements (sender-local indices) the
    /// neighbour imports, grouped by (set, level).
    pub send: Vec<SendSegment>,
    /// Receive segments: contiguous ranges of our import region, grouped
    /// by (set, level).
    pub recv: Vec<RecvSegment>,
}

/// Sender-side segment.
#[derive(Debug, Clone)]
pub struct SendSegment {
    /// Which set.
    pub set: SetId,
    /// Ring level at the *receiver*.
    pub level: u8,
    /// Sender-local indices (all owned).
    pub elems: Vec<u32>,
}

/// Receiver-side segment: a contiguous local range.
#[derive(Debug, Clone, Copy)]
pub struct RecvSegment {
    /// Which set.
    pub set: SetId,
    /// Ring level.
    pub level: u8,
    /// First local index.
    pub start: u32,
    /// Element count.
    pub len: u32,
}

/// One rank's complete local structure.
#[derive(Debug, Clone)]
pub struct RankLayout {
    /// This rank.
    pub rank: u32,
    /// Total ranks.
    pub nparts: usize,
    /// Built halo depth (max supported execute extent / chain length).
    pub depth: usize,
    /// Per-set local index spaces.
    pub sets: Vec<SetLayout>,
    /// Localized maps (same ids/order as the global domain).
    pub maps: Vec<MapData>,
    /// Exchange plans, sorted by neighbour rank.
    pub neighbors: Vec<NeighborPlan>,
}

impl RankLayout {
    /// Local element count (owned plus halo) of every set, in domain
    /// order — the bound on each set's local target index space that the
    /// owner-computes windows take.
    pub fn set_sizes(&self) -> Vec<usize> {
        self.sets.iter().map(|s| s.n_local()).collect()
    }

    /// Gather one dat's global payload (`dim` values per element of
    /// `set`, in global order) into this rank's local order: owned
    /// elements, then every import ring.
    pub fn gather(&self, set: SetId, dim: usize, global: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        rows::gather(&mut out, global, &self.sets[set.idx()].locals, dim);
        out
    }

    /// Scatter the owned portion of a local dat buffer into the dat's
    /// global payload (halos are the owners' responsibility).
    pub fn scatter_owned(&self, set: SetId, dim: usize, local: &[f64], global: &mut [f64]) {
        let sl = &self.sets[set.idx()];
        rows::scatter(global, local, &sl.locals[..sl.n_owned], dim);
    }
}

/// Build every rank's layout — the (global) inspection phase.
///
/// `depth` is the maximum halo extent any loop-chain will request; the
/// paper's configuration file carries the same bound per chain.
///
/// Panics, naming the first bad entry, unless `own` holds one owner
/// below `own.nparts` for every element of every set and every map of
/// `dom` stays inside its target set.
pub fn build_layouts(dom: &Domain, own: &Ownership, depth: usize) -> Vec<RankLayout> {
    assert!(depth >= 1 && depth < u8::MAX as usize);
    check_inputs(dom, own);
    let nparts = own.nparts;
    // The locality order needs only the mesh: it runs beside the seed
    // scan and every rank's ring BFS.
    let (order, rings) = std::thread::scope(|scope| {
        let order = scope.spawn(|| LocalityOrder::build(dom));
        let adj = MapAdj::build(dom);
        let seeds = find_seeds(dom, own);
        let rings: Vec<RankRings> = (0..nparts as u32)
            .map(|r| compute_rings(dom, &adj, own, &seeds, r, depth as u8, depth as u8))
            .collect();
        let order = order
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (order, rings)
    });

    // Owned lists per (rank, set), in locality order, in one global pass.
    let mut owned: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); dom.n_sets()]; nparts];
    for (sidx, o) in own.owner.iter().enumerate() {
        for &g in &order.elems[sidx] {
            owned[o[g as usize] as usize][sidx].push(g);
        }
    }

    // Every rank's Fig 6b ranges, then its maps and plans, rank chunks
    // spread over the cores; each worker has its own O(N) scratch.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(nparts);
    let mut placed: Vec<(Vec<SetLayout>, Vec<Run>)> = vec![Default::default(); nparts];
    crate::for_each_rank(
        &mut placed,
        workers,
        || crate::per_set(dom, depth as u8 + 1),
        |depth_of, r| place(own, &order, &rings[r], &owned[r], depth, depth_of),
    );
    let (sets, runs): (Vec<_>, Vec<_>) = placed.into_iter().unzip();

    // `exports[s]`: (receiver, run index) of every run s owns, in
    // (receiver, set, level) order.
    let mut exports: Vec<Vec<(u32, usize)>> = vec![Vec::new(); nparts];
    for (r, rank_runs) in runs.iter().enumerate() {
        for (i, run) in rank_runs.iter().enumerate() {
            exports[run.owner as usize].push((r as u32, i));
        }
    }

    let mut wiring: Vec<(Vec<MapData>, Vec<NeighborPlan>)> = vec![Default::default(); nparts];
    crate::for_each_rank(
        &mut wiring,
        workers,
        || crate::per_set(dom, NONLOCAL),
        |g2l, r| wire(dom, &sets, &runs, &exports, r, g2l),
    );
    sets.into_iter()
        .zip(wiring)
        .enumerate()
        .map(|(r, (sets, (maps, neighbors)))| RankLayout {
            rank: r as u32,
            nparts,
            depth,
            sets,
            maps,
            neighbors,
        })
        .collect()
}

/// [`build_layouts`]'s input check: one sequential pass over every owner
/// array and every map, in release builds too.
fn check_inputs(dom: &Domain, own: &Ownership) {
    assert_eq!(
        own.owner.len(),
        dom.n_sets(),
        "build_layouts: one owner array per set"
    );
    for (set, owner) in dom.sets().iter().zip(&own.owner) {
        let name = &set.name;
        assert_eq!(
            owner.len(),
            set.size,
            "build_layouts: owner array of set `{name}` has the wrong length"
        );
        if let Some(k) = first_out_of_range(owner, own.nparts) {
            panic!(
                "build_layouts: owner of `{name}`[{k}] = {} is out of range 0..{}",
                owner[k], own.nparts
            );
        }
    }
    for m in dom.maps() {
        let to = dom.set(m.to);
        if let Some(k) = first_out_of_range(&m.values, to.size) {
            panic!(
                "build_layouts: map `{}` entry {k} = {} is out of range 0..{} of set `{}`",
                m.name, m.values[k], to.size, to.name
            );
        }
    }
}

/// The first index of `values` holding a value ≥ `bound`. The max is one
/// vectorised scan; the search runs only when it fails.
fn first_out_of_range(values: &[u32], bound: usize) -> Option<usize> {
    let max = values.iter().copied().fold(0, u32::max);
    if (max as usize) < bound {
        return None;
    }
    values.iter().position(|&v| v as usize >= bound)
}

/// One rank's Fig 6b ranges and its import runs, one per (set, level,
/// owner), in that order. `depth_of` is a per-set table holding `depth +
/// 1` (deeper than any inner depth) everywhere; it is restored before
/// returning.
fn place(
    own: &Ownership,
    order: &LocalityOrder,
    rr: &RankRings,
    owned: &[Vec<u32>],
    depth: usize,
    depth_of: &mut [Vec<u8>],
) -> (Vec<SetLayout>, Vec<Run>) {
    // Core-depth classes: 0..=depth from the inner BFS, `deep` beyond it.
    let deep = depth as u8 + 1;
    let n_classes = depth + 2;
    let mut sets = Vec::with_capacity(owned.len());
    let mut runs = Vec::new();
    for (sidx, in_order) in owned.iter().enumerate() {
        // Owned: by descending core depth, then locality order — one
        // counting pass, whose class sizes are `core_prefix`.
        let depths = &mut depth_of[sidx];
        for &(g, d) in &rr.inner[sidx] {
            depths[g as usize] = d;
        }
        let mut class_len = vec![0usize; n_classes];
        for &g in in_order {
            class_len[depths[g as usize] as usize] += 1;
        }
        // core_prefix[k] = owned elements with depth ≥ k.
        let mut core_prefix = vec![0usize; n_classes];
        let mut acc = 0;
        for k in (0..n_classes).rev() {
            acc += class_len[k];
            core_prefix[k] = acc;
        }
        // Class k starts after every deeper class.
        let mut next: Vec<usize> = (0..n_classes)
            .map(|k| core_prefix[k] - class_len[k])
            .collect();
        let n_owned = in_order.len();
        let mut locals = vec![0u32; n_owned];
        for &g in in_order {
            let slot = &mut next[depths[g as usize] as usize];
            locals[*slot] = g;
            *slot += 1;
        }
        for &(g, _) in &rr.inner[sidx] {
            depths[g as usize] = deep;
        }

        // Imports: per level, by (owner, locality order); each owner's
        // part of a level is one run.
        let set = SetId(sidx as u32);
        let (set_owner, pos) = (&own.owner[sidx], &order.pos[sidx]);
        let mut per_level: Vec<Vec<u64>> = vec![Vec::new(); depth];
        for &(g, ring, _) in &rr.imports[sidx] {
            debug_assert!((1..=depth as u8).contains(&ring));
            let key = (set_owner[g as usize] as u64) << 32 | pos[g as usize] as u64;
            per_level[ring as usize - 1].push(key);
        }
        let mut import_level_counts = Vec::with_capacity(depth);
        for (li, lvl) in per_level.iter_mut().enumerate() {
            lvl.sort_unstable();
            import_level_counts.push(lvl.len());
            for run in lvl.chunk_by(|a, b| a >> 32 == b >> 32) {
                runs.push(Run {
                    owner: (run[0] >> 32) as u32,
                    seg: RecvSegment {
                        set,
                        level: li as u8 + 1,
                        start: locals.len() as u32,
                        len: run.len() as u32,
                    },
                });
                locals.extend(run.iter().map(|&k| order.elems[sidx][k as u32 as usize]));
            }
        }
        sets.push(SetLayout {
            n_owned,
            core_prefix,
            import_level_counts,
            locals,
        });
    }
    (sets, runs)
}

/// Rank `r`'s localized maps and exchange plans, through `g2l`: a dense
/// global→local table per set, all [`NONLOCAL`], that `r` fills with its
/// locals and resets before returning.
fn wire(
    dom: &Domain,
    sets: &[Vec<SetLayout>],
    runs: &[Vec<Run>],
    exports: &[Vec<(u32, usize)>],
    r: usize,
    g2l: &mut [Vec<u32>],
) -> (Vec<MapData>, Vec<NeighborPlan>) {
    for (table, sl) in g2l.iter_mut().zip(&sets[r]) {
        for (i, &g) in sl.locals.iter().enumerate() {
            table[g as usize] = i as u32;
        }
    }
    let maps: Vec<MapData> = dom
        .maps()
        .iter()
        .map(|m| {
            let to_table = &g2l[m.to.idx()];
            let values = sets[r][m.from.idx()]
                .locals
                .iter()
                .flat_map(|&g| &m.values[g as usize * m.arity..(g as usize + 1) * m.arity])
                .map(|&t| to_table[t as usize])
                .collect();
            MapData {
                name: m.name.clone(),
                from: m.from,
                to: m.to,
                arity: m.arity,
                values,
            }
        })
        .collect();

    // Receive side: r's runs by owner (stable, so (set, level) stays the
    // wire order within each). Send side: the runs r owns, each read off
    // the receiver's locals — same elements, same order.
    let mut neighbors: Vec<NeighborPlan> = Vec::new();
    let mut by_owner: Vec<&Run> = runs[r].iter().collect();
    by_owner.sort_by_key(|run| run.owner);
    for run in by_owner {
        plan_for(&mut neighbors, run.owner).recv.push(run.seg);
    }
    for &(q, i) in &exports[r] {
        let seg = runs[q as usize][i].seg;
        let table = &g2l[seg.set.idx()];
        let start = seg.start as usize;
        let elems = sets[q as usize][seg.set.idx()].locals[start..start + seg.len as usize]
            .iter()
            .map(|&g| table[g as usize])
            .collect();
        plan_for(&mut neighbors, q).send.push(SendSegment {
            set: seg.set,
            level: seg.level,
            elems,
        });
    }
    neighbors.sort_by_key(|n| n.rank);

    for (table, sl) in g2l.iter_mut().zip(&sets[r]) {
        for &g in &sl.locals {
            table[g as usize] = NONLOCAL;
        }
    }
    (maps, neighbors)
}

/// One receiver-side import run: the part of one (set, level) that one
/// owner sends.
#[derive(Clone)]
struct Run {
    owner: u32,
    seg: RecvSegment,
}

/// The plan for neighbour `rank`, added if absent.
fn plan_for(neighbors: &mut Vec<NeighborPlan>, rank: u32) -> &mut NeighborPlan {
    let i = match neighbors.iter().position(|n| n.rank == rank) {
        Some(i) => i,
        None => {
            neighbors.push(NeighborPlan {
                rank,
                send: Vec::new(),
                recv: Vec::new(),
            });
            neighbors.len() - 1
        }
    };
    &mut neighbors[i]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::derive_ownership;
    use crate::partitioner::{rcb_partition, rib_partition};
    use op2_core::schedule::map_is_scattered;
    use op2_mesh::shuffle::shuffle_set;
    use op2_mesh::{Annulus, AnnulusParams, Hex3D, Hex3DParams, Quad2D};

    fn layouts(nx: usize, ny: usize, nparts: usize, depth: usize) -> (Quad2D, Vec<RankLayout>) {
        let m = Quad2D::generate(nx, ny);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let l = build_layouts(&m.dom, &own, depth);
        (m, l)
    }

    #[test]
    fn owned_counts_partition_the_mesh() {
        let (m, ls) = layouts(6, 6, 4, 2);
        for sidx in 0..m.dom.n_sets() {
            let total: usize = ls.iter().map(|l| l.sets[sidx].n_owned).sum();
            assert_eq!(total, m.dom.sets()[sidx].size);
        }
    }

    #[test]
    fn core_prefixes_monotone() {
        let (_, ls) = layouts(8, 8, 4, 3);
        for l in &ls {
            for s in &l.sets {
                assert_eq!(s.core_prefix[0], s.n_owned);
                for k in 1..s.core_prefix.len() {
                    assert!(s.core_prefix[k] <= s.core_prefix[k - 1]);
                }
            }
        }
    }

    #[test]
    fn exec_ranges_nest() {
        let (_, ls) = layouts(8, 8, 4, 3);
        for l in &ls {
            for s in &l.sets {
                assert_eq!(s.exec_end(0), s.n_owned);
                for e in 1..=3 {
                    assert!(s.exec_end(e) >= s.exec_end(e - 1));
                    assert!(s.exec_end(e) <= s.n_local());
                }
                assert_eq!(s.exec_end(3), s.n_local());
            }
        }
    }

    #[test]
    fn send_recv_plans_mirror() {
        let (_, ls) = layouts(6, 6, 3, 2);
        for l in &ls {
            for n in &l.neighbors {
                let peer = &ls[n.rank as usize];
                let back = peer
                    .neighbors
                    .iter()
                    .find(|p| p.rank == l.rank)
                    .expect("neighbour relation must be symmetric in plans");
                // Our recv segments match their send segments in count
                // and sizes, in the same (set, level) order.
                assert_eq!(n.recv.len(), back.send.len());
                for (r, s) in n.recv.iter().zip(back.send.iter()) {
                    assert_eq!(r.set, s.set);
                    assert_eq!(r.level, s.level);
                    assert_eq!(r.len as usize, s.elems.len());
                }
            }
        }
    }

    #[test]
    fn send_elems_are_owned_by_sender() {
        let (_, ls) = layouts(6, 6, 3, 2);
        for l in &ls {
            for n in &l.neighbors {
                for seg in &n.send {
                    let sl = &l.sets[seg.set.idx()];
                    for &e in &seg.elems {
                        assert!((e as usize) < sl.n_owned, "exported element must be owned");
                    }
                }
            }
        }
    }

    #[test]
    fn localized_maps_resolve_within_extent() {
        // Every map row of an element executable at extent <= depth must
        // resolve to local indices (no NONLOCAL in reachable rows).
        let depth = 2;
        let (m, ls) = layouts(8, 8, 4, depth);
        for l in &ls {
            for (mid, lm) in l.maps.iter().enumerate() {
                let gm = &m.dom.maps()[mid];
                let from_layout = &l.sets[gm.from.idx()];
                let exec_end = from_layout.exec_end(depth);
                for e in 0..exec_end {
                    for i in 0..lm.arity {
                        let v = lm.values[e * lm.arity + i];
                        assert_ne!(
                            v, NONLOCAL,
                            "rank {} map {} elem {e} entry {i} unresolved",
                            l.rank, lm.name
                        );
                        assert!((v as usize) < l.sets[gm.to.idx()].n_local());
                    }
                }
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let (mut m, ls) = layouts(5, 5, 3, 2);
        let vals: Vec<f64> = (0..m.dom.set(m.nodes).size * 2).map(|i| i as f64).collect();
        let d = m.dom.decl_dat("v", m.nodes, 2, vals.clone());
        // Each rank gathers, doubles its owned portion, scatters back.
        for l in &ls {
            let mut local = l.gather(m.nodes, 2, &m.dom.dat(d).data);
            let sl = &l.sets[m.nodes.idx()];
            for x in &mut local[..sl.n_owned * 2] {
                *x *= 2.0;
            }
            l.scatter_owned(m.nodes, 2, &local, &mut m.dom.dat_mut(d).data);
        }
        let expect: Vec<f64> = vals.iter().map(|v| v * 2.0).collect();
        assert_eq!(m.dom.dat(d).data, expect);
    }

    #[test]
    fn single_rank_has_no_neighbors_and_full_core() {
        let (m, ls) = layouts(4, 4, 1, 2);
        assert_eq!(ls.len(), 1);
        let l = &ls[0];
        assert!(l.neighbors.is_empty());
        for (sidx, s) in l.sets.iter().enumerate() {
            assert_eq!(s.n_owned, m.dom.sets()[sidx].size);
            // Everything is deep interior: core never shrinks.
            assert_eq!(s.core_end(0), s.n_owned);
            assert_eq!(s.core_end(2), s.n_owned);
        }
    }

    /// A Hex3D cube with both node and edge numbering shuffled, like the
    /// `mgcfd-compute` benchmark mesh, split by RCB.
    fn shuffled_hex(n: usize, nparts: usize, depth: usize) -> (Hex3D, Ownership, Vec<RankLayout>) {
        let mut m = Hex3D::generate(Hex3DParams::cube(n));
        shuffle_set(&mut m.dom, m.nodes, 7);
        shuffle_set(&mut m.dom, m.edges, 8);
        let base = rcb_partition(m.node_coords(), 3, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let ls = build_layouts(&m.dom, &own, depth);
        (m, own, ls)
    }

    /// The locality order brings an owned edge's two nodes close in local
    /// numbering on a shuffled mesh (ascending global id: ~169).
    #[test]
    fn owned_edges_gather_nearby_nodes_on_a_shuffled_mesh() {
        let (m, _, ls) = shuffled_hex(12, 2, 2);
        let (mut sum, mut count) = (0u64, 0u64);
        for l in &ls {
            let e2n = &l.maps[m.e2n.idx()];
            for row in e2n
                .values
                .chunks_exact(2)
                .take(l.sets[m.edges.idx()].n_owned)
            {
                assert!(row[0] != NONLOCAL && row[1] != NONLOCAL);
                sum += row[0].abs_diff(row[1]) as u64;
                count += 1;
            }
        }
        let mean = sum as f64 / count as f64;
        assert!(
            mean <= 100.0,
            "mean |l(a) - l(b)| over owned edges = {mean}"
        );
    }

    /// The compiled loops' locality gate: on for the shuffled global
    /// edge map, off for every map in generator numbering, and off for
    /// every rank-local map the locality order leaves at 2 and 3 ranks,
    /// so only a walk of the shuffled global mesh prefetches.
    #[test]
    fn locality_gate_is_on_only_for_shuffled_global_maps() {
        let plain = Hex3D::generate(Hex3DParams::cube(12));
        for map in plain.dom.maps() {
            let targets = plain.dom.set(map.to).size;
            assert!(
                !map_is_scattered(&map.values, map.arity, targets),
                "generator `{}`",
                map.name
            );
        }
        for nparts in [2, 3] {
            let (m, _, ls) = shuffled_hex(12, nparts, 2);
            let e2n = m.dom.map(m.e2n);
            assert!(map_is_scattered(
                &e2n.values,
                e2n.arity,
                m.dom.set(m.nodes).size
            ));
            for (r, l) in ls.iter().enumerate() {
                for map in &l.maps {
                    let targets = l.sets[map.to.idx()].n_local();
                    assert!(
                        !map_is_scattered(&map.values, map.arity, targets),
                        "{nparts} ranks, rank {r}, local `{}`",
                        map.name
                    );
                }
            }
        }
    }

    /// Every Fig 6b range holds exactly the global ids it holds under
    /// ascending global-id order — each core-depth class, each ring level
    /// and each neighbour's run — so only the order inside a range
    /// moved; and every send segment lists the receiver's run element by
    /// element.
    #[test]
    fn ranges_hold_the_global_id_order_elements() {
        let sorted = |v: &[u32]| {
            let mut v = v.to_vec();
            v.sort_unstable();
            v
        };
        let depth = 2;
        let (m, own, ls) = shuffled_hex(8, 3, depth);
        let adj = MapAdj::build(&m.dom);
        let seeds = find_seeds(&m.dom, &own);
        for l in &ls {
            let rr = compute_rings(&m.dom, &adj, &own, &seeds, l.rank, depth as u8, depth as u8);
            for (sidx, sl) in l.sets.iter().enumerate() {
                // Reference core classes: owned ids by depth, sorted.
                let mut depth_of = vec![depth + 1; own.owner[sidx].len()];
                for &(g, d) in &rr.inner[sidx] {
                    depth_of[g as usize] = d as usize;
                }
                let mut class: Vec<Vec<u32>> = vec![Vec::new(); depth + 2];
                for (g, &r) in own.owner[sidx].iter().enumerate() {
                    if r == l.rank {
                        class[depth_of[g]].push(g as u32);
                    }
                }
                let n_owned: usize = class.iter().map(Vec::len).sum();
                assert_eq!(sl.n_owned, n_owned);
                for k in 0..depth + 2 {
                    let deeper: usize = class[k + 1..].iter().map(Vec::len).sum();
                    assert_eq!(
                        sl.core_prefix[k],
                        deeper + class[k].len(),
                        "core_prefix[{k}]"
                    );
                    let range = &sl.locals[deeper..deeper + class[k].len()];
                    assert_eq!(
                        sorted(range),
                        class[k],
                        "rank {} set {sidx} class {k}",
                        l.rank
                    );
                }
                // Reference ring levels: imported ids sorted by (owner, id).
                for level in 1..=depth {
                    let mut want: Vec<(u32, u32)> = rr.imports[sidx]
                        .iter()
                        .filter(|&&(_, r, _)| r as usize == level)
                        .map(|&(g, _, _)| (own.owner[sidx][g as usize], g))
                        .collect();
                    want.sort_unstable();
                    assert_eq!(sl.import_level_counts[level - 1], want.len());
                    let start = sl.import_start(level);
                    let mut got: Vec<(u32, u32)> = sl.locals[start..start + want.len()]
                        .iter()
                        .map(|&g| (own.owner[sidx][g as usize], g))
                        .collect();
                    got.sort_unstable();
                    assert_eq!(got, want, "rank {} set {sidx} level {level}", l.rank);
                }
            }
            for n in &l.neighbors {
                let peer = &ls[n.rank as usize];
                let back = peer.neighbors.iter().find(|p| p.rank == l.rank).unwrap();
                assert_eq!(n.recv.len(), back.send.len());
                for (r, s) in n.recv.iter().zip(&back.send) {
                    let sl = &l.sets[r.set.idx()];
                    let run = &sl.locals[r.start as usize..(r.start + r.len) as usize];
                    // The run is exactly n.rank's part of its level…
                    let want: Vec<u32> = sorted(
                        &rr.imports[r.set.idx()]
                            .iter()
                            .filter(|&&(g, lv, _)| {
                                lv == r.level && own.owner[r.set.idx()][g as usize] == n.rank
                            })
                            .map(|&(g, _, _)| g)
                            .collect::<Vec<_>>(),
                    );
                    assert_eq!(sorted(run), want);
                    // …and the sender packs it in the receiver's order.
                    let sent: Vec<u32> = s
                        .elems
                        .iter()
                        .map(|&e| peer.sets[s.set.idx()].locals[e as usize])
                        .collect();
                    assert_eq!(sent, run);
                }
            }
        }
    }

    /// FNV-1a over every field of every layout, in order.
    fn digest(ls: &[RankLayout]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut put = |x: u64| {
            for b in x.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for l in ls {
            put(l.rank as u64);
            put(l.nparts as u64);
            put(l.depth as u64);
            for s in &l.sets {
                put(s.n_owned as u64);
                s.core_prefix.iter().for_each(|&c| put(c as u64));
                s.import_level_counts.iter().for_each(|&c| put(c as u64));
                s.locals.iter().for_each(|&g| put(g as u64));
            }
            for m in &l.maps {
                m.values.iter().for_each(|&v| put(v as u64));
            }
            for n in &l.neighbors {
                put(n.rank as u64);
                for seg in &n.send {
                    put(seg.set.0 as u64);
                    put(seg.level as u64);
                    put(seg.elems.len() as u64);
                    seg.elems.iter().for_each(|&e| put(e as u64));
                }
                for seg in &n.recv {
                    put(seg.set.0 as u64);
                    put(seg.level as u64);
                    put(seg.start as u64);
                    put(seg.len as u64);
                }
            }
        }
        h
    }

    /// The layouts are pinned bitwise: digests recorded from the serial,
    /// hash-table inspection this one replaced. Any change to the order
    /// inside a range, a plan or a localized map shows here.
    #[test]
    fn layouts_match_parent_digest() {
        let hex: [(usize, usize, u64); 8] = [
            (1, 1, 0x59531d65faa0aca3),
            (1, 2, 0x42c7f9cbdbe4ea56),
            (2, 1, 0xfb52f78952a06ee3),
            (2, 2, 0xf9c3a1fbc7b09688),
            (3, 1, 0x8e3c5bed8adafeae),
            (3, 2, 0xd60cf69a32c37df4),
            (5, 1, 0x152ab70c95a97e31),
            (5, 2, 0x56afed6434e3bc2a),
        ];
        for (nparts, depth, want) in hex {
            let (_, _, ls) = shuffled_hex(12, nparts, depth);
            assert_eq!(digest(&ls), want, "hex 12, {nparts} parts, depth {depth}");
        }
        // Hydra's `small(6)` annulus under RIB at its safe depth, 5.
        let a = Annulus::generate(AnnulusParams::small(6, 6, 6));
        for (nparts, want) in [(3, 0x467ae28ee67aa4a7), (4, 0x3be955ee493d6b1b)] {
            let base = rib_partition(a.node_coords(), 3, nparts);
            let own = derive_ownership(&a.dom, a.nodes, base, nparts);
            let ls = build_layouts(&a.dom, &own, 5);
            assert_eq!(digest(&ls), want, "annulus 6, {nparts} parts");
        }
    }

    /// The panic message `build_layouts` gives on `own`.
    fn build_panic(dom: &Domain, own: &Ownership) -> String {
        let err = std::panic::catch_unwind(|| build_layouts(dom, own, 2)).unwrap_err();
        *err.downcast::<String>().unwrap()
    }

    fn quad_ownership(nparts: usize) -> (Quad2D, Ownership) {
        let m = Quad2D::generate(3, 2);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        (m, own)
    }

    #[test]
    fn owner_array_of_the_wrong_length_is_rejected() {
        let (m, mut own) = quad_ownership(2);
        own.owner[m.edges.idx()].pop();
        let msg = build_panic(&m.dom, &own);
        assert!(
            msg.contains("owner array of set `edges` has the wrong length"),
            "{msg}"
        );
    }

    #[test]
    fn owner_beyond_the_part_count_is_rejected() {
        let (m, mut own) = quad_ownership(2);
        own.owner[m.cells.idx()][4] = 2;
        own.owner[m.cells.idx()][5] = 7;
        let msg = build_panic(&m.dom, &own);
        assert!(
            msg.contains("owner of `cells`[4] = 2 is out of range 0..2"),
            "{msg}"
        );
    }

    #[test]
    fn map_value_beyond_its_target_set_is_rejected() {
        let (mut m, own) = quad_ownership(2);
        let n_nodes = m.dom.set(m.nodes).size as u32;
        m.dom.map_mut(m.e2n).values[3] = n_nodes;
        let msg = build_panic(&m.dom, &own);
        assert!(
            msg.contains("map `e2n` entry 3 = 12 is out of range 0..12 of set `nodes`"),
            "{msg}"
        );
    }

    /// Every set of `l` is empty: nothing owned or imported, no map
    /// rows, no neighbours.
    fn assert_empty(l: &RankLayout) {
        for s in &l.sets {
            assert_eq!((s.n_owned, s.locals.len()), (0, 0), "rank {}", l.rank);
            assert_eq!(s.core_prefix, vec![0; l.depth + 2]);
            assert_eq!(s.import_level_counts, vec![0; l.depth]);
        }
        assert!(l.maps.iter().all(|m| m.values.is_empty()));
        assert!(l.neighbors.is_empty());
    }

    /// `(rank, neighbour ranks)` of every rank that has neighbours.
    fn neighbor_ranks(ls: &[RankLayout]) -> Vec<(u32, Vec<u32>)> {
        ls.iter()
            .filter(|l| !l.neighbors.is_empty())
            .map(|l| (l.rank, l.neighbors.iter().map(|n| n.rank).collect()))
            .collect()
    }

    /// A rank that owns nothing gets an empty layout and nobody lists it
    /// as a neighbour; the two others split the mesh between them.
    #[test]
    fn rank_owning_nothing_is_empty() {
        let m = Quad2D::generate(3, 2);
        let base: Vec<u32> = (0..m.dom.set(m.nodes).size)
            .map(|g| 2 * (g % 2) as u32)
            .collect();
        let own = derive_ownership(&m.dom, m.nodes, base, 3);
        let ls = build_layouts(&m.dom, &own, 2);
        assert_empty(&ls[1]);
        assert_eq!(neighbor_ranks(&ls), vec![(0, vec![2]), (2, vec![0])]);
        let owned = |r: usize| ls[r].sets.iter().map(|s| s.n_owned).collect::<Vec<_>>();
        assert_eq!((owned(0), owned(2)), (vec![6, 4, 2], vec![6, 3, 4]));
        assert_eq!(digest(&ls), 0x000c_ec64_2392_de0a);
    }

    /// With more ranks than nodes, the two ranks past the last node
    /// owner are empty; of the six owning one node each, only the two
    /// around the one interior edge exchange.
    #[test]
    fn more_ranks_than_nodes() {
        let m = Quad2D::generate(2, 1);
        let base: Vec<u32> = (0..m.dom.set(m.nodes).size as u32).collect();
        let own = derive_ownership(&m.dom, m.nodes, base, 8);
        let ls = build_layouts(&m.dom, &own, 2);
        assert_empty(&ls[6]);
        assert_empty(&ls[7]);
        let owned_nodes: Vec<usize> = ls.iter().map(|l| l.sets[m.nodes.idx()].n_owned).collect();
        assert_eq!(owned_nodes, vec![1, 1, 1, 1, 1, 1, 0, 0]);
        assert_eq!(neighbor_ranks(&ls), vec![(1, vec![4]), (4, vec![1])]);
        assert_eq!(digest(&ls), 0xd197_6dae_4464_6524);
    }

    /// The order is a function of the input alone, however the ranks
    /// split into worker chunks (odd part counts leave them uneven).
    #[test]
    fn two_builds_are_identical() {
        for nparts in [3, 5, 7] {
            let (m, own, ls) = shuffled_hex(8, nparts, 2);
            let again = build_layouts(&m.dom, &own, 2);
            assert_eq!(format!("{ls:?}"), format!("{again:?}"), "{nparts} parts");
        }
    }
}
