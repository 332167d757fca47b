//! Counts-only halo statistics — the measured inputs of the paper's
//! analytic model (Tables 2 and 5).
//!
//! The model of §3.2 consumes, per configuration: core iteration counts
//! `S^c`, halo iteration counts `S^1`/`S^h`, the per-neighbour message
//! sizes `m^1`/`m^r`, and the neighbour count `p` — all "only known at
//! runtime after the mesh partitioning". This pipeline computes them
//! exactly, for any rank count, without materialising executable layouts
//! (no localized maps, no dat buffers), so it scales to the full 8M/24M
//! meshes at thousands of ranks. Rank ring computations are independent
//! and run on a small thread pool.

use crate::ownership::Ownership;
use crate::rings::{compute_rings, find_seeds, MapAdj};
use op2_core::Domain;
use std::collections::HashMap;

/// Halo statistics for one rank.
#[derive(Debug, Clone, Default)]
pub struct RankStats {
    /// Owned element counts per set.
    pub owned: Vec<usize>,
    /// `core_prefix[set][k]` = owned elements with inner depth ≥ k
    /// (`k ≤ depth + 1`; index 0 = all owned).
    pub core_prefix: Vec<Vec<usize>>,
    /// `import_levels[set][l-1]` = import ring `l` size.
    pub import_levels: Vec<Vec<usize>>,
    /// `exec_levels[set][l-1]` = the execute-halo (*ieh*-side, Fig 4)
    /// subset of ring `l`: imports reached through backward crossings,
    /// i.e. iterating elements this rank redundantly executes. The
    /// remainder of the ring is the read-only non-execute (*inh*) part.
    pub exec_levels: Vec<Vec<usize>>,
    /// Per neighbour: `recv[set][l-1]` element counts — the building
    /// block of both per-dat (`m^1`) and grouped (`m^r`) message sizes.
    pub neighbors: HashMap<u32, Vec<Vec<usize>>>,
}

impl RankStats {
    /// Number of neighbour ranks (`p` per rank; the model takes the max).
    pub fn n_neighbors(&self) -> usize {
        self.neighbors.len()
    }

    /// Elements of `set` received from `nbr` at ring levels `1..=depth`.
    pub fn recv_elems(&self, nbr: u32, set: usize, depth: usize) -> usize {
        self.neighbors
            .get(&nbr)
            .map(|per_set| per_set[set].iter().take(depth).sum())
            .unwrap_or(0)
    }
}

/// Aggregated halo statistics for one (mesh, partitioner, nparts, depth)
/// configuration.
#[derive(Debug, Clone)]
pub struct HaloStats {
    /// Ranks.
    pub nparts: usize,
    /// Built ring depth.
    pub depth: usize,
    /// Per-rank data.
    pub per_rank: Vec<RankStats>,
}

impl HaloStats {
    /// Maximum neighbour count over ranks — the model's `p`.
    pub fn max_neighbors(&self) -> usize {
        self.per_rank
            .iter()
            .map(RankStats::n_neighbors)
            .max()
            .unwrap_or(0)
    }

    /// Mean core fraction at inner depth `k` for `set` — a profitability
    /// indicator: small cores mean communication dominates.
    pub fn mean_core_fraction(&self, set: usize, k: usize) -> f64 {
        let (mut core, mut owned) = (0usize, 0usize);
        for r in &self.per_rank {
            core += r.core_prefix[set].get(k).copied().unwrap_or(0);
            owned += r.owned[set];
        }
        if owned == 0 {
            0.0
        } else {
            core as f64 / owned as f64
        }
    }
}

/// Compute halo statistics. `threads` bounds the worker pool (1 = serial).
pub fn collect_stats(dom: &Domain, own: &Ownership, depth: usize, threads: usize) -> HaloStats {
    assert!(depth >= 1);
    let nparts = own.nparts;
    let adj = MapAdj::build(dom);
    let seeds = find_seeds(dom, own);
    let n_sets = dom.n_sets();

    // Owned counts per (rank, set) in one pass.
    let mut owned_counts = vec![vec![0usize; n_sets]; nparts];
    for (sidx, o) in own.owner.iter().enumerate() {
        for &r in o {
            owned_counts[r as usize][sidx] += 1;
        }
    }

    let mut per_rank: Vec<RankStats> = vec![RankStats::default(); nparts];
    crate::for_each_rank(
        &mut per_rank,
        threads,
        || (),
        |_, r| {
            let rr = compute_rings(dom, &adj, own, &seeds, r as u32, depth as u8, depth as u8);
            let mut stats = RankStats {
                owned: owned_counts[r].clone(),
                core_prefix: vec![vec![0usize; depth + 2]; n_sets],
                import_levels: vec![vec![0usize; depth]; n_sets],
                exec_levels: vec![vec![0usize; depth]; n_sets],
                neighbors: HashMap::new(),
            };
            for sidx in 0..n_sets {
                let n_owned = stats.owned[sidx];
                stats.core_prefix[sidx][0] = n_owned;
                // Owned elements listed in `inner` are shallow;
                // prefix[k] = owned − #(inner < k).
                let mut shallow_below = vec![0usize; depth + 2];
                for &(_, d) in &rr.inner[sidx] {
                    for k in (d as usize + 1)..=(depth + 1) {
                        shallow_below[k] += 1;
                    }
                }
                for k in 1..=(depth + 1) {
                    stats.core_prefix[sidx][k] = n_owned - shallow_below[k];
                }
                for &(g, ring, exec) in &rr.imports[sidx] {
                    stats.import_levels[sidx][ring as usize - 1] += 1;
                    if exec {
                        stats.exec_levels[sidx][ring as usize - 1] += 1;
                    }
                    let owner = own.owner[sidx][g as usize];
                    let per_set = stats
                        .neighbors
                        .entry(owner)
                        .or_insert_with(|| vec![vec![0usize; depth]; n_sets]);
                    per_set[sidx][ring as usize - 1] += 1;
                }
            }
            stats
        },
    );

    HaloStats {
        nparts,
        depth,
        per_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::build_layouts;
    use crate::ownership::derive_ownership;
    use crate::partitioner::rcb_partition;
    use op2_mesh::{Hex3D, Hex3DParams};

    fn setup(n: usize, nparts: usize) -> (Hex3D, Ownership) {
        let m = Hex3D::generate(Hex3DParams::cube(n));
        let base = rcb_partition(m.node_coords(), 3, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        (m, own)
    }

    /// The counts-only pipeline must agree exactly with the full layout
    /// builder on every shared quantity.
    #[test]
    fn stats_agree_with_layouts() {
        let (m, own) = setup(8, 4);
        let depth = 2;
        let stats = collect_stats(&m.dom, &own, depth, 2);
        let layouts = build_layouts(&m.dom, &own, depth);
        for (r, l) in layouts.iter().enumerate() {
            let s = &stats.per_rank[r];
            assert_eq!(s.n_neighbors(), l.neighbors.len(), "rank {r} neighbours");
            for sidx in 0..m.dom.n_sets() {
                assert_eq!(s.owned[sidx], l.sets[sidx].n_owned);
                assert_eq!(s.core_prefix[sidx], l.sets[sidx].core_prefix);
                assert_eq!(s.import_levels[sidx], l.sets[sidx].import_level_counts);
            }
            for n in &l.neighbors {
                for seg in &n.recv {
                    let per_set = &s.neighbors[&n.rank];
                    let lvl = seg.level as usize - 1;
                    assert!(per_set[seg.set.idx()][lvl] >= seg.len as usize);
                }
                // Totals per neighbour match.
                for sidx in 0..m.dom.n_sets() {
                    let from_segs: usize = n
                        .recv
                        .iter()
                        .filter(|seg| seg.set.idx() == sidx)
                        .map(|seg| seg.len as usize)
                        .sum();
                    let from_stats: usize = s.neighbors[&n.rank][sidx].iter().sum();
                    assert_eq!(from_segs, from_stats, "rank {r} nbr {} set {sidx}", n.rank);
                }
            }
        }
    }

    /// Strong scaling: quadrupling the rank count must shrink owned
    /// counts and (roughly) shrink per-rank core fractions.
    #[test]
    fn core_fraction_falls_with_rank_count() {
        let (m, own4) = setup(12, 4);
        let stats4 = collect_stats(&m.dom, &own4, 2, 2);
        let base16 = rcb_partition(m.node_coords(), 3, 16);
        let own16 = derive_ownership(&m.dom, m.nodes, base16, 16);
        let stats16 = collect_stats(&m.dom, &own16, 2, 2);
        // Edges have depth-0 boundary elements (they read foreign nodes);
        // nodes read nothing, so measure the edge set.
        let f4 = stats4.mean_core_fraction(m.edges.idx(), 1);
        let f16 = stats16.mean_core_fraction(m.edges.idx(), 1);
        assert!(
            f16 < f4,
            "core fraction should fall with more ranks: {f4} -> {f16}"
        );
    }

    /// The execute/non-execute split (Fig 4): edge imports are execute
    /// halo (they contribute increments to owned nodes); node imports
    /// are read-only non-execute halo (nothing maps out of nodes).
    #[test]
    fn exec_nonexec_split_matches_fig4() {
        let (m, own) = setup(8, 2);
        let stats = collect_stats(&m.dom, &own, 2, 1);
        let mut edge_imports = 0;
        for r in &stats.per_rank {
            // Every ring-1 edge import touches an owned node → execute
            // halo. (Edges inherit their first endpoint's owner, so one
            // side of a clean bisection may own every cut edge and
            // import none — totals are asserted below.)
            assert_eq!(
                r.exec_levels[m.edges.idx()][0],
                r.import_levels[m.edges.idx()][0]
            );
            edge_imports += r.import_levels[m.edges.idx()][0];
            // Nodes are pure data here: entirely non-execute.
            assert_eq!(r.exec_levels[m.nodes.idx()][0], 0);
            assert!(r.import_levels[m.nodes.idx()][0] > 0);
            // Boundary elements (bnodes) also execute redundantly where
            // they touch owned nodes.
            assert!(
                r.exec_levels[m.bnodes.idx()][0] <= r.import_levels[m.bnodes.idx()][0]
            );
        }
        assert!(edge_imports > 0, "some rank imports execute-halo edges");
    }

    /// Serial and threaded collection agree.
    #[test]
    fn thread_count_invariant() {
        let (m, own) = setup(8, 5);
        let a = collect_stats(&m.dom, &own, 2, 1);
        let b = collect_stats(&m.dom, &own, 2, 4);
        for (ra, rb) in a.per_rank.iter().zip(&b.per_rank) {
            assert_eq!(ra.owned, rb.owned);
            assert_eq!(ra.core_prefix, rb.core_prefix);
            assert_eq!(ra.import_levels, rb.import_levels);
            assert_eq!(ra.n_neighbors(), rb.n_neighbors());
        }
    }
}
