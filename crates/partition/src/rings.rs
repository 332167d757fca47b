//! Per-rank halo rings and core depths.
//!
//! The paper's multi-layered halo (Figures 5 and 7) generalises OP2's
//! depth-1 import/export halos to depth `r`: layer `k` contains exactly
//! the foreign elements a rank must receive to execute a loop-chain whose
//! loops redundantly compute `k` layers deep. We compute the layers with
//! a 0-1 BFS over the *map graph*:
//!
//! * every element a rank owns is at ring 0;
//! * crossing a map **forward** (from an iterating element `a` to a data
//!   element `b = M(a, i)`) costs **0**: executing `a` reads `b`, so `b`
//!   is needed at the same depth (clamped to ≥ 1 for foreign elements —
//!   they sit in the halo even when referenced directly from ring 0);
//! * crossing a map **backward** (from data `b` to an iterating `a`
//!   referencing it) costs **1**: for `b`'s value to be complete, every
//!   `a` incrementing it must execute, one layer further out.
//!
//! Two invariants follow (property-tested in `tests/properties.rs`):
//! `ring(b) ≤ max(ring(a), 1)` for every map entry `a → b` (read
//! frontiers are always imported) and `ring(a) ≤ ring(b) + 1` (executing
//! rings ≤ e completes every data element at rings ≤ e − 1).
//!
//! The *inner* (core) depth is the mirror image: the 0-1 distance of an
//! owned element from the foreign region through the *dependency* graph
//! (`a` depends on its targets at cost 0; a data element depends on its
//! updaters at cost 1). A loop at chain position `j` may execute, before
//! the grouped exchange completes, exactly the owned elements with
//! `inner > j` — the latency-hiding core of Alg 1 (`j = 0`) and Alg 2.
//!
//! Both BFSs keep their state in one dense `u8` table per set plus the
//! list of elements they reached, scratch local to one
//! [`compute_rings`] call; [`RankRings`] returns those lists, so no
//! hash table is built or probed. [`find_seeds`] deduplicates with one
//! `seen` flag per element: an element has one owner, so one flag serves
//! every rank.

use crate::ownership::Ownership;
use op2_core::{Domain, SetId};
use op2_mesh::Csr;
use std::collections::VecDeque;

/// Shared, read-only adjacency for ring computation: every map's forward
/// values plus its reverse CSR. Build once per domain.
pub struct MapAdj<'a> {
    dom: &'a Domain,
    /// `reverse[m]` = CSR from to-set elements back to from-set elements.
    reverse: Vec<Csr>,
}

impl<'a> MapAdj<'a> {
    /// Precompute reverse adjacency for every map.
    pub fn build(dom: &'a Domain) -> Self {
        let reverse = dom
            .maps()
            .iter()
            .map(|m| Csr::reverse(m, dom.set(m.to).size))
            .collect();
        MapAdj { dom, reverse }
    }

    /// Maps *from* `set`, as (map index, arity, values, to-set).
    fn maps_from(&self, set: SetId) -> impl Iterator<Item = (&op2_core::MapData, SetId)> {
        self.dom
            .maps()
            .iter()
            .filter(move |m| m.from == set)
            .map(|m| (m, m.to))
    }

    /// Maps *into* `set`, each with its reverse CSR.
    pub(crate) fn reverse_into(
        &self,
        set: SetId,
    ) -> impl Iterator<Item = (&op2_core::MapData, &Csr)> {
        self.dom
            .maps()
            .iter()
            .zip(self.reverse.iter())
            .filter(move |(m, _)| m.to == set)
    }

    /// Reverse rows of maps *into* `set`.
    fn maps_into(&self, set: SetId) -> impl Iterator<Item = (&Csr, SetId)> {
        self.reverse_into(set).map(|(m, r)| (r, m.from))
    }
}

/// Ring/depth data for one rank: compact per-set lists, each in the
/// BFS's discovery order.
#[derive(Debug, Clone)]
pub struct RankRings {
    /// The rank.
    pub rank: u32,
    /// `imports[set]` — foreign elements within the requested depth, as
    /// `(global id, ring (1-based), exec)`. `exec` marks the imports
    /// reached through a *backward* (cost-1) crossing: iterating elements
    /// whose redundant execution contributes to this rank's data — OP2's
    /// import-**execute** halo (*ieh*/*eeh* side of Fig 4). The others
    /// were reached only through forward crossings: read-only data, OP2's
    /// **non-execute** halo (*inh*/*enh*).
    pub imports: Vec<Vec<(u32, u8, bool)>>,
    /// `inner[set]` — owned elements within the requested core depth, as
    /// `(global id, inner depth)` (0-based; 0 = reads foreign data
    /// directly). Owned elements absent from the list are deeper than the
    /// requested bound.
    pub inner: Vec<Vec<(u32, u8)>>,
}

/// Per-rank seeds found by one global scan over all maps: boundary-owned
/// elements, i.e. elements incident (in either direction) to an element
/// of another rank.
pub struct Seeds {
    /// `boundary[rank]` = (set, element) pairs owned by `rank` with at
    /// least one foreign incidence.
    pub boundary: Vec<Vec<(u32, u32)>>,
}

/// Scan every map once, recording each rank's boundary-owned elements.
pub fn find_seeds(dom: &Domain, own: &Ownership) -> Seeds {
    let mut boundary: Vec<Vec<(u32, u32)>> = vec![Vec::new(); own.nparts];
    // An element has one owner, so one `seen` flag per element keeps
    // every rank's list free of duplicates.
    let mut seen = crate::per_set(dom, false);
    for m in dom.maps() {
        let fo = &own.owner[m.from.idx()];
        let to = &own.owner[m.to.idx()];
        for (a, row) in m.values.chunks_exact(m.arity).enumerate() {
            let ra = fo[a];
            for &b in row {
                let rb = to[b as usize];
                if ra != rb {
                    if !std::mem::replace(&mut seen[m.from.idx()][a], true) {
                        boundary[ra as usize].push((m.from.0, a as u32));
                    }
                    if !std::mem::replace(&mut seen[m.to.idx()][b as usize], true) {
                        boundary[rb as usize].push((m.to.0, b));
                    }
                }
            }
        }
    }
    Seeds { boundary }
}

/// Per-set dense BFS state of one [`compute_rings`] call. Foreign and
/// owned elements never meet in one BFS, so one table holds both
/// distances: `dist[set][e]` is a foreign element's ring, or an owned
/// element's inner depth + 1; 0 = unreached.
struct Dense {
    dist: Vec<Vec<u8>>,
    /// Reached elements per set, in discovery order.
    touched: Vec<Vec<u32>>,
}

impl Dense {
    /// Lower `dist[set][e]` to `d` (≥ 1); whether it moved.
    #[inline]
    fn relax(&mut self, set: SetId, e: u32, d: u8) -> bool {
        let slot = &mut self.dist[set.idx()][e as usize];
        if *slot == 0 {
            self.touched[set.idx()].push(e);
        } else if d >= *slot {
            return false;
        }
        *slot = d;
        true
    }
}

/// Compute import rings (to depth `max_ring`) and inner core depths (to
/// depth `max_inner`) for one rank.
pub fn compute_rings(
    dom: &Domain,
    adj: &MapAdj<'_>,
    own: &Ownership,
    seeds: &Seeds,
    rank: u32,
    max_ring: u8,
    max_inner: u8,
) -> RankRings {
    let mut st = Dense {
        dist: crate::per_set(dom, 0u8),
        touched: vec![Vec::new(); dom.n_sets()],
    };
    let mut exec = crate::per_set(dom, false);
    let my_seeds = &seeds.boundary[rank as usize];

    // ---- Outer 0-1 BFS: import rings over foreign elements. ----
    // Deque of (set, elem, ring); owned elements are implicit ring 0 and
    // only the seeds among them can start shortest paths.
    let mut dq: VecDeque<(u32, u32, u8)> = VecDeque::new();
    for &(s, e) in my_seeds {
        dq.push_back((s, e, 0));
    }
    while let Some((s, e, d)) = dq.pop_front() {
        let set = SetId(s);
        let foreign = own.owner[set.idx()][e as usize] != rank;
        // Stale queue entry?
        if foreign && st.dist[set.idx()][e as usize] < d {
            continue;
        }
        // Forward crossings: e iterates, its targets are data (cost 0,
        // clamp to 1 for foreign targets).
        for (m, to) in adj.maps_from(set) {
            let cand = d.max(1);
            if cand > max_ring {
                continue;
            }
            for i in 0..m.arity {
                let b = m.values[e as usize * m.arity + i];
                if own.owner[to.idx()][b as usize] != rank && st.relax(to, b, cand) {
                    // cost-0 edge → front of deque.
                    dq.push_front((to.0, b, cand));
                }
            }
        }
        // Backward crossings: elements referencing e (cost 1). These
        // are iterating elements executed redundantly — the execute
        // halo.
        let cand = d + 1;
        if cand <= max_ring {
            for (rev, from) in adj.maps_into(set) {
                for &a in rev.row(e as usize) {
                    if own.owner[from.idx()][a as usize] == rank {
                        continue;
                    }
                    exec[from.idx()][a as usize] = true;
                    if st.relax(from, a, cand) {
                        dq.push_back((from.0, a, cand));
                    }
                }
            }
        }
    }
    let imports: Vec<Vec<(u32, u8, bool)>> = st
        .touched
        .iter_mut()
        .enumerate()
        .map(|(sidx, t)| {
            std::mem::take(t)
                .into_iter()
                .map(|g| (g, st.dist[sidx][g as usize], exec[sidx][g as usize]))
                .collect()
        })
        .collect();

    // ---- Inner 0-1 BFS: core depths over owned elements. ----
    // Sources: seeds, with distance depending on crossing direction:
    // an owned element *reading* foreign data is depth 0; an owned
    // element only *written from* foreign elements is depth 1. Depths
    // are stored + 1.
    let mut dq: VecDeque<(u32, u32, u8)> = VecDeque::new();
    for &(s, e) in my_seeds {
        let set = SetId(s);
        // Does e read foreign data (forward crossing)?
        let reads_foreign = adj.maps_from(set).any(|(m, to)| {
            m.values[e as usize * m.arity..(e as usize + 1) * m.arity]
                .iter()
                .any(|&b| own.owner[to.idx()][b as usize] != rank)
        });
        // If not, it must be written from a foreign element.
        let d = if reads_foreign { 0 } else { 1 };
        if d <= max_inner && st.relax(set, e, d + 1) {
            if d == 0 {
                dq.push_front((s, e, 0));
            } else {
                dq.push_back((s, e, d));
            }
        }
    }
    while let Some((s, e, d)) = dq.pop_front() {
        let set = SetId(s);
        if st.dist[set.idx()][e as usize] <= d {
            continue;
        }
        // Dependents of e:
        // (1) owned iterating elements a with e among their targets
        //     depend on e at cost 0;
        for (rev, from) in adj.maps_into(set) {
            for &a in rev.row(e as usize) {
                if own.owner[from.idx()][a as usize] == rank && st.relax(from, a, d + 1) {
                    dq.push_front((from.0, a, d));
                }
            }
        }
        // (2) data elements b targeted by e depend on e at cost 1.
        let cand = d + 1;
        if cand <= max_inner {
            for (m, to) in adj.maps_from(set) {
                for i in 0..m.arity {
                    let b = m.values[e as usize * m.arity + i];
                    if own.owner[to.idx()][b as usize] == rank && st.relax(to, b, cand + 1) {
                        dq.push_back((to.0, b, cand));
                    }
                }
            }
        }
    }
    let inner = st
        .touched
        .iter()
        .enumerate()
        .map(|(sidx, t)| t.iter().map(|&g| (g, st.dist[sidx][g as usize] - 1)).collect())
        .collect();

    RankRings {
        rank,
        imports,
        inner,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::derive_ownership;
    use crate::partitioner::rcb_partition;
    use op2_mesh::{Hex3D, Hex3DParams, Quad2D};

    fn quad_rings(nx: usize, ny: usize, nparts: usize, depth: u8) -> (Quad2D, Ownership, Vec<RankRings>) {
        let m = Quad2D::generate(nx, ny);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let adj = MapAdj::build(&m.dom);
        let seeds = find_seeds(&m.dom, &own);
        let rings = (0..nparts as u32)
            .map(|r| compute_rings(&m.dom, &adj, &own, &seeds, r, depth, depth))
            .collect();
        (m, own, rings)
    }

    /// `rr`'s rings as dense per-set tables, `u8::MAX` = not imported.
    fn ring_table(dom: &Domain, rr: &RankRings) -> Vec<Vec<u8>> {
        let mut t = crate::per_set(dom, u8::MAX);
        for (sidx, imp) in rr.imports.iter().enumerate() {
            for &(g, ring, _) in imp {
                t[sidx][g as usize] = ring;
            }
        }
        t
    }

    /// Invariant I1: for every map entry a → b with ring(a) ≤ e, b is
    /// imported at ring ≤ max(ring(a), 1). Invariant I2: for every entry,
    /// ring(a) ≤ ring(b) + 1 within the computed bound.
    #[test]
    fn ring_invariants_hold() {
        let depth = 3u8;
        let (m, own, rings) = quad_rings(8, 8, 4, depth);
        for rr in &rings {
            let table = ring_table(&m.dom, rr);
            let ring_of = |set: SetId, e: u32| -> u8 {
                if own.owner[set.idx()][e as usize] == rr.rank {
                    0
                } else {
                    table[set.idx()][e as usize]
                }
            };
            for map in m.dom.maps() {
                for a in 0..m.dom.set(map.from).size {
                    let ra = ring_of(map.from, a as u32);
                    for i in 0..map.arity {
                        let b = map.values[a * map.arity + i];
                        let rb = ring_of(map.to, b);
                        if ra < depth {
                            assert!(
                                rb <= ra.max(1),
                                "rank {} map {} a={a}(ring {ra}) b={b}(ring {rb})",
                                rr.rank,
                                map.name
                            );
                        }
                        if rb < depth {
                            assert!(
                                ra <= rb + 1,
                                "rank {} map {} a={a}(ring {ra}) b={b}(ring {rb})",
                                rr.rank,
                                map.name
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every ring-1 import corresponds to OP2's depth-1 halo: touching
    /// the owned region through one map crossing.
    #[test]
    fn ring_one_touches_owned() {
        let (m, own, rings) = quad_rings(6, 6, 3, 2);
        for rr in &rings {
            let table = ring_table(&m.dom, rr);
            for (sidx, imp) in rr.imports.iter().enumerate() {
                let set = SetId(sidx as u32);
                for &(e, ring, _) in imp {
                    assert_ne!(own.owner[set.idx()][e as usize], rr.rank);
                    if ring == 1 {
                        // One crossing away from owned: via forward or
                        // backward map incidence.
                        let mut touches = false;
                        for map in m.dom.maps() {
                            if map.from == set {
                                for i in 0..map.arity {
                                    let b = map.values[e as usize * map.arity + i];
                                    if own.owner[map.to.idx()][b as usize] == rr.rank {
                                        touches = true;
                                    }
                                }
                            }
                            if map.to == set {
                                for (a, row) in map.values.chunks_exact(map.arity).enumerate() {
                                    if row.contains(&e)
                                        && own.owner[map.from.idx()][a] == rr.rank
                                    {
                                        touches = true;
                                    }
                                }
                            }
                        }
                        // Ring 1 may also be a data element of a ring-1
                        // iterating element (cost-0 from a backward-cost-1
                        // element); accept one extra hop.
                        if !touches {
                            let mut via_ring1 = false;
                            for map in m.dom.maps() {
                                if map.to == set {
                                    for (a, row) in
                                        map.values.chunks_exact(map.arity).enumerate()
                                    {
                                        if row.contains(&e) && table[map.from.idx()][a] == 1 {
                                            via_ring1 = true;
                                        }
                                    }
                                }
                            }
                            assert!(via_ring1, "rank {} ring-1 import unattached", rr.rank);
                        }
                    }
                }
            }
        }
    }

    /// Inner depth 0 elements read foreign data directly; deeper owned
    /// elements read only owned data.
    #[test]
    fn inner_depth_zero_iff_reads_foreign() {
        let (m, own, rings) = quad_rings(8, 8, 4, 3);
        for rr in &rings {
            let mut depth_of: Vec<Vec<Option<u8>>> =
                m.dom.sets().iter().map(|s| vec![None; s.size]).collect();
            for (sidx, inner) in rr.inner.iter().enumerate() {
                for &(g, d) in inner {
                    depth_of[sidx][g as usize] = Some(d);
                }
            }
            // reads_foreign must be judged across *all* maps from a set
            // (an edge can read foreign cells while its nodes are owned).
            for sidx in 0..m.dom.n_sets() {
                let set = SetId(sidx as u32);
                for a in 0..m.dom.sets()[sidx].size {
                    if own.owner[sidx][a] != rr.rank {
                        continue;
                    }
                    let reads_foreign = m.dom.maps().iter().filter(|mp| mp.from == set).any(
                        |mp| {
                            (0..mp.arity).any(|i| {
                                let b = mp.values[a * mp.arity + i];
                                own.owner[mp.to.idx()][b as usize] != rr.rank
                            })
                        },
                    );
                    let depth = depth_of[sidx][a];
                    if reads_foreign {
                        assert_eq!(depth, Some(0), "rank {} set {sidx} elem {a}", rr.rank);
                    } else if let Some(d) = depth {
                        assert!(d >= 1, "rank {} set {sidx} elem {a} depth {d}", rr.rank);
                    }
                }
            }
        }
    }

    /// On a 3D mesh split in two, import ring sizes grow like one layer
    /// of the cut plane per ring.
    #[test]
    fn hex_ring_sizes_match_cut_plane() {
        let n = 8;
        let m = Hex3D::generate(Hex3DParams::cube(n));
        let base = rcb_partition(m.node_coords(), 3, 2);
        let own = derive_ownership(&m.dom, m.nodes, base, 2);
        let adj = MapAdj::build(&m.dom);
        let seeds = find_seeds(&m.dom, &own);
        let rr = compute_rings(&m.dom, &adj, &own, &seeds, 0, 2, 2);
        // Node imports at ring 1: exactly one n×n plane.
        let at = |ring| {
            rr.imports[m.nodes.idx()]
                .iter()
                .filter(|&&(_, r, _)| r == ring)
                .count()
        };
        let r1 = at(1);
        assert_eq!(r1, n * n);
        let r2 = at(2);
        assert_eq!(r2, n * n);
    }
}
