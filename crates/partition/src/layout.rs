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
//!   sorted by (owner rank, global id), which makes every neighbour's
//!   contribution to every level a *contiguous range* — the receive side
//!   of the paper's grouped halo message (Figure 8) unpacks with plain
//!   `memcpy`s, and per-level execute ranges need no indirection lists;
//! * **maps are localized**: every map row of a local element is
//!   rewritten to local indices (entries pointing beyond the built depth
//!   hold [`NONLOCAL`] and are never dereferenced by a correct executor).
//!
//! [`build_layouts`] is the inspection phase of Alg 2 (performed globally
//! here — OP2 performs it cooperatively over MPI, but the produced
//! per-rank structures are identical in shape).

use crate::ownership::Ownership;
use crate::rings::{compute_rings, find_seeds, MapAdj};
use op2_core::{Domain, MapData, SetId};
use std::collections::HashMap;

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
        let rings: usize = self
            .import_level_counts
            .iter()
            .take(ext)
            .sum();
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
/// sides enumerate segments in identical (set, level, global-id) order,
/// so a single packed buffer per neighbour round-trips without headers —
/// exactly the grouped layout of Figure 8.
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
    /// conflict inspectors take.
    pub fn set_sizes(&self) -> Vec<usize> {
        self.sets.iter().map(|s| s.n_local()).collect()
    }

    /// Gather a global dat into this rank's local order.
    pub fn gather_dat(&self, dom: &Domain, dat: op2_core::DatId) -> Vec<f64> {
        let d = dom.dat(dat);
        let sl = &self.sets[d.set.idx()];
        let mut out = Vec::with_capacity(sl.n_local() * d.dim);
        for &g in &sl.locals {
            let g = g as usize;
            out.extend_from_slice(&d.data[g * d.dim..(g + 1) * d.dim]);
        }
        out
    }

    /// Scatter the owned portion of a local dat buffer back to the
    /// global dat (halos are the owners' responsibility).
    pub fn scatter_owned(&self, dom: &mut Domain, dat: op2_core::DatId, local: &[f64]) {
        let (set, dim) = {
            let d = dom.dat(dat);
            (d.set, d.dim)
        };
        let sl = &self.sets[set.idx()];
        let d = dom.dat_mut(dat);
        for (l, &g) in sl.locals[..sl.n_owned].iter().enumerate() {
            let g = g as usize;
            d.data[g * dim..(g + 1) * dim].copy_from_slice(&local[l * dim..(l + 1) * dim]);
        }
    }
}

/// Build every rank's layout — the (global) inspection phase.
///
/// `depth` is the maximum halo extent any loop-chain will request; the
/// paper's configuration file carries the same bound per chain.
pub fn build_layouts(dom: &Domain, own: &Ownership, depth: usize) -> Vec<RankLayout> {
    assert!(depth >= 1 && depth < u8::MAX as usize);
    let nparts = own.nparts;
    let adj = MapAdj::build(dom);
    let seeds = find_seeds(dom, own);
    let n_sets = dom.n_sets();

    // Owned lists per (rank, set) in one global pass.
    let mut owned: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new(); n_sets]; nparts];
    for (sidx, o) in own.owner.iter().enumerate() {
        for (e, &r) in o.iter().enumerate() {
            owned[r as usize][sidx].push(e as u32);
        }
    }

    // Rings per rank.
    let rings: Vec<_> = (0..nparts as u32)
        .map(|r| compute_rings(dom, &adj, own, &seeds, r, depth as u8, depth as u8))
        .collect();

    // Per-rank set layouts + global→local tables.
    struct Built {
        sets: Vec<SetLayout>,
        g2l: Vec<HashMap<u32, u32>>,
        /// Per set: (owner, level, global, local) of every import, in
        /// local order.
        import_meta: Vec<Vec<(u32, u8, u32, u32)>>,
    }
    let mut built: Vec<Built> = Vec::with_capacity(nparts);

    for r in 0..nparts {
        let rr = &rings[r];
        let mut sets = Vec::with_capacity(n_sets);
        let mut g2l: Vec<HashMap<u32, u32>> = Vec::with_capacity(n_sets);
        let mut import_meta = Vec::with_capacity(n_sets);
        for sidx in 0..n_sets {
            // Owned: sort by descending inner depth (missing = deep),
            // then ascending global id.
            let deep = depth as u8 + 1;
            let inner = &rr.inner[sidx];
            let mut own_sorted = owned[r][sidx].clone();
            own_sorted.sort_unstable_by_key(|&g| {
                let d = inner.get(&g).copied().unwrap_or(deep);
                (std::cmp::Reverse(d), g)
            });
            let n_owned = own_sorted.len();
            let mut core_prefix = vec![0usize; depth + 2];
            core_prefix[0] = n_owned;
            for k in 1..=depth + 1 {
                core_prefix[k] = own_sorted
                    .iter()
                    .take_while(|&&g| inner.get(&g).copied().unwrap_or(deep) >= k as u8)
                    .count();
            }

            // Imports: per level, sorted by (owner, global id).
            let set_owner = &own.owner[sidx];
            let mut per_level: Vec<Vec<(u32, u32)>> = vec![Vec::new(); depth];
            for (&g, &ring) in &rr.imports[sidx] {
                debug_assert!((1..=depth as u8).contains(&ring));
                per_level[ring as usize - 1].push((set_owner[g as usize], g));
            }
            for lvl in &mut per_level {
                lvl.sort_unstable();
            }

            let mut locals = own_sorted;
            let mut meta = Vec::new();
            let mut table: HashMap<u32, u32> =
                locals.iter().enumerate().map(|(l, &g)| (g, l as u32)).collect();
            for (li, lvl) in per_level.iter().enumerate() {
                for &(owner_rank, g) in lvl {
                    let local = locals.len() as u32;
                    locals.push(g);
                    table.insert(g, local);
                    meta.push((owner_rank, li as u8 + 1, g, local));
                }
            }
            let import_level_counts = per_level.iter().map(Vec::len).collect();
            sets.push(SetLayout {
                n_owned,
                core_prefix,
                import_level_counts,
                locals,
            });
            g2l.push(table);
            import_meta.push(meta);
        }
        built.push(Built {
            sets,
            g2l,
            import_meta,
        });
    }

    // Localize maps per rank.
    let mut layouts: Vec<RankLayout> = Vec::with_capacity(nparts);
    for (r, b) in built.iter().enumerate() {
        let mut maps = Vec::with_capacity(dom.n_maps());
        for m in dom.maps() {
            let from_locals = &b.sets[m.from.idx()].locals;
            let to_table = &b.g2l[m.to.idx()];
            let mut values = Vec::with_capacity(from_locals.len() * m.arity);
            for &g in from_locals {
                let row = &m.values[g as usize * m.arity..(g as usize + 1) * m.arity];
                for &t in row {
                    values.push(to_table.get(&t).copied().unwrap_or(NONLOCAL));
                }
            }
            maps.push(MapData {
                name: m.name.clone(),
                from: m.from,
                to: m.to,
                arity: m.arity,
                values,
            });
        }
        layouts.push(RankLayout {
            rank: r as u32,
            nparts,
            depth,
            sets: b.sets.clone(),
            maps,
            neighbors: Vec::new(),
        });
    }

    // Exchange plans: receiver side from import_meta (contiguous because
    // levels are sorted by owner), sender side by lookup into the
    // sender's owned table.
    for r in 0..nparts {
        // neighbour → (recv segments, send segments-to-fill-later)
        let mut recv_by: HashMap<u32, Vec<RecvSegment>> = HashMap::new();
        for sidx in 0..n_sets {
            let meta = &built[r].import_meta[sidx];
            let mut i = 0;
            while i < meta.len() {
                let (owner_rank, level, _, start_local) = meta[i];
                let mut j = i;
                while j < meta.len() && meta[j].0 == owner_rank && meta[j].1 == level {
                    j += 1;
                }
                recv_by.entry(owner_rank).or_default().push(RecvSegment {
                    set: SetId(sidx as u32),
                    level,
                    start: start_local,
                    len: (j - i) as u32,
                });
                i = j;
            }
        }
        let mut nbr_ranks: Vec<u32> = recv_by.keys().copied().collect();
        nbr_ranks.sort_unstable();
        for s in nbr_ranks {
            // Sort recv segments by (set, level) — the wire order.
            let mut recv = recv_by.remove(&s).unwrap();
            recv.sort_by_key(|seg| (seg.set, seg.level, seg.start));
            // Build matching send segments on rank s.
            let mut send = Vec::with_capacity(recv.len());
            for seg in &recv {
                let meta = &built[r].import_meta[seg.set.idx()];
                // Elements of this segment, in receiver order (sorted by
                // global id within (owner, level)); sender locals looked
                // up in s's owned table.
                let elems: Vec<u32> = meta
                    .iter()
                    .filter(|(o, l, _, local)| {
                        *o == s && *l == seg.level && {
                            let lr = *local;
                            lr >= seg.start && lr < seg.start + seg.len
                        }
                    })
                    .map(|(_, _, g, _)| {
                        *built[s as usize].g2l[seg.set.idx()]
                            .get(g)
                            .expect("sender owns every exported element")
                    })
                    .collect();
                debug_assert_eq!(elems.len(), seg.len as usize);
                send.push(SendSegment {
                    set: seg.set,
                    level: seg.level,
                    elems,
                });
            }
            // Register on both sides.
            layouts[s as usize]
                .neighbors
                .iter_mut()
                .find(|n| n.rank == r as u32)
                .map(|n| {
                    n.send.extend(send.iter().cloned());
                })
                .unwrap_or_else(|| {
                    layouts[s as usize].neighbors.push(NeighborPlan {
                        rank: r as u32,
                        send,
                        recv: Vec::new(),
                    });
                });
            layouts[r]
                .neighbors
                .iter_mut()
                .find(|n| n.rank == s)
                .map(|n| {
                    n.recv.extend(recv.iter().copied());
                })
                .unwrap_or_else(|| {
                    layouts[r].neighbors.push(NeighborPlan {
                        rank: s,
                        send: Vec::new(),
                        recv,
                    });
                });
        }
    }
    for l in &mut layouts {
        l.neighbors.sort_by_key(|n| n.rank);
        for n in &mut l.neighbors {
            n.send.sort_by_key(|s| (s.set, s.level));
            n.recv.sort_by_key(|s| (s.set, s.level, s.start));
        }
    }
    layouts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ownership::derive_ownership;
    use crate::partitioner::rcb_partition;
    use op2_mesh::Quad2D;

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
            let mut local = l.gather_dat(&m.dom, d);
            let sl = &l.sets[m.nodes.idx()];
            for x in &mut local[..sl.n_owned * 2] {
                *x *= 2.0;
            }
            l.scatter_owned(&mut m.dom, d, &local);
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
}
