//! Migration planning for online rebalancing.
//!
//! A migration replaces the base-set partition of a live mesh with a
//! new (typically cost-weighted) one and derives everything the runtime
//! needs to switch layouts:
//!
//! 1. the new base assignment comes from one of the weighted
//!    partitioners ([`crate::partitioner`]), fed with per-element cost
//!    weights measured by the runtime's imbalance detector;
//! 2. ownership propagates to every set exactly as at startup
//!    ([`crate::ownership::derive_ownership`]) — the diff against the
//!    *old* ownership yields, per ordered rank pair, the element move
//!    lists the executor must ship;
//! 3. rings, halos, and the grouped-message layouts are rebuilt for the
//!    new owners ([`crate::layout::build_layouts`]).
//!
//! The planner is pure and deterministic: same domain, same old
//! ownership, same new base assignment → same plan on every rank. The
//! runtime-side executor (`op2-runtime`'s `rebalance` module) ships
//! the dat slices named by the move lists over the fault-tolerant
//! transport and bumps the layout epoch.

use crate::layout::{build_layouts, RankLayout};
use crate::ownership::{derive_ownership, Ownership};
use op2_core::{Domain, SetId};

/// Elements of one set moving between one rank pair, as ascending
/// global ids — the renumbering table the executor ships alongside the
/// dat slices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetMoves {
    /// The set the elements belong to.
    pub set: SetId,
    /// Global element ids changing owner, ascending.
    pub elems: Vec<u32>,
}

/// Every element one rank must ship to one new owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveList {
    /// Old owner (sender).
    pub from: u32,
    /// New owner (receiver).
    pub to: u32,
    /// Per-set move lists, ordered by set id; empty sets omitted.
    pub sets: Vec<SetMoves>,
}

impl MoveList {
    /// Total elements in this move list.
    pub fn elements(&self) -> usize {
        self.sets.iter().map(|s| s.elems.len()).sum()
    }
}

/// A complete, deterministic migration: the new partition, the new
/// per-rank layouts, and the per-peer move lists diffing old against
/// new ownership.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// Rank count (unchanged by migration).
    pub nparts: usize,
    /// New base-set owner per element.
    pub base_owner: Vec<u32>,
    /// New ownership of every set.
    pub ownership: Ownership,
    /// Rebuilt per-rank layouts (rings, halos, grouped-message plans).
    pub layouts: Vec<RankLayout>,
    /// Per ordered (from, to) rank pair with at least one moved
    /// element, sorted by (from, to).
    pub moves: Vec<MoveList>,
}

impl MigrationPlan {
    /// Total elements changing owner, over all sets.
    pub fn elements_moved(&self) -> usize {
        self.moves.iter().map(|m| m.elements()).sum()
    }

    /// Move lists `rank` must send (it is the old owner).
    pub fn outgoing(&self, rank: u32) -> impl Iterator<Item = &MoveList> {
        self.moves.iter().filter(move |m| m.from == rank)
    }

    /// Move lists `rank` will receive (it is the new owner).
    pub fn incoming(&self, rank: u32) -> impl Iterator<Item = &MoveList> {
        self.moves.iter().filter(move |m| m.to == rank)
    }

    /// Payload f64 slots a move list occupies on the wire: one id slot
    /// per element (the renumbering table) plus the dat slices of every
    /// dat declared on its sets.
    pub fn wire_f64s(dom: &Domain, m: &MoveList) -> usize {
        let mut slots = 0;
        for sm in &m.sets {
            let mut per_elem = 1; // the global id
            for d in dom.dats() {
                if d.set == sm.set {
                    per_elem += d.dim;
                }
            }
            slots += sm.elems.len() * per_elem;
        }
        slots
    }
}

/// Reconstruct the [`Ownership`] a set of built layouts describes: each
/// rank's owned elements are the owned prefix of its locals. The inverse
/// of [`build_layouts`]'s input, letting the runtime plan a migration
/// from the layouts alone (drivers rarely keep the original owner
/// vectors around).
pub fn ownership_from_layouts(dom: &Domain, layouts: &[RankLayout]) -> Ownership {
    let nparts = layouts.len();
    let mut owner: Vec<Vec<u32>> = dom.sets().iter().map(|s| vec![u32::MAX; s.size]).collect();
    for l in layouts {
        for (s, sl) in l.sets.iter().enumerate() {
            for &g in &sl.locals[..sl.n_owned] {
                debug_assert_eq!(owner[s][g as usize], u32::MAX, "element owned twice");
                owner[s][g as usize] = l.rank;
            }
        }
    }
    for (s, own) in owner.iter().enumerate() {
        assert!(
            own.iter().all(|&o| o != u32::MAX),
            "set {s}: element with no owner in the given layouts"
        );
    }
    Ownership { nparts, owner }
}

/// Plan a migration of `dom` from `old` ownership to the partition
/// given by `new_base` (an owner per element of `base`), building
/// layouts with `depth` halo layers.
///
/// # Panics
/// Panics if `new_base` has the wrong length or names a rank outside
/// `old.nparts` — the rank count cannot change across a migration.
pub fn plan_migration(
    dom: &Domain,
    base: SetId,
    old: &Ownership,
    new_base: Vec<u32>,
    depth: usize,
) -> MigrationPlan {
    let nparts = old.nparts;
    assert_eq!(new_base.len(), dom.set(base).size);
    assert!(
        new_base.iter().all(|&o| (o as usize) < nparts),
        "migration cannot change the rank count"
    );
    let ownership = derive_ownership(dom, base, new_base.clone(), nparts);
    let layouts = build_layouts(dom, &ownership, depth);

    // Diff old vs new ownership into per-(from, to) move lists. BTreeMap
    // keeps the pair order deterministic.
    let mut moves: std::collections::BTreeMap<(u32, u32), Vec<SetMoves>> =
        std::collections::BTreeMap::new();
    for (s, new_own) in ownership.owner.iter().enumerate() {
        let set = SetId(s as u32);
        let old_own = &old.owner[s];
        for (e, (&was, &now)) in old_own.iter().zip(new_own).enumerate() {
            if was == now {
                continue;
            }
            let sets = moves.entry((was, now)).or_default();
            match sets.iter_mut().find(|sm| sm.set == set) {
                Some(sm) => sm.elems.push(e as u32),
                None => sets.push(SetMoves {
                    set,
                    elems: vec![e as u32],
                }),
            }
        }
    }
    let moves = moves
        .into_iter()
        .map(|((from, to), mut sets)| {
            sets.sort_by_key(|sm| sm.set.idx());
            MoveList { from, to, sets }
        })
        .collect();

    MigrationPlan {
        nparts,
        base_owner: new_base,
        ownership,
        layouts,
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::{rcb_partition, rcb_partition_weighted};
    use op2_mesh::Quad2D;

    fn quad_ownership(m: &Quad2D, nparts: usize) -> (Vec<u32>, Ownership) {
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base.clone(), nparts);
        (base, own)
    }

    #[test]
    fn identity_migration_moves_nothing() {
        let m = Quad2D::generate(6, 6);
        let (base, own) = quad_ownership(&m, 4);
        let plan = plan_migration(&m.dom, m.nodes, &own, base, 2);
        assert!(plan.moves.is_empty());
        assert_eq!(plan.elements_moved(), 0);
        assert_eq!(plan.layouts.len(), 4);
    }

    #[test]
    fn weighted_reshard_diffs_into_consistent_move_lists() {
        let m = Quad2D::generate(8, 8);
        let (_, old) = quad_ownership(&m, 4);
        let coords = &m.dom.dat(m.coords).data;
        let n = coords.len() / 2;
        // Left half of the mesh becomes 5x hotter.
        let weights: Vec<f64> = (0..n)
            .map(|e| if coords[e * 2] < 3.5 { 5.0 } else { 1.0 })
            .collect();
        let new_base = rcb_partition_weighted(coords, 2, &weights, 4);
        let plan = plan_migration(&m.dom, m.nodes, &old, new_base.clone(), 2);

        assert!(plan.elements_moved() > 0, "skewed weights must move elements");
        // Every moved element's (from, to) matches the ownership diff,
        // every pair is distinct, and ids are ascending.
        for ml in &plan.moves {
            assert_ne!(ml.from, ml.to);
            for sm in &ml.sets {
                assert!(sm.elems.windows(2).all(|w| w[0] < w[1]));
                for &e in &sm.elems {
                    assert_eq!(old.of(sm.set, e as usize), ml.from);
                    assert_eq!(plan.ownership.of(sm.set, e as usize), ml.to);
                }
            }
        }
        // The diff is complete: moved-element count equals the number of
        // elements whose owner differs between the two ownerships.
        let mut expect = 0usize;
        for (s, new_own) in plan.ownership.owner.iter().enumerate() {
            expect += old.owner[s]
                .iter()
                .zip(new_own)
                .filter(|(a, b)| a != b)
                .count();
        }
        assert_eq!(plan.elements_moved(), expect);
        // New layouts describe the new ownership.
        for (r, l) in plan.layouts.iter().enumerate() {
            for (s, sl) in l.sets.iter().enumerate() {
                assert_eq!(
                    sl.n_owned,
                    plan.ownership.count(SetId(s as u32), r as u32),
                    "rank {r} set {s}"
                );
            }
        }
    }

    #[test]
    fn ownership_roundtrips_through_layouts() {
        let m = Quad2D::generate(6, 6);
        let (_, own) = quad_ownership(&m, 3);
        let layouts = build_layouts(&m.dom, &own, 2);
        let back = ownership_from_layouts(&m.dom, &layouts);
        assert_eq!(back.nparts, own.nparts);
        assert_eq!(back.owner, own.owner);
    }

    #[test]
    fn wire_size_counts_ids_and_dat_slices() {
        let m = Quad2D::generate(4, 4);
        let (_, old) = quad_ownership(&m, 2);
        // Swap the two ranks: every element moves.
        let flipped: Vec<u32> = old.owner[m.nodes.idx()].iter().map(|&o| 1 - o).collect();
        let plan = plan_migration(&m.dom, m.nodes, &old, flipped, 2);
        let total: usize = plan
            .moves
            .iter()
            .map(|ml| MigrationPlan::wire_f64s(&m.dom, ml))
            .sum();
        // At minimum one id slot per moved element.
        assert!(total >= plan.elements_moved());
    }

    #[test]
    #[should_panic(expected = "rank count")]
    fn rank_count_change_rejected() {
        let m = Quad2D::generate(4, 4);
        let (_, own) = quad_ownership(&m, 2);
        let bad = vec![2u32; m.dom.set(m.nodes).size];
        plan_migration(&m.dom, m.nodes, &own, bad, 2);
    }
}
