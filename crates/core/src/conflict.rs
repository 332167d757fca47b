//! The conflict rule — the one decision every bitwise-identical
//! threaded execution in this crate rests on.
//!
//! A *unit* is a [`Chunk`] one worker runs without interruption: a block
//! of contiguous iterations ([`Piece::Range`]) or an explicit iteration
//! list ([`Piece::List`]), of one loop or of several. Given the units
//! in **sequential order**, [`conflict_levels`] assigns
//!
//! > `level(u) = 1 + max{ level(u') : u' < u and u' conflicts with u }`
//!
//! where two units conflict when they touch a common element of a
//! selected dat with at least one side modifying it: a writer waits for
//! every earlier toucher, a reader only for earlier writers. Consequences:
//!
//! * **race freedom** — same-level units touch disjoint modified
//!   elements, so they run on different threads without atomics;
//! * **order preservation** — a conflicting pair `u' < u` always has
//!   `level(u') < level(u)`, and levels execute in ascending order, so
//!   every element receives its updates in sequential unit order. Results
//!   are **bitwise equal** to the sequential walk at any thread count and
//!   any chunk order within a level. (A greedy minimum colouring cannot
//!   promise this — it reorders conflicting iterations across colours.)
//!
//! Touches are tracked per (set, element), not per (dat, element): two
//! dats on one set share their stamps, which is conservative — it can
//! only add levels, never drop an ordering.
//!
//! One selector picks the dats: [`conflict_accesses`] keeps the dats a
//! loop modifies through a map, as [`ConflictAccess`] descriptors;
//! [`for_each_touch`] is the one walker resolving a unit to the elements
//! it touches, shared by the levelizer and the checker [`levels_valid`].
//! [`Schedule::from_levels`], the only place `(units, levels)` become a
//! leveled [`Schedule`], runs the checker under `debug_assert!`.
//!
//! [`Schedule`]: crate::schedule::Schedule
//! [`Schedule::from_levels`]: crate::schedule::Schedule::from_levels

use crate::access::Arg;
use crate::domain::{DatId, MapData, MapId, SetId};
use crate::loops::LoopSig;
use crate::schedule::{Chunk, Piece};

/// One access that can induce a cross-iteration conflict: which set it
/// lands on, through which map (or directly), and whether it modifies.
#[derive(Debug, Clone, Copy)]
pub struct ConflictAccess<'a> {
    /// `Some((map values, arity, index))` for indirect accesses, `None`
    /// for direct ones (target element = iteration index).
    pub map: Option<(&'a [u32], usize, usize)>,
    /// Target set index.
    pub set: usize,
    /// Whether this access modifies the target element.
    pub writes: bool,
}

impl<'a> ConflictAccess<'a> {
    /// The access of a dat argument of a loop over `iter_set`: through
    /// `map` (entry index included) or directly.
    pub(crate) fn new(
        maps: &'a [MapData],
        iter_set: SetId,
        map: Option<(MapId, u16)>,
        writes: bool,
    ) -> Self {
        match map {
            Some((m, idx)) => {
                let md = &maps[m.idx()];
                ConflictAccess {
                    map: Some((md.values.as_slice(), md.arity, idx as usize)),
                    set: md.to.idx(),
                    writes,
                }
            }
            None => ConflictAccess {
                map: None,
                set: iter_set.idx(),
                writes,
            },
        }
    }

    /// Target element of iteration `e` in the access's target set. Like
    /// the executor (`kernel::resolve`), asserts in debug
    /// builds that the map entry is not the `u32::MAX` sentinel a
    /// localized map holds beyond the built halo depth: rows of every
    /// iteration inside an executable extent resolve locally.
    #[inline]
    pub(crate) fn target(&self, e: usize) -> usize {
        match self.map {
            Some((values, arity, idx)) => {
                let v = values[e * arity + idx];
                debug_assert_ne!(
                    v,
                    u32::MAX,
                    "map entry {idx} of iteration {e} lies beyond the built halo depth"
                );
                v as usize
            }
            None => e,
        }
    }
}

/// The selector: every access (direct or indirect, read or write) of a
/// dat the loop modifies *through a map*. Dats modified only directly
/// are excluded — each iteration owns its element, so no two iterations
/// of one loop collide on them.
pub fn conflict_accesses<'a>(maps: &'a [MapData], sig: &LoopSig) -> Vec<ConflictAccess<'a>> {
    let selected = |d: DatId| matches!(sig.access_of(d), Some((mode, true)) if mode.modifies());
    let access = |a: &Arg| match a {
        Arg::Dat { dat, map, mode } if selected(*dat) => {
            Some(ConflictAccess::new(maps, sig.set, *map, mode.modifies()))
        }
        _ => None,
    };
    sig.args.iter().filter_map(access).collect()
}

/// Apply `f(access, target element)` for every touch of `unit`:
/// `accesses[j]` are chain loop `j`'s selected accesses.
pub fn for_each_touch(
    accesses: &[Vec<ConflictAccess<'_>>],
    unit: &Chunk,
    f: &mut impl FnMut(&ConflictAccess<'_>, usize),
) {
    for piece in &unit.pieces {
        let accesses = &accesses[piece.loop_idx()];
        let touch = |e: u32| {
            for a in accesses {
                f(a, a.target(e as usize));
            }
        };
        match piece {
            Piece::Range { start, end, .. } => (*start..*end).for_each(touch),
            Piece::List { iters, .. } => iters.iter().copied().for_each(touch),
        }
    }
}

/// Levelize `units` (given in sequential order) by the module's rule;
/// returns each unit's 0-based level. `set_sizes` bounds the target index
/// space per set. Works on global domains and on localized rank layouts
/// alike — callers pass whichever maps the units' iterations dereference.
pub fn conflict_levels(
    units: &[Chunk],
    accesses: &[Vec<ConflictAccess<'_>>],
    set_sizes: &[usize],
) -> Vec<u32> {
    let mut levels = vec![0u32; units.len()];
    if units.len() <= 1 || accesses.iter().all(Vec::is_empty) {
        return levels;
    }
    // Highest 1-based level of an earlier write / read touching each
    // element (0 = untouched). A writer must come strictly after every
    // earlier toucher; a reader only after earlier writers.
    let mut last_w: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![0u32; s]).collect();
    let mut last_r: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![0u32; s]).collect();
    for (unit, level) in units.iter().zip(&mut levels) {
        let mut need = 0u32;
        for_each_touch(accesses, unit, &mut |a, t| {
            need = need.max(last_w[a.set][t]);
            if a.writes {
                need = need.max(last_r[a.set][t]);
            }
        });
        *level = need;
        for_each_touch(accesses, unit, &mut |a, t| {
            let last = if a.writes { &mut last_w } else { &mut last_r };
            last[a.set][t] = last[a.set][t].max(need + 1);
        });
    }
    levels
}

/// Verify `levels` against the raw conflict structure, pair by pair:
/// every unit has a level (cover), and any two distinct units touching a
/// common element with at least one side modifying sit on strictly
/// ascending levels in unit order — which is both race freedom within a
/// level and the order preservation the bitwise contract needs. The
/// invariant the executors' `unsafe` assumes, in checkable form.
pub fn levels_valid(
    units: &[Chunk],
    levels: &[u32],
    accesses: &[Vec<ConflictAccess<'_>>],
    set_sizes: &[usize],
) -> bool {
    if levels.len() != units.len() {
        return false;
    }
    if accesses.iter().all(Vec::is_empty) {
        return true;
    }
    // Per element: the units touching it, ascending, with whether any of
    // the unit's touches writes (a unit's touches arrive together).
    let mut touches: Vec<Vec<Vec<(u32, bool)>>> =
        set_sizes.iter().map(|&s| vec![Vec::new(); s]).collect();
    for (u, unit) in units.iter().enumerate() {
        for_each_touch(accesses, unit, &mut |a, t| {
            match touches[a.set][t].last_mut() {
                Some((last, w)) if *last == u as u32 => *w |= a.writes,
                _ => touches[a.set][t].push((u as u32, a.writes)),
            }
        });
    }
    touches.iter().flatten().all(|list| {
        list.iter().enumerate().all(|(i, &(lo, w1))| {
            list[i + 1..]
                .iter()
                .all(|&(hi, w2)| !(w1 || w2) || levels[lo as usize] < levels[hi as usize])
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode::{Inc, Read};
    use crate::domain::Domain;
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use crate::schedule::{Schedule, ScheduleKind};

    fn noop(_: &Args<'_>) {}

    /// `(loop, first, one-past-last)` slices per unit.
    type Units<'a> = &'a [&'a [(u32, u32, u32)]];
    /// A table row: name, per-loop accesses, units, expected levels.
    type Row<'a> = (&'a str, Vec<Vec<ConflictAccess<'a>>>, Units<'a>, &'a [u32]);

    /// The units of `spec` twice over: as range pieces and as list
    /// pieces. The rule must not tell them apart.
    fn both_forms(spec: Units<'_>) -> [Vec<Chunk>; 2] {
        let build = |piece: &dyn Fn(u32, u32, u32) -> Piece| -> Vec<Chunk> {
            let unit = |u: &&[(u32, u32, u32)]| {
                Chunk::new(u.iter().map(|&(j, s, e)| piece(j, s, e)).collect())
            };
            spec.iter().map(unit).collect()
        };
        [
            build(&|loop_idx, start, end| Piece::Range {
                loop_idx,
                start,
                end,
            }),
            build(&|loop_idx, start, end| Piece::List {
                loop_idx,
                iters: (start..end).collect(),
            }),
        ]
    }

    /// The path 0–1–…–8 (edge `i` joins nodes `i`, `i+1`), four
    /// disconnected pairs over the same nodes, and the loops of the table.
    struct Fix {
        dom: Domain,
        /// edges: `r[n0] += …; r[n1] += …`, reading `s` at both ends.
        flux: LoopSig,
        /// pairs: the same increments over the disconnected pairs.
        pair_flux: LoopSig,
    }

    fn fix() -> Fix {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 9);
        let edges = dom.decl_set("edges", 8);
        let pairs = dom.decl_set("pairs", 4);
        let path: Vec<u32> = (0..8).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, path).unwrap();
        let p2n = dom.decl_map("p2n", pairs, nodes, 2, (0..8).collect()).unwrap();
        let r = dom.decl_dat_zeros("r", nodes, 1);
        let s = dom.decl_dat_zeros("s", nodes, 1);
        let sig = |set, args| LoopSpec::new("l", set, args, noop).sig();
        let inc = |m, i| Arg::dat_indirect(r, m, i, Inc);
        let read = |i| Arg::dat_indirect(s, e2n, i, Read);
        Fix {
            flux: sig(edges, vec![inc(e2n, 0), inc(e2n, 1), read(0), read(1)]),
            pair_flux: sig(pairs, vec![inc(p2n, 0), inc(p2n, 1)]),
            dom,
        }
    }

    const QUARTERS: Units<'static> = &[&[(0, 0, 2)], &[(0, 2, 4)], &[(0, 4, 6)], &[(0, 6, 8)]];

    /// The one rule over a table of conflict shapes, each as ranges and
    /// as lists, with the levels spelled out.
    #[test]
    fn levelizer_table() {
        let f = fix();
        let (maps, sizes) = (f.dom.maps(), f.dom.set_sizes());
        let standalone = |sig: &LoopSig| vec![conflict_accesses(maps, sig)];
        let e2n = &maps[0];
        let reads_only: Vec<ConflictAccess<'_>> = (0..2)
            .map(|idx| ConflictAccess {
                map: Some((&e2n.values, 2, idx)),
                set: e2n.to.idx(),
                writes: false,
            })
            .collect();
        let table: Vec<Row<'_>> = vec![
            // Consecutive blocks of a path share a node: a ladder.
            ("ladder", standalone(&f.flux), QUARTERS, &[0, 1, 2, 3]),
            // The same quarters in red-black order: neighbours never
            // adjacent in sequence, two levels.
            (
                "red-black",
                standalone(&f.flux),
                &[&[(0, 0, 2)], &[(0, 4, 6)], &[(0, 2, 4)], &[(0, 6, 8)]],
                &[0, 0, 1, 1],
            ),
            (
                "disjoint",
                standalone(&f.pair_flux),
                &[&[(0, 0, 1)], &[(0, 1, 2)], &[(0, 2, 3)], &[(0, 3, 4)]],
                &[0, 0, 0, 0],
            ),
            ("read-only", vec![reads_only], QUARTERS, &[0, 0, 0, 0]),
            ("empty access list", vec![Vec::new()], QUARTERS, &[0, 0, 0, 0]),
        ];
        for (name, accesses, spec, expect) in &table {
            for units in both_forms(spec) {
                let levels = conflict_levels(&units, accesses, &sizes);
                assert_eq!(&levels, expect, "{name}: {units:?}");
                assert!(levels_valid(&units, &levels, accesses, &sizes), "{name}");
            }
        }
    }

    /// The checker rejects what the executors' `unsafe` cannot survive —
    /// a conflicting pair sharing a level, a conflicting pair in
    /// descending order, a unit without a level — and accepts any
    /// ascending assignment, gaps included.
    #[test]
    fn checker_rejects_bad_levels() {
        let f = fix();
        let (accesses, sizes) = ([conflict_accesses(f.dom.maps(), &f.flux)], f.dom.set_sizes());
        for units in both_forms(QUARTERS) {
            let valid = |levels: &[u32]| levels_valid(&units, levels, &accesses, &sizes);
            assert!(valid(&[0, 1, 2, 3]));
            assert!(valid(&[0, 2, 3, 7]));
            assert!(!valid(&[0, 0, 2, 3]), "blocks 0 and 1 share node 2 and a level");
            assert!(!valid(&[1, 0, 2, 3]), "blocks 0 and 1 conflict in descending order");
            assert!(!valid(&[0, 1, 3, 2]));
            assert!(!valid(&[0, 1, 2]), "block 3 is missing from the cover");
        }
    }

    /// Gaps in the level vector are compacted by the constructor, unit
    /// order within a level is kept.
    #[test]
    fn constructor_buckets_in_order_and_drops_empty_levels() {
        let f = fix();
        let (accesses, sizes) = ([conflict_accesses(f.dom.maps(), &f.flux)], f.dom.set_sizes());
        let [units, _] = both_forms(&[&[(0, 0, 2)], &[(0, 4, 6)], &[(0, 6, 8)]]);
        let kind = ScheduleKind::Colored { block_size: 2 };
        let sched = Schedule::from_levels(kind, units.clone(), &[1, 1, 4], &accesses, &sizes);
        assert_eq!((sched.n_loops, sched.n_levels()), (1, 2));
        assert_eq!(sched.levels[0].chunks, units[..2]);
        assert_eq!(sched.levels[1].chunks, units[2..]);
    }

    /// The audit sits in the constructor: no leveled schedule with a
    /// racing level can be built in a debug build.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "conflicting units share a level or descend")]
    fn constructor_audits_levels() {
        let f = fix();
        let (accesses, sizes) = ([conflict_accesses(f.dom.maps(), &f.flux)], f.dom.set_sizes());
        let [units, _] = both_forms(QUARTERS);
        let kind = ScheduleKind::Colored { block_size: 2 };
        Schedule::from_levels(kind, units, &[0, 0, 1, 2], &accesses, &sizes);
    }

    /// One sentinel policy: a map entry beyond the built halo depth is a
    /// bug at the call site, named by the assert — as in the executor.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "map entry 1 of iteration 0 lies beyond the built halo depth")]
    fn sentinel_targets_assert() {
        let values = [0, u32::MAX];
        let access = ConflictAccess {
            map: Some((&values, 2, 1)),
            set: 0,
            writes: true,
        };
        access.target(0);
    }
}
