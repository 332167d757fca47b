//! The lowerings of one loop for the threads of a rank.
//!
//! OP2's shared-memory back-ends colour *individual iterations* greedily;
//! executing colour by colour, the per-element update order follows the
//! colour sequence, not the iteration order, so floating-point increments
//! reassociate and results drift from [`crate::seq`]. This crate never
//! reorders an update. [`thread_schedule`] reads the loop's access
//! descriptors and picks one of two lowerings, each one level of
//! mutually independent chunks, or none at all:
//!
//! * **Owner-computes windows** ([`owned_schedule`]) for loops that
//!   modify through maps by `Inc` alone — the common case. This is
//!   OP2's distributed-memory rule applied to the threads of a rank:
//!   every target set is cut into one contiguous *window* per thread,
//!   balanced by how many increments land in it; thread `t` runs, in
//!   ascending order, every iteration that increments into one of its
//!   windows, and drops the increments that land outside them (a cut
//!   iteration is executed by each thread it increments for — the
//!   redundant execution of OP2's import-execute halo, without the
//!   copy). Each element receives its increments from exactly one
//!   thread in sequential order: **bitwise equal** to
//!   [`crate::seq::run_loop`] at any thread count. The caveat is the
//!   distributed exec halo's too: a kernel must not *read* (`get`) an
//!   `Inc` argument, because a dropped increment's slot points at a
//!   scratch sink, not at the element.
//! * **Direct blocks** ([`blocked_schedule`]) for loops that modify no
//!   dat they also reach through a map: contiguous blocks of
//!   `block_size` iterations. Every modified element belongs to one
//!   iteration, hence to one block, and no block reads what another
//!   writes, so the blocks are independent and the result is the
//!   sequential one to the bit.
//! * **The rank's own thread** (`None`) for every other loop: an
//!   indirect `Rw` or `Write`, an indirect modify mixed with other
//!   accesses to the same dat, or a global reduction. These updates
//!   depend on iteration order across any split, so the caller walks
//!   the range sequentially.

use crate::access::{AccessMode, Arg};
use crate::domain::{DatId, MapData};
use crate::loops::LoopSig;
use crate::schedule::{ArgWindow, Chunk, Piece, Schedule, ScheduleKind};

/// One `Inc`-through-a-map access an owner-computes window cuts: which
/// map entry it reads and which set it lands on.
#[derive(Debug, Clone, Copy)]
pub struct ConflictAccess<'a> {
    /// `(map values, arity, entry index)`.
    pub map: (&'a [u32], usize, usize),
    /// Target set index.
    pub set: usize,
}

impl<'a> ConflictAccess<'a> {
    /// Entry `idx` of `map`.
    pub(crate) fn new(map: &'a MapData, idx: u16) -> Self {
        ConflictAccess {
            map: (map.values.as_slice(), map.arity, idx as usize),
            set: map.to.idx(),
        }
    }

    /// Target element of iteration `e` in the access's target set. Like
    /// the executor (`kernel::resolve`), asserts in debug
    /// builds that the map entry is not the `u32::MAX` sentinel a
    /// localized map holds beyond the built halo depth: rows of every
    /// iteration inside an executable extent resolve locally.
    #[inline]
    pub(crate) fn target(&self, e: usize) -> usize {
        let (values, arity, idx) = self.map;
        let v = values[e * arity + idx];
        debug_assert_ne!(
            v,
            u32::MAX,
            "map entry {idx} of iteration {e} lies beyond the built halo depth"
        );
        v as usize
    }
}

/// The `Inc`-through-a-map arguments of a loop eligible for the
/// owner-computes lowering, as `(argument index, access)` pairs — or
/// `None` when it is not. Eligible
/// means: some dat is modified through a map; every argument on every
/// such dat is itself an `Inc` through a map (an indirect `Rw`/`Write`
/// is order-dependent, and a `Read` of the incremented dat would see
/// another thread's partial sums); and no argument modifies a dat
/// directly (cut iterations run on several threads at once) or reduces
/// into a global.
pub fn owner_computes_accesses<'a>(
    maps: &'a [MapData],
    sig: &LoopSig,
) -> Option<Vec<(u32, ConflictAccess<'a>)>> {
    let mut out = Vec::new();
    for (i, a) in sig.args.iter().enumerate() {
        match a {
            Arg::Gbl { mode, .. } if mode.modifies() => return None,
            Arg::Gbl { .. } => {}
            Arg::Dat { map: None, mode, .. } if mode.modifies() => return None,
            Arg::Dat { dat, map, mode } => {
                if !modified_through_map(sig, *dat) {
                    continue;
                }
                let (Some((m, idx)), AccessMode::Inc) = (map, mode) else {
                    return None;
                };
                out.push((i as u32, ConflictAccess::new(&maps[m.idx()], *idx)));
            }
        }
    }
    (!out.is_empty()).then_some(out)
}

/// Whether the loop modifies `dat` and reaches it through a map: the
/// accesses whose order across iterations matters.
fn modified_through_map(sig: &LoopSig, dat: DatId) -> bool {
    matches!(sig.access_of(dat), Some((mode, true)) if mode.modifies())
}

/// Whether the loop's iterations split into independent direct blocks:
/// no dat it modifies is also accessed through a map, and it reduces
/// into no global.
fn splits_into_blocks(sig: &LoopSig) -> bool {
    sig.args.iter().all(|a| match a {
        Arg::Gbl { mode, .. } => !mode.modifies(),
        Arg::Dat { dat, .. } => !modified_through_map(sig, *dat),
    })
}

/// Cut every target set of `accesses` into `n_windows` contiguous
/// windows holding near-equal shares of the increments that iterations
/// `[start, end)` land on it. Returns, per set, the `n_windows + 1`
/// ascending bounds from `0` to the set size (empty for sets no access
/// targets); windows may be empty when a set has fewer touched elements
/// than windows.
pub fn touch_windows(
    start: usize,
    end: usize,
    n_windows: usize,
    set_sizes: &[usize],
    accesses: &[(u32, ConflictAccess<'_>)],
) -> Vec<Vec<u32>> {
    assert!(n_windows >= 1, "at least one window");
    let mut touches: Vec<Vec<u32>> = vec![Vec::new(); set_sizes.len()];
    for (_, a) in accesses {
        if touches[a.set].is_empty() {
            touches[a.set] = vec![0; set_sizes[a.set]];
        }
    }
    for i in start..end {
        for (_, a) in accesses {
            touches[a.set][a.target(i)] += 1;
        }
    }
    touches
        .iter()
        .zip(set_sizes)
        .map(|(counts, &size)| {
            if counts.is_empty() {
                return Vec::new();
            }
            let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
            let mut bounds = Vec::with_capacity(n_windows + 1);
            bounds.push(0u32);
            let mut seen = 0u64;
            for (elem, &c) in counts.iter().enumerate() {
                // Close window `w` before the element that would carry it
                // past its share `total·w/n`.
                while bounds.len() < n_windows
                    && seen * n_windows as u64 >= total * bounds.len() as u64
                {
                    bounds.push(elem as u32);
                }
                seen += u64::from(c);
            }
            bounds.resize(n_windows, size as u32);
            bounds.push(size as u32);
            bounds
        })
        .collect()
}

/// Shortest run of consecutive iterations worth a [`Piece::Range`] of its
/// own; shorter runs are gathered into [`Piece::List`]s.
const MIN_RANGE_RUN: u32 = 8;

/// One thread's ascending iteration list, compressed into pieces as it
/// grows.
#[derive(Default)]
struct PieceRun {
    pieces: Vec<Piece>,
    /// Current run of consecutive iterations `[run.0, run.1)`.
    run: Option<(u32, u32)>,
}

impl PieceRun {
    fn push(&mut self, i: u32) {
        match &mut self.run {
            Some((_, e)) if *e == i => *e += 1,
            _ => {
                self.flush();
                self.run = Some((i, i + 1));
            }
        }
    }

    fn flush(&mut self) {
        let Some((s, e)) = self.run.take() else {
            return;
        };
        if e - s >= MIN_RANGE_RUN {
            self.pieces.push(Piece::Range { start: s, end: e });
        } else if let Some(Piece::List { iters, .. }) = self.pieces.last_mut() {
            iters.extend(s..e);
        } else {
            self.pieces.push(Piece::List {
                iters: (s..e).collect(),
            });
        }
    }
}

/// The owner-computes lowering of iterations `[start, end)` for
/// `n_threads` workers (see the module docs): per thread with any work,
/// one chunk of ascending pieces covering every
/// iteration that increments into the thread's [`touch_windows`], with
/// the windows as the chunk's mask. `accesses` comes from
/// [`owner_computes_accesses`].
pub fn owned_schedule(
    start: usize,
    end: usize,
    n_threads: usize,
    set_sizes: &[usize],
    accesses: &[(u32, ConflictAccess<'_>)],
) -> Schedule {
    let bounds = touch_windows(start, end, n_threads, set_sizes, accesses);
    let owner = |a: &ConflictAccess<'_>, i: usize| {
        let t = a.target(i) as u32;
        bounds[a.set].partition_point(|&b| b <= t) - 1
    };
    let mut runs: Vec<PieceRun> = (0..n_threads).map(|_| PieceRun::default()).collect();
    let mut owners: Vec<usize> = Vec::with_capacity(accesses.len());
    for i in start..end {
        owners.clear();
        for (_, a) in accesses {
            let t = owner(a, i);
            if !owners.contains(&t) {
                owners.push(t);
                runs[t].push(i as u32);
            }
        }
    }
    let chunks: Vec<Chunk> = runs
        .into_iter()
        .enumerate()
        .filter_map(|(t, mut run)| {
            run.flush();
            (!run.pieces.is_empty()).then(|| Chunk {
                pieces: run.pieces,
                mask: accesses
                    .iter()
                    .map(|(arg, a)| ArgWindow {
                        arg: *arg,
                        lo: bounds[a.set][t],
                        hi: bounds[a.set][t + 1],
                    })
                    .collect(),
            })
        })
        .collect();
    Schedule {
        kind: ScheduleKind::Owned { start, end },
        chunks,
    }
}

/// Lower iterations `[start, end)` of one loop for `n_threads` pool
/// threads, from the access descriptors alone (see the module docs):
/// [`owned_schedule`] when [`owner_computes_accesses`] admits the loop,
/// [`blocked_schedule`] at `block_size` when no dat it modifies is
/// reached through a map and it reduces into no global, `None` — run it
/// on the calling thread — otherwise.
pub fn thread_schedule(
    maps: &[MapData],
    sig: &LoopSig,
    start: usize,
    end: usize,
    n_threads: usize,
    block_size: usize,
    set_sizes: &[usize],
) -> Option<Schedule> {
    if let Some(accesses) = owner_computes_accesses(maps, sig) {
        return Some(owned_schedule(start, end, n_threads, set_sizes, &accesses));
    }
    splits_into_blocks(sig).then(|| blocked_schedule(start, end, block_size))
}

/// `[start, end)` cut into ascending blocks of `block_size` iterations
/// (the last may be short), one range chunk each: the direct-block
/// lowering.
pub fn blocked_schedule(start: usize, end: usize, block_size: usize) -> Schedule {
    assert!(block_size >= 1, "block_size must be at least 1");
    let chunks = (start..end)
        .step_by(block_size)
        .map(|s| {
            Chunk::new(vec![Piece::Range {
                start: s as u32,
                end: (s + block_size).min(end) as u32,
            }])
        })
        .collect();
    Schedule {
        kind: ScheduleKind::Blocked { block_size },
        chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::domain::{Domain, SetId};
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use crate::schedule::{run_loop_schedule, BoundLoop};

    fn noop(_: &Args<'_>) {}

    /// `spec`'s whole iteration set lowered for two threads at
    /// `block_size`.
    fn lower(dom: &Domain, spec: &LoopSpec, block_size: usize) -> Option<Schedule> {
        let n = dom.set(spec.set).size;
        thread_schedule(dom.maps(), &spec.sig(), 0, n, 2, block_size, &dom.set_sizes())
    }

    /// The direct split's shape: ascending single-range chunks of
    /// `block_size` iterations tiling `[0, n)`.
    fn assert_blocks(sched: &Schedule, n: usize, block_size: usize) {
        assert_eq!(sched.kind, ScheduleKind::Blocked { block_size });
        let starts: Vec<(u32, u32)> = sched
            .chunks
            .iter()
            .map(|c| match c.pieces[..] {
                [Piece::Range { start, end }] => (start, end),
                _ => panic!("a direct block is one range: {c:?}"),
            })
            .collect();
        let want: Vec<(u32, u32)> = (0..n)
            .step_by(block_size)
            .map(|s| (s as u32, (s + block_size).min(n) as u32))
            .collect();
        assert_eq!(starts, want);
        assert!(sched.chunks.iter().all(|c| c.mask.is_empty()));
    }

    /// Edge→node FP increment kernel whose result is order-sensitive:
    /// res[n] += pres[other] * scale, with irrational-ish values so any
    /// reassociation shows up bitwise.
    fn flux_kernel(args: &Args<'_>) {
        let a = args.get(2, 0);
        let b = args.get(3, 0);
        args.inc(0, 0, (b - a) * 0.123456789);
        args.inc(1, 0, (a - b) * 0.987654321);
    }

    fn path_fixture(n_nodes: usize) -> (Domain, LoopSpec) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n_nodes);
        let edges = dom.decl_set("edges", n_nodes - 1);
        let vals: Vec<u32> = (0..n_nodes as u32 - 1).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let pres: Vec<f64> = (0..n_nodes).map(|i| (i as f64 * 0.7).sin()).collect();
        let p = dom.decl_dat("pres", nodes, 1, pres);
        // Nonzero start values: two increments into zero commute bitwise,
        // into anything else they need not.
        let res: Vec<f64> = (0..n_nodes).map(|i| (i as f64 * 0.3).cos()).collect();
        let r = dom.decl_dat("res", nodes, 1, res);
        let spec = LoopSpec::new(
            "flux",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(p, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(p, e2n, 1, AccessMode::Read),
            ],
            flux_kernel,
        );
        (dom, spec)
    }

    /// An edge loop of the direct split on the path: it reads both end
    /// nodes through the map and updates its own edge's value in place,
    /// order-sensitively.
    fn edge_update_fixture(n_nodes: usize) -> (Domain, LoopSpec) {
        fn update(args: &Args<'_>) {
            let (a, b) = (args.get(1, 0), args.get(2, 0));
            args.set(0, 0, args.get(0, 0) * 0.91 + (b - a) * 0.123456789);
        }
        let (mut dom, _) = path_fixture(n_nodes);
        let e2n = dom.map_by_name("e2n").unwrap();
        let p = dom.dat_by_name("pres").unwrap();
        let edges = dom.map(e2n).from;
        let w0: Vec<f64> = (0..n_nodes - 1).map(|i| (i as f64 * 0.37).cos()).collect();
        let w = dom.decl_dat("w", edges, 1, w0);
        let spec = LoopSpec::new(
            "edge_update",
            edges,
            vec![
                Arg::dat_direct(w, AccessMode::Rw),
                Arg::dat_indirect(p, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(p, e2n, 1, AccessMode::Read),
            ],
            update,
        );
        (dom, spec)
    }

    /// Direct-only loops split into direct blocks at any block size.
    #[test]
    fn direct_loop_single_color() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 100);
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let spec = LoopSpec::new("w", nodes, vec![Arg::dat_direct(a, AccessMode::Write)], noop);
        for block_size in [1, 8, 100, 128] {
            assert_blocks(&lower(&dom, &spec, block_size).unwrap(), 100, block_size);
        }
    }

    /// Bitwise identity against the sequential reference on an
    /// order-sensitive FP kernel, going through the direct split, walked
    /// in order and with the blocks reversed.
    #[test]
    fn blocked_execution_bitwise_equals_seq() {
        let (mut seq_dom, spec) = edge_update_fixture(257);
        crate::seq::run_loop(&mut seq_dom, &spec);
        let reference = seq_dom.dat(seq_dom.dat_by_name("w").unwrap()).data.clone();

        for block_size in [1usize, 7, 32, 1024] {
            let (dom, spec) = edge_update_fixture(257);
            let sched = lower(&dom, &spec, block_size).unwrap();
            assert_blocks(&sched, 256, block_size);
            for (walk, sched) in sched.walk_orders() {
                let mut dom = dom.clone();
                run_loop_schedule(&mut dom, &spec, &sched);
                let got = &dom.dat(dom.dat_by_name("w").unwrap()).data;
                assert_eq!(got, &reference, "block_size={block_size}, {walk}");
            }
        }
    }

    /// At block size 1 a block is an iteration: the direct split holds
    /// one chunk per iteration, in order.
    #[test]
    fn element_expansion_is_valid() {
        let sched = blocked_schedule(3, 50, 1);
        let iters: Vec<u32> = sched.chunks.iter().flat_map(|c| &c.pieces).map(|p| match p {
            Piece::Range { start, end } if end - start == 1 => *start,
            _ => panic!("a block of one iteration: {p:?}"),
        }).collect();
        assert_eq!(iters, (3..50).collect::<Vec<_>>());
        let (dom, spec) = edge_update_fixture(48);
        assert_blocks(&lower(&dom, &spec, 1).unwrap(), 47, 1);
    }

    /// A read-only indirect loop (no modifies) splits into direct
    /// blocks even when every block shares elements.
    #[test]
    fn read_only_loop_single_color() {
        let (dom, _) = path_fixture(33);
        let e2n = dom.map_by_name("e2n").unwrap();
        let p = dom.dat_by_name("pres").unwrap();
        let edges = dom.map(e2n).from;
        let spec = LoopSpec::new(
            "rd",
            edges,
            vec![Arg::dat_indirect(p, e2n, 0, AccessMode::Read)],
            noop,
        );
        assert_blocks(&lower(&dom, &spec, 4).unwrap(), 32, 4);
    }

    /// Eligibility is read off the access descriptors: `Inc` through
    /// maps only. A directly modified argument, an indirect `Rw` or
    /// `Write`, a `Read` of the incremented dat, a global reduction and
    /// a loop that modifies nothing through a map each force the
    /// fallback.
    #[test]
    fn owner_computes_eligibility() {
        let (mut dom, spec) = path_fixture(9);
        let e2n = dom.map_by_name("e2n").unwrap();
        let r = dom.dat_by_name("res").unwrap();
        let p = dom.dat_by_name("pres").unwrap();
        let edges = dom.map(e2n).from;
        let w = dom.decl_dat_zeros("w", edges, 1);
        let eligible = |args: Vec<Arg>| {
            let spec = LoopSpec::new("l", edges, args, noop);
            owner_computes_accesses(dom.maps(), &spec.sig()).map(|acc| {
                acc.iter().map(|(arg, a)| (*arg, a.set)).collect::<Vec<_>>()
            })
        };
        let inc = |idx| Arg::dat_indirect(r, e2n, idx, AccessMode::Inc);
        let nodes = dom.map(e2n).to.idx();

        // The reference shape: the windowed arguments are the two Incs.
        let acc = owner_computes_accesses(dom.maps(), &spec.sig()).unwrap();
        assert_eq!(acc.iter().map(|(a, _)| *a).collect::<Vec<_>>(), vec![0, 1]);
        // A direct Read of another dat rides along.
        assert_eq!(
            eligible(vec![Arg::dat_direct(w, AccessMode::Read), inc(0), inc(1)]),
            Some(vec![(1, nodes), (2, nodes)])
        );

        assert_eq!(eligible(vec![inc(0), Arg::dat_direct(w, AccessMode::Write)]), None);
        assert_eq!(eligible(vec![inc(0), Arg::dat_direct(w, AccessMode::Rw)]), None);
        for mode in [AccessMode::Rw, AccessMode::Write] {
            assert_eq!(eligible(vec![Arg::dat_indirect(r, e2n, 0, mode)]), None);
            // …even on a different dat than the incremented one.
            assert_eq!(eligible(vec![inc(0), Arg::dat_indirect(p, e2n, 1, mode)]), None);
        }
        assert_eq!(
            eligible(vec![inc(0), Arg::dat_indirect(r, e2n, 1, AccessMode::Read)]),
            None
        );
        assert_eq!(eligible(vec![inc(0), Arg::gbl(0, AccessMode::Inc)]), None);
        assert_eq!(
            eligible(vec![Arg::dat_indirect(p, e2n, 0, AccessMode::Read)]),
            None
        );
        assert_eq!(eligible(vec![Arg::dat_direct(w, AccessMode::Rw)]), None);
    }

    /// `thread_schedule` picks by the access descriptors alone: windows
    /// for `Inc`-only modifies through maps, direct blocks when no
    /// modified dat is reached through a map, and no schedule — the
    /// rank's own thread — for every other loop.
    #[test]
    fn thread_schedule_selects_by_descriptors() {
        let (mut dom, spec) = path_fixture(65);
        let e2n = dom.map_by_name("e2n").unwrap();
        let (r, p) = (dom.dat_by_name("res").unwrap(), dom.dat_by_name("pres").unwrap());
        let (nodes, edges) = (dom.map(e2n).to, dom.map(e2n).from);
        let next: Vec<u32> = (0..65u32).map(|i| (i + 1) % 65).collect();
        let n2n = dom.decl_map("n2n", nodes, nodes, 1, next).unwrap();
        let w = dom.decl_dat_zeros("w", edges, 1);
        let x = dom.decl_dat_zeros("x", nodes, 1);
        let ind = |d, m, i, mode| Arg::dat_indirect(d, m, i, mode);
        let dir = Arg::dat_direct;
        use AccessMode::{Inc, Read, Rw, Write};
        let owned = Some(ScheduleKind::Owned { start: 0, end: 64 });
        let blocked = Some(ScheduleKind::Blocked { block_size: 16 });
        let table: Vec<(&str, SetId, Vec<Arg>, Option<ScheduleKind>)> = vec![
            ("Inc through a map", edges, spec.args.clone(), owned),
            ("direct write, indirect read", edges, vec![dir(w, Write), ind(p, e2n, 0, Read)], blocked),
            ("indirect read only", edges, vec![ind(p, e2n, 0, Read), ind(p, e2n, 1, Read)], blocked),
            ("direct Rw only", edges, vec![dir(w, Rw)], blocked),
            ("indirect Rw", edges, vec![ind(r, e2n, 0, Rw), ind(r, e2n, 1, Rw)], None),
            ("indirect Write", edges, vec![dir(w, Read), ind(r, e2n, 1, Write)], None),
            ("Inc and Read of one dat", edges, vec![ind(r, e2n, 0, Inc), ind(r, e2n, 1, Read)], None),
            ("direct write, indirect read of one dat", nodes, vec![dir(x, Write), ind(x, n2n, 0, Read)], None),
            ("Inc and a direct write", edges, vec![ind(r, e2n, 0, Inc), dir(w, Write)], None),
            ("direct write and a reduction", edges, vec![dir(w, Write), Arg::gbl(0, Inc)], None),
        ];
        for (name, set, args, want) in table {
            let spec = LoopSpec::new(name, set, args, noop);
            let n = if set == edges { 64 } else { 65 };
            let got = thread_schedule(dom.maps(), &spec.sig(), 0, n, 2, 16, &dom.set_sizes());
            assert_eq!(got.as_ref().map(|s| s.kind), want, "{name}");
        }

        let owned = lower(&dom, &spec, 16).unwrap();
        assert_eq!(owned.n_chunks(), 2);
        // The path's one cut edge runs on both threads.
        assert_eq!(owned.redundant_iters(), 1);
    }

    /// One sentinel policy: a map entry beyond the built halo depth is a
    /// bug at the call site, named by the assert — as in the executor.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "map entry 1 of iteration 0 lies beyond the built halo depth")]
    fn sentinel_targets_assert() {
        let values = [0, u32::MAX];
        let access = ConflictAccess {
            map: (&values, 2, 1),
            set: 0,
        };
        access.target(0);
    }

    /// Scattered edges, every fifth a self-loop, through two maps into
    /// two target sets of different sizes.
    fn two_target_fixture(n_a: usize, n_b: usize, n_iter: usize) -> (Domain, LoopSpec) {
        fn kernel(args: &Args<'_>) {
            let w = args.get(0, 0);
            args.inc(1, 0, w * 0.123456789);
            args.inc(2, 0, w * -0.987654321 + 0.1);
            args.inc(3, 0, w * w);
            args.inc(3, 1, 0.3 - w);
        }
        let mut dom = Domain::new();
        let a = dom.decl_set("a", n_a);
        let b = dom.decl_set("b", n_b);
        let it = dom.decl_set("it", n_iter);
        let to_a: Vec<u32> = (0..n_iter)
            .flat_map(|k| {
                let x = (k * 7 + 3) % n_a;
                let y = if k % 5 == 0 { x } else { (k * 13 + 1) % n_a };
                [x as u32, y as u32]
            })
            .collect();
        let to_b: Vec<u32> = (0..n_iter).map(|k| ((k * 11 + 2) % n_b) as u32).collect();
        let i2a = dom.decl_map("i2a", it, a, 2, to_a).unwrap();
        let i2b = dom.decl_map("i2b", it, b, 1, to_b).unwrap();
        let w: Vec<f64> = (0..n_iter).map(|k| (k as f64 * 0.37).cos()).collect();
        let w = dom.decl_dat("w", it, 1, w);
        let on_a = dom.decl_dat_zeros("on_a", a, 1);
        let on_b = dom.decl_dat_zeros("on_b", b, 2);
        let spec = LoopSpec::new(
            "two",
            it,
            vec![
                Arg::dat_direct(w, AccessMode::Read),
                Arg::dat_indirect(on_a, i2a, 0, AccessMode::Inc),
                Arg::dat_indirect(on_a, i2a, 1, AccessMode::Inc),
                Arg::dat_indirect(on_b, i2b, 0, AccessMode::Inc),
            ],
            kernel,
        );
        (dom, spec)
    }

    /// The construction invariant over thread counts, sub-ranges and
    /// more threads than targets: windows partition every target set,
    /// every (iteration, modifying argument) pair is unmasked in exactly
    /// one chunk (`windows_valid`), and execution — walked in order or
    /// with the chunks reversed — is bitwise the plain range walk.
    #[test]
    fn owned_windows_partition_and_execute_bitwise() {
        for (n_a, n_b, n_iter, start, end) in [
            (41, 17, 200, 0, 200),
            (41, 17, 200, 37, 151),
            (3, 2, 64, 0, 64),
            (5, 1, 9, 2, 9),
        ] {
            let (dom, spec) = two_target_fixture(n_a, n_b, n_iter);
            let set_sizes = dom.set_sizes();
            let accesses = owner_computes_accesses(dom.maps(), &spec.sig()).unwrap();
            let mut reference = dom.clone();
            run_loop_schedule(&mut reference, &spec, &Schedule::range(start, end));

            for n_threads in 1..=5usize {
                let bounds = touch_windows(start, end, n_threads, &set_sizes, &accesses);
                for (set, b) in bounds.iter().enumerate() {
                    if !accesses.iter().any(|(_, a)| a.set == set) {
                        assert!(b.is_empty());
                        continue;
                    }
                    assert_eq!(b.len(), n_threads + 1);
                    assert_eq!((b[0], b[n_threads]), (0, set_sizes[set] as u32));
                    assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
                }

                let sched = owned_schedule(start, end, n_threads, &set_sizes, &accesses);
                // No chunk without a target element to own.
                assert!(sched.n_chunks() <= n_threads.min(n_a + n_b));
                let mut bound_dom = dom.clone();
                let mut gbls = Vec::new();
                let bound = BoundLoop::bind(&mut bound_dom, &spec, &mut gbls);
                assert!(sched.windows_valid(&bound), "{n_threads} threads");
                assert_eq!(sched.iters() - sched.redundant_iters(), end - start);

                // A widened window double-counts, a dropped chunk loses
                // increments: both must fail the check.
                let mut wide = sched.clone();
                if let Some(w) = wide.chunks[0].mask.first_mut() {
                    w.hi += 1;
                }
                let mut short = sched.clone();
                short.chunks.pop();
                if sched.n_chunks() > 1 {
                    assert!(!wide.windows_valid(&bound));
                    assert!(!short.windows_valid(&bound));
                }

                for (walk, sched) in sched.walk_orders() {
                    let mut walked = dom.clone();
                    run_loop_schedule(&mut walked, &spec, &sched);
                    for d in ["on_a", "on_b"] {
                        let id = dom.dat_by_name(d).unwrap();
                        assert_eq!(walked.dat(id).data, reference.dat(id).data, "{d}, {walk}");
                    }
                }
            }
        }
    }

    /// Windows are balanced by touch count, not by element count: a set
    /// whose increments all land on its first elements is cut there.
    #[test]
    fn touch_windows_follow_the_touches() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 100);
        let edges = dom.decl_set("edges", 40);
        // 40 edges over nodes 0..10 only.
        let vals: Vec<u32> = (0..40u32).flat_map(|i| [i % 10, (i + 1) % 10]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let r = dom.decl_dat_zeros("res", nodes, 1);
        let spec = LoopSpec::new(
            "inc",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let accesses = owner_computes_accesses(dom.maps(), &spec.sig()).unwrap();
        let bounds = touch_windows(0, 40, 2, &[100, 40], &accesses);
        assert_eq!(bounds[nodes.idx()], vec![0, 5, 100]);
        assert!(bounds[edges.idx()].is_empty());
    }
}
