//! Block-level coloring for shared-memory parallel execution.
//!
//! [`crate::coloring`] colors *individual iterations*; executing color by
//! color the per-element update order follows the color sequence, not the
//! iteration order, so floating-point increments reassociate and results
//! drift from [`crate::seq`]. This module colors **blocks** of contiguous
//! iterations instead, with a *levelized, order-preserving* rule:
//!
//! > `color(b) = 1 + max{ color(b') : b' < b and b' conflicts with b }`
//!
//! Two blocks conflict when they touch a common element of any dat the
//! loop modifies through a map (with at least one of the two accesses
//! modifying). Consequences:
//!
//! * **race freedom** — same-color blocks touch disjoint modified
//!   elements, so they can run on different threads without atomics;
//! * **order preservation** — a conflicting pair `b' < b` always has
//!   `color(b') < color(b)`, and colors execute in ascending order, so
//!   every element receives its updates in ascending block order. Blocks
//!   are contiguous ascending ranges, so the per-element update sequence
//!   is *identical* to plain sequential execution: results are **bitwise
//!   equal** to [`crate::seq::run_loop`], independent of thread count and
//!   block schedule within a color. (Plain greedy coloring cannot promise
//!   this — it reorders conflicting iterations across colors.)
//!
//! The price is more colors than a greedy minimum — and on any
//! locality-preserving numbering it is steep: consecutive blocks of an
//! edge loop share nodes, so the levels form a ladder of ~`n/block_size`
//! barriers with one or two blocks each. The coloring is therefore only
//! the **fallback** of [`thread_schedule`]. Loops that modify through
//! maps by `Inc` alone — the common case — get the **owner-computes**
//! lowering instead ([`owned_schedule`]), OP2's distributed-memory rule
//! applied to the threads of a rank:
//!
//! * every target set is cut into one contiguous *window* per thread,
//!   balanced by how many increments land in it;
//! * thread `t` runs, in ascending order, every iteration that
//!   increments into one of its windows, and drops the increments that
//!   land outside them (a cut iteration is executed by each thread it
//!   increments for — the redundant execution of OP2's import-execute
//!   halo, without the copy);
//! * so each element receives its increments from exactly one thread in
//!   sequential order: **bitwise equal** to [`crate::seq::run_loop`] at
//!   any thread count, in one level instead of a ladder.
//!
//! The caveat is the distributed exec halo's too: a kernel must not
//! *read* (`get`) an `Inc` argument, because a dropped increment's slot
//! points at a scratch sink, not at the element.

use crate::access::{AccessMode, Arg};
use crate::coloring::Coloring;
use crate::domain::{Domain, MapData};
use crate::loops::LoopSig;
use crate::schedule::{ArgWindow, Chunk, Level, Piece, Schedule, ScheduleKind};

/// A coloring of contiguous iteration blocks over `[start, end)`.
#[derive(Debug, Clone)]
pub struct BlockColoring {
    /// First iteration covered.
    pub start: usize,
    /// One-past-last iteration covered.
    pub end: usize,
    /// Iterations per block (last block may be short).
    pub block_size: usize,
    /// Number of colors.
    pub n_colors: usize,
    /// Color of every block.
    pub color: Vec<u32>,
    /// Block ids per color, ascending.
    pub by_color: Vec<Vec<u32>>,
}

impl BlockColoring {
    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.color.len()
    }

    /// Iteration range `[s, e)` of block `b`.
    pub fn block_range(&self, b: usize) -> (usize, usize) {
        let s = self.start + b * self.block_size;
        (s, (s + self.block_size).min(self.end))
    }

    /// Expand to a per-iteration [`Coloring`] (each iteration inherits
    /// its block's color) — the bridge to
    /// [`crate::coloring::is_valid_coloring`]. Only defined for
    /// `block_size == 1` colorings covering a whole set from iteration 0:
    /// with larger blocks, two same-block (hence same-color) iterations
    /// may legitimately conflict — they run sequentially on one thread —
    /// which the per-element validity check would reject.
    pub fn element_coloring(&self) -> Coloring {
        assert_eq!(self.start, 0, "element_coloring needs a full-set coloring");
        assert_eq!(
            self.block_size, 1,
            "element_coloring is the block_size=1 bridge to `coloring`"
        );
        let mut color = vec![0u32; self.end];
        let mut by_color: Vec<Vec<u32>> = vec![Vec::new(); self.n_colors];
        for b in 0..self.n_blocks() {
            let c = self.color[b];
            let (s, e) = self.block_range(b);
            for i in s..e {
                color[i] = c;
                by_color[c as usize].push(i as u32);
            }
        }
        Coloring {
            n_colors: self.n_colors,
            color,
            by_color,
        }
    }
}

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
    /// An access through entry `idx` of map `md`.
    pub(crate) fn indirect(md: &'a MapData, idx: u16, writes: bool) -> Self {
        ConflictAccess {
            map: Some((md.values.as_slice(), md.arity, idx as usize)),
            set: md.to.idx(),
            writes,
        }
    }

    /// Target element of iteration `e` in the access's target set.
    #[inline]
    pub(crate) fn target(&self, e: usize) -> usize {
        match self.map {
            Some((values, arity, idx)) => values[e * arity + idx] as usize,
            None => e,
        }
    }
}

/// The accesses of `sig` that can conflict across iterations: every
/// access (direct or indirect, read or write) of a dat the loop modifies
/// *through a map*. Dats modified only directly are excluded — each
/// iteration owns its element, so no two iterations collide on them.
pub fn conflict_accesses<'a>(maps: &'a [MapData], sig: &LoopSig) -> Vec<ConflictAccess<'a>> {
    let mut out = Vec::new();
    for d in sig.dats() {
        let Some((mode, indirect)) = sig.access_of(d) else {
            continue;
        };
        if !(mode.modifies() && indirect) {
            continue;
        }
        for a in &sig.args {
            if let Arg::Dat { dat, map, mode } = a {
                if *dat != d {
                    continue;
                }
                match map {
                    Some((m, idx)) => out.push(ConflictAccess::indirect(
                        &maps[m.idx()],
                        *idx,
                        mode.modifies(),
                    )),
                    None => out.push(ConflictAccess {
                        map: None,
                        set: sig.set.idx(),
                        writes: mode.modifies(),
                    }),
                }
            }
        }
    }
    out
}

/// The `Inc`-through-a-map arguments of a loop eligible for the
/// owner-computes lowering, as `(argument index, access)` pairs — or
/// `None` when the loop must fall back to the block coloring. Eligible
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
                let (merged, indirect) = sig.access_of(*dat).expect("dat is an argument");
                if !(merged.modifies() && indirect) {
                    continue;
                }
                let (Some((m, idx)), AccessMode::Inc) = (map, mode) else {
                    return None;
                };
                out.push((i as u32, ConflictAccess::indirect(&maps[m.idx()], *idx, true)));
            }
        }
    }
    (!out.is_empty()).then_some(out)
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
            self.pieces.push(Piece::Range {
                loop_idx: 0,
                start: s,
                end: e,
            });
        } else if let Some(Piece::List { iters, .. }) = self.pieces.last_mut() {
            iters.extend(s..e);
        } else {
            self.pieces.push(Piece::List {
                loop_idx: 0,
                iters: (s..e).collect(),
            });
        }
    }
}

/// The owner-computes lowering of iterations `[start, end)` for
/// `n_threads` workers (see the module docs): one level holding, per
/// thread with any work, one chunk of ascending pieces covering every
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
        n_loops: 1,
        kind: ScheduleKind::Owned { start, end },
        levels: if chunks.is_empty() {
            Vec::new()
        } else {
            vec![Level { chunks }]
        },
        fused: Vec::new(),
    }
}

/// Lower iterations `[start, end)` of one loop for `n_threads` pool
/// threads — the single lowering the threaded executor and the tuner
/// share. The choice is made from the access descriptors alone:
/// [`owned_schedule`] when [`owner_computes_accesses`] admits the loop,
/// the levelized block coloring at `block_size` otherwise.
pub fn thread_schedule(
    maps: &[MapData],
    sig: &LoopSig,
    start: usize,
    end: usize,
    n_threads: usize,
    block_size: usize,
    set_sizes: &[usize],
) -> Schedule {
    match owner_computes_accesses(maps, sig) {
        Some(accesses) => owned_schedule(start, end, n_threads, set_sizes, &accesses),
        None => {
            let accesses = conflict_accesses(maps, sig);
            let bc = color_blocks_raw(start, end, block_size, set_sizes, &accesses);
            Schedule::from_block_coloring(&bc)
        }
    }
}

/// Levelized order-preserving block coloring of `[start, end)` (see the
/// module docs for the rule and its guarantees). `set_sizes` bounds the
/// target index space per set; `accesses` comes from
/// [`conflict_accesses`]. Works on global domains and on localized rank
/// layouts alike — callers pass whichever maps the iteration range
/// dereferences.
pub fn color_blocks_raw(
    start: usize,
    end: usize,
    block_size: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> BlockColoring {
    assert!(block_size >= 1, "block_size must be at least 1");
    let n_iter = end.saturating_sub(start);
    let n_blocks = n_iter.div_ceil(block_size);
    if accesses.is_empty() || n_blocks <= 1 {
        return BlockColoring {
            start,
            end,
            block_size,
            n_colors: usize::from(n_blocks > 0),
            color: vec![0; n_blocks],
            by_color: if n_blocks > 0 {
                vec![(0..n_blocks as u32).collect()]
            } else {
                Vec::new()
            },
        };
    }

    // Highest 1-based color of an earlier write / read touching each
    // element (0 = untouched). A writer must come strictly after every
    // earlier toucher; a reader only after earlier writers.
    let mut last_w: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![0u32; s]).collect();
    let mut last_r: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![0u32; s]).collect();
    let mut color = vec![0u32; n_blocks];
    let mut n_colors = 1usize;
    for b in 0..n_blocks {
        let s = start + b * block_size;
        let e = (s + block_size).min(end);
        let mut need = 0u32;
        for i in s..e {
            for a in accesses {
                let t = a.target(i);
                need = need.max(last_w[a.set][t]);
                if a.writes {
                    need = need.max(last_r[a.set][t]);
                }
            }
        }
        let c1 = need + 1; // this block's 1-based color
        color[b] = c1 - 1;
        n_colors = n_colors.max(c1 as usize);
        for i in s..e {
            for a in accesses {
                let t = a.target(i);
                let slot = if a.writes {
                    &mut last_w[a.set][t]
                } else {
                    &mut last_r[a.set][t]
                };
                *slot = (*slot).max(c1);
            }
        }
    }

    let mut by_color: Vec<Vec<u32>> = vec![Vec::new(); n_colors];
    for (b, &c) in color.iter().enumerate() {
        by_color[c as usize].push(b as u32);
    }
    BlockColoring {
        start,
        end,
        block_size,
        n_colors,
        color,
        by_color,
    }
}

/// Color the whole iteration set of `sig` over the global domain.
pub fn color_blocks(dom: &Domain, sig: &LoopSig, block_size: usize) -> BlockColoring {
    let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
    let accesses = conflict_accesses(dom.maps(), sig);
    color_blocks_raw(0, dom.set(sig.set).size, block_size, &set_sizes, &accesses)
}

/// Verify a block coloring against the raw conflict structure:
/// completeness (every block colored exactly once), race freedom (no two
/// same-color blocks conflict) and order preservation (conflicting
/// blocks are colored in ascending block order — the bitwise-identity
/// contract). Used by tests and debug assertions.
pub fn is_valid_block_coloring_raw(
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
    bc: &BlockColoring,
) -> bool {
    let n_blocks = bc.n_blocks();
    if n_blocks != bc.end.saturating_sub(bc.start).div_ceil(bc.block_size.max(1)) {
        return false;
    }
    // Partition check.
    let mut seen = vec![false; n_blocks];
    for (c, bucket) in bc.by_color.iter().enumerate() {
        for &b in bucket {
            let b = b as usize;
            if b >= n_blocks || seen[b] || bc.color[b] as usize != c {
                return false;
            }
            seen[b] = true;
        }
    }
    if !seen.iter().all(|&s| s) {
        return false;
    }
    // Per-element touch lists: (block, writes).
    let mut touches: Vec<Vec<Vec<(u32, bool)>>> = set_sizes
        .iter()
        .map(|&s| vec![Vec::new(); s])
        .collect();
    for b in 0..n_blocks {
        let (s, e) = bc.block_range(b);
        for i in s..e {
            for a in accesses {
                touches[a.set][a.target(i)].push((b as u32, a.writes));
            }
        }
    }
    for per_set in &touches {
        for list in per_set {
            for (i, &(b1, w1)) in list.iter().enumerate() {
                for &(b2, w2) in &list[i + 1..] {
                    if b1 == b2 || !(w1 || w2) {
                        continue; // intra-block or read-read: no conflict
                    }
                    let (lo, hi) = if b1 < b2 { (b1, b2) } else { (b2, b1) };
                    if bc.color[lo as usize] >= bc.color[hi as usize] {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// [`is_valid_block_coloring_raw`] over the global domain.
pub fn is_valid_block_coloring(dom: &Domain, sig: &LoopSig, bc: &BlockColoring) -> bool {
    let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
    let accesses = conflict_accesses(dom.maps(), sig);
    is_valid_block_coloring_raw(&set_sizes, &accesses, bc)
}

/// Average number of conflict-inducing touches per distinct element over
/// `[start, end)` — the mesh's measured *conflict degree* for one loop.
/// Sampled over at most the first 4096 iterations (enough to
/// characterise a mesh; keeps the probe O(1) for huge ranges). Returns
/// `0.0` when the loop has no conflict accesses (direct-only loops).
pub fn conflict_degree(
    start: usize,
    end: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> f64 {
    if accesses.is_empty() || end <= start {
        return 0.0;
    }
    let sample_end = end.min(start + 4096);
    let mut touched: Vec<Vec<bool>> = set_sizes.iter().map(|&s| vec![false; s]).collect();
    let mut touches = 0usize;
    let mut distinct = 0usize;
    for i in start..sample_end {
        for a in accesses {
            let t = a.target(i);
            touches += 1;
            if !touched[a.set][t] {
                touched[a.set][t] = true;
                distinct += 1;
            }
        }
    }
    if distinct == 0 {
        0.0
    } else {
        touches as f64 / distinct as f64
    }
}

/// Smallest block size `OP2_BLOCK_SIZE=auto` will pick.
pub const AUTO_BLOCK_MIN: usize = 32;
/// Largest block size `OP2_BLOCK_SIZE=auto` will pick (also used for
/// conflict-free loops, where blocks only bound scheduling granularity).
pub const AUTO_BLOCK_MAX: usize = 2048;

/// Pick a per-loop block size from the measured [`conflict_degree`]:
/// high-degree meshes (many iterations sharing each element) get smaller
/// blocks so the levelized coloring keeps its color count down, while
/// direct or conflict-free loops get large streaming blocks. The choice
/// is deterministic in the mesh structure, so repeated runs (and all
/// threads of one rank) agree.
pub fn adaptive_block_size(
    start: usize,
    end: usize,
    set_sizes: &[usize],
    accesses: &[ConflictAccess<'_>],
) -> usize {
    let degree = conflict_degree(start, end, set_sizes, accesses);
    if degree <= 1.0 {
        return AUTO_BLOCK_MAX; // direct or disjoint: stream freely
    }
    ((1024.0 / degree) as usize).clamp(AUTO_BLOCK_MIN, AUTO_BLOCK_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessMode;
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use crate::schedule::{run_loop_schedule, run_loop_schedule_threads, BoundLoop};

    fn noop(_: &Args<'_>) {}

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
        let r = dom.decl_dat_zeros("res", nodes, 1);
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

    /// On a path graph, consecutive blocks share one node: the levelized
    /// rule must give strictly increasing colors along the path.
    #[test]
    fn path_blocks_level_like_a_ladder() {
        let (dom, spec) = path_fixture(65);
        let bc = color_blocks(&dom, &spec.sig(), 16);
        assert_eq!(bc.n_blocks(), 4);
        assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
        // Every adjacent block pair conflicts, so colors strictly climb.
        assert_eq!(bc.color, vec![0, 1, 2, 3]);
    }

    /// Blocks that touch disjoint elements share color 0.
    #[test]
    fn disjoint_blocks_share_a_color() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 8);
        let edges = dom.decl_set("edges", 4);
        // Edges 2i -- 2i+1: no two edges share a node.
        let vals: Vec<u32> = (0..4u32).flat_map(|i| [2 * i, 2 * i + 1]).collect();
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
        let bc = color_blocks(&dom, &spec.sig(), 1);
        assert_eq!(bc.n_colors, 1);
        assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
    }

    /// Direct-only loops need one color regardless of block size.
    #[test]
    fn direct_loop_single_color() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 100);
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let spec = LoopSpec::new("w", nodes, vec![Arg::dat_direct(a, AccessMode::Write)], noop);
        let bc = color_blocks(&dom, &spec.sig(), 8);
        assert_eq!(bc.n_colors, 1);
        assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
    }

    /// Bitwise identity against the sequential reference for 1..4
    /// threads on an order-sensitive FP kernel, going through the
    /// `Schedule` lowering of the block coloring.
    #[test]
    fn blocked_execution_bitwise_equals_seq() {
        let (mut seq_dom, spec) = path_fixture(257);
        crate::seq::run_loop(&mut seq_dom, &spec);
        let reference = seq_dom.dat(seq_dom.dat_by_name("res").unwrap()).data.clone();

        for threads in 1..=4usize {
            for block_size in [1usize, 7, 32, 1024] {
                let (mut dom, spec) = path_fixture(257);
                let bc = color_blocks(&dom, &spec.sig(), block_size);
                debug_assert!(is_valid_block_coloring(&dom, &spec.sig(), &bc));
                let sched = Schedule::from_block_coloring(&bc);
                assert_eq!(sched.n_levels(), bc.n_colors);
                assert_eq!(sched.n_chunks(), bc.n_blocks());
                run_loop_schedule_threads(&mut dom, &spec, &sched, threads);
                let got = &dom.dat(dom.dat_by_name("res").unwrap()).data;
                assert_eq!(
                    got, &reference,
                    "threads={threads} block_size={block_size}"
                );
            }
        }
    }

    /// The adaptive pick shrinks blocks as the measured conflict degree
    /// grows and streams direct loops with the maximum size.
    #[test]
    fn adaptive_block_size_tracks_degree() {
        // Indirect edge loop on a path: every interior node is touched
        // by ~2 edges × 2 accesses → degree ≈ 2 → mid-range blocks.
        let (dom, spec) = path_fixture(257);
        let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
        let accesses = conflict_accesses(dom.maps(), &spec.sig());
        let n = dom.set(spec.sig().set).size;
        let degree = conflict_degree(0, n, &set_sizes, &accesses);
        assert!(degree > 1.5, "path degree {degree}");
        let picked = adaptive_block_size(0, n, &set_sizes, &accesses);
        assert!(
            (AUTO_BLOCK_MIN..AUTO_BLOCK_MAX).contains(&picked),
            "picked {picked}"
        );

        // Direct loop: no conflict accesses → max streaming block.
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 64);
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let direct = LoopSpec::new("w", nodes, vec![Arg::dat_direct(a, AccessMode::Write)], noop);
        let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
        let accesses = conflict_accesses(dom.maps(), &direct.sig());
        assert_eq!(
            adaptive_block_size(0, 64, &set_sizes, &accesses),
            AUTO_BLOCK_MAX
        );
    }

    /// The block_size=1 element expansion passes the per-element
    /// validity check (wiring for `coloring::is_valid_coloring`), and
    /// the order-preserving coloring never beats the greedy minimum.
    #[test]
    fn element_expansion_is_valid() {
        let (dom, spec) = path_fixture(48);
        let bc = color_blocks(&dom, &spec.sig(), 1);
        let ec = bc.element_coloring();
        assert!(crate::coloring::is_valid_coloring(&dom, &spec.sig(), &ec));
        let total: usize = ec.by_color.iter().map(Vec::len).sum();
        assert_eq!(total, 47);
        let greedy = crate::coloring::color_loop(&dom, &spec.sig());
        assert!(ec.n_colors >= greedy.n_colors);
    }

    /// A read-only indirect loop (no modifies) gets one color even when
    /// every block shares elements.
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
        let bc = color_blocks(&dom, &spec.sig(), 4);
        assert_eq!(bc.n_colors, 1);
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

    /// `thread_schedule` picks by eligibility alone: one windowed level
    /// for the Inc loop, the colored ladder once an argument turns `Rw`.
    #[test]
    fn thread_schedule_selects_by_descriptors() {
        let (dom, spec) = path_fixture(65);
        let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
        let lower = |spec: &LoopSpec| {
            thread_schedule(dom.maps(), &spec.sig(), 0, 64, 2, 16, &set_sizes)
        };
        let owned = lower(&spec);
        assert_eq!(owned.kind, ScheduleKind::Owned { start: 0, end: 64 });
        assert_eq!((owned.n_levels(), owned.n_chunks()), (1, 2));
        // The path's one cut edge runs on both threads.
        assert_eq!(owned.redundant_iters(), 1);

        let mut rw = spec.clone();
        let (r, e2n) = (dom.dat_by_name("res").unwrap(), dom.map_by_name("e2n").unwrap());
        rw.args[1] = Arg::dat_indirect(r, e2n, 1, AccessMode::Rw);
        let colored = lower(&rw);
        assert_eq!(colored.kind, ScheduleKind::Colored { block_size: 16 });
        assert_eq!(colored.n_levels(), 4);
        assert_eq!(colored.redundant_iters(), 0);
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
    /// one chunk (`windows_valid`), and execution — sequential or on
    /// threads — is bitwise the plain range walk.
    #[test]
    fn owned_windows_partition_and_execute_bitwise() {
        for (n_a, n_b, n_iter, start, end) in [
            (41, 17, 200, 0, 200),
            (41, 17, 200, 37, 151),
            (3, 2, 64, 0, 64),
            (5, 1, 9, 2, 9),
        ] {
            let (dom, spec) = two_target_fixture(n_a, n_b, n_iter);
            let set_sizes: Vec<usize> = dom.sets().iter().map(|s| s.size).collect();
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
                let mut par_dom = dom.clone();
                let mut gbls = Vec::new();
                let bound = BoundLoop::bind(&mut par_dom, &spec, &mut gbls);
                assert!(sched.windows_valid(&bound), "{n_threads} threads");
                assert_eq!(
                    sched.loop_iters(0) - sched.redundant_iters(),
                    end - start
                );

                // A widened window double-counts, a dropped chunk loses
                // increments: both must fail the check.
                let mut wide = sched.clone();
                if let Some(w) = wide.levels[0].chunks[0].mask.first_mut() {
                    w.hi += 1;
                }
                let mut short = sched.clone();
                short.levels[0].chunks.pop();
                if sched.n_chunks() > 1 {
                    assert!(!wide.windows_valid(&bound));
                    assert!(!short.windows_valid(&bound));
                }

                let mut seq_dom = dom.clone();
                run_loop_schedule(&mut seq_dom, &spec, &sched);
                run_loop_schedule_threads(&mut par_dom, &spec, &sched, n_threads);
                for d in ["on_a", "on_b"] {
                    let id = dom.dat_by_name(d).unwrap();
                    assert_eq!(seq_dom.dat(id).data, reference.dat(id).data, "{d} seq walk");
                    assert_eq!(par_dom.dat(id).data, reference.dat(id).data, "{d} threads");
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
