//! The unified `Schedule` execution IR.
//!
//! Every way this crate runs a loop or a loop-chain — a plain sequential
//! range, a colored-blocked threaded loop, a sparse-tiled chain — is the
//! same thing at heart: an ordered list of *levels* separated by
//! synchronization barriers, each level holding iteration *chunks* that
//! are conflict-free against one another. This module makes that shape a
//! first-class value:
//!
//! * [`Piece`] — a contiguous iteration range or an explicit index list
//!   of one loop of the chain;
//! * [`Chunk`] — an ordered list of pieces executed sequentially by one
//!   worker (a colored block; a tile's slice of every loop);
//! * [`Schedule`] — levels of chunks. Chunks within a level may run
//!   concurrently; levels execute in order with a barrier between them.
//!
//! Lowerings build schedules from each scheduling strategy
//! ([`Schedule::range`], [`Schedule::from_coloring`],
//! [`crate::par::colored_schedule`], [`Schedule::from_tile_plan`],
//! [`crate::par::owned_schedule`]), and a single pair of executors runs
//! them: [`run_schedule`] (sequential, one thread, level and chunk
//! order) and [`run_schedule_threads`] (scoped OS threads per level —
//! the reference threaded executor; the runtime crate's pool executes
//! the same schedules per rank).
//!
//! **Determinism contract.** When the lowering guarantees that (a)
//! same-level chunks touch disjoint modified elements and (b) every
//! conflicting chunk pair is ordered by level in ascending iteration
//! order, the per-element update sequence under any thread count equals
//! the sequential one, so results are **bitwise identical** to
//! [`crate::seq::run_loop`] / the sequential tiled walk. Every leveled
//! lowering — blocks, tiles, fused blocks — gets (a) and (b) from the one
//! rule of [`crate::conflict`] and is assembled by
//! [`Schedule::from_levels`], which re-checks both in debug builds. The
//! owner-computes lowering meets (a) differently: its chunks *overlap*
//! in iterations but each carries a window per modifying argument
//! ([`Chunk::mask`]) and keeps only the increments landing inside it, so
//! one chunk alone updates each element, in ascending iteration order —
//! (b) has no pair left to order and one level suffices
//! ([`Schedule::windows_valid`] is its checkable form).
//!
//! [`BoundLoop`] is the one argument-resolution and kernel-invocation
//! path shared by every executor: base pointers resolved once per loop,
//! then each piece handed to the loop's compiled [`Kernel`], whose
//! monomorphised loops resolve and call per iteration. The distributed
//! runtime binds its rank-local buffers through [`BoundLoop::bind_with`]
//! (the same argument binding with its own buffer and map lookups) and
//! reuses the same chunk walker, so there is exactly one execution loop
//! per kernel in the codebase regardless of back-end.

use crate::access::{AccessMode, Arg};
use crate::coloring::Coloring;
use crate::conflict::{levels_valid, ConflictAccess};
use crate::domain::{DatId, Domain, MapId};
use crate::kernel::{Iters, Kernel, Mask};
use crate::loops::LoopSpec;
use crate::tiling::TilePlan;

/// One contiguous or listed slice of one loop's iteration space, or a
/// fused slice interleaving every loop of one fusion group per element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// Iterations `[start, end)` of chain loop `loop_idx`.
    Range {
        loop_idx: u32,
        start: u32,
        end: u32,
    },
    /// An explicit ascending iteration list of chain loop `loop_idx`.
    List { loop_idx: u32, iters: Vec<u32> },
    /// Iterations `[start, end)` running *every* loop of fusion group
    /// `group` (see [`Schedule::fused`]) back to back per element:
    /// `L_a(e); L_b(e); …` — intermediates stay register/scratch-resident
    /// instead of round-tripping through the dat between loops.
    Fused { group: u32, start: u32, end: u32 },
    /// The list form of [`Piece::Fused`].
    FusedList { group: u32, iters: Vec<u32> },
}

impl Piece {
    /// Number of elements the piece covers (fused pieces count each
    /// element once even though every group loop runs on it).
    pub fn len(&self) -> usize {
        match self {
            Piece::Range { start, end, .. } | Piece::Fused { start, end, .. } => {
                (*end as usize).saturating_sub(*start as usize)
            }
            Piece::List { iters, .. } | Piece::FusedList { iters, .. } => iters.len(),
        }
    }

    /// Whether the piece covers no iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which single chain loop the piece belongs to (`None` for fused
    /// pieces, which belong to every loop of their group).
    pub fn loop_idx(&self) -> Option<usize> {
        match self {
            Piece::Range { loop_idx, .. } | Piece::List { loop_idx, .. } => {
                Some(*loop_idx as usize)
            }
            Piece::Fused { .. } | Piece::FusedList { .. } => None,
        }
    }

    /// Which fusion group a fused piece executes (`None` for plain
    /// single-loop pieces).
    pub fn group_idx(&self) -> Option<usize> {
        match self {
            Piece::Fused { group, .. } | Piece::FusedList { group, .. } => Some(*group as usize),
            Piece::Range { .. } | Piece::List { .. } => None,
        }
    }
}

/// The slice of one `Inc`-through-a-map argument's target set that a
/// windowed chunk owns: increments landing in `[lo, hi)` are applied,
/// the rest are dropped into the worker's sink (another chunk of the
/// same level owns them). See [`crate::par::owned_schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgWindow {
    /// Argument index in the chunk's loop.
    pub arg: u32,
    /// First owned target element.
    pub lo: u32,
    /// One-past-last owned target element.
    pub hi: u32,
}

/// The unit of work one worker executes without interruption: pieces in
/// order (for tiles, the tile's slice of `L_0`, then of `L_1`, …).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Chunk {
    pub pieces: Vec<Piece>,
    /// Owner-computes windows, one per modifying argument (empty for
    /// every other lowering). A windowed chunk holds plain `Range` /
    /// `List` pieces of a single loop.
    pub mask: Vec<ArgWindow>,
}

impl Chunk {
    /// An unwindowed chunk of `pieces`.
    pub fn new(pieces: Vec<Piece>) -> Chunk {
        Chunk {
            pieces,
            mask: Vec::new(),
        }
    }

    /// Total iterations across all pieces.
    pub fn iters(&self) -> usize {
        self.pieces.iter().map(Piece::len).sum()
    }
}

/// One barrier-delimited group of mutually conflict-free chunks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Level {
    pub chunks: Vec<Chunk>,
}

/// Which lowering produced a schedule — carried for tracing/diagnostics,
/// never consulted by the executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// A plain range or index list: one level, one chunk.
    Direct,
    /// Lowered from a (block) coloring: level per color.
    Colored { block_size: usize },
    /// Owner-computes lowering of iterations `[start, end)`
    /// ([`crate::par::owned_schedule`]): one level, one windowed chunk
    /// per thread, cut iterations executed by every chunk they
    /// increment into.
    Owned { start: usize, end: usize },
    /// Lowered from a leveled tile plan: level per tile-conflict level.
    Tiled { n_tiles: usize },
}

/// One elided (scratch-resident) intermediate of a fusion group: inside
/// fused pieces the bound arguments listed in `binds` are repointed at a
/// fixed per-worker scratch slot instead of the dat's memory, so the
/// produce→consume round-trip through the dat never happens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScratchBind {
    /// Components per element of the elided dat.
    pub dim: u32,
    /// `f64` offset of this dat's slot in the worker scratch pool.
    pub offset: u32,
    /// Group-member position of the producing (direct-Write) loop.
    pub producer: u32,
    /// `(group-member position, arg index)` pairs to repoint at the
    /// scratch slot — the producer's write args and every consumer's
    /// read args.
    pub binds: Vec<(u32, u32)>,
}

impl ScratchBind {
    /// Group-member positions that consume (read) the scratch slot.
    pub fn consumers(&self) -> impl Iterator<Item = u32> + '_ {
        let p = self.producer;
        self.binds
            .iter()
            .map(|&(m, _)| m)
            .filter(move |&m| m != p)
    }
}

/// Metadata for one fused group of a schedule: which chain loops a
/// [`Piece::Fused`] interleaves, and which intermediates it elides into
/// the per-worker scratch pool.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FusedGroup {
    /// Chain-loop indices executed per element, in program order.
    pub loops: Vec<u32>,
    /// Elided intermediates (empty = fuse without elision: every dat is
    /// still written through to memory).
    pub scratch: Vec<ScratchBind>,
}

/// An executable schedule over an `n_loops`-long chain (1 for a single
/// loop). See the module docs for the level/chunk semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Number of chain loops the pieces index into.
    pub n_loops: usize,
    /// Provenance tag for traces.
    pub kind: ScheduleKind,
    /// Barrier-ordered levels.
    pub levels: Vec<Level>,
    /// Fusion groups referenced by [`Piece::Fused`] / [`Piece::FusedList`]
    /// (empty for unfused schedules).
    pub fused: Vec<FusedGroup>,
}

impl Schedule {
    /// A single loop over `[start, end)`: one level, one chunk.
    pub fn range(start: usize, end: usize) -> Schedule {
        Schedule {
            n_loops: 1,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![Chunk::new(vec![Piece::Range {
                    loop_idx: 0,
                    start: start as u32,
                    end: end.max(start) as u32,
                }])],
            }],
            fused: Vec::new(),
        }
    }

    /// A single loop over an explicit iteration list: one level, one
    /// chunk.
    pub fn list(iters: Vec<u32>) -> Schedule {
        Schedule {
            n_loops: 1,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![Chunk::new(vec![Piece::List {
                    loop_idx: 0,
                    iters,
                }])],
            }],
            fused: Vec::new(),
        }
    }

    /// Lower a greedy per-iteration [`Coloring`]: one level per color,
    /// each color's iterations split into list chunks of at most
    /// `chunk_size`. Greedy colorings reorder conflicting iterations
    /// across colors, so this lowering is race-free but **not** bitwise
    /// order-preserving (see [`crate::par::colored_schedule`] for the
    /// lowering that is).
    pub fn from_coloring(coloring: &Coloring, chunk_size: usize) -> Schedule {
        let chunk_size = chunk_size.max(1);
        let levels = coloring
            .by_color
            .iter()
            .map(|bucket| Level {
                chunks: bucket
                    .chunks(chunk_size)
                    .map(|piece| {
                        Chunk::new(vec![Piece::List {
                            loop_idx: 0,
                            iters: piece.to_vec(),
                        }])
                    })
                    .collect(),
            })
            .collect();
        Schedule {
            n_loops: 1,
            kind: ScheduleKind::Colored { block_size: 1 },
            levels,
            fused: Vec::new(),
        }
    }

    /// Bucket `units` (given in sequential order) by their conflict
    /// `levels` into a leveled schedule over an `accesses.len()`-long
    /// chain: one level per distinct value, ascending, units keeping
    /// their order within a level. The single constructor of every
    /// order-preserving leveled lowering — blocks, tiles, fused blocks —
    /// and therefore where the conflict rule is audited: in debug builds
    /// [`levels_valid`] re-checks `levels` pair by pair against
    /// `accesses`, the descriptors they were computed under (see
    /// [`crate::conflict`]).
    pub fn from_levels(
        kind: ScheduleKind,
        fused: Vec<FusedGroup>,
        units: Vec<Chunk>,
        levels: &[u32],
        accesses: &[Vec<ConflictAccess<'_>>],
        set_sizes: &[usize],
    ) -> Schedule {
        debug_assert!(
            levels_valid(&units, levels, &fused, accesses, set_sizes),
            "{kind:?}: conflicting units share a level or descend"
        );
        let n_levels = levels.iter().max().map_or(0, |&l| l as usize + 1);
        let mut buckets = vec![Level::default(); n_levels];
        for (unit, &l) in units.into_iter().zip(levels) {
            buckets[l as usize].chunks.push(unit);
        }
        buckets.retain(|l| !l.chunks.is_empty());
        Schedule {
            n_loops: accesses.len(),
            kind,
            levels: buckets,
            fused,
        }
    }

    /// Lower a leveled [`TilePlan`]: one level per tile-conflict level,
    /// one chunk per tile ([`TilePlan::unit`]), tile ids ascending within
    /// a level. Conflicting tiles sit on strictly ascending levels in
    /// tile order, so level-order execution is bitwise identical to the
    /// ascending-tile sequential walk. `accesses` are the chain's
    /// [`crate::conflict::chain_accesses`].
    pub fn from_tile_plan(
        plan: &TilePlan,
        accesses: &[Vec<ConflictAccess<'_>>],
        set_sizes: &[usize],
    ) -> Schedule {
        Self::from_tile_plan_subset(plan, &vec![true; plan.n_tiles], accesses, set_sizes)
    }

    /// Lower only the tiles with `keep[t] == true`, on the plan's own
    /// levels (levels left with no kept tile are dropped). Used by the
    /// overlap executor to split one plan into a core schedule (runs
    /// while the exchange is in flight) and a post schedule (runs after
    /// the wait); level order within each half is exactly the full
    /// plan's, so running one half and then the other replays the full
    /// plan whenever the split itself is order-safe (see
    /// `tiling::overlap_core_tiles`).
    pub fn from_tile_plan_subset(
        plan: &TilePlan,
        keep: &[bool],
        accesses: &[Vec<ConflictAccess<'_>>],
        set_sizes: &[usize],
    ) -> Schedule {
        let (units, levels): (Vec<Chunk>, Vec<u32>) = (0..plan.n_tiles)
            .filter(|&t| keep[t])
            .map(|t| (plan.unit(t), plan.levels[t]))
            .unzip();
        let kind = ScheduleKind::Tiled {
            n_tiles: plan.n_tiles,
        };
        Schedule::from_levels(kind, Vec::new(), units, &levels, accesses, set_sizes)
    }

    /// Number of barrier-delimited levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total chunk count across all levels.
    pub fn n_chunks(&self) -> usize {
        self.levels.iter().map(|l| l.chunks.len()).sum()
    }

    /// Widest level (the available parallelism).
    pub fn max_level_chunks(&self) -> usize {
        self.levels.iter().map(|l| l.chunks.len()).max().unwrap_or(0)
    }

    /// Total iterations scheduled for chain loop `loop_idx` (fused
    /// pieces count for every member loop they interleave).
    pub fn loop_iters(&self, loop_idx: usize) -> usize {
        self.levels
            .iter()
            .flat_map(|l| &l.chunks)
            .flat_map(|c| &c.pieces)
            .filter(|p| match p.loop_idx() {
                Some(j) => j == loop_idx,
                None => self.fused[p.group_idx().expect("fused piece")]
                    .loops
                    .contains(&(loop_idx as u32)),
            })
            .map(Piece::len)
            .sum()
    }

    /// Iterations executed more than once: an owner-computes schedule
    /// runs every cut iteration in each chunk it increments into. Zero
    /// for every other lowering.
    pub fn redundant_iters(&self) -> usize {
        match self.kind {
            ScheduleKind::Owned { start, end } => {
                self.loop_iters(0).saturating_sub(end.saturating_sub(start))
            }
            _ => 0,
        }
    }

    /// The owner-computes construction invariant, checked against the
    /// loop the schedule will run: a single level whose chunks carry
    /// ascending, pairwise disjoint windows over exactly the loop's
    /// modifying arguments (all `Inc` through a map), visit iterations of
    /// `[start, end)` in ascending order, and between them leave every
    /// (iteration, modifying argument) pair unmasked **exactly once** —
    /// so same-level chunks write disjoint elements and each element
    /// receives its increments from one chunk in sequential order.
    /// Schedules of any other kind must carry no windows at all.
    pub fn windows_valid(&self, bound: &BoundLoop) -> bool {
        let chunks = || self.levels.iter().flat_map(|l| &l.chunks);
        let ScheduleKind::Owned { start, end } = self.kind else {
            return chunks().all(|c| c.mask.is_empty());
        };
        let Some(first) = chunks().next() else {
            return start >= end;
        };
        if self.levels.len() != 1 {
            return false;
        }
        // The windowed arguments are exactly the loop's modifying ones,
        // each an `Inc` through a map (a global reduction would race
        // across chunks).
        let windowed: Vec<usize> = first.mask.iter().map(|w| w.arg as usize).collect();
        let windowed_ok = windowed.iter().all(|&i| {
            bound
                .args
                .get(i)
                .is_some_and(|a| a.mode == AccessMode::Inc && a.is_indirect())
        });
        let rest_ok = bound
            .args
            .iter()
            .enumerate()
            .all(|(i, a)| windowed.contains(&i) || !a.mode.modifies());
        if !windowed_ok || !rest_ok {
            return false;
        }
        let n_mask = first.mask.len();
        let mut unmasked = vec![0u8; end.saturating_sub(start) * n_mask];
        let mut prev: Option<&Chunk> = None;
        for chunk in chunks() {
            let same_args = chunk.mask.len() == n_mask
                && chunk.mask.iter().zip(&first.mask).all(|(a, b)| a.arg == b.arg);
            let ascending = prev
                .is_none_or(|p| p.mask.iter().zip(&chunk.mask).all(|(a, b)| a.hi <= b.lo));
            if !same_args || !ascending || chunk.mask.iter().any(|w| w.lo > w.hi) {
                return false;
            }
            prev = Some(chunk);
            let mut last: Option<usize> = None;
            for piece in &chunk.pieces {
                let iters: Box<dyn Iterator<Item = usize> + '_> = match piece {
                    Piece::Range {
                        loop_idx: 0,
                        start,
                        end,
                    } => Box::new(*start as usize..*end as usize),
                    Piece::List { loop_idx: 0, iters } => {
                        Box::new(iters.iter().map(|&e| e as usize))
                    }
                    _ => return false,
                };
                for e in iters {
                    if e < start || e >= end || last.is_some_and(|l| l >= e) {
                        return false;
                    }
                    last = Some(e);
                    for (k, w) in chunk.mask.iter().enumerate() {
                        // SAFETY: `BoundLoop` contract; `e` is an
                        // iteration the schedule is about to execute.
                        let v = unsafe { bound.args[w.arg as usize].gather(e) };
                        if (w.lo..w.hi).contains(&v) {
                            let n = &mut unmasked[(e - start) * n_mask + k];
                            *n = n.saturating_add(1);
                        }
                    }
                }
            }
        }
        unmasked.iter().all(|&n| n == 1)
    }

    /// Whether running the schedule on threads can use more than one
    /// worker at a time.
    pub fn has_parallelism(&self) -> bool {
        self.max_level_chunks() > 1
    }

    /// Total fused pieces across all levels.
    pub fn n_fused_pieces(&self) -> usize {
        self.levels
            .iter()
            .flat_map(|l| &l.chunks)
            .flat_map(|c| &c.pieces)
            .filter(|p| p.group_idx().is_some())
            .count()
    }

    /// Length (in `f64`s) of the per-worker scratch pool the fused
    /// groups' elided intermediates require.
    pub fn scratch_pool_len(&self) -> usize {
        self.fused
            .iter()
            .flat_map(|g| &g.scratch)
            .map(|s| (s.offset + s.dim) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Fusion post-pass: within every chunk, replace each window of
    /// adjacent pieces that covers *all* loops of one fusion group — in
    /// member order, with identical element coverage — by a single
    /// [`Piece::Fused`] / [`Piece::FusedList`]. Applies unchanged to any
    /// lowering (range, coloring, tiling); windows that don't line up
    /// (e.g. a tile whose per-loop slices differ) are left unfused, which
    /// stays correct because fused pieces preserve the per-location
    /// update order of the unfused walk.
    ///
    /// `group_of[j]` names loop `j`'s fusion group, if any.
    pub fn fuse(mut self, groups: Vec<FusedGroup>, group_of: &[Option<usize>]) -> Schedule {
        debug_assert_eq!(group_of.len(), self.n_loops);
        for level in &mut self.levels {
            for chunk in &mut level.chunks {
                chunk.pieces = fuse_pieces(std::mem::take(&mut chunk.pieces), &groups, group_of);
            }
        }
        self.fused = groups;
        self
    }

    /// Direct (single-chunk) lowering of a whole chain with fusion: for
    /// each fusion group one fused range over the members' common prefix
    /// `[0, min end)` followed by per-member tail ranges (members whose
    /// extent-driven end exceeds the common prefix), in member order;
    /// unfused loops as plain ranges. One level, one chunk — the
    /// sequential reference shape of a fused chain.
    pub fn chain_ranges_fused(
        ends: &[usize],
        groups: Vec<FusedGroup>,
        group_of: &[Option<usize>],
    ) -> Schedule {
        let mut pieces = Vec::new();
        let mut j = 0usize;
        while j < ends.len() {
            match group_of[j] {
                Some(g) if groups[g].loops.first() == Some(&(j as u32)) => {
                    let members = &groups[g].loops;
                    let common = members
                        .iter()
                        .map(|&m| ends[m as usize])
                        .min()
                        .unwrap_or(0);
                    pieces.push(Piece::Fused {
                        group: g as u32,
                        start: 0,
                        end: common as u32,
                    });
                    for &m in members {
                        if ends[m as usize] > common {
                            pieces.push(Piece::Range {
                                loop_idx: m,
                                start: common as u32,
                                end: ends[m as usize] as u32,
                            });
                        }
                    }
                    j += members.len();
                }
                _ => {
                    pieces.push(Piece::Range {
                        loop_idx: j as u32,
                        start: 0,
                        end: ends[j] as u32,
                    });
                    j += 1;
                }
            }
        }
        Schedule {
            n_loops: ends.len(),
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![Chunk::new(pieces)],
            }],
            fused: groups,
        }
    }
}

/// The chunk-local fusion window matcher behind [`Schedule::fuse`].
fn fuse_pieces(
    pieces: Vec<Piece>,
    groups: &[FusedGroup],
    group_of: &[Option<usize>],
) -> Vec<Piece> {
    let mut out = Vec::with_capacity(pieces.len());
    let mut i = 0usize;
    'outer: while i < pieces.len() {
        if let Some(j) = pieces[i].loop_idx() {
            if let Some(g) = group_of.get(j).copied().flatten() {
                let members = &groups[g].loops;
                // The window must start at the group's first member and
                // cover every member with identical coverage.
                if members.first() == Some(&(j as u32)) && i + members.len() <= pieces.len() {
                    let window = &pieces[i..i + members.len()];
                    let aligned = window.iter().zip(members.iter()).all(|(p, &m)| {
                        p.loop_idx() == Some(m as usize) && same_coverage(&window[0], p)
                    });
                    if aligned {
                        out.push(match &window[0] {
                            Piece::Range { start, end, .. } => Piece::Fused {
                                group: g as u32,
                                start: *start,
                                end: *end,
                            },
                            Piece::List { iters, .. } => Piece::FusedList {
                                group: g as u32,
                                iters: iters.clone(),
                            },
                            _ => unreachable!("window starts at a plain piece"),
                        });
                        i += members.len();
                        continue 'outer;
                    }
                }
            }
        }
        out.push(pieces[i].clone());
        i += 1;
    }
    out
}

/// Identical element coverage between two plain pieces.
fn same_coverage(a: &Piece, b: &Piece) -> bool {
    match (a, b) {
        (
            Piece::Range { start: s1, end: e1, .. },
            Piece::Range { start: s2, end: e2, .. },
        ) => s1 == s2 && e1 == e2,
        (Piece::List { iters: i1, .. }, Piece::List { iters: i2, .. }) => i1 == i2,
        _ => false,
    }
}

/// Whether the schedules keep every *consumer* access of each elided
/// intermediate inside a fused piece of its group — the structural
/// precondition for scratch elision. A standalone (unfused) piece of a
/// consumer loop would read the scratch slot without its producer having
/// filled it for that element, so elision must be dropped (write-through)
/// whenever any lowering leaves one behind. Standalone *producer* pieces
/// (extent tails) are harmless: their scratch writes are dead by the
/// chain-local-intermediate contract.
pub fn elision_valid(scheds: &[&Schedule], groups: &[FusedGroup], group_of: &[Option<usize>]) -> bool {
    // Loops that consume some scratch slot of their group.
    let mut consumer_loops: Vec<usize> = Vec::new();
    for g in groups {
        for s in &g.scratch {
            for m in s.consumers() {
                let j = g.loops[m as usize] as usize;
                if !consumer_loops.contains(&j) {
                    consumer_loops.push(j);
                }
            }
        }
    }
    if consumer_loops.is_empty() {
        return true;
    }
    for sched in scheds {
        for piece in sched
            .levels
            .iter()
            .flat_map(|l| &l.chunks)
            .flat_map(|c| &c.pieces)
        {
            if let Some(j) = piece.loop_idx() {
                if !piece.is_empty() && consumer_loops.contains(&j) && group_of[j].is_some() {
                    return false;
                }
            }
        }
    }
    true
}

/// One resolved kernel argument in the one branch-free form every kind
/// shares: at iteration `e` its data starts at
/// `base + dim·map[e·mstride] + e·estride`.
///
/// | kind | `map` | `mstride` | `estride` |
/// |---|---|---|---|
/// | indirect | the map's values, offset by the entry `idx` | arity | 0 |
/// | direct | a shared static zero row | 0 | `dim` |
/// | global, scratch slot | the zero row | 0 | 0 |
///
/// Built only by the constructors below, which keep the strides
/// consistent with `dim`.
#[derive(Debug, Clone, Copy)]
pub struct BoundArg {
    /// Base of the dat / gbl buffer.
    pub(crate) base: *mut f64,
    /// Components per element (gbl: buffer length).
    pub(crate) dim: u32,
    pub(crate) mode: AccessMode,
    /// Where the element index is gathered from.
    map: *const u32,
    /// `map` step per iteration.
    mstride: usize,
    /// `base` step per iteration, in `f64`s.
    pub(crate) estride: usize,
}

/// The map every non-indirect argument gathers its element index from:
/// with `mstride` 0 it reads entry 0 at every iteration.
static ZERO_ROW: [u32; 1] = [0];

impl BoundArg {
    /// Entry `idx` of the `arity`-entry rows at `values`.
    pub fn indirect(
        base: *mut f64,
        dim: u32,
        mode: AccessMode,
        values: *const u32,
        arity: usize,
        idx: usize,
    ) -> BoundArg {
        debug_assert!(idx < arity, "map entry {idx} of an arity-{arity} map");
        BoundArg {
            map: values.wrapping_add(idx),
            mstride: arity,
            ..BoundArg::global(base, dim, mode)
        }
    }

    /// Element `e` at iteration `e`.
    pub fn direct(base: *mut f64, dim: u32, mode: AccessMode) -> BoundArg {
        BoundArg {
            estride: dim as usize,
            ..BoundArg::global(base, dim, mode)
        }
    }

    /// The buffer start at every iteration: a global, or an elided
    /// intermediate bound to its scratch slot.
    pub fn global(base: *mut f64, dim: u32, mode: AccessMode) -> BoundArg {
        BoundArg {
            base,
            dim,
            mode,
            map: ZERO_ROW.as_ptr(),
            mstride: 0,
            estride: 0,
        }
    }

    /// Whether the element is gathered through a map.
    pub(crate) fn is_indirect(&self) -> bool {
        self.mstride != 0
    }

    /// The element index gathered at iteration `e`, `map[e·mstride]`
    /// (0 for a direct or global argument).
    ///
    /// # Safety
    /// `e` must be an iteration the binding covers ([`BoundLoop`]'s
    /// contract).
    #[inline(always)]
    pub(crate) unsafe fn gather(&self, e: usize) -> u32 {
        *self.map.add(e * self.mstride)
    }
}

/// A loop with every argument resolved to raw pointers — the single
/// kernel-invocation path all executors share.
///
/// # Safety contract
/// The pointers must reference buffers that outlive the `BoundLoop` and
/// are not reallocated while it is used. Concurrent execution is sound
/// only under a schedule whose same-level chunks modify disjoint
/// elements — disjoint blocks or tiles under the colored and tiled
/// lowerings, disjoint *windows* of each target set under the
/// owner-computes one, where a chunk's out-of-window increments land in
/// its worker's private sink; all data access is value-based through
/// [`crate::kernel::Args`], so no references are formed.
pub struct BoundLoop {
    pub kernel: Kernel,
    pub args: Vec<BoundArg>,
}

// SAFETY: `kernel` is `Send + Sync`; `args` holds raw pointers into
// dat, map and gbl buffers that the struct-level contract keeps alive and
// unmoved. Callers only share a BoundLoop across threads under a
// schedule whose same-level chunks modify disjoint elements: disjoint
// iteration blocks/tiles (colored, tiled) or disjoint target *windows*
// with every out-of-window increment diverted to the worker's own sink
// (owner-computes; `Schedule::windows_valid` is the checkable form).
// Map and read-only dat buffers are never written during execution.
unsafe impl Sync for BoundLoop {}
unsafe impl Send for BoundLoop {}

impl BoundLoop {
    /// Resolve `spec` against a global domain. `gbl_bufs` (one buffer
    /// per [`crate::access::GblDecl`], preallocated by the caller) backs
    /// the loop's global arguments; it must not be moved or resized
    /// while the returned `BoundLoop` is live.
    pub fn bind(dom: &mut Domain, spec: &LoopSpec, gbl_bufs: &mut [Vec<f64>]) -> BoundLoop {
        BoundLoop::bind_with(spec, gbl_bufs, |dat, map| {
            let base = dom.dat_mut(dat).data.as_mut_ptr();
            let map = map.map(|m| (dom.map(m).values.as_ptr(), dom.map(m).arity));
            (base, dom.dat(dat).dim as u32, map)
        })
    }

    /// Resolve `spec` through `lookup(dat, map)`: the dat's buffer base
    /// and dim, and — when `map` is given (an indirect argument) — that
    /// map's values and arity. `gbl_bufs` backs the global arguments as
    /// in [`BoundLoop::bind`]. Binding against a global domain and
    /// against a rank's local buffers differ only in `lookup`.
    pub fn bind_with(
        spec: &LoopSpec,
        gbl_bufs: &mut [Vec<f64>],
        mut lookup: impl FnMut(DatId, Option<MapId>) -> (*mut f64, u32, Option<(*const u32, usize)>),
    ) -> BoundLoop {
        let args = spec
            .args
            .iter()
            .map(|arg| match *arg {
                Arg::Dat { dat, map, mode } => {
                    let (base, dim, values) = lookup(dat, map.map(|(m, _)| m));
                    match map.zip(values) {
                        Some(((_, idx), (values, arity))) => {
                            BoundArg::indirect(base, dim, mode, values, arity, idx as usize)
                        }
                        None => BoundArg::direct(base, dim, mode),
                    }
                }
                Arg::Gbl { idx, mode } => {
                    let buf = &mut gbl_bufs[idx as usize];
                    BoundArg::global(buf.as_mut_ptr(), buf.len() as u32, mode)
                }
            })
            .collect();
        BoundLoop::from_parts(spec.kernel.clone(), args)
    }

    /// Assemble from already-resolved parts — the distributed runtime
    /// resolves against its rank-local dat buffers and localized maps.
    ///
    /// # Panics
    /// If `args` does not hold one entry per kernel argument.
    pub fn from_parts(kernel: Kernel, args: Vec<BoundArg>) -> BoundLoop {
        assert_eq!(
            args.len(),
            kernel.n_args(),
            "one bound argument per kernel argument"
        );
        BoundLoop { kernel, args }
    }

    /// Run iterations `[start, end)` on the calling thread.
    pub fn run_range(&self, start: usize, end: usize) {
        self.kernel.run(&self.args, Iters::Range(start, end), None);
    }
}

/// Reusable per-worker execution state: the scratch pool backing elided
/// intermediates, per-loop bound-arg overrides that point scratch-bound
/// arguments into that pool, and the owner-computes sink and windows.
/// Prepared once per schedule execution and reused across invocations —
/// at steady state (same chain, same shapes) [`SchedCtx::prepare`]
/// performs **zero heap allocations** (the `*_into` reuse pattern);
/// [`SchedCtx::allocs`] counts the growths that did happen.
#[derive(Default)]
pub struct SchedCtx {
    /// Scratch pool backing elided per-element intermediates.
    pool: Vec<f64>,
    /// Per chain loop: bound args with scratch rebinds applied (empty =
    /// the loop has no elided args; use the `BoundLoop`'s own).
    overrides: Vec<Vec<BoundArg>>,
    /// Where windowed chunks drop out-of-window increments; grown to the
    /// widest windowed argument by the first windowed chunk this worker
    /// runs, never read.
    sink: Vec<f64>,
    /// The running windowed chunk's per-argument `(lo, len)` windows.
    wins: Vec<(u32, u32)>,
    /// Heap (re)allocations performed by `prepare` (and sink growths)
    /// so far.
    allocs: u64,
}

// SAFETY: the raw pointers inside `overrides` reference either the
// caller's bound buffers (same contract as `BoundLoop`) or this ctx's
// own `pool`; a ctx is only ever used by one worker at a time.
unsafe impl Send for SchedCtx {}

impl SchedCtx {
    /// An empty context; buffers grow on first `prepare`.
    pub fn new() -> SchedCtx {
        SchedCtx::default()
    }

    /// Heap allocations `prepare` has performed over this ctx's lifetime
    /// — constant once warm.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Size the context for `sched` over `bound`, rebuilding the scratch
    /// pool and the per-loop arg overrides. Buffer capacities are kept
    /// across calls, so repeat preparations for same-shaped schedules
    /// allocate nothing.
    pub fn prepare(&mut self, bound: &[BoundLoop], sched: &Schedule) {
        let track = |allocs: &mut u64, grew: bool| {
            if grew {
                *allocs += 1;
            }
        };

        // Scratch pool.
        let cap0 = self.pool.capacity();
        self.pool.clear();
        self.pool.resize(sched.scratch_pool_len(), 0.0);
        track(&mut self.allocs, self.pool.capacity() != cap0);

        // Arg overrides: loops whose args are rebound into the pool.
        let cap0 = self.overrides.capacity();
        self.overrides.resize_with(bound.len(), Vec::new);
        self.overrides.truncate(bound.len());
        track(&mut self.allocs, self.overrides.capacity() != cap0);
        for o in &mut self.overrides {
            o.clear();
        }
        let pool_base = self.pool.as_mut_ptr();
        for group in &sched.fused {
            for s in &group.scratch {
                // SAFETY: offset + dim ≤ pool len by `scratch_pool_len`.
                let slot_ptr = unsafe { pool_base.add(s.offset as usize) };
                for &(member, arg) in &s.binds {
                    let j = group.loops[member as usize] as usize;
                    let ov = &mut self.overrides[j];
                    if ov.is_empty() {
                        let cap = ov.capacity();
                        ov.extend(bound[j].args.iter().copied());
                        track(&mut self.allocs, ov.capacity() != cap);
                    }
                    let mode = ov[arg as usize].mode;
                    ov[arg as usize] = BoundArg::global(slot_ptr, s.dim, mode);
                }
            }
        }
    }
}

/// Execute one chunk: its pieces in order, on the calling thread.
/// `bound[j]` must be the resolution of chain loop `j`; `ctx` carries
/// this worker's scratch pool and arg overrides (prepared for `sched`).
/// Plain pieces run whole through their loop's compiled body; fused
/// pieces call each member's per-element entry point in turn.
pub fn run_chunk(bound: &[BoundLoop], sched: &Schedule, chunk: &Chunk, ctx: &mut SchedCtx) {
    if !chunk.mask.is_empty() {
        return run_chunk_masked(bound, chunk, ctx);
    }
    let overrides = &ctx.overrides;
    let args_of = |j: usize| -> &[BoundArg] {
        if overrides[j].is_empty() {
            &bound[j].args
        } else {
            &overrides[j]
        }
    };
    let fused = |group: u32, e: usize| {
        for &m in &sched.fused[group as usize].loops {
            let j = m as usize;
            bound[j].kernel.elem(args_of(j), e);
        }
    };
    for piece in &chunk.pieces {
        match piece {
            Piece::Range {
                loop_idx,
                start,
                end,
            } => {
                let j = *loop_idx as usize;
                let iters = Iters::Range(*start as usize, *end as usize);
                bound[j].kernel.run(args_of(j), iters, None);
            }
            Piece::List { loop_idx, iters } => {
                let j = *loop_idx as usize;
                bound[j].kernel.run(args_of(j), Iters::List(iters), None);
            }
            Piece::Fused { group, start, end } => {
                (*start as usize..*end as usize).for_each(|e| fused(*group, e));
            }
            Piece::FusedList { group, iters } => {
                iters.iter().for_each(|&e| fused(*group, e as usize));
            }
        }
    }
}

/// [`run_chunk`] for a windowed (owner-computes) chunk: plain pieces of
/// one loop, every piece through the loop's compiled body under the
/// chunk's windows (see [`Mask`]).
fn run_chunk_masked(bound: &[BoundLoop], chunk: &Chunk, ctx: &mut SchedCtx) {
    let Some(first) = chunk.pieces.first() else {
        return;
    };
    let j = first
        .loop_idx()
        .expect("windowed chunks hold plain single-loop pieces");
    let BoundLoop { kernel, args } = &bound[j];
    let SchedCtx {
        sink, wins, allocs, ..
    } = ctx;
    let caps = (sink.capacity(), wins.capacity());
    wins.clear();
    wins.resize(args.len(), (0, u32::MAX));
    let mut widest = 0usize;
    for w in &chunk.mask {
        wins[w.arg as usize] = (w.lo, w.hi - w.lo);
        widest = widest.max(args[w.arg as usize].dim as usize);
    }
    if sink.len() < widest {
        sink.resize(widest, 0.0);
    }
    *allocs += u64::from(caps != (sink.capacity(), wins.capacity()));
    let mask = Mask {
        wins,
        sink: sink.as_mut_ptr(),
    };
    for piece in &chunk.pieces {
        // The windows index loop `j`'s arguments.
        assert_eq!(piece.loop_idx(), Some(j), "windowed chunk mixes loops");
        let iters = match piece {
            Piece::Range { start, end, .. } => Iters::Range(*start as usize, *end as usize),
            Piece::List { iters, .. } => Iters::List(iters),
            Piece::Fused { .. } | Piece::FusedList { .. } => {
                unreachable!("loop_idx() is None for fused pieces")
            }
        };
        kernel.run(args, iters, Some(mask));
    }
}

/// Execute a schedule sequentially: levels in order, chunks in order.
/// This is the reference semantics every threaded execution must match.
pub fn run_schedule(bound: &[BoundLoop], sched: &Schedule) {
    let mut ctx = SchedCtx::new();
    run_schedule_ctx(bound, sched, &mut ctx);
}

/// [`run_schedule`] with a caller-provided (reusable) worker context —
/// the zero-allocation steady-state entry point.
pub fn run_schedule_ctx(bound: &[BoundLoop], sched: &Schedule, ctx: &mut SchedCtx) {
    debug_assert_eq!(bound.len(), sched.n_loops);
    ctx.prepare(bound, sched);
    for level in &sched.levels {
        for chunk in &level.chunks {
            run_chunk(bound, sched, chunk, ctx);
        }
    }
}

/// Execute a schedule with `n_threads` scoped OS threads per level
/// (barrier between levels). The reference threaded executor for
/// core-level tests and single-domain callers; the runtime crate runs
/// the same schedules on its per-rank pool.
pub fn run_schedule_threads(bound: &[BoundLoop], sched: &Schedule, n_threads: usize) {
    assert!(n_threads >= 1);
    debug_assert_eq!(bound.len(), sched.n_loops);
    if n_threads == 1 {
        return run_schedule(bound, sched);
    }
    for level in &sched.levels {
        let per = level.chunks.len().div_ceil(n_threads).max(1);
        std::thread::scope(|scope| {
            for group in level.chunks.chunks(per) {
                scope.spawn(move || {
                    let mut ctx = SchedCtx::new();
                    ctx.prepare(bound, sched);
                    for chunk in group {
                        run_chunk(bound, sched, chunk, &mut ctx);
                    }
                });
            }
        });
    }
}

/// Execute `spec` under `sched` on the global domain, sequentially.
pub fn run_loop_schedule(dom: &mut Domain, spec: &LoopSpec, sched: &Schedule) -> crate::seq::LoopResult {
    let mut gbl_bufs: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();
    let bound = BoundLoop::bind(dom, spec, &mut gbl_bufs);
    run_schedule(std::slice::from_ref(&bound), sched);
    crate::seq::LoopResult { gbls: gbl_bufs }
}

/// Execute `spec` under `sched` on the global domain with `n_threads`
/// workers.
///
/// # Panics
/// Panics if the loop carries global reduction arguments — a reduction's
/// accumulation order is thread-schedule dependent, so such loops stay
/// sequential.
pub fn run_loop_schedule_threads(
    dom: &mut Domain,
    spec: &LoopSpec,
    sched: &Schedule,
    n_threads: usize,
) {
    assert!(
        !spec.has_reduction(),
        "threaded execution does not support global reductions"
    );
    let mut gbl_bufs: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();
    let bound = BoundLoop::bind(dom, spec, &mut gbl_bufs);
    run_schedule_threads(std::slice::from_ref(&bound), sched, n_threads);
}

/// Bind every loop of `chain` against the global domain. Returns the
/// bound loops plus the per-loop global buffers backing them (which must
/// stay alive and unmoved while the bounds are used).
pub fn bind_chain(
    dom: &mut Domain,
    chain: &crate::ChainSpec,
) -> (Vec<BoundLoop>, Vec<Vec<Vec<f64>>>) {
    let mut gbls: Vec<Vec<Vec<f64>>> = chain
        .loops
        .iter()
        .map(|s| s.gbls.iter().map(|g| g.init.clone()).collect())
        .collect();
    let mut bound = Vec::with_capacity(chain.len());
    for (spec, bufs) in chain.loops.iter().zip(gbls.iter_mut()) {
        bound.push(BoundLoop::bind(dom, spec, bufs));
    }
    (bound, gbls)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMode, Arg};
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use std::sync::atomic::{AtomicU8, Ordering::Relaxed};
    use std::sync::{Mutex, PoisonError};

    fn bump(args: &Args<'_>) {
        args.set(0, 0, args.get(0, 0) + 1.0);
    }

    fn fixture(n: usize) -> (Domain, LoopSpec, crate::DatId) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n);
        let x = dom.decl_dat_zeros("x", nodes, 1);
        let spec = LoopSpec::new("bump", nodes, vec![Arg::dat_direct(x, AccessMode::Rw)], bump);
        (dom, spec, x)
    }

    #[test]
    fn range_schedule_shape() {
        let s = Schedule::range(3, 11);
        assert_eq!(s.n_levels(), 1);
        assert_eq!(s.n_chunks(), 1);
        assert_eq!(s.loop_iters(0), 8);
        assert!(!s.has_parallelism());
    }

    #[test]
    fn range_and_list_lowerings_execute() {
        let (mut dom, spec, x) = fixture(6);
        run_loop_schedule(&mut dom, &spec, &Schedule::range(1, 4));
        run_loop_schedule(&mut dom, &spec, &Schedule::list(vec![0, 3, 5]));
        assert_eq!(dom.dat(x).data, vec![1.0, 1.0, 1.0, 2.0, 0.0, 1.0]);
    }

    #[test]
    fn threaded_schedule_matches_sequential() {
        // Two disjoint chunks on one level: safe to run concurrently.
        let sched = Schedule {
            n_loops: 1,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![
                    Chunk::new(vec![Piece::Range {
                        loop_idx: 0,
                        start: 0,
                        end: 50,
                    }]),
                    Chunk::new(vec![Piece::Range {
                        loop_idx: 0,
                        start: 50,
                        end: 100,
                    }]),
                ],
            }],
            fused: Vec::new(),
        };
        let (mut a, spec, x) = fixture(100);
        let (mut b, _, _) = fixture(100);
        run_loop_schedule(&mut a, &spec, &sched);
        run_loop_schedule_threads(&mut b, &spec, &sched, 4);
        assert_eq!(a.dat(x).data, b.dat(x).data);
    }

    fn pair_group(scratch: Vec<ScratchBind>) -> (Vec<FusedGroup>, Vec<Option<usize>>) {
        (
            vec![FusedGroup {
                loops: vec![1, 2],
                scratch,
            }],
            vec![None, Some(0), Some(0)],
        )
    }

    /// The direct fused lowering: solo loops as plain ranges, one fused
    /// range over the group's common prefix, extent tails per member.
    #[test]
    fn chain_ranges_fused_shape_and_iters() {
        let (groups, group_of) = pair_group(Vec::new());
        let s = Schedule::chain_ranges_fused(&[7, 5, 9], groups, &group_of);
        let pieces = &s.levels[0].chunks[0].pieces;
        assert_eq!(pieces.len(), 3);
        assert!(matches!(
            pieces[0],
            Piece::Range { loop_idx: 0, start: 0, end: 7 }
        ));
        assert!(matches!(
            pieces[1],
            Piece::Fused { group: 0, start: 0, end: 5 }
        ));
        assert!(matches!(
            pieces[2],
            Piece::Range { loop_idx: 2, start: 5, end: 9 }
        ));
        assert_eq!(s.n_fused_pieces(), 1);
        // Fused pieces count for every member loop they interleave.
        assert_eq!(s.loop_iters(1), 5);
        assert_eq!(s.loop_iters(2), 9);
    }

    /// The post-pass window matcher fuses only aligned windows: chunks
    /// whose member pieces differ in coverage are left unfused (and stay
    /// correct via the per-location order argument).
    #[test]
    fn fuse_post_pass_requires_aligned_windows() {
        let raw = |l: u32, s: u32, e: u32| Piece::Range {
            loop_idx: l,
            start: s,
            end: e,
        };
        let sched = Schedule {
            n_loops: 2,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![
                    Chunk::new(vec![raw(0, 0, 4), raw(1, 0, 4)]),
                    Chunk::new(vec![raw(0, 4, 8), raw(1, 4, 6)]),
                ],
            }],
            fused: Vec::new(),
        };
        let groups = vec![FusedGroup {
            loops: vec![0, 1],
            scratch: Vec::new(),
        }];
        let s = sched.fuse(groups, &[Some(0), Some(0)]);
        assert_eq!(s.n_fused_pieces(), 1);
        assert!(matches!(
            s.levels[0].chunks[0].pieces[0],
            Piece::Fused { group: 0, start: 0, end: 4 }
        ));
        // Misaligned window untouched.
        assert_eq!(s.levels[0].chunks[1].pieces.len(), 2);
    }

    /// Elision survives standalone *producer* tails (dead scratch
    /// writes) but not standalone *consumer* pieces, which would read a
    /// slot their element's producer never filled.
    #[test]
    fn elision_validity_rejects_standalone_consumers() {
        let bind = ScratchBind {
            dim: 2,
            offset: 0,
            producer: 0,
            binds: vec![(0, 1), (1, 0)],
        };
        assert_eq!(bind.consumers().collect::<Vec<_>>(), vec![1]);

        let (groups, group_of) = pair_group(vec![bind]);
        let aligned = Schedule::chain_ranges_fused(&[4, 4, 4], groups.clone(), &group_of);
        assert!(elision_valid(&[&aligned], &aligned.fused, &group_of));
        assert_eq!(aligned.scratch_pool_len(), 2);

        // Consumer extent tail: loop 2 runs [4, 6) standalone.
        let ctail = Schedule::chain_ranges_fused(&[4, 4, 6], groups.clone(), &group_of);
        assert!(!elision_valid(&[&ctail], &ctail.fused, &group_of));

        // Producer extent tail: loop 1 runs [4, 6) standalone — harmless.
        let ptail = Schedule::chain_ranges_fused(&[4, 6, 4], groups, &group_of);
        assert!(elision_valid(&[&ptail], &ptail.fused, &group_of));
    }

    /// How one generated argument reaches its data.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        /// Through the iteration index.
        Direct(AccessMode),
        /// Through entry `idx` of the map.
        Indirect(usize, AccessMode),
        /// A global buffer.
        Gbl(AccessMode),
    }

    impl Shape {
        fn mode(self) -> AccessMode {
            match self {
                Shape::Direct(m) | Shape::Indirect(_, m) | Shape::Gbl(m) => m,
            }
        }
    }

    /// Order-sensitive arithmetic over every readable argument, then a
    /// write of every writable one: any change in which element an
    /// argument resolves to, or in the order of updates, shows in the
    /// bits. `modes[i]` is argument `i`'s access mode.
    #[inline(always)]
    fn fixture_body(modes: &[AccessMode; crate::kernel::MAX_ARGS], a: &Args<'_>) {
        let mut s = 1.0;
        for i in 0..a.len() {
            if matches!(modes[i], AccessMode::Read | AccessMode::Rw) {
                for c in 0..a.dim(i) {
                    s = s * 0.75 + a.get(i, c) * (i + 1) as f64;
                }
            }
        }
        for i in 0..a.len() {
            for c in 0..a.dim(i) {
                match modes[i] {
                    AccessMode::Inc => a.inc(i, c, s * (c + 1) as f64),
                    AccessMode::Rw | AccessMode::Write => a.set(i, c, s - c as f64),
                    AccessMode::Read => {}
                }
            }
        }
    }

    /// The modes `fixture_twin` runs under. A `kernel!` kernel carries no
    /// state, so a twin fixture stores its modes here when it compiles,
    /// and a check runs twins only while it holds `TWIN_LOCK` (tests run
    /// in parallel). `Relaxed` is enough: the stores precede the thread
    /// spawns of `run_schedule_threads`, which order them before the
    /// workers' loads.
    static TWIN_MODES: [AtomicU8; crate::kernel::MAX_ARGS] =
        [const { AtomicU8::new(0) }; crate::kernel::MAX_ARGS];
    static TWIN_LOCK: Mutex<()> = Mutex::new(());
    /// `AccessMode` by discriminant, to read `TWIN_MODES` back.
    const MODES: [AccessMode; 4] = [
        AccessMode::Read,
        AccessMode::Write,
        AccessMode::Rw,
        AccessMode::Inc,
    ];

    crate::kernel! {
        /// The fixture's kernel declared through `kernel!`: the same body
        /// as the closure, reached through the macro's inlined `call`.
        fn fixture_twin(a: &Args<'_>) {
            let modes = std::array::from_fn(|i| MODES[TWIN_MODES[i].load(Relaxed) as usize]);
            fixture_body(&modes, a);
        }
    }

    /// A loop over raw buffers: one per argument, except that every
    /// indirect `Inc` argument increments one shared accumulator, so map
    /// rows with repeated entries alias their increments.
    #[derive(Clone)]
    struct Fixture {
        shapes: Vec<Shape>,
        dims: Vec<u32>,
        map: Vec<u32>,
        arity: usize,
        n_iter: usize,
        n_nodes: usize,
        /// Initial values: one buffer per argument, then the accumulator.
        bufs: Vec<Vec<f64>>,
        /// Compile `fixture_twin` instead of the closure.
        twin: bool,
    }

    impl Fixture {
        fn new(shapes: Vec<Shape>, dims: Vec<u32>, arity: usize, seed: u64) -> Fixture {
            let (n_iter, n_nodes) = (40, 9);
            let mut x = seed;
            let mut next = move |n: u64| {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (x >> 33) % n
            };
            let mut map: Vec<u32> = (0..n_iter * arity)
                .map(|_| next(n_nodes as u64) as u32)
                .collect();
            // Every fourth row repeats its first entry.
            for row in map.chunks_mut(arity).step_by(4) {
                let first = row[0];
                row.fill(first);
            }
            let acc_dim = shapes
                .iter()
                .zip(&dims)
                .find(|(s, _)| matches!(s, Shape::Indirect(_, AccessMode::Inc)))
                .map_or(1, |(_, &d)| d as usize);
            let mut value = move || (next(1000) as f64 - 500.0) / 64.0;
            let mut bufs: Vec<Vec<f64>> = shapes
                .iter()
                .zip(&dims)
                .map(|(s, &d)| {
                    let len = match s {
                        Shape::Direct(_) => n_iter,
                        Shape::Indirect(..) => n_nodes,
                        Shape::Gbl(_) => 1,
                    };
                    (0..len * d as usize).map(|_| value()).collect()
                })
                .collect();
            bufs.push((0..n_nodes * acc_dim).map(|_| value()).collect());
            Fixture {
                shapes,
                dims,
                map,
                arity,
                n_iter,
                n_nodes,
                bufs,
                twin: false,
            }
        }

        /// `n_args` arguments of random shape and dimension.
        fn generate(n_args: usize, seed: u64) -> Fixture {
            let mut x = seed ^ 0x9e37_79b9_7f4a_7c15;
            let mut next = move |n: u64| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % n
            };
            let arity = 1 + next(3) as usize;
            let acc_dim = 1 + next(3) as u32;
            let (shapes, dims) = (0..n_args)
                .map(|_| {
                    let idx = next(arity as u64) as usize;
                    let shape = match next(8) {
                        0 => Shape::Direct(AccessMode::Read),
                        1 => Shape::Direct(AccessMode::Rw),
                        2 => Shape::Direct(AccessMode::Write),
                        3 => Shape::Indirect(idx, AccessMode::Read),
                        4 | 5 => Shape::Indirect(idx, AccessMode::Inc),
                        6 => Shape::Gbl(AccessMode::Read),
                        _ => Shape::Gbl(AccessMode::Inc),
                    };
                    let dim = match shape {
                        Shape::Indirect(_, AccessMode::Inc) => acc_dim,
                        _ => 1 + next(3) as u32,
                    };
                    (shape, dim)
                })
                .unzip();
            Fixture::new(shapes, dims, arity, seed)
        }

        /// The same loop with every modifying argument that is not an
        /// indirect `Inc` turned into a read — the owner-computes shape.
        /// `None` if no indirect `Inc` is left to window.
        fn windowed(&self) -> Option<Fixture> {
            let shapes: Vec<Shape> = self
                .shapes
                .iter()
                .map(|&s| match s {
                    Shape::Direct(_) => Shape::Direct(AccessMode::Read),
                    Shape::Gbl(_) => Shape::Gbl(AccessMode::Read),
                    s => s,
                })
                .collect();
            let any_inc = shapes
                .iter()
                .any(|s| matches!(s, Shape::Indirect(_, AccessMode::Inc)));
            any_inc.then(|| Fixture {
                shapes,
                dims: self.dims.clone(),
                map: self.map.clone(),
                bufs: self.bufs.clone(),
                ..*self
            })
        }

        /// `fixture_body` over this loop's modes: as a closure, or as
        /// `fixture_twin` for a twin (whose caller holds `TWIN_LOCK`).
        fn kernel(&self) -> Kernel {
            let mut modes = [AccessMode::Read; crate::kernel::MAX_ARGS];
            for (m, s) in modes.iter_mut().zip(&self.shapes) {
                *m = s.mode();
            }
            if self.twin {
                for (t, m) in TWIN_MODES.iter().zip(modes) {
                    t.store(m as u8, Relaxed);
                }
                return Kernel::compile(fixture_twin, self.shapes.len());
            }
            let body = move |a: &Args<'_>| fixture_body(&modes, a);
            Kernel::compile(body, self.shapes.len())
        }

        /// `n_loops` copies of the loop bound to `bufs`.
        fn bind(&self, bufs: &mut [Vec<f64>], n_loops: usize) -> Vec<BoundLoop> {
            let acc = bufs.len() - 1;
            let args: Vec<BoundArg> = self
                .shapes
                .iter()
                .enumerate()
                .map(|(i, &s)| {
                    let dim = self.dims[i];
                    match s {
                        Shape::Indirect(idx, m) => {
                            let buf = if m == AccessMode::Inc { acc } else { i };
                            let base = bufs[buf].as_mut_ptr();
                            BoundArg::indirect(base, dim, m, self.map.as_ptr(), self.arity, idx)
                        }
                        Shape::Direct(m) => BoundArg::direct(bufs[i].as_mut_ptr(), dim, m),
                        Shape::Gbl(m) => BoundArg::global(bufs[i].as_mut_ptr(), dim, m),
                    }
                })
                .collect();
            let kernel = self.kernel();
            (0..n_loops)
                .map(|_| BoundLoop::from_parts(kernel.clone(), args.clone()))
                .collect()
        }

        /// Every buffer's bits after `run` from the initial values.
        fn after(&self, n_loops: usize, run: impl FnOnce(&[BoundLoop])) -> Vec<Vec<u64>> {
            let mut bufs = self.bufs.clone();
            let bound = self.bind(&mut bufs, n_loops);
            run(&bound);
            drop(bound);
            bufs.iter()
                .map(|b| b.iter().map(|v| v.to_bits()).collect())
                .collect()
        }

        /// The per-element entry point of every loop, element by element
        /// over `iters`.
        fn reference(&self, n_loops: usize, iters: &[u32]) -> Vec<Vec<u64>> {
            self.after(n_loops, |bound| {
                for &e in iters {
                    for bl in bound {
                        bl.kernel.elem(&bl.args, e as usize);
                    }
                }
            })
        }

        /// An owner-computes schedule over every iteration: the target
        /// set cut into three windows (the middle one empty) applied to
        /// every indirect `Inc` argument; outer chunks run the whole range,
        /// the middle one lists the iterations landing in its window.
        fn owned(&self) -> Schedule {
            let n = self.n_nodes as u32;
            let bounds = [0, n / 2, n / 2, n];
            let incs: Vec<usize> = (0..self.shapes.len())
                .filter(|&i| matches!(self.shapes[i], Shape::Indirect(_, AccessMode::Inc)))
                .collect();
            let lands_in = |e: u32, lo: u32, hi: u32| {
                incs.iter().any(|&i| {
                    let Shape::Indirect(idx, _) = self.shapes[i] else {
                        unreachable!("incs are indirect")
                    };
                    (lo..hi).contains(&self.map[e as usize * self.arity + idx])
                })
            };
            let chunks = bounds
                .windows(2)
                .enumerate()
                .map(|(t, w)| {
                    let mask = incs
                        .iter()
                        .map(|&i| ArgWindow {
                            arg: i as u32,
                            lo: w[0],
                            hi: w[1],
                        })
                        .collect();
                    let piece = if t == 1 {
                        let iters = (0..self.n_iter as u32)
                            .filter(|&e| lands_in(e, w[0], w[1]))
                            .collect();
                        Piece::List { loop_idx: 0, iters }
                    } else {
                        Piece::Range {
                            loop_idx: 0,
                            start: 0,
                            end: self.n_iter as u32,
                        }
                    };
                    Chunk {
                        pieces: vec![piece],
                        mask,
                    }
                })
                .collect();
            Schedule {
                n_loops: 1,
                kind: ScheduleKind::Owned {
                    start: 0,
                    end: self.n_iter,
                },
                levels: vec![Level { chunks }],
                fused: Vec::new(),
            }
        }
    }

    /// Range, list, fused and windowed pieces through the compiled
    /// bodies against the per-element reference, bitwise: for the
    /// fixture's closure, and for its `kernel!` twin against the
    /// closure's reference.
    fn check_compiled_against_reference(f: &Fixture) {
        check_pieces(f, f);
        // A twin rewrites every mode before it runs, so a lock poisoned by
        // another failed check guards nothing stale.
        let _twins = TWIN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        let mut twin = f.clone();
        twin.twin = true;
        check_pieces(&twin, f);
    }

    /// `f`'s compiled pieces against `reference`'s per-element entry
    /// point (fused pieces run `f`'s own).
    fn check_pieces(f: &Fixture, reference: &Fixture) {
        let n = f.n_iter as u32;
        let range: Vec<u32> = (3..n - 2).collect();
        let got = f.after(1, |b| run_schedule(b, &Schedule::range(3, n as usize - 2)));
        assert_eq!(got, reference.reference(1, &range), "range piece");

        let list: Vec<u32> = (0..n).filter(|e| e % 3 != 1).collect();
        let got = f.after(1, |b| run_schedule(b, &Schedule::list(list.clone())));
        assert_eq!(got, reference.reference(1, &list), "list piece");

        let group = || {
            vec![FusedGroup {
                loops: vec![0, 1],
                scratch: Vec::new(),
            }]
        };
        let all: Vec<u32> = (0..n).collect();
        let fused = Schedule::chain_ranges_fused(&[n as usize; 2], group(), &[Some(0); 2]);
        assert_eq!(fused.n_fused_pieces(), 1);
        let got = f.after(2, |b| run_schedule(b, &fused));
        assert_eq!(got, reference.reference(2, &all), "fused piece");
        let lists = Schedule {
            n_loops: 2,
            kind: ScheduleKind::Direct,
            levels: vec![Level {
                chunks: vec![Chunk::new(
                    (0..2)
                        .map(|loop_idx| Piece::List {
                            loop_idx,
                            iters: list.clone(),
                        })
                        .collect(),
                )],
            }],
            fused: Vec::new(),
        };
        let fused_list = lists.fuse(group(), &[Some(0); 2]);
        assert_eq!(fused_list.n_fused_pieces(), 1);
        let got = f.after(2, |b| run_schedule(b, &fused_list));
        assert_eq!(got, reference.reference(2, &list), "fused list piece");

        if let (Some(w), Some(wr)) = (f.windowed(), reference.windowed()) {
            let sched = w.owned();
            let expect = wr.reference(1, &all);
            let got = w.after(1, |b| {
                assert!(sched.windows_valid(&b[0]));
                run_schedule(b, &sched);
            });
            assert_eq!(got, expect, "windowed pieces");
            let got = w.after(1, |b| run_schedule_threads(b, &sched, 3));
            assert_eq!(got, expect, "windowed pieces on threads");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Every arity the compiled kernels cover, mixing direct,
        /// indirect (with aliased map entries) and global arguments.
        #[test]
        fn compiled_bodies_match_per_element_reference(
            n_args in 1usize..=crate::kernel::MAX_ARGS,
            seed in 0u64..1_000_000,
        ) {
            check_compiled_against_reference(&Fixture::generate(n_args, seed));
        }
    }

    /// Hydra's `vflux_edge` shape: ten indirect reads of five dats and
    /// two indirect increments of one, through a two-entry map.
    #[test]
    fn twelve_argument_vflux_shape_matches_reference() {
        let mut shapes: Vec<Shape> = (0..10)
            .map(|i| Shape::Indirect(i % 2, AccessMode::Read))
            .collect();
        shapes.extend((0..2).map(|idx| Shape::Indirect(idx, AccessMode::Inc)));
        let dims = vec![5, 5, 3, 3, 5, 5, 1, 1, 1, 1, 5, 5];
        let f = Fixture::new(shapes, dims, 2, 7);
        assert_eq!(f.kernel().n_args(), 12);
        check_compiled_against_reference(&f);
    }

    #[test]
    #[should_panic(expected = "at most 12 arguments")]
    fn more_arguments_than_compiled_arities_panic() {
        Kernel::compile(|_: &Args<'_>| {}, crate::kernel::MAX_ARGS + 1);
    }
}
