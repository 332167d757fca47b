//! The unified `Schedule` execution IR.
//!
//! Every way this crate runs a loop — a plain sequential range, a
//! colored-blocked threaded loop, an owner-computes threaded loop — is the
//! same thing at heart: an ordered list of *levels* separated by
//! synchronization barriers, each level holding iteration *chunks* that
//! are conflict-free against one another. This module makes that shape a
//! first-class value:
//!
//! * [`Piece`] — a contiguous iteration range or an explicit index list
//!   of one loop of the chain;
//! * [`Chunk`] — an ordered list of pieces executed sequentially by one
//!   worker (a colored block; an owner-computes window's iterations);
//! * [`Schedule`] — levels of chunks. Chunks within a level may run
//!   concurrently; levels execute in order with a barrier between them.
//!
//! Lowerings build schedules from each scheduling strategy
//! ([`Schedule::range`], [`crate::par::colored_schedule`],
//! [`crate::par::owned_schedule`]). [`run_schedule`] walks one
//! sequentially, level by level and chunk by chunk: the reference every
//! threaded execution must match. This crate starts no threads; the
//! runtime crate's per-rank pool runs the same schedules on its workers,
//! one chunk at a time through [`run_chunk`].
//!
//! **Determinism contract.** When the lowering guarantees that (a)
//! same-level chunks touch disjoint modified elements and (b) every
//! conflicting chunk pair is ordered by level in ascending iteration
//! order, the per-element update sequence under any thread count equals
//! the sequential one, so results are **bitwise identical** to
//! [`crate::seq::run_loop`]. The leveled lowering — colored blocks —
//! gets (a) and (b) from the one rule of [`crate::conflict`] and is
//! assembled by [`Schedule::from_levels`], which re-checks both in debug
//! builds. The
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
use crate::conflict::{levels_valid, ConflictAccess};
use crate::domain::{DatId, Domain, MapData, MapId};
use crate::kernel::{ArgShape, Iters, Kernel, Mask};
use crate::loops::LoopSpec;

/// One contiguous or listed slice of one loop's iteration space.
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
}

impl Piece {
    /// Number of elements the piece covers.
    pub fn len(&self) -> usize {
        match self {
            Piece::Range { start, end, .. } => (*end as usize).saturating_sub(*start as usize),
            Piece::List { iters, .. } => iters.len(),
        }
    }

    /// Whether the piece covers no iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which chain loop the piece belongs to.
    pub fn loop_idx(&self) -> usize {
        match self {
            Piece::Range { loop_idx, .. } | Piece::List { loop_idx, .. } => *loop_idx as usize,
        }
    }

    /// The piece's iterations in the form the compiled loops take.
    fn iters(&self) -> Iters<'_> {
        match self {
            Piece::Range { start, end, .. } => Iters::Range(*start as usize, *end as usize),
            Piece::List { iters, .. } => Iters::List(iters),
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
/// order.
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
    /// The block colouring ([`crate::par::colored_schedule`]): level per
    /// colour.
    Colored { block_size: usize },
    /// Owner-computes lowering of iterations `[start, end)`
    /// ([`crate::par::owned_schedule`]): one level, one windowed chunk
    /// per thread, cut iterations executed by every chunk they
    /// increment into.
    Owned { start: usize, end: usize },
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
        }
    }

    /// Bucket `units` (given in sequential order) by their conflict
    /// `levels` into a leveled schedule over an `accesses.len()`-long
    /// chain: one level per distinct value, ascending, units keeping
    /// their order within a level. The single constructor of every
    /// order-preserving leveled lowering, and therefore where the
    /// conflict rule is audited: in debug builds
    /// [`levels_valid`] re-checks `levels` pair by pair against
    /// `accesses`, the descriptors they were computed under (see
    /// [`crate::conflict`]).
    pub fn from_levels(
        kind: ScheduleKind,
        units: Vec<Chunk>,
        levels: &[u32],
        accesses: &[Vec<ConflictAccess<'_>>],
        set_sizes: &[usize],
    ) -> Schedule {
        debug_assert!(
            levels_valid(&units, levels, accesses, set_sizes),
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
        }
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

    /// Total iterations scheduled for chain loop `loop_idx`.
    pub fn loop_iters(&self, loop_idx: usize) -> usize {
        self.levels
            .iter()
            .flat_map(|l| &l.chunks)
            .flat_map(|c| &c.pieces)
            .filter(|p| p.loop_idx() == loop_idx)
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
}

#[cfg(test)]
impl Schedule {
    /// The schedule in the two chunk orders the tests walk it in,
    /// sequentially: as lowered, and with every level's chunks reversed.
    /// Threads may run a level's chunks in any order, so both walks must
    /// give the bits of the plain walk whenever same-level chunks are
    /// independent. Reversal swaps every same-level pair, every time;
    /// two to four threads on a small host often just run in order.
    pub(crate) fn walk_orders(&self) -> [(&'static str, Schedule); 2] {
        let mut reversed = self.clone();
        for level in &mut reversed.levels {
            level.chunks.reverse();
        }
        [("in order", self.clone()), ("levels reversed", reversed)]
    }
}

/// One resolved kernel argument in the one branch-free form every kind
/// shares: at iteration `e` its data starts at
/// `base + dim·map[e·mstride] + e·estride`.
///
/// | kind | `map` | `mstride` | `estride` |
/// |---|---|---|---|
/// | indirect | the map's values, offset by the entry `idx` | arity | 0 |
/// | direct | a shared static zero row | 0 | `dim` |
/// | global | the zero row | 0 | 0 |
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

    /// The buffer start at every iteration: a global.
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

    /// Row 0 of the map this argument reads entry `idx` of, and the row
    /// stride (the arity). Only meaningful for an indirect argument.
    pub(crate) fn row(&self, idx: usize) -> (*const u32, usize) {
        (self.map.wrapping_sub(idx), self.mstride)
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
/// elements — disjoint blocks under the colored lowering, disjoint
/// *windows* of each target set under the owner-computes one, where a
/// chunk's out-of-window increments land in its worker's private sink;
/// all data access is value-based through
/// [`crate::kernel::Args`], so no references are formed. A declared
/// kernel's arguments must be bound as its shape says, which
/// [`BoundLoop::from_parts`] asserts: build a `BoundLoop` through it.
pub struct BoundLoop {
    pub kernel: Kernel,
    pub args: Vec<BoundArg>,
    /// Whether a declared kernel's unwindowed walks prefetch map
    /// targets: the locality gate, decided once at bind
    /// ([`map_is_scattered`]).
    prefetch: bool,
}

// SAFETY: `kernel` is `Send + Sync` and `prefetch` a plain `bool`;
// `args` holds raw pointers into dat, map and gbl buffers that the
// struct-level contract keeps alive and unmoved. Callers only share a
// BoundLoop across threads under a
// schedule whose same-level chunks modify disjoint elements: disjoint
// iteration blocks (colored) or disjoint target *windows*
// with every out-of-window increment diverted to the worker's own sink
// (owner-computes; `Schedule::windows_valid` is the checkable form).
// Map and read-only dat buffers are never written during execution.
unsafe impl Sync for BoundLoop {}
unsafe impl Send for BoundLoop {}

/// A map as a binding reads it: raw, like the dat bases, under
/// [`BoundLoop`]'s contract.
#[derive(Debug, Clone, Copy)]
pub struct MapBinding {
    /// The map's values, `rows · arity` entries.
    pub values: *const u32,
    /// Entries per row.
    pub arity: usize,
    /// Rows the values hold (the iteration-side elements bound).
    pub rows: usize,
    /// Size of the set the values index.
    pub targets: usize,
}

impl MapBinding {
    /// `map`, whose target set has `targets` elements.
    pub fn of(map: &MapData, targets: usize) -> MapBinding {
        MapBinding {
            values: map.values.as_ptr(),
            arity: map.arity,
            rows: map.values.len() / map.arity.max(1),
            targets,
        }
    }
}

/// Row pairs the locality gate samples.
const GATE_SAMPLES: usize = 16;

/// The locality gate: whether a walk in row order over `values` (rows of
/// `arity` entries into a set of `targets` elements) jumps far enough
/// between consecutive rows that gathers miss the cache. It samples at
/// most `GATE_SAMPLES` (16) consecutive row pairs spread evenly over the
/// rows and says yes when the median |Δ| of entry 0 exceeds
/// `targets / 16`. Pairs with a `u32::MAX` entry (beyond a rank's built
/// halo) are skipped.
///
/// A shuffled mesh's maps read 0.21–0.38 of their target set per step
/// (the median |Δ| of two uniform draws is 0.29). The rank-local maps
/// `build_layouts` gives a shuffled MG-CFD mesh read at most 0.021, and
/// generator numbering at most 0.042 except MG-CFD's fine-to-coarse map
/// on a 16³ mesh (0.12, whose targets fit in L2 either way). `1/16`
/// sits 3× from both sides.
pub fn map_is_scattered(values: &[u32], arity: usize, targets: usize) -> bool {
    let rows = values.len() / arity.max(1);
    if rows < 2 || arity == 0 {
        return false;
    }
    let pairs = GATE_SAMPLES.min(rows - 1);
    let mut deltas = [0u32; GATE_SAMPLES];
    let mut n = 0;
    for k in 0..pairs {
        let r = k * (rows - 1) / pairs;
        let (a, b) = (values[r * arity], values[(r + 1) * arity]);
        if a != u32::MAX && b != u32::MAX {
            deltas[n] = a.abs_diff(b);
            n += 1;
        }
    }
    let deltas = &mut deltas[..n];
    deltas.sort_unstable();
    deltas
        .get(n / 2)
        .is_some_and(|&median| median as usize * 16 > targets)
}

impl BoundLoop {
    /// Resolve `spec` against a global domain. `gbl_bufs` (one buffer
    /// per [`crate::access::GblDecl`], preallocated by the caller) backs
    /// the loop's global arguments; it must not be moved or resized
    /// while the returned `BoundLoop` is live.
    pub fn bind(dom: &mut Domain, spec: &LoopSpec, gbl_bufs: &mut [Vec<f64>]) -> BoundLoop {
        BoundLoop::bind_with(spec, gbl_bufs, |dat, map| {
            let base = dom.dat_mut(dat).data.as_mut_ptr();
            let map = map.map(|m| MapBinding::of(dom.map(m), dom.set(dom.map(m).to).size));
            (base, dom.dat(dat).dim as u32, map)
        })
    }

    /// Resolve `spec` through `lookup(dat, map)`: the dat's buffer base
    /// and dim, and — when `map` is given (an indirect argument) — that
    /// map's binding. `gbl_bufs` backs the global arguments as in
    /// [`BoundLoop::bind`]. Binding against a global domain and against
    /// a rank's local buffers differ only in `lookup`.
    ///
    /// A declared kernel's loop prefetches when its first map argument's
    /// map is scattered ([`map_is_scattered`]), decided here, once.
    pub fn bind_with(
        spec: &LoopSpec,
        gbl_bufs: &mut [Vec<f64>],
        mut lookup: impl FnMut(DatId, Option<MapId>) -> (*mut f64, u32, Option<MapBinding>),
    ) -> BoundLoop {
        let mut first_map = None;
        let args = spec
            .args
            .iter()
            .map(|arg| match *arg {
                Arg::Dat { dat, map, mode } => {
                    let (base, dim, binding) = lookup(dat, map.map(|(m, _)| m));
                    match map.zip(binding) {
                        Some(((_, idx), m)) => {
                            first_map.get_or_insert(m);
                            BoundArg::indirect(base, dim, mode, m.values, m.arity, idx as usize)
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
        let prefetch = spec.kernel.shape().is_some()
            && first_map.is_some_and(|m: MapBinding| {
                // SAFETY: `lookup` hands out live buffers (`BoundLoop`'s
                // contract), and `values` holds `rows · arity` entries.
                let values = unsafe { std::slice::from_raw_parts(m.values, m.rows * m.arity) };
                map_is_scattered(values, m.arity, m.targets)
            });
        BoundLoop::from_parts(spec.kernel.clone(), args, prefetch)
    }

    /// Assemble from already-resolved parts — the distributed runtime
    /// resolves against its rank-local dat buffers and localized maps.
    /// Every executor's binding passes through here.
    ///
    /// # Panics
    /// If `args` does not hold one entry per kernel argument, or — for a
    /// declared kernel — does not bind each argument as its shape says:
    /// the kind and dim of every entry, and every `map(idx, _)` argument
    /// at entry `idx < arity` of one shared map row (the same `map − idx`
    /// and arity). The declared loops resolve by these facts without
    /// checking them, so this is a hard assert, not a debug one.
    ///
    /// `prefetch` is the locality gate ([`map_is_scattered`]): a declared
    /// kernel's unwindowed walks then prefetch map targets. It changes
    /// no result; an undeclared kernel ignores it.
    pub fn from_parts(kernel: Kernel, args: Vec<BoundArg>, prefetch: bool) -> BoundLoop {
        assert_eq!(
            args.len(),
            kernel.n_args(),
            "one bound argument per kernel argument"
        );
        if let Some(shape) = kernel.shape() {
            assert_bound_as_declared(shape, &args);
        }
        BoundLoop {
            kernel,
            args,
            prefetch,
        }
    }

    /// Whether the locality gate is on for this binding.
    pub fn prefetches(&self) -> bool {
        self.prefetch
    }

    /// Run iterations `[start, end)` on the calling thread.
    pub fn run_range(&self, start: usize, end: usize) {
        self.kernel
            .run(&self.args, Iters::Range(start, end), None, self.prefetch);
    }
}

/// Panics unless `args` are bound the way `shape` declares (see
/// [`BoundLoop::from_parts`]).
fn assert_bound_as_declared(shape: &[ArgShape], args: &[BoundArg]) {
    let mut shared_row = None;
    for (i, (&s, a)) in shape.iter().zip(args).enumerate() {
        if let ArgShape::MapOn { arg, .. } = s {
            assert!(
                arg < i && matches!(shape[arg], ArgShape::Map { .. }) && args[arg].base == a.base,
                "argument {i}: declared {s:?}, bound to another base than argument {arg}"
            );
        }
        let kind_ok = match s.map_idx() {
            Some(idx) => {
                let (row, arity) = a.row(idx);
                assert!(
                    a.is_indirect() && idx < arity,
                    "argument {i}: declared {s:?}, bound to entry {idx} of an arity-{arity} map"
                );
                let shared = *shared_row.get_or_insert((row, arity));
                assert!(
                    shared == (row, arity),
                    "argument {i}: declared {s:?}, bound to another map row than the first map argument"
                );
                true
            }
            None => match s {
                ArgShape::Direct { dim } => !a.is_indirect() && a.estride == dim,
                // A global.
                _ => !a.is_indirect() && a.estride == 0,
            },
        };
        assert!(kind_ok, "argument {i}: declared {s:?}, bound as {a:?}");
        assert_eq!(
            a.dim as usize,
            s.dim(),
            "argument {i}: declared {s:?}, bound with dim {}",
            a.dim
        );
    }
}

/// Reusable per-worker execution state: the owner-computes sink and
/// windows. Grown by the first windowed chunk a worker runs and reused
/// across invocations, so at steady state (same chain, same shapes) a
/// worker performs **zero heap allocations** (the `*_into` reuse
/// pattern); [`SchedCtx::allocs`] counts the growths that did happen.
#[derive(Default)]
pub struct SchedCtx {
    /// Where windowed chunks drop out-of-window increments; grown to the
    /// widest windowed argument by the first windowed chunk this worker
    /// runs, never read.
    sink: Vec<f64>,
    /// The running windowed chunk's per-argument `(lo, len)` windows.
    wins: Vec<(u32, u32)>,
    /// Heap (re)allocations of `sink` and `wins` so far.
    allocs: u64,
}

impl SchedCtx {
    /// An empty context; buffers grow on the first windowed chunk.
    pub fn new() -> SchedCtx {
        SchedCtx::default()
    }

    /// Heap allocations this ctx has performed over its lifetime —
    /// constant once warm.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

/// Execute one chunk: its pieces in order, on the calling thread, each
/// whole through its loop's compiled body. `bound[j]` must be the
/// resolution of chain loop `j`; `ctx` is this worker's windowed-chunk
/// state.
pub fn run_chunk(bound: &[BoundLoop], chunk: &Chunk, ctx: &mut SchedCtx) {
    if !chunk.mask.is_empty() {
        return run_chunk_masked(bound, chunk, ctx);
    }
    for piece in &chunk.pieces {
        let BoundLoop {
            kernel,
            args,
            prefetch,
        } = &bound[piece.loop_idx()];
        kernel.run(args, piece.iters(), None, *prefetch);
    }
}

/// [`run_chunk`] for a windowed (owner-computes) chunk: plain pieces of
/// one loop, every piece through the loop's compiled body under the
/// chunk's windows (see [`Mask`]).
fn run_chunk_masked(bound: &[BoundLoop], chunk: &Chunk, ctx: &mut SchedCtx) {
    let Some(first) = chunk.pieces.first() else {
        return;
    };
    let j = first.loop_idx();
    let BoundLoop { kernel, args, .. } = &bound[j];
    let SchedCtx { sink, wins, allocs } = ctx;
    wins.clear();
    *allocs += u64::from(wins.capacity() < args.len());
    wins.resize(args.len(), (0, u32::MAX));
    let mut widest = 0usize;
    for w in &chunk.mask {
        wins[w.arg as usize] = (w.lo, w.hi - w.lo);
        widest = widest.max(args[w.arg as usize].dim as usize);
    }
    if sink.len() < widest {
        *allocs += u64::from(sink.capacity() < widest);
        sink.resize(widest, 0.0);
    }
    let mask = Mask {
        wins,
        sink: sink.as_mut_ptr(),
    };
    for piece in &chunk.pieces {
        // The windows index loop `j`'s arguments.
        assert_eq!(piece.loop_idx(), j, "windowed chunk mixes loops");
        kernel.run(args, piece.iters(), Some(mask), false);
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
    for level in &sched.levels {
        for chunk in &level.chunks {
            run_chunk(bound, chunk, ctx);
        }
    }
}

/// Execute `spec` under `sched` on the global domain, sequentially.
pub fn run_loop_schedule(dom: &mut Domain, spec: &LoopSpec, sched: &Schedule) -> crate::seq::LoopResult {
    let mut gbl_bufs: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();
    let bound = BoundLoop::bind(dom, spec, &mut gbl_bufs);
    run_schedule(std::slice::from_ref(&bound), sched);
    crate::seq::LoopResult { gbls: gbl_bufs }
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

    /// Two disjoint chunks on one level, safe to run concurrently: both
    /// walks equal the plain range walk.
    #[test]
    fn threaded_schedule_matches_sequential() {
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
        };
        let (mut reference, spec, x) = fixture(100);
        run_loop_schedule(&mut reference, &spec, &Schedule::range(0, 100));
        for (walk, sched) in sched.walk_orders() {
            let (mut dom, _, _) = fixture(100);
            run_loop_schedule(&mut dom, &spec, &sched);
            assert_eq!(dom.dat(x).data, reference.dat(x).data, "{walk}");
        }
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
    /// in parallel). `Relaxed` is enough: a twin runs on the thread that
    /// stored its modes.
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

    /// `fixture_body` under the modes a twin stored in `TWIN_MODES`.
    #[inline(always)]
    fn twin_body(a: &Args<'_>) {
        let modes = std::array::from_fn(|i| MODES[TWIN_MODES[i].load(Relaxed) as usize]);
        fixture_body(&modes, a);
    }

    crate::kernel! {
        /// The fixture's kernel declared through `kernel!`: the same body
        /// as the closure, reached through the macro's inlined `call`.
        fn fixture_twin(a: &Args<'_>) {
            twin_body(a);
        }

        /// The same body with Hydra's `vflux_edge` shape declared.
        fn vflux_twin(a: &Args<'_>) [
            map(0, 5), map(1, 5), map(0, 3), map(1, 3), map(0, 5), map(1, 5),
            map(0, 1), map(1, 1), map(0, 1), map(1, 1), map(0, 5), map(1, 5),
        ] {
            twin_body(a);
        }

        /// Every kind declared, entries out of order, over a 3-entry map.
        fn mixed_twin(a: &Args<'_>) [
            direct(2), map(2, 3), global(2), map(0, 1), map(2, 2), direct(1), map(1, 2),
        ] {
            twin_body(a);
        }

        /// `mixed_twin` with its two increments, which share one
        /// accumulator, declared on one base.
        fn mixed_on_twin(a: &Args<'_>) [
            direct(2), map(2, 3), global(2), map(0, 1), map(2, 2), direct(1), map_on(1, 2, 4),
        ] {
            twin_body(a);
        }

        /// Seven direct arguments, as Hydra's `update_state`.
        fn wide_direct_twin(a: &Args<'_>) [
            direct(5), direct(5), direct(1), direct(1), direct(3), direct(2), direct(3),
        ] {
            twin_body(a);
        }
    }

    /// `mixed_twin`'s loop: direct, indirect and global arguments, two
    /// indirect increments sharing one accumulator.
    fn mixed_fixture() -> Fixture {
        use AccessMode::*;
        let shapes = vec![
            Shape::Direct(Rw),
            Shape::Indirect(2, Read),
            Shape::Gbl(Read),
            Shape::Indirect(0, Read),
            Shape::Indirect(2, Inc),
            Shape::Direct(Read),
            Shape::Indirect(1, Inc),
        ];
        Fixture::new(shapes, vec![2, 3, 2, 1, 2, 1, 2], 3, 11)
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
        /// Compile this `kernel!` twin instead of the closure.
        twin: Option<fn(usize) -> Kernel>,
        /// Bind with the locality gate on (a declared twin's unwindowed
        /// pieces then take the prefetching walk).
        prefetch: bool,
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
                twin: None,
                prefetch: false,
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
        /// its `kernel!` twin (whose caller holds `TWIN_LOCK`).
        fn kernel(&self) -> Kernel {
            let mut modes = [AccessMode::Read; crate::kernel::MAX_ARGS];
            for (m, s) in modes.iter_mut().zip(&self.shapes) {
                *m = s.mode();
            }
            if let Some(compile) = self.twin {
                for (t, m) in TWIN_MODES.iter().zip(modes) {
                    t.store(m as u8, Relaxed);
                }
                return compile(self.shapes.len());
            }
            let body = move |a: &Args<'_>| fixture_body(&modes, a);
            Kernel::compile(body, self.shapes.len())
        }

        /// The loop bound to `bufs`.
        fn bind(&self, bufs: &mut [Vec<f64>]) -> BoundLoop {
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
            BoundLoop::from_parts(self.kernel(), args, self.prefetch)
        }

        /// Every buffer's bits after `run` from the initial values.
        fn after(&self, run: impl FnOnce(&[BoundLoop])) -> Vec<Vec<u64>> {
            let mut bufs = self.bufs.clone();
            let bound = self.bind(&mut bufs);
            run(std::slice::from_ref(&bound));
            drop(bound);
            bufs.iter()
                .map(|b| b.iter().map(|v| v.to_bits()).collect())
                .collect()
        }

        /// The loop's per-element entry point, element by element over
        /// `iters`.
        fn reference(&self, iters: &[u32]) -> Vec<Vec<u64>> {
            self.after(|bound| {
                for &e in iters {
                    bound[0].kernel.elem(&bound[0].args, e as usize);
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
            }
        }
    }

    /// Range, list and windowed pieces through the compiled
    /// bodies against the per-element reference, bitwise: for the
    /// fixture's closure, and for its undeclared `kernel!` twin against
    /// the closure's reference.
    fn check_compiled_against_reference(f: &Fixture) {
        check_pieces(f, f);
        check_twin(f, |n| Kernel::compile(fixture_twin, n));
    }

    /// `f`'s pieces through the `kernel!` twin `compile` builds, with
    /// the locality gate off and on, against the closure's per-element
    /// reference, bitwise.
    fn check_twin(f: &Fixture, compile: fn(usize) -> Kernel) {
        // A twin rewrites every mode before it runs, so a lock poisoned by
        // another failed check guards nothing stale.
        let _twins = TWIN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        for prefetch in [false, true] {
            let twin = Fixture {
                twin: Some(compile),
                prefetch,
                ..f.clone()
            };
            check_pieces(&twin, f);
        }
    }

    /// `f`'s compiled pieces against `reference`'s per-element entry
    /// point.
    fn check_pieces(f: &Fixture, reference: &Fixture) {
        let n = f.n_iter as u32;
        let range: Vec<u32> = (3..n - 2).collect();
        let got = f.after(|b| run_schedule(b, &Schedule::range(3, n as usize - 2)));
        assert_eq!(got, reference.reference(&range), "range piece");

        let list: Vec<u32> = (0..n).filter(|e| e % 3 != 1).collect();
        let got = f.after(|b| run_schedule(b, &Schedule::list(list.clone())));
        assert_eq!(got, reference.reference(&list), "list piece");

        let all: Vec<u32> = (0..n).collect();
        if let (Some(w), Some(wr)) = (f.windowed(), reference.windowed()) {
            let sched = w.owned();
            let expect = wr.reference(&all);
            w.after(|b| assert!(sched.windows_valid(&b[0])));
            for (walk, sched) in sched.walk_orders() {
                let got = w.after(|b| run_schedule(b, &sched));
                assert_eq!(got, expect, "windowed pieces, {walk}");
            }
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
    /// two indirect increments of one, through a two-entry map —
    /// undeclared, and declared as `vflux_edge` declares it.
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
        check_twin(&f, |n| Kernel::compile(vflux_twin, n));
    }

    /// The declared form against the uniform per-element reference, on
    /// every piece kind: every kind with out-of-order entries of a
    /// 3-entry map, and a wide direct loop (the map-only `vflux_edge`
    /// shape is checked above).
    #[test]
    fn declared_shapes_match_uniform_reference() {
        check_twin(&mixed_fixture(), |n| Kernel::compile(mixed_twin, n));
        check_twin(&mixed_fixture(), |n| Kernel::compile(mixed_on_twin, n));
        use AccessMode::*;
        let modes = [Rw, Write, Write, Write, Write, Read, Read];
        let direct = Fixture::new(
            modes.iter().map(|&m| Shape::Direct(m)).collect(),
            vec![5, 5, 1, 1, 3, 2, 3],
            1,
            5,
        );
        check_twin(&direct, |n| Kernel::compile(wide_direct_twin, n));
        assert_eq!(Kernel::compile(mixed_twin, 7).shape().map(<[_]>::len), Some(7));
    }

    /// `from_parts` is where every executor's binding meets the shape: a
    /// dat of another dim than declared is refused before any loop runs.
    #[test]
    #[should_panic(expected = "bound with dim 4")]
    fn declared_kernel_bound_to_wrong_dim_panics() {
        let f = mixed_fixture();
        let mut bufs = f.bufs.clone();
        let mut args = f.bind(&mut bufs).args;
        // Argument 1 is declared `map(2, 3)`.
        let (row, arity) = args[1].row(2);
        let mut wide = vec![0.0; f.n_nodes * 4];
        args[1] = BoundArg::indirect(wide.as_mut_ptr(), 4, AccessMode::Read, row, arity, 2);
        BoundLoop::from_parts(Kernel::compile(mixed_twin, 7), args, false);
    }

    /// A `map` argument bound to another map's rows than the others.
    #[test]
    #[should_panic(expected = "bound to another map row")]
    fn declared_kernel_bound_to_two_map_rows_panics() {
        let f = mixed_fixture();
        let mut bufs = f.bufs.clone();
        let mut args = f.bind(&mut bufs).args;
        let other: Vec<u32> = f.map.iter().rev().copied().collect();
        let base = bufs[6].as_mut_ptr();
        args[6] = BoundArg::indirect(base, 2, AccessMode::Inc, other.as_ptr(), f.arity, 1);
        BoundLoop::from_parts(Kernel::compile(mixed_twin, 7), args, false);
    }

    /// A `map_on` argument bound to another base than the argument whose
    /// dat it declares to share.
    #[test]
    #[should_panic(expected = "bound to another base than argument 4")]
    fn declared_shared_base_bound_to_another_dat_panics() {
        let f = mixed_fixture();
        let mut bufs = f.bufs.clone();
        let mut args = f.bind(&mut bufs).args;
        let (row, arity) = args[6].row(1);
        let mut other = vec![0.0; f.n_nodes * 2];
        args[6] = BoundArg::indirect(other.as_mut_ptr(), 2, AccessMode::Inc, row, arity, 1);
        BoundLoop::from_parts(Kernel::compile(mixed_on_twin, 7), args, false);
    }

    /// The locality gate on synthetic edge maps over a 1-D chain of
    /// nodes: off in generator numbering, on once the nodes are
    /// scattered, off on degenerate maps, and deaf to `u32::MAX`.
    #[test]
    fn locality_gate_reads_consecutive_rows() {
        let n = 4096u32;
        let chain: Vec<u32> = (0..n - 1).flat_map(|e| [e, e + 1]).collect();
        assert!(!map_is_scattered(&chain, 2, n as usize));
        // A multiplicative scatter of node ids: consecutive nodes land
        // 1615 or 2481 apart.
        let scatter = |v: u32| (v as u64 * 2_654_435_761 % n as u64) as u32;
        let scattered: Vec<u32> = chain.iter().map(|&v| scatter(v)).collect();
        assert!(map_is_scattered(&scattered, 2, n as usize));
        assert!(!map_is_scattered(&scattered[..2], 2, n as usize), "one row");
        assert!(!map_is_scattered(&[], 2, n as usize), "no rows");
        let beyond: Vec<u32> = scattered.iter().map(|_| u32::MAX).collect();
        assert!(
            !map_is_scattered(&beyond, 2, n as usize),
            "every pair beyond the halo"
        );
    }

    #[test]
    #[should_panic(expected = "the kernel is compiled for 7 arguments, the loop passes 6")]
    fn declared_kernel_compiled_for_another_arity_panics() {
        Kernel::compile(mixed_twin, 6);
    }

    #[test]
    #[should_panic(expected = "at most 12 arguments")]
    fn more_arguments_than_compiled_arities_panic() {
        Kernel::compile(|_: &Args<'_>| {}, crate::kernel::MAX_ARGS + 1);
    }
}
