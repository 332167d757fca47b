//! The kernel calling convention and the compiled iteration loops.
//!
//! OP2 kernels are small "user functions" applied once per set element,
//! receiving pointers to each argument's data for that element (gathered
//! through the maps by the back-end). Here a kernel is any [`KernelFn`]
//! taking an [`Args`] view; per-component accessors (`get` / `set` /
//! `inc`) replace raw pointer arithmetic.
//!
//! Declare kernels with [`kernel!`](crate::kernel!): it turns each
//! `fn name(args: &Args<'_>) [shape] { body }` into a zero-sized type
//! `name` whose `KernelFn::call` is `#[inline(always)]` and holds `body`,
//! so every compiled loop contains the body inline — a property of the
//! kernel's type, not of the optimiser's inlining heuristics. The
//! optional `[shape]` declares how each argument reaches its data
//! ([`ArgShape`]: `map(idx, dim)`, `map_on(idx, dim, arg)`,
//! `direct(dim)`, `global(len)`), as
//! OP2's translator reads it off the `op_par_loop` call. Any
//! `Fn(&Args<'_>) + Copy + Send + Sync + 'static` (a closure, a `fn` item
//! or a `fn` pointer) is a `KernelFn` too, through a blanket impl, and
//! runs through the same loops, undeclared; but its body sits behind
//! `Fn::call` and may stay out of line.
//!
//! OP2's translator emits one specialised loop per `op_par_loop`. The
//! same happens here at declaration: [`Kernel::compile`] monomorphises
//! the user function together with its argument count `N` into one
//! [`Kernel`] that owns every iteration loop the executors run (ranges,
//! index lists, and owner-computes windowed ranges and lists). A kernel
//! declared with a shape is compiled for its declared `N` only; an
//! undeclared one for every `N` up to [`MAX_ARGS`], picked at run time.
//! Slots live in a stack `[ArgSlot; N]`, so once the kernel inlines, its
//! `get`/`inc` reads are constant-indexed and need no bounds checks.
//!
//! Argument resolution (iteration index → element pointer) takes one of
//! two forms, chosen by the kernel's type:
//!
//! * **Declared** ([`KernelFn::SHAPE`] is `Some`): the shape is a
//!   compile-time constant. Each iteration computes one map-row pointer;
//!   a `map(k, d)` argument is `base + d·row[k]` (one load per distinct
//!   entry), a `direct(d)` one `base + d·e` and a global `base`. A
//!   `map_on(k, d, j)` argument is a `map(k, d)` one that reads argument
//!   `j`'s base (its dat is `j`'s), so the optimiser sees one pointer
//!   for both. Only `map` arguments are compared against owner-computes
//!   windows. On a map whose consecutive rows point far apart (the
//!   bind-time gate, `BoundLoop`'s `prefetch`), an unwindowed walk also
//!   prefetches every `map` argument's target 16 iterations ahead; the
//!   calls and their order are the same, so are the results.
//! * **Undeclared**: every argument is bound in one form (see
//!   [`BoundArg`]) and resolved by the same straight-line code, one
//!   gathered index load and one multiply-add with runtime strides —
//!   the bitwise reference for the declared form.
//!
//! [`BoundLoop::from_parts`](crate::schedule::BoundLoop::from_parts)
//! asserts that a declared kernel's binding agrees with its shape, which
//! the declared form relies on for memory safety. A compiled loop walks
//! its own stack copy of its bound arguments, which the kernel's stores
//! cannot alias.
//!
//! Accessors are *value-based* rather than handing out `&mut [f64]`
//! because two arguments of one iteration may legally alias (e.g. an edge
//! whose two map entries resolve to the same node); value-based access
//! through raw pointers is sound under aliasing, while two live `&mut`
//! would not be. Mode misuse (writing through a `Read` argument, reading
//! an `Inc` one, …) is caught by debug assertions, mirroring how OP2
//! relies on the access descriptors being truthful.

use crate::access::AccessMode;
use crate::schedule::BoundArg;
use std::sync::Arc;

/// Resolved location of one argument for the current iteration.
#[derive(Debug, Clone, Copy)]
pub struct ArgSlot {
    /// First component of this argument's data for the current element.
    pub ptr: *mut f64,
    /// Number of components.
    pub dim: u32,
    /// Declared access mode (checked in debug builds).
    pub mode: AccessMode,
}

/// View of all arguments for one iteration, passed to the kernel.
pub struct Args<'a> {
    slots: &'a [ArgSlot],
}

impl<'a> Args<'a> {
    /// Build a view over resolved slots. Called by executors only.
    ///
    /// # Safety contract (enforced by executors, not the type system)
    /// Every slot pointer must be valid for reads and (if the mode
    /// modifies) writes of `dim` consecutive `f64`s for the lifetime of the
    /// kernel invocation, and no other thread may access that memory
    /// concurrently.
    #[inline]
    pub fn new(slots: &'a [ArgSlot]) -> Self {
        Args { slots }
    }

    /// Number of arguments.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the loop has no arguments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Dimension (component count) of argument `arg`.
    #[inline]
    pub fn dim(&self, arg: usize) -> usize {
        self.slots[arg].dim as usize
    }

    #[inline]
    fn slot(&self, arg: usize, comp: usize) -> &ArgSlot {
        let s = &self.slots[arg];
        debug_assert!(
            comp < s.dim as usize,
            "component {comp} out of range for argument {arg} (dim {})",
            s.dim
        );
        s
    }

    /// Read component `comp` of argument `arg`. Valid for `Read` and `Rw`
    /// arguments. An `Inc` argument may not be read: under redundant halo
    /// compute and owner-computes windows its value mid-loop is partial
    /// (or a worker's sink), so a kernel reading it would depend on the
    /// schedule.
    #[inline]
    pub fn get(&self, arg: usize, comp: usize) -> f64 {
        let s = self.slot(arg, comp);
        debug_assert!(
            matches!(s.mode, AccessMode::Read | AccessMode::Rw),
            "argument {arg} has mode {:?} and may not be read",
            s.mode
        );
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe { *s.ptr.add(comp) }
    }

    /// Overwrite component `comp` of argument `arg`. Valid for `Write` and
    /// `Rw` arguments.
    #[inline]
    pub fn set(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(
            matches!(s.mode, AccessMode::Write | AccessMode::Rw),
            "argument {arg} has mode {:?} and may not be overwritten",
            s.mode
        );
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe { *s.ptr.add(comp) = v }
    }

    /// Increment component `comp` of argument `arg`. Valid for `Inc`
    /// arguments only.
    #[inline]
    pub fn inc(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(
            s.mode == AccessMode::Inc,
            "argument {arg} has mode {:?} and may not be incremented",
            s.mode
        );
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe { *s.ptr.add(comp) += v }
    }

    /// Combine component `comp` of argument `arg` with `v` by minimum.
    /// Valid for `Inc`-mode (reduction) arguments.
    #[inline]
    pub fn reduce_min(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(s.mode == AccessMode::Inc);
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe {
            let cur = *s.ptr.add(comp);
            *s.ptr.add(comp) = cur.min(v);
        }
    }

    /// Combine component `comp` of argument `arg` with `v` by maximum.
    /// Valid for `Inc`-mode (reduction) arguments.
    #[inline]
    pub fn reduce_max(&self, arg: usize, comp: usize, v: f64) {
        let s = self.slot(arg, comp);
        debug_assert!(s.mode == AccessMode::Inc);
        // SAFETY: executor guarantees validity; see `Args::new`.
        unsafe {
            let cur = *s.ptr.add(comp);
            *s.ptr.add(comp) = cur.max(v);
        }
    }

    /// Copy all components of argument `arg` into `out` (a gather helper
    /// for kernels that want a local array). Valid where [`Args::get`] is.
    #[inline]
    pub fn load(&self, arg: usize, out: &mut [f64]) {
        let s = &self.slots[arg];
        debug_assert!(
            matches!(s.mode, AccessMode::Read | AccessMode::Rw),
            "argument {arg} has mode {:?} and may not be read",
            s.mode
        );
        debug_assert!(out.len() <= s.dim as usize);
        for (c, o) in out.iter_mut().enumerate() {
            // SAFETY: executor guarantees validity; see `Args::new`.
            *o = unsafe { *s.ptr.add(c) };
        }
    }
}

/// The most arguments one kernel may take (Hydra's `vflux_edge` has 12).
pub const MAX_ARGS: usize = 12;

/// How one kernel argument reaches its data, declared with the kernel
/// (see [`kernel!`](crate::kernel!)). A loop's `Arg` list must agree
/// with its kernel's shape entry for entry; `LoopSpec::new` panics when
/// it does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgShape {
    /// Entry `idx` of the loop's single map, `dim` components.
    Map { idx: usize, dim: usize },
    /// As `Map`, on the dat of the earlier `map` argument `arg`: the two
    /// share one base, so the compiled loop reads both from one pointer.
    MapOn { idx: usize, dim: usize, arg: usize },
    /// The iteration's own element, `dim` components.
    Direct { dim: usize },
    /// A global of `len` components.
    Global { len: usize },
}

impl ArgShape {
    /// Entry `idx` of the loop's map, `dim` components.
    pub const fn map(idx: usize, dim: usize) -> ArgShape {
        ArgShape::Map { idx, dim }
    }

    /// Entry `idx` of the loop's map, `dim` components, on the dat of
    /// the earlier `map` argument `arg`.
    pub const fn map_on(idx: usize, dim: usize, arg: usize) -> ArgShape {
        ArgShape::MapOn { idx, dim, arg }
    }

    /// The iteration's own element, `dim` components.
    pub const fn direct(dim: usize) -> ArgShape {
        ArgShape::Direct { dim }
    }

    /// A global of `len` components.
    pub const fn global(len: usize) -> ArgShape {
        ArgShape::Global { len }
    }

    /// Components per element (a global's length).
    pub const fn dim(self) -> usize {
        match self {
            ArgShape::Map { dim, .. } | ArgShape::MapOn { dim, .. } | ArgShape::Direct { dim } => {
                dim
            }
            ArgShape::Global { len } => len,
        }
    }

    /// The map entry a `map`/`map_on` argument reads, `None` otherwise.
    pub(crate) const fn map_idx(self) -> Option<usize> {
        match self {
            ArgShape::Map { idx, .. } | ArgShape::MapOn { idx, .. } => Some(idx),
            _ => None,
        }
    }
}

/// A user kernel: applied once per iteration to that iteration's
/// [`Args`]. Declare one with [`kernel!`](crate::kernel!), whose `call`
/// always inlines into the compiled loops; every
/// `Fn(&Args<'_>) + Copy + Send + Sync + 'static` is one as well.
pub trait KernelFn: Copy + Send + Sync + 'static {
    /// The declared argument shape, one entry per argument, or `None`
    /// for an undeclared kernel. A declared kernel's compiled loops
    /// resolve its arguments with these facts as constants.
    const SHAPE: Option<&'static [ArgShape]> = None;

    /// Run the kernel on one iteration's arguments.
    fn call(self, args: &Args<'_>);

    /// Compile the kernel for a loop of `n_args` arguments. The default
    /// instantiates the loops for every arity up to [`MAX_ARGS`] and
    /// picks `n_args` at run time; [`kernel!`](crate::kernel!) with a
    /// shape overrides it with the one arity it declares
    /// ([`Kernel::with_arity`]).
    ///
    /// # Panics
    /// If `n_args` exceeds [`MAX_ARGS`].
    fn compile(self, n_args: usize) -> Kernel {
        Kernel::any_arity(self, n_args)
    }
}

impl<F> KernelFn for F
where
    F: Fn(&Args<'_>) + Copy + Send + Sync + 'static,
{
    #[inline(always)]
    fn call(self, args: &Args<'_>) {
        self(args)
    }
}

/// Declare kernels whose bodies inline into every compiled loop.
///
/// Each `fn name(args: &Args<'_>) [shape] { body }` becomes a unit
/// struct `name` (doc comments and attributes carried over) implementing
/// [`KernelFn`] with an `#[inline(always)]` `call` that holds `body`.
/// The name is still what a loop declaration passes:
/// `LoopSpec::new(.., kernels::name)`.
///
/// The bracketed shape is optional and has one entry per argument, in
/// order ([`ArgShape`]): `map(idx, dim)` is entry `idx` of the loop's
/// single map, `map_on(idx, dim, arg)` the same on the dat of the
/// earlier `map` argument `arg`, `direct(dim)` the iteration's own
/// element and `global(len)` a global. It becomes [`KernelFn::SHAPE`], and the
/// kernel is compiled for exactly that many arguments. Without it the
/// kernel is undeclared and runs through the uniform resolution.
///
/// ```
/// use op2_core::kernel::ArgSlot;
/// use op2_core::{kernel, AccessMode, Args, KernelFn};
///
/// kernel! {
///     /// `axpy` — `y` INC (arg 0, through entry 1 of the loop's map),
///     /// `x` READ (arg 1, direct).
///     pub fn axpy(args: &Args<'_>) [map(1, 1), direct(1)] {
///         args.inc(0, 0, 2.0 * args.get(1, 0));
///     }
/// }
///
/// assert_eq!(axpy::SHAPE.map(<[_]>::len), Some(2));
/// let (mut y, mut x) = ([1.0], [3.0]);
/// let slots = [
///     ArgSlot { ptr: y.as_mut_ptr(), dim: 1, mode: AccessMode::Inc },
///     ArgSlot { ptr: x.as_mut_ptr(), dim: 1, mode: AccessMode::Read },
/// ];
/// axpy.call(&Args::new(&slots));
/// assert_eq!(y, [7.0]);
/// ```
#[macro_export]
macro_rules! kernel {
    ($(
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($args:ident: $ty:ty)
            $([$($shape:ident($($p:expr),* $(,)?)),* $(,)?])?
            $body:block
    )*) => {$(
        $(#[$attr])*
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        $vis struct $name;

        impl $crate::kernel::KernelFn for $name {
            $(
                const SHAPE: Option<&'static [$crate::kernel::ArgShape]> =
                    Some(&[$($crate::kernel::ArgShape::$shape($($p),*)),*]);

                fn compile(self, n_args: usize) -> $crate::kernel::Kernel {
                    $crate::kernel::Kernel::with_arity::<
                        $name,
                        { [$($crate::kernel::ArgShape::$shape($($p),*)),*].len() },
                    >(self, n_args)
                }
            )?

            #[inline(always)]
            fn call(self, $args: $ty) $body
        }
    )*};
}

/// A kernel compiled for its loop: the user function monomorphised over
/// its argument count, owning the iteration loops. Cheap to clone (one
/// reference count); built once per declaration by [`Kernel::compile`].
#[derive(Clone)]
pub struct Kernel(Arc<dyn LoopBody>);

/// Which iterations one compiled-loop call covers.
pub(crate) enum Iters<'a> {
    /// `[start, end)`.
    Range(usize, usize),
    /// An ascending index list.
    List(&'a [u32]),
}

/// An owner-computes chunk's windows: `wins[i] = (lo, len)` is argument
/// `i`'s owned target window (`(0, u32::MAX)` = unwindowed). An indirect
/// argument whose target falls outside it is pointed at `sink`, so the
/// kernel's increment is dropped (the chunk owning that target applies
/// it). `sink` must be valid for writes of the widest windowed argument's
/// `dim` and private to the calling worker.
#[derive(Clone, Copy)]
pub(crate) struct Mask<'a> {
    pub wins: &'a [(u32, u32)],
    pub sink: *mut f64,
}

/// The iteration loops of one compiled kernel. Every method takes the
/// loop's bound arguments (`args.len()` equals the kernel's argument
/// count) under [`crate::schedule::BoundLoop`]'s safety contract.
trait LoopBody: Send + Sync {
    /// Argument count `N` the body was compiled for.
    fn n_args(&self) -> usize;
    /// The kernel's declared shape, if it has one of `N` entries.
    fn shape(&self) -> Option<&'static [ArgShape]>;
    /// Run `iters`, windowed by `mask` if given; a declared, unwindowed
    /// run prefetches map targets if `prefetch` (the bind-time gate).
    fn run(&self, args: &[BoundArg], iters: Iters<'_>, mask: Option<Mask<'_>>, prefetch: bool);
    /// Resolve every argument at iteration `e` in the uniform form and
    /// call the kernel once — the per-element reference the compiled
    /// loops, declared or not, are tested against.
    #[cfg(test)]
    fn elem(&self, args: &[BoundArg], e: usize);
}

/// The user function `K` specialised to `N` arguments.
struct Compiled<K, const N: usize>(K);

/// One argument's window and the worker's sink, when the loop runs an
/// owner-computes chunk.
type Win = Option<((u32, u32), *mut f64)>;

/// Where argument `r` points at iteration `e`:
/// `base + dim·map[e·mstride] + e·estride` in [`BoundArg`]'s one form —
/// a gathered index load and a multiply-add, the same straight-line code
/// for indirect, direct and global arguments. Under a
/// window `win = ((lo, len), sink)` a gathered index outside
/// `[lo, lo + len)` resolves to `sink` instead (an unwindowed argument's
/// `(0, u32::MAX)` passes every valid index). The undeclared form.
#[inline(always)]
fn resolve(r: &BoundArg, e: usize, win: Win) -> *mut f64 {
    // SAFETY: map values validated at declaration; the schedule only
    // covers iterations whose entries are within the built halo depth.
    let v = unsafe { r.gather(e) };
    // SAFETY: in-bounds per dat declaration; concurrent writers are
    // excluded by the schedule's conflict-freedom (or, windowed, by the
    // windows: windowed loops modify nothing directly).
    windowed(v, win)
        .unwrap_or_else(|| unsafe { r.base.add(v as usize * r.dim as usize + e * r.estride) })
}

/// The NONLOCAL check on a gathered map entry `v`, then `Some(sink)` if
/// `v` falls outside the window `win`.
#[inline(always)]
fn windowed(v: u32, win: Win) -> Option<*mut f64> {
    debug_assert_ne!(
        v,
        u32::MAX,
        "map entry beyond built halo depth dereferenced"
    );
    let ((lo, len), sink) = win?;
    (v.wrapping_sub(lo) >= len).then_some(sink)
}

/// A declared kernel's bound arguments in the form its shape resolves:
/// one base per argument and the map row every `map` argument reads.
#[derive(Clone, Copy)]
struct Shaped<const N: usize> {
    base: [*mut f64; N],
    /// Row 0 of the loop's map, and its arity (the row stride).
    row: *const u32,
    arity: usize,
}

impl<const N: usize> Shaped<N> {
    /// `args` under `shape`, whose agreement `BoundLoop::from_parts`
    /// asserted: every `map(k, _)` argument is bound to entry `k` of one
    /// row of `arity` entries.
    #[inline(always)]
    fn new(shape: &[ArgShape], args: &[BoundArg; N]) -> Shaped<N> {
        let (row, arity) = shape
            .iter()
            .zip(args)
            .find_map(|(s, a)| s.map_idx().map(|idx| a.row(idx)))
            .unwrap_or((std::ptr::null(), 0));
        Shaped {
            base: std::array::from_fn(|i| args[i].base),
            row,
            arity,
        }
    }

    /// Where argument `i`, declared `shape`, points at iteration `e`,
    /// whose map row starts at `row`; only `map` arguments consult the
    /// window.
    #[inline(always)]
    fn resolve(&self, shape: ArgShape, i: usize, e: usize, row: *const u32, win: Win) -> *mut f64 {
        let on = |idx: usize, dim: usize, base: *mut f64| {
            // SAFETY: `row + idx` is this argument's binding at `e`
            // (`BoundLoop::from_parts`), valid as in `resolve`.
            let v = unsafe { *row.add(idx) };
            // SAFETY: as in `resolve`.
            windowed(v, win).unwrap_or_else(|| unsafe { base.add(v as usize * dim) })
        };
        match shape {
            ArgShape::Map { idx, dim } => on(idx, dim, self.base[i]),
            // `from_parts` asserted `base[arg] == base[i]`; reading the
            // constant-indexed `base[arg]` lets LLVM see the shared base.
            ArgShape::MapOn { idx, dim, arg } => on(idx, dim, self.base[arg]),
            // SAFETY: as in `resolve`.
            ArgShape::Direct { dim } => unsafe { self.base[i].add(e * dim) },
            ArgShape::Global { .. } => self.base[i],
        }
    }

    /// Ask the cache for the first line of every `map` argument's target
    /// at iteration `e`, whose row the binding covers. A `u32::MAX`
    /// entry (beyond the built halo) is skipped. Only a hint: it reads
    /// and writes nothing, so results do not depend on it.
    #[inline(always)]
    fn prefetch(&self, shape: &[ArgShape], e: usize) {
        let row = self.row.wrapping_add(e * self.arity);
        for (i, s) in shape.iter().enumerate() {
            if let Some(idx) = s.map_idx() {
                // SAFETY: `e` is an iteration of the running call's
                // `iters`, all of which the binding covers, so `row + idx`
                // is its entry as in `resolve`.
                let v = unsafe { *row.add(idx) };
                if v != u32::MAX {
                    prefetch_line(self.base[i].wrapping_add(v as usize * s.dim()));
                }
            }
        }
    }
}

/// How many iterations ahead the prefetching walk asks for a target:
/// far enough for a DRAM miss to land before the kernel needs it at
/// ~20 ns per edge, near enough that the line is still in L1.
const PREFETCH_AHEAD: usize = 16;

/// A read hint for the cache line holding `p` (no-op off x86_64). A
/// prefetch never faults, so `p` need not be dereferenceable.
#[inline(always)]
fn prefetch_line(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint; it neither faults nor accesses
        // memory architecturally, whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(p.cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

impl<K: KernelFn, const N: usize> Compiled<K, N> {
    /// `K`'s declared shape, if it has `N` entries.
    const SHAPE: Option<&'static [ArgShape]> = match K::SHAPE {
        Some(shape) if shape.len() == N => Some(shape),
        _ => None,
    };

    /// The bound arguments as a fixed-size array.
    #[inline(always)]
    fn args(args: &[BoundArg]) -> &[BoundArg; N] {
        args.try_into()
            .expect("bound argument count equals the kernel's")
    }

    /// Fresh slots for `args`; only `ptr` changes per iteration. A
    /// declared kernel's dims are its shape's constants.
    #[inline(always)]
    fn slots(args: &[BoundArg; N]) -> [ArgSlot; N] {
        std::array::from_fn(|i| ArgSlot {
            ptr: args[i].base,
            dim: Self::SHAPE.map_or(args[i].dim, |s| s[i].dim() as u32),
            mode: args[i].mode,
        })
    }

    /// One iteration: resolve every argument, in the declared form if
    /// `shaped` is given and the uniform one otherwise, then call.
    #[inline(always)]
    fn call(
        &self,
        args: &[BoundArg; N],
        shaped: Option<&Shaped<N>>,
        slots: &mut [ArgSlot; N],
        e: usize,
        mask: Option<(&[(u32, u32); N], *mut f64)>,
    ) {
        let win = |i: usize| mask.map(|(w, sink)| (w[i], sink));
        // `Self::SHAPE` is a constant: the match folds away, and so does
        // every `shape[i]` once the loop over `i` unrolls.
        match (Self::SHAPE, shaped) {
            (Some(shape), Some(s)) => {
                let row = s.row.wrapping_add(e * s.arity);
                for i in 0..N {
                    slots[i].ptr = s.resolve(shape[i], i, e, row, win(i));
                }
            }
            _ => {
                for i in 0..N {
                    slots[i].ptr = resolve(&args[i], e, win(i));
                }
            }
        }
        self.0.call(&Args::new(slots));
    }

    /// [`Self::walk`] for a declared, unwindowed loop on a scattered
    /// map: the same calls in the same order, each preceded by a
    /// prefetch of the targets [`PREFETCH_AHEAD`] iterations on.
    #[inline(always)]
    fn walk_prefetching(
        &self,
        args: &[BoundArg; N],
        shape: &[ArgShape],
        s: &Shaped<N>,
        iters: Iters<'_>,
    ) {
        let mut slots = Self::slots(args);
        let mut step = |e: usize, ahead: Option<usize>| {
            if let Some(a) = ahead {
                s.prefetch(shape, a);
            }
            self.call(args, Some(s), &mut slots, e, None);
        };
        match iters {
            Iters::Range(start, end) => {
                for e in start..end {
                    step(e, Some(e + PREFETCH_AHEAD).filter(|&a| a < end));
                }
            }
            Iters::List(iters) => {
                for (k, &e) in iters.iter().enumerate() {
                    step(
                        e as usize,
                        iters.get(k + PREFETCH_AHEAD).map(|&a| a as usize),
                    );
                }
            }
        }
    }

    /// Every iteration of `iters`, in order.
    #[inline(always)]
    fn walk(
        &self,
        args: &[BoundArg; N],
        shaped: Option<&Shaped<N>>,
        iters: Iters<'_>,
        mask: Option<(&[(u32, u32); N], *mut f64)>,
    ) {
        let mut slots = Self::slots(args);
        match iters {
            Iters::Range(start, end) => {
                for e in start..end {
                    self.call(args, shaped, &mut slots, e, mask);
                }
            }
            Iters::List(iters) => {
                for &e in iters {
                    self.call(args, shaped, &mut slots, e as usize, mask);
                }
            }
        }
    }
}

impl<K: KernelFn, const N: usize> LoopBody for Compiled<K, N> {
    fn n_args(&self) -> usize {
        N
    }

    fn shape(&self) -> Option<&'static [ArgShape]> {
        Self::SHAPE
    }

    fn run(&self, args: &[BoundArg], iters: Iters<'_>, mask: Option<Mask<'_>>, prefetch: bool) {
        // A private copy: no store through the kernel's `*mut f64` can
        // reach it, so the descriptors stay in registers across calls
        // instead of being reloaded from the heap after each one.
        let args = *Self::args(args);
        let shaped = Self::SHAPE.map(|shape| Shaped::new(shape, &args));
        match (mask, Self::SHAPE.zip(shaped.as_ref())) {
            (None, Some((shape, s))) if prefetch => self.walk_prefetching(&args, shape, s, iters),
            (None, _) => self.walk(&args, shaped.as_ref(), iters, None),
            (Some(Mask { wins, sink }), _) => {
                let wins = wins.try_into().expect("one window per argument");
                self.walk(&args, shaped.as_ref(), iters, Some((wins, sink)));
            }
        }
    }

    #[cfg(test)]
    fn elem(&self, args: &[BoundArg], e: usize) {
        // Always the uniform form: the reference the declared one is
        // checked against.
        let args = Self::args(args);
        self.call(args, None, &mut Self::slots(args), e, None);
    }
}

impl Kernel {
    /// Compile `kernel` for a loop of `n_args` arguments
    /// ([`KernelFn::compile`]).
    ///
    /// # Panics
    /// If `n_args` exceeds [`MAX_ARGS`], or differs from a declared
    /// kernel's shape.
    pub fn compile<K: KernelFn>(kernel: K, n_args: usize) -> Kernel {
        kernel.compile(n_args)
    }

    /// Every arity up to [`MAX_ARGS`], `n_args` picked at run time: the
    /// default [`KernelFn::compile`].
    fn any_arity<K: KernelFn>(kernel: K, n_args: usize) -> Kernel {
        macro_rules! arities {
            ($($n:literal)*) => {
                match n_args {
                    $($n => Kernel(Arc::new(Compiled::<K, $n>(kernel))),)*
                    n => panic!("a kernel takes at most {MAX_ARGS} arguments, got {n}"),
                }
            };
        }
        arities!(0 1 2 3 4 5 6 7 8 9 10 11 12)
    }

    /// The one arity `N`: what [`kernel!`](crate::kernel!) compiles a
    /// declared kernel for, with `N` its shape's length.
    ///
    /// # Panics
    /// If `N` exceeds [`MAX_ARGS`] or `n_args` differs from `N`.
    pub fn with_arity<K: KernelFn, const N: usize>(kernel: K, n_args: usize) -> Kernel {
        assert!(
            N <= MAX_ARGS,
            "a kernel takes at most {MAX_ARGS} arguments, got {N}"
        );
        assert_eq!(
            n_args, N,
            "the kernel is compiled for {N} arguments, the loop passes {n_args}"
        );
        Kernel(Arc::new(Compiled::<K, N>(kernel)))
    }

    /// Number of arguments the kernel was compiled for.
    pub fn n_args(&self) -> usize {
        self.0.n_args()
    }

    /// The kernel's declared argument shape ([`KernelFn::SHAPE`]), or
    /// `None` for an undeclared kernel.
    pub fn shape(&self) -> Option<&'static [ArgShape]> {
        self.0.shape()
    }

    /// Run `iters` over `args`, windowed by `mask` if given. A declared
    /// kernel's unwindowed run takes the prefetching walk if `prefetch`
    /// (the gate [`crate::schedule::BoundLoop`] decided at bind); the
    /// calls, and so the results, are the same either way.
    #[inline]
    pub(crate) fn run(
        &self,
        args: &[BoundArg],
        iters: Iters<'_>,
        mask: Option<Mask<'_>>,
        prefetch: bool,
    ) {
        self.0.run(args, iters, mask, prefetch)
    }

    /// One kernel invocation at iteration `e`.
    #[cfg(test)]
    pub(crate) fn elem(&self, args: &[BoundArg], e: usize) {
        self.0.elem(args, e)
    }
}

#[cfg(test)]
#[allow(dropping_references, clippy::drop_non_drop)]
mod tests {
    use super::*;

    #[test]
    fn get_set_inc_roundtrip() {
        let mut a = [1.0, 2.0];
        let mut b = [10.0];
        let slots = [
            ArgSlot {
                ptr: a.as_mut_ptr(),
                dim: 2,
                mode: AccessMode::Rw,
            },
            ArgSlot {
                ptr: b.as_mut_ptr(),
                dim: 1,
                mode: AccessMode::Inc,
            },
        ];
        let args = Args::new(&slots);
        assert_eq!(args.len(), 2);
        assert_eq!(args.dim(0), 2);
        assert_eq!(args.get(0, 1), 2.0);
        args.set(0, 0, 5.0);
        args.inc(1, 0, 2.5);
        drop(args);
        assert_eq!(a, [5.0, 2.0]);
        assert_eq!(b, [12.5]);
    }

    #[test]
    fn aliased_slots_are_sound() {
        // Two arguments resolving to the same element, as happens when an
        // edge's two map entries coincide: increments must both land.
        let mut x = [0.0];
        let slots = [
            ArgSlot {
                ptr: x.as_mut_ptr(),
                dim: 1,
                mode: AccessMode::Inc,
            },
            ArgSlot {
                ptr: x.as_mut_ptr(),
                dim: 1,
                mode: AccessMode::Inc,
            },
        ];
        let args = Args::new(&slots);
        args.inc(0, 0, 1.0);
        args.inc(1, 0, 2.0);
        drop(args);
        assert_eq!(x[0], 3.0);
    }

    #[test]
    fn load_gathers_components() {
        let mut a = [3.0, 4.0, 5.0];
        let slots = [ArgSlot {
            ptr: a.as_mut_ptr(),
            dim: 3,
            mode: AccessMode::Read,
        }];
        let args = Args::new(&slots);
        let mut out = [0.0; 3];
        args.load(0, &mut out);
        assert_eq!(out, [3.0, 4.0, 5.0]);
    }

    /// `resolve` against plain index arithmetic, for every argument kind:
    /// indirect through both entries of a two-entry map (one row aliases
    /// them), direct and global; unwindowed, and under a
    /// window whose in-window targets resolve normally and whose
    /// out-of-window ones (below, and exactly at its end) go to the sink.
    #[test]
    fn resolve_matches_index_arithmetic() {
        let (arity, n_iter) = (2usize, 4usize);
        let map: Vec<u32> = vec![3, 1, 2, 2, 0, 4, 1, 3];
        let mut nodes = vec![0.0; 5 * 3];
        let mut cells = vec![0.0; n_iter * 2];
        let mut gbl = vec![0.0; 4];
        let mut sink = [0.0; 3];
        let (nb, cb, gb) = (nodes.as_mut_ptr(), cells.as_mut_ptr(), gbl.as_mut_ptr());
        let sink = sink.as_mut_ptr();
        let ind = |idx| BoundArg::indirect(nb, 3, AccessMode::Inc, map.as_ptr(), arity, idx);
        let direct = BoundArg::direct(cb, 2, AccessMode::Rw);
        let global = BoundArg::global(gb, 4, AccessMode::Read);
        // Window [1, 3) of the target set: 1 and 2 in, 0, 3 and 4 out.
        let (win, open) = ((1u32, 2u32), (0u32, u32::MAX));
        for e in 0..n_iter {
            for idx in 0..arity {
                let v = map[e * arity + idx];
                let at = nb.wrapping_add(v as usize * 3);
                assert_eq!(resolve(&ind(idx), e, None), at, "indirect e={e} idx={idx}");
                assert_eq!(resolve(&ind(idx), e, Some((open, sink))), at);
                let windowed = if (1..3).contains(&v) { at } else { sink };
                assert_eq!(resolve(&ind(idx), e, Some((win, sink))), windowed, "v={v}");
            }
            for w in [None, Some((open, sink))] {
                assert_eq!(resolve(&direct, e, w), cb.wrapping_add(e * 2), "e={e}");
                assert_eq!(resolve(&global, e, w), gb);
            }
        }
        // Row 1 names node 2 twice: both entries resolve to one element.
        assert_eq!(resolve(&ind(0), 1, None), resolve(&ind(1), 1, None));
        assert!(ind(0).is_indirect() && !direct.is_indirect() && !global.is_indirect());
    }

    /// An `Inc` argument is write-only to the kernel.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "may not be read")]
    fn get_of_inc_argument_panics() {
        let mut x = [1.0];
        let slots = [ArgSlot {
            ptr: x.as_mut_ptr(),
            dim: 1,
            mode: AccessMode::Inc,
        }];
        Args::new(&slots).get(0, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "may not be read")]
    fn load_of_inc_argument_panics() {
        let mut x = [1.0, 2.0];
        let slots = [ArgSlot {
            ptr: x.as_mut_ptr(),
            dim: 2,
            mode: AccessMode::Inc,
        }];
        Args::new(&slots).load(0, &mut [0.0; 2]);
    }
}
