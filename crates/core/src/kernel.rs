//! The kernel calling convention and the compiled iteration loops.
//!
//! OP2 kernels are small "user functions" applied once per set element,
//! receiving pointers to each argument's data for that element (gathered
//! through the maps by the back-end). Here a kernel is any [`KernelFn`]
//! taking an [`Args`] view; per-component accessors (`get` / `set` /
//! `inc`) replace raw pointer arithmetic.
//!
//! Declare kernels with [`kernel!`](crate::kernel!): it turns each
//! `fn name(args: &Args<'_>) { body }` into a zero-sized type `name`
//! whose `KernelFn::call` is `#[inline(always)]` and holds `body`, so
//! every compiled loop contains the body inline — a property of the
//! kernel's type, not of the optimiser's inlining heuristics. Any
//! `Fn(&Args<'_>) + Copy + Send + Sync + 'static` (a closure, a `fn` item
//! or a `fn` pointer) is a `KernelFn` too, through a blanket impl, and
//! runs through the same loops; but its body sits behind `Fn::call` and
//! may stay out of line.
//!
//! OP2's translator emits one specialised loop per `op_par_loop`. The
//! same happens here at declaration: [`Kernel::compile`] monomorphises
//! the user function together with its argument count `N` into one
//! [`Kernel`] that owns every iteration loop the executors run (ranges,
//! index lists, and owner-computes windowed ranges and lists). Slots
//! live in a stack
//! `[ArgSlot; N]`, so once the kernel inlines, its `get`/`inc` reads are
//! constant-indexed and need no bounds checks. Argument resolution
//! (iteration index → element pointer) happens in exactly one place,
//! the private `resolve`, and is the same straight-line code for every
//! argument: each is bound in one form (see [`BoundArg`]), so resolving
//! is one gathered index load and one multiply-add, with no branch on
//! the argument's kind. A compiled loop walks its own stack copy of the
//! `N` bound arguments, which the kernel's stores cannot alias.
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

/// A user kernel: applied once per iteration to that iteration's
/// [`Args`]. Declare one with [`kernel!`](crate::kernel!), whose `call`
/// always inlines into the compiled loops; every
/// `Fn(&Args<'_>) + Copy + Send + Sync + 'static` is one as well.
pub trait KernelFn: Copy + Send + Sync + 'static {
    /// Run the kernel on one iteration's arguments.
    fn call(self, args: &Args<'_>);
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
/// Each `fn name(args: &Args<'_>) { body }` becomes a unit struct `name`
/// (doc comments and attributes carried over) implementing [`KernelFn`]
/// with an `#[inline(always)]` `call` that holds `body`. The name is still
/// what a loop declaration passes: `LoopSpec::new(.., kernels::name)`.
///
/// ```
/// use op2_core::kernel::ArgSlot;
/// use op2_core::{kernel, AccessMode, Args, KernelFn};
///
/// kernel! {
///     /// `axpy` — `y` INC (arg 0), `x` READ (arg 1).
///     pub fn axpy(args: &Args<'_>) {
///         args.inc(0, 0, 2.0 * args.get(1, 0));
///     }
/// }
///
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
        $vis:vis fn $name:ident($args:ident: $ty:ty) $body:block
    )*) => {$(
        $(#[$attr])*
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        $vis struct $name;

        impl $crate::kernel::KernelFn for $name {
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
    /// Run `iters`, windowed by `mask` if given.
    fn run(&self, args: &[BoundArg], iters: Iters<'_>, mask: Option<Mask<'_>>);
    /// Resolve every argument at iteration `e` and call the kernel once —
    /// the per-element reference the compiled loops are tested against.
    #[cfg(test)]
    fn elem(&self, args: &[BoundArg], e: usize);
}

/// The user function `K` specialised to `N` arguments.
struct Compiled<K, const N: usize>(K);

/// Where argument `r` points at iteration `e`:
/// `base + dim·map[e·mstride] + e·estride` in [`BoundArg`]'s one form —
/// a gathered index load and a multiply-add, the same straight-line code
/// for indirect, direct and global arguments. Under a
/// window `win = ((lo, len), sink)` a gathered index outside
/// `[lo, lo + len)` resolves to `sink` instead (an unwindowed argument's
/// `(0, u32::MAX)` passes every valid index). The only place iteration
/// indices become data pointers.
#[inline(always)]
fn resolve(r: &BoundArg, e: usize, win: Option<((u32, u32), *mut f64)>) -> *mut f64 {
    // SAFETY: map values validated at declaration; the schedule only
    // covers iterations whose entries are within the built halo depth.
    let v = unsafe { r.gather(e) };
    debug_assert_ne!(
        v,
        u32::MAX,
        "map entry beyond built halo depth dereferenced"
    );
    if let Some(((lo, len), sink)) = win {
        if v.wrapping_sub(lo) >= len {
            return sink;
        }
    }
    // SAFETY: in-bounds per dat declaration; concurrent writers are
    // excluded by the schedule's conflict-freedom (or, windowed, by the
    // windows: windowed loops modify nothing directly).
    unsafe { r.base.add(v as usize * r.dim as usize + e * r.estride) }
}

impl<K: KernelFn, const N: usize> Compiled<K, N> {
    /// The bound arguments as a fixed-size array.
    #[inline(always)]
    fn args(args: &[BoundArg]) -> &[BoundArg; N] {
        args.try_into()
            .expect("bound argument count equals the kernel's")
    }

    /// Fresh slots for `args`; only `ptr` changes per iteration.
    #[inline(always)]
    fn slots(args: &[BoundArg; N]) -> [ArgSlot; N] {
        std::array::from_fn(|i| ArgSlot {
            ptr: args[i].base,
            dim: args[i].dim,
            mode: args[i].mode,
        })
    }

    /// One iteration: resolve, call.
    #[inline(always)]
    fn call(
        &self,
        args: &[BoundArg; N],
        slots: &mut [ArgSlot; N],
        e: usize,
        mask: Option<(&[(u32, u32); N], *mut f64)>,
    ) {
        for i in 0..N {
            slots[i].ptr = resolve(&args[i], e, mask.map(|(w, sink)| (w[i], sink)));
        }
        self.0.call(&Args::new(slots));
    }

    /// Every iteration of `iters`, in order.
    #[inline(always)]
    fn walk(
        &self,
        args: &[BoundArg; N],
        iters: Iters<'_>,
        mask: Option<(&[(u32, u32); N], *mut f64)>,
    ) {
        let mut slots = Self::slots(args);
        match iters {
            Iters::Range(start, end) => {
                for e in start..end {
                    self.call(args, &mut slots, e, mask);
                }
            }
            Iters::List(iters) => {
                for &e in iters {
                    self.call(args, &mut slots, e as usize, mask);
                }
            }
        }
    }
}

impl<K: KernelFn, const N: usize> LoopBody for Compiled<K, N> {
    fn n_args(&self) -> usize {
        N
    }

    fn run(&self, args: &[BoundArg], iters: Iters<'_>, mask: Option<Mask<'_>>) {
        // A private copy: no store through the kernel's `*mut f64` can
        // reach it, so the descriptors stay in registers across calls
        // instead of being reloaded from the heap after each one.
        let args = *Self::args(args);
        match mask {
            None => self.walk(&args, iters, None),
            Some(Mask { wins, sink }) => {
                let wins = wins.try_into().expect("one window per argument");
                self.walk(&args, iters, Some((wins, sink)));
            }
        }
    }

    #[cfg(test)]
    fn elem(&self, args: &[BoundArg], e: usize) {
        let args = Self::args(args);
        self.call(args, &mut Self::slots(args), e, None);
    }
}

impl Kernel {
    /// Compile `kernel` for a loop of `n_args` arguments.
    ///
    /// # Panics
    /// If `n_args` exceeds [`MAX_ARGS`].
    pub fn compile<K: KernelFn>(kernel: K, n_args: usize) -> Kernel {
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

    /// Number of arguments the kernel was compiled for.
    pub fn n_args(&self) -> usize {
        self.0.n_args()
    }

    /// Run `iters` over `args`, windowed by `mask` if given.
    #[inline]
    pub(crate) fn run(&self, args: &[BoundArg], iters: Iters<'_>, mask: Option<Mask<'_>>) {
        self.0.run(args, iters, mask)
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
