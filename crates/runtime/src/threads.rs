//! Intra-rank threaded execution: configuration, worker pool, drains,
//! and the rank's thread state.
//!
//! Each rank (already an OS thread under the harness) can spread its
//! kernel iterations over a pool of worker threads by executing a
//! lowered [`Schedule`]: its chunks are claimed from a shared cursor in
//! one round (a schedule of one chunk runs on the caller, no round at
//! all). Both lowerings (owner-computes windows, direct blocks) keep
//! results bitwise identical to sequential execution for every thread
//! count — see [`op2_core::schedule`].
//!
//! Each rank **owns** its pool ([`ThreadCtx::pool`]), created lazily at
//! the rank's configured width. Workers park on their channel between
//! rounds — no spinning.
//!
//! One drain runs a schedule on the pool: [`run_schedule_pooled_ctx`],
//! one round.
//!
//! Control surface: [`crate::harness::RunOptions::threading`] (per
//! rank; default 1 thread = sequential), which also sets the direct
//! blocks' [`Threading::block_size`], copied once per run into
//! [`crate::env::RankEnv::threading`].

use op2_core::schedule::{run_chunk, BoundLoop, SchedCtx, Schedule};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Default iterations per direct block: big enough to amortize the
/// per-block claim, small enough to load-balance the tail.
pub const DEFAULT_BLOCK_SIZE: usize = 256;

/// Threading configuration for one rank's kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threading {
    /// Threads executing each lowered loop (1 = sequential, the
    /// pre-subsystem behaviour).
    pub n_threads: usize,
    /// Iterations per direct block; a range of at most this many
    /// iterations runs on the rank's own thread.
    pub block_size: usize,
}

impl Threading {
    /// Sequential execution (no pool involvement at all).
    pub fn single() -> Threading {
        Threading::with_threads(1)
    }

    /// `n_threads` with the default block size.
    pub fn with_threads(n_threads: usize) -> Threading {
        assert!(n_threads >= 1, "n_threads must be at least 1");
        Threading {
            n_threads,
            block_size: DEFAULT_BLOCK_SIZE,
        }
    }

    /// True when execution actually fans out (more than one thread).
    pub fn active(&self) -> bool {
        self.n_threads > 1
    }
}

impl Default for Threading {
    /// [`Threading::single`].
    fn default() -> Threading {
        Threading::single()
    }
}

/// One dispatched round of work: `n_tasks` tasks claimed from a shared
/// cursor by every participant (workers + the caller).
struct Round {
    /// The task body, lifetime-erased: the caller blocks in
    /// [`ThreadPool::run`] until every participant finishes, so the
    /// referent outlives all use. Called as `task(worker, i)` — the
    /// stable participant index lets schedule execution hand each worker
    /// its own reusable [`SchedCtx`].
    task: *const (dyn Fn(usize, usize) + Sync),
    cursor: AtomicUsize,
    n_tasks: usize,
    /// Workers still running this round; the caller waits for zero.
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

struct RoundPtr(*const Round);
// SAFETY: the Round lives on the caller's stack for the full duration of
// the round (the caller blocks until `pending` hits zero), and all
// mutation goes through atomics / the latch mutex.
unsafe impl Send for RoundPtr {}

enum Msg {
    Run(RoundPtr),
    Shutdown,
}

/// A persistent pool of `n_threads - 1` parked workers; the calling
/// thread is the final participant of every round.
pub struct ThreadPool {
    senders: Vec<mpsc::Sender<Msg>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    n_threads: usize,
}

impl ThreadPool {
    /// Spawn a pool where rounds run on `n_threads` threads total
    /// (`n_threads - 1` workers plus the caller).
    pub fn new(n_threads: usize) -> ThreadPool {
        assert!(n_threads >= 1);
        let mut senders = Vec::with_capacity(n_threads - 1);
        let mut handles = Vec::with_capacity(n_threads - 1);
        for w in 1..n_threads {
            let (tx, rx) = mpsc::channel::<Msg>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("op2-worker-{w}"))
                    .spawn(move || worker_loop(rx, w))
                    .expect("spawn pool worker"),
            );
        }
        ThreadPool {
            senders,
            handles,
            n_threads,
        }
    }

    /// Total participants per round.
    pub fn n_threads(&self) -> usize {
        self.n_threads
    }

    /// Execute `task(worker, i)` for every `i in 0..n_tasks`, spread over
    /// the pool plus the calling thread; returns when all tasks finished.
    /// `worker` is a stable index in `0..n_threads` (0 = the caller)
    /// unique to one concurrent participant, so schedule execution can
    /// give every participant its own context without locking. Tasks
    /// within a round may run concurrently in any order — callers pass
    /// only mutually race-free work per round (one schedule's chunks),
    /// so order within the round is immaterial.
    ///
    /// Propagates panics: if any participant's task panics, `run`
    /// finishes the round (other participants keep draining) and then
    /// panics on the calling thread.
    pub fn run(&self, n_tasks: usize, task: &(dyn Fn(usize, usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        // SAFETY: lifetime erasure only — `run` does not return
        // until every participant is done with the pointer.
        let task: *const (dyn Fn(usize, usize) + Sync) = unsafe { std::mem::transmute(task) };
        let round = Round {
            task,
            cursor: AtomicUsize::new(0),
            n_tasks,
            pending: Mutex::new(self.senders.len()),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        };
        for tx in &self.senders {
            tx.send(Msg::Run(RoundPtr(&round)))
                .expect("pool worker alive");
        }
        // The caller participates too, as worker 0.
        let caller = catch_unwind(AssertUnwindSafe(|| drain(&round, 0)));
        // Wait out the workers before the Round leaves the stack.
        let mut pending = round.pending.lock().expect("round latch poisoned");
        while *pending > 0 {
            pending = round.done.wait(pending).expect("round latch poisoned");
        }
        drop(pending);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if round.panicked.load(Ordering::SeqCst) {
            panic!("a pool worker panicked during a pool round");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        for tx in &self.senders {
            let _ = tx.send(Msg::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Claim-and-run until the round's cursor runs dry.
fn drain(round: &Round, worker: usize) {
    // SAFETY: see `Round::task`.
    let task = unsafe { &*round.task };
    loop {
        let i = round.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= round.n_tasks {
            break;
        }
        task(worker, i);
    }
}

fn worker_loop(rx: mpsc::Receiver<Msg>, worker: usize) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Run(ptr) => {
                // SAFETY: the sender blocks until we signal `pending`.
                let round = unsafe { &*ptr.0 };
                if catch_unwind(AssertUnwindSafe(|| drain(round, worker))).is_err() {
                    round.panicked.store(true, Ordering::SeqCst);
                }
                let mut pending = round.pending.lock().expect("round latch poisoned");
                *pending -= 1;
                if *pending == 0 {
                    round.done.notify_all();
                }
            }
            Msg::Shutdown => break,
        }
    }
}

/// What one pooled schedule execution measured: the wall and the
/// per-worker idle time. `idle_ns[w]` is the total wall minus worker
/// `w`'s summed chunk-execution time, so it counts waiting for the round
/// to finish.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total wall-clock nanoseconds of the execution.
    pub total_ns: u64,
    /// Per-worker idle nanoseconds (`total_ns` − busy).
    pub idle_ns: Vec<u64>,
}

/// One reusable [`SchedCtx`] per pool participant; each worker touches
/// only its own slot, identified by the stable index
/// [`ThreadPool::run`] hands out.
struct CtxSlab<'a>(&'a [UnsafeCell<SchedCtx>]);
// SAFETY: disjoint access — worker `w` dereferences only slot `w`, and
// participant indices are unique within a round.
unsafe impl Sync for CtxSlab<'_> {}

impl<'a> CtxSlab<'a> {
    /// Grow `ctxs` to the pool width and hand the slice out for
    /// per-worker access.
    fn new(ctxs: &'a mut Vec<SchedCtx>, width: usize) -> Self {
        if ctxs.len() < width {
            ctxs.resize_with(width, SchedCtx::new);
        }
        // SAFETY: `UnsafeCell<SchedCtx>` has the same layout as
        // `SchedCtx` (repr(transparent)) and we hold the slice
        // exclusively for `'a`.
        CtxSlab(unsafe {
            &*(ctxs.as_mut_slice() as *mut [SchedCtx] as *const [UnsafeCell<SchedCtx>])
        })
    }

    fn slot(&self, w: usize) -> *mut SchedCtx {
        self.0[w].get()
    }
}

/// Execute a lowered [`Schedule`] of `bound` on a pool: its chunks are
/// claimed from one round's cursor. Returns the wall and per-worker
/// busy/idle counters ([`ExecStats`]). Results are bitwise identical to
/// [`op2_core::schedule::run_schedule`] for any pool width.
///
/// The per-worker contexts are caller-owned, so repeated executions of
/// a schedule reuse the owner-computes sinks and windows instead of
/// reallocating: zero heap allocations at steady state. `ctxs` is
/// grown to the pool width on entry.
pub fn run_schedule_pooled_ctx(
    pool: &ThreadPool,
    bound: &BoundLoop,
    sched: &Schedule,
    ctxs: &mut Vec<SchedCtx>,
) -> ExecStats {
    let w_count = pool.n_threads();
    let slab = CtxSlab::new(ctxs, w_count);
    let busy: Vec<AtomicU64> = (0..w_count).map(|_| AtomicU64::new(0)).collect();
    // Windowed chunks are race-free only if their windows are disjoint
    // and every increment is kept by exactly one of them.
    debug_assert!(sched.windows_valid(bound));
    let t0 = Instant::now();
    let run = |w: usize, ci: usize| {
        // SAFETY: see `CtxSlab` — worker `w` owns slot `w`.
        let ctx = unsafe { &mut *slab.slot(w) };
        let c0 = Instant::now();
        run_chunk(bound, &sched.chunks[ci], ctx);
        busy[w].fetch_add(c0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    if sched.chunks.len() == 1 {
        // Nothing to share: the caller runs the chunk as worker 0
        // instead of waking every worker to find an empty cursor.
        run(0, 0);
    } else {
        pool.run(sched.chunks.len(), &run);
    }
    let total_ns = t0.elapsed().as_nanos() as u64;
    ExecStats {
        total_ns,
        idle_ns: busy
            .iter()
            .map(|b| total_ns.saturating_sub(b.load(Ordering::Relaxed)))
            .collect(),
    }
}

/// Per-rank execution resources that do not depend on the layout: the
/// rank's **owned** worker pool (created lazily at the width the rank's
/// configuration asks for — ranks do not share process-global pools) and
/// the drain's reusable contexts. Every lowered schedule lives in the
/// [`crate::plan::PlanCache`], not here. State only — the configuration
/// is [`crate::env::RankEnv::threading`].
#[derive(Default)]
pub struct ThreadCtx {
    pool: Option<Arc<ThreadPool>>,
    /// Per-worker execution contexts, reused across every schedule run
    /// on this rank so owner-computes sinks stop allocating once warm.
    pub sched_ctxs: Vec<SchedCtx>,
}

impl ThreadCtx {
    /// The rank's own pool at `width` threads: created on first use, and
    /// replaced when a caller asks for another width, so a rank whose
    /// threading changed never runs at the old width.
    pub fn pool(&mut self, width: usize) -> Arc<ThreadPool> {
        match &self.pool {
            Some(p) if p.n_threads() == width => Arc::clone(p),
            _ => Arc::clone(self.pool.insert(Arc::new(ThreadPool::new(width)))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_runs_every_task_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        pool.run(hits.len(), &|_, i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_reusable_across_rounds() {
        let pool = ThreadPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..10 {
            pool.run(57, &|_, _| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 570);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let total = AtomicUsize::new(0);
        pool.run(13, &|_, _| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 13);
    }

    #[test]
    fn task_panic_propagates_to_caller() {
        let pool = ThreadPool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|_, i| {
                if i == 33 {
                    panic!("task 33 exploded");
                }
            });
        }));
        assert!(res.is_err());
        // The pool survives a panicked round.
        let total = AtomicUsize::new(0);
        pool.run(8, &|_, _| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn thread_ctx_owns_one_pool() {
        let mut ctx = ThreadCtx::default();
        let a = ctx.pool(2);
        let b = ctx.pool(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.n_threads(), 2);
        let mut other = ThreadCtx::default();
        assert!(!Arc::ptr_eq(&a, &other.pool(2)));
    }

    #[test]
    fn thread_ctx_pool_follows_the_requested_width() {
        let mut ctx = ThreadCtx::default();
        assert_eq!(ctx.pool(2).n_threads(), 2);
        assert_eq!(ctx.pool(4).n_threads(), 4);
    }

    #[test]
    fn pooled_schedule_matches_sequential_walk() {
        use op2_core::{seq, AccessMode, Arg, Args, Domain, LoopSpec};
        fn flux(args: &Args<'_>) {
            let a = args.get(2, 0);
            let b = args.get(3, 0);
            args.inc(0, 0, (b - a) * 0.123456789);
            args.inc(1, 0, (a - b) * 0.987654321);
        }
        let build = || {
            let mut dom = Domain::new();
            let nodes = dom.decl_set("nodes", 129);
            let edges = dom.decl_set("edges", 128);
            let vals: Vec<u32> = (0..128u32).flat_map(|i| [i, i + 1]).collect();
            let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
            let pres: Vec<f64> = (0..129).map(|i| (i as f64 * 0.7).sin()).collect();
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
                flux,
            );
            (dom, spec, r)
        };
        let (mut ref_dom, spec, r) = build();
        seq::run_loop(&mut ref_dom, &spec);
        let reference = ref_dom.dat(r).data.clone();

        for n_threads in [1usize, 2, 4] {
            let (mut dom, spec, r) = build();
            let n = dom.set(spec.set).size;
            let (maps, sizes) = (dom.maps(), dom.set_sizes());
            let sched = op2_core::thread_schedule(maps, &spec.sig(), 0, n, n_threads, 8, &sizes)
                .expect("an Inc-only loop lowers owner-computes");
            let mut gbls: Vec<Vec<f64>> = Vec::new();
            let bound = BoundLoop::bind(&mut dom, &spec, &mut gbls);
            let pool = ThreadPool::new(n_threads);
            let stats = run_schedule_pooled_ctx(&pool, &bound, &sched, &mut Vec::new());
            assert_eq!(stats.idle_ns.len(), n_threads);
            assert_eq!(dom.dat(r).data, reference, "n_threads={n_threads}");
        }
    }
}
