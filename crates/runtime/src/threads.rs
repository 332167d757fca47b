//! Intra-rank threaded execution: configuration, worker pool, drains,
//! and the rank's thread state.
//!
//! Each rank (already an OS thread under the harness) can spread its
//! kernel iterations over a pool of worker threads by executing a
//! lowered [`Schedule`] level by level: within a level, chunks are
//! claimed from a shared cursor; between levels the pool barriers (a
//! level of one chunk runs on the caller, no round at all).
//! Order-preserving lowerings (owner-computes windows, the levelized
//! block coloring) keep results bitwise identical
//! to sequential execution for every thread count — see
//! [`op2_core::schedule`].
//!
//! Each rank **owns** its pool ([`ThreadCtx::pool`]), created lazily at
//! the rank's configured width. Workers park on their channel between
//! rounds — no spinning.
//!
//! Two drains run a schedule on the pool: the leveled walk
//! ([`run_schedule_pooled_ctx`], one round per level) and the dataflow
//! executor ([`run_schedule_dataflow`]), where each chunk fires when its
//! dependency counter in the schedule's chunk DAG reaches zero.
//!
//! Control surface: [`crate::harness::RunOptions::threading`] (per
//! rank; default 1 thread = sequential), which also sets the colored
//! fallback's [`Threading::block_size`], copied once per run into
//! [`crate::policy::ExecPolicy::threading`].

use op2_core::dag::ChunkDag;
use op2_core::schedule::{run_chunk, BoundLoop, SchedCtx, Schedule};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Default iterations per coloring block: big enough to amortize the
/// per-block claim, small enough to load-balance the tail.
pub const DEFAULT_BLOCK_SIZE: usize = 256;

/// Threading configuration for one rank's kernel execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threading {
    /// Threads executing each colored loop (1 = sequential, the
    /// pre-subsystem behaviour).
    pub n_threads: usize,
    /// Iterations per coloring block.
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
    /// only mutually race-free work per round (one schedule level's
    /// chunks, per-worker dataflow drainers), so order within the round
    /// is immaterial.
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

/// What one pooled schedule execution measured — the per-level walls the
/// trace always recorded, plus the per-worker busy/idle split and the
/// dataflow executor's steal/fire counters (zero under the leveled
/// walk). `idle_ns[w]` is uniform across both executors: total wall
/// minus worker `w`'s summed chunk-execution time, so barrier waiting
/// under levels and spin/steal waiting under dataflow are measured with
/// the same ruler.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Wall-clock nanoseconds per level (dataflow runs have a single
    /// barrier-free "level": the whole drain).
    pub level_ns: Vec<u64>,
    /// Total wall-clock nanoseconds of the execution.
    pub total_ns: u64,
    /// Per-worker idle nanoseconds (`total_ns` − busy).
    pub idle_ns: Vec<u64>,
    /// Per-worker successful steals (always 0 under levels).
    pub steals: Vec<u64>,
    /// Per-worker chunks executed.
    pub fires: Vec<u64>,
    /// Serial depth of the execution: the DAG's critical path under
    /// dataflow, the level count under the leveled walk.
    pub crit_path: usize,
    /// Which executor ran.
    pub dataflow: bool,
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

/// Execute a lowered [`Schedule`] on a pool, level by level: within a
/// level, chunks are claimed from the round cursor; the pool barriers
/// between levels. Returns the per-level walls and per-worker
/// busy/idle counters ([`ExecStats`]). With an order-preserving
/// lowering, results are bitwise identical to
/// [`op2_core::schedule::run_schedule`] for any pool width.
///
/// The per-worker contexts are caller-owned, so repeated executions of
/// a schedule reuse the owner-computes sinks and windows instead of
/// reallocating: zero heap allocations at steady state. `ctxs` is
/// grown to the pool width on entry.
pub fn run_schedule_pooled_ctx(
    pool: &ThreadPool,
    bound: &[BoundLoop],
    sched: &Schedule,
    ctxs: &mut Vec<SchedCtx>,
) -> ExecStats {
    debug_assert_eq!(bound.len(), sched.n_loops);
    let w_count = pool.n_threads();
    let slab = CtxSlab::new(ctxs, w_count);
    let busy: Vec<AtomicU64> = (0..w_count).map(|_| AtomicU64::new(0)).collect();
    let fires: Vec<AtomicU64> = (0..w_count).map(|_| AtomicU64::new(0)).collect();
    // Same-level windowed chunks are race-free only if their windows
    // are disjoint and every increment is kept by exactly one of them.
    debug_assert!(bound.first().is_none_or(|b| sched.windows_valid(b)));
    let mut level_ns = Vec::with_capacity(sched.levels.len());
    let t0 = Instant::now();
    for level in &sched.levels {
        let l0 = Instant::now();
        let run = |w: usize, ci: usize| {
            // SAFETY: see `CtxSlab` — worker `w` owns slot `w`.
            let ctx = unsafe { &mut *slab.slot(w) };
            let c0 = Instant::now();
            run_chunk(bound, &level.chunks[ci], ctx);
            busy[w].fetch_add(c0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            fires[w].fetch_add(1, Ordering::Relaxed);
        };
        if level.chunks.len() == 1 {
            // Nothing to share: the caller runs the chunk as worker 0
            // instead of waking every worker to find an empty cursor.
            run(0, 0);
        } else {
            pool.run(level.chunks.len(), &run);
        }
        level_ns.push(l0.elapsed().as_nanos() as u64);
    }
    let total_ns = t0.elapsed().as_nanos() as u64;
    ExecStats {
        level_ns,
        total_ns,
        idle_ns: busy
            .iter()
            .map(|b| total_ns.saturating_sub(b.load(Ordering::Relaxed)))
            .collect(),
        steals: vec![0; w_count],
        fires: fires.iter().map(|f| f.load(Ordering::Relaxed)).collect(),
        crit_path: sched.n_levels(),
        dataflow: false,
    }
}

/// Reusable state of the dataflow executor: the per-chunk dependency
/// counters and the per-worker owner-first steal stacks, persisted in
/// [`ThreadCtx`] across executions so the steady state performs **zero
/// heap allocations in the steal queues** — every growth is counted in
/// [`DataflowScratch::allocs`], which the bench and tests assert flat.
#[derive(Default)]
pub struct DataflowScratch {
    /// Live firing counters, re-armed from [`ChunkDag::deps`] per run.
    deps: Vec<AtomicU32>,
    /// One LIFO stack per worker: the owner pushes and pops at the tail
    /// (hot end); thieves pop the tail of the *richest* victim.
    queues: Vec<Mutex<Vec<u32>>>,
    /// Racy size hints for the steal-victim scan (exact under the lock).
    sizes: Vec<AtomicUsize>,
    busy: Vec<AtomicU64>,
    steals: Vec<AtomicU64>,
    fires: Vec<AtomicU64>,
    allocs: u64,
}

impl DataflowScratch {
    /// Heap allocations (or capacity growths) the dep counters and steal
    /// queues have performed so far — flat across repeat executions of
    /// warmed shapes.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Size for `workers` workers over `n_chunks` chunks, counting every
    /// growth; clears all queues and counters.
    fn prepare(&mut self, workers: usize, n_chunks: usize) {
        if self.deps.len() < n_chunks {
            self.allocs += 1;
            self.deps.resize_with(n_chunks, || AtomicU32::new(0));
        }
        if self.queues.len() < workers {
            self.allocs += 1;
            self.queues.resize_with(workers, || Mutex::new(Vec::new()));
            self.sizes.resize_with(workers, || AtomicUsize::new(0));
            self.busy.resize_with(workers, || AtomicU64::new(0));
            self.steals.resize_with(workers, || AtomicU64::new(0));
            self.fires.resize_with(workers, || AtomicU64::new(0));
        }
        for w in 0..workers {
            let mut q = self.queues[w].lock().expect("steal queue poisoned");
            q.clear();
            if q.capacity() < n_chunks {
                self.allocs += 1;
                // On the cleared queue `reserve_exact(n)` guarantees
                // capacity `n`, so no later `push` can reallocate.
                q.reserve_exact(n_chunks);
            }
            self.sizes[w].store(0, Ordering::Relaxed);
            self.busy[w].store(0, Ordering::Relaxed);
            self.steals[w].store(0, Ordering::Relaxed);
            self.fires[w].store(0, Ordering::Relaxed);
        }
    }

    /// Pop owner-first: the worker's own tail, else the tail of the
    /// richest victim (counted as a steal).
    fn pop(&self, me: usize, workers: usize) -> Option<u32> {
        {
            let mut q = self.queues[me].lock().expect("steal queue poisoned");
            if let Some(c) = q.pop() {
                self.sizes[me].store(q.len(), Ordering::Release);
                return Some(c);
            }
        }
        let mut best = usize::MAX;
        let mut best_size = 0usize;
        for v in 0..workers {
            if v == me {
                continue;
            }
            let s = self.sizes[v].load(Ordering::Acquire);
            if s > best_size {
                best_size = s;
                best = v;
            }
        }
        if best != usize::MAX {
            let mut q = self.queues[best].lock().expect("steal queue poisoned");
            if let Some(c) = q.pop() {
                self.sizes[best].store(q.len(), Ordering::Release);
                self.steals[me].fetch_add(1, Ordering::Relaxed);
                return Some(c);
            }
        }
        None
    }

    /// Push a ready chunk onto its owner's stack.
    fn push(&self, owner: usize, c: u32) {
        let mut q = self.queues[owner].lock().expect("steal queue poisoned");
        q.push(c);
        self.sizes[owner].store(q.len(), Ordering::Release);
    }
}

/// Which worker owns chunk `c` — where it is seeded when its counter
/// hits zero: round-robin, spreading ready chunks for load balance.
#[inline]
fn chunk_owner(c: u32, workers: usize) -> usize {
    c as usize % workers
}

/// Drain a [`ChunkDag`] on the pool: every chunk fires the moment its
/// dependency counter reaches zero — no level barriers. Ready chunks go
/// to their owner's LIFO stack; idle workers steal from the richest
/// victim. `task(worker, chunk)` runs each chunk; `worker` is a unique
/// instance id in `0..n_threads` (at most one live instance per id, so
/// it can index per-worker scratch).
///
/// Determinism: the DAG orders every conflicting chunk pair in
/// sequential order (see [`ChunkDag::build`]), so any queue/steal order
/// yields the sequential per-element update sequence — results are
/// bitwise identical to the leveled walk and to sequential execution.
///
/// Panic containment: a panicking chunk aborts the drain (counters are
/// left undecremented, spinning workers are released) and the panic
/// re-raises on the caller via the pool's round machinery.
pub fn run_dag(
    pool: &ThreadPool,
    dag: &ChunkDag,
    scratch: &mut DataflowScratch,
    task: &(dyn Fn(usize, usize) + Sync),
) -> ExecStats {
    let w_count = pool.n_threads();
    let n = dag.n_chunks;
    scratch.prepare(w_count, n);
    if n == 0 {
        return ExecStats {
            crit_path: dag.crit_path as usize,
            dataflow: true,
            idle_ns: vec![0; w_count],
            steals: vec![0; w_count],
            fires: vec![0; w_count],
            ..ExecStats::default()
        };
    }
    for (i, &d) in dag.deps.iter().enumerate() {
        scratch.deps[i].store(d, Ordering::Relaxed);
    }
    // Seed roots in reverse so each owner's LIFO stack pops them in
    // ascending chunk-id order (the sequential front of the DAG first).
    for &r in dag.roots.iter().rev() {
        scratch.push(chunk_owner(r, w_count), r);
    }
    let remaining = AtomicUsize::new(n);
    let aborted = AtomicBool::new(false);
    let scratch_ref: &DataflowScratch = scratch;
    let t0 = Instant::now();
    pool.run(w_count, &|_, me| {
        // `me` is the claimed instance id, not the participant index:
        // the round cursor may hand one participant several instances
        // (which then run serially), and queue/scratch identity must be
        // unique per concurrent drainer.
        loop {
            match scratch_ref.pop(me, w_count) {
                Some(c) => {
                    let c0 = Instant::now();
                    let ran = catch_unwind(AssertUnwindSafe(|| task(me, c as usize)));
                    scratch_ref.busy[me].fetch_add(c0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    scratch_ref.fires[me].fetch_add(1, Ordering::Relaxed);
                    if let Err(payload) = ran {
                        aborted.store(true, Ordering::SeqCst);
                        remaining.store(0, Ordering::SeqCst);
                        resume_unwind(payload);
                    }
                    for &s in &dag.succs[c as usize] {
                        // AcqRel: the final decrement synchronizes with
                        // every predecessor's, so the chunk that fires
                        // `s` (possibly on another worker, via the queue
                        // mutex) sees all predecessors' data writes.
                        if scratch_ref.deps[s as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                            scratch_ref.push(chunk_owner(s, w_count), s);
                        }
                    }
                    remaining.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    // `aborted` is checked separately: a completion
                    // racing the abort's `store(0)` can wrap `remaining`
                    // past zero.
                    if aborted.load(Ordering::SeqCst) || remaining.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    std::hint::spin_loop();
                    std::thread::yield_now();
                }
            }
        }
    });
    let total_ns = t0.elapsed().as_nanos() as u64;
    let load = |v: &[AtomicU64]| -> Vec<u64> {
        v[..w_count]
            .iter()
            .map(|x| x.load(Ordering::Relaxed))
            .collect()
    };
    ExecStats {
        level_ns: vec![total_ns],
        total_ns,
        idle_ns: load(&scratch.busy)
            .into_iter()
            .map(|b| total_ns.saturating_sub(b))
            .collect(),
        steals: load(&scratch.steals),
        fires: load(&scratch.fires),
        crit_path: dag.crit_path as usize,
        dataflow: true,
    }
}

/// [`run_schedule_pooled_ctx`]'s dataflow twin: drain `sched`'s chunks
/// in [`ChunkDag`] dependency order on the pool, with per-worker
/// contexts reused as there. Bitwise identical to the leveled walk
/// (and to sequential execution) for order-preserving lowerings at any
/// pool width.
pub fn run_schedule_dataflow(
    pool: &ThreadPool,
    bound: &[BoundLoop],
    sched: &Schedule,
    dag: &ChunkDag,
    ctxs: &mut Vec<SchedCtx>,
    scratch: &mut DataflowScratch,
) -> ExecStats {
    debug_assert_eq!(bound.len(), sched.n_loops);
    debug_assert_eq!(dag.n_chunks, sched.n_chunks());
    // Instance ids are unique per round, so slot access stays disjoint.
    let slab = CtxSlab::new(ctxs, pool.n_threads());
    run_dag(pool, dag, scratch, &|w, c| {
        let (li, ci) = dag.locs[c];
        // SAFETY: see `CtxSlab` — instance `w` owns slot `w`.
        let ctx = unsafe { &mut *slab.slot(w) };
        run_chunk(bound, &sched.levels[li as usize].chunks[ci as usize], ctx);
    })
}

/// Per-rank execution resources that do not depend on the layout: the
/// rank's **owned** worker pool (created lazily at the width the rank's
/// policy configures — ranks do not share process-global pools) and the
/// executors' reusable scratch. Every lowered schedule lives in the
/// [`crate::plan::PlanCache`], not here. State only — the configuration is [`crate::policy::ExecPolicy::threading`].
#[derive(Default)]
pub struct ThreadCtx {
    pool: Option<Arc<ThreadPool>>,
    /// Per-worker execution contexts, reused across every schedule run
    /// on this rank so owner-computes sinks stop allocating once warm.
    pub sched_ctxs: Vec<SchedCtx>,
    /// Reusable dataflow executor state (dependency counters, steal
    /// queues) — zero allocations once warmed to the largest shape.
    pub dataflow: DataflowScratch,
}

impl ThreadCtx {
    /// The rank's own pool at `width` threads: created on first use, and
    /// replaced when a caller asks for another width, so a pool carried
    /// into a differently configured run never runs at the old width.
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
            let sched =
                op2_core::colored_schedule(dom.maps(), &spec.sig(), 0, n, 8, &dom.set_sizes());
            let mut gbls: Vec<Vec<f64>> = Vec::new();
            let bound = BoundLoop::bind(&mut dom, &spec, &mut gbls);
            let pool = ThreadPool::new(n_threads);
            let stats =
                run_schedule_pooled_ctx(&pool, std::slice::from_ref(&bound), &sched, &mut Vec::new());
            assert_eq!(stats.level_ns.len(), sched.n_levels());
            assert!(!stats.dataflow);
            assert_eq!(stats.fires.iter().sum::<u64>() as usize, sched.n_chunks());
            assert_eq!(dom.dat(r).data, reference, "n_threads={n_threads}");
        }
    }

    /// Build a path-graph loop's colored schedule and its chunk DAG —
    /// consecutive blocks conflict, so the DAG has real edges at every
    /// block size.
    fn path_dag(n_nodes: usize, block: usize) -> (Schedule, op2_core::ChunkDag) {
        use op2_core::{AccessMode, Arg, Args, Domain, LoopSpec};
        fn noop(_: &Args<'_>) {}
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n_nodes);
        let edges = dom.decl_set("edges", n_nodes - 1);
        let vals: Vec<u32> = (0..n_nodes as u32 - 1).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let r = dom.decl_dat_zeros("res", nodes, 1);
        let spec = LoopSpec::new(
            "flux",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let set_sizes = dom.set_sizes();
        let sched =
            op2_core::colored_schedule(dom.maps(), &spec.sig(), 0, n_nodes - 1, block, &set_sizes);
        let acc = op2_core::chain_accesses(dom.maps(), &[spec.sig()]);
        let dag = op2_core::ChunkDag::build(&sched, &set_sizes, &acc);
        (sched, dag)
    }

    mod dataflow_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Steal-queue invariants: every chunk fires exactly once,
            /// and never before every predecessor completed (the
            /// dependency counter reached zero).
            #[test]
            fn dag_drain_fires_each_chunk_once_after_deps(
                n_nodes in 17usize..160,
                block in 1usize..24,
                workers in 1usize..5,
            ) {
                let (_sched, dag) = path_dag(n_nodes, block);
                let mut preds: Vec<Vec<u32>> = vec![Vec::new(); dag.n_chunks];
                for (p, ss) in dag.succs.iter().enumerate() {
                    for &s in ss {
                        preds[s as usize].push(p as u32);
                    }
                }
                let fired: Vec<AtomicUsize> =
                    (0..dag.n_chunks).map(|_| AtomicUsize::new(0)).collect();
                let done: Vec<AtomicBool> =
                    (0..dag.n_chunks).map(|_| AtomicBool::new(false)).collect();
                let pool = ThreadPool::new(workers);
                let mut scratch = DataflowScratch::default();
                let stats = run_dag(&pool, &dag, &mut scratch, &|_, c| {
                    for &p in &preds[c] {
                        assert!(
                            done[p as usize].load(Ordering::SeqCst),
                            "chunk {c} fired before predecessor {p}"
                        );
                    }
                    fired[c].fetch_add(1, Ordering::SeqCst);
                    done[c].store(true, Ordering::SeqCst);
                });
                prop_assert!(fired.iter().all(|f| f.load(Ordering::SeqCst) == 1));
                prop_assert_eq!(stats.fires.iter().sum::<u64>() as usize, dag.n_chunks);
                prop_assert!(stats.dataflow);
                prop_assert_eq!(stats.crit_path as u32, dag.crit_path);
                if workers == 1 {
                    prop_assert_eq!(stats.steals.iter().sum::<u64>(), 0);
                }
            }

            /// Without contention (one worker) there is nothing to
            /// steal: the drain follows the owner's LIFO stack exactly —
            /// roots in ascending order, each chunk's newly readied
            /// successors before any older root.
            #[test]
            fn single_worker_order_is_owner_lifo(
                n_nodes in 17usize..160,
                block in 1usize..24,
            ) {
                let (_sched, dag) = path_dag(n_nodes, block);
                // Reference: the executor's exact pop discipline, serial.
                let mut stack: Vec<u32> = dag.roots.iter().rev().copied().collect();
                let mut deps = dag.deps.clone();
                let mut expect = Vec::with_capacity(dag.n_chunks);
                while let Some(c) = stack.pop() {
                    expect.push(c as usize);
                    for &s in &dag.succs[c as usize] {
                        deps[s as usize] -= 1;
                        if deps[s as usize] == 0 {
                            stack.push(s);
                        }
                    }
                }
                let order = Mutex::new(Vec::with_capacity(dag.n_chunks));
                let pool = ThreadPool::new(1);
                let mut scratch = DataflowScratch::default();
                let stats = run_dag(&pool, &dag, &mut scratch, &|_, c| {
                    order.lock().unwrap().push(c);
                });
                prop_assert_eq!(stats.steals.iter().sum::<u64>(), 0);
                prop_assert_eq!(order.into_inner().unwrap(), expect);
            }
        }
    }

    /// Once warmed to a shape, repeat drains perform zero allocations in
    /// the dependency counters and steal queues.
    #[test]
    fn dataflow_scratch_steady_state_allocates_nothing() {
        let (_sched, dag) = path_dag(129, 8);
        let pool = ThreadPool::new(4);
        let mut scratch = DataflowScratch::default();
        run_dag(&pool, &dag, &mut scratch, &|_, _| {});
        let warm = scratch.allocs();
        assert!(warm > 0);
        for _ in 0..5 {
            run_dag(&pool, &dag, &mut scratch, &|_, _| {});
        }
        assert_eq!(scratch.allocs(), warm);
    }

    /// Warming on a small DAG and then draining a larger one sizes every
    /// queue for the larger one in a single growth: alternating the two
    /// allocates nothing after the first pair.
    #[test]
    fn dataflow_scratch_alternating_shapes_stay_flat() {
        let (_s, small) = path_dag(33, 8);
        let (_s, large) = path_dag(257, 4);
        assert!(small.n_chunks < large.n_chunks);
        let pool = ThreadPool::new(2);
        let mut scratch = DataflowScratch::default();
        run_dag(&pool, &small, &mut scratch, &|_, _| {});
        run_dag(&pool, &large, &mut scratch, &|_, _| {});
        let warm = scratch.allocs();
        for _ in 0..3 {
            run_dag(&pool, &small, &mut scratch, &|_, _| {});
            run_dag(&pool, &large, &mut scratch, &|_, _| {});
        }
        assert_eq!(scratch.allocs(), warm);
    }

    /// A panicking chunk aborts the drain without deadlocking the
    /// spinning workers, and the panic reaches the caller.
    #[test]
    fn dag_chunk_panic_propagates_without_deadlock() {
        let (_sched, dag) = path_dag(129, 8);
        let pool = ThreadPool::new(2);
        let mut scratch = DataflowScratch::default();
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_dag(&pool, &dag, &mut scratch, &|_, c| {
                if c == 3 {
                    panic!("chunk 3 exploded");
                }
            });
        }));
        assert!(res.is_err());
        // The pool and scratch survive for the next drain.
        let count = AtomicUsize::new(0);
        run_dag(&pool, &dag, &mut scratch, &|_, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), dag.n_chunks);
    }
}
