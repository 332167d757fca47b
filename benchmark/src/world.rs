//! One world: the rank program the benchmark owns, and what it brings
//! back from `run_distributed_with`.
//!
//! Untraced, a rank takes two `Instant::now()` per time-march iteration
//! into memory reserved before the time-march and leaves `env.trace`
//! alone. Traced, it additionally wraps every call in a span and copies
//! the counters of the runtime's newest trace record into it.

use crate::host;
use crate::layers::computed_bytes_per_elem;
use crate::probe::RankProbes;
use crate::spans::{CallDetail, SpanLog, NO_ITER, NO_PARENT};
use crate::tasks::MIN_ITERS;
use crate::workloads::{Call, PolicyRun, Program};
use op2_core::seq::LoopResult;
use op2_core::{Domain, LoopSpec};
use op2_partition::RankLayout;
use op2_runtime::exec::{run_chain, run_loop};
use op2_runtime::{run_distributed_with, ExchangeRec, RankEnv, RankTrace, RuntimeError};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

pub struct RankOut {
    /// When the rank entered / left the program closure, ns since epoch.
    pub enter_ns: u64,
    pub exit_ns: u64,
    /// Start and end of each time-march iteration, ns since epoch.
    pub iter_ns: Vec<(u64, u64)>,
    /// Host probe times over nominal, the slowest of the rank's cores:
    /// probe `k` ran right before iteration `k * every`, the last one
    /// after the last iteration.
    pub probe_ratio: Vec<f64>,
    /// Seconds spent building the host probe and running it for the
    /// first time, all before iteration 0 started.
    pub probe_setup_s: f64,
    /// Residual norm after the last iteration.
    pub residual: f64,
    /// The rank thread and all its pool workers were pinned to cores.
    pub pinned: bool,
    /// Traced worlds only.
    pub log: Option<SpanLog>,
    /// Traced worlds only: `env.trace.threads.len()` at the start of
    /// every iteration and after the last.
    pub thread_marks: Vec<usize>,
}

pub struct WorldOut {
    /// Around the `run_distributed_with` call, ns since epoch.
    pub call_ns: u64,
    pub return_ns: u64,
    pub ranks: Vec<Result<RankOut, String>>,
    pub traces: Vec<RankTrace>,
    pub spans: SpanTable,
}

impl WorldOut {
    pub fn failures(&self) -> Vec<&String> {
        self.ranks.iter().filter_map(|r| r.as_ref().err()).collect()
    }

    pub fn ok_ranks(&self) -> impl Iterator<Item = &RankOut> {
        self.ranks.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Per-iteration wall in ms, rank-max, iteration 0 (cold) first.
    pub fn iter_ms(&self) -> Vec<f64> {
        let per_rank: Vec<Vec<f64>> = self
            .ok_ranks()
            .map(|r| {
                r.iter_ns
                    .iter()
                    .map(|&(s, e)| (e - s) as f64 / 1e6)
                    .collect()
            })
            .collect();
        crate::stats::rank_max(&per_rank)
    }
}

/// What a span name stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A call of the init phase.
    InitCall,
    /// A `run_loop` call of the time-march iteration.
    Loop,
    /// A `run_chain` call of the time-march iteration.
    Chain,
    /// The closing reduction loop.
    Reduce,
    /// One whole time-march iteration (parent of its calls).
    Iteration,
    /// The whole init phase (parent of its calls).
    Init,
}

/// The span names of a world, indexed by `Span::name`: the init calls,
/// the iteration's calls, the reduction, then the two grouping spans.
pub struct SpanTable {
    pub names: Vec<String>,
    pub kinds: Vec<SpanKind>,
    /// Computed bytes per iteration of every loop of each call.
    bytes_per_elem: Vec<Vec<u64>>,
    n_init: u32,
    reduce: u32,
    iteration: u32,
    init: u32,
}

impl SpanTable {
    fn new(program: &Program, dom: &Domain) -> Self {
        let calls = program.init.iter().chain(&program.iteration);
        let bytes = |loops: &[LoopSpec]| {
            loops
                .iter()
                .map(|l| computed_bytes_per_elem(dom, l))
                .collect()
        };
        let n_init = program.init.len() as u32;
        let reduce = n_init + program.iteration.len() as u32;
        SpanTable {
            names: calls
                .clone()
                .map(|c| c.name().to_string())
                .chain([
                    program.reduce.name.clone(),
                    "iteration".into(),
                    "init".into(),
                ])
                .collect(),
            kinds: (program.init.iter().map(|_| SpanKind::InitCall))
                .chain(program.iteration.iter().map(|c| match c {
                    Call::Loop(_) => SpanKind::Loop,
                    Call::Chain(_) => SpanKind::Chain,
                }))
                .chain([SpanKind::Reduce, SpanKind::Iteration, SpanKind::Init])
                .collect(),
            bytes_per_elem: calls
                .map(|c| bytes(c.loops()))
                .chain([bytes(std::slice::from_ref(&program.reduce))])
                .collect(),
            n_init,
            reduce,
            iteration: reduce + 1,
            init: reduce + 2,
        }
    }
}

/// A rank's span log, or nothing when the world is untraced: every
/// method is then a branch and no more.
struct Tracer<'t> {
    log: Option<SpanLog>,
    table: &'t SpanTable,
}

impl Tracer<'_> {
    fn open(&mut self, name: u32, iter: u32, parent: u32) -> u32 {
        self.log
            .as_mut()
            .map_or(NO_PARENT, |l| l.open(name, iter, parent))
    }

    fn close(&mut self, span: u32) {
        if let Some(l) = self.log.as_mut() {
            l.close(span);
        }
    }

    /// Close a call's span and attach the counters of the runtime's own
    /// record of it: `per_loop` is `(core, halo)` iterations of each loop
    /// the call ran.
    fn close_call(&mut self, span: u32, per_loop: &[(usize, usize)], exch: &ExchangeRec) {
        let Some(l) = self.log.as_mut() else { return };
        l.close(span);
        let s = &mut l.spans[span as usize];
        let bpe = &self.table.bytes_per_elem[s.name as usize];
        s.detail = Some(CallDetail {
            core_iters: per_loop.iter().map(|p| p.0 as u64).sum(),
            halo_iters: per_loop.iter().map(|p| p.1 as u64).sum(),
            computed_bytes: per_loop
                .iter()
                .zip(bpe)
                .map(|(p, b)| (p.0 + p.1) as u64 * b)
                .sum(),
            msgs: exch.n_msgs as u64,
            bytes: exch.bytes as u64,
            max_msg_bytes: exch.max_msg_bytes as u64,
            neighbors: exch.n_neighbors as u64,
            pack_ns: exch.pack_ns,
            unpack_ns: exch.unpack_ns,
            wait_ns: exch.wait_ns,
        });
    }

    fn run_loop(
        &mut self,
        env: &mut RankEnv<'_>,
        spec: &LoopSpec,
        (name, iter, parent): (u32, u32, u32),
    ) -> Result<LoopResult, RuntimeError> {
        let span = self.open(name, iter, parent);
        let result = run_loop(env, spec)?;
        if self.log.is_some() {
            let r = env.trace.loops.last().expect("run_loop records itself");
            self.close_call(span, &[(r.core_iters, r.halo_iters)], &r.exch);
        }
        Ok(result)
    }

    fn run_call(
        &mut self,
        env: &mut RankEnv<'_>,
        call: &Call,
        at: (u32, u32, u32),
    ) -> Result<(), RuntimeError> {
        match call {
            Call::Loop(l) => self.run_loop(env, l, at).map(drop),
            Call::Chain(c) => {
                let span = self.open(at.0, at.1, at.2);
                run_chain(env, c)?;
                if self.log.is_some() {
                    let r = env.trace.chains.last().expect("run_chain records itself");
                    self.close_call(span, &r.per_loop, &r.exch);
                }
                Ok(())
            }
        }
    }
}

/// Run `run.program` on every rank for `iters` time-march iterations,
/// or fewer when the time-march has taken `budget_s` seconds: a host
/// that is several times slower than usual must not make the run several
/// times longer.
pub fn run_world(
    dom: &mut Domain,
    layouts: &[RankLayout],
    run: &PolicyRun<'_>,
    iters: usize,
    budget_s: f64,
    traced: bool,
    epoch: Instant,
) -> WorldOut {
    let PolicyRun {
        program,
        opts,
        threads,
        norm_n,
        probe,
    } = run;
    let table = SpanTable::new(program, dom);
    let spans_needed = 1 + program.init.len() + iters * (program.iteration.len() + 2);
    let now_ns = move || epoch.elapsed().as_nanos() as u64;
    // Rank 0 watches the clock and names the last iteration. The closing
    // reduction keeps the ranks within one iteration of each other, so
    // naming the one after the current one reaches every rank in time.
    let last_iter = AtomicU32::new(u32::MAX);

    let call_ns = now_ns();
    let out = run_distributed_with(dom, layouts, opts, |env| {
        let enter_ns = now_ns();
        let mut tracer = Tracer {
            log: traced.then(|| SpanLog::with_capacity(epoch, env.rank, spans_needed)),
            table: &table,
        };
        let mut iter_ns = Vec::with_capacity(iters);
        let mut probe_ratio = Vec::with_capacity(iters / probe.every + 2);
        let mut thread_marks = Vec::with_capacity(if traced { iters + 1 } else { 0 });

        let init_span = tracer.open(table.init, NO_ITER, NO_PARENT);
        for (k, call) in program.init.iter().enumerate() {
            tracer.run_call(env, call, (k as u32, NO_ITER, init_span))?;
        }
        tracer.close(init_span);
        // One software thread per core, fixed for the whole time-march
        // (see `host::pin_current_thread`). After `init`, so that the
        // rank's pool workers exist.
        let first_core = env.rank as usize * threads;
        let mut pinned =
            host::pin_current_thread(first_core) && host::pin_pool_workers() == threads - 1;
        // The host probe runs on every core the rank computes on.
        let probe_setup_start = Instant::now();
        let mut host_probe = RankProbes::new(
            probe,
            layouts.len() * threads,
            first_core + 1..first_core + threads,
        );
        probe_ratio.push(host_probe.run());
        let probe_setup_s = probe_setup_start.elapsed().as_secs_f64();

        let mut residual = f64::NAN;
        let march_start_ns = now_ns();
        for it in 0..iters as u32 {
            if it > last_iter.load(Ordering::Acquire) {
                break;
            }
            if env.rank == 0
                && (now_ns() - march_start_ns) as f64 > budget_s * 1e9
                && it as usize + 1 >= MIN_ITERS
            {
                let _ = last_iter.compare_exchange(
                    u32::MAX,
                    it + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
            if it > 0 && (it as usize).is_multiple_of(probe.every) {
                probe_ratio.push(host_probe.run());
            }
            if traced {
                thread_marks.push(env.trace.threads.len());
            }
            let t0 = now_ns();
            let iter_span = tracer.open(table.iteration, it, NO_PARENT);
            for (k, call) in program.iteration.iter().enumerate() {
                tracer.run_call(env, call, (table.n_init + k as u32, it, iter_span))?;
            }
            let r = tracer.run_loop(env, &program.reduce, (table.reduce, it, iter_span))?;
            tracer.close(iter_span);
            residual = (r.gbls[0][0] / norm_n).sqrt();
            iter_ns.push((t0, now_ns()));
        }
        probe_ratio.push(host_probe.run());
        pinned &= host_probe.finish();
        if traced {
            thread_marks.push(env.trace.threads.len());
        }
        Ok(RankOut {
            enter_ns,
            exit_ns: now_ns(),
            iter_ns,
            probe_ratio,
            probe_setup_s,
            residual,
            pinned,
            log: tracer.log,
            thread_marks,
        })
    });
    let return_ns = now_ns();
    WorldOut {
        call_ns,
        return_ns,
        ranks: out
            .results
            .into_iter()
            .map(|r| r.map_err(|f| f.to_string()))
            .collect(),
        traces: out.traces,
        spans: table,
    }
}
