//! The program representation and its one interpreter.
//!
//! A [`Job`] is a data-described program over a mesh: setup steps, one
//! iteration's steps repeated `iters` times, and finish steps whose loop
//! results (a residual reduction, typically) are the program's output.
//! Jobs carry data, not closures, so both ways of running one — plain
//! and supervised — execute byte-for-byte the same instruction stream:
//! [`exec_job_program`] is the only function in the workspace that walks
//! a step list calling the executors.
//!
//! How a *strict* chain step is dispatched — the planned Alg 2 executor
//! or the measuring [`Tuner`] — is one field of the job
//! ([`ChainDispatch`]), read by the interpreter; relaxed
//! chains always run [`run_chain_relaxed`] (their pinned extents are an
//! accuracy contract, not a performance choice). Threading, drain
//! policy and fault plans stay where they were: in the caller's
//! [`RunOptions`].
//!
//! Two hosts run a job on a distributed world and fold the per-rank
//! verdicts into one `Result` — the first failed rank, in rank order, is
//! the error; no rank's failure is dropped:
//!
//! * [`run_job`] — plain ([`run_distributed_with`]);
//! * [`run_job_supervised`] — checkpointed attempts with coordinated
//!   rollback ([`run_supervised`]).
//!
//! A host runs the whole job on the layouts and the domain it is handed;
//! threading, faults and checkpoint cadence come from its options.

use crate::env::RankEnv;
use crate::error::{RankFailure, RuntimeError};
use crate::exec::{run_chain, run_chain_relaxed, run_loop};
use crate::harness::{run_distributed_with, DistOutcome, RunOptions};
use crate::supervise::{run_supervised, SuperviseOptions};
use crate::trace::RankTrace;
use crate::tuner::Tuner;
use op2_core::error::CoreError;
use op2_core::{ChainSpec, Domain, LoopSpec};
use op2_partition::RankLayout;

/// One instruction of a job's program.
#[derive(Debug, Clone)]
pub enum JobStep {
    /// A standard Alg 1 loop ([`run_loop`]).
    Loop(LoopSpec),
    /// A strict CA chain, dispatched per the job's [`ChainDispatch`].
    Chain(ChainSpec),
    /// A relaxed (paper-mode) CA chain ([`run_chain_relaxed`]).
    ChainRelaxed(ChainSpec),
}

/// How the interpreter executes a job's *strict* chain steps.
#[derive(Debug, Clone, Default)]
pub enum ChainDispatch {
    /// The planned Alg 2 executor ([`run_chain`]).
    #[default]
    Planned,
    /// The adaptive back-end: a per-rank [`Tuner`] times each chain's
    /// first calls on both backends (flattened Alg 1 and Alg 2, in turn)
    /// and dispatches the rest to the faster. Decisions are rank-agreed
    /// and recorded in the traces' `tuner` lists. The probes measure
    /// wall-clock, which a journaled replay cannot reproduce, so the
    /// supervised hosts reject tuned jobs.
    Tuned,
}

/// A program over a mesh.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Human-readable name (trace/reporting only).
    pub name: String,
    /// Run once before the iterations (initialization loops).
    pub setup: Vec<JobStep>,
    /// One iteration's steps, repeated `iters` times.
    pub steps: Vec<JobStep>,
    /// Run once after the iterations; these steps' loop results (e.g. a
    /// residual reduction) are the program's output.
    pub finish: Vec<JobStep>,
    /// Iteration count.
    pub iters: usize,
    /// How strict chain steps execute.
    pub dispatch: ChainDispatch,
}

impl Job {
    /// A job running `steps` for `iters` iterations.
    pub fn new(name: impl Into<String>, steps: Vec<JobStep>, iters: usize) -> Self {
        Job {
            name: name.into(),
            steps,
            iters,
            ..Job::default()
        }
    }

    /// Setup steps, run once before the iterations (builder style).
    pub fn setup(mut self, setup: Vec<JobStep>) -> Self {
        self.setup = setup;
        self
    }

    /// Finish steps, run once after the iterations (builder style).
    pub fn finish(mut self, finish: Vec<JobStep>) -> Self {
        self.finish = finish;
        self
    }

    /// Strict-chain dispatch (builder style).
    pub fn dispatch(mut self, dispatch: ChainDispatch) -> Self {
        self.dispatch = dispatch;
        self
    }
}

/// Execute one job's program on a rank env — **the** instruction
/// stream, used verbatim by every host, so the bitwise-identity
/// contracts between them are between executions of the same function.
/// Returns the finish steps' loop results (global-argument buffers;
/// empty for chain steps).
pub fn exec_job_program(
    env: &mut RankEnv<'_>,
    job: &Job,
) -> Result<Vec<Vec<Vec<f64>>>, RuntimeError> {
    let mut tuner = match job.dispatch {
        ChainDispatch::Tuned => Some(Tuner::default()),
        ChainDispatch::Planned => None,
    };
    let mut exec_step = |env: &mut RankEnv<'_>, step: &JobStep| {
        Ok::<_, RuntimeError>(match step {
            JobStep::Loop(l) => run_loop(env, l)?.gbls,
            JobStep::ChainRelaxed(c) => {
                run_chain_relaxed(env, c)?;
                Vec::new()
            }
            JobStep::Chain(c) => {
                match tuner.as_mut() {
                    Some(t) => t.run_chain(env, c)?,
                    None => run_chain(env, c)?,
                }
                Vec::new()
            }
        })
    };
    for s in &job.setup {
        exec_step(env, s)?;
    }
    for _ in 0..job.iters {
        for s in &job.steps {
            exec_step(env, s)?;
        }
    }
    job.finish.iter().map(|s| exec_step(env, s)).collect()
}

/// What a hosted job run returns.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Per finish-step loop results from rank 0 — reductions are
    /// identical on every rank by construction.
    pub gbls: Vec<Vec<Vec<f64>>>,
    /// Per-rank traces, indexed by rank.
    pub traces: Vec<RankTrace>,
}

impl JobRun {
    /// Fold a distributed outcome into one verdict: the first failed
    /// rank (in rank order) is the error, whichever rank it is.
    pub fn collect(out: DistOutcome<Vec<Vec<Vec<f64>>>>) -> Result<JobRun, RuntimeError> {
        let DistOutcome { traces, results } = out;
        let mut per_rank = results
            .into_iter()
            .collect::<Result<Vec<_>, RankFailure>>()?;
        Ok(JobRun {
            gbls: per_rank.swap_remove(0),
            traces,
        })
    }
}

/// Run `job` on `layouts`; on success `dom` holds every owner's final
/// values. Threading and faults come from `opts`.
pub fn run_job(
    dom: &mut Domain,
    layouts: &[RankLayout],
    job: &Job,
    opts: &RunOptions,
) -> Result<JobRun, RuntimeError> {
    JobRun::collect(run_distributed_with(dom, layouts, opts, |env| {
        exec_job_program(env, job)
    }))
}

/// [`run_job`] under the self-healing supervisor: chain-boundary
/// checkpointing, coordinated rollback on rank death or straggler
/// timeout, and bitwise-deterministic replay, bounded by the recovery
/// budget in `opts` ([`RuntimeError::RecoveryExhausted`] beyond it).
pub fn run_job_supervised(
    dom: &mut Domain,
    layouts: &[RankLayout],
    job: &Job,
    opts: &SuperviseOptions,
) -> Result<JobRun, RuntimeError> {
    if matches!(job.dispatch, ChainDispatch::Tuned) {
        return Err(CoreError::InvalidChain(format!(
            "job `{}`: tuned chain dispatch decides on wall-clock and cannot be replayed \
             under supervision",
            job.name
        ))
        .into());
    }
    run_supervised(dom, layouts, opts, |env| exec_job_program(env, job)).and_then(JobRun::collect)
}
