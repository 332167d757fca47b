//! The program representation and its one interpreter.
//!
//! A [`Job`] is a data-described program over a mesh: setup steps, one
//! iteration's steps repeated `iters` times, and finish steps whose loop
//! results (a residual reduction, typically) are the program's output.
//! Every step is an [`op2_core::Step`], the one program type the apps
//! build. [`exec_job_program`] is the only function in the workspace
//! that walks a step list calling the executors.
//!
//! A loop step runs Alg 1 ([`run_loop`]); a chain step runs Alg 2
//! ([`run_chain`]), strict or relaxed as the chain itself says (a
//! relaxed chain's pinned extents are an accuracy contract, not a
//! performance choice). Threading, drain policy and fault plans stay in
//! the caller's [`RunOptions`].
//!
//! [`run_job`] runs a job on a distributed world
//! ([`run_distributed_with`]) and folds the per-rank verdicts into one
//! `Result`: the first failed rank, in rank order, is the error; no
//! rank's failure is dropped. It runs the whole job on the layouts and
//! the domain it is handed.

use crate::env::RankEnv;
use crate::error::{RankFailure, RuntimeError};
use crate::exec::{run_chain, run_loop};
use crate::harness::{run_distributed_with, DistOutcome, RunOptions};
use crate::trace::RankTrace;
use op2_core::{Domain, Step};
use op2_partition::RankLayout;

/// A program over a mesh.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Human-readable name (trace/reporting only).
    pub name: String,
    /// Run once before the iterations (initialization loops).
    pub setup: Vec<Step>,
    /// One iteration's steps, repeated `iters` times.
    pub steps: Vec<Step>,
    /// Run once after the iterations; these steps' loop results (e.g. a
    /// residual reduction) are the program's output.
    pub finish: Vec<Step>,
    /// Iteration count.
    pub iters: usize,
}

impl Job {
    /// A job running `steps` for `iters` iterations.
    pub fn new(name: impl Into<String>, steps: Vec<Step>, iters: usize) -> Self {
        Job {
            name: name.into(),
            steps,
            iters,
            ..Job::default()
        }
    }

    /// Setup steps, run once before the iterations (builder style).
    pub fn setup(mut self, setup: Vec<Step>) -> Self {
        self.setup = setup;
        self
    }

    /// Finish steps, run once after the iterations (builder style).
    pub fn finish(mut self, finish: Vec<Step>) -> Self {
        self.finish = finish;
        self
    }
}

/// Execute one job's program on a rank env — **the** instruction
/// stream.
/// Returns the finish steps' loop results (global-argument buffers;
/// empty for chain steps).
pub fn exec_job_program(
    env: &mut RankEnv<'_>,
    job: &Job,
) -> Result<Vec<Vec<Vec<f64>>>, RuntimeError> {
    let exec_step = |env: &mut RankEnv<'_>, step: &Step| {
        Ok::<_, RuntimeError>(match step {
            Step::Loop(l) => run_loop(env, l)?.gbls,
            Step::Chain(c) => {
                run_chain(env, c)?;
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
