//! The program representation and its one interpreter.
//!
//! A [`Job`] is a data-described program over a mesh: setup steps, one
//! iteration's steps repeated `iters` times, and finish steps whose loop
//! results (a residual reduction, typically) are the program's output.
//! Jobs carry data, not closures, so every way of running one — plain,
//! supervised, through the resident [`crate::service`] —
//! executes byte-for-byte the same instruction stream:
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
//! * [`run_job_supervised`] / [`run_job_with_state`] — checkpointed
//!   attempts with coordinated rollback ([`run_supervised_with_state`]).
//!
//! A host runs the whole job on the layouts it is handed.

use crate::checkpoint::RankState;
use crate::env::RankEnv;
use crate::error::{RankFailure, RuntimeError};
use crate::exec::{run_chain, run_chain_relaxed, run_loop};
use crate::fault::FaultPlan;
use crate::harness::{run_distributed_with, DistOutcome, RunOptions};
use crate::plan::{self, chain_signature, loop_signature};
use crate::supervise::{run_supervised_with_state, SuperviseOptions};
use crate::trace::RankTrace;
use crate::tuner::Tuner;
use op2_core::error::CoreError;
use op2_core::{ChainSpec, DatId, Domain, LoopSpec};
use op2_partition::RankLayout;
use std::sync::{Arc, Mutex};

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

impl JobStep {
    /// Structural signature of this step (loop/chain signature plus the
    /// execution mode) — the ingredient of [`Job::shape`].
    fn sig(&self) -> u64 {
        match self {
            JobStep::Loop(l) => loop_signature(l),
            JobStep::Chain(c) => chain_signature(c, false),
            JobStep::ChainRelaxed(c) => chain_signature(c, true),
        }
    }
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

impl ChainDispatch {
    fn hash_into(&self, h: &mut u64) {
        match self {
            ChainDispatch::Planned => plan::fnv_usize(h, 0),
            ChainDispatch::Tuned => plan::fnv_usize(h, 1),
        }
    }
}

/// A program over a mesh, plus — for the resident service — the
/// per-tenant inputs it runs on.
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
    /// Initial dat payloads overriding the registered domain's (global
    /// numbering; unlisted dats keep the registered values). Applied by
    /// [`crate::service::Service::submit`]; the standalone hosts run on
    /// the domain they are handed.
    pub init: Vec<(DatId, Vec<f64>)>,
    /// Fault plan for this job only (chaos testing a single service
    /// tenant); the standalone hosts take theirs from [`RunOptions`].
    pub faults: Option<Arc<FaultPlan>>,
    /// Checkpoint cadence override for this job (service tenants; the
    /// standalone hosts take theirs from [`RunOptions`]).
    pub checkpoint_every: Option<u64>,
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

    /// Initial dat payload override (builder style).
    pub fn with_init(mut self, dat: DatId, data: Vec<f64>) -> Self {
        self.init.push((dat, data));
        self
    }

    /// Fault plan for this job (builder style).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(Arc::new(plan));
        self
    }

    /// Checkpoint cadence for this job (builder style).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = Some(every);
        self
    }

    /// Structural shape of this job: setup/steps/finish signatures, the
    /// chain dispatch and the iteration count (initial data excluded —
    /// same-shaped jobs differ exactly by their inputs). Jobs with equal
    /// shapes on one mesh batch together: identical plans, schedules and
    /// buffer demands, so back-to-back execution re-warms nothing.
    pub fn shape(&self) -> u64 {
        let mut h = plan::FNV_OFFSET;
        for part in [&self.setup, &self.steps, &self.finish] {
            plan::fnv_usize(&mut h, part.len());
            for s in part {
                plan::fnv_bytes(&mut h, &s.sig().to_le_bytes());
            }
        }
        self.dispatch.hash_into(&mut h);
        plan::fnv_usize(&mut h, self.iters);
        h
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
    let slots = RankState::fresh_slots(layouts.len());
    run_job_with_state(dom, layouts, job, opts, &slots, 0)
}

/// [`run_job_supervised`] over caller-provided per-rank state slots
/// (see [`run_supervised_with_state`]) — what the resident service runs
/// each tenant through.
/// `job_id` is stamped into the env (and from there into the recovery
/// and tuner records); standalone callers pass 0.
pub fn run_job_with_state(
    dom: &mut Domain,
    layouts: &[RankLayout],
    job: &Job,
    opts: &SuperviseOptions,
    slots: &[Arc<Mutex<RankState>>],
    job_id: u64,
) -> Result<JobRun, RuntimeError> {
    if matches!(job.dispatch, ChainDispatch::Tuned) {
        return Err(CoreError::InvalidChain(format!(
            "job `{}`: tuned chain dispatch decides on wall-clock and cannot be replayed \
             under supervision",
            job.name
        ))
        .into());
    }
    run_supervised_with_state(dom, layouts, opts, slots, |env| {
        env.job = job_id;
        exec_job_program(env, job)
    })
    .and_then(JobRun::collect)
}
