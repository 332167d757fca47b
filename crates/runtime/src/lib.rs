//! # op2-runtime
//!
//! The distributed-memory back-ends of the reproduction:
//!
//! * [`comm`] — an in-process message-passing substrate standing in for
//!   MPI (per DESIGN.md: each rank is an OS thread; `isend` is
//!   non-blocking over an unbounded channel; receives match FIFO order
//!   per peer, which suffices because all ranks execute the same loop
//!   program). Every message is counted and sized — the quantities the
//!   paper's model and tables are built from.
//! * [`mod@env`] — per-rank state: local dat buffers in layout order, halo
//!   *validity depths* (the multi-level generalisation of OP2's dirty
//!   bit), the transport endpoint and the rank's executors' state.
//! * [`halo`] — the one halo-exchange engine: an [`ExchangePlan`] (import
//!   list, per-neighbour pack lists and copy ranges, split per dat for
//!   Alg 1 or grouped for Alg 2), one post, one arrival-order completion.
//! * [`exec`] — the two execution algorithms: [`exec::run_loop`] is
//!   Alg 1 (per-loop halo exchange with latency hiding) and
//!   [`exec::run_chain`] is Alg 2 (one grouped, multi-level exchange per
//!   chain, cores of all loops overlapped with it, halo layers executed
//!   after).
//! * [`trace`] — instrumentation records: message counts, bytes, core
//!   and halo iteration counts per loop and per chain.
//! * [`harness`] — `run_distributed`: spawns one thread per rank,
//!   gathers dats in, scatters owned data back out, and returns the
//!   traces.
//! * [`plan`] — the inspector–executor plan subsystem: cached
//!   [`plan::ChainPlan`]s (import depths, core/execute ranges, pack
//!   index lists, and every lowered loop range under one
//!   [`plan::LoweringKey`]) keyed by chain signature and dirty-state
//!   class.
//! * [`threads`] — intra-rank threading: each rank owns a persistent
//!   worker pool that executes any lowered [`op2_core::Schedule`]
//!   (owner-computes windows and direct blocks alike) in one round,
//!   bitwise identical to sequential execution at every
//!   [`RunOptions::threading`] width.
//! * [`checkpoint`] — chain-boundary checkpointing: epoch-tagged,
//!   incremental (dirty-tracked) in-memory snapshots of each rank's dat
//!   state, plus the unit journal that makes replay bit-exact.
//! * [`supervise`] — the self-healing driver: failure classification
//!   (dead rank vs straggler), coordinated rollback to the last globally
//!   consistent epoch, world restart with carried plan caches and buffer
//!   pools, and a bounded recovery budget degrading into
//!   [`RuntimeError::RecoveryExhausted`].
//! * [`job`] — the program representation ([`Job`]: setup / repeated
//!   steps / finish, as data) and its one interpreter
//!   ([`exec_job_program`]), plus the plain and supervised hosts that
//!   fold per-rank verdicts into one `Result`.
//!
//! One run is one simulation, as in the paper's one `mpirun`: its plans
//! are built by its first iterations and paid back by the rest. Layouts
//! are built once, before the run, and never change, so what a
//! supervised run carries from one attempt to the next is never
//! invalidated.
//!
//! A run is configured by its typed options alone ([`RunOptions`],
//! [`SuperviseOptions`]): the runtime reads nothing from the process
//! environment.

// Index-based loops over parallel arrays are the dominant idiom in this
// crate's mesh/partition kernels; iterator-zip rewrites obscure which
// array drives the bound without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod checkpoint;
pub mod comm;
pub mod env;
pub mod error;
pub mod exec;
pub mod fault;
pub mod halo;
pub mod harness;
pub mod job;
pub mod plan;
pub mod supervise;
pub mod threads;
pub mod trace;

pub use checkpoint::{CheckpointConfig, CheckpointCtx, RankState};
pub use comm::{CommConfig, CommCounters, CommError, CommWorld, RankComm};
pub use env::RankEnv;
pub use error::{RankFailure, RuntimeError};
pub use exec::{run_chain, run_chain_relaxed, run_chain_unplanned, run_loop};
pub use fault::{Boundary, BoundaryAction, BoundaryKind, CrashSite, FaultPlan, FaultSpec};
pub use halo::{ExchangePlan, Split};
pub use harness::{run_distributed, run_distributed_with, DistOutcome, ExecMode, RunOptions};
pub use job::{exec_job_program, run_job, run_job_supervised, Job, JobRun, JobStep};
pub use plan::{
    chain_signature, dirty_class, loop_signature, plan_for, ChainPlan, LoweringKey, PlanCache,
    PlanStats,
};
pub use supervise::{run_supervised, SuperviseOptions};
pub use threads::{run_schedule_pooled_ctx, ExecStats, ThreadCtx, ThreadPool, Threading};
pub use trace::{
    ChainRec, ExchangeRec, LoopRec, RankTrace, RecoveryRec, SchedKind,
    ThreadRec,
};
