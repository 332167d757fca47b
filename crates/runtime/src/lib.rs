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
//!   after; strict or relaxed as the [`op2_core::ChainSpec`] says).
//! * [`trace`] — instrumentation records: message counts, bytes, core
//!   and halo iteration counts per loop and per chain, as exact per-name
//!   totals plus a bounded window of the newest records.
//! * [`harness`] — `run_distributed`: spawns one thread per rank,
//!   moves every dat's payload out of the domain for the ranks to gather
//!   (one copy of each dat while the world runs), scatters owned data
//!   back out, and returns the traces.
//! * [`plan`] — the inspector–executor plan subsystem: cached
//!   [`plan::ChainPlan`]s (import depths and stale reads from one walk,
//!   core/execute ranges, pack index lists) keyed by chain signature and
//!   dirty-state class, and one per-rank map of lowered loop ranges keyed
//!   by loop signature and range.
//! * [`threads`] — intra-rank threading: each rank owns a persistent
//!   worker pool that executes any lowered [`op2_core::Schedule`]
//!   (owner-computes windows and direct blocks alike) in one round,
//!   bitwise identical to sequential execution at every
//!   [`RunOptions::threading`] width.
//! * [`fault`] — deterministic fault injection: seeded wire delays, and
//!   crash and stall actions at loop/chain boundaries, which the harness
//!   contains as typed per-rank failures.
//! * [`job`] — the program ([`Job`]: setup / repeated steps / finish,
//!   each a list of [`op2_core::Step`]s), its one interpreter
//!   ([`exec_job_program`]) and the host that folds per-rank verdicts
//!   into one `Result` ([`run_job`]).
//!
//! One run is one simulation, as in the paper's one `mpirun`: its plans
//! are built by its first iterations and paid back by the rest. Layouts
//! are built once, before the run, and never change. As under flat MPI,
//! a failed rank is reported, not recovered.
//!
//! A run is configured by its typed options alone ([`RunOptions`]): the
//! runtime reads nothing from the process environment.

// Index-based loops over parallel arrays are the dominant idiom in this
// crate's mesh/partition kernels; iterator-zip rewrites obscure which
// array drives the bound without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod comm;
pub mod env;
pub mod error;
pub mod exec;
pub mod fault;
pub mod halo;
pub mod harness;
pub mod job;
pub mod plan;
pub mod threads;
pub mod trace;

pub use comm::{CommConfig, CommCounters, CommError, CommWorld, RankComm};
pub use env::RankEnv;
pub use error::{RankFailure, RuntimeError};
pub use exec::{run_chain, run_chain_unplanned, run_loop};
pub use fault::{Boundary, BoundaryAction, BoundaryKind, FaultPlan, FaultSpec};
pub use halo::{ExchangePlan, Split};
pub use harness::{run_distributed, run_distributed_with, DistOutcome, ExecMode, RunOptions};
pub use job::{exec_job_program, run_job, Job, JobRun};
pub use plan::{
    chain_signature, dirty_class, loop_signature, plan_for, ChainPlan, PlanCache, PlanStats,
};
pub use threads::{run_schedule_pooled_ctx, ExecStats, ThreadCtx, ThreadPool, Threading};
pub use trace::{
    CallKind, CallTotals, ChainRec, ExchangeRec, LoopRec, RankTrace, SchedKind, ThreadRec,
};
