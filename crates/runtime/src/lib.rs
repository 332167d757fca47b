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
//!   index lists, and every lowered schedule under one
//!   [`plan::LoweringKey`]) keyed by chain signature and dirty-state
//!   class, with layout-epoch invalidation.
//! * [`policy`] — the `OP2_*` knob table ([`policy::KNOBS`]) behind
//!   every typed [`ConfigError`], and the per-rank [`ExecPolicy`]
//!   (threading, fusion, drain) resolved once per run.
//! * [`threads`] — intra-rank threading: each rank owns a persistent
//!   worker pool that executes any lowered [`op2_core::Schedule`]
//!   (owner-computes windows, colored loop ranges and leveled tile plans
//!   alike) level by level, or in chunk-dependency order under
//!   `OP2_EXEC=dataflow`, bitwise identical to sequential execution
//!   (`OP2_THREADS`).
//! * [`tuner`] — model-driven adaptive dispatch: feeds measured loop
//!   weights and layout-derived halo components into `op2-model`'s §3.2
//!   equations and picks standard (Alg 1) or CA (Alg 2) execution per
//!   chain online, recording each decision in the trace.
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
//! * [`service`] — the resident mesh-compute server: boot a world once
//!   (ranks, thread pools, warmed transports), register meshes, and
//!   multiplex many supervised jobs over them, carrying each rank's
//!   plans and pools from job to job as a restart does, with bounded
//!   admission, same-shape batching, and per-job trace/crash isolation.
//! * [`mod@rebalance`] — online rebalancing: a windowed imbalance detector
//!   over the measured per-unit wall times, cost-weighted re-sharding
//!   through `op2-partition`'s migration planner, a migration executor
//!   shipping dat slices and renumbering tables over the fault-tolerant
//!   transport, and the layout-epoch fence that keeps plan caches and
//!   checkpoints coherent across the switch.

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
pub mod policy;
pub mod rebalance;
pub mod service;
pub mod supervise;
pub mod threads;
pub mod trace;
pub mod tuner;

pub use checkpoint::{CheckpointConfig, CheckpointCtx, RankState};
pub use comm::{CommConfig, CommCounters, CommError, CommWorld, RankComm};
pub use env::RankEnv;
pub use error::{ConfigError, RankFailure, RuntimeError};
pub use exec::{
    run_chain, run_chain_relaxed, run_chain_tiled, run_chain_unplanned, run_loop, ExecHooks,
    NoHooks,
};
pub use fault::{Boundary, BoundaryAction, BoundaryKind, CrashSite, FaultPlan, FaultSpec};
pub use halo::{ExchangePlan, Split};
pub use harness::{run_distributed, run_distributed_with, DistOutcome, RunOptions};
pub use plan::{
    chain_signature, dirty_class, loop_signature, mesh_signature, plan_for, ChainPlan, FusedChain,
    LoweringKey, PlanCache, PlanStats,
};
pub use policy::{env_knob, parse_knob, ExecMode, ExecPolicy, FuseMode, KNOBS};
pub use job::{
    exec_job_program, run_job, run_job_supervised, run_job_with_state, ChainDispatch, Job, JobRun,
    JobStep,
};
pub use rebalance::{
    detect, element_costs, fence_slots, rebalance, run_job_rebalanced, ship_migration,
    LoadEstimate, RebalanceConfig, RebalanceOutcome, RebalancePolicy, ShardBasis,
};
pub use service::{
    JobOutcome, JobTrace, Service, ServiceConfig, ServiceError, ServiceMetrics,
};
pub use supervise::{run_supervised, run_supervised_with_state, SuperviseOptions};
pub use threads::{
    measure_sync_s, run_dag, run_schedule_dataflow, run_schedule_pooled_ctx,
    DataflowScratch, ExecStats, ThreadCtx, ThreadPool, Threading,
};
pub use trace::{
    ChainRec, ClassRec, ExchangeRec, LoopRec, RankTrace, RebalanceRec, RecoveryRec, SchedKind,
    ThreadRec, TunerRec,
};
pub use tuner::{Backend, Tuner};
