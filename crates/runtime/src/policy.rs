//! The per-rank execution policy: the two settings an executor consults
//! (threading, drain), copied from [`crate::harness::RunOptions`] once
//! per run and installed as [`crate::env::RankEnv::policy`].

use crate::threads::Threading;

/// Schedule drain policy: how pooled executors drain a lowered
/// [`op2_core::Schedule`] — one barriered pool round per level, or the
/// dataflow executor ([`crate::threads::run_dag`]) where each chunk
/// fires the moment its dependency counter reaches zero. Results are
/// bitwise identical either way (the chunk DAG orders every conflicting
/// pair in sequential order), only the synchronisation shape differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Level-synchronous draining — one pool barrier per level (the
    /// default: matches the paper's executor, and wide shallow
    /// schedules lose nothing to barriers).
    #[default]
    Levels,
    /// Drain multi-level schedules through the dataflow executor:
    /// per-chunk dependency counters, owner-first deques, LIFO
    /// steal-from-richest stealing.
    Dataflow,
}

/// The per-rank execution policy every executor consults: how wide the
/// rank's pool is and how schedules drain. The default is sequential,
/// level-synchronous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Intra-rank threading (the only home of the configuration; the
    /// rank's [`crate::threads::ThreadCtx`] holds state, not policy).
    pub threading: Threading,
    /// Schedule drain policy for pooled executions.
    pub exec: ExecMode,
}
