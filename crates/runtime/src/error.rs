//! Runtime-layer error taxonomy.
//!
//! [`RuntimeError`] is the error type the executors return: it extends
//! the core DSL's [`CoreError`] with the transport failures
//! ([`CommError`]) that only exist once a program actually runs
//! distributed. [`RankFailure`] is one level further out — the
//! per-rank verdict the harness reports after containing panics.

use crate::comm::CommError;
use crate::trace::RankTrace;
use op2_core::error::CoreError;
use std::fmt;

/// A malformed runtime configuration knob — an environment variable (or
/// the programmatic equivalent) that failed to parse. Reported once at
/// startup as a typed error instead of a panic inside a rank thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `OP2_THREADS` was not `auto`, `0`, or a positive integer.
    Threads {
        /// The rejected value.
        value: String,
    },
    /// `OP2_BLOCK_SIZE` was not `auto` or a positive integer.
    BlockSize {
        /// The rejected value.
        value: String,
    },
    /// `OP2_CKPT_EVERY` was not a positive integer.
    CkptEvery {
        /// The rejected value.
        value: String,
    },
    /// `OP2_SERVE_MAX_INFLIGHT` was not a positive integer.
    ServeMaxInflight {
        /// The rejected value.
        value: String,
    },
    /// `OP2_SERVE_BATCH` was not a boolean (`0`/`1`/`true`/`false`).
    ServeBatch {
        /// The rejected value.
        value: String,
    },
    /// `OP2_TUNER` was not `auto`, `op2`, `ca`, or `tiled`.
    Tuner {
        /// The rejected value.
        value: String,
    },
    /// `OP2_REBALANCE_THRESHOLD` was not a finite number ≥ 1.
    RebalanceThreshold {
        /// The rejected value.
        value: String,
    },
    /// `OP2_REBALANCE_WINDOW` was not a positive integer.
    RebalanceWindow {
        /// The rejected value.
        value: String,
    },
    /// `OP2_FUSE` was not `on`, `off`, or `auto`.
    Fuse {
        /// The rejected value.
        value: String,
    },
    /// `OP2_EXEC` was not `levels`, `dataflow`, or `auto`.
    Exec {
        /// The rejected value.
        value: String,
    },
    /// `OP2_THREAD_PIN` was not a boolean (`0`/`1`/`true`/`false`/`on`/`off`).
    ThreadPin {
        /// The rejected value.
        value: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Threads { value } => {
                write!(f, "OP2_THREADS must be auto|0|N, got `{value}`")
            }
            ConfigError::BlockSize { value } => {
                write!(f, "OP2_BLOCK_SIZE must be auto or a positive integer, got `{value}`")
            }
            ConfigError::CkptEvery { value } => {
                write!(f, "OP2_CKPT_EVERY must be a positive integer, got `{value}`")
            }
            ConfigError::ServeMaxInflight { value } => write!(
                f,
                "OP2_SERVE_MAX_INFLIGHT must be a positive integer, got `{value}`"
            ),
            ConfigError::ServeBatch { value } => {
                write!(f, "OP2_SERVE_BATCH must be 0|1|true|false, got `{value}`")
            }
            ConfigError::Tuner { value } => {
                write!(f, "OP2_TUNER must be auto|op2|ca|tiled, got `{value}`")
            }
            ConfigError::RebalanceThreshold { value } => write!(
                f,
                "OP2_REBALANCE_THRESHOLD must be a finite number >= 1, got `{value}`"
            ),
            ConfigError::RebalanceWindow { value } => write!(
                f,
                "OP2_REBALANCE_WINDOW must be a positive integer, got `{value}`"
            ),
            ConfigError::Fuse { value } => {
                write!(f, "OP2_FUSE must be on|off|auto, got `{value}`")
            }
            ConfigError::Exec { value } => {
                write!(f, "OP2_EXEC must be levels|dataflow|auto, got `{value}`")
            }
            ConfigError::ThreadPin { value } => {
                write!(f, "OP2_THREAD_PIN must be 0|1|true|false|on|off, got `{value}`")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Errors surfaced while executing a distributed program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Transport failure (timeout, tag mismatch, corruption, hangup).
    Comm(CommError),
    /// A core-layer declaration/validation error reached the runtime.
    Core(CoreError),
    /// A strict-mode executor found a dat's halo shallower than the
    /// chain's inspector promised — an inspector/executor disagreement,
    /// surfaced as a typed fault so supervision can contain it.
    Validity {
        /// The rank that detected the violation.
        rank: u32,
        /// The chain being executed.
        chain: String,
        /// The loop within the chain that needed the data.
        loop_name: String,
        /// The dat whose halo was too shallow.
        dat: String,
        /// Halo depth the loop required.
        need: u8,
        /// Halo depth actually valid.
        have: u8,
    },
    /// A runtime configuration knob failed to parse at startup.
    Config(ConfigError),
    /// A rank's thread panicked (an injected crash, a kernel bug); the
    /// harness contained it. What a [`RankFailure::Panicked`] becomes
    /// when a job host folds per-rank verdicts into one error.
    Panicked {
        /// The panicking rank.
        rank: u32,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Supervised recovery ran out of budget: the fault kept recurring
    /// after `attempts` coordinated rollbacks. Carries the partial
    /// per-rank traces and failures of the final attempt for post
    /// mortem.
    RecoveryExhausted {
        /// Restart attempts consumed (the first run plus retries).
        attempts: u32,
        /// Per-rank traces from the last attempt.
        traces: Vec<RankTrace>,
        /// Per-rank failures from the last attempt.
        failures: Vec<RankFailure>,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Comm(e) => write!(f, "communication failed: {e}"),
            RuntimeError::Core(e) => write!(f, "core error: {e}"),
            RuntimeError::Validity {
                rank,
                chain,
                loop_name,
                dat,
                need,
                have,
            } => write!(
                f,
                "rank {rank}: chain `{chain}` loop `{loop_name}` needs dat `{dat}` \
                 valid to depth {need}, have {have}"
            ),
            RuntimeError::Config(e) => write!(f, "invalid runtime configuration: {e}"),
            RuntimeError::Panicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
            RuntimeError::RecoveryExhausted {
                attempts, failures, ..
            } => {
                write!(f, "recovery budget exhausted after {attempts} attempt(s)")?;
                for fail in failures {
                    write!(f, "; {fail}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Comm(e) => Some(e),
            RuntimeError::Core(e) => Some(e),
            RuntimeError::Config(e) => Some(e),
            RuntimeError::Validity { .. }
            | RuntimeError::Panicked { .. }
            | RuntimeError::RecoveryExhausted { .. } => None,
        }
    }
}

impl From<ConfigError> for RuntimeError {
    fn from(e: ConfigError) -> Self {
        RuntimeError::Config(e)
    }
}

impl From<CommError> for RuntimeError {
    fn from(e: CommError) -> Self {
        RuntimeError::Comm(e)
    }
}

impl From<CoreError> for RuntimeError {
    fn from(e: CoreError) -> Self {
        RuntimeError::Core(e)
    }
}

/// Why one rank of a distributed run did not produce a result. Produced
/// by the harness: a rank either returned a [`RuntimeError`] or
/// panicked (including injected crashes), in which case the panic was
/// contained by `catch_unwind` and its message captured here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailure {
    /// The rank's program returned an error.
    Failed {
        /// The failing rank.
        rank: u32,
        /// What went wrong.
        error: RuntimeError,
    },
    /// The rank's thread panicked; the harness contained it.
    Panicked {
        /// The panicking rank.
        rank: u32,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl RankFailure {
    /// The rank this failure belongs to.
    pub fn rank(&self) -> u32 {
        match self {
            RankFailure::Failed { rank, .. } | RankFailure::Panicked { rank, .. } => *rank,
        }
    }
}

impl fmt::Display for RankFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankFailure::Failed { rank, error } => write!(f, "rank {rank} failed: {error}"),
            RankFailure::Panicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RankFailure {}

impl From<RankFailure> for RuntimeError {
    fn from(f: RankFailure) -> Self {
        match f {
            RankFailure::Failed { error, .. } => error,
            RankFailure::Panicked { rank, message } => RuntimeError::Panicked { rank, message },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn displays_nest_the_cause() {
        let e = RuntimeError::from(CommError::Timeout {
            from: 3,
            tag: 9,
            waited: Duration::from_millis(5),
            retries: 2,
        });
        let s = e.to_string();
        assert!(s.contains("communication failed"), "{s}");
        assert!(s.contains("rank 3"), "{s}");
        let rf = RankFailure::Failed { rank: 1, error: e };
        assert_eq!(rf.rank(), 1);
        assert!(rf.to_string().contains("rank 1 failed"), "{rf}");
    }

    #[test]
    fn core_errors_convert() {
        let e: RuntimeError = CoreError::UnknownSet("cells".into()).into();
        assert!(matches!(e, RuntimeError::Core(_)));
        assert!(e.to_string().contains("cells"));
    }
}
