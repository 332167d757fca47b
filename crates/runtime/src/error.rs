//! Runtime-layer error taxonomy.
//!
//! [`RuntimeError`] is the error type the executors return: it extends
//! the core DSL's [`CoreError`] with the transport failures
//! ([`CommError`]) that only exist once a program actually runs
//! distributed. [`RankFailure`] is one level further out — the
//! per-rank verdict the harness reports after containing panics.

use crate::comm::CommError;
use op2_core::error::CoreError;
use std::fmt;

/// Errors surfaced while executing a distributed program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Transport failure (timeout, tag mismatch, hangup).
    Comm(CommError),
    /// A core-layer declaration/validation error reached the runtime.
    Core(CoreError),
    /// A strict-mode executor found a dat's halo shallower than the
    /// chain's inspector promised — an inspector/executor disagreement,
    /// surfaced as a typed error instead of a panic.
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
    /// A rank's thread panicked (an injected crash, a kernel bug); the
    /// harness contained it. What a [`RankFailure::Panicked`] becomes
    /// when a job host folds per-rank verdicts into one error.
    Panicked {
        /// The panicking rank.
        rank: u32,
        /// The panic payload, if it was a string.
        message: String,
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
            RuntimeError::Panicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Comm(e) => Some(e),
            RuntimeError::Core(e) => Some(e),
            RuntimeError::Validity { .. } | RuntimeError::Panicked { .. } => None,
        }
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
