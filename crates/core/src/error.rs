//! Error type shared by the core DSL layers.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised while declaring or validating an OP2-style program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A map entry points past the end of its target set.
    MapOutOfRange {
        map: String,
        entry: usize,
        value: usize,
        to_size: usize,
    },
    /// A declared object refers to a set that does not exist.
    UnknownSet(String),
    /// A loop argument is inconsistent (bad map arity index, wrong set, …).
    BadArg { what: &'static str, detail: String },
    /// The chain configuration file could not be parsed.
    Config { line: usize, msg: String },
    /// A chain references a loop name that does not exist in the program.
    UnknownLoop(String),
    /// A chain name that no block of the configuration declares.
    UnknownChain(String),
    /// A loop-chain violates a chain precondition (e.g. contains a global
    /// reduction, which is a synchronisation point).
    InvalidChain(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MapOutOfRange {
                map,
                entry,
                value,
                to_size,
            } => write!(
                f,
                "map `{map}` entry {entry} = {value} out of range for target set of size {to_size}"
            ),
            CoreError::UnknownSet(name) => write!(f, "unknown set `{name}`"),
            CoreError::BadArg { what, detail } => write!(f, "bad loop argument ({what}): {detail}"),
            CoreError::Config { line, msg } => write!(f, "chain config line {line}: {msg}"),
            CoreError::UnknownLoop(name) => write!(f, "chain references unknown loop `{name}`"),
            CoreError::UnknownChain(name) => write!(f, "no chain `{name}` in the configuration"),
            CoreError::InvalidChain(msg) => write!(f, "invalid loop-chain: {msg}"),
        }
    }
}

impl std::error::Error for CoreError {}
