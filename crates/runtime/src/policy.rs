//! Runtime configuration: the `OP2_*` knob table and the resolved
//! per-rank execution policy.
//!
//! [`KNOBS`] is the one registry of environment knobs — name, accepted
//! grammar, default, one-line doc. Every parser in the crate names its
//! entry through [`parse_knob`], so a malformed value is the same typed
//! [`ConfigError`] whichever knob it came from. Unit tests check that
//! README's "Environment knobs" table matches the registry row for row,
//! and that every registered knob is read, through [`env_knob`] only.
//! [`ExecPolicy`] is the two per-rank settings an executor consults
//! (threading, drain), resolved once per run from [`RunOptions`] and the
//! environment ([`ExecPolicy::resolve`]) and installed as
//! [`crate::env::RankEnv::policy`].

use crate::error::ConfigError;
use crate::harness::RunOptions;
use crate::threads::Threading;

/// One `OP2_*` environment knob.
#[derive(Debug)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// Accepted grammar, as [`ConfigError`] reports it.
    pub expected: &'static str,
    /// Behaviour when the variable is unset.
    pub default: &'static str,
    /// What the knob controls.
    pub doc: &'static str,
}

const fn knob(
    name: &'static str,
    expected: &'static str,
    default: &'static str,
    doc: &'static str,
) -> Knob {
    Knob { name, expected, default, doc }
}

/// Every environment knob the runtime reads: name, grammar, default,
/// meaning.
#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    knob("OP2_THREADS", "auto|0|N", "1",
        "kernel threads per node, split across in-process ranks (`0`/`auto` = all cores)"),
    knob("OP2_EXEC", "levels|dataflow", "levels",
        "schedule drain: one barrier per level, or per-chunk dependency counters"),
    knob("OP2_CKPT_EVERY", "a positive integer", "1",
        "checkpoint cadence (chain completions) of supervised runs and service jobs"),
    knob("OP2_SERVE_MAX_INFLIGHT", "a positive integer", "8",
        "service admission limit; submissions beyond it are rejected with `ServiceError::Saturated`"),
];

/// Parse one knob's raw value (`None` = variable unset, caller applies
/// the default). Pure — no environment access — so configuration is
/// validated once at startup and tests cover every malformed shape
/// without mutating process state. `parse` returning `None` means the
/// value is malformed: a typed [`ConfigError`] built from the knob's
/// [`KNOBS`] entry instead of a silent fallback or a panic inside a rank
/// thread. Panics if `name` is not registered (a program error).
pub fn parse_knob<T>(
    name: &str,
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    let knob = KNOBS
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in the KNOBS table"));
    match raw {
        None => Ok(None),
        Some(v) => parse(v).map(Some).ok_or_else(|| ConfigError {
            knob: knob.name,
            expected: knob.expected,
            value: v.to_string(),
        }),
    }
}

/// [`parse_knob`] on the process environment — the crate's only reader
/// of it.
pub fn env_knob<T>(
    name: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, ConfigError> {
    parse_knob(name, std::env::var(name).ok().as_deref(), parse)
}

/// Schedule drain policy (`OP2_EXEC`): how pooled executors drain a
/// lowered [`op2_core::Schedule`] — one barriered pool round per level,
/// or the dataflow executor ([`crate::threads::run_dag`]) where each
/// chunk fires the moment its dependency counter reaches zero. Results
/// are bitwise identical either way (the chunk DAG orders every
/// conflicting pair in sequential order), only the synchronisation shape
/// differs.
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

impl ExecMode {
    fn grammar(v: &str) -> Option<ExecMode> {
        match v.to_ascii_lowercase().as_str() {
            "levels" => Some(ExecMode::Levels),
            "dataflow" => Some(ExecMode::Dataflow),
            _ => None,
        }
    }

    /// Parse an `OP2_EXEC`-style value: `levels` / `dataflow`
    /// (case-insensitive; `None` = unset → `Levels`).
    pub fn parse(raw: Option<&str>) -> Result<ExecMode, ConfigError> {
        Ok(parse_knob("OP2_EXEC", raw, Self::grammar)?.unwrap_or_default())
    }

    /// [`ExecMode::parse`] on the `OP2_EXEC` environment variable.
    pub fn try_from_env() -> Result<ExecMode, ConfigError> {
        Ok(env_knob("OP2_EXEC", Self::grammar)?.unwrap_or_default())
    }
}

/// The per-rank execution policy every executor consults: how wide the
/// rank's pool is and how schedules drain. The default is what every
/// knob means when unset: sequential, level-synchronous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecPolicy {
    /// Intra-rank threading (the only home of the configuration; the
    /// rank's [`crate::threads::ThreadCtx`] holds state, not policy).
    pub threading: Threading,
    /// Schedule drain policy for pooled executions.
    pub exec: ExecMode,
}

impl ExecPolicy {
    /// Resolve the policy of one run: each `Some` in `opts` is taken
    /// verbatim, each `None` falls back to its environment knob — the
    /// one place that fallback is written. An environment-derived thread
    /// budget is node-wide and is divided across the `n_ranks`
    /// co-located ranks ([`Threading::split_across`]); an explicit
    /// [`RunOptions::threading`] is already per rank.
    pub fn resolve(opts: &RunOptions, n_ranks: usize) -> Result<ExecPolicy, ConfigError> {
        let env_threads = || Ok(Threading::try_from_env()?.split_across(n_ranks));
        Ok(ExecPolicy {
            threading: opts.threading.map_or_else(env_threads, Ok)?,
            exec: opts.exec.map_or_else(ExecMode::try_from_env, Ok)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// README's "Environment knobs" table has one row per [`KNOBS`]
    /// entry, carrying its name and default, and no row for anything
    /// else — a deleted knob's row cannot linger.
    #[test]
    fn readme_table_covers_every_knob() {
        let readme = include_str!("../../../README.md");
        for row in readme.lines().filter(|l| l.starts_with("| `OP2_")) {
            let name = row["| `".len()..].split('`').next().unwrap_or_default();
            assert!(KNOBS.iter().any(|k| k.name == name), "README documents unknown knob {name}");
        }
        for k in KNOBS {
            let row = readme
                .lines()
                .find(|l| l.starts_with(&format!("| `{}` |", k.name)))
                .unwrap_or_else(|| panic!("README has no knob-table row for {}", k.name));
            assert!(
                row.contains(&format!("| `{}` |", k.default)),
                "README row for {} does not state default `{}`: {row}",
                k.name,
                k.default
            );
        }
    }

    /// One message shape for every knob, naming the variable, its
    /// grammar and the rejected value.
    #[test]
    fn every_knob_reports_the_same_error_shape() {
        for k in KNOBS {
            let err = parse_knob::<()>(k.name, Some("?"), |_| None).unwrap_err();
            assert_eq!((err.knob, err.expected, err.value.as_str()), (k.name, k.expected, "?"));
            assert_eq!(err.to_string(), format!("{} must be {}, got `?`", k.name, k.expected));
            assert_eq!(parse_knob::<()>(k.name, None, |_| None), Ok(None));
        }
    }

    /// Explicit options win verbatim; nothing is split or re-read.
    #[test]
    fn resolve_takes_explicit_options_verbatim() {
        let opts = RunOptions::default().with_threads(6).exec(ExecMode::Dataflow);
        assert_eq!(
            ExecPolicy::resolve(&opts, 3),
            Ok(ExecPolicy {
                threading: Threading::with_threads(6),
                exec: ExecMode::Dataflow,
            })
        );
    }

    /// This crate's sources, one per `pub mod` of `lib.rs`.
    const SOURCES: &[(&str, &str)] = &[
        ("checkpoint", include_str!("checkpoint.rs")),
        ("comm", include_str!("comm.rs")),
        ("env", include_str!("env.rs")),
        ("error", include_str!("error.rs")),
        ("exec", include_str!("exec.rs")),
        ("fault", include_str!("fault.rs")),
        ("halo", include_str!("halo.rs")),
        ("harness", include_str!("harness.rs")),
        ("job", include_str!("job.rs")),
        ("plan", include_str!("plan.rs")),
        ("policy", include_str!("policy.rs")),
        ("service", include_str!("service.rs")),
        ("supervise", include_str!("supervise.rs")),
        ("threads", include_str!("threads.rs")),
        ("trace", include_str!("trace.rs")),
        ("tuner", include_str!("tuner.rs")),
    ];

    /// Every [`KNOBS`] row has a reader, and the environment is read
    /// only through [`env_knob`]: each name is passed to `env_knob`
    /// somewhere in the crate, and `env_knob` holds the crate's one
    /// environment lookup. A knob nothing reads cannot stay registered.
    #[test]
    fn every_knob_is_read() {
        let lib = include_str!("lib.rs");
        for m in lib.lines().filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';')) {
            assert!(SOURCES.iter().any(|(n, _)| *n == m), "module {m} is not scanned");
        }
        for k in KNOBS {
            let call = format!("env_knob(\"{}\"", k.name);
            assert!(SOURCES.iter().any(|(_, src)| src.contains(&call)), "nothing reads {}", k.name);
        }
        let lookup = ["std::env", "::var"].concat();
        let readers: Vec<(&str, usize)> = SOURCES
            .iter()
            .map(|(m, src)| (*m, src.matches(&lookup).count()))
            .filter(|&(_, n)| n > 0)
            .collect();
        assert_eq!(readers, [("policy", 1)], "the environment is read outside env_knob");
    }
}
