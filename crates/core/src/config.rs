//! The loop-chain configuration file (§3.4 of the paper).
//!
//! The only addition CA makes to OP2's code-generation flow is a small
//! configuration file naming the loops to be chained, the loop count and
//! the maximum halo extension. We mirror that with a tiny declarative
//! format:
//!
//! ```text
//! # Hydra chains
//! chain period {
//!     loops = negflag, limxp, periodicity, limxp, periodicity, negflag
//!     max_halo = 2
//!     he 2 = 1          # optional: pin loop at position 2 to HE = 1
//!     he periodicity = 1 # optional: pin every occurrence of a loop name
//! }
//! ```

use crate::chain::ChainSpec;
use crate::error::{CoreError, Result};
use crate::loops::LoopSpec;

/// A per-loop halo-extension override in a chain configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeOverride {
    /// Override the loop at this position (0-based) in the chain.
    Position(usize, usize),
    /// Override every occurrence of this loop name.
    Name(String, usize),
}

/// One `chain { … }` block of a configuration file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainConfig {
    /// Chain name.
    pub name: String,
    /// Loop names in program order (repeats allowed).
    pub loops: Vec<String>,
    /// Optional cap on every loop's halo extension.
    pub max_halo: Option<usize>,
    /// Per-loop halo-extension overrides.
    pub overrides: Vec<HeOverride>,
}

impl ChainConfig {
    /// The block's loops, looked up by name in a program (a list of loop
    /// declarations), in chain order.
    pub fn resolve_loops(&self, program: &[LoopSpec]) -> Result<Vec<LoopSpec>> {
        (self.loops.iter())
            .map(|name| {
                let spec = program.iter().find(|l| &l.name == name);
                spec.cloned().ok_or_else(|| CoreError::UnknownLoop(name.clone()))
            })
            .collect()
    }

    /// Resolve this configuration against a program into a validated
    /// [`ChainSpec`] with the block's `max_halo` and `he` lines applied.
    /// An extent pinned below what the chain's dependencies need leaves a
    /// stale read ([`crate::chain::import_depths`]), which executors refuse.
    pub fn resolve(&self, program: &[LoopSpec]) -> Result<ChainSpec> {
        let loops = self.resolve_loops(program)?;
        let mut positional: Vec<(usize, usize)> = Vec::new();
        for ov in &self.overrides {
            match ov {
                HeOverride::Position(pos, he) => positional.push((*pos, *he)),
                HeOverride::Name(name, he) => {
                    for (pos, l) in self.loops.iter().enumerate() {
                        if l == name {
                            positional.push((pos, *he));
                        }
                    }
                }
            }
        }
        ChainSpec::new(&self.name, loops, self.max_halo, &positional)
    }
}

/// Parse a chain configuration file. Returns the chains in file order.
pub fn parse_chain_config(text: &str) -> Result<Vec<ChainConfig>> {
    let mut chains = Vec::new();
    let mut current: Option<ChainConfig> = None;

    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| CoreError::Config {
            line: lineno,
            msg: msg.to_string(),
        };

        if let Some(rest) = line.strip_prefix("chain") {
            if current.is_some() {
                return Err(err("nested `chain` block (missing `}`?)"));
            }
            let rest = rest.trim();
            let Some(name) = rest.strip_suffix('{') else {
                return Err(err("expected `chain <name> {`"));
            };
            let name = name.trim();
            if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                return Err(err("chain name must be a non-empty identifier"));
            }
            current = Some(ChainConfig {
                name: name.to_string(),
                loops: Vec::new(),
                max_halo: None,
                overrides: Vec::new(),
            });
        } else if line == "}" {
            let chain = current.take().ok_or_else(|| err("unmatched `}`"))?;
            if chain.loops.is_empty() {
                return Err(err("chain has no `loops = …` line"));
            }
            chains.push(chain);
        } else {
            let chain = current
                .as_mut()
                .ok_or_else(|| err("directive outside a `chain { … }` block"))?;
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err("expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match key {
                "loops" => {
                    chain.loops = value
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if chain.loops.is_empty() {
                        return Err(err("`loops` list is empty"));
                    }
                }
                "max_halo" => {
                    chain.max_halo = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| err("`max_halo` must be an integer"))?,
                    );
                }
                _ if key.starts_with("he ") || key.starts_with("he\t") => {
                    let target = key[2..].trim();
                    let he = value
                        .parse::<usize>()
                        .map_err(|_| err("halo-extension override must be an integer"))?;
                    if he == 0 {
                        return Err(err("halo extension must be at least 1"));
                    }
                    let ov = match target.parse::<usize>() {
                        Ok(pos) => HeOverride::Position(pos, he),
                        Err(_) => HeOverride::Name(target.to_string(), he),
                    };
                    chain.overrides.push(ov);
                }
                _ => return Err(err(&format!("unknown key `{key}`"))),
            }
        }
    }
    if current.is_some() {
        return Err(CoreError::Config {
            line: text.lines().count(),
            msg: "unterminated `chain` block".into(),
        });
    }
    Ok(chains)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_example() {
        let text = r#"
            # two chains
            chain period {
                loops = negflag, limxp, periodicity, limxp, periodicity, negflag
                max_halo = 2
                he periodicity = 1
                he 0 = 2
            }
            chain vflux {
                loops = initres, vflux_edge
            }
        "#;
        let chains = parse_chain_config(text).unwrap();
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].name, "period");
        assert_eq!(chains[0].loops.len(), 6);
        assert_eq!(chains[0].max_halo, Some(2));
        assert_eq!(chains[0].overrides.len(), 2);
        assert_eq!(
            chains[0].overrides[0],
            HeOverride::Name("periodicity".into(), 1)
        );
        assert_eq!(chains[0].overrides[1], HeOverride::Position(0, 2));
        assert_eq!(chains[1].loops, vec!["initres", "vflux_edge"]);
        assert_eq!(chains[1].max_halo, None);
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(parse_chain_config("chain x {").is_err()); // unterminated
        assert!(parse_chain_config("loops = a").is_err()); // outside block
        assert!(parse_chain_config("chain x {\n}").is_err()); // no loops
        assert!(parse_chain_config("chain x {\n loops = a\n max_halo = y\n}").is_err());
        assert!(parse_chain_config("chain x {\n loops = a\n he 0 = 0\n}").is_err());
        assert!(parse_chain_config("chain 1bad! {\n loops = a\n}").is_err());
        assert!(parse_chain_config("}").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "\n# c\nchain a { # inline\n loops = x # names\n}\n";
        let chains = parse_chain_config(text).unwrap();
        assert_eq!(chains[0].loops, vec!["x"]);
    }
}
