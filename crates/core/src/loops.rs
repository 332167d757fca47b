//! Parallel-loop declarations (`op_par_loop`).

use crate::access::{AccessMode, Arg, GblDecl};
use crate::domain::{Domain, SetId};
use crate::error::{CoreError, Result};
use crate::kernel::{Kernel, KernelFn};

/// A full parallel-loop declaration: the OP2 `op_par_loop` call.
///
/// Cloneable and cheap: the kernel is compiled once, at declaration, and
/// shared; the arguments are small descriptors. Executors (sequential,
/// distributed, CA, GPU-simulated) all consume the same `LoopSpec`.
#[derive(Clone)]
pub struct LoopSpec {
    /// Loop name — the identity used by loop-chain configuration files.
    pub name: String,
    /// Iteration set.
    pub set: SetId,
    /// Access descriptors, in kernel-argument order.
    pub args: Vec<Arg>,
    /// Global-argument declarations, indexed by `Arg::Gbl::idx`.
    pub gbls: Vec<GblDecl>,
    /// The user function applied to every element, compiled into its
    /// iteration loops ([`Kernel::compile`]).
    pub kernel: Kernel,
}

impl std::fmt::Debug for LoopSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopSpec")
            .field("name", &self.name)
            .field("set", &self.set)
            .field("args", &self.args)
            .field("gbls", &self.gbls.len())
            .finish()
    }
}

impl LoopSpec {
    /// Declare a loop with no global arguments.
    ///
    /// # Panics
    /// If `args` holds more than [`crate::kernel::MAX_ARGS`] arguments.
    pub fn new<K: KernelFn>(name: &str, set: SetId, args: Vec<Arg>, kernel: K) -> Self {
        Self::with_gbls(name, set, args, Vec::new(), kernel)
    }

    /// Declare a loop with global arguments (constants / reductions).
    ///
    /// # Panics
    /// As [`LoopSpec::new`].
    pub fn with_gbls<K: KernelFn>(
        name: &str,
        set: SetId,
        args: Vec<Arg>,
        gbls: Vec<GblDecl>,
        kernel: K,
    ) -> Self {
        LoopSpec {
            name: name.to_string(),
            set,
            kernel: Kernel::compile(kernel, args.len()),
            args,
            gbls,
        }
    }

    /// The analysis-only view of this loop (used by Alg 3 and the
    /// partitioning layer, which never call the kernel).
    pub fn sig(&self) -> LoopSig {
        LoopSig {
            name: self.name.clone(),
            set: self.set,
            args: self.args.clone(),
        }
    }

    /// Does the loop perform a global reduction? Such loops are
    /// synchronisation points and terminate any loop-chain.
    pub fn has_reduction(&self) -> bool {
        self.args
            .iter()
            .any(|a| matches!(a, Arg::Gbl { mode, .. } if mode.modifies()))
    }

    /// Validate the loop against a domain: maps must start at the
    /// iteration set, map indices must be within arity, dats must live on
    /// the right set, global modes must be `Read` or `Inc`.
    pub fn validate(&self, dom: &Domain) -> Result<()> {
        for (i, arg) in self.args.iter().enumerate() {
            match arg {
                Arg::Dat { dat, map, mode } => {
                    let d = dom.dat(*dat);
                    match map {
                        None => {
                            if d.set != self.set {
                                return Err(CoreError::BadArg {
                                    what: "direct access on wrong set",
                                    detail: format!(
                                        "loop `{}` arg {i}: dat `{}` lives on `{}`, loop iterates `{}`",
                                        self.name,
                                        d.name,
                                        dom.set(d.set).name,
                                        dom.set(self.set).name
                                    ),
                                });
                            }
                        }
                        Some((map_id, idx)) => {
                            let m = dom.map(*map_id);
                            if m.from != self.set {
                                return Err(CoreError::BadArg {
                                    what: "map from wrong set",
                                    detail: format!(
                                        "loop `{}` arg {i}: map `{}` starts at `{}`, loop iterates `{}`",
                                        self.name,
                                        m.name,
                                        dom.set(m.from).name,
                                        dom.set(self.set).name
                                    ),
                                });
                            }
                            if *idx as usize >= m.arity {
                                return Err(CoreError::BadArg {
                                    what: "map index out of arity",
                                    detail: format!(
                                        "loop `{}` arg {i}: index {idx} >= arity {}",
                                        self.name, m.arity
                                    ),
                                });
                            }
                            if m.to != d.set {
                                return Err(CoreError::BadArg {
                                    what: "map target mismatch",
                                    detail: format!(
                                        "loop `{}` arg {i}: map `{}` targets `{}`, dat `{}` lives on `{}`",
                                        self.name,
                                        m.name,
                                        dom.set(m.to).name,
                                        d.name,
                                        dom.set(d.set).name
                                    ),
                                });
                            }
                        }
                    }
                    let _ = mode;
                }
                Arg::Gbl { idx, mode } => {
                    if *idx as usize >= self.gbls.len() {
                        return Err(CoreError::BadArg {
                            what: "gbl index out of range",
                            detail: format!(
                                "loop `{}` arg {i}: gbl index {idx} >= {} declared",
                                self.name,
                                self.gbls.len()
                            ),
                        });
                    }
                    if !matches!(mode, AccessMode::Read | AccessMode::Inc) {
                        return Err(CoreError::BadArg {
                            what: "gbl mode",
                            detail: format!(
                                "loop `{}` arg {i}: globals must be Read or Inc, got {:?}",
                                self.name, mode
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// The access-descriptor signature of a loop: everything the dependency
/// analysis needs, without the kernel.
#[derive(Debug, Clone)]
pub struct LoopSig {
    /// Loop name.
    pub name: String,
    /// Iteration set.
    pub set: SetId,
    /// Access descriptors.
    pub args: Vec<Arg>,
}

impl LoopSig {
    /// Combined access of dat `dat` in this loop, merging multiple
    /// arguments on the same dat (e.g. map indices 0 and 1): returns the
    /// strongest mode and whether any access is indirect.
    ///
    /// Mode merging: any `Inc` dominates (`Inc`+`Read` ⇒ the loop both
    /// reads and modifies, which for chain analysis behaves like `Rw`);
    /// `Read`+`Write` ⇒ `Rw`; identical modes collapse.
    pub fn access_of(&self, dat: crate::domain::DatId) -> Option<(AccessMode, bool)> {
        let mut found: Option<(AccessMode, bool)> = None;
        for a in &self.args {
            if let Arg::Dat { dat: d, map, mode } = a {
                if *d == dat {
                    let ind = map.is_some();
                    found = Some(match found {
                        None => (*mode, ind),
                        Some((prev, pind)) => (merge_modes(prev, *mode), pind || ind),
                    });
                }
            }
        }
        found
    }

    /// All distinct dats touched by this loop, in first-appearance order.
    pub fn dats(&self) -> Vec<crate::domain::DatId> {
        let mut out = Vec::new();
        for a in &self.args {
            if let Some(d) = a.dat_id() {
                if !out.contains(&d) {
                    out.push(d);
                }
            }
        }
        out
    }
}

/// Merge two access modes on the same dat within one loop.
fn merge_modes(a: AccessMode, b: AccessMode) -> AccessMode {
    use AccessMode::*;
    if a == b {
        return a;
    }
    match (a.reads() || b.reads(), a.modifies() || b.modifies()) {
        (true, true) => {
            // Reading + modifying: Inc-only pairs keep Inc semantics
            // (order-independent); anything involving Write/Rw/Read+Inc
            // behaves as Rw for the dependency analysis.
            if matches!((a, b), (Inc, Inc)) {
                Inc
            } else {
                Rw
            }
        }
        (true, false) => Read,
        (false, true) => Write,
        (false, false) => unreachable!("every mode reads or modifies"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::kernel::Args;

    fn noop(_: &Args<'_>) {}

    fn tiny_domain() -> (Domain, SetId, SetId, crate::domain::MapId, crate::domain::DatId) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 3);
        let edges = dom.decl_set("edges", 2);
        let e2n = dom
            .decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2])
            .unwrap();
        let x = dom.decl_dat_zeros("x", nodes, 2);
        (dom, nodes, edges, e2n, x)
    }

    #[test]
    fn validate_accepts_good_loop() {
        let (dom, _nodes, edges, e2n, x) = tiny_domain();
        let l = LoopSpec::new(
            "ok",
            edges,
            vec![
                Arg::dat_indirect(x, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(x, e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        l.validate(&dom).unwrap();
        assert!(!l.has_reduction());
    }

    #[test]
    fn validate_rejects_wrong_set_direct() {
        let (dom, _nodes, edges, _e2n, x) = tiny_domain();
        let l = LoopSpec::new("bad", edges, vec![Arg::dat_direct(x, AccessMode::Read)], noop);
        assert!(l.validate(&dom).is_err());
    }

    #[test]
    fn validate_rejects_bad_map_index() {
        let (dom, _nodes, edges, e2n, x) = tiny_domain();
        let l = LoopSpec::new(
            "bad",
            edges,
            vec![Arg::dat_indirect(x, e2n, 7, AccessMode::Read)],
            noop,
        );
        assert!(l.validate(&dom).is_err());
    }

    #[test]
    fn reduction_detection() {
        let (dom, nodes, _edges, _e2n, x) = tiny_domain();
        let l = LoopSpec::with_gbls(
            "rms",
            nodes,
            vec![
                Arg::dat_direct(x, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::reduction(1)],
            noop,
        );
        l.validate(&dom).unwrap();
        assert!(l.has_reduction());
    }

    #[test]
    fn access_merging() {
        let (_dom, _nodes, edges, e2n, x) = tiny_domain();
        let sig = LoopSig {
            name: "m".into(),
            set: edges,
            args: vec![
                Arg::dat_indirect(x, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(x, e2n, 1, AccessMode::Inc),
            ],
        };
        assert_eq!(sig.access_of(x), Some((AccessMode::Inc, true)));
        let sig2 = LoopSig {
            name: "m2".into(),
            set: edges,
            args: vec![
                Arg::dat_indirect(x, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(x, e2n, 1, AccessMode::Write),
            ],
        };
        assert_eq!(sig2.access_of(x), Some((AccessMode::Rw, true)));
    }
}
