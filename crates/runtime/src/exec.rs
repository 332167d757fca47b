//! The two distributed execution algorithms.
//!
//! [`run_loop`] is the paper's **Algorithm 1** — standard OP2: per-loop
//! halo exchanges with latency hiding (core iterations run while
//! messages are in flight, the boundary and import-execute halo run
//! after the wait).
//!
//! [`run_chain`] is **Algorithm 2** — the CA back-end: one *grouped*
//! multi-level exchange per neighbour at chain entry, every loop's
//! (per-position shrinking) core overlapped with it, then each loop's
//! halo region executed in order, with redundant computation over up to
//! `r` layers replacing the eliminated per-loop messages.
//!
//! There is one Alg 2 entry point, [`run_chain`]; the chain's own
//! [`ChainSpec::relaxed`] says whether a read beyond in-chain validity
//! fails the chain or is counted. It is **inspector–executor** split:
//! all analysis (import depths, core depths, execute ranges, pack lists,
//! the validity verdict) comes from a cached
//! [`crate::plan::ChainPlan`], and every lowered schedule from the
//! rank's [`crate::plan::PlanCache`] — repeat invocations of the same
//! chain in the same dirty-state class do zero re-analysis, which the
//! plan-cache hit counters in the trace make assertable.
//! [`run_chain_unplanned`] keeps the original inline-analysis path as
//! the reference executor the planned path is tested bitwise-equal
//! against.

use crate::env::RankEnv;
use crate::error::RuntimeError;
use crate::fault::BoundaryKind;
use crate::halo::{ExchangePlan, Split};
use crate::plan::{loop_plan_for, plan_for};
use crate::trace::{ChainRec, ExchangeRec, LoopRec};
use op2_core::seq::LoopResult;
use op2_core::{Arg, ChainSpec, DatId, LoopSpec};
use std::sync::Arc;

pub use op2_core::chain::{produced_validity, read_requirement};

/// Halo extent of a standalone (Alg 1) loop: OP2 executes the
/// import-execute halo only when the loop indirectly modifies data
/// (owner-compute via redundant execution); read-only and direct loops
/// run over owned elements alone. Reduction loops never execute
/// redundant elements with live reduction buffers (that would
/// double-count), which [`run_loop`] handles with a scratch buffer.
pub fn standalone_extent(spec: &LoopSpec) -> usize {
    let indirect_modify = spec.args.iter().any(|a| {
        matches!(a, Arg::Dat { map: Some(_), mode, .. } if mode.modifies())
    });
    usize::from(indirect_modify)
}

/// Dats (with depths) a loop must exchange before executing, given the
/// rank's current validity. Deterministic across ranks.
pub fn exchange_list(env: &RankEnv<'_>, spec: &LoopSpec, ext: usize) -> Vec<(DatId, u8)> {
    let sig = spec.sig();
    let mut out = Vec::new();
    for d in sig.dats() {
        let Some((mode, indirect)) = sig.access_of(d) else {
            continue;
        };
        let req = read_requirement(mode, indirect, ext);
        if req > env.valid[d.idx()] as usize {
            out.push((d, req as u8));
        }
    }
    out
}

/// Algorithm 1: execute one loop with per-loop halo exchange and
/// latency hiding. Returns final global-argument values (reductions are
/// summed across ranks deterministically). Transport failures —
/// timeouts, hangups, tag mismatches — surface as [`RuntimeError`]s
/// instead of panics.
pub fn run_loop(env: &mut RankEnv<'_>, spec: &LoopSpec) -> Result<LoopResult, RuntimeError> {
    let t0 = std::time::Instant::now();
    let ext = standalone_extent(spec);
    // One message per (neighbour, dat), from the rank's cache.
    let plan = loop_plan_for(env, spec);
    let exch = &plan.exchange;
    debug_assert!(
        exch.import.iter().all(|&(_, d)| d as usize <= env.layout.depth),
        "loop `{}` needs deeper halos than the layout was built with",
        spec.name
    );

    // Post sends (MPI_Isend / Irecv of Alg 1, lines 1-2).
    let mut rec = exch.post(env);

    let set_layout = &env.layout.sets[spec.set.idx()];
    let core_end = set_layout.core_end(0);
    let n_owned = set_layout.n_owned;
    let exec_end = set_layout.exec_end(ext);

    let mut gbls: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();

    // Core while in flight (lines 3-5).
    env.exec_range(spec, 0, core_end, &mut gbls);

    // Wait (line 6).
    exch.complete(env, &mut rec)?;

    // Boundary-owned iterations contribute to reductions; redundant ring
    // iterations must not.
    env.exec_range(spec, core_end, n_owned, &mut gbls);
    if exec_end > n_owned {
        if spec.has_reduction() {
            // Redundant ring iterations reduce into identity-initialised
            // scratch that is then discarded.
            let mut scratch: Vec<Vec<f64>> = spec
                .gbls
                .iter()
                .map(|g| vec![g.op.identity(); g.dim])
                .collect();
            env.exec_range(spec, n_owned, exec_end, &mut scratch);
        } else {
            env.exec_range(spec, n_owned, exec_end, &mut gbls);
        }
    }

    // Validity transitions — OP2-conservative (single dirty bit): any
    // modification invalidates the whole halo, so the baseline message
    // counts match the paper's OP2 columns.
    let sig = spec.sig();
    for d in sig.dats() {
        if let Some((mode, indirect)) = sig.access_of(d) {
            if let Some(v) = produced_validity(mode, indirect, ext) {
                let conservative = if indirect { v } else { 0 };
                env.valid[d.idx()] = env.valid[d.idx()].min(conservative as u8);
            }
        }
    }

    // Global reductions (a synchronisation point).
    if spec.has_reduction() {
        let tag = env.next_tag();
        for arg in &spec.args {
            if let Arg::Gbl { idx, mode } = arg {
                if mode.modifies() {
                    let op = spec.gbls[*idx as usize].op;
                    env.comm
                        .allreduce(&mut gbls[*idx as usize], tag + *idx as u64 * 2, op)?;
                }
            }
        }
    }

    env.trace.record_loop(LoopRec {
        name: Arc::clone(&plan.name),
        core_iters: core_end,
        halo_iters: exec_end - core_end,
        d_exchanged: exch.import.len(),
        exch: rec,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });

    env.boundary(BoundaryKind::Loop);
    Ok(LoopResult { gbls })
}

/// Algorithm 2: execute a loop-chain with the communication-avoiding
/// back-end: cached plan → depth and validity checks → grouped exchange
/// → pre-wait phase (each loop's core `[0, core_end)`, lines 8–12) →
/// wait → post-wait phase (each loop's halo region `[core_end,
/// exec_end)` in loop order, lines 14–18) → validity transitions →
/// trace record → boundary. Bitwise identical to the sequential walk.
///
/// A strict chain fails on a read beyond in-chain validity (a
/// [`RuntimeError::Validity`]). A [`ChainSpec::relaxed`] one takes its
/// extents as configured (e.g. pinned to the paper's Table 3–4 values):
/// such reads are satisfied by the deepened initial import (pre-chain
/// values — the paper's one-sync-per-chain semantics) and counted in
/// the chain record. Panics if the chain requires deeper halos than
/// the layout was built with (a program error); transport failures
/// surface as [`RuntimeError`]s.
pub fn run_chain(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    let t0 = std::time::Instant::now();
    // Inspector: cached plan lookup — analysis runs only on a miss.
    let plan = plan_for(env, chain);
    assert!(
        plan.depth <= env.layout.depth,
        "chain `{}` needs {} halo layers but the layout was built \
         with {}",
        chain.name,
        plan.depth,
        env.layout.depth
    );
    // Strict mode: a read the plan's pre-simulation found under-valid
    // (config-pinned extents too small, or an inspector/executor
    // disagreement) is a typed error, not a panic. Identical on every
    // rank, so nobody is left waiting on an exchange that was never
    // posted.
    if let (false, Some(s)) = (chain.relaxed, plan.stale.first()) {
        return Err(RuntimeError::Validity {
            rank: env.rank,
            chain: chain.name.clone(),
            loop_name: chain.loops[s.pos].name.clone(),
            dat: env.dom.dat(s.dat).name.clone(),
            need: s.need,
            have: s.have,
        });
    }

    // Grouped message per neighbour (lines 5-7 of Alg 2), packed via the
    // plan's index lists. A chain importing nothing posts nothing and,
    // unlike Alg 1, takes no tag.
    let mut rec = ExchangeRec::default();
    if !plan.exchange.is_empty() {
        rec = plan.exchange.post(env);
    }

    // One loop's `[start, end)`.
    let mut gbls: Vec<Vec<f64>> = Vec::new();
    let mut run_range = |env: &mut RankEnv<'_>, pos, start, end| {
        let spec: &LoopSpec = &chain.loops[pos];
        debug_assert!(!spec.has_reduction());
        gbls.clear();
        gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
        env.exec_range(spec, start, end, &mut gbls);
    };

    // Pre-wait phase: every loop's core reads nothing the wait
    // delivers, so it runs while the exchange is in flight. The safe
    // core retracts by the loop's in-chain dependency depth; relaxed
    // mode keeps the standard depth-1 core everywhere (the paper's
    // behaviour — staleness tolerated and counted).
    for (pos, &(core, _)) in plan.per_loop.iter().enumerate() {
        run_range(env, pos, 0, core);
    }

    // Wait (line 13) — arrival order: whichever neighbour lands first
    // is unpacked first.
    plan.exchange.complete(env, &mut rec)?;

    // Post-wait phase: halo regions in loop order (lines 14-18). The
    // record's `per_loop` is the plan's (prewait, postwait) split.
    for (pos, &(core, halo)) in plan.per_loop.iter().enumerate() {
        run_range(env, pos, core, core + halo);
        env.boundary(BoundaryKind::ChainLoop);
    }

    // Validity transitions, in loop order.
    for &(d, v) in &plan.produces {
        env.valid[d.idx()] = v;
    }

    env.trace.record_chain(ChainRec {
        name: Arc::clone(&plan.name),
        per_loop: Arc::clone(&plan.per_loop),
        d_exchanged: plan.exchange.import.len(),
        depth: plan.depth,
        exch: rec,
        stale_reads: plan.stale.len(),
        wall_ns: t0.elapsed().as_nanos() as u64,
    });
    env.boundary(BoundaryKind::Chain);
    Ok(())
}

/// The original Algorithm 2 executor with **inline analysis** — import
/// depths, core depths, execute ranges and per-loop validity checks
/// re-derived on every call, and a fresh, uncached grouped
/// [`ExchangePlan`] built per call. Kept as the reference path: property
/// tests assert the planned executor is bitwise-equal to this one on
/// random meshes. It runs every chain strict, whatever
/// [`ChainSpec::relaxed`] says.
pub fn run_chain_unplanned(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    let t0 = std::time::Instant::now();
    let depth = chain.max_halo_layers();
    assert!(
        depth <= env.layout.depth,
        "chain `{}` needs {depth} halo layers but the layout was built \
         with {}",
        chain.name,
        env.layout.depth
    );
    let sigs = chain.sigs();
    let valid = |d: DatId| env.valid[d.idx()] as usize;
    // The import alone: the per-loop check below finds any stale read.
    let import = op2_core::chain::import_depths(&sigs, &chain.halo_ext, &valid).import;
    let import = import.into_iter().map(|(d, t)| (d, t as u8)).collect();
    let exch = ExchangePlan::build(env.layout, env.dom, import, Split::Grouped);

    // Grouped message per neighbour (lines 5-7 of Alg 2).
    let mut rec = exch.post(env);

    // Core of every loop while the exchange is in flight (lines 8-12).
    let cdepth = op2_core::chain::core_depths(&sigs);
    let mut gbls: Vec<Vec<f64>> = Vec::new();
    for (pos, spec) in chain.loops.iter().enumerate() {
        debug_assert!(!spec.has_reduction());
        let core_end = env.layout.sets[spec.set.idx()].core_end(cdepth[pos] - 1);
        gbls.clear();
        gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
        env.exec_range(spec, 0, core_end, &mut gbls);
    }

    // Wait (line 13).
    exch.complete(env, &mut rec)?;

    // Halo regions in loop order (lines 14-18).
    let mut per_loop = Vec::with_capacity(chain.len());
    for (pos, spec) in chain.loops.iter().enumerate() {
        let ext = chain.halo_ext[pos];
        let sig = spec.sig();
        for d in sig.dats() {
            if let Some((mode, indirect)) = sig.access_of(d) {
                let req = read_requirement(mode, indirect, ext);
                if (env.valid[d.idx()] as usize) < req {
                    return Err(RuntimeError::Validity {
                        rank: env.rank,
                        chain: chain.name.clone(),
                        loop_name: spec.name.clone(),
                        dat: env.dom.dat(d).name.clone(),
                        need: req as u8,
                        have: env.valid[d.idx()],
                    });
                }
            }
        }
        let sl = &env.layout.sets[spec.set.idx()];
        let core_end = sl.core_end(cdepth[pos] - 1);
        let exec_end = sl.exec_end(ext);
        gbls.clear();
        gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
        env.exec_range(spec, core_end, exec_end, &mut gbls);
        per_loop.push((core_end, exec_end - core_end));
        for d in sig.dats() {
            if let Some((mode, indirect)) = sig.access_of(d) {
                if let Some(v) = produced_validity(mode, indirect, ext) {
                    env.valid[d.idx()] = v as u8;
                }
            }
        }
        env.boundary(BoundaryKind::ChainLoop);
    }

    env.trace.record_chain(ChainRec {
        name: Arc::from(chain.name.as_str()),
        per_loop: per_loop.into(),
        d_exchanged: exch.import.len(),
        depth,
        exch: rec,
        stale_reads: 0,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });
    env.boundary(BoundaryKind::Chain);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::{AccessMode as M, GblDecl};

    fn noop(_: &op2_core::Args<'_>) {}

    #[test]
    fn requirements_match_derivation() {
        assert_eq!(read_requirement(M::Read, true, 0), 1);
        assert_eq!(read_requirement(M::Read, true, 2), 2);
        assert_eq!(read_requirement(M::Read, false, 1), 1);
        assert_eq!(read_requirement(M::Inc, true, 1), 0);
        assert_eq!(read_requirement(M::Inc, true, 3), 2);
        assert_eq!(read_requirement(M::Write, true, 2), 0);
        assert_eq!(read_requirement(M::Rw, true, 2), 2);
    }

    #[test]
    fn produced_validity_matches_derivation() {
        assert_eq!(produced_validity(M::Read, true, 2), None);
        assert_eq!(produced_validity(M::Inc, true, 2), Some(1));
        assert_eq!(produced_validity(M::Inc, true, 1), Some(0));
        assert_eq!(produced_validity(M::Write, false, 1), Some(1));
        assert_eq!(produced_validity(M::Rw, true, 3), Some(2));
    }

    /// Both modes run the one lowering: a strict and a relaxed chain
    /// each run every loop's core before the wait and its halo region
    /// after it.
    #[test]
    fn lowering_decision_table() {
        use crate::harness::{run_distributed_with, RunOptions};
        use op2_partition::{build_layouts, derive_ownership, rcb_partition};

        let mut m = op2_mesh::Quad2D::generate(12, 12);
        let a = m.dom.decl_dat_zeros("a", m.nodes, 1);
        let b = m.dom.decl_dat_zeros("b", m.nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            m.edges,
            vec![
                Arg::dat_indirect(a, m.e2n, 0, M::Inc),
                Arg::dat_indirect(a, m.e2n, 1, M::Inc),
            ],
            noop,
        );
        let consume = LoopSpec::new(
            "consume",
            m.edges,
            vec![
                Arg::dat_indirect(a, m.e2n, 0, M::Read),
                Arg::dat_indirect(b, m.e2n, 1, M::Inc),
            ],
            noop,
        );
        let chain = ChainSpec::new("pc", vec![produce, consume], None, &[]).unwrap();
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, 2);
        let own = derive_ownership(&m.dom, m.nodes, base, chain.max_halo_layers());
        let layouts = build_layouts(&m.dom, &own, chain.max_halo_layers());
        let relaxed = ChainSpec {
            relaxed: true,
            ..chain.clone()
        };
        for (name, chain) in [("strict", &chain), ("relaxed", &relaxed)] {
            let out = run_distributed_with(&mut m.dom.clone(), &layouts, &RunOptions::default(), |env| {
                run_chain(env, chain)?;
                run_chain(env, chain)
            });
            for t in &out.traces {
                assert_eq!(t.chains.len(), 2, "{name}: rank {}", t.rank);
                for c in &t.chains {
                    let prewait: usize = c.per_loop.iter().map(|&(core, _)| core).sum();
                    assert!(prewait > 0, "{name}: rank {} {:?}", t.rank, c.per_loop);
                }
            }
            out.unwrap_results();
        }
    }

    /// A config-pinned halo extent that is too small is a typed
    /// [`RuntimeError::Validity`] on a strict chain, not a rank panic;
    /// the same chain marked relaxed runs and counts the read.
    #[test]
    fn under_pinned_chain_is_a_typed_error_on_every_lowering() {
        use crate::error::RankFailure;
        use crate::harness::{run_distributed_with, RunOptions};
        use op2_partition::{build_layouts, derive_ownership, rcb_partition};

        let mut m = op2_mesh::Quad2D::generate(8, 8);
        let a = m.dom.decl_dat_zeros("a", m.nodes, 1);
        let b = m.dom.decl_dat_zeros("b", m.nodes, 1);
        let tmp = m.dom.decl_dat_zeros("tmp", m.nodes, 1);
        let c = m.dom.decl_dat_zeros("c", m.nodes, 1);
        let inc = |d| {
            vec![
                Arg::dat_indirect(d, m.e2n, 0, M::Inc),
                Arg::dat_indirect(d, m.e2n, 1, M::Inc),
            ]
        };
        let produce = LoopSpec::new("produce", m.edges, inc(a), noop);
        let mut args = vec![
            Arg::dat_indirect(a, m.e2n, 0, M::Read),
            Arg::dat_indirect(a, m.e2n, 1, M::Read),
        ];
        args.extend(inc(b));
        let consume = LoopSpec::new("consume", m.edges, args, noop);
        let stage = LoopSpec::new(
            "stage",
            m.nodes,
            vec![Arg::dat_direct(b, M::Read), Arg::dat_direct(tmp, M::Write)],
            noop,
        );
        let apply = LoopSpec::new(
            "apply",
            m.nodes,
            vec![Arg::dat_direct(tmp, M::Read), Arg::dat_direct(c, M::Rw)],
            noop,
        );
        // `consume` runs to extent 2 (the direct pair reads `b` one ring
        // out), so `produce` needs extent 3 to leave `a` valid to depth
        // 2; the config pins it to 1.
        let chain = ChainSpec::new(
            "pinned",
            vec![produce, consume, stage, apply],
            None,
            &[(0, 1)],
        )
        .unwrap();
        assert_eq!(chain.halo_ext, [1, 2, 1, 1]);

        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, 2);
        let own = derive_ownership(&m.dom, m.nodes, base, 2);
        let layouts = build_layouts(&m.dom, &own, 2);
        let out = run_distributed_with(&mut m.dom.clone(), &layouts, &RunOptions::default(), |env| {
            run_chain(env, &chain)
        });
        for r in &out.results {
            match r {
                Err(RankFailure::Failed {
                    error:
                        RuntimeError::Validity {
                            loop_name,
                            dat,
                            need: 2,
                            have: 0,
                            ..
                        },
                    ..
                }) => assert_eq!((loop_name.as_str(), dat.as_str()), ("consume", "a")),
                other => panic!("expected a typed validity error, got {other:?}"),
            }
        }
        let relaxed = ChainSpec {
            relaxed: true,
            ..chain
        };
        let out = run_distributed_with(&mut m.dom.clone(), &layouts, &RunOptions::default(), |env| {
            run_chain(env, &relaxed)
        });
        for t in &out.traces {
            assert_eq!(t.chains[0].stale_reads, 1, "rank {}", t.rank);
        }
        out.unwrap_results();
    }

    #[test]
    fn standalone_extent_rules() {
        let mut dom = op2_core::Domain::new();
        let nodes = dom.decl_set("nodes", 3);
        let edges = dom.decl_set("edges", 2);
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2]).unwrap();
        let x = dom.decl_dat_zeros("x", nodes, 1);
        let inc = LoopSpec::new(
            "inc",
            edges,
            vec![Arg::dat_indirect(x, e2n, 0, M::Inc)],
            noop,
        );
        assert_eq!(standalone_extent(&inc), 1);
        let rd = LoopSpec::new(
            "rd",
            edges,
            vec![Arg::dat_indirect(x, e2n, 0, M::Read)],
            noop,
        );
        assert_eq!(standalone_extent(&rd), 0);
        let direct = LoopSpec::new("dw", nodes, vec![Arg::dat_direct(x, M::Write)], noop);
        assert_eq!(standalone_extent(&direct), 0);
        let red = LoopSpec::with_gbls(
            "red",
            nodes,
            vec![Arg::dat_direct(x, M::Read), Arg::gbl(0, M::Inc)],
            vec![GblDecl::reduction(1)],
            noop,
        );
        assert_eq!(standalone_extent(&red), 0);
    }
}
