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
//! There is one Alg 2 skeleton (`exec_chain`): [`run_chain`],
//! [`run_chain_relaxed`], [`run_chain_hooked`] and [`run_chain_tiled`]
//! are requests to it, and per-loop, tiled and fused execution are three
//! *lowerings* of its pre-wait and post-wait phases, chosen in one pure
//! function (`choose_lowering`). It is **inspector–executor** split:
//! all analysis (import depths, core depths, execute ranges, pack lists,
//! the validity verdict, every lowered schedule) comes from a cached
//! [`crate::plan::ChainPlan`] — repeat invocations of the same chain in
//! the same dirty-state class do zero re-analysis, which the plan-cache
//! hit counters in the trace make assertable. [`run_chain_unplanned`]
//! keeps the original inline-analysis path as the reference executor
//! the planned path is tested bitwise-equal against.

use crate::env::RankEnv;
use crate::error::RuntimeError;
use crate::fault::BoundaryKind;
use crate::halo::{ExchangePlan, Split};
use crate::plan::{loop_exchange_for, plan_for, LoweringKey};
use crate::policy::FuseMode;
use crate::trace::{ChainRec, ExchangeRec, LoopRec};
use op2_core::seq::LoopResult;
use op2_core::{Arg, ChainSpec, DatId, LoopSpec};

pub use op2_core::chain::{produced_validity, read_requirement};

/// Observation points inside the executors, used by the simulated GPU
/// back-end to account host↔device staging and kernel launches. The CPU
/// path uses [`NoHooks`] (all callbacks empty, fully inlined away).
pub trait ExecHooks {
    /// Packed halo bytes staged out (device→host) before the sends.
    fn stage_out(&mut self, _bytes: usize) {}
    /// Received halo bytes staged in (host→device) after the waits.
    fn stage_in(&mut self, _bytes: usize) {}
    /// A kernel segment of `iters` iterations is launched.
    fn launch(&mut self, _iters: usize) {}
}

/// No-op hooks for plain CPU execution.
pub struct NoHooks;
impl ExecHooks for NoHooks {}

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
/// timeouts, hangups, corruption beyond the retry budget — surface as
/// [`RuntimeError`]s instead of panics.
pub fn run_loop(env: &mut RankEnv<'_>, spec: &LoopSpec) -> Result<LoopResult, RuntimeError> {
    run_loop_hooked(env, spec, &mut NoHooks)
}

/// [`run_loop`] with observation hooks (see [`ExecHooks`]).
pub fn run_loop_hooked(
    env: &mut RankEnv<'_>,
    spec: &LoopSpec,
    hooks: &mut dyn ExecHooks,
) -> Result<LoopResult, RuntimeError> {
    // Post-rollback replay: serve the journaled result (no execution,
    // no communication, no boundary crossing).
    if let Some(gbls) = env.ckpt_skip_loop() {
        return Ok(LoopResult { gbls });
    }
    let t0 = std::time::Instant::now();
    let ext = standalone_extent(spec);
    // One message per (neighbour, dat), from the rank's cache.
    let exch = loop_exchange_for(env, spec);
    debug_assert!(
        exch.import.iter().all(|&(_, d)| d as usize <= env.layout.depth),
        "loop `{}` needs deeper halos than the layout was built with",
        spec.name
    );

    // Post sends (MPI_Isend / Irecv of Alg 1, lines 1-2).
    let mut rec = exch.post(env);
    hooks.stage_out(rec.bytes);

    let set_layout = &env.layout.sets[spec.set.idx()];
    let core_end = set_layout.core_end(0);
    let n_owned = set_layout.n_owned;
    let exec_end = set_layout.exec_end(ext);

    let mut gbls: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();

    // Core while in flight (lines 3-5).
    hooks.launch(core_end);
    env.exec_range(spec, 0, core_end, &mut gbls);

    // Wait (line 6).
    exch.complete(env, &mut rec)?;
    hooks.stage_in(exch.recv_bytes);

    // Boundary-owned iterations contribute to reductions; redundant ring
    // iterations must not.
    hooks.launch(exec_end - core_end);
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
                env.ckpt.note_write(d.idx());
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

    env.trace.loops.push(LoopRec {
        name: spec.name.clone(),
        core_iters: core_end,
        halo_iters: exec_end - core_end,
        d_exchanged: exch.import.len(),
        exch: rec,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });

    env.boundary(BoundaryKind::Loop);
    env.ckpt_loop_done(&gbls);
    Ok(LoopResult { gbls })
}

/// Algorithm 2: execute a loop-chain with the communication-avoiding
/// back-end. Panics if the chain requires deeper halos than the layout
/// was built with (a program error); transport failures and
/// under-provisioned halo extents surface as [`RuntimeError`]s.
///
/// Under [`FuseMode::On`] (or `Auto` when the elided traffic exceeds the
/// exchanged payload) a chain with a fusable group runs its fused
/// whole-chain schedule instead of the per-loop walk — bitwise identical
/// by the fusion legality rules, with elidable intermediates kept in
/// per-worker scratch.
pub fn run_chain(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    exec_chain(env, chain, ChainRequest::Strict, &mut NoHooks)
}

/// [`run_chain`] in *relaxed* mode: halo extents are taken as configured
/// (e.g. pinned to the paper's Table 3–4 values), reads beyond in-chain
/// validity are satisfied by the deepened initial import (pre-chain
/// values — the paper's one-sync-per-chain semantics), and every such
/// potentially-stale read is counted in the chain record instead of
/// failing the chain.
pub fn run_chain_relaxed(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    exec_chain(env, chain, ChainRequest::Relaxed, &mut NoHooks)
}

/// [`run_chain`] with observation hooks (see [`ExecHooks`]).
pub fn run_chain_hooked(
    env: &mut RankEnv<'_>,
    chain: &ChainSpec,
    hooks: &mut dyn ExecHooks,
) -> Result<(), RuntimeError> {
    exec_chain(env, chain, ChainRequest::Hooked, hooks)
}

/// Algorithm 2 combined with §2.2's shared-memory sparse tiling: the
/// grouped multi-level exchange of [`run_chain`], then the rank's entire
/// owned-plus-halo region executed **tile by tile** with the Luporini
/// growth schedule instead of loop-by-loop sweeps — each tile's working
/// set stays cache-resident across the whole chain. This mirrors the
/// paper's two levels: MPI-rank = outer tile, `n_tiles` inner tiles per
/// rank. With threading active, same-level (provably conflict-free)
/// tiles run concurrently on the rank's pool — still bitwise identical
/// to the sequential tile-by-tile walk.
pub fn run_chain_tiled(
    env: &mut RankEnv<'_>,
    chain: &ChainSpec,
    n_tiles: usize,
) -> Result<(), RuntimeError> {
    exec_chain(env, chain, ChainRequest::Tiled(n_tiles), &mut NoHooks)
}

/// What a caller asked of the chain executor — one per public entry
/// point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChainRequest {
    /// [`run_chain`].
    Strict,
    /// [`run_chain_relaxed`].
    Relaxed,
    /// [`run_chain_hooked`].
    Hooked,
    /// [`run_chain_tiled`] with this many tiles.
    Tiled(usize),
}

/// What one chain invocation computes before and after the wait — the
/// three lowerings of Alg 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lowering {
    /// Each loop's core `[0, core_end)`, then each loop's halo region
    /// `[core_end, exec_end)` in loop order (lines 8–12 and 14–18).
    PerLoop,
    /// The plan's overlap-eligible core tiles — footprint inside every
    /// loop's core region, closed under demotion against earlier post
    /// tiles ([`op2_core::tiling::overlap_core_tiles`]) — then the rest,
    /// for this many tiles.
    Tiled(usize),
    /// Nothing (per-element interleaving has no core phase to overlap
    /// with the messages), then the fused whole-chain schedule cached
    /// under this `Fused*` key.
    Fused(LoweringKey),
}

/// The one place a chain's lowering is chosen — pure, from the rank's
/// fusion policy and the caller's request. Relaxed and hooked requests
/// never fuse (staleness and launches are attributed per loop, which a
/// whole-chain schedule cannot do). Otherwise the fused candidate is the
/// tile plan put through fusion for a tiled request, the colored lowering
/// when the rank's pool is active (`pool_block()` = the block size every
/// fused block must honour), direct range interleaving when it is not,
/// and `fused_facts(key)` reports its `(fused pieces, elided bytes)`:
/// `On` takes it whenever anything fused; `Auto` also requires the
/// elided intermediate traffic to exceed `recv_bytes`, the exchanged
/// payload whose overlap the fused executor forgoes.
pub(crate) fn choose_lowering(
    fuse: FuseMode,
    req: ChainRequest,
    recv_bytes: usize,
    pool_block: impl FnOnce() -> Option<usize>,
    fused_facts: impl FnOnce(LoweringKey) -> (u64, u64),
) -> Lowering {
    let unfused = match req {
        ChainRequest::Tiled(n) => Lowering::Tiled(n),
        _ => Lowering::PerLoop,
    };
    if fuse == FuseMode::Off || matches!(req, ChainRequest::Relaxed | ChainRequest::Hooked) {
        return unfused;
    }
    let key = match (req, pool_block()) {
        (ChainRequest::Tiled(n), _) => LoweringKey::FusedTiled(n),
        (_, Some(block)) => LoweringKey::FusedColored(block),
        (_, None) => LoweringKey::FusedDirect,
    };
    let (fused_pieces, elided_bytes) = fused_facts(key);
    let wanted = match fuse {
        FuseMode::Off => false,
        FuseMode::On => true,
        FuseMode::Auto => elided_bytes > recv_bytes as u64,
    };
    if wanted && fused_pieces > 0 {
        Lowering::Fused(key)
    } else {
        unfused
    }
}

/// The Alg 2 skeleton every planned chain entry point runs: replay-skip
/// → cached plan → depth and validity checks → grouped exchange →
/// pre-wait phase → wait → post-wait phase → validity transitions →
/// trace record → boundary → checkpoint note. Only the two phases
/// differ between lowerings (see [`Lowering`]); all three are bitwise
/// identical to the sequential walk.
fn exec_chain(
    env: &mut RankEnv<'_>,
    chain: &ChainSpec,
    req: ChainRequest,
    hooks: &mut dyn ExecHooks,
) -> Result<(), RuntimeError> {
    if env.ckpt_skip_chain() {
        return Ok(());
    }
    let t0 = std::time::Instant::now();
    // Inspector: cached plan lookup — analysis runs only on a miss.
    let relaxed = req == ChainRequest::Relaxed;
    let plan = plan_for(env, chain, relaxed);
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
    // disagreement) is typed, so supervision can treat it as a
    // recoverable fault. Identical on every rank, so nobody is left
    // waiting on an exchange that was never posted.
    if let (false, Some(s)) = (relaxed, plan.stale.first()) {
        return Err(RuntimeError::Validity {
            rank: env.rank,
            chain: chain.name.clone(),
            loop_name: chain.loops[s.pos].name.clone(),
            dat: env.dom.dat(s.dat).name.clone(),
            need: s.need,
            have: s.have,
        });
    }

    // A tiled request counts one tile-plan lookup per invocation,
    // whichever lowering ends up running it.
    let tiled = match req {
        ChainRequest::Tiled(n) => {
            let (tc, built) = plan.tile_schedule(env.layout, chain, n);
            if built {
                env.plans.stats.tile_misses += 1;
            } else {
                env.plans.stats.tile_hits += 1;
            }
            Some(tc)
        }
        _ => None,
    };
    let mut candidate = None;
    let lowering = choose_lowering(
        env.policy.fuse,
        req,
        plan.exchange.recv_bytes,
        || {
            let t = env.policy.threading;
            t.active().then_some(t.block_size)
        },
        |key| {
            let (fc, _) = plan.fused_chain(env.layout, env.dom, chain, key);
            let facts = (fc.fused_pieces, fc.elided_bytes);
            candidate = Some(fc);
            facts
        },
    );
    let fused = candidate.filter(|_| matches!(lowering, Lowering::Fused(_)));

    // Grouped message per neighbour (lines 5-7 of Alg 2), packed via the
    // plan's index lists. A chain importing nothing posts nothing and,
    // unlike Alg 1, takes no tag.
    let mut rec = ExchangeRec::default();
    if !plan.exchange.is_empty() {
        rec = plan.exchange.post(env);
    }
    hooks.stage_out(rec.bytes);

    // One loop's `[start, end)` under the per-loop lowering.
    let mut gbls: Vec<Vec<f64>> = Vec::new();
    let mut run_range = |env: &mut RankEnv<'_>, hooks: &mut dyn ExecHooks, pos, start, end| {
        let spec: &LoopSpec = &chain.loops[pos];
        debug_assert!(!spec.has_reduction());
        gbls.clear();
        gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
        hooks.launch(end - start);
        env.exec_range_in(spec, start, end, &mut gbls, Some((&plan, pos)));
    };

    // Pre-wait phase: what reads nothing the wait delivers runs while
    // the exchange is in flight.
    match (&fused, &tiled) {
        (Some(_), _) => {}
        (None, Some(tc)) => {
            if tc.n_core_tiles > 0 {
                env.exec_chain_schedule(chain, &tc.core);
                env.plans.stats.overlap_tiles += tc.n_core_tiles as u64;
            }
        }
        // The safe core retracts by the loop's in-chain dependency
        // depth; relaxed mode keeps the standard depth-1 core everywhere
        // (the paper's behaviour — staleness tolerated and counted).
        (None, None) => {
            for (pos, &core_end) in plan.core_end.iter().enumerate() {
                run_range(env, hooks, pos, 0, core_end);
            }
        }
    }

    // Wait (line 13) — arrival order: whichever neighbour lands first
    // is unpacked first.
    plan.exchange.complete(env, &mut rec)?;
    hooks.stage_in(plan.exchange.recv_bytes);

    // Post-wait phase. `per_loop` records (prewait, postwait) iteration
    // counts per loop; whole-chain schedules have no per-loop core.
    let mut per_loop: Vec<(usize, usize)> = plan.exec_end.iter().map(|&end| (0, end)).collect();
    match (&fused, &tiled) {
        (Some(fc), _) => {
            env.plans.stats.fused_pieces += fc.fused_pieces;
            env.plans.stats.elided_bytes += fc.elided_bytes;
            env.exec_chain_schedule(chain, &fc.sched);
        }
        (None, Some(tc)) => {
            if tc.n_core_tiles < tc.tiles.n_tiles {
                env.exec_chain_schedule(chain, &tc.post);
            }
        }
        // Halo regions in loop order (lines 14-18).
        (None, None) => {
            for pos in 0..chain.len() {
                let (core_end, exec_end) = (plan.core_end[pos], plan.exec_end[pos]);
                run_range(env, hooks, pos, core_end, exec_end);
                per_loop[pos] = (core_end, exec_end - core_end);
                env.boundary(BoundaryKind::ChainLoop);
            }
        }
    }

    // Validity transitions, in loop order (the tiled and fused
    // interleavings preserve exactly the cross-loop dependences the
    // pre-simulation walked). Fusion-elided intermediates then drop to
    // 0 — their memory was never written, their contents are unspecified
    // by the `with_scratch` contract — and are *not* dirty-marked for
    // checkpointing: rollback restores the same untouched bytes, and
    // replay re-fuses deterministically.
    let elided: &[DatId] = fused.as_ref().map_or(&[], |fc| fc.elided.as_slice());
    for &(d, v) in plan.produces.iter().flatten() {
        env.valid[d.idx()] = v;
        if !elided.contains(&d) {
            env.ckpt.note_write(d.idx());
        }
    }
    for &d in elided {
        env.valid[d.idx()] = 0;
    }

    env.trace.chains.push(ChainRec {
        name: chain.name.clone(),
        per_loop,
        d_exchanged: plan.exchange.import.len(),
        depth: plan.depth,
        exch: rec,
        stale_reads: plan.stale.len(),
        wall_ns: t0.elapsed().as_nanos() as u64,
    });
    env.boundary(BoundaryKind::Chain);
    env.ckpt_chain_done();
    Ok(())
}

/// The original Algorithm 2 executor with **inline analysis** — import
/// depths, core depths, execute ranges and per-loop validity checks
/// re-derived on every call, and a fresh, uncached grouped
/// [`ExchangePlan`] built per call. Kept as the reference path: property
/// tests assert the planned executor is bitwise-equal to this one on
/// random meshes.
pub fn run_chain_unplanned(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    if env.ckpt_skip_chain() {
        return Ok(());
    }
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
    let import = op2_core::chain::import_depths(&sigs, &chain.halo_ext, &valid);
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
                    env.ckpt.note_write(d.idx());
                }
            }
        }
        env.boundary(BoundaryKind::ChainLoop);
    }

    env.trace.chains.push(ChainRec {
        name: chain.name.clone(),
        per_loop,
        d_exchanged: exch.import.len(),
        depth,
        exch: rec,
        stale_reads: 0,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });
    env.boundary(BoundaryKind::Chain);
    env.ckpt_chain_done();
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

    /// The lowering decision as a table over fusion policy × request ×
    /// pool × what fusing would buy. The `Auto` rows carry the four
    /// cases of the deleted `op2_model::classify_fused` arm: a win,
    /// nothing elided, overlap outweighing the saving, and break-even
    /// declining.
    #[test]
    fn lowering_decision_table() {
        use ChainRequest::{Hooked, Relaxed, Strict, Tiled};
        use FuseMode::{Auto, Off, On};
        use LoweringKey::{FusedColored, FusedDirect, FusedTiled};
        const MB: usize = 1 << 20;
        // (fuse, request, pool block, recv bytes, (fused pieces, elided
        // bytes) of the candidate) → expected lowering.
        let rows = [
            (On, Strict, None, MB, (2, 2 * MB), Lowering::Fused(FusedDirect)),
            (On, Strict, None, MB, (2, 0), Lowering::Fused(FusedDirect)),
            (On, Strict, None, MB, (0, 0), Lowering::PerLoop),
            (On, Strict, Some(16), MB, (2, 0), Lowering::Fused(FusedColored(16))),
            (On, Tiled(3), None, MB, (2, 0), Lowering::Fused(FusedTiled(3))),
            (On, Tiled(3), Some(16), MB, (2, 0), Lowering::Fused(FusedTiled(3))),
            (On, Tiled(3), Some(16), MB, (0, 0), Lowering::Tiled(3)),
            (Auto, Strict, None, 0, (2, MB), Lowering::Fused(FusedDirect)),
            (Auto, Strict, None, 0, (2, 0), Lowering::PerLoop),
            (Auto, Strict, None, 10 * MB, (2, 1 << 10), Lowering::PerLoop),
            (Auto, Strict, None, MB, (2, MB), Lowering::PerLoop),
            (Auto, Strict, None, MB, (2, MB + 1), Lowering::Fused(FusedDirect)),
            (Auto, Strict, Some(16), MB, (2, MB + 1), Lowering::Fused(FusedColored(16))),
            (Auto, Strict, Some(16), MB, (0, 0), Lowering::PerLoop),
            (Auto, Tiled(3), None, MB, (2, MB + 1), Lowering::Fused(FusedTiled(3))),
            (Auto, Tiled(3), Some(16), MB, (2, MB), Lowering::Tiled(3)),
            (Auto, Tiled(3), None, MB, (0, 0), Lowering::Tiled(3)),
        ];
        for (fuse, req, block, recv, (pieces, elided), expect) in rows {
            let got = choose_lowering(fuse, req, recv, || block, |_| (pieces, elided as u64));
            assert_eq!(got, expect, "{fuse:?} {req:?} pool={block:?} recv={recv} elided={elided}");
        }
        // Off, relaxed and hooked never fuse and never even ask what
        // fusing would buy (no fused schedule is built for them).
        let never = |fuse, req| {
            choose_lowering(fuse, req, 0, || panic!("pool consulted"), |_| panic!("facts consulted"))
        };
        for fuse in [Off, On, Auto] {
            assert_eq!(never(fuse, Relaxed), Lowering::PerLoop);
            assert_eq!(never(fuse, Hooked), Lowering::PerLoop);
        }
        assert_eq!(never(Off, Strict), Lowering::PerLoop);
        assert_eq!(never(Off, Tiled(5)), Lowering::Tiled(5));
    }

    /// A config-pinned halo extent that is too small is a typed
    /// [`RuntimeError::Validity`] on every lowering — per-loop, tiled and
    /// fused — not a rank panic; relaxed mode runs and counts the read.
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
        // A fusable direct pair, so `FuseMode::On` really picks the fused
        // lowering.
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
        let chain = ChainSpec::new("pinned", vec![produce, consume, stage, apply], None, &[(0, 1)])
            .unwrap()
            .with_scratch(&[tmp]);
        assert_eq!(chain.halo_ext, [1, 2, 1, 1]);
        assert!(!chain.fusion().groups.is_empty(), "the fixture must have a fusable group");

        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, 2);
        let own = derive_ownership(&m.dom, m.nodes, base, 2);
        let layouts = build_layouts(&m.dom, &own, 2);
        type Entry = fn(&mut RankEnv<'_>, &ChainSpec) -> Result<(), RuntimeError>;
        let cases: [(&str, FuseMode, Entry); 3] = [
            ("per-loop", FuseMode::Off, run_chain),
            ("tiled", FuseMode::Off, |env, ch| run_chain_tiled(env, ch, 4)),
            ("fused", FuseMode::On, run_chain),
        ];
        for (name, fuse, entry) in cases {
            let opts = RunOptions::default().fuse(fuse);
            let out = run_distributed_with(&mut m.dom.clone(), &layouts, &opts, |env| {
                entry(env, &chain)
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
                    other => panic!("{name}: expected a typed validity error, got {other:?}"),
                }
            }
        }
        let out = run_distributed_with(&mut m.dom.clone(), &layouts, &RunOptions::default(), |env| {
            run_chain_relaxed(env, &chain)
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
