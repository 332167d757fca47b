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
//! The chain executors are **inspector–executor** split since the plan
//! subsystem landed: all analysis (import depths, core depths, execute
//! ranges, pack lists, tile schedules) comes from a cached
//! [`crate::plan::ChainPlan`] — repeat invocations of the same chain in
//! the same dirty-state class do zero re-analysis, which the plan-cache
//! hit counters in the trace make assertable. [`run_chain_unplanned`]
//! keeps the original inline-analysis path as the reference executor
//! the planned path is tested bitwise-equal against.

use crate::env::RankEnv;
use crate::error::RuntimeError;
use crate::fault::BoundaryKind;
use crate::trace::{ChainRec, LoopRec};
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
    let exch = exchange_list(env, spec, ext);
    debug_assert!(
        exch.iter().all(|&(_, d)| d as usize <= env.layout.depth),
        "loop `{}` needs deeper halos than the layout was built with",
        spec.name
    );

    // Post sends (MPI_Isend / Irecv of Alg 1, lines 1-2).
    let mut rec = env.exchange(&exch, false);
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
    env.exchange_wait(&exch, false, &mut rec)?;
    hooks.stage_in(env.expected_recv_bytes(&exch));

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
        d_exchanged: exch.len(),
        exch: rec,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });

    env.boundary(BoundaryKind::Loop);
    env.ckpt_loop_done(&gbls);
    Ok(LoopResult { gbls })
}

/// The grouped-import plan of a chain: per dat, the depth the initial
/// grouped exchange must deliver given this rank's current validity.
/// Deterministic across ranks (validity evolves identically everywhere).
pub fn chain_import_depths(env: &RankEnv<'_>, chain: &ChainSpec) -> Vec<(DatId, u8)> {
    let sigs = chain.sigs();
    op2_core::chain::import_depths(&sigs, &chain.halo_ext, &|d| env.valid[d.idx()] as usize)
        .into_iter()
        .map(|(d, t)| (d, t as u8))
        .collect()
}

/// Algorithm 2: execute a loop-chain with the communication-avoiding
/// back-end. Panics if the chain requires deeper halos than the layout
/// was built with (a program error); transport failures surface as
/// [`RuntimeError`]s.
///
/// When the env's [`FuseMode`](crate::env::FuseMode) is `On` (or `Auto`
/// and the profit arm predicts a win) and the chain has at least one
/// fusable group, execution goes through the fused whole-chain schedule
/// instead of the per-loop walk — bitwise identical by the fusion legality rules,
/// with elidable intermediates kept in per-worker scratch. Relaxed-mode
/// and hooked entries never fuse (staleness is counted per loop, which a
/// whole-chain schedule cannot attribute).
pub fn run_chain(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    if env.fuse != crate::env::FuseMode::Off && fuse_wanted(env, chain) {
        return run_chain_fused(env, chain);
    }
    run_chain_mode(env, chain, &mut NoHooks, false)
}

/// [`run_chain`] in *relaxed* mode: halo extents are taken as configured
/// (e.g. pinned to the paper's Table 3–4 values), reads beyond in-chain
/// validity are satisfied by the deepened initial import (pre-chain
/// values — the paper's one-sync-per-chain semantics), and every such
/// potentially-stale read is counted in the chain record instead of
/// asserted against.
pub fn run_chain_relaxed(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    run_chain_mode(env, chain, &mut NoHooks, true)
}

/// [`run_chain`] with observation hooks (see [`ExecHooks`]).
pub fn run_chain_hooked(
    env: &mut RankEnv<'_>,
    chain: &ChainSpec,
    hooks: &mut dyn ExecHooks,
) -> Result<(), RuntimeError> {
    run_chain_mode(env, chain, hooks, false)
}

fn run_chain_mode(
    env: &mut RankEnv<'_>,
    chain: &ChainSpec,
    hooks: &mut dyn ExecHooks,
    relaxed: bool,
) -> Result<(), RuntimeError> {
    if env.ckpt_skip_chain() {
        return Ok(());
    }
    let t0 = std::time::Instant::now();
    // Inspector: cached plan lookup — analysis runs only on a miss.
    let plan = crate::plan::plan_for(env, chain, relaxed);
    assert!(
        plan.depth <= env.layout.depth,
        "chain `{}` needs {} halo layers but the layout was built \
         with {}",
        chain.name,
        plan.depth,
        env.layout.depth
    );

    // Grouped message per neighbour (lines 5-7 of Alg 2), packed via the
    // plan's index lists.
    let mut rec = env.exchange_planned(&plan);
    hooks.stage_out(rec.bytes);

    // Core of every loop while the exchange is in flight (lines 8-12).
    // The safe core retracts by the loop's in-chain dependency depth;
    // relaxed mode keeps the standard depth-1 core everywhere (the
    // paper's behaviour — staleness tolerated and counted).
    let mut gbls: Vec<Vec<f64>> = Vec::new();
    for (pos, spec) in chain.loops.iter().enumerate() {
        debug_assert!(!spec.has_reduction());
        let core_end = plan.core_end[pos];
        gbls.clear();
        gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
        hooks.launch(core_end);
        env.exec_range_planned(spec, 0, core_end, &mut gbls, &plan, pos);
    }

    // Wait (line 13) — arrival order: whichever neighbour lands first
    // is unpacked first.
    env.exchange_wait_planned(&plan, &mut rec)?;
    hooks.stage_in(plan.recv_bytes);

    // Halo regions in loop order (lines 14-18), with validity checked
    // (strict) or staleness counted (relaxed) and updated per loop. The
    // checks run against *live* validity — the plan stores the static
    // requirements, the env tracks how validity actually evolves.
    let mut per_loop = Vec::with_capacity(chain.len());
    let mut stale_reads = 0usize;
    for (pos, spec) in chain.loops.iter().enumerate() {
        for &(d, req) in &plan.reqs[pos] {
            if env.valid[d.idx()] < req {
                if relaxed {
                    stale_reads += 1;
                } else {
                    // An inspector/executor disagreement: typed, so
                    // supervision can treat it as a recoverable fault.
                    return Err(RuntimeError::Validity {
                        rank: env.rank,
                        chain: chain.name.clone(),
                        loop_name: spec.name.clone(),
                        dat: env.dom.dat(d).name.clone(),
                        need: req,
                        have: env.valid[d.idx()],
                    });
                }
            }
        }
        let core_end = plan.core_end[pos];
        let exec_end = plan.exec_end[pos];
        gbls.clear();
        gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
        hooks.launch(exec_end - core_end);
        env.exec_range_planned(spec, core_end, exec_end, &mut gbls, &plan, pos);
        per_loop.push((core_end, exec_end - core_end));
        for &(d, v) in &plan.produces[pos] {
            env.valid[d.idx()] = v;
            env.ckpt.note_write(d.idx());
        }
        env.boundary(BoundaryKind::ChainLoop);
    }

    env.trace.chains.push(ChainRec {
        name: chain.name.clone(),
        per_loop,
        d_exchanged: plan.import.len(),
        depth: plan.depth,
        exch: rec,
        stale_reads,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });
    env.boundary(BoundaryKind::Chain);
    env.ckpt_chain_done();
    Ok(())
}

/// The fused-schedule cache key for this env: the colored lowering when
/// the rank's pool is active (block size = the most conservative of the
/// chain loops' adaptive picks — every fused block must satisfy every
/// member's conflict structure), the direct range interleaving otherwise.
fn fused_key(env: &RankEnv<'_>, chain: &ChainSpec, plan: &crate::plan::ChainPlan) -> crate::plan::FusedKey {
    if env.threads.opts.active() {
        let block = chain
            .loops
            .iter()
            .enumerate()
            .map(|(pos, spec)| env.chosen_block_size(spec, 0, plan.exec_end[pos]))
            .min()
            .unwrap_or(0)
            .max(1);
        (1, block)
    } else {
        (0, 0)
    }
}

/// Should this env run `chain` fused? `On` fuses whenever the chain has
/// a fusable group; `Auto` additionally asks the profit arm
/// ([`op2_model::classify_fused`]): elided intermediate traffic priced
/// against the exchanged payload whose overlap the fused executor
/// forgoes. Builds (and caches) the fused schedule as a side effect —
/// the subsequent `run_chain_fused` lookup is a hash hit.
fn fuse_wanted(env: &mut RankEnv<'_>, chain: &ChainSpec) -> bool {
    let plan = crate::plan::plan_for(env, chain, false);
    let key = fused_key(env, chain, &plan);
    let (fc, _) = plan.fused_chain(env.layout, env.dom, chain, key);
    if fc.fused_pieces == 0 {
        return false;
    }
    match env.fuse {
        crate::env::FuseMode::Off => false,
        crate::env::FuseMode::On => true,
        crate::env::FuseMode::Auto => {
            let overlap_loss_s = plan.recv_bytes as f64 * op2_model::MEM_S_PER_BYTE;
            op2_model::classify_fused(fc.elided_bytes, overlap_loss_s, op2_model::MEM_S_PER_BYTE)
                .fuse
        }
    }
}

/// Algorithm 2 with **cross-loop kernel fusion**: the grouped multi-level
/// exchange of [`run_chain`], then the chain executed through its fused
/// whole-chain [`op2_core::Schedule`] — adjacent fusable loops run every
/// member kernel back-to-back per element, and intermediates whose every
/// access lies inside one group live in per-worker scratch instead of
/// their dats (their memory is never touched; see
/// [`op2_core::ChainSpec::with_scratch`]).
///
/// Latency trade, documented: the fused executor waits out the grouped
/// exchange **before** running the schedule — per-element interleaving
/// has no per-loop core phase to overlap with the messages. `Auto` mode
/// prices exactly this loss against the elided traffic.
///
/// Elided dats keep their pre-chain memory contents and are marked
/// validity-0 (contents unspecified — the `with_scratch` contract), and
/// are *not* dirty-marked for checkpointing: rollback restores the same
/// untouched bytes, and replay re-fuses deterministically.
fn run_chain_fused(env: &mut RankEnv<'_>, chain: &ChainSpec) -> Result<(), RuntimeError> {
    if env.ckpt_skip_chain() {
        return Ok(());
    }
    let t0 = std::time::Instant::now();
    let plan = crate::plan::plan_for(env, chain, false);
    assert!(
        plan.depth <= env.layout.depth,
        "chain `{}` needs {} halo layers but the layout was built with {}",
        chain.name,
        plan.depth,
        env.layout.depth
    );
    let key = fused_key(env, chain, &plan);
    let (fc, _) = plan.fused_chain(env.layout, env.dom, chain, key);
    env.plans.stats.fused_pieces += fc.fused_pieces;
    env.plans.stats.elided_bytes += fc.elided_bytes;

    // Validity pre-simulation, as in the tiled executor: requirements
    // checked in loop order against the post-wait validity, produces
    // applied as the simulation advances. The fused interleaving
    // preserves exactly the per-location cross-loop order the legality
    // analysis admitted, so loop-order simulation is faithful.
    let mut valid = env.valid.clone();
    for &(d, depth) in &plan.import {
        valid[d.idx()] = valid[d.idx()].max(depth);
    }
    for (pos, spec) in chain.loops.iter().enumerate() {
        for &(d, req) in &plan.reqs[pos] {
            assert!(
                valid[d.idx()] >= req,
                "rank {}: fused chain `{}` loop `{}` needs dat `{}` valid to {req}, have {}",
                env.rank,
                chain.name,
                spec.name,
                env.dom.dat(d).name,
                valid[d.idx()],
            );
        }
        for &(d, v) in &plan.produces[pos] {
            valid[d.idx()] = v;
        }
    }

    let mut rec = env.exchange_planned(&plan);
    // No core overlap (see above): wait first, then the whole chain.
    env.exchange_wait_planned(&plan, &mut rec)?;
    env.exec_chain_schedule(chain, &fc.sched, Some(&plan));

    // Validity transitions — then elided intermediates drop to 0: their
    // memory was never written, their contents are unspecified by the
    // `with_scratch` contract.
    env.valid = valid;
    for &d in &fc.elided {
        env.valid[d.idx()] = 0;
    }
    for per_loop in &plan.produces {
        for &(d, _) in per_loop {
            if !fc.elided.contains(&d) {
                env.ckpt.note_write(d.idx());
            }
        }
    }

    env.trace.chains.push(ChainRec {
        name: chain.name.clone(),
        per_loop: plan.exec_end.iter().map(|&r| (0, r)).collect(),
        d_exchanged: plan.import.len(),
        depth: plan.depth,
        exch: rec,
        stale_reads: 0,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });
    env.boundary(BoundaryKind::Chain);
    env.ckpt_chain_done();
    Ok(())
}

/// The original Algorithm 2 executor with **inline analysis** — import
/// depths, core depths and execute ranges re-derived on every call, and
/// the exchange packed through the per-call segment filter. Kept as the
/// reference path: property tests assert the planned executor is
/// bitwise-equal to this one on random meshes.
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
    let exch = chain_import_depths(env, chain);

    // Grouped message per neighbour (lines 5-7 of Alg 2).
    let mut rec = env.exchange(&exch, true);

    // Core of every loop while the exchange is in flight (lines 8-12).
    let cdepth = op2_core::chain::core_depths(&chain.sigs());
    let mut gbls: Vec<Vec<f64>> = Vec::new();
    for (pos, spec) in chain.loops.iter().enumerate() {
        debug_assert!(!spec.has_reduction());
        let core_end = env.layout.sets[spec.set.idx()].core_end(cdepth[pos] - 1);
        gbls.clear();
        gbls.extend(spec.gbls.iter().map(|g| g.init.clone()));
        env.exec_range(spec, 0, core_end, &mut gbls);
    }

    // Wait (line 13).
    env.exchange_wait(&exch, true, &mut rec)?;

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
        d_exchanged: exch.len(),
        depth,
        exch: rec,
        stale_reads: 0,
        wall_ns: t0.elapsed().as_nanos() as u64,
    });
    env.boundary(BoundaryKind::Chain);
    env.ckpt_chain_done();
    Ok(())
}

/// Algorithm 2 combined with §2.2's shared-memory sparse tiling: the
/// grouped multi-level exchange of [`run_chain`], then the rank's entire
/// owned-plus-halo region executed **tile by tile** with the Luporini
/// growth schedule instead of loop-by-loop sweeps — each tile's working
/// set stays cache-resident across the whole chain.
///
/// Latency hiding mirrors [`run_chain`]'s prewait core at tile
/// granularity: the plan's **core tiles** — tiles whose footprint sits
/// inside every loop's core region, closed under demotion against
/// earlier post tiles (see [`op2_core::tiling::overlap_core_tiles`]) —
/// execute while the grouped exchange is in flight; the remaining tiles
/// run after the wait. This mirrors the paper's two levels: MPI-rank =
/// outer tile, `n_tiles` inner tiles per rank. With threading active the
/// plan's leveled tile schedule runs same-level (provably conflict-free)
/// tiles concurrently on the rank's pool — still bitwise identical to
/// the sequential tile-by-tile walk.
pub fn run_chain_tiled(
    env: &mut RankEnv<'_>,
    chain: &ChainSpec,
    n_tiles: usize,
) -> Result<(), RuntimeError> {
    if env.ckpt_skip_chain() {
        return Ok(());
    }
    let t0 = std::time::Instant::now();
    // Inspector: cached chain plan, plus its lazily-built tile schedule
    // for this tile count (the expensive growth inspection runs once).
    let plan = crate::plan::plan_for(env, chain, false);
    assert!(
        plan.depth <= env.layout.depth,
        "chain `{}` needs {} halo layers but the layout was built with {}",
        chain.name,
        plan.depth,
        env.layout.depth
    );
    let (tc, built) = plan.tile_schedule(env.layout, chain, n_tiles);
    if built {
        env.plans.stats.tile_misses += 1;
    } else {
        env.plans.stats.tile_hits += 1;
    }

    // Fusion over the tile lowering: the cached tile schedule put
    // through `Schedule::fuse` (key `(2, n_tiles)`). Only tiles whose
    // per-member slices line up fuse; `On` takes any fusable group,
    // `Auto` asks the profit arm. The fused variant runs the *whole*
    // schedule after the wait — the core/post overlap split does not
    // compose with per-element interleaving.
    let fused = if env.fuse != crate::env::FuseMode::Off {
        let (fc, _) = plan.fused_chain(env.layout, env.dom, chain, (2, n_tiles));
        let want = fc.fused_pieces > 0
            && match env.fuse {
                crate::env::FuseMode::On => true,
                crate::env::FuseMode::Auto => op2_model::classify_fused(
                    fc.elided_bytes,
                    plan.recv_bytes as f64 * op2_model::MEM_S_PER_BYTE,
                    op2_model::MEM_S_PER_BYTE,
                )
                .fuse,
                crate::env::FuseMode::Off => false,
            };
        want.then_some(fc)
    } else {
        None
    };

    // Validity requirements are those of run_chain's halo phase,
    // checked against the validity each loop observes *in loop order* —
    // earlier loops' produced validity satisfies later loops' reads,
    // and the tiled interleaving preserves exactly those cross-loop
    // dependences by construction (the growth stamps order every
    // consumer tile after its producers). The check runs before the
    // exchange, so it simulates the wait's raise from the plan's import
    // list — identical to the post-wait validity.
    let mut valid = env.valid.clone();
    for &(d, depth) in &plan.import {
        valid[d.idx()] = valid[d.idx()].max(depth);
    }
    for (pos, spec) in chain.loops.iter().enumerate() {
        for &(d, req) in &plan.reqs[pos] {
            assert!(
                valid[d.idx()] >= req,
                "rank {}: tiled chain `{}` loop `{}` needs dat `{}` valid to {req}, have {}",
                env.rank,
                chain.name,
                spec.name,
                env.dom.dat(d).name,
                valid[d.idx()],
            );
        }
        for &(d, v) in &plan.produces[pos] {
            valid[d.idx()] = v;
        }
    }

    let mut rec = env.exchange_planned(&plan);

    if let Some(fc) = &fused {
        env.plans.stats.fused_pieces += fc.fused_pieces;
        env.plans.stats.elided_bytes += fc.elided_bytes;
        env.exchange_wait_planned(&plan, &mut rec)?;
        env.exec_chain_schedule(chain, &fc.sched, Some(&plan));
    } else {
        // Core tiles while the exchange is in flight — they read nothing
        // the wait delivers, and the core/post split preserves the full
        // plan's conflict order, so the result stays bitwise identical.
        if tc.n_core_tiles > 0 {
            env.exec_chain_schedule(chain, &tc.core, Some(&plan));
            env.plans.stats.overlap_tiles += tc.n_core_tiles as u64;
        }

        env.exchange_wait_planned(&plan, &mut rec)?;

        // Remaining tiles after the wait — same-level tiles run
        // concurrently on the rank's pool when threading is active,
        // sequentially (bitwise identical) otherwise.
        if tc.n_core_tiles < tc.tiles.n_tiles {
            env.exec_chain_schedule(chain, &tc.post, Some(&plan));
        }
    }

    // Validity transitions, as in run_chain; fusion-elided intermediates
    // drop to 0 (memory untouched, contents unspecified) and are not
    // dirty-marked.
    env.valid = valid;
    let elided: &[DatId] = fused.as_ref().map(|fc| fc.elided.as_slice()).unwrap_or(&[]);
    for &d in elided {
        env.valid[d.idx()] = 0;
    }
    for per_loop in &plan.produces {
        for &(d, _) in per_loop {
            if !elided.contains(&d) {
                env.ckpt.note_write(d.idx());
            }
        }
    }

    env.trace.chains.push(ChainRec {
        name: chain.name.clone(),
        per_loop: plan.exec_end.iter().map(|&r| (0, r)).collect(),
        d_exchanged: plan.import.len(),
        depth: plan.depth,
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
