//! Cached chain plans — the inspector of the inspector–executor split.
//!
//! The CA back-end (Alg 2) is an inspector–executor design: halo-layer
//! analysis, import depths and the grouped per-neighbour message layout
//! are *analysis*, reusable across every repetition of the same chain on
//! the same partition. MG-CFD replays one chain `nchains` times per
//! cycle, so the executors take all of it from a cache.
//!
//! A [`ChainPlan`] captures that analysis once per
//! **(chain signature, dirty-state class)** on a rank's layout:
//!
//! * the chain depth `r` and the grouped entry exchange — import list
//!   (per-dat depths), per-neighbour pack index lists and receive copy
//!   ranges, the wire layout of Figure 8 — as one
//!   [`ExchangePlan`] (see [`crate::halo`]);
//! * per-loop (core, halo) ranges and produced-validity transitions;
//! * the reads the chain leaves stale ([`ChainPlan::stale`]).
//!
//! The import and the stale reads come from one forward walk of the
//! chain's validity ([`op2_core::chain::import_depths`]).
//!
//! Plans live in a per-rank [`PlanCache`] keyed by a stable FNV-1a hash
//! of [`ChainSpec::sigs`]-equivalent structure plus the entry-validity
//! class of the touched dats. A cache belongs to one rank's layout for
//! its whole life (layouts never change after set-up); a change in any
//! touched dat's validity depth selects a different dirty class and
//! therefore a different (or freshly built) plan. Hit/miss counters
//! land in the rank trace so tests can assert that repeat invocations
//! do **zero** re-analysis. The same cache holds the rest of the rank's
//! layout-dependent products, uncounted as plans: Alg 1's per-dat
//! exchange plans ([`loop_plan_for`]) and every pool **lowering** (a
//! loop range lowered for the thread pool), one map keyed by
//! `(loop signature, start, end)` for chain and standalone loops alike,
//! so a chain met in a second dirty class lowers nothing new.
//!
//! A plan also holds what every trace record of its calls shares: the
//! name and, for a chain, the per-loop (core, halo) split, as `Arc`s, so
//! recording a call allocates nothing.

use crate::halo::{ExchangePlan, Split};
use op2_core::chain::{import_depths, produced_validity, StaleRead};
use op2_core::{AccessMode, Arg, ChainSpec, DatId, Domain, LoopSpec, Schedule};
use op2_partition::layout::RankLayout;
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv_bytes(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

pub(crate) fn fnv_usize(h: &mut u64, v: usize) {
    fnv_bytes(h, &v.to_le_bytes());
}

fn mode_code(mode: AccessMode) -> u8 {
    match mode {
        AccessMode::Read => 0,
        AccessMode::Write => 1,
        AccessMode::Rw => 2,
        AccessMode::Inc => 3,
    }
}

/// Stable hash of a chain's structure: loop names, iteration sets,
/// argument access descriptors and halo extents. Identical across ranks and across
/// process runs (no pointer or RandomState input), so it can key caches
/// and cross-rank agreement.
pub fn chain_signature(chain: &ChainSpec) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_bytes(&mut h, chain.name.as_bytes());
    fnv_usize(&mut h, chain.loops.len());
    for (spec, &ext) in chain.loops.iter().zip(&chain.halo_ext) {
        fnv_usize(&mut h, ext);
        fnv_loop(&mut h, spec);
    }
    h
}

/// Hash one loop's structure: name, iteration set, argument access
/// descriptors.
fn fnv_loop(h: &mut u64, spec: &LoopSpec) {
    fnv_bytes(h, spec.name.as_bytes());
    fnv_usize(h, spec.set.idx());
    for arg in &spec.args {
        match arg {
            Arg::Dat { dat, map, mode } => {
                fnv_bytes(h, &[1u8, mode_code(*mode)]);
                fnv_usize(h, dat.idx());
                match map {
                    Some((m, i)) => {
                        fnv_usize(h, m.idx() + 1);
                        fnv_usize(h, *i as usize);
                    }
                    None => fnv_usize(h, 0),
                }
            }
            Arg::Gbl { idx, mode } => {
                fnv_bytes(h, &[2u8, mode_code(*mode)]);
                fnv_usize(h, *idx as usize);
            }
        }
    }
}

/// Stable hash of one loop's structure (name, iteration set, argument
/// access descriptors) — the one-loop analogue of [`chain_signature`],
/// keying the rank's pool lowerings and Alg 1 exchanges.
pub fn loop_signature(spec: &LoopSpec) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_loop(&mut h, spec);
    h
}

/// Dirty-state class of a chain's (or one loop's) `loops` at entry: a
/// hash of the entry validity depths of every dat they touch
/// (first-appearance order). Import depths and therefore the whole
/// exchange layout are a function of these depths, so two invocations
/// in the same class can share one plan verbatim.
pub fn dirty_class(loops: &[LoopSpec], valid: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut seen: Vec<DatId> = Vec::new();
    for spec in loops {
        for arg in &spec.args {
            if let Arg::Dat { dat, .. } = arg {
                if !seen.contains(dat) {
                    seen.push(*dat);
                    fnv_usize(&mut h, dat.idx());
                    fnv_bytes(&mut h, &[valid[dat.idx()]]);
                }
            }
        }
    }
    h
}

/// Everything the chain executors would otherwise recompute per
/// invocation. Immutable once built; shared via `Arc` out of the cache.
#[derive(Debug)]
pub struct ChainPlan {
    /// The chain's name, shared by every record of its calls.
    pub name: Arc<str>,
    /// Import depth `r` (max halo layers).
    pub depth: usize,
    /// The grouped (Alg 2) exchange at chain entry: per dat, the depth
    /// to deliver, and the per-neighbour message layout of Figure 8.
    pub exchange: ExchangePlan,
    /// Per-loop `(core, halo)`: the loop runs `[0, core)` before the
    /// wait and `[core, core + halo)` after it. Every record of the
    /// plan's calls reports this split.
    pub per_loop: Arc<[(usize, usize)]>,
    /// Produced validity, in loop order: (dat, validity after the loop).
    pub produces: Vec<(DatId, u8)>,
    /// Reads the chain makes beyond what an earlier loop of it left
    /// valid, in loop order. The executor fails on the first
    /// ([`crate::error::RuntimeError::Validity`]).
    pub stale: Vec<StaleRead>,
}

impl ChainPlan {
    /// Run the full chain inspection for one rank: import depths and
    /// stale reads (one walk), core depths, execute ranges, validity
    /// transitions and the grouped per-neighbour message layout.
    pub fn build(
        layout: &RankLayout,
        dom: &Domain,
        valid: &[u8],
        chain: &ChainSpec,
    ) -> ChainPlan {
        let sigs = chain.sigs();
        // Where a pinned extent is too small the walk deepens the import
        // instead of panicking: the executor then refuses the chain
        // through `stale` (typed), rather than the inspector killing
        // the rank.
        let walk = import_depths(&sigs, &chain.halo_ext, &|d: DatId| valid[d.idx()] as usize);
        let import = walk.import.into_iter().map(|(d, t)| (d, t as u8)).collect();

        let core_depths = op2_core::chain::core_depths(&sigs);
        let per_loop = (sigs.iter().zip(&core_depths).zip(&chain.halo_ext))
            .map(|((s, &cd), &ext)| {
                let sl = &layout.sets[s.set.idx()];
                let core = sl.core_end(cd - 1);
                (core, sl.exec_end(ext) - core)
            })
            .collect();
        let mut produces = Vec::new();
        for (sig_l, &ext) in sigs.iter().zip(&chain.halo_ext) {
            for d in sig_l.dats() {
                if let Some((mode, indirect)) = sig_l.access_of(d) {
                    if let Some(v) = produced_validity(mode, indirect, ext) {
                        produces.push((d, v as u8));
                    }
                }
            }
        }

        ChainPlan {
            name: Arc::from(chain.name.as_str()),
            depth: chain.max_halo_layers(),
            exchange: ExchangePlan::build(layout, dom, import, Split::Grouped),
            per_loop,
            produces,
            stale: walk.stale,
        }
    }
}

/// Plan-cache activity counters, copied into the rank trace by the
/// harness (alongside the transport counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Chain invocations served from the cache (zero re-analysis).
    pub hits: u64,
    /// Chain invocations that built a fresh plan.
    pub misses: u64,
    /// Threaded executions that reused a cached pool lowering (or the
    /// cached verdict that the loop runs on the rank's own thread).
    pub color_hits: u64,
    /// Threaded executions that built the pool lowering
    /// ([`op2_core::par::thread_schedule`]).
    pub color_misses: u64,
}

impl PlanStats {
    /// Accumulate another rank's counters — how the bench report and
    /// the tests sum per-rank stats.
    pub fn add(&mut self, other: &PlanStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.color_hits += other.color_hits;
        self.color_misses += other.color_misses;
    }
}

/// Per-rank plan cache: `(signature, dirty class) → Arc<ChainPlan>`.
/// It holds every product of the rank's layout.
#[derive(Debug, Default)]
pub struct PlanCache {
    map: HashMap<(u64, u64), Arc<ChainPlan>>,
    /// Alg 1's per-dat exchanges, `(loop signature, dirty class) →
    /// plan`: dropped with the chain plans, never counted in `stats`.
    loops: HashMap<(u64, u64), Arc<LoopPlan>>,
    /// Every pool lowering, `(loop signature, start, end) → lowering`,
    /// for chain and standalone loops alike; `None` when the loop runs on
    /// the rank's own thread. The pool width and block size are the
    /// rank's [`crate::threads::Threading`], fixed for the whole run,
    /// so they are not part of the key.
    pub(crate) lowered: HashMap<(u64, usize, usize), Option<Arc<Schedule>>>,
    /// Activity counters (see [`PlanStats`]).
    pub stats: PlanStats,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached plan count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Look up (or build and cache) the plan for `chain` given the rank's
/// current validity state. The cache hit path does zero halo-layer,
/// import-depth or exchange-layout recomputation.
pub fn plan_for(env: &mut crate::env::RankEnv<'_>, chain: &ChainSpec) -> Arc<ChainPlan> {
    let sig = chain_signature(chain);
    let dirty = dirty_class(&chain.loops, &env.valid);
    if let Some(p) = env.plans.map.get(&(sig, dirty)) {
        env.plans.stats.hits += 1;
        return Arc::clone(p);
    }
    env.plans.stats.misses += 1;
    let plan = Arc::new(ChainPlan::build(env.layout, env.dom, &env.valid, chain));
    env.plans.map.insert((sig, dirty), Arc::clone(&plan));
    plan
}

/// A standalone (Alg 1) loop's cached products under one dirty class.
#[derive(Debug)]
pub struct LoopPlan {
    /// The loop's name, shared by every record of its calls.
    pub name: Arc<str>,
    /// The per-dat exchange the loop posts.
    pub exchange: ExchangePlan,
}

/// The per-dat (Alg 1) exchange `spec` needs under the rank's current
/// validity: its [`crate::exec::exchange_list`] depends only on the
/// loop's structure and its dats' entry validity, so it is derived and
/// resolved against the layout only on a cache miss.
pub fn loop_plan_for(env: &mut crate::env::RankEnv<'_>, spec: &LoopSpec) -> Arc<LoopPlan> {
    let key = (loop_signature(spec), dirty_class(std::slice::from_ref(spec), &env.valid));
    if let Some(x) = env.plans.loops.get(&key) {
        return Arc::clone(x);
    }
    let import = crate::exec::exchange_list(env, spec, crate::exec::standalone_extent(spec));
    let x = Arc::new(LoopPlan {
        name: Arc::from(spec.name.as_str()),
        exchange: ExchangePlan::build(env.layout, env.dom, import, Split::PerDat),
    });
    env.plans.loops.insert(key, Arc::clone(&x));
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use crate::env::RankEnv;
    use op2_core::LoopSpec;
    use op2_mesh::Quad2D;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};

    fn noop(_: &op2_core::Args<'_>) {}

    struct Fix {
        mesh: Quad2D,
        layouts: Vec<RankLayout>,
        chain: ChainSpec,
    }

    fn fix() -> Fix {
        fix_n(6)
    }

    fn fix_n(n: usize) -> Fix {
        let mut mesh = Quad2D::generate(n, n);
        let a = mesh.dom.decl_dat_zeros("a", mesh.nodes, 1);
        let b = mesh.dom.decl_dat_zeros("b", mesh.nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            mesh.edges,
            vec![
                Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let consume = LoopSpec::new(
            "consume",
            mesh.edges,
            vec![
                Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Read),
                Arg::dat_indirect(b, mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(b, mesh.e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let chain = ChainSpec::new("pc", vec![produce, consume], None, &[]).unwrap();
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 1);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 1);
        let layouts = build_layouts(&mesh.dom, &own, 2);
        Fix {
            mesh,
            layouts,
            chain,
        }
    }

    /// The structure hash is stable across clones and sensitive to the
    /// halo extents.
    #[test]
    fn signature_stable_and_discriminating() {
        let f = fix();
        assert_eq!(chain_signature(&f.chain), chain_signature(&f.chain.clone()));
        let mut widened = f.chain.clone();
        widened.halo_ext[1] += 1;
        assert_ne!(chain_signature(&f.chain), chain_signature(&widened));
    }

    /// Repeat lookups in the same dirty class hit; a validity change
    /// selects a different class (miss); a fresh cache starts cold.
    #[test]
    fn cache_hits_and_invalidation() {
        let f = fix();
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&f.layouts[0], &f.mesh.dom, comm);

        let p1 = plan_for(&mut env, &f.chain);
        assert_eq!(env.plans.stats, PlanStats { misses: 1, ..Default::default() });
        let p2 = plan_for(&mut env, &f.chain);
        assert!(Arc::ptr_eq(&p1, &p2), "same class must share the plan");
        assert_eq!(env.plans.stats.hits, 1);

        // Dirty-bit class change: dat `a` becomes fully dirty.
        let a = f.mesh.dom.dat_by_name("a").unwrap();
        env.valid[a.idx()] = 0;
        let p3 = plan_for(&mut env, &f.chain);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(env.plans.stats.misses, 2);
        assert_eq!(env.plans.len(), 2);

        // A fresh cache shares nothing with the old one.
        env.plans = PlanCache::new();
        assert!(env.plans.is_empty());
        let p4 = plan_for(&mut env, &f.chain);
        assert!(!Arc::ptr_eq(&p3, &p4));
        assert_eq!(env.plans.stats, PlanStats { misses: 1, ..Default::default() });
    }

    /// Alg 1's per-dat exchange is cached per (loop, dirty class): repeat
    /// `run_loop`s in one class build it once, a different class builds
    /// another — and none of it touches the chain-plan counters.
    #[test]
    fn loop_exchanges_cached_per_dirty_class() {
        let f = fix();
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&f.layouts[0], &f.mesh.dom, comm);
        let a = f.mesh.dom.dat_by_name("a").unwrap();
        let consume = &f.chain.loops[1];
        let key = |env: &RankEnv<'_>| {
            (loop_signature(consume), dirty_class(std::slice::from_ref(consume), &env.valid))
        };
        let mut first = None;
        for _ in 0..3 {
            env.valid.fill(0);
            let k = key(&env);
            crate::exec::run_loop(&mut env, consume).unwrap();
            let x = Arc::clone(&env.plans.loops[&k]);
            assert_eq!(x.exchange.import, vec![(a, 1)]);
            assert!(Arc::ptr_eq(first.get_or_insert_with(|| Arc::clone(&x)), &x));
        }
        assert_eq!(env.plans.loops.len(), 1, "one class, one plan");
        // `a` is now valid to depth 1: a second class, a second plan.
        crate::exec::run_loop(&mut env, consume).unwrap();
        assert_eq!(env.plans.loops.len(), 2);
        assert_eq!(env.plans.stats, PlanStats::default());
    }

    /// The built plan matches what the executors would derive inline.
    #[test]
    fn plan_matches_inline_analysis() {
        let f = fix();
        let layout = &f.layouts[0];
        let valid = vec![0u8; f.mesh.dom.n_dats()];
        let plan = ChainPlan::build(layout, &f.mesh.dom, &valid, &f.chain);
        assert_eq!(plan.depth, f.chain.max_halo_layers());
        let sigs = f.chain.sigs();
        let walk = import_depths(&sigs, &f.chain.halo_ext, &|_| 0);
        assert!(walk.stale.is_empty(), "{:?}", walk.stale);
        assert!(plan.stale.is_empty(), "{:?}", plan.stale);
        let expect: Vec<(DatId, u8)> =
            walk.import.into_iter().map(|(d, t)| (d, t as u8)).collect();
        assert_eq!(plan.exchange.import, expect);
        let core_depths = op2_core::chain::core_depths(&sigs);
        for (pos, sig_l) in sigs.iter().enumerate() {
            let sl = &layout.sets[sig_l.set.idx()];
            let core = sl.core_end(core_depths[pos] - 1);
            let exec_end = sl.exec_end(f.chain.halo_ext[pos]);
            assert_eq!(plan.per_loop[pos], (core, exec_end - core));
        }
    }

    /// Lowerings are keyed by loop and range, not by plan: a chain met
    /// in a second dirty class builds a second plan but lowers nothing
    /// new.
    #[test]
    fn one_lowering_per_loop_range() {
        use crate::harness::{run_distributed_with, RunOptions};
        use crate::threads::Threading;

        let mut f = fix_n(16);
        let opts = RunOptions::default().threading(Threading {
            n_threads: 2,
            block_size: 16,
        });
        let chain = f.chain.clone();
        let out = run_distributed_with(&mut f.mesh.dom, &f.layouts, &opts, |env| {
            // Entry class (fully valid), then the class the chain leaves
            // behind, twice.
            (0..3)
                .map(|_| {
                    crate::exec::run_chain(env, &chain)?;
                    Ok(env.plans.stats)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        for stats in out.unwrap_results() {
            let [first, second, third] = stats[..] else {
                panic!("three calls, got {stats:?}")
            };
            assert_eq!((first.misses, second.misses, third.misses), (1, 2, 2));
            assert!(first.color_misses > 0, "{first:?}");
            assert_eq!(second.color_misses, first.color_misses, "{second:?}");
            assert_eq!(third.color_misses, first.color_misses, "{third:?}");
        }
    }
}
