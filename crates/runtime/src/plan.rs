//! Cached chain plans — the inspector of the inspector–executor split.
//!
//! The CA back-end (Alg 2) is an inspector–executor design: halo-layer
//! analysis, import depths and the grouped per-neighbour message layout
//! are *analysis*, reusable across every repetition of the same chain on
//! the same partition. The
//! executors used to re-derive all of it per invocation even though
//! MG-CFD replays one chain `nchains` times per cycle.
//!
//! A [`ChainPlan`] captures that analysis once per
//! **(chain signature, partition layout, dirty-state class)**:
//!
//! * the chain depth `r` and the grouped entry exchange — import list
//!   (per-dat depths), per-neighbour pack index lists and receive copy
//!   ranges, the wire layout of Figure 8 — as one
//!   [`ExchangePlan`] (see [`crate::halo`]);
//! * per-loop latency-hiding core ends, execute-region ends, read
//!   requirements and produced-validity transitions, and the validity
//!   verdict they imply ([`ChainPlan::stale`]);
//! * lazily, every **lowering** an executor asked for — a loop range
//!   lowered for the thread pool — in one [`LoweringCache`] under one
//!   [`LoweringKey`].
//!
//! Plans live in a per-rank [`PlanCache`] keyed by a stable FNV-1a hash
//! of [`ChainSpec::sigs`]-equivalent structure plus the entry-validity
//! class of the touched dats. A cache belongs to one rank's layout for
//! its whole life (layouts never change after set-up); a change in any
//! touched dat's validity depth selects a different dirty class and
//! therefore a different (or freshly built) plan. Hit/miss counters
//! land in the rank trace so tests can assert that repeat invocations
//! do **zero** re-analysis. The same cache holds the rest of the rank's
//! layout-dependent products, uncounted: Alg 1's per-dat exchange plans
//! ([`loop_plan_for`]) and the standalone-loop lowerings (a second
//! [`LoweringCache`]).
//!
//! A plan also holds what every trace record of its calls shares: the
//! name and, for a chain, the per-loop (core, halo) split, as `Arc`s, so
//! recording a call allocates nothing.

use crate::halo::{ExchangePlan, Split};
use op2_core::chain::{produced_validity, read_requirement};
use op2_core::{AccessMode, Arg, ChainSpec, DatId, Domain, LoopSpec, Schedule};
use op2_partition::layout::RankLayout;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
/// argument access descriptors and halo extents, plus the execution
/// mode. Identical across ranks and across process runs (no pointer or
/// RandomState input), so it can key caches and cross-rank agreement.
pub fn chain_signature(chain: &ChainSpec, relaxed: bool) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_bytes(&mut h, chain.name.as_bytes());
    fnv_usize(&mut h, chain.loops.len());
    for (spec, &ext) in chain.loops.iter().zip(&chain.halo_ext) {
        fnv_usize(&mut h, ext);
        fnv_loop(&mut h, spec);
    }
    fnv_bytes(&mut h, &[u8::from(relaxed)]);
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
/// access descriptors) — the standalone-loop analogue of
/// [`chain_signature`], keying the rank's lowering cache for the Alg 1
/// threaded path.
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
    /// Structure hash (see [`chain_signature`]).
    pub sig: u64,
    /// Dirty-state class (see [`dirty_class`]).
    pub dirty: u64,
    /// Relaxed (paper-mode) analysis?
    pub relaxed: bool,
    /// Import depth `r` (max halo layers).
    pub depth: usize,
    /// The grouped (Alg 2) exchange at chain entry: per dat, the depth
    /// to deliver, and the per-neighbour message layout of Figure 8.
    pub exchange: ExchangePlan,
    /// Per-loop latency-hiding core depths.
    pub core_depths: Vec<usize>,
    /// Per-loop prewait core end (exclusive local index).
    pub core_end: Vec<usize>,
    /// Per-loop execute-region end (owned + rings ≤ extent).
    pub exec_end: Vec<usize>,
    /// Per-loop `(core_end, exec_end - core_end)`: the (core, halo)
    /// split every record of the plan's calls reports.
    pub per_loop: Arc<[(usize, usize)]>,
    /// Per-loop read requirements: (dat, required validity depth).
    pub reqs: Vec<Vec<(DatId, u8)>>,
    /// Per-loop produced validity: (dat, validity after the loop).
    pub produces: Vec<Vec<(DatId, u8)>>,
    /// Reads the chain makes beyond what will be valid when they happen,
    /// in loop order — pre-simulated from the entry validity (which the
    /// dirty class pins), the import, `reqs` and `produces`, so it equals
    /// what a live post-wait check would find. A strict executor fails
    /// on the first ([`crate::error::RuntimeError::Validity`]); a relaxed
    /// one reports the count as `stale_reads`.
    pub stale: Vec<StaleRead>,
    /// Every lowering built for this plan so far (inspector work, paid
    /// once per key), dropped with the plan.
    pub lowered: LoweringCache,
}

/// One under-valid read found by the plan's validity pre-simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRead {
    /// Chain position of the reading loop.
    pub pos: usize,
    /// The dat read.
    pub dat: DatId,
    /// Halo depth the loop requires.
    pub need: u8,
    /// Halo depth valid at that point.
    pub have: u8,
}

/// Which lowering a [`LoweringCache`] entry holds: iterations
/// `[start, end)` of one loop lowered for a `width`-thread pool
/// ([`op2_core::par::thread_schedule`]) at `block` iterations per direct
/// block. `owner` is the loop's chain position in a [`ChainPlan`]'s cache
/// and its [`loop_signature`] in the [`PlanCache`]'s standalone-loop
/// cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoweringKey {
    /// Chain position or loop signature.
    pub owner: u64,
    /// First iteration.
    pub start: usize,
    /// One past the last iteration.
    pub end: usize,
    /// Direct-block size.
    pub block: usize,
    /// Pool width (owner-computes lowers one window per thread).
    pub width: usize,
}

/// The one cache of lowered schedules: key → lowering, each entry built
/// at most once per cache. An entry is `None` when the loop admits no
/// lowering and runs on the rank's own thread. Held by every
/// [`ChainPlan`] (chain loops) and by the rank's [`PlanCache`]
/// (standalone loops).
#[derive(Debug, Default)]
pub struct LoweringCache {
    map: Mutex<HashMap<LoweringKey, Option<Arc<Schedule>>>>,
}

impl LoweringCache {
    /// The lowering under `key`, running `build` on a miss. Returns
    /// `(lowering, built)`. The lock is not held while building.
    pub fn get_or_build(
        &self,
        key: LoweringKey,
        build: impl FnOnce() -> Option<Schedule>,
    ) -> (Option<Arc<Schedule>>, bool) {
        let hit = self.map.lock().expect("lowering cache poisoned").get(&key).cloned();
        if let Some(low) = hit {
            return (low, false);
        }
        let fresh = build().map(Arc::new);
        let mut map = self.map.lock().expect("lowering cache poisoned");
        (map.entry(key).or_insert(fresh).clone(), true)
    }
}

impl ChainPlan {
    /// Run the full chain inspection for one rank: import depths, core
    /// depths, execute ranges, validity bookkeeping and the grouped
    /// per-neighbour message layout.
    pub fn build(
        layout: &RankLayout,
        dom: &Domain,
        valid: &[u8],
        chain: &ChainSpec,
        relaxed: bool,
    ) -> ChainPlan {
        let sig = chain_signature(chain, relaxed);
        let dirty = dirty_class(&chain.loops, valid);
        let depth = chain.max_halo_layers();
        let sigs = chain.sigs();
        let entry = |d: DatId| valid[d.idx()] as usize;
        // The relaxed import analysis in both modes: on consistent
        // extents it equals the strict one, and where a pinned extent is
        // too small it deepens the import instead of panicking — strict
        // executors then refuse the chain through `stale` (typed), rather
        // than the inspector killing the rank.
        let import: Vec<(DatId, u8)> =
            op2_core::chain::import_depths_relaxed(&sigs, &chain.halo_ext, &entry)
                .into_iter()
                .map(|(d, t)| (d, t as u8))
                .collect();

        let core_depths = if relaxed {
            vec![1usize; chain.len()]
        } else {
            op2_core::chain::core_depths(&sigs)
        };
        let core_end: Vec<usize> = sigs
            .iter()
            .zip(&core_depths)
            .map(|(s, &cd)| layout.sets[s.set.idx()].core_end(cd - 1))
            .collect();
        let exec_end: Vec<usize> = sigs
            .iter()
            .zip(&chain.halo_ext)
            .map(|(s, &e)| layout.sets[s.set.idx()].exec_end(e))
            .collect();

        let mut reqs = Vec::with_capacity(chain.len());
        let mut produces = Vec::with_capacity(chain.len());
        for (sig_l, &ext) in sigs.iter().zip(&chain.halo_ext) {
            let mut r = Vec::new();
            let mut p = Vec::new();
            for d in sig_l.dats() {
                if let Some((mode, indirect)) = sig_l.access_of(d) {
                    r.push((d, read_requirement(mode, indirect, ext) as u8));
                    if let Some(v) = produced_validity(mode, indirect, ext) {
                        p.push((d, v as u8));
                    }
                }
            }
            reqs.push(r);
            produces.push(p);
        }

        // Validity pre-simulation: the wait raises every import to its
        // depth, then requirements are met (or not) in loop order as
        // each loop's produced validity lands.
        let mut sim = valid.to_vec();
        for &(d, t) in &import {
            sim[d.idx()] = sim[d.idx()].max(t);
        }
        let mut stale = Vec::new();
        for (pos, (r, p)) in reqs.iter().zip(&produces).enumerate() {
            for &(dat, need) in r {
                let have = sim[dat.idx()];
                if have < need {
                    stale.push(StaleRead { pos, dat, need, have });
                }
            }
            for &(d, v) in p {
                sim[d.idx()] = v;
            }
        }

        let per_loop = core_end.iter().zip(&exec_end).map(|(&c, &e)| (c, e - c)).collect();
        ChainPlan {
            name: Arc::from(chain.name.as_str()),
            sig,
            dirty,
            relaxed,
            depth,
            exchange: ExchangePlan::build(layout, dom, import, Split::Grouped),
            core_depths,
            core_end,
            exec_end,
            per_loop,
            reqs,
            produces,
            stale,
            lowered: LoweringCache::default(),
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
    /// Standalone-loop lowerings, keyed by [`LoweringKey`] with the loop
    /// signature as owner (chain loops keep theirs in the
    /// [`ChainPlan`]).
    pub(crate) lowered: LoweringCache,
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
pub fn plan_for(
    env: &mut crate::env::RankEnv<'_>,
    chain: &ChainSpec,
    relaxed: bool,
) -> Arc<ChainPlan> {
    let sig = chain_signature(chain, relaxed);
    let dirty = dirty_class(&chain.loops, &env.valid);
    if let Some(p) = env.plans.map.get(&(sig, dirty)) {
        env.plans.stats.hits += 1;
        return Arc::clone(p);
    }
    env.plans.stats.misses += 1;
    let plan = Arc::new(ChainPlan::build(
        env.layout,
        env.dom,
        &env.valid,
        chain,
        relaxed,
    ));
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
        let mut mesh = Quad2D::generate(6, 6);
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
    /// execution mode and halo extents.
    #[test]
    fn signature_stable_and_discriminating() {
        let f = fix();
        assert_eq!(
            chain_signature(&f.chain, false),
            chain_signature(&f.chain.clone(), false)
        );
        assert_ne!(
            chain_signature(&f.chain, false),
            chain_signature(&f.chain, true)
        );
        let mut widened = f.chain.clone();
        widened.halo_ext[1] += 1;
        assert_ne!(
            chain_signature(&f.chain, false),
            chain_signature(&widened, false)
        );
    }

    /// Repeat lookups in the same dirty class hit; a validity change
    /// selects a different class (miss); a fresh cache starts cold.
    #[test]
    fn cache_hits_and_invalidation() {
        let f = fix();
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&f.layouts[0], &f.mesh.dom, comm);

        let p1 = plan_for(&mut env, &f.chain, false);
        assert_eq!(env.plans.stats, PlanStats { misses: 1, ..Default::default() });
        let p2 = plan_for(&mut env, &f.chain, false);
        assert!(Arc::ptr_eq(&p1, &p2), "same class must share the plan");
        assert_eq!(env.plans.stats.hits, 1);

        // Dirty-bit class change: dat `a` becomes fully dirty.
        let a = f.mesh.dom.dat_by_name("a").unwrap();
        env.valid[a.idx()] = 0;
        let p3 = plan_for(&mut env, &f.chain, false);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(env.plans.stats.misses, 2);
        assert_eq!(env.plans.len(), 2);

        // A fresh cache shares nothing with the old one.
        env.plans = PlanCache::new();
        assert!(env.plans.is_empty());
        let p4 = plan_for(&mut env, &f.chain, false);
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
        let plan = ChainPlan::build(layout, &f.mesh.dom, &valid, &f.chain, false);
        assert_eq!(plan.depth, f.chain.max_halo_layers());
        let sigs = f.chain.sigs();
        assert_eq!(plan.core_depths, op2_core::chain::core_depths(&sigs));
        let expect: Vec<(DatId, u8)> =
            op2_core::chain::import_depths(&sigs, &f.chain.halo_ext, &|_| 0)
                .into_iter()
                .map(|(d, t)| (d, t as u8))
                .collect();
        assert_eq!(plan.exchange.import, expect);
        for (pos, sig_l) in sigs.iter().enumerate() {
            let ext = f.chain.halo_ext[pos];
            assert_eq!(
                plan.exec_end[pos],
                layout.sets[sig_l.set.idx()].exec_end(ext)
            );
        }
    }

    /// The one lowering cache: the same key yields the same `Arc`, and
    /// dropping the cache drops the schedules together with their plan.
    #[test]
    fn lowering_cache_shares_entries_and_drops_with_the_plan() {
        let f = fix();
        let comm = CommWorld::new(1).into_ranks().remove(0);
        let mut env = RankEnv::new(&f.layouts[0], &f.mesh.dom, comm);
        let plan = plan_for(&mut env, &f.chain, false);

        let key = LoweringKey {
            owner: 0,
            start: 0,
            end: 8,
            block: 4,
            width: 2,
        };
        let builds = std::cell::Cell::new(0);
        let build = || {
            builds.set(builds.get() + 1);
            Some(Schedule::range(0, 8))
        };
        let (a, built) = plan.lowered.get_or_build(key, build);
        assert!(built, "first lookup must build");
        let (b, built) = plan.lowered.get_or_build(key, build);
        assert!(!built, "second lookup must hit");
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds.get(), 1);

        // Replacing the cache lets go of the plan, and with it every
        // schedule.
        let schedule = Arc::downgrade(&a);
        drop((a, b, plan));
        assert!(schedule.upgrade().is_some(), "the cached plan keeps its lowerings alive");
        env.plans = PlanCache::new();
        assert!(schedule.upgrade().is_none(), "dropping the cache must drop the schedule");
    }

    /// Standalone-loop lowerings are cached in the plan cache by key.
    #[test]
    fn plan_cache_caches_standalone_lowerings_by_key() {
        let cache = PlanCache::new();
        let key = LoweringKey {
            owner: 42,
            start: 0,
            end: 100,
            block: 16,
            width: 2,
        };
        let build = || Some(Schedule::range(0, 100));
        let (first, built) = cache.lowered.get_or_build(key, build);
        assert!(built, "first lookup must build");
        let (again, built) = cache.lowered.get_or_build(key, build);
        assert!(!built, "second lookup must hit");
        assert!(Arc::ptr_eq(&first.unwrap(), &again.unwrap()));
    }

    /// A range lowering is per pool width: keys that differ only in
    /// width are separate entries, each built once.
    #[test]
    fn range_lowerings_miss_per_width() {
        let cache = PlanCache::new();
        let key = |width| LoweringKey {
            owner: 42,
            start: 0,
            end: 100,
            block: 16,
            width,
        };
        let build = || Some(Schedule::range(0, 100));
        assert!(cache.lowered.get_or_build(key(2), build).1);
        assert!(cache.lowered.get_or_build(key(4), build).1, "another width must miss");
        assert!(!cache.lowered.get_or_build(key(2), build).1);
        assert!(!cache.lowered.get_or_build(key(4), build).1);
    }
}
