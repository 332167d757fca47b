//! Rebalance suite: the online rebalancing subsystem (DESIGN.md §15).
//!
//! The contract under test: migration redistributes *work*, never
//! *values*. For any program whose arithmetic is exact in f64 (the
//! integer-valued produce/consume fixture every bitwise suite in this
//! repo builds on), a run that migrates elements mid-flight is
//! **bitwise identical** to the never-migrated run — at 1, 2 and 4
//! threads, and with a crash + rollback straddling the migration. For
//! the CFD apps, whose kernels round, the partition itself already
//! perturbs low bits: indirect `Inc` contributions at partition
//! boundaries accumulate core-first / halo-after, an order the owner
//! assignment decides, and each rank sums its reduction partials in its
//! own local order before the rank-ordered combine. Two *static* runs on
//! different partitions therefore differ by ~1 ULP at a handful of
//! boundary entries (measured on the MG-CFD small mesh: ≤ 2e-16
//! relative on ~10 of ~2400 entries) and in the last bit of the RMS/norm
//! on some rank counts (MG-CFD at 3 and 6 ranks, Hydra at 5 and 6, on
//! the global-id layouts before the locality order). The migrated run is
//! held to exactly that bar.
//! Pinned down:
//!
//! 1. **Static equivalence sweep**: a trace-triggered (threshold 0),
//!    cost-skewed migration at the first segment boundary leaves the
//!    exact-arithmetic program bitwise equal to the never-migrated
//!    sequential reference at 1, 2 and 4 pool threads.
//! 2. **Crash straddling a migration** (chaos): rank 1 dies in the
//!    first post-migration segment; rollback lands on a post-fence
//!    checkpoint (old-layout checkpoints were dropped by the epoch
//!    fence) and the run still finishes bitwise equal.
//! 3. **Service replanning**: `rebalance_mesh_with_costs` re-keys the
//!    world under a new mesh signature after exactly one plan-cache
//!    fence — the old signature turns into typed `UnknownMesh`, the
//!    first post-migration job re-inspects, the job after it runs
//!    inspection-free, and both match the standalone
//!    reference computed on the *pre-migration* layouts bitwise.
//! 4. **App equivalence**: MG-CFD (at 1/2/4 threads) and Hydra (`Safe`
//!    extents) through `run_job_rebalanced` reproduce the static run's
//!    RMS/norm and every dat entry to ≤ 1e-10 relative; the thread
//!    count inside one run stays invisible to the bit.
//! 5. **Planner invariants** (proptest): arbitrary sequences of
//!    drifting-cost re-shards over shuffled meshes keep every element
//!    owned exactly once, move lists exactly equal to the ownership
//!    diff (ascending ids), localized maps fully resolved, and halo
//!    send/recv segments mirrored across every neighbor pair.

use op2::core::{AccessMode, Arg, Args, ChainSpec, DatId, Domain, GblDecl, LoopSpec, SetId};
use op2::hydra::{self, ExtentMode, Hydra, HydraParams};
use op2::mesh::shuffle::shuffle_set;
use op2::mesh::{drifting_costs, skewed_costs, Quad2D};
use op2::mgcfd::{self, MgCfd, MgCfdParams};
use op2::partition::{
    build_layouts, derive_ownership, ownership_from_layouts, plan_migration, rcb_partition,
    rcb_partition_weighted, RankLayout,
};
use op2::runtime::{
    exec_job_program, run_distributed_with, run_job_rebalanced, FaultPlan, Job, JobStep,
    RankTrace, RebalanceConfig, RebalancePolicy, RebalanceRec, RunOptions, Service,
    ServiceConfig, ServiceError, ShardBasis, SuperviseOptions,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The exact-arithmetic fixture (same shape as tests/service.rs):
// integer-valued data, +1 increments — every sum is exact in f64, so
// results are reassociation-immune and the bitwise contract is provable
// against the sequential reference on any partition schedule.
// ---------------------------------------------------------------------

fn produce_kernel(args: &Args<'_>) {
    args.inc(0, 0, args.get(2, 0) + 1.0);
    args.inc(1, 0, args.get(3, 0) + 2.0);
}

fn consume_kernel(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0));
    args.inc(3, 0, args.get(1, 0));
}

fn bump_kernel(args: &Args<'_>) {
    args.set(0, 0, args.get(0, 0) + 1.0);
}

fn sum_kernel(args: &Args<'_>) {
    args.inc(1, 0, args.get(0, 0));
}

struct Fixture {
    base: Domain,
    layouts: Vec<RankLayout>,
    nodes: SetId,
    coords: DatId,
    seed: DatId,
    dats: Vec<DatId>,
    bump: LoopSpec,
    chain: ChainSpec,
    sum: LoopSpec,
}

impl Fixture {
    fn new(nparts: usize) -> Self {
        let mut mesh = Quad2D::generate(10, 8);
        let n = mesh.dom.set(mesh.nodes).size;
        let seed0: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64).collect();
        let seed = mesh.dom.decl_dat("seed", mesh.nodes, 1, seed0);
        let a = mesh.dom.decl_dat_zeros("a", mesh.nodes, 1);
        let b = mesh.dom.decl_dat_zeros("b", mesh.nodes, 1);
        let bump = LoopSpec::new(
            "bump",
            mesh.nodes,
            vec![Arg::dat_direct(seed, AccessMode::Rw)],
            bump_kernel,
        );
        let produce = LoopSpec::new(
            "produce",
            mesh.edges,
            vec![
                Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(seed, mesh.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(seed, mesh.e2n, 1, AccessMode::Read),
            ],
            produce_kernel,
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
            consume_kernel,
        );
        let chain = ChainSpec::new("pc", vec![produce, consume], None, &[]).unwrap();
        let sum = LoopSpec::with_gbls(
            "sum_b",
            mesh.nodes,
            vec![
                Arg::dat_direct(b, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::reduction(1)],
            sum_kernel,
        );
        let coords = mesh.dom.dat(mesh.coords).data.clone();
        let own =
            derive_ownership(&mesh.dom, mesh.nodes, rcb_partition(&coords, 2, nparts), nparts);
        let layouts = build_layouts(&mesh.dom, &own, 2);
        Fixture {
            base: mesh.dom,
            layouts,
            nodes: mesh.nodes,
            coords: mesh.coords,
            seed,
            dats: vec![seed, a, b],
            bump,
            chain,
            sum,
        }
    }

    /// The strongly skewed cost field: the left half of the mesh is 8x
    /// hotter, so a weighted re-shard genuinely moves elements.
    fn skew(&self) -> Vec<f64> {
        skewed_costs(&self.base.dat(self.coords).data, 2, 0, 8.0)
    }

    fn job(&self, name: &str, iters: usize, salt: u64) -> Job {
        let n = self.base.dat(self.seed).data.len();
        let init: Vec<f64> = (0..n as u64)
            .map(|i| ((i * 7 + salt * 5 + 3) % 17) as f64)
            .collect();
        Job::new(
            name,
            vec![
                JobStep::Loop(self.bump.clone()),
                JobStep::Chain(self.chain.clone()),
            ],
            iters,
        )
        .finish(vec![JobStep::Loop(self.sum.clone())])
        .with_init(self.seed, init)
    }

    /// Standalone reference on the *pre-migration* layouts — exact
    /// arithmetic makes results partition-independent, so
    /// post-migration jobs must still match it bitwise.
    fn standalone(&self, job: &Job, opts: &RunOptions) -> Reference {
        let mut dom = self.base.clone();
        for (dat, data) in &job.init {
            dom.dat_mut(*dat).data.clone_from(data);
        }
        let out = run_distributed_with(&mut dom, &self.layouts, opts, |env| {
            exec_job_program(env, job)
        });
        let gbls = out.unwrap_results().swap_remove(0);
        let dats = self.dats.iter().map(|&d| dom.dat(d).data.clone()).collect();
        (dats, gbls)
    }

    /// Never-migrated reference: the sequential execution of the same
    /// instruction stream.
    fn sequential_reference(&self, iters: usize) -> Domain {
        let mut dom = self.base.clone();
        for _ in 0..iters {
            op2::core::seq::run_loop(&mut dom, &self.bump);
            for l in &self.chain.loops {
                op2::core::seq::run_loop(&mut dom, l);
            }
        }
        dom
    }
}

/// The fixture program through the generic rebalanced host, every knob
/// pinned: segments of 2 iterations, a threshold-0 detector (trips on
/// any measured segment), the skewed cost field steering the re-shard,
/// one migration, and `post_faults` aimed at the first segment on the
/// migrated layout.
fn run_fixture_rebalanced(
    fx: &Fixture,
    dom: &mut Domain,
    iters: usize,
    opts: &SuperviseOptions,
    post_faults: Option<Arc<FaultPlan>>,
) -> (Vec<RankTrace>, RebalanceRec, Vec<RankLayout>) {
    let job = Job::new(
        "fixture",
        vec![
            JobStep::Loop(fx.bump.clone()),
            JobStep::Chain(fx.chain.clone()),
        ],
        iters,
    );
    let policy = RebalancePolicy {
        post_migration_faults: post_faults,
        ..RebalancePolicy::every(2, RebalanceConfig::new(0.0, 8)).with_costs(fx.skew())
    };
    let basis = ShardBasis {
        set: fx.nodes,
        coords: fx.coords,
        dims: 2,
    };
    let (run, rec, layouts) = run_job_rebalanced(dom, &fx.layouts, &job, opts, &policy, basis)
        .expect("rebalanced run failed");
    (run.traces, rec, layouts)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise_equal(want: &Domain, got: &Domain, dats: &[DatId], label: &str) {
    for &d in dats {
        assert_eq!(
            bits(&want.dat(d).data),
            bits(&got.dat(d).data),
            "{label}: dat `{}` diverged from the never-migrated reference",
            want.dat(d).name
        );
    }
}

/// Acceptance 1 (the ISSUE's non-negotiable contract): a trace-
/// triggered migration at the first segment boundary redistributes
/// work without perturbing a single bit — the migrated run equals the
/// never-migrated reference at 1, 2 and 4 pool threads.
#[test]
fn migrated_run_bitwise_matches_static_at_1_2_4_threads() {
    let iters = 4;
    for n_threads in [1usize, 2, 4] {
        let fx = Fixture::new(4);
        let want = fx.sequential_reference(iters);
        let mut dom = fx.base.clone();
        let run = RunOptions::default()
            .with_threads(n_threads)
            .checkpoint_every(1);
        let (_, rec, final_layouts) =
            run_fixture_rebalanced(&fx, &mut dom, iters, &SuperviseOptions::new(run), None);

        // The migration genuinely happened and shipped elements.
        assert_eq!(rec.migrations, 1, "threads {n_threads}");
        assert!(rec.elements_out > 0, "threads {n_threads}: nothing moved");
        assert!(rec.bytes_out > 0, "threads {n_threads}");
        assert!(rec.replans >= 1, "threads {n_threads}");
        let base = fx.nodes.idx();
        assert!(
            final_layouts
                .iter()
                .zip(&fx.layouts)
                .any(|(a, b)| a.sets[base].n_owned != b.sets[base].n_owned),
            "threads {n_threads}: the re-shard left every rank's owned count unchanged"
        );
        assert_bitwise_equal(&want, &dom, &fx.dats, &format!("threads {n_threads}"));
    }
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use op2::runtime::{Boundary, BoundaryKind, FaultSpec};

    /// Acceptance 2: rank 1 dies at the second chain boundary of the
    /// first *post-migration* segment. The epoch fence dropped every
    /// old-layout checkpoint, so the rollback must land on (and does
    /// land on, per the layout-epoch assertion in the restore path) a
    /// checkpoint of the migrated layout — and the run still finishes
    /// bitwise identical to the never-migrated, never-crashed run.
    #[test]
    fn crash_straddling_migration_recovers_bitwise() {
        let iters = 4;
        let fx = Fixture::new(4);
        let want = fx.sequential_reference(iters);
        let mut dom = fx.base.clone();
        let spec =
            FaultSpec::default().with_crash_site(1, Boundary::new(BoundaryKind::Chain, 1));
        let run = RunOptions::default().with_threads(2).checkpoint_every(1);
        let (traces, rec, _) = run_fixture_rebalanced(
            &fx,
            &mut dom,
            iters,
            &SuperviseOptions::new(run),
            Some(Arc::new(FaultPlan::new(spec))),
        );

        assert_eq!(rec.migrations, 1);
        // The crash fired inside the post-migration segment (whose
        // traces the runner returns) and was rolled back. Attempt
        // counters are cumulative per world: one clean pre-migration
        // segment plus two attempts in the crashed segment.
        let rollbacks: u64 = traces.iter().map(|t| t.recovery.rollbacks).sum();
        assert!(rollbacks >= 1, "the straddling crash never fired");
        for t in &traces {
            assert_eq!(t.recovery.attempts, 3, "rank {}", t.rank);
            assert!(t.recovery.checkpoints > 0, "rank {}", t.rank);
        }
        assert_bitwise_equal(&want, &dom, &fx.dats, "straddling crash");
    }
}

// ---------------------------------------------------------------------
// Service replanning.
// ---------------------------------------------------------------------

/// (per-dat data, rank-0 finish-step gbls) of a standalone reference.
type Reference = (Vec<Vec<f64>>, Vec<Vec<Vec<f64>>>);

fn assert_outcome_matches(
    fx: &Fixture,
    out: &op2::runtime::JobOutcome,
    want: &Reference,
    label: &str,
) {
    for (i, &d) in fx.dats.iter().enumerate() {
        assert_eq!(
            bits(&want.0[i]),
            bits(&out.dats[d.idx()]),
            "{label}: dat `{}` diverged from the standalone reference",
            fx.base.dat(d).name
        );
    }
    assert_eq!(want.1.len(), out.gbls.len(), "{label}: finish-step count");
    for (s, (w, g)) in want.1.iter().zip(&out.gbls).enumerate() {
        for (gi, (a, b)) in w.iter().zip(g).enumerate() {
            assert_eq!(bits(a), bits(b), "{label}: finish step {s} gbl {gi} diverged");
        }
    }
}

/// Acceptance 3: live re-sharding of a resident service world. A
/// balanced world refuses to migrate; a cost-skewed one re-keys under a
/// new signature after exactly one plan-cache fence; the old
/// signature turns into typed `UnknownMesh`; the first job on the new
/// signature re-inspects; the job after it runs
/// inspection-free — and both match the pre-migration standalone
/// reference bitwise.
#[test]
fn service_replans_exactly_once_after_migration() {
    let fx = Fixture::new(4);
    let opts = RunOptions::default().with_threads(2);
    let svc = Service::new(ServiceConfig::default().run(opts.clone()));
    let mesh = svc.register_mesh(fx.base.clone(), fx.layouts.clone());

    // Warm the carried plans: cold job inspects, warm job does not.
    let cold = svc.submit(mesh, &fx.job("cold", 3, 1)).unwrap();
    assert!(cold.trace.plan_total().misses > 0);
    let warm = svc.submit(mesh, &fx.job("warm", 3, 2)).unwrap();
    assert_eq!(warm.trace.plan_total().misses, 0, "second job re-inspected");

    // An unmeasured (balanced) world never trips the detector.
    let idle = vec![RankTrace::default(); 4];
    let balanced = svc
        .rebalance_mesh(mesh, fx.nodes, fx.coords, 2, &idle, &RebalanceConfig::default())
        .unwrap();
    assert!(balanced.is_none(), "a balanced world migrated");
    assert_eq!(svc.metrics().rebalances, 0);

    // A skewed cost field forces a live re-shard.
    let new_mesh = svc
        .rebalance_mesh_with_costs(mesh, fx.nodes, fx.coords, 2, &fx.skew(), 2000)
        .unwrap()
        .expect("skewed costs must move elements");
    assert_ne!(new_mesh, mesh, "migration must change the mesh signature");

    // The old signature is dead.
    match svc.submit(mesh, &fx.job("stale", 1, 3)) {
        Err(ServiceError::UnknownMesh { mesh: m }) => assert_eq!(m, mesh),
        other => panic!("expected UnknownMesh for the old signature, got {other:?}"),
    }

    // First post-migration job: one inspection round, bitwise equal to
    // the reference computed on the pre-migration layouts.
    let job = fx.job("post", 3, 4);
    let want = fx.standalone(&job, &opts);
    let post = svc.submit(new_mesh, &job).unwrap();
    assert!(
        post.trace.plan_total().misses > 0,
        "the carried plans survived the migration"
    );
    assert!(!post.trace.warm);
    assert_outcome_matches(&fx, &post, &want, "first post-migration job");

    // Job N+1 runs inspection-free on the post-migration layout.
    let job2 = fx.job("post-warm", 3, 5);
    let want2 = fx.standalone(&job2, &opts);
    let steady = svc.submit(new_mesh, &job2).unwrap();
    let plan = steady.trace.plan_total();
    assert_eq!(plan.misses, 0, "post-migration steady state re-inspected");
    assert!(plan.hits > 0);
    assert!(steady.trace.warm);
    assert_outcome_matches(&fx, &steady, &want2, "steady post-migration job");

    let m = svc.metrics();
    assert_eq!(m.rebalances, 1, "exactly one migration");
    assert!(m.invalidated_plans >= 1, "the carried plans were never fenced");
    assert!(m.migrated_elements > 0);
    assert!(m.migrated_bytes > 0);
    assert_eq!(m.completed, 4);
    assert_eq!(m.failed, 0);
}

// ---------------------------------------------------------------------
// App equivalence. Real CFD kernels round, and both the core-first /
// halo-after execution order of indirect Inc contributions at
// partition-boundary nodes and each rank's reduction order depend on
// the owner assignment — so two *static* runs on different partitions
// already differ by ~1 ULP at a handful of boundary entries (measured:
// ≤ 2e-16 relative on state dats, up to ~2e-12 on cancellation-prone
// residual dats) and in the residual's last bit. The migrated run is
// held to exactly that bar against the never-migrated run: residual and
// every dat entry ≤ 1e-10 relative.
// ---------------------------------------------------------------------

fn assert_close(want: f64, got: f64, tol: f64, label: &str) {
    assert!(
        (want - got).abs() <= tol * want.abs().max(got.abs()),
        "{label}: {want:e} vs {got:e}"
    );
}

fn assert_dats_close(want: &Domain, got: &Domain, tol: f64, label: &str) {
    for (a, b) in want.dats().iter().zip(got.dats()) {
        for (k, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            let denom = x.abs().max(y.abs()).max(1e-300);
            assert!(
                (x - y).abs() <= tol * denom,
                "{label}: dat `{}` entry {k}: {x:e} vs {y:e}",
                a.name
            );
        }
    }
}

fn mgcfd_layouts(app: &MgCfd, nparts: usize) -> Vec<RankLayout> {
    let l0 = &app.levels[0];
    let base = rcb_partition(&app.dom.dat(l0.ids.coords).data, 3, nparts);
    let own = derive_ownership(&app.dom, l0.ids.nodes, base, nparts);
    build_layouts(&app.dom, &own, 2)
}

/// A policy that migrates at the first segment boundary regardless of
/// the measured load (threshold 0 always trips) and re-shards from a
/// strongly skewed cost field, so the re-shard genuinely moves elements.
fn forced_policy(app: &MgCfd) -> RebalancePolicy {
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    RebalancePolicy::every(2, RebalanceConfig::new(0.0, 8))
        .with_costs(skewed_costs(coords, 3, 0, 8.0))
}

/// Acceptance 4a: MG-CFD through `run_job_rebalanced` at 1/2/4 threads:
/// within 1e-10 of the static run, and bitwise equal across the thread
/// counts.
#[test]
fn mgcfd_migrated_run_matches_static_at_1_2_4_threads() {
    let params = MgCfdParams::small(7);
    let iters = 4;
    let mut ref_app = MgCfd::new(params);
    let layouts = mgcfd_layouts(&ref_app, 4);
    let ca = mgcfd::job(&ref_app, mgcfd::Variant::Ca, iters);
    let want = mgcfd::run(&mut ref_app, &layouts, &ca, &RunOptions::default()).unwrap();
    let mut one_thread: Option<(u64, Vec<u64>)> = None;
    for n_threads in [1usize, 2, 4] {
        let mut app = MgCfd::new(params);
        let policy = forced_policy(&app);
        let run = RunOptions::default()
            .with_threads(n_threads)
            .checkpoint_every(1);
        let basis = ShardBasis {
            set: app.levels[0].ids.nodes,
            coords: app.levels[0].ids.coords,
            dims: 3,
        };
        let sopts = SuperviseOptions::new(run);
        let (out, rec, final_layouts) =
            run_job_rebalanced(&mut app.dom, &layouts, &ca, &sopts, &policy, basis)
                .unwrap_or_else(|e| panic!("threads {n_threads}: {e}"));
        let out = mgcfd::RunOutcome::from_job(&app, out);

        assert_eq!(rec.migrations, 1, "threads {n_threads}");
        assert!(rec.elements_out > 0, "threads {n_threads}: nothing moved");
        assert!(rec.bytes_out > 0, "threads {n_threads}");
        let base = app.levels[0].ids.nodes.idx();
        assert!(
            final_layouts
                .iter()
                .zip(&layouts)
                .any(|(a, b)| a.sets[base].n_owned != b.sets[base].n_owned),
            "threads {n_threads}: the re-shard left every rank's owned count unchanged"
        );

        assert_close(want.rms, out.rms, 1e-10, &format!("threads {n_threads}: RMS"));
        assert_dats_close(
            &ref_app.dom,
            &app.dom,
            1e-10,
            &format!("threads {n_threads}"),
        );
        let bits = (
            out.rms.to_bits(),
            app.dom.dats().iter().flat_map(|d| d.data.iter().map(|x| x.to_bits())).collect(),
        );
        match &one_thread {
            None => one_thread = Some(bits),
            Some(first) => assert!(*first == bits, "threads {n_threads} != 1 thread"),
        }
    }
}

/// Acceptance 4b: Hydra through the same host (strict chains: `Safe`
/// extents).
#[test]
fn hydra_migrated_run_matches_static() {
    let params = HydraParams::small(6);
    let iters = 4;
    let mut ref_app = Hydra::new(params);
    let depth = ref_app.required_depth(ExtentMode::Safe);
    let base = rcb_partition(ref_app.mesh.node_coords(), 3, 4);
    let own = derive_ownership(&ref_app.mesh.dom, ref_app.mesh.nodes, base, 4);
    let layouts = build_layouts(&ref_app.mesh.dom, &own, depth);
    let ca = hydra::job(&ref_app, hydra::Variant::ca(ExtentMode::Safe), iters);
    let want = hydra::run(&mut ref_app, &layouts, &ca, &RunOptions::default()).unwrap();

    let mut app = Hydra::new(params);
    let costs = skewed_costs(app.mesh.node_coords(), 3, 0, 8.0);
    let policy = RebalancePolicy::every(2, RebalanceConfig::new(0.0, 8)).with_costs(costs);
    let run = RunOptions::default().checkpoint_every(1);
    let basis = ShardBasis {
        set: app.mesh.nodes,
        coords: app.mesh.coords,
        dims: 3,
    };
    let sopts = SuperviseOptions::new(run);
    let (out, rec, _) =
        run_job_rebalanced(&mut app.mesh.dom, &layouts, &ca, &sopts, &policy, basis).unwrap();
    let out = hydra::RunOutcome::from_job(&app, out);
    assert_eq!(rec.migrations, 1);
    assert!(rec.elements_out > 0);
    assert_close(want.norm, out.norm, 1e-10, "hydra norm");
    assert_dats_close(&ref_app.mesh.dom, &app.mesh.dom, 1e-10, "hydra");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance 5 (satellite): arbitrary sequences of drifting-cost
    /// re-shards over shuffled meshes preserve every partitioner
    /// invariant the startup path guarantees.
    #[test]
    fn migration_sequences_keep_layouts_consistent(
        nx in 4usize..9,
        ny in 4usize..9,
        nparts in 2usize..5,
        shuffle_seed in 0u64..1000,
        cost_seed in 0u64..1000,
        rounds in 1usize..4,
    ) {
        let mut m = Quad2D::generate(nx, ny);
        shuffle_set(&mut m.dom, m.nodes, shuffle_seed);
        let coords = m.dom.dat(m.coords).data.clone();
        let n = m.dom.set(m.nodes).size;
        let base = rcb_partition(&coords, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let mut layouts = build_layouts(&m.dom, &own, 2);

        for round in 0..rounds {
            let costs = drifting_costs(n, cost_seed + round as u64, 6.0);
            let new_base = rcb_partition_weighted(&coords, 2, &costs, nparts);
            // `ownership_from_layouts` itself asserts full coverage —
            // every element of every set owned by exactly one rank.
            let old = ownership_from_layouts(&m.dom, &layouts);
            let plan = plan_migration(&m.dom, m.nodes, &old, new_base.clone(), 2);

            // The requested base assignment is adopted verbatim, and
            // the built layouts round-trip to exactly the planned
            // ownership.
            prop_assert_eq!(&plan.base_owner, &new_base);
            let back = ownership_from_layouts(&m.dom, &plan.layouts);
            prop_assert_eq!(&back.owner, &plan.ownership.owner);

            // Move lists are exactly the ownership diff: ascending ids,
            // endpoints matching old/new owners, complete.
            let mut moved = 0usize;
            for ml in &plan.moves {
                prop_assert!(ml.from != ml.to);
                for sm in &ml.sets {
                    prop_assert!(sm.elems.windows(2).all(|w| w[0] < w[1]));
                    for &e in &sm.elems {
                        prop_assert_eq!(old.of(sm.set, e as usize), ml.from);
                        prop_assert_eq!(plan.ownership.of(sm.set, e as usize), ml.to);
                    }
                    moved += sm.elems.len();
                }
            }
            let mut expect = 0usize;
            for (s, new_own) in plan.ownership.owner.iter().enumerate() {
                expect += old.owner[s].iter().zip(new_own).filter(|(a, b)| a != b).count();
            }
            prop_assert_eq!(moved, expect);

            for l in &plan.layouts {
                // Localized maps resolve for every executable element.
                for (mid, lm) in l.maps.iter().enumerate() {
                    let gm = &m.dom.maps()[mid];
                    let end = l.sets[gm.from.idx()].exec_end(2);
                    for e in 0..end {
                        for i in 0..lm.arity {
                            let v = lm.values[e * lm.arity + i];
                            prop_assert!(v != op2::partition::layout::NONLOCAL);
                        }
                    }
                }
                // Send/recv segment sizes mirror across every pair.
                for nb in &l.neighbors {
                    let peer = &plan.layouts[nb.rank as usize];
                    let back_n = peer.neighbors.iter().find(|p| p.rank == l.rank).unwrap();
                    let sent: usize = back_n.send.iter().map(|s| s.elems.len()).sum();
                    let recvd: usize = nb.recv.iter().map(|r| r.len as usize).sum();
                    prop_assert_eq!(sent, recvd);
                }
            }
            layouts = plan.layouts;
        }
    }
}
