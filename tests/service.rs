//! Service suite: the resident multi-job mesh-compute server
//! (DESIGN.md §14).
//!
//! The contract under test: a job submitted to a [`Service`] produces
//! results **bitwise identical** to a standalone
//! `run_distributed` execution of the very same [`exec_job_program`]
//! instruction stream — regardless of thread count, of how many jobs
//! ran on the world before it, of concurrent submitters, and of a
//! crash-and-rollback in the middle of the job. On top of identity:
//!
//! 1. **Standalone equivalence sweep**: two back-to-back jobs at 1, 2
//!    and 4 pool threads each match their standalone reference, and the
//!    second job runs entirely on the world's carried plans (zero chain
//!    inspections).
//! 2. **Randomized equivalence** (proptest): random initial state,
//!    iteration count and thread count all match standalone bitwise.
//! 3. **Concurrent tenants are isolated**: submitter threads racing on
//!    one world each get exactly their own job's results.
//! 4. **Crash isolation** (chaos): a job that loses a rank mid-run
//!    recovers via rollback to its own bitwise-exact result, without
//!    tearing down the world — its neighbors and successors are
//!    untouched and still warm.
//! 5. **Admission control**: an oversized batch is rejected as typed
//!    `Saturated` without leaking capacity.
//! 6. **Steady state**: job 2 performs zero inspections; job 3 performs
//!    zero payload heap allocations.

use op2::core::{AccessMode, Arg, Args, ChainSpec, DatId, Domain, GblDecl, LoopSpec};
use op2::mesh::Quad2D;
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::{
    exec_job_program, run_distributed_with, Job, JobStep, RunOptions, Service, ServiceConfig,
    ServiceError,
};
use proptest::prelude::*;

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
    /// The pristine domain registered with the service; standalone
    /// references run on clones of it.
    base: Domain,
    layouts: Vec<RankLayout>,
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
        let own = derive_ownership(&mesh.dom, mesh.nodes, rcb_partition(&coords, 2, nparts), nparts);
        let layouts = build_layouts(&mesh.dom, &own, 2);
        Fixture {
            base: mesh.dom,
            layouts,
            seed,
            dats: vec![seed, a, b],
            bump,
            chain,
            sum,
        }
    }

    /// The canonical job shape: bump + CA chain per iteration, one
    /// residual reduction at the end, seeded with `salt`-dependent
    /// initial state so distinct jobs are distinguishable bitwise.
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

    /// Standalone reference: the same job program on a pristine clone
    /// of the base domain under plain (unsupervised, fault-free)
    /// `run_distributed_with`. Returns (per-dat data, rank-0 gbls).
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
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// (per-dat data, rank-0 finish-step gbls) of a standalone reference.
type Reference = (Vec<Vec<f64>>, Vec<Vec<Vec<f64>>>);

fn assert_outcome_matches(
    fx: &Fixture,
    out: &op2::runtime::JobOutcome,
    want_dats: &[Vec<f64>],
    want_gbls: &[Vec<Vec<f64>>],
    label: &str,
) {
    for (i, &d) in fx.dats.iter().enumerate() {
        assert_eq!(
            bits(&want_dats[i]),
            bits(&out.dats[d.idx()]),
            "{label}: dat `{}` diverged from the standalone reference",
            fx.base.dat(d).name
        );
    }
    assert_eq!(want_gbls.len(), out.gbls.len(), "{label}: finish-step count");
    for (s, (want, got)) in want_gbls.iter().zip(&out.gbls).enumerate() {
        for (g, (w, h)) in want.iter().zip(got).enumerate() {
            assert_eq!(bits(w), bits(h), "{label}: finish step {s} gbl {g} diverged");
        }
    }
}

/// Acceptance 1: back-to-back jobs at 1/2/4 threads each bitwise equal
/// their standalone reference, and the second job on the mesh skips
/// inspection entirely — every plan comes out of the carried plan cache.
#[test]
fn service_jobs_match_standalone_at_1_2_4_threads() {
    for n_threads in [1usize, 2, 4] {
        let fx = Fixture::new(4);
        let opts = RunOptions::default().with_threads(n_threads);
        let svc = Service::new(ServiceConfig::default().run(opts.clone()));
        let mesh = svc.register_mesh(fx.base.clone(), fx.layouts.clone());
        for (round, salt) in [(0u64, 11u64), (1, 22)] {
            let job = fx.job("sweep", 3, salt);
            let (want_dats, want_gbls) = fx.standalone(&job, &opts);
            let out = svc
                .submit(mesh, &job)
                .unwrap_or_else(|e| panic!("threads {n_threads}, round {round}: {e}"));
            assert_outcome_matches(
                &fx,
                &out,
                &want_dats,
                &want_gbls,
                &format!("threads {n_threads}, round {round}"),
            );
            let plan = out.trace.plan_total();
            if round == 0 {
                assert!(plan.misses > 0, "cold job inspected nothing");
                assert!(!out.trace.warm);
            } else {
                assert_eq!(
                    plan.misses, 0,
                    "threads {n_threads}: warm job re-inspected a chain"
                );
                assert!(plan.hits > 0, "threads {n_threads}");
                assert!(out.trace.warm, "threads {n_threads}");
            }
        }
        let m = svc.metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.warm_jobs, 1);
        assert!(m.warm_jobs >= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Acceptance 2: random initial state, iteration count and thread
    /// count — the service result is always bitwise equal to standalone.
    #[test]
    fn random_jobs_match_standalone(
        salt in 0u64..1000,
        iters in 1usize..4,
        threads_idx in 0usize..3,
    ) {
        let n_threads = [1usize, 2, 4][threads_idx];
        let fx = Fixture::new(4);
        let opts = RunOptions::default().with_threads(n_threads);
        let svc = Service::new(ServiceConfig::default().run(opts.clone()));
        let mesh = svc.register_mesh(fx.base.clone(), fx.layouts.clone());
        let job = fx.job("rand", iters, salt);
        let (want_dats, want_gbls) = fx.standalone(&job, &opts);
        let out = match svc.submit(mesh, &job) {
            Ok(o) => o,
            Err(e) => return Err(TestCaseError::fail(format!("submit failed: {e}"))),
        };
        for (i, &d) in fx.dats.iter().enumerate() {
            prop_assert_eq!(bits(&want_dats[i]), bits(&out.dats[d.idx()]));
        }
        prop_assert_eq!(want_gbls.len(), out.gbls.len());
        for (want, got) in want_gbls.iter().zip(&out.gbls) {
            for (w, h) in want.iter().zip(got) {
                prop_assert_eq!(bits(w), bits(h));
            }
        }
    }
}

/// Acceptance 3: N submitter threads racing on one world each receive
/// exactly their own job's results — per-job domain clones and trace
/// isolation mean no tenant ever observes another's state.
#[test]
fn concurrent_jobs_are_isolated_and_bitwise_exact() {
    let fx = Fixture::new(4);
    let opts = RunOptions::default().with_threads(2);
    let svc = Service::new(ServiceConfig::default().run(opts.clone()));
    let mesh = svc.register_mesh(fx.base.clone(), fx.layouts.clone());
    // Distinct salts *and* iteration counts: every tenant's bitwise
    // signature is unique, so cross-tenant leakage cannot cancel out.
    let tenants: Vec<(Job, Reference)> = (0..4)
        .map(|t| {
            let job = fx.job("tenant", 1 + t % 3, 100 + t as u64);
            let want = fx.standalone(&job, &opts);
            (job, want)
        })
        .collect();
    std::thread::scope(|scope| {
        for (t, (job, (want_dats, want_gbls))) in tenants.iter().enumerate() {
            let (svc, fx) = (&svc, &fx);
            scope.spawn(move || {
                let out = svc
                    .submit(mesh, job)
                    .unwrap_or_else(|e| panic!("tenant {t}: {e}"));
                assert_outcome_matches(fx, &out, want_dats, want_gbls, &format!("tenant {t}"));
            });
        }
    });
    let m = svc.metrics();
    assert_eq!(m.completed, 4);
    assert_eq!(m.failed, 0);
    assert_eq!(svc.inflight(), 0, "a permit leaked");
}

/// Acceptance 5: an oversized batch is rejected up front as typed
/// `Saturated`, per-job accounting records every rejection, and the
/// failed admission leaks no capacity — the next job sails through.
#[test]
fn saturation_is_typed_and_leaks_no_capacity() {
    let fx = Fixture::new(2);
    let svc = Service::new(ServiceConfig::default().max_inflight(2));
    let mesh = svc.register_mesh(fx.base.clone(), fx.layouts.clone());
    let jobs: Vec<Job> = (0..3).map(|t| fx.job("burst", 1, t)).collect();
    match svc.submit_batch(mesh, &jobs) {
        Err(ServiceError::Saturated { inflight, max }) => {
            assert_eq!(inflight, 0);
            assert_eq!(max, 2);
        }
        other => panic!("expected Saturated, got {other:?}"),
    }
    assert_eq!(svc.metrics().rejected, 3);
    assert_eq!(svc.inflight(), 0);
    svc.submit(mesh, &jobs[0]).expect("capacity must recover after a rejection");
}

/// Acceptance 6 (the ISSUE's steady-state criterion): on one mesh, the
/// second job performs zero chain inspections and by the third job the
/// recycled warm pools absorb every payload — zero heap allocations.
#[test]
fn steady_state_reaches_zero_inspection_and_zero_allocs() {
    let fx = Fixture::new(4);
    let svc = Service::new(ServiceConfig::default());
    let mesh = svc.register_mesh(fx.base.clone(), fx.layouts.clone());
    let cold = svc.submit(mesh, &fx.job("cold", 3, 1)).unwrap();
    assert!(cold.trace.plan_total().misses > 0);
    let warm = svc.submit(mesh, &fx.job("warm", 3, 2)).unwrap();
    let plan = warm.trace.plan_total();
    assert_eq!(plan.misses, 0, "second job inspected a chain");
    assert!(plan.hits > 0);
    let steady = svc.submit(mesh, &fx.job("steady", 3, 3)).unwrap();
    assert_eq!(
        steady.trace.payload_allocs(),
        0,
        "steady-state job allocated payload buffers"
    );
    assert_eq!(steady.trace.plan_total().misses, 0);
}

#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use op2::runtime::{Boundary, BoundaryKind, FaultPlan, FaultSpec};

    /// Acceptance 4: one tenant loses rank 1 mid-run and recovers via
    /// the checkpoint/rollback path to a bitwise-exact result; a tenant
    /// racing it and the job after it are untouched — the world is
    /// never torn down and stays warm across the crash.
    #[test]
    fn crashing_job_recovers_bitwise_and_neighbors_are_unaffected() {
        let fx = Fixture::new(4);
        let opts = RunOptions::default().with_threads(2);
        let svc = Service::new(ServiceConfig::default().run(opts.clone()));
        let mesh = svc.register_mesh(fx.base.clone(), fx.layouts.clone());
        // Warm the world so the crash hits a job on carried plans.
        svc.submit(mesh, &fx.job("warmup", 2, 7)).unwrap();

        let spec = FaultSpec::default()
            .with_crash_site(1, Boundary::new(BoundaryKind::Chain, 1));
        let faulted = fx
            .job("victim", 3, 8)
            .with_faults(FaultPlan::new(spec))
            .checkpoint_every(1);
        let clean = fx.job("bystander", 2, 9);
        // The reference is fault-free by construction: standalone runs
        // ignore `Job::faults` (they are applied by the service only).
        let want_faulted = fx.standalone(&faulted, &opts);
        let want_clean = fx.standalone(&clean, &opts);

        std::thread::scope(|scope| {
            let (svc, fx) = (&svc, &fx);
            let (faulted, clean) = (&faulted, &clean);
            let (want_faulted, want_clean) = (&want_faulted, &want_clean);
            scope.spawn(move || {
                let out = svc.submit(mesh, faulted).expect("victim must recover");
                assert_outcome_matches(fx, &out, &want_faulted.0, &want_faulted.1, "victim");
                let roll: u64 = out.trace.ranks.iter().map(|t| t.recovery.rollbacks).sum();
                assert!(roll > 0, "the crash never fired or was not rolled back");
                for t in &out.trace.ranks {
                    assert_eq!(t.recovery.attempts, 2, "rank {}", t.rank);
                }
            });
            scope.spawn(move || {
                let out = svc.submit(mesh, clean).expect("bystander must be unaffected");
                assert_outcome_matches(fx, &out, &want_clean.0, &want_clean.1, "bystander");
                for t in &out.trace.ranks {
                    assert_eq!(
                        t.recovery.rollbacks, 0,
                        "rank {}: a neighbor's crash leaked into this job",
                        t.rank
                    );
                }
            });
        });

        // The crash did not cost the world its warm state: the next job
        // still runs inspection-free on the carried plans.
        let after = svc.submit(mesh, &fx.job("after", 3, 10)).unwrap();
        assert_eq!(after.trace.plan_total().misses, 0, "crash evicted the carried plans");
        let (want_dats, want_gbls) = fx.standalone(&fx.job("after", 3, 10), &opts);
        assert_outcome_matches(&fx, &after, &want_dats, &want_gbls, "post-crash job");
        let m = svc.metrics();
        assert!(m.recoveries >= 1, "the recovery was not accounted");
        assert_eq!(m.failed, 0);
        assert_eq!(m.completed, 4);
    }
}
