//! Resident-service throughput: what keeping the world alive buys.
//!
//! A standalone `mg_cfd::run` pays mesh-world boot, chain inspection and
//! transport warm-up on every invocation; a resident [`Service`] pays
//! them once per mesh and amortizes them across every later job via
//! the carried per-rank plan caches and recycled payload pools.
//! Measured here
//! on the MG-CFD CA job:
//!
//! * `cold_submit` — a fresh service per repetition: boot + mesh
//!   registration + full inspection, the per-invocation cost a
//!   standalone run pays (the cold-start baseline);
//! * `warm_submit` — one shared warmed service: every repetition runs
//!   on carried plans and recycled pools (zero inspection, zero
//!   payload allocation) — the steady-state latency;
//! * `warm_batch4` — four same-shape jobs per repetition submitted as
//!   one batch on the warmed service, the back-to-back grouping path.
//!
//! (cold − warm) per job ≈ the boot + inspection cost the resident
//! world saves every tenant after the first.

use criterion::{criterion_group, criterion_main, Criterion};
use mg_cfd::{job, MgCfd, MgCfdParams, RunOutcome, Variant};
use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2_runtime::{Job, Service, ServiceConfig};
use std::hint::black_box;

const ITERS: usize = 2;

fn fixture() -> (MgCfd, Vec<RankLayout>) {
    let app = MgCfd::new(MgCfdParams::small(8));
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, 4);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 4);
    let layouts = build_layouts(&app.dom, &own, 2);
    (app, layouts)
}

/// One CA job through the resident service, folded to its residual.
fn submit(svc: &Service, mesh: u64, app: &MgCfd, ca: &Job) -> f64 {
    let out = svc.submit(mesh, ca).expect("service job");
    RunOutcome::from_job(app, out.into()).rms
}

fn bench_service_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("service_throughput");

    g.bench_function("cold_submit", |b| {
        let (app, layouts) = fixture();
        let ca = job(&app, Variant::Ca, ITERS);
        b.iter(|| {
            let svc = Service::new(ServiceConfig::default());
            let mesh = svc.register_mesh(app.dom.clone(), layouts.clone());
            black_box(submit(&svc, mesh, &app, &ca))
        })
    });

    g.bench_function("warm_submit", |b| {
        let (app, layouts) = fixture();
        let svc = Service::new(ServiceConfig::default());
        let mesh = svc.register_mesh(app.dom.clone(), layouts);
        let ca = job(&app, Variant::Ca, ITERS);
        // Two warm-up jobs: the first fills the carried plan caches,
        // and after the second the recycled pools are at the
        // zero-allocation steady state the repetitions measure.
        for _ in 0..2 {
            submit(&svc, mesh, &app, &ca);
        }
        b.iter(|| black_box(submit(&svc, mesh, &app, &ca)))
    });

    g.bench_function("warm_batch4", |b| {
        let (app, layouts) = fixture();
        let svc = Service::new(ServiceConfig::default());
        let mesh = svc.register_mesh(app.dom.clone(), layouts);
        let ca = job(&app, Variant::Ca, ITERS);
        for _ in 0..2 {
            submit(&svc, mesh, &app, &ca);
        }
        let burst = vec![ca; 4];
        b.iter(|| {
            for r in svc.submit_batch(mesh, black_box(&burst)).expect("batch") {
                black_box(r.expect("batched job").job);
            }
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_service_throughput
}
criterion_main!(benches);
