//! Ablation: latency hiding (Alg 1's core-first ordering) on vs off.
//!
//! The overlapped executor posts the sends, runs the core while the
//! messages are in flight, waits, then runs the boundary. The
//! non-overlapped variant waits immediately and only then executes
//! everything. On the in-process transport the absolute gap is small
//! (messages fly at memcpy speed), but the ordering machinery itself —
//! prefix cores, range splitting — is exercised and costed.

use criterion::{criterion_group, criterion_main, Criterion};
use op2_core::{AccessMode, Arg, Args, DatId, LoopSpec};
use op2_mesh::{Hex3D, Hex3DParams};
use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2_runtime::exec::{run_loop, standalone_extent};
use op2_runtime::plan::loop_plan_for;
use op2_runtime::run_distributed;

fn flux_kernel(args: &Args<'_>) {
    let d = args.get(2, 0) - args.get(3, 0);
    args.inc(0, 0, d * 0.5);
    args.inc(1, 0, -d * 0.5);
}

fn setup(nparts: usize) -> (Hex3D, Vec<RankLayout>, LoopSpec, DatId) {
    let mut m = Hex3D::generate(Hex3DParams::cube(18));
    let src = {
        let n = m.dom.set(m.nodes).size;
        let vals: Vec<f64> = (0..n).map(|i| (i % 31) as f64).collect();
        m.dom.decl_dat("src", m.nodes, 1, vals)
    };
    let dst = m.dom.decl_dat_zeros("dst", m.nodes, 1);
    let flux = LoopSpec::new(
        "flux",
        m.edges,
        vec![
            Arg::dat_indirect(dst, m.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(dst, m.e2n, 1, AccessMode::Inc),
            Arg::dat_indirect(src, m.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(src, m.e2n, 1, AccessMode::Read),
        ],
        flux_kernel,
    );
    let base = rcb_partition(m.node_coords(), 3, nparts);
    let own = derive_ownership(&m.dom, m.nodes, base, nparts);
    let layouts = build_layouts(&m.dom, &own, 2);
    (m, layouts, flux, src)
}

fn bench_overlap(c: &mut Criterion) {
    let rounds = 20usize;
    let mut group = c.benchmark_group("loop_execution");

    let (mut mesh, layouts, flux, src) = setup(4);
    group.bench_function("overlapped_alg1", |b| {
        b.iter(|| {
            run_distributed(&mut mesh.dom, &layouts, |env| {
                for _ in 0..rounds {
                    env.valid[src.idx()] = 0; // keep the exchange live
                    run_loop(env, &flux)?;
                }
                Ok(())
            })
        })
    });

    let (mut mesh2, layouts2, flux2, src2) = setup(4);
    group.bench_function("no_overlap", |b| {
        b.iter(|| {
            run_distributed(&mut mesh2.dom, &layouts2, |env| {
                for _ in 0..rounds {
                    env.valid[src2.idx()] = 0;
                    // Wait first, then execute everything — no hiding.
                    // The same cached per-dat exchange `run_loop` posts.
                    let plan = loop_plan_for(env, &flux2);
                    let mut rec = plan.exchange.post(env);
                    plan.exchange.complete(env, &mut rec)?;
                    let end = env.layout.sets[flux2.set.idx()].exec_end(standalone_extent(&flux2));
                    let mut gbls = Vec::new();
                    env.exec_range(&flux2, 0, end, &mut gbls);
                }
                Ok(())
            })
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_overlap
}
criterion_main!(benches);
