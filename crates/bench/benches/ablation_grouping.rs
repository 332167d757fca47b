//! Ablation: one grouped message per neighbour (Figure 8) vs one
//! message per (dat, neighbour).
//!
//! Measures wall-clock time of the halo-exchange round alone — post the
//! sends, receive, unpack — over the in-process transport, on a real
//! 4-rank partition with five node dats (the vflux working set). The
//! grouped variant sends 1 message per neighbour; the per-dat variant
//! sends 5. The gap is the per-message overhead the paper's CA back-end
//! eliminates. Both are the one engine — the same `ExchangePlan` import
//! under its two splits, posted and completed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use op2_core::DatId;
use op2_mesh::{Hex3D, Hex3DParams};
use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2_runtime::{run_distributed, ExchangePlan, Split};

fn setup(n: usize, nparts: usize) -> (Hex3D, Vec<RankLayout>, Vec<DatId>) {
    let mut m = Hex3D::generate(Hex3DParams::cube(n));
    let dats: Vec<DatId> = (0..5)
        .map(|i| m.dom.decl_dat_zeros(&format!("d{i}"), m.nodes, if i == 0 { 5 } else { 1 }))
        .collect();
    let base = rcb_partition(m.node_coords(), 3, nparts);
    let own = derive_ownership(&m.dom, m.nodes, base, nparts);
    let layouts = build_layouts(&m.dom, &own, 2);
    (m, layouts, dats)
}

fn bench_grouping(c: &mut Criterion) {
    let (mut mesh, layouts, dats) = setup(16, 4);
    let rounds = 50usize;
    let mut group = c.benchmark_group("exchange_round");
    let import: Vec<(DatId, u8)> = dats.iter().map(|&d| (d, 1)).collect();
    for (label, split) in [("per_dat", Split::PerDat), ("grouped", Split::Grouped)] {
        group.bench_with_input(BenchmarkId::new(label, rounds), &split, |b, &split| {
            b.iter(|| {
                run_distributed(&mut mesh.dom, &layouts, |env| {
                    let x = ExchangePlan::build(env.layout, env.dom, import.clone(), split);
                    for _ in 0..rounds {
                        let mut rec = x.post(env);
                        x.complete(env, &mut rec)?;
                    }
                    Ok(env.comm.sent_msgs)
                })
            })
        });
    }
    group.finish();

    // Print the message-count difference once for the report.
    for split in [Split::PerDat, Split::Grouped] {
        let out = run_distributed(&mut mesh.dom, &layouts, |env| {
            let x = ExchangePlan::build(env.layout, env.dom, import.clone(), split);
            let mut rec = x.post(env);
            x.complete(env, &mut rec)?;
            Ok(rec.n_msgs)
        });
        let total: usize = out.unwrap_results().into_iter().sum();
        eprintln!("{split:?}: {total} messages per round (all ranks)");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_grouping
}
criterion_main!(benches);
