//! Migration cost: how expensive is a live re-shard?
//!
//! The online rebalancing subsystem (DESIGN.md §15) pays three
//! distinguishable costs when the imbalance detector trips: the
//! weighted re-shard itself, the migration *plan* (ownership diff +
//! ring/halo/grouped-message layout rebuild), and the *ship* (dat
//! slices + renumbering tables over the fault-tolerant transport, then
//! applied to the domain). This bench times each on a 3D mesh with a
//! strongly skewed cost field — the same forced-migration setup the
//! acceptance tests (`tests/rebalance.rs`) use — and prints the
//! migration volume once on stderr.

use criterion::{criterion_group, criterion_main, Criterion};
use op2_mesh::{skewed_costs, Hex3D, Hex3DParams};
use op2_partition::{
    build_layouts, derive_ownership, ownership_from_layouts, plan_migration, rcb_partition,
    rcb_partition_weighted,
};
use op2_runtime::{rebalance, RunOptions};
use std::hint::black_box;

fn bench_migration(c: &mut Criterion) {
    // Elongated in x so the RCB cut planes cross the skew axis — on a
    // perfect cube the first cuts can land on weight-symmetric axes and
    // the weighted re-shard degenerates to a no-op.
    let m = Hex3D::generate(Hex3DParams {
        nx: 24,
        ny: 12,
        nz: 12,
    });
    let nparts = 4;
    let dims = 3;
    let coords = m.node_coords();
    let base = rcb_partition(coords, dims, nparts);
    let own = derive_ownership(&m.dom, m.nodes, base, nparts);
    let layouts = build_layouts(&m.dom, &own, 2);
    let costs = skewed_costs(coords, dims, 0, 8.0);

    let mut group = c.benchmark_group("migration_24x12x12_4parts");
    group.bench_function("weighted_reshard", |b| {
        b.iter(|| rcb_partition_weighted(black_box(coords), dims, black_box(&costs), nparts))
    });
    let new_base = rcb_partition_weighted(coords, dims, &costs, nparts);
    group.bench_function("plan", |b| {
        b.iter(|| {
            let old = ownership_from_layouts(&m.dom, &layouts);
            plan_migration(black_box(&m.dom), m.nodes, &old, new_base.clone(), 2)
        })
    });
    group.bench_function("ship", |b| {
        // The full executor: re-shard, diff, rebuild layouts, ship the
        // moved slices over the transport and apply them. The domain is
        // cloned per iteration so every pass migrates from the same
        // starting ownership.
        b.iter(|| {
            let mut dom = m.dom.clone();
            rebalance(
                &mut dom,
                m.nodes,
                m.coords,
                dims,
                black_box(&layouts),
                &costs,
                1800,
                &RunOptions::default(),
            )
            .expect("migration failed")
            .expect("skewed costs must move elements")
        })
    });
    group.finish();

    // Volume report (once): what the skewed re-shard actually moves.
    let mut dom = m.dom.clone();
    let out = rebalance(
        &mut dom,
        m.nodes,
        m.coords,
        dims,
        &layouts,
        &costs,
        1800,
        &RunOptions::default(),
    )
    .expect("migration failed")
    .expect("skewed costs must move elements");
    eprintln!(
        "migration: {} elements, {} bytes, replan {:.2}ms, imbalance {} -> {} milli",
        out.rec.elements_out,
        out.rec.bytes_out,
        out.rec.replan_ns as f64 / 1e6,
        out.rec.imbalance_before_milli,
        out.rec.imbalance_after_milli
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_migration
}
criterion_main!(benches);
