//! Partitioners compared: speed here, cut quality on stderr.
//!
//! The paper uses ParMETIS k-way for MG-CFD ("best partitions per
//! process") and recursive inertial bisection for Hydra. This bench
//! times our three partitioners on the same mesh and prints their edge
//! cuts and resulting halo sizes — the quantities that feed straight
//! into `m¹`/`mʳ` and hence every result table.

use criterion::{criterion_group, criterion_main, Criterion};
use op2_mesh::{Csr, Hex3D, Hex3DParams};
use op2_partition::partitioner::cut_edges;
use op2_partition::{
    collect_stats, derive_ownership, kway_partition, rcb_partition, rib_partition,
};
use std::hint::black_box;

fn bench_partitioners(c: &mut Criterion) {
    let m = Hex3D::generate(Hex3DParams::cube(20));
    let nparts = 16;
    let graph = Csr::node_graph(m.dom.map(m.e2n), m.dom.set(m.nodes).size);

    let mut group = c.benchmark_group("partition_20cube_16parts");
    group.bench_function("rcb", |b| {
        b.iter(|| rcb_partition(black_box(m.node_coords()), 3, nparts))
    });
    group.bench_function("rib", |b| {
        b.iter(|| rib_partition(black_box(m.node_coords()), 3, nparts))
    });
    group.bench_function("kway", |b| {
        b.iter(|| kway_partition(black_box(&graph), nparts, 3))
    });
    group.finish();

    // Quality report (once): cut edges and max ring-1 halo.
    for (name, owner) in [
        ("rcb", rcb_partition(m.node_coords(), 3, nparts)),
        ("rib", rib_partition(m.node_coords(), 3, nparts)),
        ("kway", kway_partition(&graph, nparts, 3)),
    ] {
        let cut = cut_edges(&m.dom.map(m.e2n).values, &owner);
        let own = derive_ownership(&m.dom, m.nodes, owner, nparts);
        let stats = collect_stats(&m.dom, &own, 1, 4);
        let max_ring1 = stats
            .per_rank
            .iter()
            .map(|r| r.import_levels[m.nodes.idx()][0])
            .max()
            .unwrap_or(0);
        eprintln!(
            "{name}: cut = {cut} edges, p = {}, max node ring-1 = {max_ring1}",
            stats.max_neighbors()
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partitioners
}
criterion_main!(benches);
