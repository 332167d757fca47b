//! Partitioners compared: speed here, cut quality on stderr.
//!
//! The paper uses ParMETIS k-way for MG-CFD ("best partitions per
//! process") and recursive inertial bisection for Hydra. This bench
//! times our three partitioners on the same mesh and prints their edge
//! cuts and resulting halo sizes — the quantities that feed straight
//! into `m¹`/`mʳ` and hence every result table.
//!
//! The `setup_48cube_shuffled` group times the set-up stages of the
//! `mgcfd-compute` benchmark shape (two-level MG-CFD at 48³, every
//! level's nodes and edges shuffled, two ranks) one by one: the 2-part
//! RCB and RIB splits, the depth-2 layouts of the RCB owners,
//! renumbering every level, and one rank's gather of every dat. Run with `cargo bench -p op2-bench --bench partitioners`.

use criterion::{criterion_group, criterion_main, Criterion};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::DatId;
use op2_mesh::shuffle::shuffle_set;
use op2_mesh::{Csr, Hex3D, Hex3DParams};
use op2_partition::partitioner::cut_edges;
use op2_partition::{
    build_layouts, collect_stats, derive_ownership, kway_partition, rcb_partition, rib_partition,
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

fn bench_setup_stages(c: &mut Criterion) {
    let mut app = MgCfd::new(MgCfdParams {
        finest: Hex3DParams::cube(48),
        levels: 2,
        nchains: 4,
    });
    let shuffle_levels = |app: &mut MgCfd, seed: u64| {
        for (k, l) in app.levels.iter().enumerate() {
            let s = seed + 2 * k as u64;
            shuffle_set(&mut app.dom, l.ids.nodes, s);
            shuffle_set(&mut app.dom, l.ids.edges, s + 1);
        }
    };
    shuffle_levels(&mut app, 4);
    let fine = app.levels[0].ids;
    let coords = app.dom.dat(fine.coords).data.clone();

    let mut group = c.benchmark_group("setup_48cube_shuffled");
    group.bench_function("rcb_2parts", |b| b.iter(|| rcb_partition(black_box(&coords), 3, 2)));
    group.bench_function("rib_2parts", |b| b.iter(|| rib_partition(black_box(&coords), 3, 2)));
    let own = derive_ownership(&app.dom, fine.nodes, rcb_partition(&coords, 3, 2), 2);
    group.bench_function("build_layouts_2parts", |b| {
        b.iter(|| build_layouts(black_box(&app.dom), &own, 2))
    });
    let layout = build_layouts(&app.dom, &own, 2).swap_remove(0);
    group.bench_function("gather_every_dat_rank0", |b| {
        b.iter(|| {
            (0..app.dom.n_dats() as u32)
                .map(|d| {
                    let dat = app.dom.dat(DatId(d));
                    layout.gather(dat.set, dat.dim, &dat.data).len()
                })
                .sum::<usize>()
        })
    });
    // Each call renumbers the already shuffled mesh again: the same work.
    let mut seed = 100;
    group.bench_function("shuffle_every_level", |b| {
        b.iter(|| {
            seed += 4;
            shuffle_levels(&mut app, seed)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_partitioners, bench_setup_stages
}
criterion_main!(benches);
