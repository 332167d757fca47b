//! Micro-benchmarks of the runtime's building blocks.
//!
//! `flux_kernel_per_iter` doubles as the calibration run for the model
//! constant `g` (seconds per edge-kernel iteration) — compare its
//! result against `Machine::archer2().g_default`. `update_per_iter` and
//! `edge_flux_per_iter` time the synthetic chain's two cheap indirect
//! loops, where argument resolution is a large share of each iteration.
//! Their `_shuffled` variants run the same loops on the mesh with its
//! nodes and edges shuffled, where the gathers miss the cache: a change
//! to the gather path (the locality-gated prefetch) shows there.
//! `vflux_edge_per_iter` times Hydra's 12-argument `vflux_edge`, the
//! widest compiled kernel body; `update_state_per_iter` its 7-argument
//! direct node loop and `edgecon_per_iter` its 6-argument edge loop (4
//! arguments `Inc`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hydra_sim::app::Step;
use hydra_sim::{ExtentMode, Hydra, HydraParams};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::chain::{calc_halo_extents, calc_halo_layers};
use op2_core::seq;
use op2_mesh::shuffle::shuffle_set;
use op2_mesh::{Hex3D, Hex3DParams};
use op2_partition::rings::{compute_rings, find_seeds, MapAdj};
use op2_partition::{build_layouts, collect_stats, derive_ownership, rcb_partition};
use std::hint::black_box;

fn bench_flux_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("seq_kernels");
    // Generator numbering, then the same mesh with its nodes and edges
    // shuffled: there the sequential walk's gathers miss the cache, and
    // the locality gate turns the prefetching walk on.
    for (suffix, shuffled) in [("", false), ("_shuffled", true)] {
        let mut params = MgCfdParams::small(24);
        params.levels = 1;
        let mut app = MgCfd::new(params);
        if shuffled {
            let ids = app.levels[0].ids;
            shuffle_set(&mut app.dom, ids.nodes, 4);
            shuffle_set(&mut app.dom, ids.edges, 5);
        }
        let init = app.init_loop(0);
        seq::run_loop(&mut app.dom, &init);
        let loops = [
            ("flux_kernel_per_iter", app.flux_loop(0)),
            ("update_per_iter", app.update_loop()),
            ("edge_flux_per_iter", app.edge_flux_loop()),
        ];
        let n_edges = app.dom.set(app.levels[0].ids.edges).size;
        g.throughput(Throughput::Elements(n_edges as u64));
        for (name, spec) in &loops {
            g.bench_function(format!("{name}{suffix}"), |b| {
                b.iter(|| {
                    seq::run_loop(black_box(&mut app.dom), black_box(spec));
                })
            });
        }
    }

    let mut hydra = Hydra::new(HydraParams::small(24));
    let init = hydra.init_loop();
    seq::run_loop(&mut hydra.mesh.dom, &init);
    let iteration = hydra.iteration(false, ExtentMode::Safe);
    let hydra_loop = |name: &str| {
        iteration
            .iter()
            .find_map(|s| match s {
                Step::Loop(l) if l.name == name => Some(l.clone()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("the iteration runs {name}"))
    };
    let n_edges = hydra.mesh.dom.set(hydra.mesh.edges).size;
    let n_nodes = hydra.mesh.dom.set(hydra.mesh.nodes).size;
    let hydra_loops = [
        ("vflux_edge_per_iter", hydra_loop("vflux_edge"), n_edges),
        ("update_state_per_iter", hydra_loop("update_state"), n_nodes),
        ("edgecon_per_iter", hydra_loop("edgecon"), n_edges),
    ];
    for (name, spec, n) in &hydra_loops {
        g.throughput(Throughput::Elements(*n as u64));
        g.bench_function(*name, |b| {
            b.iter(|| {
                seq::run_loop(black_box(&mut hydra.mesh.dom), black_box(spec));
            })
        });
    }
    g.finish();
}

fn bench_analysis(c: &mut Criterion) {
    // A long synthetic chain to stress the dependency analyses.
    let mut params = MgCfdParams::small(4);
    params.levels = 1;
    params.nchains = 16;
    let app = MgCfd::new(params);
    let chain = app.synthetic_chain().unwrap();
    let sigs = chain.sigs();
    c.bench_function("calc_halo_layers_32loops", |b| {
        b.iter(|| calc_halo_layers(black_box(&sigs)))
    });
    c.bench_function("calc_halo_extents_32loops", |b| {
        b.iter(|| calc_halo_extents(black_box(&sigs)))
    });
}

fn bench_inspection(c: &mut Criterion) {
    let m = Hex3D::generate(Hex3DParams::cube(16));
    let base = rcb_partition(m.node_coords(), 3, 8);
    let own = derive_ownership(&m.dom, m.nodes, base, 8);

    c.bench_function("rings_one_rank_16cube_8parts", |b| {
        let adj = MapAdj::build(&m.dom);
        let seeds = find_seeds(&m.dom, &own);
        b.iter(|| compute_rings(&m.dom, &adj, &own, &seeds, 0, 2, 2))
    });
    c.bench_function("build_layouts_16cube_8parts", |b| {
        b.iter(|| build_layouts(black_box(&m.dom), black_box(&own), 2))
    });
    // The `mgcfd-compute` benchmark shape: two-level MG-CFD at 48³,
    // every level's nodes and edges shuffled, split in two by RCB.
    let mut app = MgCfd::new(MgCfdParams {
        finest: Hex3DParams::cube(48),
        levels: 2,
        nchains: 4,
    });
    for (k, l) in app.levels.iter().enumerate() {
        let s = 4 + 2 * k as u64;
        shuffle_set(&mut app.dom, l.ids.nodes, s);
        shuffle_set(&mut app.dom, l.ids.edges, s + 1);
    }
    let fine = app.levels[0].ids;
    let base = rcb_partition(&app.dom.dat(fine.coords).data, 3, 2);
    let own2 = derive_ownership(&app.dom, fine.nodes, base, 2);
    c.bench_function("build_layouts_48cube_shuffled_2parts", |b| {
        b.iter(|| build_layouts(black_box(&app.dom), black_box(&own2), 2))
    });
    for threads in [1usize, 4] {
        c.bench_with_input(
            BenchmarkId::new("collect_stats_16cube_8parts", threads),
            &threads,
            |b, &t| b.iter(|| collect_stats(&m.dom, &own, 2, t)),
        );
    }
}

fn bench_partition_inputs(c: &mut Criterion) {
    let m = Hex3D::generate(Hex3DParams::cube(24));
    c.bench_function("rcb_24cube_16parts", |b| {
        b.iter(|| rcb_partition(black_box(m.node_coords()), 3, 16))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_flux_kernel, bench_analysis, bench_inspection, bench_partition_inputs
}
criterion_main!(benches);
