//! Analytic-model explorer: when does a loop-chain profit from CA?
//!
//! Sweeps the paper's model (Eqs 1–4) over partition sizes and loop
//! counts for a synthetic chain, using measured halo statistics at one
//! configuration and surface/volume extrapolation everywhere else —
//! printing the gain% landscape whose sign structure is the paper's
//! central profitability insight (§3.2):
//!
//! * gains appear where communication dominates the shrinking cores
//!   (strong scaling, high rank counts);
//! * longer chains amplify the saved message latencies;
//! * heavy redundant computation (deep extents, expensive kernels)
//!   erodes the benefit.
//!
//! Run with `cargo run --release --example model_explorer`.

use op2::mesh::Hex3DParams;
use op2::model::eqs::{gain_percent, t_ca_chain, t_op2_chain};
use op2::model::{extrapolate_components, Machine};
use op2_bench_is_not_a_dep::*;

// The bench crate isn't a dependency of the facade; inline the small
// amount of plumbing needed here.
mod op2_bench_is_not_a_dep {
    use op2::core::LoopSig;
    use op2::mesh::{Csr, Hex3DParams};
    use op2::model::components::{chain_components, shape_from_sigs, ChainComponents};
    use op2::partition::{collect_stats, derive_ownership, kway_partition};

    /// Measured components for the MG-CFD synthetic chain at one
    /// configuration.
    pub fn measure(mesh: Hex3DParams, ranks: usize, n_loops: usize, g: f64) -> ChainComponents {
        let mut params = op2::mgcfd::MgCfdParams::small(4);
        params.finest = mesh;
        params.levels = 1;
        params.nchains = n_loops / 2;
        let app = op2::mgcfd::MgCfd::new(params);
        let l0 = &app.levels[0];
        let graph = Csr::node_graph(app.dom.map(l0.ids.e2n), app.dom.set(l0.ids.nodes).size);
        let base = kway_partition(&graph, ranks, 2);
        let own = derive_ownership(&app.dom, l0.ids.nodes, base, ranks);
        let stats = collect_stats(&app.dom, &own, 2, 4);
        let chain = app.synthetic_chain().unwrap();
        let sigs: Vec<LoopSig> = chain.sigs();
        let gs = vec![g; sigs.len()];
        let shape =
            shape_from_sigs(&app.dom, "syn", &sigs, &chain.halo_ext, &gs, &|_| 0);
        chain_components(&stats, &shape)
    }
}

fn main() {
    let mach = Machine::archer2();
    let mesh = Hex3DParams::cube(32);
    let ref_ranks = 16;
    println!(
        "reference measurement: {}^3 nodes on {ref_ranks} ranks (k-way)\n",
        mesh.nx
    );

    let rank_sweep = [16usize, 64, 256, 1024, 4096];
    let loop_counts = [2usize, 4, 8, 16, 32];

    println!("gain%% of CA over OP2 (rows: ranks; cols: loop count)");
    print!("{:>8}", "ranks");
    for &n in &loop_counts {
        print!("{n:>9}");
    }
    println!();
    for &ranks in &rank_sweep {
        print!("{ranks:>8}");
        for &n_loops in &loop_counts {
            let comp = measure(mesh, ref_ranks, n_loops, mach.g_default);
            // Extrapolate the reference partition statistics to the
            // target rank count (same mesh, more parts).
            let scaled = extrapolate_components(
                &comp,
                mesh.n_nodes(),
                ref_ranks,
                mesh.n_nodes() * 125, // an 8M-class mesh
                ranks,
            );
            let t_op2 = t_op2_chain(&mach, &scaled.op2_loops);
            let t_ca = t_ca_chain(&mach, &scaled.ca);
            print!("{:>9.1}", gain_percent(t_op2, t_ca));
        }
        println!();
    }
    println!(
        "\nReading the landscape: gains grow to the lower-right (more\n\
         ranks, longer chains); the upper-left corner is where the paper\n\
         warns CA can lose."
    );
}
