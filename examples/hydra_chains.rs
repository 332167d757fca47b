//! Hydra's six benchmarked loop-chains: analysis and execution.
//!
//! Prints, for every chain of Tables 3–4, the halo-extension analysis
//! (published vs the literal Algorithm 3 vs the transitive closure) and
//! how many reads the published extents leave stale, then runs the
//! solver distributed and reports message counts.
//!
//! Run with `cargo run --release --example hydra_chains`.

use op2::core::chain::{calc_halo_extents, calc_halo_layers, import_depths};
use op2::hydra::{job, run, run_sequential, ExtentMode, Hydra, HydraParams, RunOutcome, Variant};
use op2::partition::{build_layouts, derive_ownership, rib_partition, RankLayout};
use op2::runtime::RunOptions;

fn layouts_for(app: &Hydra, nparts: usize, depth: usize) -> Vec<RankLayout> {
    let base = rib_partition(app.mesh.node_coords(), 3, nparts);
    let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, nparts);
    build_layouts(&app.mesh.dom, &own, depth)
}

fn run_variant(app: &mut Hydra, layouts: &[RankLayout], variant: Variant, iters: usize) -> RunOutcome {
    let job = job(app, variant, iters);
    run(app, layouts, &job, &RunOptions::default()).expect("every rank completes")
}

fn main() {
    let params = HydraParams::small(12);
    let app = Hydra::new(params);
    println!(
        "Hydra passage: {} nodes, {} edges, {} periodic edges, {} wall elems, {} centreline elems\n",
        app.mesh.dom.set(app.mesh.nodes).size,
        app.mesh.dom.set(app.mesh.edges).size,
        app.mesh.dom.set(app.mesh.pedges).size,
        app.mesh.dom.set(app.mesh.bnd).size,
        app.mesh.dom.set(app.mesh.cbnd).size,
    );

    println!(
        "{:<8} {:>6} | {:<18} {:>5} {:<18} {:<18}",
        "chain", "loops", "paper HE", "stale", "literal Alg3", "transitive"
    );
    for name in Hydra::chain_names() {
        let chain = app.chain(name, ExtentMode::Safe).unwrap();
        let sigs = chain.sigs();
        let paper = app.chain(name, ExtentMode::Paper).unwrap().halo_ext;
        // Reads the published extents leave beyond in-chain validity:
        // the executor refuses such a chain.
        let stale = import_depths(&sigs, &paper, &|_| 0).stale.len();
        println!(
            "{:<8} {:>6} | {:<18} {:>5} {:<18} {:<18}",
            name,
            chain.len(),
            format!("{paper:?}"),
            stale,
            format!("{:?}", calc_halo_layers(&sigs).per_loop),
            format!("{:?}", calc_halo_extents(&sigs)),
        );
    }

    let iters = 2;
    let nparts = 4;

    let mut seq_app = Hydra::new(params);
    let seq = run_sequential(&mut seq_app, iters, 1);
    println!("\nsequential            : norm {:.6e}", seq.norm);

    let mut op2_app = Hydra::new(params);
    let l = layouts_for(&op2_app, nparts, op2_app.required_depth(ExtentMode::Safe));
    let op2 = run_variant(&mut op2_app, &l, Variant::Op2 { stages: 1 }, iters);
    let op2_msgs: usize = op2.traces.iter().map(|t| t.total_msgs()).sum();
    println!("OP2 baseline          : norm {:.6e}, {op2_msgs} msgs", op2.norm);

    let mut safe_app = Hydra::new(params);
    let l = layouts_for(&safe_app, nparts, safe_app.required_depth(ExtentMode::Safe));
    let safe = run_variant(&mut safe_app, &l, Variant::ca(), iters);
    let safe_msgs: usize = safe.traces.iter().map(|t| t.total_msgs()).sum();
    println!(
        "CA (safe extents)     : norm {:.6e}, {safe_msgs} msgs",
        safe.norm
    );

    assert!((seq.norm - safe.norm).abs() <= 1e-10 * seq.norm.abs());
    assert!(safe_msgs < op2_msgs);
    println!("\nok");
}
