//! Hydra command-line driver.
//!
//! ```text
//! cargo run --release -p hydra-sim --bin hydra -- \
//!     --n 10 --ranks 4 --iters 3 --backend ca --extents paper
//! ```
//!
//! Backends: `seq`, `op2`, `ca`. `--extents safe|paper` selects the
//! transitive (strict) or published (relaxed) halo extents for the CA
//! back-end. Prints each chain's execution plan and the run statistics.

use hydra_sim::{job, run, run_sequential, ExtentMode, Hydra, HydraParams, Variant};
use op2_mesh::AnnulusParams;
use op2_partition::{build_layouts, derive_ownership, rib_partition};
use op2_runtime::RunOptions;

struct Opts {
    n: usize,
    ranks: usize,
    iters: usize,
    stages: usize,
    backend: String,
    extents: String,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        n: 10,
        ranks: 4,
        iters: 3,
        stages: 1,
        backend: "ca".into(),
        extents: "paper".into(),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let val = || {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{} needs a value", args[i]))
                .clone()
        };
        match args[i].as_str() {
            "--n" => o.n = val().parse().expect("--n"),
            "--ranks" => o.ranks = val().parse().expect("--ranks"),
            "--iters" => o.iters = val().parse().expect("--iters"),
            "--stages" => o.stages = val().parse().expect("--stages"),
            "--backend" => o.backend = val(),
            "--extents" => o.extents = val(),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --n <grid> --ranks <n> --iters <n> --stages <rk stages> \
                     --backend seq|op2|ca --extents safe|paper"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag `{other}`"),
        }
        i += 2;
    }
    o
}

fn main() {
    let o = parse_opts();
    let mode = match o.extents.as_str() {
        "safe" => ExtentMode::Safe,
        "paper" => ExtentMode::Paper,
        other => panic!("unknown extents `{other}` (safe|paper)"),
    };
    let mut app = Hydra::new(HydraParams {
        mesh: AnnulusParams::small(o.n, o.n, o.n),
    });
    println!(
        "Hydra passage: {} nodes, {} edges, {} pedges, {} bnd, {} cbnd; \
         backend = {}, extents = {}",
        app.mesh.dom.set(app.mesh.nodes).size,
        app.mesh.dom.set(app.mesh.edges).size,
        app.mesh.dom.set(app.mesh.pedges).size,
        app.mesh.dom.set(app.mesh.bnd).size,
        app.mesh.dom.set(app.mesh.cbnd).size,
        o.backend,
        o.extents,
    );
    for name in Hydra::chain_names() {
        let chain = app.chain(name, mode).expect("chain valid");
        print!("{}", chain.describe(&app.mesh.dom));
    }

    let outcome = match o.backend.as_str() {
        "seq" => run_sequential(&mut app, o.iters, o.stages),
        "op2" | "ca" => {
            let depth = app.required_depth(mode).max(2);
            let base = rib_partition(app.mesh.node_coords(), 3, o.ranks);
            let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, o.ranks);
            let layouts = build_layouts(&app.mesh.dom, &own, depth);
            let stages = o.stages;
            let variant = if o.backend == "op2" {
                Variant::Op2 { stages }
            } else {
                Variant::Ca { mode, stages }
            };
            let job = job(&app, variant, o.iters);
            run(&mut app, &layouts, &job, &RunOptions::default()).unwrap_or_else(|e| {
                eprintln!("hydra: {e}");
                std::process::exit(1);
            })
        }
        other => panic!("unknown backend `{other}` (seq|op2|ca)"),
    };

    println!(
        "\nresidual norm after {} iterations: {:.6e}",
        o.iters, outcome.norm
    );
    if !outcome.traces.is_empty() {
        let msgs: usize = outcome.traces.iter().map(|t| t.total_msgs()).sum();
        let stale: usize = outcome
            .traces
            .iter()
            .flat_map(|t| t.chains.iter())
            .map(|c| c.stale_reads)
            .sum();
        println!("messages: {msgs}; tolerated stale reads: {stale}");
    }
}
