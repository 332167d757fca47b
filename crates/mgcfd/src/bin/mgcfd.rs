//! MG-CFD command-line driver.
//!
//! ```text
//! cargo run --release -p mg-cfd --bin mgcfd -- \
//!     --n 20 --levels 2 --nchains 4 --ranks 4 --iters 5 --backend ca
//! ```
//!
//! Backends: `seq` (reference), `op2` (Alg 1 per loop), `ca` (Alg 2 for
//! the V-cycle's two chains and the synthetic chain). Prints the final
//! flow norm, per-backend message statistics and the synthetic chain's
//! execution plan.

use mg_cfd::{job, run, run_sequential, MgCfd, MgCfdParams, Variant};
use op2_mesh::Hex3DParams;
use op2_partition::{build_layouts, derive_ownership, rcb_partition};
use op2_runtime::RunOptions;

struct Opts {
    n: usize,
    levels: usize,
    nchains: usize,
    ranks: usize,
    iters: usize,
    backend: String,
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        n: 16,
        levels: 2,
        nchains: 4,
        ranks: 4,
        iters: 5,
        backend: "ca".into(),
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
            "--levels" => o.levels = val().parse().expect("--levels"),
            "--nchains" => o.nchains = val().parse().expect("--nchains"),
            "--ranks" => o.ranks = val().parse().expect("--ranks"),
            "--iters" => o.iters = val().parse().expect("--iters"),
            "--backend" => o.backend = val(),
            "--help" | "-h" => {
                eprintln!(
                    "flags: --n <grid> --levels <mg levels> --nchains <pairs> \
                     --ranks <n> --iters <n> --backend seq|op2|ca"
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
    let params = MgCfdParams {
        finest: Hex3DParams::cube(o.n),
        levels: o.levels,
        nchains: o.nchains,
    };
    let mut app = MgCfd::new(params);
    println!(
        "MG-CFD: {} nodes / {} edges on the finest of {} levels; \
         {}-loop synthetic chain; backend = {}",
        app.dom.set(app.levels[0].ids.nodes).size,
        app.dom.set(app.levels[0].ids.edges).size,
        o.levels,
        2 * o.nchains,
        o.backend
    );
    let chain = app.synthetic_chain().expect("chain valid");
    print!("{}", chain.describe(&app.dom));

    let outcome = match o.backend.as_str() {
        "seq" => run_sequential(&mut app, o.iters),
        "op2" | "ca" => {
            let coords = &app.dom.dat(app.levels[0].ids.coords).data;
            let base = rcb_partition(coords, 3, o.ranks);
            let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, o.ranks);
            let layouts = build_layouts(&app.dom, &own, app.required_depth());
            let variant = if o.backend == "op2" { Variant::Op2 } else { Variant::Ca };
            let job = job(&app, variant, o.iters);
            run(&mut app, &layouts, &job, &RunOptions::default()).unwrap_or_else(|e| {
                eprintln!("mgcfd: {e}");
                std::process::exit(1);
            })
        }
        other => panic!("unknown backend `{other}` (seq|op2|ca)"),
    };

    println!("final flow norm after {} iterations: {:.6}", o.iters, outcome.rms);
    if !outcome.traces.is_empty() {
        let msgs: usize = outcome.traces.iter().map(|t| t.total_msgs()).sum();
        let bytes: usize = outcome.traces.iter().map(|t| t.total_bytes()).sum();
        println!("messages: {msgs}, bytes exchanged: {bytes}");
    }
}
