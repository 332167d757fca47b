//! Hydra command-line driver.
//!
//! ```text
//! cargo run --release -p hydra-sim --bin hydra -- \
//!     --n 10 --ranks 4 --iters 3 --backend ca
//! ```
//!
//! Backends: `seq`, `op2`, `ca`. The CA back-end runs the chains with
//! Algorithm 3's transitive halo extents. `--threads N` runs each rank's
//! kernels on `N` threads (default 1). Prints each chain's execution
//! plan and the run statistics.

use hydra_sim::{job, run, run_sequential, ExtentMode, Hydra, HydraParams, Variant};
use op2_mesh::AnnulusParams;
use op2_partition::{build_layouts, derive_ownership, rib_partition};
use op2_runtime::harness::oversubscription;
use op2_runtime::RunOptions;

struct Opts {
    n: usize,
    ranks: usize,
    iters: usize,
    /// Kernel threads per rank.
    threads: usize,
    stages: usize,
    backend: String,
}

/// Print `err` as `hydra: {err}` and exit 1 — a bad flag is the
/// user's error, not a crash.
fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("hydra: {err}");
    std::process::exit(1);
}

/// Print one `hydra: warning: …` line when `ranks × threads` exceeds
/// the cores this process may run on (threads are per rank and never
/// capped).
fn warn_if_oversubscribed(ranks: usize, threads: usize) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(w) = oversubscription(ranks, threads, cores) {
        eprintln!("hydra: warning: {w}");
    }
}

/// The value after `flag`, or exit 1.
fn value(flag: &str, raw: Option<String>) -> String {
    raw.unwrap_or_else(|| fail(format!("{flag} needs a value")))
}

/// The count after `flag`, or exit 1.
fn count(flag: &str, raw: Option<String>) -> usize {
    let raw = value(flag, raw);
    raw.parse()
        .unwrap_or_else(|e| fail(format!("{flag} must be a count, got `{raw}`: {e}")))
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        n: 10,
        ranks: 4,
        iters: 3,
        threads: 1,
        stages: 1,
        backend: "ca".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--n" => o.n = count(&flag, args.next()),
            "--ranks" => o.ranks = count(&flag, args.next()),
            "--iters" => o.iters = count(&flag, args.next()),
            "--stages" => o.stages = count(&flag, args.next()),
            "--backend" => o.backend = value(&flag, args.next()),
            "--threads" => {
                o.threads = count(&flag, args.next());
                if o.threads == 0 {
                    fail("--threads must be at least 1");
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --n <grid> --ranks <n> --iters <n> --stages <rk stages> \
                     --threads <per rank> --backend seq|op2|ca"
                );
                std::process::exit(0);
            }
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    o
}

fn main() {
    let o = parse_opts();
    let mut app = Hydra::new(HydraParams {
        mesh: AnnulusParams::small(o.n, o.n, o.n),
    });
    println!(
        "Hydra passage: {} nodes, {} edges, {} pedges, {} bnd, {} cbnd; \
         backend = {}",
        app.mesh.dom.set(app.mesh.nodes).size,
        app.mesh.dom.set(app.mesh.edges).size,
        app.mesh.dom.set(app.mesh.pedges).size,
        app.mesh.dom.set(app.mesh.bnd).size,
        app.mesh.dom.set(app.mesh.cbnd).size,
        o.backend,
    );
    for name in Hydra::chain_names() {
        let chain = app.chain(name, ExtentMode::Safe).expect("chain valid");
        print!("{}", chain.describe(&app.mesh.dom));
    }

    let outcome = match o.backend.as_str() {
        "seq" => run_sequential(&mut app, o.iters, o.stages),
        "op2" | "ca" => {
            warn_if_oversubscribed(o.ranks, o.threads);
            let depth = app.required_depth(ExtentMode::Safe).max(2);
            let base = rib_partition(app.mesh.node_coords(), 3, o.ranks);
            let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, o.ranks);
            let layouts = build_layouts(&app.mesh.dom, &own, depth);
            let stages = o.stages;
            let variant = if o.backend == "op2" {
                Variant::Op2 { stages }
            } else {
                Variant::Ca { stages }
            };
            let job = job(&app, variant, o.iters);
            run(&mut app, &layouts, &job, &RunOptions::default().with_threads(o.threads))
                .unwrap_or_else(|e| fail(e))
        }
        other => fail(format!("unknown backend `{other}` (seq|op2|ca)")),
    };

    println!(
        "\nresidual norm after {} iterations: {:.6e}",
        o.iters, outcome.norm
    );
    if !outcome.traces.is_empty() {
        let msgs: usize = outcome.traces.iter().map(|t| t.total_msgs()).sum();
        println!("messages: {msgs}");
    }
}
