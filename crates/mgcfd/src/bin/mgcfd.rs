//! MG-CFD command-line driver.
//!
//! ```text
//! cargo run --release -p mg-cfd --bin mgcfd -- \
//!     --n 20 --levels 2 --nchains 4 --ranks 4 --iters 5 --backend ca
//! ```
//!
//! Backends: `seq` (reference), `op2` (Alg 1 per loop), `ca` (Alg 2 for
//! the V-cycle's two chains and the synthetic chain). `--threads N`
//! runs each rank's kernels on `N` threads (default 1). Prints the final
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
    /// Kernel threads per rank.
    threads: usize,
    backend: String,
}

/// Print `err` as `mgcfd: {err}` and exit 1 — a bad flag is the
/// user's error, not a crash.
fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("mgcfd: {err}");
    std::process::exit(1);
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
        n: 16,
        levels: 2,
        nchains: 4,
        ranks: 4,
        iters: 5,
        threads: 1,
        backend: "ca".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--n" => o.n = count(&flag, args.next()),
            "--levels" => o.levels = count(&flag, args.next()),
            "--nchains" => o.nchains = count(&flag, args.next()),
            "--ranks" => o.ranks = count(&flag, args.next()),
            "--iters" => o.iters = count(&flag, args.next()),
            "--backend" => o.backend = value(&flag, args.next()),
            "--threads" => {
                o.threads = count(&flag, args.next());
                if o.threads == 0 {
                    fail("--threads must be at least 1");
                }
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --n <grid> --levels <mg levels> --nchains <pairs> \
                     --ranks <n> --iters <n> --threads <per rank> --backend seq|op2|ca"
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
            run(&mut app, &layouts, &job, &RunOptions::default().with_threads(o.threads))
                .unwrap_or_else(|e| fail(e))
        }
        other => fail(format!("unknown backend `{other}` (seq|op2|ca)")),
    };

    println!("final flow norm after {} iterations: {:.6}", o.iters, outcome.rms);
    if !outcome.traces.is_empty() {
        let msgs: usize = outcome.traces.iter().map(|t| t.total_msgs()).sum();
        let bytes: usize = outcome.traces.iter().map(|t| t.total_bytes()).sum();
        println!("messages: {msgs}, bytes exchanged: {bytes}");
    }
}
