//! `op2-serve`: the resident mesh-compute server, end to end.
//!
//! Boots a [`Service`] at its default configuration (admission limit
//! 8), registers the MG-CFD mesh world **once**, and multiplexes
//! `--jobs N` CA simulation jobs over it — the smallest driver
//! exercising the DESIGN.md §14 path: carried plan caches (job 2
//! onward performs zero inspection), recycled transport pools
//! (steady-state jobs perform zero payload allocations), per-job trace
//! isolation, and same-shape batching with `--batch`.
//!
//! Per job it prints the latency, the warm/batched flags and the
//! plan/transport counters; at exit, the service's cumulative metrics.
//!
//! Flags: `--jobs N` (default 4), `--iters N`, `--size N`, `--ranks N`,
//! `--batch` (submit all jobs as one same-shape batch).

use mg_cfd::{MgCfd, MgCfdParams, Variant};
use op2_partition::{build_layouts, derive_ownership, rcb_partition};
use op2_runtime::{JobOutcome, Service, ServiceConfig};

/// Print `err` as `op2-serve: {err}` and exit 1 — a bad flag is the
/// user's error, not a crash.
fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("op2-serve: {err}");
    std::process::exit(1);
}

fn main() {
    let mut jobs = 4usize;
    let mut iters = 3usize;
    let mut size = 7usize;
    let mut ranks = 4usize;
    let mut batch = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut count = || -> usize {
            i += 1;
            let raw = args.get(i).unwrap_or_else(|| fail(format!("{flag} needs a count")));
            raw.parse()
                .unwrap_or_else(|e| fail(format!("{flag} must be a count, got `{raw}`: {e}")))
        };
        match flag {
            "--jobs" => jobs = count(),
            "--iters" => iters = count(),
            "--size" => size = count(),
            "--ranks" => ranks = count(),
            "--batch" => batch = true,
            "--help" | "-h" => {
                eprintln!("flags: --jobs N  --iters N  --size N  --ranks N  --batch");
                std::process::exit(0);
            }
            other => fail(format!("unknown flag `{other}`")),
        }
        i += 1;
    }

    let svc = Service::new(ServiceConfig::default());
    let app = MgCfd::new(MgCfdParams::small(size));
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, ranks);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
    let layouts = build_layouts(&app.dom, &own, 2);
    let mesh = svc.register_mesh(app.dom.clone(), layouts);
    let n_fine = app.dom.set(app.levels[0].ids.nodes).size as f64;
    println!(
        "op2-serve: mesh {mesh:#018x} registered ({ranks} ranks); \
         {jobs} jobs x {iters} iters{}",
        if batch { ", batched" } else { "" }
    );

    let job = mg_cfd::job(&app, Variant::Ca, iters);
    println!(
        "{:>4}  {:>10}  {:>5}  {:>7}  {:>9}  {:>9}  {:>7}  rms",
        "job", "latency", "warm", "batched", "inspects", "plan hits", "allocs"
    );
    let report = |out: &JobOutcome, ms: f64| {
        let plan = out.trace.plan_total();
        let rms = (out.gbls[0][0][0] / n_fine).sqrt();
        println!(
            "{:>4}  {:>8.1}ms  {:>5}  {:>7}  {:>9}  {:>9}  {:>7}  {rms:.12e}",
            out.job,
            ms,
            out.trace.warm,
            out.trace.batched,
            plan.misses,
            plan.hits,
            out.trace.payload_allocs(),
        );
    };

    if batch {
        let burst: Vec<_> = (0..jobs).map(|_| job.clone()).collect();
        let t0 = std::time::Instant::now();
        let outcomes = svc.submit_batch(mesh, &burst).unwrap_or_else(|e| fail(e));
        let ms = t0.elapsed().as_secs_f64() * 1e3 / jobs as f64;
        for r in &outcomes {
            report(r.as_ref().unwrap_or_else(|e| fail(e)), ms);
        }
    } else {
        for _ in 0..jobs {
            let t0 = std::time::Instant::now();
            let out = svc.submit(mesh, &job).unwrap_or_else(|e| fail(e));
            report(&out, t0.elapsed().as_secs_f64() * 1e3);
        }
    }

    let m = svc.metrics();
    println!(
        "service: {} submitted, {} completed ({} warm, {} batched), {} failed, \
         {} rejected, {} recoveries; plans: {} hits / {} misses",
        m.submitted,
        m.completed,
        m.warm_jobs,
        m.batched,
        m.failed,
        m.rejected,
        m.recoveries,
        m.plan.hits,
        m.plan.misses,
    );
}
