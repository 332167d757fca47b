//! `op2-benchmark`: the repo's benchmark. See `benchmark/README.md` for
//! the metric and workload definitions.
//!
//! ```text
//! op2-benchmark [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! op2-benchmark compare <a.json> <b.json>
//! ```

use op2_benchmark::json::Json;
use op2_benchmark::run::{self, Config, Pass, REFERENCE_SECONDS};
use op2_benchmark::workloads::{self, Policy};
use op2_benchmark::{compare, host, tasks};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// `--flag value` pairs and bare flags, in order.
struct Args(Vec<String>);

impl Args {
    fn values(&self, flag: &str) -> Vec<&str> {
        self.0
            .windows(2)
            .filter(|w| w[0] == flag)
            .map(|w| w[1].as_str())
            .collect()
    }

    fn value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.values(flag).last() {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value `{v}` for {flag}")),
        }
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

fn workload_arg(args: &Args) -> Result<&'static workloads::Workload, String> {
    let name = args
        .values("--workload")
        .last()
        .copied()
        .ok_or("--workload missing")?;
    workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// A task in a child process: runs it and prints its reply.
fn child(task: &str, args: &Args, epoch: Instant) -> Result<(), String> {
    let seed = args.value("--seed")?.unwrap_or(1);
    let reply = match task {
        "oracle" => tasks::oracle(workload_arg(args)?, seed),
        "repeat" => {
            let policy = match args.values("--policy").last() {
                None | Some(&"primary") => Policy::Primary,
                Some(&"dataflow") => Policy::Dataflow,
                Some(other) => return Err(format!("unknown policy `{other}`")),
            };
            let repeat = tasks::RepeatArgs {
                iters: args.value("--iters")?.ok_or("--iters missing")?,
                budget_s: args.value("--budget-s")?.unwrap_or(f64::INFINITY),
                policy,
                baseline_iters: args.value("--baseline-iters")?.unwrap_or(0),
                traced: args.has("--traced"),
                trace_out: args.values("--trace-out").last().map(|s| s.to_string()),
            };
            tasks::repeat(workload_arg(args)?, seed, &repeat, epoch)
        }
        "sequential" => {
            let iters = args.value("--iters")?.ok_or("--iters missing")?;
            let budget_s = args.value("--budget-s")?.unwrap_or(f64::INFINITY);
            tasks::sequential(workload_arg(args)?, seed, iters, budget_s)
        }
        "copy-bandwidth" => tasks::copy_bandwidth(),
        other => return Err(format!("unknown task `{other}`")),
    };
    println!("{reply}");
    Ok(())
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, any_worse) = compare::compare(&load(a)?, &load(b)?);
    print!("{report}");
    Ok(any_worse)
}

fn benchmark(args: &Args, started: Instant) -> Result<bool, String> {
    // Two ranks x one thread or one rank x two threads: with fewer cores
    // every wall-clock would be an oversubscribed one.
    if host::nproc() < 2 {
        return Err(format!(
            "nproc = {}: the workloads need 2 cores",
            host::nproc()
        ));
    }
    let names = args.values("--workload");
    let selected = if names.is_empty() {
        workloads::WORKLOADS.iter().collect()
    } else {
        names
            .iter()
            .map(|n| workloads::find(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .collect::<Result<Vec<_>, _>>()?
    };
    let pass = match args.value::<u8>("--trace")? {
        None => Pass::Both,
        Some(0) => Pass::EndToEnd,
        Some(1) => Pass::Layers,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seconds = args.value("--seconds")?.unwrap_or(REFERENCE_SECONDS);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside 0..=600"));
    }
    let cfg = Config {
        workloads: selected,
        seed: args.value("--seed")?.unwrap_or(1),
        seconds,
        pass,
        quick: args.has("--quick"),
        out_dir: PathBuf::from(
            args.values("--out")
                .last()
                .copied()
                .unwrap_or("benchmark/out"),
        ),
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;

    let results = run::run(&cfg);
    for r in &results {
        r.print();
    }
    let result_path = cfg.out_dir.join("result.json");
    run::write_result(&cfg, &results, started, &result_path)
        .map_err(|e| format!("{}: {e}", result_path.display()))?;
    println!(
        "wrote {} ({:.1} s)",
        result_path.display(),
        started.elapsed().as_secs_f64()
    );

    // The driver's contract: one workload, one pass, one JSON line last.
    if let ([r], Pass::EndToEnd | Pass::Layers) = (&results[..], pass) {
        println!("{}", r.contract_line(pass));
    }
    Ok(results.iter().all(run::WorkloadResult::correct))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("child") if argv.len() >= 2 => {
            child(&argv[1], &Args(argv[2..].to_vec()), started).map(|()| true)
        }
        Some("compare") if argv.len() == 3 => compare_files(&argv[1], &argv[2]).map(|worse| !worse),
        Some("compare") => Err("usage: op2-benchmark compare <a.json> <b.json>".into()),
        _ => benchmark(&Args(argv), started),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("op2-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
