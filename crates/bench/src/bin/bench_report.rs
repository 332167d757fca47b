//! `BENCH_runtime.json`: machine-readable runtime-counter report.
//!
//! Runs the MG-CFD solver through the adaptive (tuner + plan-cache)
//! back-end and emits one JSON record per rank: communication totals,
//! transport recovery counters, plan-cache hit/miss/invalidation
//! counters and every tuner decision (backend, class, predicted vs
//! measured times). The CI/regression side can diff these without
//! scraping human-readable tables.
//!
//! Flags: the common `--scale`, plus `--out <path>` (default
//! `BENCH_runtime.json` in the working directory), `--iters N`
//! (default 3 — enough for calibration *and* cached-plan repeats) and
//! `--threads N` (colored-threaded execution; sets the node-wide
//! `OP2_THREADS`, which the harness splits across ranks, and is
//! reported per rank under `threads`).
//!
//! `--tiled-threads N` runs an *extra* pass through the tiled-threaded
//! executor (CA + sparse tiling with `N` pool threads per rank,
//! `--tiles` tiles) and writes its report next to `--out` with a
//! `_tiled_tN` suffix — e.g. `BENCH_runtime_tiled_t4.json` — so CI can
//! archive the threaded-tiling counters alongside the adaptive run's.
//!
//! `--exchange` runs the halo-exchange engine report: the same solver
//! once through the CA back-end (grouped planned exchanges, persistent
//! pooled buffers, arrival-order unpack) and once through per-loop OP2
//! (per-dat messages), emitting `BENCH_exchange.json` with each mode's
//! pack/unpack/wait wall time and payload allocation counts so the
//! zero-allocation steady state and the grouping win are diffable in CI.
//!
//! `--recovery` runs the self-healing supervisor report: the CA solver
//! unsupervised (baseline), supervised fault-free (isolating the
//! chain-boundary checkpoint overhead), and supervised with an injected
//! mid-chain rank crash (isolating rollback + replay cost), emitting
//! `BENCH_recovery.json` with the wall times, the overhead/replay
//! percentages, the summed `RecoveryRec` counters and the per-rank
//! records — plus the bitwise-identity verdict between the faulted and
//! fault-free results.
//!
//! `--service` runs the resident-service report: the CA solver as
//! repeated jobs on one registered mesh world, emitting
//! `BENCH_service.json` with cold-start vs warm-job latency (the
//! shared plan registry skips all inspection from job 2 on), the
//! registry hit rate, steady-state payload allocation counts, batched
//! vs unbatched throughput of a same-shape burst, and the bitwise
//! verdict between every job's residual and the standalone `run_ca`.
//!
//! `--rebalance` runs the online-rebalancing report: the CA solver once
//! statically and once through `run_ca_rebalanced` with a cost-skewed,
//! trace-triggered migration at the first segment boundary, emitting
//! `BENCH_rebalance.json` with the measured load imbalance before and
//! after the re-shard, the migration traffic (elements, bytes), the
//! replanning cost, and the bitwise verdict between the migrated and
//! the static run's residual.
//!
//! `--fusion` runs the cross-loop fusion report: the MG-CFD fused
//! chain (flux → step_factor → time_step, `adt` elided into the
//! scratch pool) once through the split executor and once fused,
//! emitting `BENCH_fusion.json` with both wall times, the fused-piece
//! and elided-byte totals, the fused-schedule cache hit rate, the
//! steady-state scratch-pool allocation count (zero once warm) and
//! the bitwise verdict between the fused and unfused residuals.
//!
//! `--dataflow` runs the async-executor report: an elongated
//! skewed-cost chain fixture (clustered heavy blocks, dyadic-exact
//! kernels) once through the level-synchronous drain (`OP2_EXEC=levels`)
//! and once through the dependency-counter dataflow drain
//! (`OP2_EXEC=dataflow` with pinning), emitting `BENCH_dataflow.json`
//! with both wall times, the per-worker idle totals (strictly lower
//! under dataflow is the acceptance bar), steal/fire counts, the
//! critical-path depth vs the barrier count, the steady-state
//! steal-queue allocation count (zero once warm) and the bitwise
//! verdict against the sequential reference.
//!
//! `--summary` re-reads every `BENCH_*.json` in the working directory
//! and consolidates the wall-clock headlines (`*_ms` fields, load
//! imbalance, bitwise verdicts) into one `BENCH_summary.json`, so CI
//! archives a single at-a-glance record next to the per-subsystem
//! reports.
//!
//! Every report additionally carries a `load` object — each rank's
//! measured loop + chain wall time and the `max/mean` imbalance ratio
//! the rebalance detector triggers on.

use mg_cfd::{
    register_service_mesh, run_auto, run_ca, run_ca_fused, run_ca_rebalanced, run_ca_service,
    run_ca_supervised, run_ca_tiled_threaded, run_op2, service_job, MgCfd, MgCfdParams,
    RunOutcome,
};
use op2_bench::json::{load_summary, trace_summary, Json};
use op2_core::{seq, AccessMode, Arg, Args, ChainSpec, LoopSpec};
use op2_mesh::{skewed_costs, Quad2D};
use op2_model::Machine;
use op2_partition::{build_layouts, derive_ownership, rcb_partition};
use op2_runtime::{
    run_distributed_with, Boundary, BoundaryKind, ExecMode, FaultPlan, FaultSpec, FuseMode,
    RankTrace, RebalanceConfig, RebalancePolicy, RunOptions, Service, ServiceConfig,
    SuperviseOptions, Threading, TunerMode,
};

/// Skewed-cost edge kernel for the `--dataflow` fixture: the per-edge
/// `cost` dat sets the spin count, so clustered heavy blocks straggle
/// inside each color level. The spin feeds the output (it cannot be
/// optimized away) and every operation is dyadic, so the result is
/// bit-comparable across executors. The endpoints are declared `Rw`,
/// not `Inc`: an `Inc`-only sweep lowers owner-computes — one level,
/// nothing for the dataflow drain to do — while an indirect `Rw` gets
/// the colored ladder this fixture exists to measure.
fn df_flux(args: &Args<'_>) {
    let w = args.get(0, 0) as usize;
    let mut acc = (args.get(1, 0) - args.get(2, 0)) * 0.5;
    for _ in 0..w {
        acc = acc * 0.5 + 0.25;
    }
    args.set(3, 0, args.get(3, 0) + acc * 0.0078125);
    args.set(4, 0, args.get(4, 0) - acc * 0.0078125);
}

/// Direct node relaxation between the skewed edge sweeps — a cheap
/// level whose chunks depend on the Inc chunks covering their nodes.
fn df_relax(args: &Args<'_>) {
    args.set(0, 0, args.get(0, 0) * 0.5 + args.get(1, 0) * 0.25);
    args.set(1, 0, 0.0);
}

fn main() {
    let mut out_path = String::from("BENCH_runtime.json");
    let mut iters = 3usize;
    let mut size = 7usize;
    let mut ranks = 4usize;
    let mut tiled_threads = 0usize;
    let mut tiles = 8usize;
    let mut exchange = false;
    let mut recovery = false;
    let mut service = false;
    let mut rebalance = false;
    let mut fusion = false;
    let mut dataflow = false;
    let mut summary = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args.get(i).expect("--out needs a path").clone();
            }
            "--iters" => {
                i += 1;
                iters = args.get(i).expect("--iters needs a count").parse().unwrap();
            }
            "--size" => {
                i += 1;
                size = args.get(i).expect("--size needs an edge count").parse().unwrap();
            }
            "--ranks" => {
                i += 1;
                ranks = args.get(i).expect("--ranks needs a count").parse().unwrap();
            }
            "--threads" => {
                i += 1;
                let n = args.get(i).expect("--threads needs a count");
                // The rank envs read OP2_THREADS at spawn; routing the
                // flag through the env var keeps one source of truth.
                std::env::set_var("OP2_THREADS", n);
            }
            "--tiled-threads" => {
                i += 1;
                tiled_threads = args
                    .get(i)
                    .expect("--tiled-threads needs a count")
                    .parse()
                    .unwrap();
            }
            "--tiles" => {
                i += 1;
                tiles = args.get(i).expect("--tiles needs a count").parse().unwrap();
            }
            "--exchange" => exchange = true,
            "--recovery" => recovery = true,
            "--service" => service = true,
            "--rebalance" => rebalance = true,
            "--fusion" => fusion = true,
            "--dataflow" => dataflow = true,
            "--summary" => summary = true,
            "--help" | "-h" => {
                eprintln!(
                    "flags: --out path  --iters N  --size N  --ranks N  --threads N  \
                     --tiled-threads N  --tiles N  --exchange  --recovery  --service  \
                     --rebalance  --fusion  --dataflow  --summary"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag `{other}`"),
        }
        i += 1;
    }

    let params = MgCfdParams::small(size);
    let mut app = MgCfd::new(params);
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, ranks);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
    let layouts = build_layouts(&app.dom, &own, 2);

    let out = run_auto(
        &mut app,
        &layouts,
        iters,
        &Machine::archer2(),
        TunerMode::from_env(),
        None,
    );

    let report = Json::obj(vec![
        ("app", Json::Str("mg-cfd".into())),
        (
            "backend",
            Json::Str(std::env::var("OP2_TUNER").unwrap_or_else(|_| "auto".into())),
        ),
        ("iters", Json::U64(iters as u64)),
        ("ranks", Json::U64(ranks as u64)),
        (
            "threads",
            Json::U64(op2_runtime::Threading::from_env().n_threads as u64),
        ),
        (
            "block_size",
            Json::U64(op2_runtime::Threading::from_env().block_size as u64),
        ),
        ("rms", Json::F64(out.rms)),
        ("load", load_summary(&out.traces)),
        (
            "per_rank",
            Json::Arr(out.traces.iter().map(trace_summary).collect()),
        ),
    ]);
    std::fs::write(&out_path, report.pretty())
        .unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path} ({} ranks, {iters} iters)", out.traces.len());

    if tiled_threads > 0 {
        // Fresh app + layouts: the adaptive pass above mutated the flow
        // field, and the tiled report should stand on its own.
        let mut app = MgCfd::new(params);
        let coords = &app.dom.dat(app.levels[0].ids.coords).data;
        let base = rcb_partition(coords, 3, ranks);
        let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
        let layouts = build_layouts(&app.dom, &own, 2);
        let threading = op2_runtime::Threading::with_threads(tiled_threads);
        let out = run_ca_tiled_threaded(&mut app, &layouts, iters, tiles, threading);

        let tiled_path = out_path
            .strip_suffix(".json")
            .map(|s| format!("{s}_tiled_t{tiled_threads}.json"))
            .unwrap_or_else(|| format!("{out_path}_tiled_t{tiled_threads}"));
        let report = Json::obj(vec![
            ("app", Json::Str("mg-cfd".into())),
            ("backend", Json::Str("tiled-threaded".into())),
            ("iters", Json::U64(iters as u64)),
            ("ranks", Json::U64(ranks as u64)),
            ("threads", Json::U64(tiled_threads as u64)),
            ("tiles", Json::U64(tiles as u64)),
            ("rms", Json::F64(out.rms)),
            ("load", load_summary(&out.traces)),
            (
                "per_rank",
                Json::Arr(out.traces.iter().map(trace_summary).collect()),
            ),
        ]);
        std::fs::write(&tiled_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {tiled_path}: {e}"));
        println!(
            "wrote {tiled_path} ({} ranks, {iters} iters, {tiled_threads} threads, {tiles} tiles)",
            out.traces.len()
        );
    }

    if exchange {
        // Halo-exchange engine report: the same solver through the CA
        // back-end (grouped planned exchanges, pooled buffers,
        // arrival-order unpack) and the per-loop OP2 baseline (per-dat
        // messages), each on a fresh flow field.
        let mut modes: Vec<(&str, RunOutcome)> = Vec::new();
        for mode in ["ca_planned", "op2_per_loop"] {
            let mut app = MgCfd::new(params);
            let coords = &app.dom.dat(app.levels[0].ids.coords).data;
            let base = rcb_partition(coords, 3, ranks);
            let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
            let layouts = build_layouts(&app.dom, &own, 2);
            let out = match mode {
                "ca_planned" => run_ca(&mut app, &layouts, iters),
                _ => run_op2(&mut app, &layouts, iters),
            };
            modes.push((mode, out));
        }
        let exch_path = "BENCH_exchange.json".to_string();
        let mode_json = |out: &RunOutcome| {
            Json::obj(vec![
                ("rms", Json::F64(out.rms)),
                ("load", load_summary(&out.traces)),
                (
                    "per_rank",
                    Json::Arr(out.traces.iter().map(trace_summary).collect()),
                ),
            ])
        };
        let report = Json::obj(vec![
            ("app", Json::Str("mg-cfd".into())),
            ("iters", Json::U64(iters as u64)),
            ("ranks", Json::U64(ranks as u64)),
            (
                "modes",
                Json::Obj(
                    modes
                        .iter()
                        .map(|(name, out)| (name.to_string(), mode_json(out)))
                        .collect(),
                ),
            ),
        ]);
        std::fs::write(&exch_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {exch_path}: {e}"));
        println!("wrote {exch_path} ({ranks} ranks, {iters} iters)");
    }

    if recovery {
        // Self-healing supervisor report. Three passes on fresh flow
        // fields: unsupervised CA (baseline), supervised fault-free
        // (checkpoint overhead), supervised with rank 1 crashed at its
        // second chain boundary (rollback + replay cost).
        let fresh = || {
            let app = MgCfd::new(params);
            let coords = &app.dom.dat(app.levels[0].ids.coords).data;
            let base = rcb_partition(coords, 3, ranks);
            let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
            let layouts = build_layouts(&app.dom, &own, 2);
            (app, layouts)
        };
        let timed = |f: &mut dyn FnMut() -> RunOutcome| {
            let t0 = std::time::Instant::now();
            let out = f();
            (out, t0.elapsed().as_secs_f64() * 1e3)
        };

        let (mut app, layouts) = fresh();
        let (baseline, baseline_ms) =
            timed(&mut || run_ca(&mut app, &layouts, iters));

        let (mut app, layouts) = fresh();
        let opts = SuperviseOptions::new(RunOptions::default().checkpoint_every(1));
        let (clean, clean_ms) = timed(&mut || {
            run_ca_supervised(&mut app, &layouts, iters, &opts)
                .expect("fault-free supervised run")
        });

        let (mut app, layouts) = fresh();
        let spec = FaultSpec::default()
            .with_crash_site(1, Boundary::new(BoundaryKind::Chain, 1));
        let opts = SuperviseOptions::new(
            RunOptions::with_faults(FaultPlan::new(spec)).checkpoint_every(1),
        );
        let (faulted, faulted_ms) = timed(&mut || {
            run_ca_supervised(&mut app, &layouts, iters, &opts)
                .expect("supervised recovery from a single crash")
        });

        let sum = |out: &RunOutcome, f: &dyn Fn(&op2_runtime::RecoveryRec) -> u64| {
            out.traces.iter().map(|t| f(&t.recovery)).sum::<u64>()
        };
        let overhead_pct = (clean_ms / baseline_ms - 1.0) * 100.0;
        let replay_ms = faulted_ms - clean_ms;
        let report = Json::obj(vec![
            ("app", Json::Str("mg-cfd".into())),
            ("iters", Json::U64(iters as u64)),
            ("ranks", Json::U64(ranks as u64)),
            ("baseline_ms", Json::F64(baseline_ms)),
            ("supervised_ms", Json::F64(clean_ms)),
            ("checkpoint_overhead_pct", Json::F64(overhead_pct)),
            ("faulted_ms", Json::F64(faulted_ms)),
            ("replay_cost_ms", Json::F64(replay_ms)),
            (
                "bitwise_identical",
                Json::Bool(
                    baseline.rms.to_bits() == clean.rms.to_bits()
                        && baseline.rms.to_bits() == faulted.rms.to_bits(),
                ),
            ),
            (
                "totals",
                Json::obj(vec![
                    ("checkpoints", Json::U64(sum(&faulted, &|r| r.checkpoints))),
                    ("ckpt_bytes", Json::U64(sum(&faulted, &|r| r.ckpt_bytes))),
                    (
                        "dats_snapshotted",
                        Json::U64(sum(&faulted, &|r| r.dats_snapshotted)),
                    ),
                    ("dats_skipped", Json::U64(sum(&faulted, &|r| r.dats_skipped))),
                    ("rollbacks", Json::U64(sum(&faulted, &|r| r.rollbacks))),
                    (
                        "restored_bytes",
                        Json::U64(sum(&faulted, &|r| r.restored_bytes)),
                    ),
                    (
                        "replayed_loops",
                        Json::U64(sum(&faulted, &|r| r.replayed_loops)),
                    ),
                    (
                        "replayed_chains",
                        Json::U64(sum(&faulted, &|r| r.replayed_chains)),
                    ),
                ]),
            ),
            ("load", load_summary(&faulted.traces)),
            (
                "per_rank",
                Json::Arr(faulted.traces.iter().map(trace_summary).collect()),
            ),
        ]);
        let rec_path = "BENCH_recovery.json".to_string();
        std::fs::write(&rec_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {rec_path}: {e}"));
        println!(
            "wrote {rec_path} ({ranks} ranks, {iters} iters, overhead {overhead_pct:.1}%, \
             replay {replay_ms:.1}ms)"
        );
    }

    if service {
        // Resident-service report. One mesh world, many CA jobs: the
        // first pays inspection + buffer warm-up (cold start), the
        // second runs on the shared plan registry, the third on fully
        // recycled pools — then a same-shape burst measures batched vs
        // unbatched throughput.
        let app = MgCfd::new(params);
        let coords = &app.dom.dat(app.levels[0].ids.coords).data;
        let base = rcb_partition(coords, 3, ranks);
        let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
        let layouts = build_layouts(&app.dom, &own, 2);

        // The standalone run every service job must match bitwise.
        let mut ref_app = MgCfd::new(params);
        let reference = run_ca(&mut ref_app, &layouts, iters);

        let svc = Service::new(ServiceConfig::default());
        let mesh = register_service_mesh(&svc, &app, layouts);
        let timed_job = |label: &str| {
            let t0 = std::time::Instant::now();
            let out = run_ca_service(&svc, mesh, &app, iters)
                .unwrap_or_else(|e| panic!("{label} service job: {e}"));
            (out, t0.elapsed().as_secs_f64() * 1e3)
        };
        let (cold, cold_ms) = timed_job("cold");
        let (warm, warm_ms) = timed_job("warm");
        let (steady, steady_ms) = timed_job("steady");

        // Same-shape burst, once as single submits and once batched.
        const BURST: usize = 4;
        let job = service_job(&app, iters);
        let burst: Vec<_> = (0..BURST).map(|_| job.clone()).collect();
        let t0 = std::time::Instant::now();
        for j in &burst {
            svc.submit(mesh, j).expect("unbatched burst job");
        }
        let unbatched_s = t0.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        for r in svc.submit_batch(mesh, &burst).expect("burst admitted") {
            r.expect("batched burst job");
        }
        let batched_s = t0.elapsed().as_secs_f64();

        let m = svc.metrics();
        let lookups = m.plan.registry_hits + m.plan.registry_misses;
        let hit_rate = if lookups > 0 {
            m.plan.registry_hits as f64 / lookups as f64
        } else {
            0.0
        };
        let steady_allocs: u64 = steady.traces.iter().map(|t| t.comm.payload_allocs).sum();
        let bitwise = [&cold, &warm, &steady]
            .iter()
            .all(|o| o.rms.to_bits() == reference.rms.to_bits());
        let report = Json::obj(vec![
            ("app", Json::Str("mg-cfd".into())),
            ("iters", Json::U64(iters as u64)),
            ("ranks", Json::U64(ranks as u64)),
            ("cold_ms", Json::F64(cold_ms)),
            ("warm_ms", Json::F64(warm_ms)),
            ("steady_ms", Json::F64(steady_ms)),
            ("warm_speedup", Json::F64(cold_ms / warm_ms)),
            ("steady_payload_allocs", Json::U64(steady_allocs)),
            ("bitwise_identical", Json::Bool(bitwise)),
            (
                "registry",
                Json::obj(vec![
                    ("hits", Json::U64(m.plan.registry_hits)),
                    ("misses", Json::U64(m.plan.registry_misses)),
                    ("hit_rate", Json::F64(hit_rate)),
                    ("plans", Json::U64(m.registry_plans)),
                ]),
            ),
            (
                "throughput",
                Json::obj(vec![
                    ("burst_jobs", Json::U64(BURST as u64)),
                    ("unbatched_jobs_per_s", Json::F64(BURST as f64 / unbatched_s)),
                    ("batched_jobs_per_s", Json::F64(BURST as f64 / batched_s)),
                ]),
            ),
            (
                "metrics",
                Json::obj(vec![
                    ("submitted", Json::U64(m.submitted)),
                    ("completed", Json::U64(m.completed)),
                    ("failed", Json::U64(m.failed)),
                    ("rejected", Json::U64(m.rejected)),
                    ("batched", Json::U64(m.batched)),
                    ("warm_jobs", Json::U64(m.warm_jobs)),
                    ("recoveries", Json::U64(m.recoveries)),
                ]),
            ),
            ("load", load_summary(&steady.traces)),
            (
                "per_rank",
                Json::Arr(steady.traces.iter().map(trace_summary).collect()),
            ),
        ]);
        let svc_path = "BENCH_service.json".to_string();
        std::fs::write(&svc_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {svc_path}: {e}"));
        println!(
            "wrote {svc_path} ({ranks} ranks, cold {cold_ms:.1}ms, warm {warm_ms:.1}ms, \
             registry hit rate {:.0}%)",
            hit_rate * 100.0
        );
    }

    if rebalance {
        // Online-rebalancing report. Two passes on fresh flow fields:
        // static CA (the reference) and the rebalanced driver with a
        // trace-triggered (threshold 0), cost-skewed migration at the
        // first segment boundary — the same forced-migration setup the
        // acceptance tests use, so the verdict is deterministic. The
        // mesh size is forced odd: on a perfect even cube the x-skewed
        // weighted re-shard can land on weight-symmetric cut planes and
        // degenerate to a no-op, which would make the report vacuous.
        let reb_params = MgCfdParams::small(size | 1);
        let fresh = || {
            let app = MgCfd::new(reb_params);
            let coords = &app.dom.dat(app.levels[0].ids.coords).data;
            let base = rcb_partition(coords, 3, ranks);
            let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
            let layouts = build_layouts(&app.dom, &own, 2);
            (app, layouts)
        };

        let (mut app, layouts) = fresh();
        let t0 = std::time::Instant::now();
        let baseline = run_ca(&mut app, &layouts, iters);
        let static_ms = t0.elapsed().as_secs_f64() * 1e3;

        let (mut app, layouts) = fresh();
        let coords = &app.dom.dat(app.levels[0].ids.coords).data;
        let seg = iters.div_ceil(2).max(1);
        let policy = RebalancePolicy::every(seg, RebalanceConfig::new(0.0, 8))
            .with_costs(skewed_costs(coords, 3, 0, 8.0));
        let opts = SuperviseOptions::new(RunOptions::default().checkpoint_every(1));
        let t0 = std::time::Instant::now();
        let (out, rec, _) = run_ca_rebalanced(&mut app, &layouts, iters, &opts, &policy)
            .expect("rebalanced run");
        let rebalanced_ms = t0.elapsed().as_secs_f64() * 1e3;

        let report = Json::obj(vec![
            ("app", Json::Str("mg-cfd".into())),
            ("iters", Json::U64(iters as u64)),
            ("ranks", Json::U64(ranks as u64)),
            ("static_ms", Json::F64(static_ms)),
            ("rebalanced_ms", Json::F64(rebalanced_ms)),
            ("migrations", Json::U64(rec.migrations)),
            ("migrated_elements", Json::U64(rec.elements_out)),
            ("migrated_bytes", Json::U64(rec.bytes_out)),
            ("replans", Json::U64(rec.replans)),
            (
                "imbalance_before_milli",
                Json::U64(rec.imbalance_before_milli),
            ),
            (
                "imbalance_after_milli",
                Json::U64(rec.imbalance_after_milli),
            ),
            ("replan_ms", Json::F64(rec.replan_ns as f64 / 1e6)),
            (
                "bitwise_identical",
                Json::Bool(baseline.rms.to_bits() == out.rms.to_bits()),
            ),
            ("load", load_summary(&out.traces)),
            (
                "per_rank",
                Json::Arr(out.traces.iter().map(trace_summary).collect()),
            ),
        ]);
        let reb_path = "BENCH_rebalance.json".to_string();
        std::fs::write(&reb_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {reb_path}: {e}"));
        println!(
            "wrote {reb_path} ({ranks} ranks, {} migration(s), {} bytes, replan {:.1}ms)",
            rec.migrations,
            rec.bytes_out,
            rec.replan_ns as f64 / 1e6
        );
    }

    if fusion {
        // Cross-loop fusion report. Two passes on fresh flow fields —
        // the fused chain split (`OP2_FUSE=off`) and fused (`on`) —
        // plus a third instrumented pass that probes the per-thread
        // scratch pool for steady-state allocations.
        let fresh = || {
            let app = MgCfd::new(params);
            let coords = &app.dom.dat(app.levels[0].ids.coords).data;
            let base = rcb_partition(coords, 3, ranks);
            let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, ranks);
            let layouts = build_layouts(&app.dom, &own, 2);
            (app, layouts)
        };

        let (mut app, layouts) = fresh();
        let t0 = std::time::Instant::now();
        let unfused = run_ca_fused(&mut app, &layouts, iters, FuseMode::Off, None);
        let unfused_ms = t0.elapsed().as_secs_f64() * 1e3;

        let (mut app, layouts) = fresh();
        let t0 = std::time::Instant::now();
        let fused = run_ca_fused(&mut app, &layouts, iters, FuseMode::On, None);
        let fused_ms = t0.elapsed().as_secs_f64() * 1e3;

        let fused_pieces: u64 = fused.traces.iter().map(|t| t.plan.fused_pieces).sum();
        let elided_bytes: u64 = fused.traces.iter().map(|t| t.plan.elided_bytes).sum();
        let (hits, misses) = fused
            .traces
            .iter()
            .fold((0u64, 0u64), |(h, m), t| (h + t.plan.hits, m + t.plan.misses));
        let hit_rate = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };

        // Scratch-pool steady state: warm two invocations (schedule
        // build + dirty-class settle), then count further pool growth
        // across `iters` more — zero once warm.
        let (mut app, layouts) = fresh();
        let chain = app.fused_chain(0).expect("fused chain valid");
        let init: Vec<_> = (0..app.params.levels).map(|l| app.init_loop(l)).collect();
        let allocs = std::sync::Mutex::new(Vec::new());
        let opts = RunOptions::default().fuse(FuseMode::On);
        let out = run_distributed_with(&mut app.dom, &layouts, &opts, |env| {
            for l in &init {
                op2_runtime::exec::run_loop(env, l)?;
            }
            for _ in 0..2 {
                op2_runtime::exec::run_chain(env, &chain)?;
            }
            let warm = env.sched_allocs();
            for _ in 0..iters {
                op2_runtime::exec::run_chain(env, &chain)?;
            }
            allocs.lock().unwrap().push(env.sched_allocs() - warm);
            Ok(())
        });
        assert!(out.all_ok(), "scratch probe failed: {:?}", out.failures());
        let steady_allocs: u64 = allocs.lock().unwrap().iter().sum();

        let report = Json::obj(vec![
            ("app", Json::Str("mg-cfd".into())),
            ("chain", Json::Str("flux_sf_ts_l0".into())),
            ("iters", Json::U64(iters as u64)),
            ("ranks", Json::U64(ranks as u64)),
            ("unfused_ms", Json::F64(unfused_ms)),
            ("fused_ms", Json::F64(fused_ms)),
            ("fused_speedup", Json::F64(unfused_ms / fused_ms)),
            ("fused_pieces", Json::U64(fused_pieces)),
            ("elided_bytes", Json::U64(elided_bytes)),
            ("steady_scratch_allocs", Json::U64(steady_allocs)),
            (
                "plan_cache",
                Json::obj(vec![
                    ("hits", Json::U64(hits)),
                    ("misses", Json::U64(misses)),
                    ("hit_rate", Json::F64(hit_rate)),
                ]),
            ),
            (
                "bitwise_identical",
                Json::Bool(unfused.rms.to_bits() == fused.rms.to_bits()),
            ),
            ("load", load_summary(&fused.traces)),
            (
                "per_rank",
                Json::Arr(fused.traces.iter().map(trace_summary).collect()),
            ),
        ]);
        let fus_path = "BENCH_fusion.json".to_string();
        std::fs::write(&fus_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {fus_path}: {e}"));
        println!(
            "wrote {fus_path} ({ranks} ranks, {fused_pieces} fused pieces, \
             {elided_bytes} bytes elided, {steady_allocs} steady-state scratch allocs)"
        );
    }

    if dataflow {
        // Async-executor report on the elongated skewed-cost fixture:
        // a 128×6 strip, a 6-loop chain alternating a skewed indirect
        // edge sweep with a direct node relaxation, heavy spin counts
        // clustered into contiguous block runs. Level barriers make
        // every worker wait out the heavy blocks; the dataflow drain
        // lets finished workers fire ready chunks from later levels.
        const NX: usize = 128;
        const NY: usize = 6;
        const SWEEPS: usize = 3;
        const HEAVY: f64 = 8000.0;
        const LIGHT: f64 = 50.0;
        let threads = 4usize;
        let threading = Threading {
            n_threads: threads,
            block_size: 8,
            auto_block: false,
        };

        let m = Quad2D::generate(NX, NY);
        let mut dom = m.dom;
        let n_nodes = dom.set(m.nodes).size;
        let n_edges = dom.set(m.edges).size;
        let vals: Vec<f64> = (0..n_nodes).map(|i| ((i * 13 + 7) % 17) as f64).collect();
        // Heavy cost in clustered runs (blocks 0..8 of every 64-edge
        // span) so whole chunks straggle rather than single elements.
        let costs: Vec<f64> = (0..n_edges)
            .map(|i| if (i / 64) % 8 == 0 { HEAVY } else { LIGHT })
            .collect();
        let val = dom.decl_dat("val", m.nodes, 1, vals);
        let res = dom.decl_dat_zeros("res", m.nodes, 1);
        let cost = dom.decl_dat("cost", m.edges, 1, costs);
        let mut loops = Vec::with_capacity(2 * SWEEPS);
        for _ in 0..SWEEPS {
            loops.push(LoopSpec::new(
                "df_flux",
                m.edges,
                vec![
                    Arg::dat_direct(cost, AccessMode::Read),
                    Arg::dat_indirect(val, m.e2n, 0, AccessMode::Read),
                    Arg::dat_indirect(val, m.e2n, 1, AccessMode::Read),
                    Arg::dat_indirect(res, m.e2n, 0, AccessMode::Rw),
                    Arg::dat_indirect(res, m.e2n, 1, AccessMode::Rw),
                ],
                df_flux,
            ));
            loops.push(LoopSpec::new(
                "df_relax",
                m.nodes,
                vec![
                    Arg::dat_direct(val, AccessMode::Rw),
                    Arg::dat_direct(res, AccessMode::Rw),
                ],
                df_relax,
            ));
        }
        let chain = ChainSpec::new("skewed_dataflow", loops, None, &[]).unwrap();
        let base = rcb_partition(&dom.dat(m.coords).data, 2, 1);
        let own = derive_ownership(&dom, m.nodes, base, 1);
        // The SWEEPS read-write sweeps ladder the chain's halo extent;
        // on one rank the extra layers are empty but must be declared.
        let layouts = build_layouts(&dom, &own, 2 * SWEEPS);

        // Sequential reference bits (val + res after every iteration).
        let seq_bits = {
            let mut d = dom.clone();
            for _ in 0..2 + iters {
                for l in &chain.loops {
                    seq::run_loop(&mut d, l);
                }
            }
            [val, res].map(|id| d.dat(id).data.iter().map(|x| x.to_bits()).collect::<Vec<u64>>())
        };

        // One pass per executor: two warm-up invocations (plan + DAG
        // build, scratch sizing), then `iters` timed steady-state
        // invocations with the steal-queue allocation watermark taken
        // across them.
        let run_exec = |exec: ExecMode, pin: bool| {
            let mut d = dom.clone();
            let opts = RunOptions::default()
                .threading(threading)
                .exec(exec)
                .thread_pin(pin);
            let steady = std::sync::Mutex::new((0u64, 0f64));
            let out = run_distributed_with(&mut d, &layouts, &opts, |env| {
                for _ in 0..2 {
                    op2_runtime::exec::run_chain(env, &chain)?;
                }
                let warm = env.threads.dataflow.allocs();
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    op2_runtime::exec::run_chain(env, &chain)?;
                }
                let wall = t0.elapsed().as_secs_f64() * 1e3;
                let mut s = steady.lock().unwrap();
                s.0 += env.threads.dataflow.allocs() - warm;
                s.1 = s.1.max(wall);
                Ok(())
            });
            assert!(out.all_ok(), "dataflow fixture failed: {:?}", out.failures());
            let bits =
                [val, res].map(|id| d.dat(id).data.iter().map(|x| x.to_bits()).collect::<Vec<u64>>());
            let (allocs, wall_ms) = *steady.lock().unwrap();
            (out.traces, bits, wall_ms, allocs)
        };
        let (lv_traces, lv_bits, lv_ms, _) = run_exec(ExecMode::Levels, false);
        let (df_traces, df_bits, df_ms, df_allocs) = run_exec(ExecMode::Dataflow, true);

        let per_worker = |traces: &[RankTrace], f: &dyn Fn(&op2_runtime::ThreadRec) -> &[u64]| {
            let mut acc = vec![0u64; threads];
            for t in traces {
                for r in &t.threads {
                    for (w, &v) in f(r).iter().enumerate() {
                        acc[w] += v;
                    }
                }
            }
            acc
        };
        let lv_idle = per_worker(&lv_traces, &|r| &r.idle_ns);
        let df_idle = per_worker(&df_traces, &|r| &r.idle_ns);
        let df_steals = per_worker(&df_traces, &|r| &r.steals);
        let df_fires = per_worker(&df_traces, &|r| &r.fires);
        let lv_idle_total: u64 = lv_idle.iter().sum();
        let df_idle_total: u64 = df_idle.iter().sum();
        let barrier_levels = lv_traces
            .iter()
            .flat_map(|t| t.threads.iter().map(|r| r.n_levels as u64))
            .max()
            .unwrap_or(0);
        let crit_path = df_traces
            .iter()
            .flat_map(|t| t.threads.iter().map(|r| r.crit_path as u64))
            .max()
            .unwrap_or(0);
        let bitwise = lv_bits == seq_bits && df_bits == seq_bits;
        let idle_reduction_pct = if lv_idle_total > 0 {
            (1.0 - df_idle_total as f64 / lv_idle_total as f64) * 100.0
        } else {
            0.0
        };

        let u64s = |v: &[u64]| Json::Arr(v.iter().map(|&x| Json::U64(x)).collect());
        let report = Json::obj(vec![
            ("app", Json::Str("skewed-dataflow-fixture".into())),
            (
                "fixture",
                Json::obj(vec![
                    ("nx", Json::U64(NX as u64)),
                    ("ny", Json::U64(NY as u64)),
                    ("edges", Json::U64(n_edges as u64)),
                    ("chain_loops", Json::U64(2 * SWEEPS as u64)),
                    ("heavy_spin", Json::U64(HEAVY as u64)),
                    ("light_spin", Json::U64(LIGHT as u64)),
                ]),
            ),
            ("iters", Json::U64(iters as u64)),
            ("threads", Json::U64(threads as u64)),
            ("levels_ms", Json::F64(lv_ms)),
            ("dataflow_ms", Json::F64(df_ms)),
            (
                "levels",
                Json::obj(vec![
                    ("wall_ms", Json::F64(lv_ms)),
                    ("idle_ns_total", Json::U64(lv_idle_total)),
                    ("per_worker_idle_ns", u64s(&lv_idle)),
                    ("barrier_levels", Json::U64(barrier_levels)),
                ]),
            ),
            (
                "dataflow",
                Json::obj(vec![
                    ("wall_ms", Json::F64(df_ms)),
                    ("idle_ns_total", Json::U64(df_idle_total)),
                    ("per_worker_idle_ns", u64s(&df_idle)),
                    ("steals", u64s(&df_steals)),
                    ("fires", u64s(&df_fires)),
                    ("crit_path", Json::U64(crit_path)),
                    ("pinned", Json::Bool(true)),
                ]),
            ),
            ("idle_reduction_pct", Json::F64(idle_reduction_pct)),
            ("idle_reduced", Json::Bool(df_idle_total < lv_idle_total)),
            ("steady_steal_queue_allocs", Json::U64(df_allocs)),
            ("bitwise_identical", Json::Bool(bitwise)),
        ]);
        let df_path = "BENCH_dataflow.json".to_string();
        std::fs::write(&df_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {df_path}: {e}"));
        println!(
            "wrote {df_path} (levels {lv_ms:.1}ms vs dataflow {df_ms:.1}ms, \
             idle {lv_idle_total}ns -> {df_idle_total}ns ({idle_reduction_pct:.0}% less), \
             {} steals, {df_allocs} steady steal-queue allocs, bitwise {bitwise})",
            df_steals.iter().sum::<u64>()
        );
    }

    if summary {
        // Consolidate every sibling BENCH_*.json (written by earlier
        // arms or CI steps) into one wall-clock headline record.
        let mut names: Vec<String> = std::fs::read_dir(".")
            .expect("reading working directory")
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| {
                n.starts_with("BENCH_") && n.ends_with(".json") && n != "BENCH_summary.json"
            })
            .collect();
        names.sort();
        let mut files = Vec::new();
        let mut all_bitwise = true;
        let mut verdicts = 0u64;
        for name in &names {
            let text = std::fs::read_to_string(name)
                .unwrap_or_else(|e| panic!("reading {name}: {e}"));
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
            let mut rec: Vec<(String, Json)> = Vec::new();
            if let Json::Obj(fields) = &doc {
                for (k, v) in fields {
                    let headline = k == "app"
                        || k == "backend"
                        || k == "rms"
                        || k.ends_with("_ms")
                        || k.ends_with("_pct")
                        || k.ends_with("_speedup");
                    if headline {
                        rec.push((k.clone(), v.clone()));
                    }
                }
            }
            if let Some(r) = doc.get("load").and_then(|l| l.get("imbalance_ratio")) {
                rec.push(("imbalance_ratio".into(), r.clone()));
            }
            if let Some(b) = doc.get("bitwise_identical").and_then(Json::as_bool) {
                verdicts += 1;
                all_bitwise &= b;
                rec.push(("bitwise_identical".into(), Json::Bool(b)));
            }
            files.push((name.clone(), Json::Obj(rec)));
        }
        let report = Json::obj(vec![
            ("reports", Json::U64(names.len() as u64)),
            ("bitwise_verdicts", Json::U64(verdicts)),
            ("all_bitwise_identical", Json::Bool(all_bitwise)),
            ("files", Json::Obj(files)),
        ]);
        let sum_path = "BENCH_summary.json".to_string();
        std::fs::write(&sum_path, report.pretty())
            .unwrap_or_else(|e| panic!("writing {sum_path}: {e}"));
        println!(
            "wrote {sum_path} ({} reports, {verdicts} bitwise verdicts, all identical: {all_bitwise})",
            names.len()
        );
    }
}
