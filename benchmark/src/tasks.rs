//! The units of work the benchmark runs, each in a child process of its
//! own so that peak RSS and cold-start time belong to one workload and
//! one world. A task prints one JSON object as its last line of output.

use crate::host;
use crate::json::Json;
use crate::layers::{layer_metrics, Layers};
use crate::probe::{Probe, ProbeSpec};
use crate::spans::{chrome_trace, SpanLog, HOST_TRACK, NO_PARENT};
use crate::workloads::{setup_span, Policy, Problem, Program, Workload, SETUP_SPAN_NAMES};
use crate::world::{run_world, WorldOut};
use op2_core::Domain;
use std::time::Instant;

/// Leading iterations of every world left out of steady-state numbers:
/// iteration 0 builds plans, the next two settle buffer pools and caches.
pub const WARM_ITERS: usize = 3;

/// Iterations every world runs whatever its time budget says.
pub const MIN_ITERS: usize = WARM_ITERS + 5;

/// Time-march iterations of the correctness oracle.
pub const ORACLE_ITERS: usize = 5;

/// Relative tolerance wherever summation order legitimately differs:
/// the distributed residual against the sequential one, and CA dats
/// against standard-OP2 dats.
const RTOL: f64 = 1e-10;

pub struct RepeatArgs {
    pub iters: usize,
    /// Seconds after which a world's time-march stops early.
    pub budget_s: f64,
    /// Primary, or `Dataflow` for the diagnostic world.
    pub policy: Policy,
    /// Iterations of a baseline world run after the first; 0 = none.
    pub baseline_iters: usize,
    /// Record spans and reduce them to per-layer metrics.
    pub traced: bool,
    /// Where a traced repeat writes its Chrome trace.
    pub trace_out: Option<String>,
}

/// Operations attempted and failed, with what failed.
#[derive(Default)]
struct Ops {
    attempted: usize,
    errors: Vec<String>,
}

impl Ops {
    fn world(&mut self, what: &str, world: &WorldOut) {
        self.attempted += world.ranks.len();
        for f in world.failures() {
            self.errors.push(format!("{what}: {f}"));
        }
        // Unpinned wall-clocks are not the ones this benchmark reports.
        self.check(world.ok_ranks().all(|r| r.pinned), || {
            format!("{what}: could not pin every thread to a core (taskset, /proc/self/task)")
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.errors.push(what());
        }
    }

    fn fields(&self) -> [(&'static str, Json); 3] {
        [
            ("ops", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.errors.len() as f64)),
            (
                "errors",
                Json::Arr(self.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
        ]
    }
}

/// FNV-1a over the bit patterns of every value of every dat.
fn hash_dats(dom: &Domain) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for dat in dom.dats() {
        for v in &dat.data {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Compare every dat of `b` against `a`: bitwise, or else (unless
/// `bitwise` is demanded) within [`RTOL`] of the dat's largest magnitude.
fn dats_match(a: &Domain, b: &Domain, bitwise: bool) -> Result<(), String> {
    if hash_dats(a) == hash_dats(b) {
        return Ok(());
    }
    for (da, db) in a.dats().iter().zip(b.dats()) {
        let same_bits = da
            .data
            .iter()
            .zip(&db.data)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        let scale = da.data.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let diff = da
            .data
            .iter()
            .zip(&db.data)
            .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
        if bitwise && !same_bits || diff.is_nan() || diff > RTOL * scale {
            return Err(format!(
                "dat `{}` differs by {diff:e} (largest value {scale:e})",
                da.name
            ));
        }
    }
    Ok(())
}

/// What the sequential walk measured.
struct SeqOut {
    /// Wall per iteration in ms.
    ms: Vec<f64>,
    /// Host probe times over nominal: probe `k` ran right before
    /// iteration `k * every`, the last one after the last iteration.
    probe_ratio: Vec<f64>,
    residual: f64,
}

/// The plain single-threaded walk: every loop of `program` in order
/// through `op2_core::seq::run_loop`, for `iters` iterations or until
/// `budget_s` seconds have passed.
fn run_sequential(
    dom: &mut Domain,
    program: &Program,
    norm_n: f64,
    iters: usize,
    budget_s: f64,
    probe: &ProbeSpec,
) -> SeqOut {
    for l in program.init.iter().flat_map(|c| c.loops()) {
        op2_core::seq::run_loop(dom, l);
    }
    let mut host_probe = Probe::new(probe, 1);
    let mut out = SeqOut {
        ms: Vec::with_capacity(iters),
        probe_ratio: Vec::with_capacity(iters / probe.every + 2),
        residual: f64::NAN,
    };
    let start = Instant::now();
    for it in 0..iters {
        if it >= MIN_ITERS && start.elapsed().as_secs_f64() > budget_s {
            break;
        }
        if it.is_multiple_of(probe.every) {
            out.probe_ratio.push(host_probe.run());
        }
        let t = Instant::now();
        for l in program.iteration.iter().flat_map(|c| c.loops()) {
            op2_core::seq::run_loop(dom, l);
        }
        let r = op2_core::seq::run_loop(dom, &program.reduce);
        out.residual = (r.gbls[0][0] / norm_n).sqrt();
        out.ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.probe_ratio.push(host_probe.run());
    out
}

/// Counters a world leaves behind that only mean something as a
/// difference between a long and a short world.
fn world_counters(world: &WorldOut) -> Json {
    let sum = |f: fn(&op2_runtime::RankTrace) -> u64| -> Json {
        Json::Num(world.traces.iter().map(f).sum::<u64>() as f64)
    };
    Json::obj([
        ("plan_misses", sum(|t| t.plan.misses)),
        ("color_misses", sum(|t| t.plan.color_misses)),
        ("payload_allocs", sum(|t| t.comm.payload_allocs)),
    ])
}

fn residual_of(world: &WorldOut) -> f64 {
    world.ok_ranks().next().map_or(f64::NAN, |r| r.residual)
}

/// Correctness oracle: from identical initial state, every compared
/// policy must leave bitwise the same dats as the primary, and the
/// primary's residual must match the sequential walk's.
pub fn oracle(w: &Workload, seed: u64) -> Json {
    let epoch = Instant::now();
    let mut log = SpanLog::with_capacity(epoch, HOST_TRACK, 8);
    let mut problem = w.build(seed, &mut log);
    let layouts = w.partition(&problem, &mut log);
    let initial = std::mem::take(&mut problem.dom);
    let mut ops = Ops::default();

    let run = |problem: &Problem, policy: Policy| {
        let mut dom = initial.clone();
        let world = run_world(
            &mut dom,
            &layouts,
            &w.policy(policy, problem, seed),
            ORACLE_ITERS,
            f64::INFINITY,
            false,
            epoch,
        );
        (dom, world)
    };

    let (primary_dom, primary) = run(&problem, Policy::Primary);
    ops.world("oracle primary", &primary);
    for &(policy, bitwise) in w.compared_policies() {
        let (dom, world) = run(&problem, policy);
        ops.world(&format!("oracle {policy:?}"), &world);
        let verdict = dats_match(&primary_dom, &dom, bitwise);
        ops.check(verdict.is_ok(), || {
            format!("oracle: {policy:?} vs primary: {}", verdict.unwrap_err())
        });
    }

    problem.dom = initial;
    let seq_residual = run_sequential(
        &mut problem.dom,
        &problem.flat,
        problem.norm_n,
        ORACLE_ITERS,
        f64::INFINITY,
        &w.probe,
    )
    .residual;
    let dist_residual = residual_of(&primary);
    ops.check(
        (dist_residual - seq_residual).abs() <= RTOL * seq_residual.abs(),
        || format!("oracle: residual {dist_residual:e} differs from sequential {seq_residual:e}"),
    );

    let mut out = ops.fields().to_vec();
    out.push(("warm", world_counters(&primary)));
    out.push(("residual", Json::Num(seq_residual)));
    Json::obj(out)
}

fn probe_json(world: &WorldOut) -> Json {
    Json::Arr(
        world
            .ok_ranks()
            .map(|r| Json::nums(r.probe_ratio.iter().copied()))
            .collect(),
    )
}

fn layers_json(l: &Layers) -> Json {
    Json::obj(l.metrics.iter().map(|&(k, v)| (k, Json::Num(v))))
}

/// One repeat: set-up (timed from process start) -> first world -> read
/// peak RSS -> optional baseline world.
pub fn repeat(w: &Workload, seed: u64, args: &RepeatArgs, epoch: Instant) -> Json {
    // How fast the host is as set-up starts and as the world is about to
    // spawn. The probes are not part of set-up: their time is taken off.
    let mut host_probe = Probe::new(&w.probe, 1);
    let mut setup_slowdown = 0.5 * host_probe.run();
    let mut probes_s = epoch.elapsed().as_secs_f64();
    let mut log = SpanLog::with_capacity(epoch, HOST_TRACK, 8);
    let mut problem = w.build(seed, &mut log);
    let layouts = w.partition(&problem, &mut log);
    let before_probe = Instant::now();
    setup_slowdown += 0.5 * host_probe.run();
    drop(host_probe);
    probes_s += before_probe.elapsed().as_secs_f64();
    let mut ops = Ops::default();
    // The baseline starts from the same state as the first world.
    let initial = (args.baseline_iters > 0).then(|| problem.dom.clone());

    let mut dom = std::mem::take(&mut problem.dom);
    let run = w.policy(args.policy, &problem, seed);
    let program = run.program;
    let world_span = log.open(setup_span::WORLD, crate::spans::NO_ITER, NO_PARENT);
    let first = run_world(
        &mut dom,
        &layouts,
        &run,
        args.iters,
        args.budget_s,
        args.traced,
        epoch,
    );
    log.close(world_span);
    let peak_rss_mb = host::peak_rss_mb();
    ops.world("first world", &first);
    ops.check(peak_rss_mb.is_some(), || "VmHWM not readable".into());

    // Cold start to the end of iteration 0 on the slowest rank, less
    // the time the host probes took.
    let setup_s = first
        .ok_ranks()
        .filter_map(|r| Some(r.iter_ns.first()?.1 as f64 / 1e9 - r.probe_setup_s))
        .fold(f64::NAN, f64::max)
        - probes_s;

    let mut out = vec![
        ("setup_s", Json::Num(setup_s)),
        ("setup_slowdown", Json::Num(setup_slowdown)),
        ("primary_ms", Json::nums(first.iter_ms())),
        ("primary_probe", probe_json(&first)),
        ("peak_rss_mb", Json::Num(peak_rss_mb.unwrap_or(f64::NAN))),
        ("useful_iters", Json::Num(program.useful_iters(&dom) as f64)),
        ("counters", world_counters(&first)),
    ];

    if args.traced {
        let mut layers = layer_metrics(&first, program, &dom, &layouts, WARM_ITERS);
        let phase_ms = |name: u32| {
            let ns: u64 = log
                .spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns())
                .sum();
            ns as f64 / 1e6
        };
        layers.metrics.extend([
            ("mesh.build_ms", phase_ms(setup_span::MESH_BUILD)),
            ("partition.split_ms", phase_ms(setup_span::SPLIT)),
            ("partition.ownership_ms", phase_ms(setup_span::OWNERSHIP)),
            ("partition.layouts_ms", phase_ms(setup_span::LAYOUTS)),
        ]);
        out.push(("layers", layers_json(&layers)));
        out.push(("calls", layers.calls));
    }

    let baseline = initial.map(|initial| {
        dom = initial;
        let run = w.policy(Policy::Baseline, &problem, seed);
        let program = run.program;
        let world = run_world(
            &mut dom,
            &layouts,
            &run,
            args.baseline_iters,
            args.budget_s,
            args.traced,
            epoch,
        );
        ops.world("baseline world", &world);
        out.push(("baseline_ms", Json::nums(world.iter_ms())));
        out.push(("baseline_probe", probe_json(&world)));
        if args.traced {
            let layers = layer_metrics(&world, program, &dom, &layouts, WARM_ITERS);
            out.push(("base_layers", layers_json(&layers)));
            out.push(("base_calls", layers.calls));
        }
        world
    });

    if let Some(path) = &args.trace_out {
        // One file: the set-up track, then the primary world's ranks,
        // then the baseline world's (later on the same time axis).
        let setup: (&[String], _) = (&SETUP_SPAN_NAMES.map(String::from), &log.spans[..]);
        let worlds = std::iter::once(&first).chain(baseline.as_ref());
        let ranks = worlds.flat_map(|world| {
            world
                .ok_ranks()
                .filter_map(|r| r.log.as_ref())
                .map(|l| (&world.spans.names[..], &l.spans[..]))
        });
        let logs: Vec<_> = std::iter::once(setup).chain(ranks).collect();
        let written = std::fs::write(path, chrome_trace(&logs).to_string());
        ops.check(written.is_ok(), || {
            format!("cannot write {path}: {written:?}")
        });
    }

    out.extend(ops.fields());
    Json::obj(out)
}

/// The plain single-threaded walk of the same problem, timed.
pub fn sequential(w: &Workload, seed: u64, iters: usize, budget_s: f64) -> Json {
    let mut log = SpanLog::with_capacity(Instant::now(), HOST_TRACK, 2);
    let mut problem = w.build(seed, &mut log);
    let seq = run_sequential(
        &mut problem.dom,
        &problem.flat,
        problem.norm_n,
        iters,
        budget_s,
        &w.probe,
    );
    let mut ops = Ops::default();
    ops.check(seq.residual.is_finite(), || {
        format!("sequential residual is {}", seq.residual)
    });
    let mut out = vec![
        ("seq_ms", Json::nums(seq.ms)),
        ("seq_probe", Json::Arr(vec![Json::nums(seq.probe_ratio)])),
    ];
    out.extend(ops.fields());
    Json::obj(out)
}

pub fn copy_bandwidth() -> Json {
    Json::obj([("copy_gb_s", Json::Num(host::copy_gb_s(7)))])
}
