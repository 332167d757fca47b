//! The parent process: plans the tasks of a run, executes each in a
//! child process, and reduces what they return to the named metrics.

use crate::host;
use crate::json::Json;
use crate::metrics::{END_TO_END, FAIL_SHARE, PER_LAYER};
use crate::probe::block_factors;
use crate::stats::{median, percentile, repeat_spread_pct, summarize};
use crate::tasks::{MIN_ITERS, WARM_ITERS};
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `--seconds` at which a workload's `iters` / `seq_iters` apply; also
/// `run_seconds` in `BENCHMARK.json`.
pub const REFERENCE_SECONDS: f64 = 15.0;

/// Untraced repeats per workload; each is its own process.
const REPEATS: usize = 3;

/// Set-up samples per workload (the repeats' plus set-up-only children).
const SETUP_SAMPLES: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// End-to-end metrics only (`--trace 0`).
    EndToEnd,
    /// Per-layer metrics only (`--trace 1`).
    Layers,
    /// Both, as `run.sh` without `--trace` does.
    Both,
}

pub struct Config {
    pub workloads: Vec<&'static Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub pass: Pass,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// Seconds after which a world stops early when the run measures for
/// [`REFERENCE_SECONDS`]: on the undisturbed host a world takes 1-2 s,
/// so this cuts short only what runs about twice slower or worse.
const REFERENCE_WORLD_BUDGET_S: f64 = 3.0;

impl Config {
    fn scale(&self) -> f64 {
        self.seconds / REFERENCE_SECONDS * if self.quick { 0.1 } else { 1.0 }
    }

    /// A workload's reference iteration count scaled to this run.
    fn iters(&self, reference: usize) -> usize {
        ((reference as f64 * self.scale()).round() as usize).max(MIN_ITERS)
    }

    fn world_budget_s(&self) -> f64 {
        REFERENCE_WORLD_BUDGET_S * self.scale()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Oracle,
    /// Untraced primary + baseline: the end-to-end samples.
    Repeat,
    /// Set-up plus iteration 0 only: a `setup_s` sample.
    Setup,
    Sequential,
    /// Untraced primary only: reference for the tracing overhead.
    Reference,
    Traced,
    Dataflow,
    CopyBandwidth,
}

struct Task {
    workload: usize,
    kind: Kind,
    args: Vec<String>,
}

/// Everything the children of one workload returned.
#[derive(Default)]
struct Collected {
    by_kind: Vec<(Kind, Json)>,
    attempted: usize,
    errors: Vec<String>,
}

impl Collected {
    fn of(&self, kind: Kind) -> impl Iterator<Item = &Json> {
        self.by_kind
            .iter()
            .filter(move |(k, _)| *k == kind)
            .map(|(_, j)| j)
    }

    fn first(&self, kind: Kind) -> Option<&Json> {
        self.of(kind).next()
    }
}

/// The tasks of one workload, in the order they should run. The caller
/// interleaves the lists of several workloads round-robin, so that every
/// workload's samples span the whole run.
fn plan(cfg: &Config, wi: usize, w: &Workload) -> Vec<Task> {
    let iters = cfg.iters(w.iters).to_string();
    let budget = cfg.world_budget_s().to_string();
    let task = |kind: Kind, task_name: &str, extra: &[&str]| Task {
        workload: wi,
        kind,
        args: [
            task_name,
            "--workload",
            w.name,
            "--seed",
            &cfg.seed.to_string(),
        ]
        .iter()
        .chain(extra)
        .map(|s| s.to_string())
        .collect(),
    };
    let mut tasks = vec![task(Kind::Oracle, "oracle", &[])];
    if cfg.pass != Pass::Layers {
        let repeats = if cfg.quick { 1 } else { REPEATS };
        let setups = if cfg.quick {
            0
        } else {
            SETUP_SAMPLES - REPEATS
        };
        let seq_iters = cfg.iters(w.seq_iters).to_string();
        for r in 0..repeats {
            tasks.push(task(
                Kind::Repeat,
                "repeat",
                &[
                    "--iters",
                    &iters,
                    "--baseline-iters",
                    &iters,
                    "--budget-s",
                    &budget,
                ],
            ));
            // A third of the sequential pass after every repeat: host
            // speed shifts by up to 1.6x for many seconds at a time, and
            // one long pass would report whichever period it fell into.
            tasks.push(task(
                Kind::Sequential,
                "sequential",
                &["--iters", &seq_iters, "--budget-s", &budget],
            ));
            // Set-up-only children between the repeats, spread evenly.
            for _ in 0..(setups * (r + 1) / repeats - setups * r / repeats) {
                tasks.push(task(Kind::Setup, "repeat", &["--iters", "1"]));
            }
        }
    }
    if cfg.pass != Pass::EndToEnd {
        let trace_out = cfg.out_dir.join(format!("trace-{}.json", w.name));
        let trace_out = trace_out.to_string_lossy();
        // An untraced primary-only reference right before and right after
        // the traced repeat: host speed drifts over tens of seconds, and
        // an overhead of a few percent only shows against neighbours in
        // time.
        let reference = || {
            task(
                Kind::Reference,
                "repeat",
                &["--iters", &iters, "--budget-s", &budget],
            )
        };
        tasks.push(reference());
        tasks.push(task(
            Kind::Traced,
            "repeat",
            &[
                "--iters",
                &iters,
                "--baseline-iters",
                &iters,
                "--budget-s",
                &budget,
                "--traced",
                "--trace-out",
                &trace_out,
            ],
        ));
        tasks.push(reference());
        if w.threads > 1 {
            tasks.push(task(
                Kind::Dataflow,
                "repeat",
                &[
                    "--iters",
                    &iters,
                    "--budget-s",
                    &budget,
                    "--policy",
                    "dataflow",
                ],
            ));
        }
        tasks.push(task(Kind::CopyBandwidth, "copy-bandwidth", &[]));
    }
    tasks
}

/// Run one task in a child process and parse the last line it prints.
fn run_child(task: &Task) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(&task.args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    // The runtime reads OP2_* knobs from the environment wherever
    // RunOptions leaves one unset; the benchmark measures the defaults.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("OP2_") {
            cmd.env_remove(k);
        }
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("child {:?} exited with {}", task.args, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    Json::parse(last).map_err(|e| format!("child {:?} reply: {e}", task.args))
}

fn steady(reply: &Json, key: &str) -> Vec<f64> {
    let ms = reply.num_arr(key).unwrap_or_default();
    ms[WARM_ITERS.min(ms.len())..].to_vec()
}

/// How the times of one kind of pass are normalised by the host probes
/// around them (see `crate::probe`).
#[derive(Clone, Copy)]
struct Normaliser {
    /// A probe ran every `every` iterations.
    every: usize,
    /// The pass slows down this many times as much (in logarithms) as
    /// the probe.
    sensitivity: f64,
    /// The pass gets no faster when the probe runs faster than nominal.
    /// True of single-threaded work: the sequential walk of
    /// `mgcfd-compute` takes 60-63 ms whether the probe reads 0.85 or
    /// 1.0. Not of the worlds: `mgcfd-wire` takes 2.03 ms per iteration
    /// at 0.90 and 2.28 ms at 1.0.
    floor: bool,
}

impl Normaliser {
    fn sequential(w: &Workload) -> Self {
        Normaliser {
            every: w.probe.every,
            sensitivity: w.probe.sensitivity[0],
            floor: true,
        }
    }

    fn world(w: &Workload) -> Self {
        Normaliser {
            every: w.probe.every,
            sensitivity: w.probe.sensitivity[1],
            floor: false,
        }
    }

    /// Set-up is single-threaded host work that no fit was made for.
    const SETUP: Normaliser = Normaliser {
        every: 1,
        sensitivity: 1.0,
        floor: true,
    };

    /// What a time measured while the host's probes ran `slowdown` times
    /// their nominal is divided by.
    fn correction(&self, slowdown: f64) -> f64 {
        let slowdown = if self.floor {
            slowdown.max(1.0)
        } else {
            slowdown
        };
        slowdown.powf(self.sensitivity)
    }
}

/// Per-iteration wall-clocks of one kind of world, pooled over replies.
#[derive(Default)]
struct Samples {
    /// As measured, ms.
    raw: Vec<f64>,
    /// Divided by the host's slowdown at the time (see `crate::probe`).
    normalised: Vec<f64>,
    /// The slowdown of every iteration.
    slowdown: Vec<f64>,
    /// Normalised samples reply by reply.
    per_reply: Vec<Vec<f64>>,
}

impl Samples {
    /// Add the iterations of `reply` from `skip` on: times under
    /// `ms_key`, per-thread probe ratios under `probe_key`.
    fn add(
        &mut self,
        reply: &Json,
        (ms_key, probe_key): (&str, &str),
        how: Normaliser,
        skip: usize,
    ) {
        let ms = reply.num_arr(ms_key).unwrap_or_default();
        let per_thread: Vec<Vec<f64>> = reply
            .get(probe_key)
            .and_then(Json::as_arr)
            .map(|threads| {
                threads
                    .iter()
                    .filter_map(|t| t.as_arr())
                    .map(|t| t.iter().filter_map(Json::as_f64).collect())
                    .collect()
            })
            .unwrap_or_default();
        let factors = block_factors(&per_thread);
        let mut normalised = Vec::with_capacity(ms.len());
        for (i, &t) in ms.iter().enumerate().skip(skip) {
            // A world without probes would report its raw times.
            let f = factors.get(i / how.every).copied().unwrap_or(1.0);
            self.raw.push(t);
            self.slowdown.push(f);
            normalised.push(t / how.correction(f));
        }
        self.normalised.extend(&normalised);
        self.per_reply.push(normalised);
    }

    fn detail(&self) -> Json {
        let mut fields = match timing_json(&self.normalised) {
            Json::Obj(fields) => fields,
            _ => Vec::new(),
        };
        fields.push(("raw_p50".to_string(), Json::Num(median(&self.raw))));
        fields.push((
            "host_slowdown_p50".to_string(),
            Json::Num(median(&self.slowdown)),
        ));
        Json::Obj(fields)
    }
}

/// One workload's reduced results.
pub struct WorkloadResult {
    pub name: &'static str,
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    pub attempted: usize,
    pub errors: Vec<String>,
    /// Extra detail for `result.json`.
    pub detail: Vec<(String, Json)>,
}

fn timing_json(samples: &[f64]) -> Json {
    let s = summarize(samples);
    let mut fields = vec![("n", Json::Num(s.n as f64)), ("p50", Json::Num(s.p50))];
    if let Some((p, v)) = s.tail {
        fields.push(("tail_percentile", Json::Num(p)));
        fields.push(("tail", Json::Num(v)));
    }
    Json::obj(fields)
}

fn reduce_end_to_end(
    w: &Workload,
    c: &Collected,
    detail: &mut Vec<(String, Json)>,
) -> Vec<(&'static str, f64)> {
    let world = Normaliser::world(w);
    let setups = || c.of(Kind::Repeat).chain(c.of(Kind::Setup));
    let setup_raw: Vec<f64> = setups().filter_map(|r| r.num("setup_s").ok()).collect();
    let setup: Vec<f64> = setups()
        .filter_map(|r| {
            Some(
                r.num("setup_s").ok()?
                    / Normaliser::SETUP.correction(r.num("setup_slowdown").ok()?),
            )
        })
        .collect();
    let (mut primary, mut baseline, mut seq) =
        (Samples::default(), Samples::default(), Samples::default());
    for r in c.of(Kind::Repeat) {
        primary.add(r, ("primary_ms", "primary_probe"), world, WARM_ITERS);
        baseline.add(r, ("baseline_ms", "baseline_probe"), world, WARM_ITERS);
    }
    // The sequential walk has no plans to build; one iteration warms it.
    for r in c.of(Kind::Sequential) {
        seq.add(r, ("seq_ms", "seq_probe"), Normaliser::sequential(w), 1);
    }
    let rss: Vec<f64> = c
        .of(Kind::Repeat)
        .filter_map(|r| r.num("peak_rss_mb").ok())
        .collect();
    let useful = c
        .first(Kind::Repeat)
        .and_then(|r| r.num("useful_iters").ok())
        .unwrap_or(f64::NAN);
    let iter_p50 = median(&primary.normalised);

    detail.push(("iter_ms".into(), primary.detail()));
    detail.push(("base_iter_ms".into(), baseline.detail()));
    detail.push(("seq_iter_ms".into(), seq.detail()));
    detail.push(("setup_s_samples".into(), Json::nums(setup.iter().copied())));
    detail.push(("setup_s_raw_p50".into(), Json::Num(median(&setup_raw))));
    detail.push(("useful_iters".into(), Json::Num(useful)));
    detail.push((
        "repeat_spread_pct".into(),
        Json::Num(repeat_spread_pct(&primary.per_reply)),
    ));

    vec![
        ("setup_s", median(&setup)),
        ("iter_ms_p50", iter_p50),
        ("base_iter_ms_p50", median(&baseline.normalised)),
        ("seq_iter_ms_p50", median(&seq.normalised)),
        // iterations per ms / 1e3 = millions per second
        ("melem_per_s", useful / iter_p50 / 1e3),
        ("peak_rss_mb", median(&rss)),
    ]
}

fn reduce_layers(
    w: &Workload,
    c: &Collected,
    detail: &mut Vec<(String, Json)>,
) -> Vec<(&'static str, f64)> {
    let traced = c.first(Kind::Traced);
    let layer = |group: &str, name: &str| -> f64 {
        traced
            .and_then(|t| t.get(group))
            .and_then(|l| l.num(name).ok())
            .unwrap_or(f64::NAN)
    };
    let counter = |reply: Option<&Json>, group: &str, name: &str| -> f64 {
        reply
            .and_then(|r| r.get(group))
            .and_then(|g| g.num(name).ok())
            .unwrap_or(f64::NAN)
    };
    // Counters grow while plans are built and pools fill; what a long
    // world adds over the short oracle world is steady-state growth.
    let steady_growth = |name: &str| {
        counter(traced, "counters", name) - counter(c.first(Kind::Oracle), "warm", name)
    };
    let untraced: Vec<Vec<f64>> = c
        .of(Kind::Reference)
        .map(|r| steady(r, "primary_ms"))
        .collect();
    let pooled = untraced.concat();
    // Normalised, so that the host changing speed between the references
    // and the traced world does not read as tracing overhead.
    let normalised = |kind: Kind| {
        let mut samples = Samples::default();
        for r in c.of(kind) {
            samples.add(
                r,
                ("primary_ms", "primary_probe"),
                Normaliser::world(w),
                WARM_ITERS,
            );
        }
        samples
    };
    let reference = normalised(Kind::Reference);
    let (reference_p50, traced_normalised_p50) = (
        median(&reference.normalised),
        median(&normalised(Kind::Traced).normalised),
    );
    let untraced_p50 = median(&pooled);
    let copy_gb_s = c
        .first(Kind::CopyBandwidth)
        .and_then(|r| r.num("copy_gb_s").ok())
        .unwrap_or(f64::NAN);
    let dataflow_p50 = c
        .first(Kind::Dataflow)
        .map_or(0.0, |r| median(&steady(r, "primary_ms")));

    if let Some(t) = traced {
        for key in ["calls", "base_calls"] {
            if let Some(table) = t.get(key) {
                detail.push((key.into(), table.clone()));
            }
        }
    }

    PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let v = match name {
                "plan.steady_misses" => steady_growth("plan_misses"),
                "comm.payload_allocs_steady" => steady_growth("payload_allocs"),
                "comm.base_msgs_per_iter" => layer("base_layers", "comm.msgs_per_iter"),
                "comm.base_bytes_per_iter" => layer("base_layers", "comm.bytes_per_iter"),
                "comm.base_wait_share" => layer("base_layers", "comm.wait_share"),
                "host.copy_gb_s" => copy_gb_s,
                "kernel.bw_share" => layer("layers", "kernel.gb_s_computed") / copy_gb_s,
                "threads.dataflow_iter_ms_p50" => dataflow_p50,
                "bench.iter_ms_untraced_p50" => untraced_p50,
                "bench.trace_overhead_pct" => {
                    100.0 * (traced_normalised_p50 - reference_p50) / reference_p50
                }
                "bench.iter_ms_min" => percentile(&pooled, 0.0),
                "bench.iter_ms_p95" => percentile(&pooled, 95.0),
                "bench.repeat_spread_pct" => repeat_spread_pct(&untraced),
                "bench.samples" => pooled.len() as f64,
                "host.nproc" => host::nproc() as f64,
                "host.slowdown_p50" => median(&reference.slowdown),
                "bench.iter_ms_normalised_p50" => reference_p50,
                other => layer("layers", other),
            };
            (name, v)
        })
        .collect()
}

/// Run every task of `cfg` and reduce per workload.
pub fn run(cfg: &Config) -> Vec<WorkloadResult> {
    let mut queues: Vec<std::vec::IntoIter<Task>> = cfg
        .workloads
        .iter()
        .enumerate()
        .map(|(wi, w)| plan(cfg, wi, w).into_iter())
        .collect();
    let mut collected: Vec<Collected> =
        cfg.workloads.iter().map(|_| Collected::default()).collect();
    loop {
        let round: Vec<Task> = queues.iter_mut().filter_map(Iterator::next).collect();
        if round.is_empty() {
            break;
        }
        for task in round {
            let c = &mut collected[task.workload];
            match run_child(&task) {
                Ok(reply) => {
                    c.attempted += reply.num("ops").unwrap_or(0.0) as usize;
                    if let Some(errors) = reply.get("errors").and_then(Json::as_arr) {
                        c.errors
                            .extend(errors.iter().filter_map(Json::as_str).map(String::from));
                    }
                    c.by_kind.push((task.kind, reply));
                }
                Err(e) => {
                    c.attempted += 1;
                    c.errors.push(e);
                }
            }
        }
    }

    cfg.workloads
        .iter()
        .zip(collected)
        .map(|(w, c)| {
            let mut detail = Vec::new();
            let end_to_end = if cfg.pass != Pass::Layers {
                reduce_end_to_end(w, &c, &mut detail)
            } else {
                Vec::new()
            };
            let per_layer = if cfg.pass != Pass::EndToEnd {
                reduce_layers(w, &c, &mut detail)
            } else {
                Vec::new()
            };
            WorkloadResult {
                name: w.name,
                end_to_end,
                per_layer,
                attempted: c.attempted,
                errors: c.errors,
                detail,
            }
        })
        .collect()
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", unit.into())])
}

impl WorkloadResult {
    pub fn fail_share(&self) -> f64 {
        self.errors.len() as f64 / self.attempted.max(1) as f64
    }

    /// A metric that should have been measured but is not a number makes
    /// the result incorrect, as does any failed operation.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
            && self.attempted > 0
            && self
                .end_to_end
                .iter()
                .chain(&self.per_layer)
                .all(|m| m.1.is_finite())
    }

    fn end_to_end_json(&self) -> Json {
        Json::obj(self.end_to_end.iter().map(|&(name, v)| {
            let unit = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .map_or("", |m| m.unit);
            (name, metric_obj(v, unit))
        }))
    }

    fn per_layer_json(&self) -> Json {
        Json::obj(
            self.per_layer
                .iter()
                .map(|&(name, v)| (name, metric_obj(v, crate::metrics::per_layer_unit(name)))),
        )
    }

    /// The driver's result line: end-to-end metrics for `--trace 0`,
    /// per-layer metrics for `--trace 1`.
    pub fn contract_line(&self, pass: Pass) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.errors.len() as f64)),
            (
                "metrics",
                if pass == Pass::Layers {
                    self.per_layer_json()
                } else {
                    self.end_to_end_json()
                },
            ),
        ])
    }

    pub fn print(&self) {
        println!("== {} ==", self.name);
        for &(name, v) in &self.end_to_end {
            let m = END_TO_END
                .iter()
                .find(|m| m.name == name)
                .expect("known metric");
            println!(
                "  {name:<32} {v:>14.4} {:<8} (bound {:.0} %)",
                m.unit,
                m.bound * 100.0
            );
        }
        println!(
            "  {FAIL_SHARE:<32} {:>14.4} {:<8} ({} failed of {} attempted; must stay 0)",
            self.fail_share(),
            "share",
            self.errors.len(),
            self.attempted
        );
        for &(name, v) in &self.per_layer {
            println!(
                "  {name:<32} {v:>14.4} {}",
                crate::metrics::per_layer_unit(name)
            );
        }
        for e in &self.errors {
            println!("  FAILED: {e}");
        }
    }
}

/// Write `result.json`: provenance plus every workload's metrics.
pub fn write_result(
    cfg: &Config,
    results: &[WorkloadResult],
    started: Instant,
    path: &Path,
) -> std::io::Result<()> {
    let mut provenance = host::provenance();
    provenance.extend([
        ("seed".to_string(), Json::Num(cfg.seed as f64)),
        ("seconds".to_string(), Json::Num(cfg.seconds)),
        ("quick".to_string(), Json::Bool(cfg.quick)),
        ("warm_iters".to_string(), Json::Num(WARM_ITERS as f64)),
        (
            "wall_s".to_string(),
            Json::Num(started.elapsed().as_secs_f64()),
        ),
        (
            "iterations".to_string(),
            Json::obj(cfg.workloads.iter().map(|w| {
                (
                    w.name,
                    Json::obj([
                        (
                            "per_repeat_per_policy",
                            Json::Num(cfg.iters(w.iters) as f64),
                        ),
                        (
                            "sequential_per_repeat",
                            Json::Num(cfg.iters(w.seq_iters) as f64),
                        ),
                        (
                            "repeats",
                            Json::Num(if cfg.quick { 1.0 } else { REPEATS as f64 }),
                        ),
                    ]),
                )
            })),
        ),
    ]);
    let workloads = Json::obj(results.iter().map(|r| {
        let mut fields = vec![
            ("end_to_end".to_string(), r.end_to_end_json()),
            (FAIL_SHARE.to_string(), metric_obj(r.fail_share(), "share")),
            ("attempted".to_string(), Json::Num(r.attempted as f64)),
            ("failed".to_string(), Json::Num(r.errors.len() as f64)),
            (
                "errors".to_string(),
                Json::Arr(r.errors.iter().map(|e| e.as_str().into()).collect()),
            ),
            ("per_layer".to_string(), r.per_layer_json()),
        ];
        fields.extend(r.detail.iter().cloned());
        (r.name, Json::Obj(fields))
    }));
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("provenance", Json::Obj(provenance)),
        ("workloads", workloads),
    ]);
    std::fs::write(path, format!("{doc}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_divided_by_the_slowdown_of_their_block() {
        // Two threads, a probe every 2 iterations: the slowest thread's
        // ratios are 1, 2, 4, so the blocks ran 1.5x and 3x slower.
        let reply = Json::obj([
            ("ms", Json::nums([9.0, 3.0, 6.0, 12.0])),
            (
                "probe",
                Json::Arr(vec![
                    Json::nums([1.0, 2.0, 1.0]),
                    Json::nums([0.5, 1.0, 4.0]),
                ]),
            ),
        ]);
        let mut s = Samples::default();
        let how = |sensitivity, floor| Normaliser {
            every: 2,
            sensitivity,
            floor,
        };
        s.add(&reply, ("ms", "probe"), how(1.0, false), 1);
        assert_eq!(s.raw, vec![3.0, 6.0, 12.0]);
        assert_eq!(s.slowdown, vec![1.5, 3.0, 3.0]);
        assert_eq!(s.normalised, vec![2.0, 2.0, 4.0]);
        assert_eq!(s.per_reply, vec![vec![2.0, 2.0, 4.0]]);

        // A pass twice as sensitive as the probe.
        let mut s = Samples::default();
        s.add(&reply, ("ms", "probe"), how(2.0, true), 2);
        assert_eq!(s.normalised, vec![6.0 / 9.0, 12.0 / 9.0]);

        // A host faster than nominal: nothing to correct where the pass
        // has a floor.
        assert_eq!(how(1.5, true).correction(0.8), 1.0);
        assert_eq!(how(1.5, true).correction(4.0), 8.0);
        assert_eq!(how(1.0, false).correction(0.8), 0.8);

        // Without probes the raw times stand.
        let mut s = Samples::default();
        s.add(&reply, ("ms", "absent"), how(1.0, false), 0);
        assert_eq!(s.normalised, s.raw);
    }
}
