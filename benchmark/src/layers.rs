//! Per-layer metrics of one traced world.
//!
//! Time components are per-iteration means over the steady iterations of
//! the **critical rank** — the rank with the largest steady iteration
//! wall, which is the one the rank-max wall follows — so that they add up
//! to that rank's iteration wall. Counts are summed over ranks.

use crate::json::Json;
use crate::spans::{self_times_ns, CallDetail, Span, NO_ITER};
use crate::stats::median;
use crate::workloads::Program;
use crate::world::{RankOut, SpanKind, WorldOut};
use op2_core::{Arg, Domain, LoopSpec};
use op2_partition::RankLayout;
use op2_runtime::RankTrace;

/// Bytes one iteration of `spec` moves according to its access
/// descriptors: 8 bytes per dat component read plus 8 per component
/// written (`Rw` and `Inc` do both), plus one 4-byte index per entry of
/// every distinct map the loop goes through. *Computed*: it ignores cache
/// reuse and cache misses alike.
pub fn computed_bytes_per_elem(dom: &Domain, spec: &LoopSpec) -> u64 {
    let mut bytes = 0;
    let mut maps = Vec::new();
    for arg in &spec.args {
        if let Arg::Dat { dat, map, mode } = arg {
            let touches = u64::from(mode.reads()) + u64::from(mode.modifies());
            bytes += 8 * dom.dat(*dat).dim as u64 * touches;
            if let Some((m, _)) = map {
                if !maps.contains(m) {
                    maps.push(*m);
                    bytes += 4 * dom.map(*m).arity as u64;
                }
            }
        }
    }
    bytes
}

/// Steady-state sums of one rank, all per world (divide by `iters`).
#[derive(Default, Clone)]
struct RankSums {
    iters: f64,
    wall_ns: f64,
    /// Self time of the iteration spans: wall no call accounts for.
    unattributed_ns: f64,
    loops_ns: f64,
    chains_ns: f64,
    reduce_ns: f64,
    detail: CallDetail,
    /// Per span name: calls and summed duration / detail.
    by_name: Vec<(f64, f64, CallDetail)>,
}

fn add_detail(a: &mut CallDetail, d: &CallDetail) {
    a.core_iters += d.core_iters;
    a.halo_iters += d.halo_iters;
    a.msgs += d.msgs;
    a.bytes += d.bytes;
    a.max_msg_bytes = a.max_msg_bytes.max(d.max_msg_bytes);
    a.neighbors = a.neighbors.max(d.neighbors);
    a.computed_bytes += d.computed_bytes;
    a.pack_ns += d.pack_ns;
    a.unpack_ns += d.unpack_ns;
    a.wait_ns += d.wait_ns;
}

fn rank_sums(spans: &[Span], kinds: &[SpanKind], warm: u32) -> RankSums {
    let mut s = RankSums {
        by_name: vec![(0.0, 0.0, CallDetail::default()); kinds.len()],
        ..RankSums::default()
    };
    let self_ns = self_times_ns(spans);
    for (sp, self_ns) in spans.iter().zip(self_ns) {
        if sp.iter == NO_ITER || sp.iter < warm {
            continue;
        }
        let dur = sp.dur_ns() as f64;
        match kinds[sp.name as usize] {
            SpanKind::Iteration => {
                s.iters += 1.0;
                s.wall_ns += dur;
                s.unattributed_ns += self_ns as f64;
                continue;
            }
            SpanKind::Loop => s.loops_ns += dur,
            SpanKind::Chain => s.chains_ns += dur,
            SpanKind::Reduce => s.reduce_ns += dur,
            SpanKind::InitCall | SpanKind::Init => continue,
        }
        let d = sp.detail.unwrap_or_default();
        add_detail(&mut s.detail, &d);
        let row = &mut s.by_name[sp.name as usize];
        row.0 += 1.0;
        row.1 += dur;
        add_detail(&mut row.2, &d);
    }
    s
}

/// Thread-pool sums of one rank over its steady iterations.
#[derive(Default)]
struct ThreadSums {
    levels: f64,
    chunks: f64,
    crit_path: f64,
    drain_ns: f64,
    idle_ns: f64,
    worker_ns: f64,
    steals: f64,
}

fn thread_sums(trace: &RankTrace, rank: &RankOut, warm: usize) -> ThreadSums {
    let mut t = ThreadSums::default();
    let (Some(&lo), Some(&hi)) = (rank.thread_marks.get(warm), rank.thread_marks.last()) else {
        return t;
    };
    for rec in &trace.threads[lo..hi] {
        let drain: u64 = rec.level_ns.iter().sum();
        t.levels += rec.n_levels as f64;
        t.chunks += rec.n_chunks as f64;
        t.crit_path += rec.crit_path as f64;
        t.drain_ns += drain as f64;
        t.idle_ns += rec.idle_ns.iter().sum::<u64>() as f64;
        t.worker_ns += (rec.n_threads as u64 * drain) as f64;
        t.steals += rec.steals.iter().sum::<u64>() as f64;
    }
    t
}

pub struct Layers {
    /// `(metric name, value)`; names are those of `metrics::PER_LAYER`.
    pub metrics: Vec<(&'static str, f64)>,
    /// The per-call-name table (the repo's Table 2/5 rows).
    pub calls: Json,
}

/// Reduce a traced world. `warm` leading iterations are excluded.
pub fn layer_metrics(
    world: &WorldOut,
    program: &Program,
    dom: &Domain,
    layouts: &[RankLayout],
    warm: usize,
) -> Layers {
    let kinds = &world.spans.kinds;

    let ranks: Vec<&RankOut> = world.ok_ranks().collect();
    let sums: Vec<RankSums> = ranks
        .iter()
        .map(|r| {
            let spans = r.log.as_ref().map_or(&[][..], |l| &l.spans);
            rank_sums(spans, kinds, warm as u32)
        })
        .collect();
    let iters = sums.iter().map(|s| s.iters).fold(0.0, f64::max).max(1.0);
    let crit = sums
        .iter()
        .max_by(|a, b| a.wall_ns.total_cmp(&b.wall_ns))
        .cloned()
        .unwrap_or_default();
    let per_iter_ms = |ns: f64| ns / iters / 1e6;

    // Counts, summed over ranks.
    let mut all = CallDetail::default();
    for s in &sums {
        add_detail(&mut all, &s.detail);
    }
    let executed = (all.core_iters + all.halo_iters) as f64 / iters;
    let exchange_ns_all: f64 = sums.iter().map(|s| s.detail.exchange_ns() as f64).sum();
    let compute_ns_all: f64 =
        sums.iter().map(|s| s.loops_ns + s.chains_ns).sum::<f64>() - exchange_ns_all;

    let compute_ns = crit.loops_ns + crit.chains_ns - crit.detail.exchange_ns() as f64;
    // Iterations behind `compute_ns`: the reduction's are timed apart.
    let reduce = crit
        .by_name
        .get(kinds.len() - 3)
        .map_or(CallDetail::default(), |row| row.2);
    let crit_executed = (crit.detail.core_iters + crit.detail.halo_iters
        - reduce.core_iters
        - reduce.halo_iters) as f64;
    let unattributed_ns = crit.unattributed_ns;

    let (mut owned, mut imported) = (0.0, 0.0);
    for l in layouts {
        for s in &l.sets {
            owned += s.n_owned as f64;
            imported += (s.locals.len() - s.n_owned) as f64;
        }
    }

    let mut threads = ThreadSums::default();
    for (trace, rank) in world.traces.iter().zip(&world.ranks) {
        if let Ok(rank) = rank {
            let t = thread_sums(trace, rank, warm);
            threads.levels += t.levels;
            threads.chunks += t.chunks;
            threads.crit_path += t.crit_path;
            threads.drain_ns = threads.drain_ns.max(t.drain_ns);
            threads.idle_ns += t.idle_ns;
            threads.worker_ns += t.worker_ns;
            threads.steals += t.steals;
        }
    }

    let mut plan = (0.0, 0.0, 0.0);
    let (mut retries, mut timeouts) = (0.0, 0.0);
    for t in &world.traces {
        plan.0 += t.plan.hits as f64;
        plan.1 += t.plan.misses as f64;
        plan.2 += t.plan.color_misses as f64;
        retries += t.comm.retries as f64;
        timeouts += t.comm.timeouts as f64;
    }

    let iter_ms = world.iter_ms();
    let steady_p50 = median(&iter_ms[warm.min(iter_ms.len())..]);
    let enter = ranks
        .iter()
        .map(|r| r.enter_ns)
        .max()
        .unwrap_or(world.call_ns);
    let exit = ranks
        .iter()
        .map(|r| r.exit_ns)
        .max()
        .unwrap_or(world.return_ns);
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };

    let metrics = vec![
        ("runtime.spawn_ms", (enter - world.call_ns) as f64 / 1e6),
        ("runtime.gather_ms", (world.return_ns - exit) as f64 / 1e6),
        (
            "plan.cold_extra_ms",
            iter_ms.first().copied().unwrap_or(f64::NAN) - steady_p50,
        ),
        ("plan.hits", plan.0),
        ("plan.misses", plan.1),
        ("plan.color_misses", plan.2),
        ("exec.loops_ms", per_iter_ms(crit.loops_ns)),
        ("exec.chains_ms", per_iter_ms(crit.chains_ns)),
        ("exec.reduce_ms", per_iter_ms(crit.reduce_ns)),
        ("exec.compute_ms", per_iter_ms(compute_ns)),
        ("comm.pack_ms", per_iter_ms(crit.detail.pack_ns as f64)),
        ("comm.unpack_ms", per_iter_ms(crit.detail.unpack_ns as f64)),
        ("comm.wait_ms", per_iter_ms(crit.detail.wait_ns as f64)),
        ("kernel.ns_per_elem", share(compute_ns, crit_executed)),
        ("comm.msgs_per_iter", all.msgs as f64 / iters),
        ("comm.bytes_per_iter", all.bytes as f64 / iters),
        ("comm.max_msg_bytes", all.max_msg_bytes as f64),
        ("comm.neighbors", all.neighbors as f64),
        ("comm.retries", retries),
        ("comm.timeouts", timeouts),
        ("core.core_iters", all.core_iters as f64 / iters),
        ("core.halo_iters", all.halo_iters as f64 / iters),
        (
            "core.useful_share",
            share(program.useful_iters(dom) as f64, executed),
        ),
        ("partition.halo_elem_share", share(imported, owned)),
        (
            "kernel.mb_per_iter_computed",
            all.computed_bytes as f64 / iters / 1e6,
        ),
        (
            "kernel.gb_s_computed",
            share(all.computed_bytes as f64, compute_ns_all),
        ),
        ("threads.levels_per_iter", threads.levels / iters),
        ("threads.chunks_per_iter", threads.chunks / iters),
        ("threads.crit_path", threads.crit_path / iters),
        ("threads.level_ms", per_iter_ms(threads.drain_ns)),
        (
            "threads.idle_share",
            share(threads.idle_ns, threads.worker_ns),
        ),
        ("threads.steals_per_iter", threads.steals / iters),
        ("bench.iter_ms_traced_p50", steady_p50),
        ("bench.unattributed_ms", per_iter_ms(unattributed_ns)),
        (
            "bench.unattributed_pct",
            100.0 * share(unattributed_ns, crit.wall_ns),
        ),
        ("exec.compute_share", share(compute_ns, crit.wall_ns)),
        (
            "comm.wait_share",
            share(crit.detail.wait_ns as f64, crit.wall_ns),
        ),
    ];

    let calls = Json::Arr(
        crit.by_name
            .iter()
            .enumerate()
            .filter(|(_, row)| row.0 > 0.0)
            .map(|(k, (calls, dur, d))| {
                let per = |v: f64| Json::Num(v / iters);
                Json::obj([
                    ("name", world.spans.names[k].as_str().into()),
                    ("calls_per_iter", per(*calls)),
                    ("wall_ms", per(dur / 1e6)),
                    ("compute_ms", per((dur - d.exchange_ns() as f64) / 1e6)),
                    ("pack_ms", per(d.pack_ns as f64 / 1e6)),
                    ("unpack_ms", per(d.unpack_ns as f64 / 1e6)),
                    ("wait_ms", per(d.wait_ns as f64 / 1e6)),
                    ("core_iters", per(d.core_iters as f64)),
                    ("halo_iters", per(d.halo_iters as f64)),
                    ("msgs", per(d.msgs as f64)),
                    ("bytes", per(d.bytes as f64)),
                    ("computed_mb", per(d.computed_bytes as f64 / 1e6)),
                ])
            })
            .collect(),
    );
    Layers { metrics, calls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::AccessMode;

    fn noop(_: &op2_core::Args<'_>) {}

    #[test]
    fn computed_bytes_of_a_hand_built_loop() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 3);
        let edges = dom.decl_set("edges", 2);
        let e2n = dom
            .decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2])
            .unwrap();
        let q = dom.decl_dat_zeros("q", nodes, 5);
        let res = dom.decl_dat_zeros("res", nodes, 2);
        let w = dom.decl_dat_zeros("w", edges, 1);
        let spec = LoopSpec::new(
            "flux",
            edges,
            vec![
                Arg::dat_indirect(q, e2n, 0, AccessMode::Read), // 5 * 8
                Arg::dat_indirect(q, e2n, 1, AccessMode::Read), // 5 * 8
                Arg::dat_indirect(res, e2n, 0, AccessMode::Inc), // 2 * 8 * 2
                Arg::dat_direct(w, AccessMode::Write),          // 1 * 8
                Arg::gbl(0, AccessMode::Inc),                   // not memory traffic
            ],
            noop,
        );
        // One map of arity 2, counted once: 2 * 4.
        assert_eq!(computed_bytes_per_elem(&dom, &spec), 40 + 40 + 32 + 8 + 8);

        let rw = LoopSpec::new("rw", nodes, vec![Arg::dat_direct(q, AccessMode::Rw)], noop);
        assert_eq!(computed_bytes_per_elem(&dom, &rw), 80);
    }

    #[test]
    fn rank_sums_skip_warm_up_and_split_by_kind() {
        let sp = |name, iter, start_ns, end_ns, wait_ns| Span {
            name,
            rank: 0,
            iter,
            start_ns,
            end_ns,
            // Iteration spans (name 3) sit at indices 0 and 2.
            parent: match (name, iter) {
                (3, _) => crate::spans::NO_PARENT,
                (_, 0) => 0,
                _ => 2,
            },
            detail: Some(CallDetail {
                wait_ns,
                msgs: 1,
                ..CallDetail::default()
            }),
        };
        // names: 0 loop, 1 chain, 2 reduce, 3 iteration
        let kinds = [
            SpanKind::Loop,
            SpanKind::Chain,
            SpanKind::Reduce,
            SpanKind::Iteration,
        ];
        let spans = vec![
            sp(3, 0, 0, 100, 0),
            sp(0, 0, 0, 90, 5), // warm-up: ignored
            sp(3, 1, 100, 200, 0),
            sp(0, 1, 100, 130, 5),
            sp(1, 1, 130, 180, 20),
            sp(2, 1, 180, 195, 0),
        ];
        let s = rank_sums(&spans, &kinds, 1);
        assert_eq!((s.iters, s.wall_ns, s.unattributed_ns), (1.0, 100.0, 5.0));
        assert_eq!((s.loops_ns, s.chains_ns, s.reduce_ns), (30.0, 50.0, 15.0));
        assert_eq!((s.detail.wait_ns, s.detail.msgs), (25, 3));
        assert_eq!(s.by_name[1].0, 1.0);
    }
}
