//! The metric names, units and bounds. `BENCHMARK.json` repeats them for
//! the driver; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    ///
    /// Wider than the 10-15 % a quiet machine would allow. The timings
    /// are normalised by the host probe (`crate::probe`): ten runs of one
    /// commit then spread (first to third quartile) by 1-8 % of their
    /// median, but between a wholly quiet and a wholly slow run of the
    /// shared host the normalisation still leaves 10-15 %, and a bound
    /// below that would reject unchanged code. Peak RSS does not depend
    /// on the host but on the seed: the shuffled numbering moves the
    /// set-up peak of `mgcfd-compute` between 93 and 98 MB.
    pub bound: f64,
}

/// `fail_share` is the seventh end-to-end metric: it is reported through
/// the result's `failed` / `attempted` keys (and in `result.json`), not
/// listed here, because it must stay 0 and a bound relative to 0 means
/// nothing.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "iter_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "base_iter_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "seq_iter_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "melem_per_s",
        unit: "Melem/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
];

pub const FAIL_SHARE: &str = "fail_share";

/// `(name, unit, better)`, in reporting order.
pub const PER_LAYER: [(&str, &str, Better); 58] = {
    use Better::{Higher, Lower};
    [
        // Set-up, layer by layer -> setup_s.
        ("mesh.build_ms", "ms", Lower),
        ("partition.split_ms", "ms", Lower),
        ("partition.ownership_ms", "ms", Lower),
        ("partition.layouts_ms", "ms", Lower),
        ("runtime.spawn_ms", "ms", Lower),
        ("runtime.gather_ms", "ms", Lower),
        ("plan.cold_extra_ms", "ms", Lower),
        // Plan cache.
        ("plan.hits", "count", Higher),
        ("plan.misses", "count", Lower),
        ("plan.color_misses", "count", Lower),
        ("plan.steady_misses", "count", Lower),
        // Where an iteration's wall goes (critical rank).
        ("exec.loops_ms", "ms", Lower),
        ("exec.chains_ms", "ms", Lower),
        ("exec.reduce_ms", "ms", Lower),
        ("exec.compute_ms", "ms", Lower),
        ("comm.pack_ms", "ms", Lower),
        ("comm.unpack_ms", "ms", Lower),
        ("comm.wait_ms", "ms", Lower),
        ("kernel.ns_per_elem", "ns", Lower),
        // Messages.
        ("comm.msgs_per_iter", "count", Lower),
        ("comm.bytes_per_iter", "B", Lower),
        ("comm.max_msg_bytes", "B", Lower),
        ("comm.neighbors", "count", Lower),
        ("comm.base_msgs_per_iter", "count", Lower),
        ("comm.base_bytes_per_iter", "B", Lower),
        ("comm.payload_allocs_steady", "count", Lower),
        ("comm.retries", "count", Lower),
        ("comm.timeouts", "count", Lower),
        // Redundant work.
        ("core.core_iters", "count", Higher),
        ("core.halo_iters", "count", Lower),
        ("core.useful_share", "share", Higher),
        ("partition.halo_elem_share", "share", Lower),
        // Roofline statement.
        ("kernel.mb_per_iter_computed", "MB", Lower),
        ("kernel.gb_s_computed", "GB/s", Higher),
        ("host.copy_gb_s", "GB/s", Higher),
        ("kernel.bw_share", "share", Higher),
        // Thread pool.
        ("threads.levels_per_iter", "count", Lower),
        ("threads.chunks_per_iter", "count", Lower),
        ("threads.crit_path", "count", Lower),
        ("threads.level_ms", "ms", Lower),
        ("threads.idle_share", "share", Lower),
        ("threads.steals_per_iter", "count", Lower),
        ("threads.dataflow_iter_ms_p50", "ms", Lower),
        // The benchmark itself.
        ("bench.iter_ms_traced_p50", "ms", Lower),
        ("bench.iter_ms_untraced_p50", "ms", Lower),
        ("bench.unattributed_ms", "ms", Lower),
        ("bench.unattributed_pct", "%", Lower),
        ("bench.trace_overhead_pct", "%", Lower),
        ("bench.iter_ms_min", "ms", Lower),
        ("bench.iter_ms_p95", "ms", Lower),
        ("bench.repeat_spread_pct", "%", Lower),
        ("bench.samples", "count", Higher),
        ("host.nproc", "count", Higher),
        // The host's slowdown during the untraced references (probe time
        // over nominal) and their iteration wall divided by it: what the
        // end-to-end timings report.
        ("host.slowdown_p50", "x", Lower),
        ("bench.iter_ms_normalised_p50", "ms", Lower),
        // Shares of the traced iteration, for the acceptance statements.
        ("exec.compute_share", "share", Higher),
        ("comm.wait_share", "share", Lower),
        ("comm.base_wait_share", "share", Lower),
    ]
};

/// Per-layer metrics that are exact counts: two runs with the same seed
/// must agree on every one of them.
pub const EXACT_COUNTS: [&str; 14] = [
    "plan.hits",
    "plan.misses",
    "plan.color_misses",
    "plan.steady_misses",
    "comm.msgs_per_iter",
    "comm.bytes_per_iter",
    "comm.max_msg_bytes",
    "comm.neighbors",
    "comm.base_msgs_per_iter",
    "comm.base_bytes_per_iter",
    "core.core_iters",
    "core.halo_iters",
    "threads.levels_per_iter",
    "threads.chunks_per_iter",
];

pub fn per_layer_unit(name: &str) -> &'static str {
    PER_LAYER.iter().find(|m| m.0 == name).map_or("", |m| m.1)
}
