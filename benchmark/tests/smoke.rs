//! Runs the built binary in `--quick` mode twice with one seed and checks
//! what the acceptance criteria rest on: the traced breakdown sums to the
//! iteration wall, nothing fails, and every exact count repeats.

use op2_benchmark::json::Json;
use op2_benchmark::metrics::{END_TO_END, EXACT_COUNTS, PER_LAYER};
use op2_benchmark::workloads::WORKLOADS;
use std::path::Path;
use std::process::Command;

fn quick_run(out_dir: &Path) -> Json {
    let status = Command::new(env!("CARGO_BIN_EXE_op2-benchmark"))
        .args(["--quick", "--seed", "7", "--out"])
        .arg(out_dir)
        .status()
        .expect("run op2-benchmark");
    assert!(status.success(), "--quick exited with {status}");
    let text = std::fs::read_to_string(out_dir.join("result.json")).expect("result.json written");
    Json::parse(&text).expect("result.json parses")
}

fn value(workload: &Json, group: &str, metric: &str) -> f64 {
    workload
        .get(group)
        .and_then(|g| g.get(metric))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{group}.{metric} missing"))
}

#[test]
fn quick_mode_closes_the_breakdown_and_repeats_every_count() {
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (
        quick_run(&tmp.join("quick-a")),
        quick_run(&tmp.join("quick-b")),
    );
    for w in &WORKLOADS {
        let wa = a
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .expect("workload in result");
        let wb = b
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .expect("workload in result");

        let fail_share = wa
            .get("fail_share")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(fail_share, Some(0.0), "{}: {:?}", w.name, wa.get("errors"));
        for m in &END_TO_END {
            let v = value(wa, "end_to_end", m.name);
            assert!(v.is_finite() && v > 0.0, "{} {} = {v}", w.name, m.name);
        }
        for (name, _, _) in &PER_LAYER {
            assert!(
                value(wa, "per_layer", name).is_finite(),
                "{} {name}",
                w.name
            );
        }

        // The breakdown sums to the wall.
        let unattributed = value(wa, "per_layer", "bench.unattributed_pct");
        assert!(
            unattributed <= 3.0,
            "{}: {unattributed} % of the iteration unattributed",
            w.name
        );

        for count in EXACT_COUNTS {
            let (x, y) = (value(wa, "per_layer", count), value(wb, "per_layer", count));
            assert_eq!(
                x, y,
                "{} {count} differs between two runs with one seed",
                w.name
            );
        }
        assert!(
            tmp.join("quick-a")
                .join(format!("trace-{}.json", w.name))
                .exists(),
            "{} trace file missing",
            w.name
        );
    }
    // Each workload does what it was chosen for.
    let layer = |name: &str, metric: &str| {
        value(
            a.get("workloads").unwrap().get(name).unwrap(),
            "per_layer",
            metric,
        )
    };
    assert!(
        layer("mgcfd-wire", "comm.msgs_per_iter") < layer("mgcfd-wire", "comm.base_msgs_per_iter")
    );
    assert!(layer("hydra-chains", "core.halo_iters") > 0.0);
    assert_eq!(layer("mgcfd-threads", "comm.msgs_per_iter"), 0.0);
    assert_eq!(layer("mgcfd-wire", "plan.steady_misses"), 0.0);
}
