//! `op2-benchmark compare <a.json> <b.json>`: one row per (workload,
//! end-to-end metric) with both values, the ratio with its base, the
//! bound and a verdict. The tool for A/A runs and for judging a change
//! against its parent.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, EXACT_COUNTS, FAIL_SHARE};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    /// The run-to-run spread is wider than the bound: the comparison
    /// cannot say "unchanged".
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against base `a`. `spread` is the larger repeat spread of
/// the two runs as a share (not percent), when it applies to the metric.
pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread: Option<f64>) -> Verdict {
    let change = match better {
        Better::Lower => b / a - 1.0,
        Better::Higher => a / b - 1.0,
    };
    if !change.is_finite() || spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn metric(workload: &Json, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

/// Repeat spread of one workload of one result file, as a share.
fn spread(workload: &Json) -> Option<f64> {
    workload
        .get("repeat_spread_pct")
        .and_then(Json::as_f64)
        .or_else(|| metric(workload, "per_layer", "bench.repeat_spread_pct"))
        .map(|pct| pct / 100.0)
}

/// Compare two parsed result files; returns the report and whether any
/// row is worse (or any exact count differs).
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<18} {:>12} {:>12} {:>20} {:>6}  verdict\n",
        "workload", "metric", "a", "b", "b/a (base a)", "bound"
    );
    let mut any_worse = false;
    let empty = Json::Obj(Vec::new());
    let (wa, wb) = (
        a.get("workloads").unwrap_or(&empty),
        b.get("workloads").unwrap_or(&empty),
    );
    for (name, la) in wa.fields() {
        let Some(lb) = wb.get(name) else { continue };
        let spread = match (spread(la), spread(lb)) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (
                metric(la, "end_to_end", m.name),
                metric(lb, "end_to_end", m.name),
            ) else {
                continue;
            };
            // Peak RSS does not depend on iteration timing.
            let applies = spread.filter(|_| m.unit != "MB");
            let v = verdict(x, y, m.better, m.bound, applies);
            any_worse |= v == Verdict::Worse;
            out += &format!(
                "{name:<14} {:<18} {x:>12.4} {y:>12.4} {:>20} {:>5.0}%  {}\n",
                m.name,
                format!("{:.4} ({x:.4} {})", y / x, m.unit),
                m.bound * 100.0,
                v.label()
            );
        }
        let fail_share = |w: &Json| w.get(FAIL_SHARE)?.get("value")?.as_f64();
        if let (Some(x), Some(y)) = (fail_share(la), fail_share(lb)) {
            // Must stay 0: any rise is worse, whatever the ratio.
            let v = if y > x {
                Verdict::Worse
            } else {
                Verdict::WithinBound
            };
            any_worse |= v == Verdict::Worse;
            out += &format!(
                "{name:<14} {FAIL_SHARE:<18} {x:>12.4} {y:>12.4} {:>20} {:>6}  {}\n",
                "-",
                "0",
                v.label()
            );
        }
        for count in EXACT_COUNTS {
            if let (Some(x), Some(y)) = (
                metric(la, "per_layer", count),
                metric(lb, "per_layer", count),
            ) {
                if x != y {
                    any_worse = true;
                    out +=
                        &format!("{name:<14} {count:<18} {x:>12} {y:>12}  exact count differs\n");
                }
            }
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        assert_eq!(verdict(10.0, 10.5, Lower, 0.10, None), Verdict::WithinBound);
        assert_eq!(verdict(10.0, 11.5, Lower, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(10.0, 8.0, Lower, 0.10, None), Verdict::Better);
        assert_eq!(verdict(10.0, 8.0, Higher, 0.10, None), Verdict::Worse);
        assert_eq!(verdict(10.0, 12.0, Higher, 0.10, None), Verdict::Better);
        assert_eq!(
            verdict(10.0, 11.5, Lower, 0.10, Some(0.2)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(10.0, 11.5, Lower, 0.10, Some(0.05)), Verdict::Worse);
        assert_eq!(verdict(0.0, 0.0, Lower, 0.10, None), Verdict::Unresolved);
    }

    fn result(iter_ms: f64, fail: f64, msgs: f64) -> Json {
        let m = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", "x".into())]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "w",
                Json::obj([
                    ("end_to_end", Json::obj([("iter_ms_p50", m(iter_ms))])),
                    ("fail_share", m(fail)),
                    ("per_layer", Json::obj([("comm.msgs_per_iter", m(msgs))])),
                    ("repeat_spread_pct", Json::Num(1.0)),
                ]),
            )]),
        )])
    }

    #[test]
    fn report_flags_worse_rows() {
        let base = result(10.0, 0.0, 8.0);
        let (text, worse) = compare(&base, &result(10.2, 0.0, 8.0));
        assert!(!worse, "{text}");
        assert!(text.contains("within-bound"));
        assert!(compare(&base, &result(13.0, 0.0, 8.0)).1);
        assert!(compare(&base, &result(10.0, 0.1, 8.0)).1);
        let (text, worse) = compare(&base, &result(10.0, 0.0, 24.0));
        assert!(worse && text.contains("exact count differs"));
    }
}
