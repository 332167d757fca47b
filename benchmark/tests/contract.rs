//! `BENCHMARK.json` at the root of the repo repeats, for the driver, the
//! names, units and bounds this package defines; they must not drift.

use op2_benchmark::json::Json;
use op2_benchmark::metrics::{END_TO_END, PER_LAYER};
use op2_benchmark::run::REFERENCE_SECONDS;
use op2_benchmark::workloads::WORKLOADS;

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {entry}"))
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("parses");
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("`{key}` missing"))
    };

    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(REFERENCE_SECONDS)
    );

    let workloads: Vec<(&str, &str)> = list("workloads")
        .iter()
        .map(|w| (str_of(w, "name"), str_of(w, "why")))
        .collect();
    let defined: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, defined);

    let end_to_end: Vec<(&str, &str, &str, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                str_of(m, "name"),
                str_of(m, "unit"),
                str_of(m, "better"),
                m.num("bound").unwrap(),
            )
        })
        .collect();
    let defined: Vec<(&str, &str, &str, f64)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better.label(), m.bound))
        .collect();
    assert_eq!(end_to_end, defined);

    let per_layer: Vec<(&str, &str, &str)> = list("per_layer")
        .iter()
        .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
        .collect();
    let defined: Vec<(&str, &str, &str)> =
        PER_LAYER.iter().map(|m| (m.0, m.1, m.2.label())).collect();
    assert_eq!(per_layer, defined);
}
