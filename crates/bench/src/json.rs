//! Minimal JSON emission for the machine-readable benchmark reports.
//!
//! The workspace deliberately carries no serde; the report schema is a
//! handful of flat counter objects, so a tiny value tree + escaping
//! writer covers it. [`trace_summary`] converts one [`RankTrace`] into
//! the `BENCH_*.json` per-rank record: transport recovery counters
//! (PR 1), plan-cache hit/miss counters, rebalance counters and the
//! tuner's decisions. [`load_summary`] condenses a whole run's traces
//! into the max/mean per-rank load ratio the rebalance detector
//! triggers on — every `BENCH_*.json` carries it under `load`.

use op2_runtime::{RankTrace, TunerRec};
use std::fmt::Write as _;

/// A JSON value. Numbers are split into signed/unsigned/float variants
/// so counters round-trip exactly.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer (the counter case).
    U64(u64),
    /// Signed integer (milli-percent gains).
    I64(i64),
    /// Finite float; non-finite values are emitted as `null`.
    F64(f64),
    /// String (escaped on emission).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience object constructor.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Parse a JSON document (the subset this module emits: objects,
    /// arrays, strings, numbers, booleans, null). Integers without a
    /// fraction/exponent round-trip as [`Json::U64`]/[`Json::I64`];
    /// everything else numeric becomes [`Json::F64`]. Built for the
    /// `--summary` consolidator, which re-reads its sibling
    /// `BENCH_*.json` reports.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as `f64` (any of the three number variants).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialise with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::I64(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) if items.is_empty() => out.push_str("[]"),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline(out, indent);
                out.push(']');
            }
            Json::Obj(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline(out, indent);
                out.push('}');
            }
        }
    }
}

/// Recursive-descent parser over the emitted subset. Positions are
/// byte offsets; the reports are ASCII apart from string payloads,
/// which are decoded with full escape handling.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Json::Str),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(format!("unexpected `{}` at offset {}", c as char, self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                c => return Err(format!("expected `,` or `}}`, got `{}`", c as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                c => return Err(format!("expected `,` or `]`, got `{}`", c as char)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or("bad escape")?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            // Surrogates never appear in our reports;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("bad escape `\\{}`", c as char)),
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xc0 == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|e| format!("bad utf-8 in string: {e}"))?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| format!("bad number: {e}"))?;
        if !float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Json::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

fn newline(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One tuner decision as a JSON object.
pub fn tuner_json(r: &TunerRec) -> Json {
    Json::obj(vec![
        ("chain", Json::Str(r.chain.clone())),
        ("backend", Json::Str(format!("{:?}", r.backend).to_lowercase())),
        ("class", Json::Str(format!("{:?}", r.class))),
        ("t_op2_pred_ns", Json::U64(r.t_op2_pred_ns)),
        ("t_ca_pred_ns", Json::U64(r.t_ca_pred_ns)),
        ("t_measured_ns", Json::U64(r.t_measured_ns)),
        ("gain_milli_pct", Json::I64(r.gain_milli_pct)),
    ])
}

/// Per-rank report record: communication totals, transport recovery
/// counters, plan-cache counters and tuner decisions.
pub fn trace_summary(t: &RankTrace) -> Json {
    let exch = t.exch_total();
    Json::obj(vec![
        ("rank", Json::U64(t.rank as u64)),
        ("total_msgs", Json::U64(t.total_msgs() as u64)),
        ("total_bytes", Json::U64(t.total_bytes() as u64)),
        (
            "comm",
            Json::obj(vec![
                ("retries", Json::U64(t.comm.retries)),
                ("timeouts", Json::U64(t.comm.timeouts)),
                ("corrupt_dropped", Json::U64(t.comm.corrupt_dropped)),
                ("duplicates_dropped", Json::U64(t.comm.duplicates_dropped)),
                ("delayed", Json::U64(t.comm.delayed)),
                ("hangups_seen", Json::U64(t.comm.hangups_seen)),
                ("injected_drops", Json::U64(t.comm.injected_drops)),
                ("injected_corrupt", Json::U64(t.comm.injected_corrupt)),
                ("injected_dups", Json::U64(t.comm.injected_dups)),
                ("retransmits", Json::U64(t.comm.retransmits)),
                ("payload_allocs", Json::U64(t.comm.payload_allocs)),
                ("pack_ns", Json::U64(exch.pack_ns)),
                ("unpack_ns", Json::U64(exch.unpack_ns)),
                ("wait_ns", Json::U64(exch.wait_ns)),
            ]),
        ),
        (
            "plan",
            Json::obj(vec![
                ("hits", Json::U64(t.plan.hits)),
                ("misses", Json::U64(t.plan.misses)),
                ("invalidations", Json::U64(t.plan.invalidations)),
                ("tile_hits", Json::U64(t.plan.tile_hits)),
                ("tile_misses", Json::U64(t.plan.tile_misses)),
                ("color_hits", Json::U64(t.plan.color_hits)),
                ("color_misses", Json::U64(t.plan.color_misses)),
                ("overlap_tiles", Json::U64(t.plan.overlap_tiles)),
                ("registry_hits", Json::U64(t.plan.registry_hits)),
                ("registry_misses", Json::U64(t.plan.registry_misses)),
                ("fused_pieces", Json::U64(t.plan.fused_pieces)),
                ("elided_bytes", Json::U64(t.plan.elided_bytes)),
            ]),
        ),
        (
            "recovery",
            Json::obj(vec![
                ("attempts", Json::U64(t.recovery.attempts as u64)),
                ("checkpoints", Json::U64(t.recovery.checkpoints)),
                ("ckpt_bytes", Json::U64(t.recovery.ckpt_bytes)),
                ("dats_snapshotted", Json::U64(t.recovery.dats_snapshotted)),
                ("dats_skipped", Json::U64(t.recovery.dats_skipped)),
                ("rollbacks", Json::U64(t.recovery.rollbacks)),
                ("restored_bytes", Json::U64(t.recovery.restored_bytes)),
                ("replayed_loops", Json::U64(t.recovery.replayed_loops)),
                ("replayed_chains", Json::U64(t.recovery.replayed_chains)),
                ("escalations", Json::U64(t.recovery.escalations)),
            ]),
        ),
        (
            "rebalance",
            Json::obj(vec![
                ("migrations", Json::U64(t.rebalance.migrations)),
                ("elements_out", Json::U64(t.rebalance.elements_out)),
                ("bytes_out", Json::U64(t.rebalance.bytes_out)),
                ("replans", Json::U64(t.rebalance.replans)),
                (
                    "imbalance_before_milli",
                    Json::U64(t.rebalance.imbalance_before_milli),
                ),
                (
                    "imbalance_after_milli",
                    Json::U64(t.rebalance.imbalance_after_milli),
                ),
                ("replan_ns", Json::U64(t.rebalance.replan_ns)),
            ]),
        ),
        ("threads", threads_json(t)),
        ("tuner", Json::Arr(t.tuner.iter().map(tuner_json).collect())),
    ])
}

/// Per-run load-imbalance summary: each rank's measured loop + chain
/// wall time, and the `max/mean` ratio the rebalance detector triggers
/// on (1.0 = perfectly balanced; unmeasured runs report 1.0).
pub fn load_summary(traces: &[RankTrace]) -> Json {
    let walls: Vec<u64> = traces.iter().map(|t| t.wall_ns()).collect();
    let max = walls.iter().copied().max().unwrap_or(0);
    let mean = if walls.is_empty() {
        0.0
    } else {
        walls.iter().sum::<u64>() as f64 / walls.len() as f64
    };
    let ratio = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    Json::obj(vec![
        (
            "per_rank_wall_ns",
            Json::Arr(walls.iter().map(|&w| Json::U64(w)).collect()),
        ),
        ("max_wall_ns", Json::U64(max)),
        ("mean_wall_ns", Json::F64(mean)),
        ("imbalance_ratio", Json::F64(ratio)),
    ])
}

/// Aggregate of the rank's pooled schedule executions: how many loop
/// ranges / tiled chains ran threaded, with how much parallel slack
/// (chunks, levels) and how much wall time inside the leveled sweeps.
fn threads_json(t: &RankTrace) -> Json {
    let execs = t.threads.len() as u64;
    let tiled_execs = t
        .threads
        .iter()
        .filter(|r| r.kind == op2_runtime::SchedKind::Tiled)
        .count() as u64;
    let owned_execs = t
        .threads
        .iter()
        .filter(|r| r.kind == op2_runtime::SchedKind::Owned)
        .count() as u64;
    let redundant_iters: u64 = t.threads.iter().map(|r| r.redundant_iters as u64).sum();
    let n_threads = t.threads.iter().map(|r| r.n_threads as u64).max().unwrap_or(1);
    let chunks: u64 = t.threads.iter().map(|r| r.n_chunks as u64).sum();
    let max_levels = t.threads.iter().map(|r| r.n_levels as u64).max().unwrap_or(0);
    let level_ns: u64 = t
        .threads
        .iter()
        .flat_map(|r| r.level_ns.iter().copied())
        .sum();
    let dataflow_execs = t.threads.iter().filter(|r| r.dataflow).count() as u64;
    let max_crit_path = t.threads.iter().map(|r| r.crit_path as u64).max().unwrap_or(0);
    let idle_ns: u64 = t
        .threads
        .iter()
        .flat_map(|r| r.idle_ns.iter().copied())
        .sum();
    let steals: u64 = t.threads.iter().flat_map(|r| r.steals.iter().copied()).sum();
    let fires: u64 = t.threads.iter().flat_map(|r| r.fires.iter().copied()).sum();
    Json::obj(vec![
        ("execs", Json::U64(execs)),
        ("tiled_execs", Json::U64(tiled_execs)),
        ("owned_execs", Json::U64(owned_execs)),
        ("redundant_iters", Json::U64(redundant_iters)),
        ("dataflow_execs", Json::U64(dataflow_execs)),
        ("n_threads", Json::U64(n_threads)),
        ("chunks", Json::U64(chunks)),
        ("max_levels", Json::U64(max_levels)),
        ("max_crit_path", Json::U64(max_crit_path)),
        ("level_ns", Json::U64(level_ns)),
        ("idle_ns", Json::U64(idle_ns)),
        ("steals", Json::U64(steals)),
        ("fires", Json::U64(fires)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_and_shapes() {
        let j = Json::obj(vec![
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("n", Json::U64(42)),
            ("g", Json::I64(-7)),
            ("x", Json::F64(f64::NAN)),
            ("e", Json::Arr(vec![])),
        ]);
        let s = j.pretty();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"n\": 42"));
        assert!(s.contains("\"g\": -7"));
        assert!(s.contains("\"x\": null"));
        assert!(s.contains("\"e\": []"));
    }

    #[test]
    fn trace_summary_carries_all_counter_groups() {
        let mut t = RankTrace {
            rank: 3,
            ..Default::default()
        };
        t.comm.retries = 2;
        t.comm.payload_allocs = 7;
        t.plan.hits = 5;
        t.plan.misses = 1;
        t.plan.color_hits = 4;
        t.plan.overlap_tiles = 6;
        t.loops.push(op2_runtime::LoopRec {
            name: "edge_flux".into(),
            exch: op2_runtime::ExchangeRec {
                pack_ns: 100,
                unpack_ns: 200,
                wait_ns: 300,
                ..Default::default()
            },
            ..Default::default()
        });
        t.threads.push(op2_runtime::ThreadRec {
            name: "edge_flux".into(),
            n_threads: 4,
            n_chunks: 9,
            n_levels: 2,
            level_ns: vec![10, 20],
            ..Default::default()
        });
        t.threads.push(op2_runtime::ThreadRec {
            name: "update".into(),
            kind: op2_runtime::SchedKind::Owned,
            redundant_iters: 11,
            n_levels: 1,
            ..Default::default()
        });
        t.tuner.push(TunerRec {
            chain: "synthetic".into(),
            gain_milli_pct: 1250,
            ..Default::default()
        });
        t.recovery.attempts = 2;
        t.recovery.checkpoints = 8;
        t.recovery.rollbacks = 1;
        t.recovery.replayed_chains = 3;
        t.rebalance.migrations = 1;
        t.rebalance.elements_out = 12;
        t.rebalance.bytes_out = 576;
        t.rebalance.imbalance_before_milli = 1800;
        let s = trace_summary(&t).pretty();
        assert!(s.contains("\"rank\": 3"));
        assert!(s.contains("\"retries\": 2"));
        assert!(s.contains("\"hits\": 5"));
        assert!(s.contains("\"chain\": \"synthetic\""));
        assert!(s.contains("\"gain_milli_pct\": 1250"));
        assert!(s.contains("\"color_hits\": 4"));
        assert!(s.contains("\"execs\": 2"));
        assert!(s.contains("\"owned_execs\": 1"));
        assert!(s.contains("\"redundant_iters\": 11"));
        assert!(s.contains("\"max_levels\": 2"));
        assert!(s.contains("\"level_ns\": 30"));
        assert!(s.contains("\"payload_allocs\": 7"));
        assert!(s.contains("\"overlap_tiles\": 6"));
        assert!(s.contains("\"pack_ns\": 100"));
        assert!(s.contains("\"unpack_ns\": 200"));
        assert!(s.contains("\"wait_ns\": 300"));
        assert!(s.contains("\"attempts\": 2"));
        assert!(s.contains("\"checkpoints\": 8"));
        assert!(s.contains("\"rollbacks\": 1"));
        assert!(s.contains("\"replayed_chains\": 3"));
        assert!(s.contains("\"migrations\": 1"));
        assert!(s.contains("\"elements_out\": 12"));
        assert!(s.contains("\"imbalance_before_milli\": 1800"));
    }

    #[test]
    fn parse_round_trips_emitted_reports() {
        let j = Json::obj(vec![
            ("app", Json::Str("mg-cfd".into())),
            ("wall_ms", Json::F64(12.5)),
            ("iters", Json::U64(3)),
            ("gain", Json::I64(-7)),
            ("ok", Json::Bool(true)),
            ("missing", Json::Null),
            ("walls", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            (
                "nested",
                Json::obj(vec![("s", Json::Str("a\"b\\c\nd — π".into()))]),
            ),
        ]);
        let back = Json::parse(&j.pretty()).expect("round trip");
        assert_eq!(back.get("app").map(Json::pretty), Some("\"mg-cfd\"\n".into()));
        assert_eq!(back.get("wall_ms").and_then(Json::as_f64), Some(12.5));
        assert!(matches!(back.get("iters"), Some(Json::U64(3))));
        assert!(matches!(back.get("gain"), Some(Json::I64(-7))));
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert!(matches!(back.get("missing"), Some(Json::Null)));
        assert!(matches!(back.get("walls"), Some(Json::Arr(v)) if v.len() == 2));
        let s = back.get("nested").and_then(|n| n.get("s"));
        assert!(matches!(s, Some(Json::Str(x)) if x == "a\"b\\c\nd — π"));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_number_variants() {
        assert!(matches!(Json::parse("42"), Ok(Json::U64(42))));
        assert!(matches!(Json::parse("-3"), Ok(Json::I64(-3))));
        assert!(matches!(Json::parse("2.5"), Ok(Json::F64(x)) if x == 2.5));
        assert!(matches!(Json::parse("1e3"), Ok(Json::F64(x)) if x == 1000.0));
        assert!(
            matches!(Json::parse("\"\\u00e9\\u0041\""), Ok(Json::Str(s)) if s == "éA")
        );
    }

    #[test]
    fn load_summary_reports_max_over_mean() {
        let mk = |wall: u64| {
            let mut t = RankTrace::default();
            t.loops.push(op2_runtime::LoopRec {
                wall_ns: wall,
                ..Default::default()
            });
            t
        };
        let traces = vec![mk(100), mk(300)];
        let s = load_summary(&traces).pretty();
        assert!(s.contains("\"max_wall_ns\": 300"));
        assert!(s.contains("\"mean_wall_ns\": 200"));
        assert!(s.contains("\"imbalance_ratio\": 1.5"));

        // Unmeasured traces read as balanced, not as a divide-by-zero.
        let idle = load_summary(&[RankTrace::default(), RankTrace::default()]);
        assert!(idle.pretty().contains("\"imbalance_ratio\": 1"));
    }
}
