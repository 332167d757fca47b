//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A traced world gives every rank one [`SpanLog`] whose memory is
//! reserved before the time-march starts; opening and closing a span is
//! two `Instant::now()` and a `Vec` write. Logs are merged and written
//! as Chrome trace-event JSON when the world has returned.

use crate::json::Json;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;
pub const NO_ITER: u32 = u32::MAX;

/// Track (`tid` in the trace file) of the spans the benchmark's main
/// thread records around set-up; rank spans use the rank number.
pub const HOST_TRACK: u32 = 1000;

/// Counters of the runtime's own trace record for one call, attached to
/// its span once the world has returned.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallDetail {
    pub core_iters: u64,
    pub halo_iters: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub max_msg_bytes: u64,
    pub neighbors: u64,
    /// Bytes the executed iterations move according to the loops' access
    /// descriptors (see `layers::computed_bytes_per_elem`).
    pub computed_bytes: u64,
    pub pack_ns: u64,
    pub unpack_ns: u64,
    pub wait_ns: u64,
}

impl CallDetail {
    pub fn exchange_ns(&self) -> u64 {
        self.pack_ns + self.unpack_ns + self.wait_ns
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index into the name table the log was created with.
    pub name: u32,
    pub rank: u32,
    /// Time-march iteration, or [`NO_ITER`] outside the time-march.
    pub iter: u32,
    /// Nanoseconds since the benchmark's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log, or [`NO_PARENT`].
    pub parent: u32,
    pub detail: Option<CallDetail>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanLog {
    epoch: Instant,
    rank: u32,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(epoch: Instant, rank: u32, capacity: usize) -> Self {
        SpanLog {
            epoch,
            rank,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its index for [`SpanLog::close`] and for
    /// children to name as their parent.
    pub fn open(&mut self, name: u32, iter: u32, parent: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rank: self.rank,
            iter,
            start_ns,
            end_ns: start_ns,
            parent,
            detail: None,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn scope<T>(&mut self, name: u32, parent: u32, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name, NO_ITER, parent);
        let out = f();
        self.close(idx);
        out
    }
}

/// Self time of every span of one log: its duration minus the part of
/// that interval its direct children cover (children clipped to the
/// parent, overlapping children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, <https://ui.perfetto.dev>):
/// one complete (`"ph": "X"`) event per span, one track per rank. Each
/// log comes with the name table its `Span::name`s index.
pub fn chrome_trace<S: AsRef<str>>(logs: &[(&[S], &[Span])]) -> Json {
    let mut events = Vec::new();
    let mut tracks: Vec<u32> = Vec::new();
    for &(names, spans) in logs {
        let name_of = |s: &Span| names[s.name as usize].as_ref();
        for s in spans.iter() {
            if !tracks.contains(&s.rank) {
                tracks.push(s.rank);
            }
            let mut args = Vec::new();
            if s.iter != NO_ITER {
                args.push(("iteration".to_string(), Json::Num(s.iter as f64)));
            }
            if s.parent != NO_PARENT {
                let p = &spans[s.parent as usize];
                args.push(("parent".to_string(), name_of(p).into()));
            }
            if let Some(d) = &s.detail {
                for (k, v) in [
                    ("core_iters", d.core_iters),
                    ("halo_iters", d.halo_iters),
                    ("msgs", d.msgs),
                    ("bytes", d.bytes),
                    ("computed_bytes", d.computed_bytes),
                    ("pack_ns", d.pack_ns),
                    ("unpack_ns", d.unpack_ns),
                    ("wait_ns", d.wait_ns),
                ] {
                    args.push((k.to_string(), Json::Num(v as f64)));
                }
            }
            events.push(Json::obj([
                ("name", name_of(s).into()),
                ("ph", "X".into()),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(s.rank as f64)),
                ("args", Json::Obj(args)),
            ]));
        }
    }
    for t in tracks {
        let label = if t == HOST_TRACK {
            "benchmark (set-up)".to_string()
        } else {
            format!("rank {t}")
        };
        events.push(Json::obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", Json::Num(0.0)),
            ("tid", Json::Num(t as f64)),
            ("args", Json::obj([("name", Json::Str(label))])),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name: 0,
            rank: 0,
            iter: NO_ITER,
            start_ns,
            end_ns,
            parent,
            detail: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, 100, NO_PARENT), // 0: root
            span(10, 30, 0),         // 1
            span(40, 70, 0),         // 2
            span(45, 60, 2),         // 3: grandchild, not root's child
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 15, 15]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(100, 200, NO_PARENT),
            span(90, 150, 0),  // starts before the parent: clipped to 100..150
            span(140, 180, 0), // overlaps the first by 10
            span(190, 260, 0), // ends after the parent: clipped to 190..200
            span(300, 400, 0), // outside the parent entirely
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - (50 + 30 + 10));
    }

    #[test]
    fn log_nests_and_orders() {
        let mut log = SpanLog::with_capacity(Instant::now(), 3, 4);
        let outer = log.open(0, 7, NO_PARENT);
        let inner = log.open(1, 7, outer);
        log.close(inner);
        log.close(outer);
        let (o, i) = (&log.spans[0], &log.spans[1]);
        assert_eq!((o.rank, o.iter, i.parent), (3, 7, outer));
        assert!(o.start_ns <= i.start_ns && i.end_ns <= o.end_ns);
        let trace = chrome_trace(&[(&["iteration", "call"][..], &log.spans[..])]);
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3); // two spans + one track name
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_str(),
            Some("iteration")
        );
    }
}
