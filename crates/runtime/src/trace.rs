//! Execution instrumentation.
//!
//! Every quantity in the paper's Tables 2 and 5 appears here: core and
//! halo iteration counts (`ΣS^c`, `ΣS^1`, `ΣS^h`), message counts and
//! sizes (the `2dpm^1` vs `pm^r` comparison), neighbour counts, and the
//! packed-element counts behind the packing cost `c` of Eq 3.
//!
//! The per-call records are bounded, as OP2's own `op_timing_output`
//! is (count, time and bytes per kernel, not a per-call log): every loop
//! and chain call folds into exact per-name [`CallTotals`], and
//! [`RankTrace::loops`]/[`RankTrace::chains`] keep only a window of the
//! newest records in storage allocated once per rank. A steady call
//! allocates nothing here: a record's name and per-loop split are `Arc`s
//! held by the plan that ran it.

use std::sync::Arc;

/// Storage of each record window, allocated once per rank. When it
/// fills, the oldest half is dropped in one move, so the window always
/// holds at least the newest `TRACE_WINDOW / 2` records of its kind.
pub const TRACE_WINDOW: usize = 128;

/// Communication performed for one loop or one chain on one rank.
///
/// Equality ignores the wall-clock fields (`pack_ns`, `unpack_ns`,
/// `wait_ns` — they vary run to run) so whole-trace comparisons in the
/// replay-determinism tests stay meaningful; [`ExchangeRec::add`] still
/// accumulates them for reporting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeRec {
    /// Messages sent by this rank.
    pub n_msgs: usize,
    /// Total payload bytes sent.
    pub bytes: usize,
    /// Largest single message sent (the model's `m`).
    pub max_msg_bytes: usize,
    /// Neighbours communicated with.
    pub n_neighbors: usize,
    /// Elements packed (sender side) — proxy for packing cost `c`.
    pub packed_elems: usize,
    /// Bitmask of neighbour ranks actually sent to, indexed by
    /// `min(rank, 127)`. Lets [`ExchangeRec::add`] count *distinct*
    /// messaged neighbours across loops with alternating stencils
    /// instead of taking a lossy max. Beyond 128 ranks the top bit
    /// saturates and the count degrades to the documented
    /// max-approximation (exact for every configuration this repo
    /// reproduces — the paper's Tables 2/5 use ≤ 128 ranks per trace).
    pub nbr_bits: u128,
    /// Wall time spent packing send payloads, nanoseconds (the measured
    /// side of Eq 3's per-byte pack cost `c`). Not compared by `==`.
    pub pack_ns: u64,
    /// Wall time spent unpacking received payloads, nanoseconds. Not
    /// compared by `==`.
    pub unpack_ns: u64,
    /// Wall time in the receive calls for neighbour messages (excluding
    /// unpack), nanoseconds. Not only time blocked on a peer: it
    /// includes any injected delay the receiver sleeps out. Not compared
    /// by `==`.
    pub wait_ns: u64,
}

impl PartialEq for ExchangeRec {
    fn eq(&self, other: &Self) -> bool {
        self.n_msgs == other.n_msgs
            && self.bytes == other.bytes
            && self.max_msg_bytes == other.max_msg_bytes
            && self.n_neighbors == other.n_neighbors
            && self.packed_elems == other.packed_elems
            && self.nbr_bits == other.nbr_bits
    }
}

impl Eq for ExchangeRec {}

impl ExchangeRec {
    /// Distinct neighbour ranks this record actually messaged.
    pub fn distinct_neighbors(&self) -> usize {
        self.nbr_bits.count_ones() as usize
    }

    /// Accumulate another record. `n_neighbors` becomes the larger of
    /// the per-record maxima and the union's distinct messaged-peer
    /// count — chains alternating between stencils with disjoint
    /// neighbour sets are no longer under-reported.
    pub fn add(&mut self, other: &ExchangeRec) {
        self.n_msgs += other.n_msgs;
        self.bytes += other.bytes;
        self.max_msg_bytes = self.max_msg_bytes.max(other.max_msg_bytes);
        self.nbr_bits |= other.nbr_bits;
        self.n_neighbors = self
            .n_neighbors
            .max(other.n_neighbors)
            .max(self.distinct_neighbors());
        self.packed_elems += other.packed_elems;
        self.pack_ns += other.pack_ns;
        self.unpack_ns += other.unpack_ns;
        self.wait_ns += other.wait_ns;
    }
}

/// One standard (Alg 1) loop execution.
///
/// Equality ignores `wall_ns` (wall clock varies run to run), matching
/// the [`ExchangeRec`] convention, so whole-trace comparisons in the
/// replay-determinism tests stay meaningful.
#[derive(Debug, Clone, Default)]
pub struct LoopRec {
    /// Loop name, shared with the loop's exchange-cache entry.
    pub name: Arc<str>,
    /// Iterations overlapped with communication (`S^c`).
    pub core_iters: usize,
    /// Iterations after the exchange completed (`S^1` for Alg 1).
    pub halo_iters: usize,
    /// Number of dats whose halos were exchanged (`d` in Eq 1).
    pub d_exchanged: usize,
    /// Communication record.
    pub exch: ExchangeRec,
    /// Wall time of the whole loop execution (exchange + compute),
    /// nanoseconds. Not compared by `==`.
    pub wall_ns: u64,
}

impl PartialEq for LoopRec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.core_iters == other.core_iters
            && self.halo_iters == other.halo_iters
            && self.d_exchanged == other.d_exchanged
            && self.exch == other.exch
    }
}

impl Eq for LoopRec {}

/// One CA (Alg 2) chain execution.
///
/// Equality ignores `wall_ns` (wall clock varies run to run), matching
/// the [`ExchangeRec`] convention.
#[derive(Debug, Clone, Default)]
pub struct ChainRec {
    /// Chain name, shared with the chain's plan.
    pub name: Arc<str>,
    /// Per constituent loop: (core iterations, halo iterations) — the
    /// plan's split, shared with it.
    pub per_loop: Arc<[(usize, usize)]>,
    /// Number of dats in the grouped exchange.
    pub d_exchanged: usize,
    /// Maximum halo depth imported (`r` of Eq 3/4).
    pub depth: usize,
    /// Communication record (the single grouped exchange).
    pub exch: ExchangeRec,
    /// Relaxed-mode only: reads whose validity requirement was met by
    /// pre-chain (potentially stale) imported values rather than
    /// in-chain computation. Always 0 in strict mode.
    pub stale_reads: usize,
    /// Wall time of the whole chain execution, nanoseconds. Not
    /// compared by `==`.
    pub wall_ns: u64,
}

impl PartialEq for ChainRec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.per_loop == other.per_loop
            && self.d_exchanged == other.d_exchanged
            && self.depth == other.depth
            && self.exch == other.exch
            && self.stale_reads == other.stale_reads
    }
}

impl Eq for ChainRec {}

impl ChainRec {
    /// Total core iterations (`Σ g_l S_l^c` numerator side).
    pub fn core_iters(&self) -> usize {
        self.per_loop.iter().map(|&(c, _)| c).sum()
    }

    /// Total halo iterations (`Σ S_l^h`).
    pub fn halo_iters(&self) -> usize {
        self.per_loop.iter().map(|&(_, h)| h).sum()
    }
}

/// Which executor recorded a call: Alg 1's [`crate::exec::run_loop`]
/// or one of the Alg 2 chain executors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CallKind {
    /// A standalone loop ([`LoopRec`]).
    #[default]
    Loop,
    /// A chain ([`ChainRec`]).
    Chain,
}

/// Exact totals of every call of one name and kind, however long the
/// run: what OP2 reports per kernel.
///
/// Equality ignores the wall-clock fields, matching the [`ExchangeRec`]
/// convention.
#[derive(Debug, Clone)]
pub struct CallTotals {
    /// Loop or chain name.
    pub name: Arc<str>,
    /// Which executor ran the calls.
    pub kind: CallKind,
    /// Calls folded in.
    pub calls: u64,
    /// Summed core iterations (a chain's summed over its loops).
    pub core_iters: usize,
    /// Summed halo iterations.
    pub halo_iters: usize,
    /// Summed communication ([`ExchangeRec::add`]).
    pub exch: ExchangeRec,
    /// Summed relaxed-mode stale reads (0 for loops).
    pub stale_reads: usize,
    /// Summed wall time, nanoseconds. Not compared by `==`.
    pub wall_ns: u64,
    /// Shortest call, nanoseconds. Not compared by `==`.
    pub wall_ns_min: u64,
    /// Longest call, nanoseconds. Not compared by `==`.
    pub wall_ns_max: u64,
}

impl PartialEq for CallTotals {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kind == other.kind
            && self.calls == other.calls
            && self.core_iters == other.core_iters
            && self.halo_iters == other.halo_iters
            && self.exch == other.exch
            && self.stale_reads == other.stale_reads
    }
}

impl Eq for CallTotals {}

impl CallTotals {
    /// An empty slot for `name`.
    fn new(kind: CallKind, name: &Arc<str>) -> Self {
        CallTotals {
            name: Arc::clone(name),
            kind,
            calls: 0,
            core_iters: 0,
            halo_iters: 0,
            exch: ExchangeRec::default(),
            stale_reads: 0,
            wall_ns: 0,
            wall_ns_min: u64::MAX,
            wall_ns_max: 0,
        }
    }

    /// Fold one call in.
    fn add(&mut self, (core, halo): (usize, usize), exch: &ExchangeRec, stale_reads: usize, wall_ns: u64) {
        self.calls += 1;
        self.core_iters += core;
        self.halo_iters += halo;
        self.exch.add(exch);
        self.stale_reads += stale_reads;
        self.wall_ns += wall_ns;
        self.wall_ns_min = self.wall_ns_min.min(wall_ns);
        self.wall_ns_max = self.wall_ns_max.max(wall_ns);
    }
}

/// Append `rec` to a record window, first dropping the oldest half when
/// the window is full: amortised O(1), and never past `TRACE_WINDOW`
/// records, so storage allocated at that size is never grown.
fn push_window<T>(window: &mut Vec<T>, rec: T) {
    if window.len() >= TRACE_WINDOW {
        window.drain(..window.len() - TRACE_WINDOW / 2);
    }
    window.push(rec);
}

/// Which lowering produced a pooled [`op2_core::Schedule`] execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SchedKind {
    /// A single loop range split into direct blocks (a loop that
    /// modifies no dat it reaches through a map).
    #[default]
    Blocked,
    /// A single loop range lowered owner-computes: one windowed chunk
    /// per thread.
    Owned,
}

/// One pooled [`op2_core::Schedule`] execution — a loop range lowered
/// owner-computes or into direct blocks (see [`crate::threads`]): the
/// schedule shape plus its wall time.
///
/// Equality ignores the *values* in `level_ns` (wall clock varies run to
/// run) but keeps its *length* — two equal records executed the same
/// schedule. This keeps whole-[`RankTrace`] comparisons in the replay
/// determinism tests meaningful with threading on.
#[derive(Debug, Clone, Default)]
pub struct ThreadRec {
    /// Loop name.
    pub name: String,
    /// Distinct iterations executed.
    pub iters: usize,
    /// Iterations executed beyond `iters`: the cut iterations an
    /// owner-computes schedule runs once per thread they increment for
    /// (0 under every other lowering).
    pub redundant_iters: usize,
    /// Threads that executed it.
    pub n_threads: usize,
    /// Iterations per direct block (0 for owner-computes schedules,
    /// which chunk by window, not by block).
    pub block_size: usize,
    /// Independent chunks (blocks or windows).
    pub n_chunks: usize,
    /// Levels in the schedule: always 1 (every pooled schedule is one
    /// round of independent chunks), kept for readers that sum it.
    pub n_levels: usize,
    /// Which lowering produced the schedule.
    pub kind: SchedKind,
    /// Wall time of the one level, nanoseconds: one entry (not
    /// compared by `==`).
    pub level_ns: Vec<u64>,
    /// Serial depth of the drain: always equal to `n_levels`, kept for
    /// readers that sum it.
    pub crit_path: usize,
    /// Per-worker idle time, nanoseconds: drain wall clock minus the
    /// worker's summed chunk execution time, so waiting for the round to
    /// finish (not compared by `==`).
    pub idle_ns: Vec<u64>,
    /// Per-worker chunks stolen: always 0 (the drain claims chunks from
    /// a shared cursor and never steals), kept for readers that sum it.
    pub steals: Vec<u64>,
}

impl PartialEq for ThreadRec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.iters == other.iters
            && self.redundant_iters == other.redundant_iters
            && self.n_threads == other.n_threads
            && self.block_size == other.block_size
            && self.n_chunks == other.n_chunks
            && self.n_levels == other.n_levels
            && self.kind == other.kind
            && self.level_ns.len() == other.level_ns.len()
            && self.crit_path == other.crit_path
            && self.idle_ns.len() == other.idle_ns.len()
            && self.steals.len() == other.steals.len()
    }
}

impl Eq for ThreadRec {}

/// Everything one rank recorded during a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankTrace {
    /// This rank.
    pub rank: u32,
    /// The newest standard loop executions, oldest first: at least the
    /// newest `TRACE_WINDOW / 2`, so `.last()` is the latest call. Every
    /// call, evicted or not, is in [`RankTrace::totals`].
    pub loops: Vec<LoopRec>,
    /// The newest CA chain executions, oldest first, windowed like
    /// [`RankTrace::loops`].
    pub chains: Vec<ChainRec>,
    /// Exact per-call totals: one slot per distinct (kind, name), in
    /// first-seen order.
    pub totals: Vec<CallTotals>,
    /// Transport counters (timeouts, delayed messages, hangups seen,
    /// payload-pool misses). The harness copies them out of the comm
    /// layer when the rank finishes — including when it fails.
    pub comm: crate::comm::CommCounters,
    /// Plan-cache counters (hits, misses, pool lowerings).
    /// The harness copies them out of [`crate::plan::PlanCache`] when the
    /// rank finishes.
    pub plan: crate::plan::PlanStats,
    /// Pooled schedule executions (owner-computes and direct-block loop
    /// ranges), in program order. Empty when the rank ran single-threaded.
    pub threads: Vec<ThreadRec>,
}

impl RankTrace {
    /// An empty trace for `rank`, its record windows allocated at full
    /// size.
    pub fn new(rank: u32) -> Self {
        RankTrace {
            rank,
            loops: Vec::with_capacity(TRACE_WINDOW),
            chains: Vec::with_capacity(TRACE_WINDOW),
            ..Default::default()
        }
    }

    /// Record one standalone loop call: fold it into its totals and
    /// append it to the loop window.
    pub fn record_loop(&mut self, rec: LoopRec) {
        let split = (rec.core_iters, rec.halo_iters);
        self.slot(CallKind::Loop, &rec.name).add(split, &rec.exch, 0, rec.wall_ns);
        push_window(&mut self.loops, rec);
    }

    /// Record one chain call: fold it into its totals and append it to
    /// the chain window.
    pub fn record_chain(&mut self, rec: ChainRec) {
        let split = (rec.core_iters(), rec.halo_iters());
        self.slot(CallKind::Chain, &rec.name).add(split, &rec.exch, rec.stale_reads, rec.wall_ns);
        push_window(&mut self.chains, rec);
    }

    /// The totals slot of `(kind, name)`, opened on first sight. A
    /// linear scan: a program has a few dozen distinct calls, and the
    /// name usually shares the slot's `Arc`, so the compare is a pointer
    /// compare.
    fn slot(&mut self, kind: CallKind, name: &Arc<str>) -> &mut CallTotals {
        let found = (self.totals.iter()).position(|t| t.kind == kind && t.name == *name);
        let i = found.unwrap_or_else(|| {
            self.totals.push(CallTotals::new(kind, name));
            self.totals.len() - 1
        });
        &mut self.totals[i]
    }

    /// The totals of every `kind` call named `name`, if there was one.
    pub fn totals_of(&self, kind: CallKind, name: &str) -> Option<&CallTotals> {
        self.totals.iter().find(|t| t.kind == kind && &*t.name == name)
    }

    /// Total messages sent by the loop and chain exchanges (reductions
    /// are counted by the comm layer only).
    pub fn total_msgs(&self) -> usize {
        self.totals.iter().map(|t| t.exch.n_msgs).sum()
    }

    /// Total exchanged payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.totals.iter().map(|t| t.exch.bytes).sum()
    }

    /// Measured wall time of every recorded execution unit (loops and
    /// chains), nanoseconds — the rank's total compute+exchange load.
    pub fn wall_ns(&self) -> u64 {
        self.totals.iter().map(|t| t.wall_ns).sum()
    }

    /// Relaxed-mode stale reads over every chain call.
    pub fn stale_reads(&self) -> usize {
        self.totals.iter().map(|t| t.stale_reads).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_accumulation() {
        let mut a = ExchangeRec {
            n_msgs: 2,
            bytes: 100,
            max_msg_bytes: 60,
            n_neighbors: 2,
            packed_elems: 10,
            nbr_bits: 0b011,
            pack_ns: 40,
            unpack_ns: 20,
            wait_ns: 500,
        };
        let b = ExchangeRec {
            n_msgs: 1,
            bytes: 80,
            max_msg_bytes: 80,
            n_neighbors: 1,
            packed_elems: 5,
            nbr_bits: 0b010,
            pack_ns: 10,
            unpack_ns: 5,
            wait_ns: 100,
        };
        a.add(&b);
        assert_eq!(a.n_msgs, 3);
        assert_eq!(a.bytes, 180);
        assert_eq!(a.max_msg_bytes, 80);
        assert_eq!(a.n_neighbors, 2);
        assert_eq!(a.packed_elems, 15);
        assert_eq!(a.distinct_neighbors(), 2);
        assert_eq!((a.pack_ns, a.unpack_ns, a.wait_ns), (50, 25, 600));
    }

    /// The wall-clock fields accumulate but are excluded from equality —
    /// two records of the same exchange with different timings compare
    /// equal (the replay-determinism contract).
    #[test]
    fn exchange_equality_ignores_timings() {
        let a = ExchangeRec {
            n_msgs: 2,
            bytes: 100,
            pack_ns: 40,
            wait_ns: 999,
            ..Default::default()
        };
        let b = ExchangeRec {
            n_msgs: 2,
            bytes: 100,
            pack_ns: 7,
            unpack_ns: 3,
            ..Default::default()
        };
        assert_eq!(a, b);
        let c = ExchangeRec {
            n_msgs: 3,
            bytes: 100,
            ..Default::default()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn distinct_neighbors_across_alternating_stencils() {
        // Two loops in a chain, each messaging 2 peers — but *different*
        // peers (disjoint stencils). The old max-based accumulation
        // reported 2 neighbours; the union of messaged peers is 4.
        let mut a = ExchangeRec {
            n_msgs: 2,
            n_neighbors: 2,
            nbr_bits: 0b0011, // ranks 0, 1
            ..Default::default()
        };
        let b = ExchangeRec {
            n_msgs: 2,
            n_neighbors: 2,
            nbr_bits: 0b1100, // ranks 2, 3
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.n_neighbors, 4);
        assert_eq!(a.distinct_neighbors(), 4);
    }

    #[test]
    fn chain_iteration_sums() {
        let c = ChainRec {
            per_loop: vec![(10, 4), (8, 6)].into(),
            ..Default::default()
        };
        assert_eq!(c.core_iters(), 18);
        assert_eq!(c.halo_iters(), 10);
    }

    #[test]
    fn trace_totals() {
        let mut t = RankTrace::default();
        t.record_loop(LoopRec {
            exch: ExchangeRec {
                n_msgs: 4,
                bytes: 32,
                ..Default::default()
            },
            ..Default::default()
        });
        t.record_chain(ChainRec {
            exch: ExchangeRec {
                n_msgs: 1,
                bytes: 64,
                ..Default::default()
            },
            stale_reads: 2,
            ..Default::default()
        });
        assert_eq!(t.total_msgs(), 5);
        assert_eq!(t.total_bytes(), 96);
        assert_eq!(t.stale_reads(), 2);
    }

    /// Calls fold into one slot per (kind, name), in first-seen order:
    /// counts and iterations sum, the exchange folds by
    /// [`ExchangeRec::add`], and wall time keeps its sum, min and max.
    #[test]
    fn totals_fold_per_kind_and_name() {
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from("a"), Arc::from("b"));
        let exch = |n_msgs: usize, nbr_bits: u128, wait_ns| ExchangeRec {
            n_msgs,
            bytes: 8 * n_msgs,
            max_msg_bytes: 8 * n_msgs,
            n_neighbors: nbr_bits.count_ones() as usize,
            nbr_bits,
            wait_ns,
            ..Default::default()
        };
        let calls = [(5, exch(1, 0b01, 7)), (2, exch(2, 0b10, 3)), (9, exch(1, 0b01, 1))];
        let mut t = RankTrace::new(0);
        for (wall_ns, x) in calls {
            t.record_chain(ChainRec {
                name: Arc::clone(&a),
                per_loop: vec![(3, 1), (2, 2)].into(),
                exch: x,
                stale_reads: 1,
                wall_ns,
                ..Default::default()
            });
            // A loop of the same name is a different call.
            t.record_loop(LoopRec {
                name: Arc::from("a"),
                core_iters: 4,
                halo_iters: 1,
                wall_ns: 1,
                ..Default::default()
            });
        }
        t.record_loop(LoopRec {
            name: Arc::clone(&b),
            wall_ns: 6,
            ..Default::default()
        });

        let order: Vec<_> = t.totals.iter().map(|s| (s.kind, &*s.name)).collect();
        assert_eq!(order, [(CallKind::Chain, "a"), (CallKind::Loop, "a"), (CallKind::Loop, "b")]);
        let chain = t.totals_of(CallKind::Chain, "a").unwrap();
        let mut want = ExchangeRec::default();
        for (_, x) in &calls {
            want.add(x);
        }
        assert_eq!(chain.exch, want);
        assert_eq!(chain.exch.wait_ns, 11);
        assert_eq!(chain.exch.n_neighbors, 2);
        assert_eq!((chain.calls, chain.core_iters, chain.halo_iters, chain.stale_reads), (3, 15, 9, 3));
        assert_eq!((chain.wall_ns, chain.wall_ns_min, chain.wall_ns_max), (16, 2, 9));
        let lp = t.totals_of(CallKind::Loop, "a").unwrap();
        assert_eq!((lp.calls, lp.core_iters, lp.halo_iters, lp.wall_ns), (3, 12, 3, 3));
        assert_eq!(t.wall_ns(), 16 + 3 + 6);
        assert_eq!(t.total_msgs(), 4);
        assert!(t.totals_of(CallKind::Chain, "b").is_none());
    }

    /// The window keeps the newest records, oldest first, in the storage
    /// it started with: a full window drops its oldest half in one move.
    #[test]
    fn window_evicts_the_oldest_half() {
        let mut t = RankTrace::new(0);
        let (ptr, cap) = (t.loops.as_ptr(), t.loops.capacity());
        assert!(cap >= TRACE_WINDOW);
        let name: Arc<str> = Arc::from("l");
        for i in 0..3 * TRACE_WINDOW as u64 + 7 {
            t.record_loop(LoopRec {
                name: Arc::clone(&name),
                wall_ns: i,
                ..Default::default()
            });
            assert_eq!(t.loops.last().unwrap().wall_ns, i, "`.last()` is the newest");
            assert!(t.loops.len() >= (i as usize + 1).min(TRACE_WINDOW / 2));
            assert!(t.loops.len() <= TRACE_WINDOW);
            let first = t.loops[0].wall_ns;
            assert!(t.loops.iter().map(|r| r.wall_ns).eq(first..=i), "a contiguous tail");
        }
        assert_eq!((t.loops.as_ptr(), t.loops.capacity()), (ptr, cap), "never regrown");
        // 391 records: 128 fill the window, each 64 more evict 64.
        assert_eq!(t.loops.len(), TRACE_WINDOW / 2 + 7);
        let total = t.totals_of(CallKind::Loop, "l").unwrap();
        assert_eq!(total.calls, 3 * TRACE_WINDOW as u64 + 7);
    }

    /// A chain-plus-reduction program on 2 ranks at N and 10·N
    /// iterations: the trace's storage is the same size after both, its
    /// totals are exact (every call counted, every halo message the
    /// transport sent accounted for), and `.last()` is always the newest
    /// call.
    #[test]
    fn trace_is_flat_at_ten_times_the_iterations() {
        use crate::exec::{run_chain, run_loop};
        use crate::harness::{run_distributed_with, RunOptions};
        use op2_core::{AccessMode as M, Arg, ChainSpec, GblDecl, LoopSpec};
        use op2_partition::{build_layouts, derive_ownership, rcb_partition};

        fn inc(args: &op2_core::Args<'_>) {
            args.inc(0, 0, 1.0);
        }
        fn spread(args: &op2_core::Args<'_>) {
            args.inc(2, 0, args.get(0, 0) - args.get(1, 0));
        }
        fn zero(args: &op2_core::Args<'_>) {
            args.set(0, 0, 0.0);
        }
        fn sum(args: &op2_core::Args<'_>) {
            args.inc(1, 0, args.get(0, 0));
        }

        let mut m = op2_mesh::Quad2D::generate(12, 12);
        let a = m.dom.decl_dat_zeros("a", m.nodes, 1);
        let b = m.dom.decl_dat_zeros("b", m.nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            m.edges,
            vec![Arg::dat_indirect(a, m.e2n, 0, M::Inc)],
            inc,
        );
        let consume = LoopSpec::new(
            "consume",
            m.edges,
            vec![
                Arg::dat_indirect(a, m.e2n, 0, M::Read),
                Arg::dat_indirect(a, m.e2n, 1, M::Read),
                Arg::dat_indirect(b, m.e2n, 1, M::Inc),
            ],
            spread,
        );
        let chain = ChainSpec::new("pc", vec![produce, consume], None, &[]).unwrap();
        // Zeroing `a` dirties its halo, so every chain call imports it.
        let reset = LoopSpec::new("reset", m.nodes, vec![Arg::dat_direct(a, M::Write)], zero);
        let norm = LoopSpec::with_gbls(
            "norm",
            m.nodes,
            vec![Arg::dat_direct(b, M::Read), Arg::gbl(0, M::Inc)],
            vec![GblDecl::reduction(1)],
            sum,
        );
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, 2);
        let own = derive_ownership(&m.dom, m.nodes, base, chain.max_halo_layers());
        let layouts = build_layouts(&m.dom, &own, chain.max_halo_layers());

        let n = 3 * TRACE_WINDOW / 2;
        let mut shapes = Vec::new();
        for iters in [n, 10 * n] {
            let out = run_distributed_with(&mut m.dom.clone(), &layouts, &RunOptions::default(), |env| {
                let windows = (env.trace.loops.as_ptr(), env.trace.chains.as_ptr());
                let (mut collective_msgs, mut last_chain_ns) = (0, 0);
                for _ in 0..iters {
                    run_loop(env, &reset)?;
                    assert_eq!(&*env.trace.loops.last().unwrap().name, "reset");
                    run_chain(env, &chain)?;
                    last_chain_ns += env.trace.chains.last().unwrap().wall_ns;
                    let sent = env.comm.sent_msgs;
                    run_loop(env, &norm)?;
                    assert_eq!(&*env.trace.loops.last().unwrap().name, "norm");
                    collective_msgs += env.comm.sent_msgs - sent;
                }
                assert_eq!(windows, (env.trace.loops.as_ptr(), env.trace.chains.as_ptr()));
                Ok((env.comm.sent_msgs - collective_msgs, last_chain_ns))
            });
            for (t, r) in out.traces.iter().zip(&out.results) {
                let (halo_msgs, last_chain_ns) = *r.as_ref().expect("rank ok");
                let rank = t.rank;
                assert_eq!(t.total_msgs() as u64, halo_msgs, "rank {rank} at {iters}");
                let pc = t.totals_of(CallKind::Chain, "pc").unwrap();
                assert_eq!(pc.calls, iters as u64, "rank {rank}");
                assert_eq!(pc.exch.n_msgs, iters * layouts[rank as usize].neighbors.len());
                assert!(pc.exch.n_msgs > 0, "rank {rank}: the chain must exchange");
                assert_eq!(pc.wall_ns, last_chain_ns, "rank {rank}: `.last()` was each call");
                assert!(pc.wall_ns_min <= pc.wall_ns_max);
                for name in ["reset", "norm"] {
                    let l = t.totals_of(CallKind::Loop, name).unwrap();
                    assert_eq!((l.calls, l.exch.n_msgs), (iters as u64, 0), "rank {rank} {name}");
                }
                assert!(t.loops.len() >= TRACE_WINDOW / 2 && t.chains.len() >= TRACE_WINDOW / 2);
                assert!(t.loops.len() <= TRACE_WINDOW && t.chains.len() <= TRACE_WINDOW);
                shapes.push((iters, rank, t.loops.capacity(), t.chains.capacity(), t.totals.len()));
            }
        }
        let (short, long) = shapes.split_at(2);
        for (s, l) in short.iter().zip(long) {
            assert_eq!((s.1, s.2, s.3, s.4), (l.1, l.2, l.3, l.4), "flat in iterations: {s:?} vs {l:?}");
            assert_eq!(s.4, 3, "three distinct calls");
        }
    }
}
