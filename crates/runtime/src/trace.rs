//! Execution instrumentation.
//!
//! Every quantity in the paper's Tables 2 and 5 appears here: core and
//! halo iteration counts (`ΣS^c`, `ΣS^1`, `ΣS^h`), message counts and
//! sizes (the `2dpm^1` vs `pm^r` comparison), neighbour counts, and the
//! packed-element counts behind the packing cost `c` of Eq 3.

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
    /// Loop name.
    pub name: String,
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
    /// Chain name.
    pub name: String,
    /// Per constituent loop: (core iterations, halo iterations).
    pub per_loop: Vec<(usize, usize)>,
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

/// Self-healing counters for one rank: checkpoints taken, bytes
/// snapshotted, rollbacks driven by the supervisor, and the replay work
/// done to catch back up after a restore.
///
/// All counters are deterministic given the same program and the same
/// seeded fault plan, so they participate in trace equality: two
/// supervised runs of the same faulted program must agree on how they
/// healed, not just on the numerics. All zero when the run is
/// unsupervised (or fault-free with checkpointing disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryRec {
    /// Restart attempts this rank participated in (1 = fault-free run).
    pub attempts: u32,
    /// Checkpoints taken (including the attempt-start baseline).
    pub checkpoints: u64,
    /// Payload bytes actually copied into checkpoints (incremental:
    /// clean dats are shared, not re-copied, and not counted here).
    pub ckpt_bytes: u64,
    /// Dats freshly snapshotted across all checkpoints.
    pub dats_snapshotted: u64,
    /// Dats skipped because they were unchanged since the previous
    /// checkpoint (shared by reference instead of copied).
    pub dats_skipped: u64,
    /// Coordinated rollbacks this rank was rewound by.
    pub rollbacks: u64,
    /// Payload bytes restored into the live dats by rollbacks.
    pub restored_bytes: u64,
    /// Loop executions replayed from the journal (skipped re-execution)
    /// while catching up to the restored checkpoint.
    pub replayed_loops: u64,
    /// Chain executions replayed from the journal while catching up.
    pub replayed_chains: u64,
    /// Deadline escalations: times the supervisor classified a failure
    /// as a straggler and doubled the receive deadline before retrying.
    pub escalations: u64,
}

/// Everything one rank recorded during a program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RankTrace {
    /// This rank.
    pub rank: u32,
    /// Standard loop executions, in program order.
    pub loops: Vec<LoopRec>,
    /// CA chain executions, in program order.
    pub chains: Vec<ChainRec>,
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
    /// Self-healing counters (checkpoints, rollbacks, replays). All
    /// zero unless the program ran under [`crate::supervise`] or with
    /// checkpointing enabled.
    pub recovery: RecoveryRec,
}

impl RankTrace {
    /// Total messages sent (loops + chains + reductions are counted by
    /// the comm layer; this sums the loop/chain records).
    pub fn total_msgs(&self) -> usize {
        self.loops.iter().map(|l| l.exch.n_msgs).sum::<usize>()
            + self.chains.iter().map(|c| c.exch.n_msgs).sum::<usize>()
    }

    /// Total exchanged payload bytes.
    pub fn total_bytes(&self) -> usize {
        self.loops.iter().map(|l| l.exch.bytes).sum::<usize>()
            + self.chains.iter().map(|c| c.exch.bytes).sum::<usize>()
    }

    /// Measured wall time of every recorded execution unit (loops and
    /// chains), nanoseconds — the rank's total compute+exchange load.
    pub fn wall_ns(&self) -> u64 {
        self.loops.iter().map(|l| l.wall_ns).sum::<u64>()
            + self.chains.iter().map(|c| c.wall_ns).sum::<u64>()
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
            per_loop: vec![(10, 4), (8, 6)],
            ..Default::default()
        };
        assert_eq!(c.core_iters(), 18);
        assert_eq!(c.halo_iters(), 10);
    }

    #[test]
    fn trace_totals() {
        let mut t = RankTrace::default();
        t.loops.push(LoopRec {
            exch: ExchangeRec {
                n_msgs: 4,
                bytes: 32,
                ..Default::default()
            },
            ..Default::default()
        });
        t.chains.push(ChainRec {
            exch: ExchangeRec {
                n_msgs: 1,
                bytes: 64,
                ..Default::default()
            },
            ..Default::default()
        });
        assert_eq!(t.total_msgs(), 5);
        assert_eq!(t.total_bytes(), 96);
    }
}
