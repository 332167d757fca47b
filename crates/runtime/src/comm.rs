//! In-process rank-to-rank transport — the MPI stand-in.
//!
//! Semantics mirror the subset of MPI the paper's back-end uses:
//! non-blocking sends (`isend` copies the payload into an unbounded
//! channel and returns immediately, like a buffered `MPI_Isend`),
//! blocking receives matched per source in FIFO order (sufficient because
//! every rank executes the identical loop program, so at most the
//! messages of one exchange round are in flight per peer and they are
//! posted in deterministic order), plus a sum-allreduce used for global
//! reduction arguments — the synchronisation point that terminates a
//! loop-chain.
//!
//! Unlike the first-cut transport, this one does **not** assume a perfect
//! substrate. Every message carries a sequence number and a checksum;
//! [`RankComm::recv`] verifies both under a configurable deadline with
//! bounded retry/backoff and returns typed [`CommError`]s instead of
//! panicking. A deterministic [`FaultPlan`] can
//! be attached to the world to delay, drop, duplicate or corrupt traffic
//! (dropped/corrupted attempts are followed by scheduled retransmissions,
//! modelling a sender-side retransmit timer), and `hangup` sentinels let
//! a dying rank unblock its peers promptly instead of leaving them to
//! deadlock.
//!
//! Every *logical* send is counted and sized (retransmissions and
//! duplicates are tracked separately in [`CommCounters`]); the paper's
//! central claim is about message counts and sizes, so these counters
//! remain the ground truth the tables are reproduced from.
//!
//! ## Tag namespaces
//!
//! Caller-visible tags live below [`tags::USER_LIMIT`]. Collectives
//! (allreduce, barrier) map their caller tag into a disjoint namespace at
//! [`tags::COLLECTIVE_BASE`], so a collective can never collide with an
//! adjacent point-to-point exchange no matter how callers pick tags; the
//! control plane (hangup) sits above both at [`tags::CONTROL_BASE`].

use crate::fault::{Disposition, FaultPlan};
use std::cmp::Reverse;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tag-namespace layout (disjoint ranges; see module docs).
pub mod tags {
    /// Exclusive upper bound for caller-supplied point-to-point tags.
    pub const USER_LIMIT: u64 = 1 << 60;
    /// Base of the collective-operation namespace.
    pub const COLLECTIVE_BASE: u64 = 1 << 60;
    /// Base of the control-plane namespace.
    pub const CONTROL_BASE: u64 = 1 << 61;
    /// Hangup sentinel: "this rank is dead; stop waiting for it".
    pub const HANGUP: u64 = CONTROL_BASE;

    /// Collective phases multiplexed onto one caller tag.
    pub(super) const PHASE_TREE_GATHER: u64 = 0;
    pub(super) const PHASE_TREE_BCAST: u64 = 1;
    pub(super) const PHASE_LINEAR_GATHER: u64 = 2;
    pub(super) const PHASE_LINEAR_BCAST: u64 = 3;

    /// Map a caller tag + phase into the collective namespace.
    pub(super) fn collective(tag: u64, phase: u64) -> u64 {
        assert!(
            tag < (1 << 57),
            "collective tag {tag} too large to remap into the reserved namespace"
        );
        COLLECTIVE_BASE | (tag << 2) | phase
    }
}

/// Typed transport failures. These replace the panics of the original
/// transport: a misbehaving peer surfaces as an error the caller can
/// propagate, not as an abort of the whole world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No (valid) message arrived within the deadline.
    Timeout {
        /// Peer we were waiting on.
        from: u32,
        /// Tag we were waiting for.
        tag: u64,
        /// Total time waited.
        waited: Duration,
        /// Discard-and-rewait rounds performed before giving up.
        retries: u64,
    },
    /// A message arrived with the wrong tag — divergent program order.
    TagMismatch {
        /// Sending peer.
        from: u32,
        /// Tag the receiver expected.
        expected: u64,
        /// Tag that actually arrived.
        got: u64,
    },
    /// The peer hung up (sent a hangup sentinel, or its channel closed).
    PeerHangup {
        /// The dead peer.
        peer: u32,
    },
    /// Retries were exhausted while every arriving copy failed its
    /// checksum.
    Corrupt {
        /// Sending peer.
        from: u32,
        /// Copies discarded.
        discarded: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout {
                from,
                tag,
                waited,
                retries,
            } => write!(
                f,
                "timed out after {waited:?} ({retries} retries) waiting for tag {tag} from rank {from}"
            ),
            CommError::TagMismatch {
                from,
                expected,
                got,
            } => write!(
                f,
                "expected tag {expected} from rank {from}, got {got} (divergent program order)"
            ),
            CommError::PeerHangup { peer } => write!(f, "peer rank {peer} hung up"),
            CommError::Corrupt { from, discarded } => write!(
                f,
                "gave up after {discarded} corrupt copies from rank {from}"
            ),
        }
    }
}

impl std::error::Error for CommError {}

/// Receive-side policy: how long to wait and how hard to retry.
///
/// The deadline is the transport-level reflection of the model's latency
/// term `L` (Eq 1/3): a healthy exchange completes in ≪ `deadline`, so
/// the deadline only binds when a peer is dead, stalled, or the fault
/// plan has injected a permanent loss.
#[derive(Debug, Clone, Copy)]
pub struct CommConfig {
    /// Total time `recv` may wait for a valid message.
    pub deadline: Duration,
    /// Sleep between discard-and-rewait rounds (backoff).
    pub retry_backoff: Duration,
    /// Maximum discard-and-rewait rounds per `recv`.
    pub max_retries: u64,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            deadline: Duration::from_secs(10),
            retry_backoff: Duration::from_micros(200),
            max_retries: 256,
        }
    }
}

/// Counters for everything the recoverable transport observed — the
/// ground truth the chaos tests and the fault-determinism property
/// assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Receiver discard-and-rewait rounds (corrupt or duplicate copies).
    pub retries: u64,
    /// Receives that exhausted their deadline.
    pub timeouts: u64,
    /// Copies discarded for checksum mismatch.
    pub corrupt_dropped: u64,
    /// Copies discarded as duplicate sequence numbers.
    pub duplicates_dropped: u64,
    /// Messages whose delivery carried an injected delay.
    pub delayed: u64,
    /// Hangup sentinels (or closed channels) observed.
    pub hangups_seen: u64,
    /// Send attempts the fault plan dropped.
    pub injected_drops: u64,
    /// Send attempts the fault plan corrupted.
    pub injected_corrupt: u64,
    /// Extra deliveries the fault plan duplicated.
    pub injected_dups: u64,
    /// Retransmissions scheduled after dropped/corrupted attempts.
    pub retransmits: u64,
    /// Payload buffers allocated because the buffer pool could not
    /// satisfy a [`RankComm::take_buf`] request. Steady-state planned
    /// exchanges must not grow this: every payload is served from (and
    /// returned to) the pool.
    pub payload_allocs: u64,
}

impl CommCounters {
    /// Accumulate another counter set.
    pub fn add(&mut self, o: &CommCounters) {
        self.retries += o.retries;
        self.timeouts += o.timeouts;
        self.corrupt_dropped += o.corrupt_dropped;
        self.duplicates_dropped += o.duplicates_dropped;
        self.delayed += o.delayed;
        self.hangups_seen += o.hangups_seen;
        self.injected_drops += o.injected_drops;
        self.injected_corrupt += o.injected_corrupt;
        self.injected_dups += o.injected_dups;
        self.retransmits += o.retransmits;
        self.payload_allocs += o.payload_allocs;
    }

    /// True when any fault-recovery work happened at all.
    pub fn any_recovery(&self) -> bool {
        self.retries > 0
            || self.corrupt_dropped > 0
            || self.duplicates_dropped > 0
            || self.retransmits > 0
    }
}

/// One message: payload plus the integrity envelope checked at receive
/// time.
#[derive(Debug, Clone)]
pub struct Msg {
    /// Sender rank.
    pub from: u32,
    /// Tag — must match the receiver's expectation (program-order bugs
    /// surface as tag-mismatch errors instead of silent corruption).
    pub tag: u64,
    /// Per-(src,dst) sequence number, starting at 1. Duplicate detection.
    pub seq: u64,
    /// FNV-1a over (from, tag, seq, payload bits). Corruption detection.
    pub checksum: u64,
    /// Payload.
    pub data: Vec<f64>,
}

/// Checksum covering the integrity envelope and the payload bits.
pub fn checksum(from: u32, tag: u64, seq: u64, data: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for i in 0..8 {
            h ^= (v >> (i * 8)) & 0xff;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(from as u64);
    eat(tag);
    eat(seq);
    for x in data {
        eat(x.to_bits());
    }
    h
}

impl Msg {
    fn is_intact(&self) -> bool {
        self.checksum == checksum(self.from, self.tag, self.seq, &self.data)
    }
}

/// What actually travels through a channel: the message plus simulated
/// network conditions decided by the fault plan at send time.
#[derive(Debug)]
struct Packet {
    msg: Msg,
    /// Injected latency, enforced at the receiver (the wire was slow).
    delay: Option<Duration>,
}

/// Factory wiring `n` ranks together with dedicated channels per ordered
/// pair (so per-peer FIFO holds regardless of other traffic).
pub struct CommWorld {
    senders: Vec<Vec<Sender<Packet>>>,
    receivers: Vec<Vec<Receiver<Packet>>>,
    plan: Option<Arc<FaultPlan>>,
    config: CommConfig,
}

impl CommWorld {
    /// Create a world of `n` ranks with a perfect network.
    pub fn new(n: usize) -> Self {
        Self::build(n, None, CommConfig::default())
    }

    /// Create a world of `n` ranks whose traffic is subjected to `plan`.
    pub fn with_faults(n: usize, plan: Arc<FaultPlan>) -> Self {
        Self::build(n, Some(plan), CommConfig::default())
    }

    /// Override the receive policy for every rank.
    pub fn with_config(mut self, config: CommConfig) -> Self {
        self.config = config;
        self
    }

    fn build(n: usize, plan: Option<Arc<FaultPlan>>, config: CommConfig) -> Self {
        let mut senders: Vec<Vec<Sender<Packet>>> = (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut receivers: Vec<Vec<Receiver<Packet>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        // senders[src][dst] and receivers[dst][src].
        for dst in 0..n {
            for src in 0..n {
                let (tx, rx) = channel();
                senders[src].push(tx);
                receivers[dst].push(rx);
            }
        }
        CommWorld {
            senders,
            receivers,
            plan,
            config,
        }
    }

    /// Split into per-rank endpoints (call once; consumes the world).
    pub fn into_ranks(self) -> Vec<RankComm> {
        let n = self.senders.len();
        let plan = self.plan;
        let config = self.config;
        self.senders
            .into_iter()
            .zip(self.receivers)
            .enumerate()
            .map(|(rank, (sends, recvs))| RankComm {
                rank: rank as u32,
                n,
                sends,
                recvs,
                sent_msgs: 0,
                sent_bytes: 0,
                next_seq: vec![1; n],
                last_seq: vec![0; n],
                config,
                counters: CommCounters::default(),
                plan: plan.clone(),
                hung_up: false,
                pool: vec![Vec::new(); n],
                stash: (0..n).map(|_| None).collect(),
            })
            .collect()
    }
}

/// One rank's endpoint.
pub struct RankComm {
    /// This rank.
    pub rank: u32,
    /// World size.
    pub n: usize,
    sends: Vec<Sender<Packet>>,
    recvs: Vec<Receiver<Packet>>,
    /// Logical messages sent so far (retransmits/duplicates excluded —
    /// this is the paper's message count).
    pub sent_msgs: u64,
    /// Logical payload bytes sent so far.
    pub sent_bytes: u64,
    /// Next sequence number per destination.
    next_seq: Vec<u64>,
    /// Highest accepted sequence number per source.
    last_seq: Vec<u64>,
    /// Receive policy.
    pub config: CommConfig,
    /// Everything observed (see [`CommCounters`]).
    pub counters: CommCounters,
    plan: Option<Arc<FaultPlan>>,
    hung_up: bool,
    /// Per-peer free-lists of reusable payload buffers (the borrow/
    /// return side of the persistent-exchange engine). Buffers are
    /// cleared on return, so a recycled buffer can never leak stale
    /// values into the next message. The pool is keyed by peer because
    /// payload buffers *travel*: a sent buffer ends up in the peer's
    /// pool and comes back with its next message. Send and receive
    /// sizes mirror across a pair, so pinning buffers to the pair they
    /// circulate on makes every rank's capacity needs locally
    /// satisfiable — a shared pool could hand a small buffer from one
    /// pair to another and re-allocate forever.
    pool: Vec<Vec<Vec<f64>>>,
    /// Per-source parking slot for a delayed packet pulled off the wire
    /// before its injected latency elapsed. Per-pair channels are FIFO,
    /// so once a delayed packet is dequeued it *must* be surfaced before
    /// any later traffic from that source — parking it here (instead of
    /// in a local) keeps it alive across `recv`/`recv_any` calls.
    stash: Vec<Option<(Msg, Instant)>>,
}

/// What [`RankComm::screen`] made of one copy off the wire.
enum Screened {
    /// In sequence, with the expected tag: the payload.
    Accepted(Vec<f64>),
    /// Failed its checksum; discarded.
    Corrupt,
    /// A sequence number already accepted; discarded.
    Duplicate,
}

/// Upper bound on pooled buffers per peer; beyond this, returned
/// buffers are simply freed. Steady-state planned exchanges circulate
/// one buffer per peer per direction — the cap only guards against
/// pathological accumulation.
const POOL_MAX_PER_PEER: usize = 8;

/// Sleep between empty poll rounds in [`RankComm::recv_any`]. Short
/// enough that arrival-order completion stays responsive, long enough
/// not to spin a core while peers are packing.
const POLL_INTERVAL: Duration = Duration::from_micros(20);

impl RankComm {
    /// Non-blocking send (buffered like `MPI_Isend` + internal copy).
    ///
    /// Under a fault plan the message may be delivered late, twice,
    /// corrupted, or have attempts dropped — in which case a
    /// retransmission is scheduled, modelling the sender's retransmit
    /// timer. Sends to an already-dead peer are silently buffered and
    /// discarded (like `MPI_Isend` into a failed rank: the *receive*
    /// side is where the failure surfaces).
    pub fn isend(&mut self, to: u32, tag: u64, data: Vec<f64>) {
        let seq = self.next_seq[to as usize];
        self.next_seq[to as usize] += 1;
        self.sent_msgs += 1;
        self.sent_bytes += (data.len() * std::mem::size_of::<f64>()) as u64;
        let msg = Msg {
            from: self.rank,
            tag,
            seq,
            checksum: checksum(self.rank, tag, seq, &data),
            data,
        };
        let Some(plan) = self.plan.clone() else {
            self.push(to, msg, None);
            return;
        };
        let attempts = plan.send_schedule(self.rank, to, seq).attempts;
        let last = attempts.len().saturating_sub(1);
        let mut msg = Some(msg);
        let mut delivered_once = false;
        for (i, attempt) in attempts.into_iter().enumerate() {
            // The last attempt sends the message itself, so the pooled
            // buffer it carries reaches the peer's pool; earlier ones
            // (corrupt copies, duplicates) send clones.
            let mut copy = || {
                let m = if i == last { msg.take() } else { msg.clone() };
                m.expect("no attempt follows the last")
            };
            match attempt.disposition {
                Disposition::Drop => {
                    self.counters.injected_drops += 1;
                    self.counters.retransmits += 1;
                }
                Disposition::Corrupt => {
                    self.counters.injected_corrupt += 1;
                    self.counters.retransmits += 1;
                    let mut bad = copy();
                    let victim = (seq as usize) % bad.data.len().max(1);
                    if let Some(x) = bad.data.get_mut(victim) {
                        *x = f64::from_bits(x.to_bits() ^ (1 << 17));
                    } else {
                        bad.checksum ^= 0xdead_beef;
                    }
                    self.push(to, bad, attempt.delay);
                }
                Disposition::Deliver => {
                    if delivered_once {
                        self.counters.injected_dups += 1;
                    }
                    delivered_once = true;
                    self.push(to, copy(), attempt.delay);
                }
            }
        }
    }

    fn push(&mut self, to: u32, msg: Msg, delay: Option<Duration>) {
        if delay.is_some() {
            self.counters.delayed += 1;
        }
        // A closed channel means the peer is gone; the error surfaces on
        // our next receive from it, exactly like buffered MPI.
        let _ = self.sends[to as usize].send(Packet { msg, delay });
    }

    /// Blocking receive of the next valid message from `from`.
    ///
    /// Waits up to `config.deadline` in total. Copies failing their
    /// checksum and duplicate sequence numbers are discarded (each
    /// discard counts one retry and sleeps `config.retry_backoff`),
    /// relying on the scheduled retransmission to bring a good copy.
    /// Tag mismatches, hangups, exhausted retries and deadline expiry
    /// surface as typed [`CommError`]s.
    pub fn recv(&mut self, from: u32, tag: u64) -> Result<Vec<f64>, CommError> {
        let start = Instant::now();
        let deadline = start + self.config.deadline;
        let mut retries = 0u64;
        let mut corrupt_seen = 0u64;
        loop {
            if retries > self.config.max_retries {
                return Err(if corrupt_seen > 0 {
                    CommError::Corrupt {
                        from,
                        discarded: corrupt_seen,
                    }
                } else {
                    self.timed_out(from, tag, start, retries)
                });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(self.timed_out(from, tag, start, retries));
            }
            let msg = if let Some((m, visible_at)) = self.stash[from as usize].take() {
                // A prior recv_any parked this packet mid-latency; FIFO
                // order requires draining it before newer traffic.
                let now = Instant::now();
                if visible_at > now {
                    std::thread::sleep(visible_at - now);
                }
                m
            } else {
                let packet = match self.recvs[from as usize].recv_timeout(deadline - now) {
                    Ok(p) => p,
                    Err(RecvTimeoutError::Timeout) => {
                        return Err(self.timed_out(from, tag, start, retries))
                    }
                    Err(RecvTimeoutError::Disconnected) => return Err(self.hung_up(from)),
                };
                if let Some(d) = packet.delay {
                    // The wire was slow: the payload only becomes visible
                    // after the injected latency has elapsed.
                    std::thread::sleep(d);
                }
                packet.msg
            };
            match self.screen(from, tag, msg)? {
                Screened::Accepted(data) => return Ok(data),
                Screened::Corrupt => {
                    retries += 1;
                    corrupt_seen += 1;
                    std::thread::sleep(self.config.retry_backoff);
                }
                Screened::Duplicate => retries += 1,
            }
        }
    }

    /// The one acceptance rule [`RankComm::recv`] and
    /// [`RankComm::recv_any`] apply to every copy pulled off `from`'s
    /// wire: a control tag is a hangup; a copy failing its checksum or
    /// repeating an accepted sequence number is discarded (counted as a
    /// retry — the caller applies its retry budget); anything else is
    /// accepted in sequence and must carry `tag`.
    fn screen(&mut self, from: u32, tag: u64, msg: Msg) -> Result<Screened, CommError> {
        if msg.tag >= tags::CONTROL_BASE {
            return Err(self.hung_up(from));
        }
        if !msg.is_intact() {
            self.counters.corrupt_dropped += 1;
            self.counters.retries += 1;
            return Ok(Screened::Corrupt);
        }
        if msg.seq <= self.last_seq[from as usize] {
            self.counters.duplicates_dropped += 1;
            self.counters.retries += 1;
            return Ok(Screened::Duplicate);
        }
        self.last_seq[from as usize] = msg.seq;
        if msg.tag != tag {
            return Err(CommError::TagMismatch {
                from,
                expected: tag,
                got: msg.tag,
            });
        }
        Ok(Screened::Accepted(msg.data))
    }

    /// `from` is gone: a hangup sentinel arrived or its channel closed.
    fn hung_up(&mut self, from: u32) -> CommError {
        self.counters.hangups_seen += 1;
        CommError::PeerHangup { peer: from }
    }

    /// The deadline or the retry budget ran out waiting on `from`.
    fn timed_out(&mut self, from: u32, tag: u64, start: Instant, retries: u64) -> CommError {
        self.counters.timeouts += 1;
        CommError::Timeout {
            from,
            tag,
            waited: start.elapsed(),
            retries,
        }
    }

    /// Borrow a payload buffer of at least `cap` f64s from `peer`'s
    /// pool slot: the smallest that fits (best fit keeps the take/miss
    /// sequence a pure function of the slot's capacity *multiset*,
    /// independent of arrival order — replay determinism), or on a miss
    /// the slot's largest grown in place (or a fresh one), counted in
    /// [`CommCounters::payload_allocs`]. Capacities only grow and sent
    /// buffers circulate back on their pair, so misses die out and
    /// steady-state exchanges never allocate.
    pub fn take_buf(&mut self, peer: u32, cap: usize) -> Vec<f64> {
        if cap == 0 {
            return Vec::new();
        }
        let slot = &self.pool[peer as usize];
        let best = (0..slot.len())
            .filter(|&i| slot[i].capacity() >= cap)
            .min_by_key(|&i| slot[i].capacity());
        let i = best.unwrap_or_else(|| self.grow(peer, cap));
        self.pool[peer as usize].swap_remove(i)
    }

    /// A pool miss: grow `peer`'s largest pooled buffer to hold `cap`
    /// f64s, or pool a fresh one if the slot is empty, counting one
    /// [`CommCounters::payload_allocs`]. Returns the buffer's slot index.
    fn grow(&mut self, peer: u32, cap: usize) -> usize {
        self.counters.payload_allocs += 1;
        let slot = &mut self.pool[peer as usize];
        // The first of the largest, so ties resolve as they always have.
        match (0..slot.len()).min_by_key(|&i| Reverse(slot[i].capacity())) {
            Some(i) => {
                slot[i].reserve_exact(cap);
                i
            }
            None => {
                slot.push(Vec::with_capacity(cap));
                slot.len() - 1
            }
        }
    }

    /// Return a payload buffer to `peer`'s pool slot. The buffer is
    /// cleared first, so pooled buffers never carry previous payloads
    /// (a corrupted or duplicated delivery unpacked from a borrowed
    /// buffer cannot poison later messages). Beyond
    /// `POOL_MAX_PER_PEER` buffers the return is dropped instead.
    pub fn recycle(&mut self, peer: u32, mut buf: Vec<f64>) {
        let slot = &mut self.pool[peer as usize];
        if slot.len() >= POOL_MAX_PER_PEER || buf.capacity() == 0 {
            return;
        }
        buf.clear();
        slot.push(buf);
    }

    /// Pre-warm `peer`'s pool slot to hold at least one buffer of `cap`
    /// f64s — the `MPI_Send_init` moment where the persistent engine is
    /// allowed to allocate (counted in `payload_allocs` like any other
    /// pool growth). No-op if the slot can already stage `cap`.
    pub fn ensure_buf(&mut self, peer: u32, cap: usize) {
        if cap == 0 {
            return;
        }
        if !self.pool[peer as usize].iter().any(|b| b.capacity() >= cap) {
            self.grow(peer, cap);
        }
    }

    /// Number of buffers currently pooled across all peer slots
    /// (test/bench introspection).
    pub fn pooled_bufs(&self) -> usize {
        self.pool.iter().map(Vec::len).sum()
    }

    /// Detach the per-peer buffer pools so a supervisor can carry the
    /// warmed allocations across a world restart. Leaves this endpoint
    /// with no pool slots — only call when the rank is done with the
    /// transport (the harness seals at rank exit).
    pub fn take_pool(&mut self) -> Vec<Vec<Vec<f64>>> {
        std::mem::take(&mut self.pool)
    }

    /// Re-install buffer pools detached from a previous attempt's
    /// endpoint. The world shape must match.
    pub fn install_pool(&mut self, pool: Vec<Vec<Vec<f64>>>) {
        assert_eq!(
            pool.len(),
            self.pool.len(),
            "carried buffer pool does not match the world size"
        );
        self.pool = pool;
    }

    /// Blocking receive of the next valid message from **any** of
    /// `peers`, in arrival order: whichever peer's message lands (and
    /// clears its injected wire latency) first is validated and
    /// returned as `(index into peers, payload)`.
    ///
    /// Applies the exact per-peer discipline of [`RankComm::recv`]:
    /// checksum and duplicate discards count retries (bounded by
    /// `config.max_retries` per peer), control-plane tags surface as
    /// [`CommError::PeerHangup`], wrong tags as
    /// [`CommError::TagMismatch`], and the shared deadline as
    /// [`CommError::Timeout`] (reported against `peers[0]`). A delayed
    /// packet is parked in the per-source stash until its latency
    /// elapses — it does not block another peer's already-arrived
    /// message (the whole point of arrival-order completion), and it
    /// survives into the next `recv`/`recv_any` call if this one
    /// completes through a different peer first.
    pub fn recv_any(&mut self, peers: &[u32], tag: u64) -> Result<(usize, Vec<f64>), CommError> {
        assert!(!peers.is_empty(), "recv_any needs at least one peer");
        if peers.len() == 1 {
            return self.recv(peers[0], tag).map(|d| (0, d));
        }
        let start = Instant::now();
        let deadline = start + self.config.deadline;
        let mut retries = vec![0u64; peers.len()];
        let mut corrupt_seen = vec![0u64; peers.len()];
        loop {
            if Instant::now() >= deadline {
                return Err(self.timed_out(peers[0], tag, start, retries.iter().sum()));
            }
            let mut progressed = false;
            for (i, &from) in peers.iter().enumerate() {
                let msg = if let Some((_, visible_at)) = &self.stash[from as usize] {
                    if Instant::now() < *visible_at {
                        continue;
                    }
                    self.stash[from as usize]
                        .take()
                        .expect("stash slot checked above")
                        .0
                } else {
                    match self.recvs[from as usize].try_recv() {
                        Ok(packet) => match packet.delay {
                            Some(d) => {
                                // The wire was slow: park the payload
                                // until the injected latency elapses and
                                // keep polling the other peers.
                                self.stash[from as usize] = Some((packet.msg, Instant::now() + d));
                                progressed = true;
                                continue;
                            }
                            None => packet.msg,
                        },
                        Err(TryRecvError::Empty) => continue,
                        Err(TryRecvError::Disconnected) => return Err(self.hung_up(from)),
                    }
                };
                progressed = true;
                match self.screen(from, tag, msg)? {
                    Screened::Accepted(data) => return Ok((i, data)),
                    Screened::Corrupt => {
                        retries[i] += 1;
                        corrupt_seen[i] += 1;
                        if retries[i] > self.config.max_retries {
                            return Err(CommError::Corrupt {
                                from,
                                discarded: corrupt_seen[i],
                            });
                        }
                    }
                    Screened::Duplicate => {
                        retries[i] += 1;
                        if retries[i] > self.config.max_retries {
                            return Err(self.timed_out(from, tag, start, retries[i]));
                        }
                    }
                }
            }
            if !progressed {
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }

    /// The fault plan this endpoint's traffic is subjected to, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.plan.clone()
    }

    /// Broadcast a hangup sentinel to every peer: "this rank is dead,
    /// stop waiting". Idempotent. Called by the harness when a rank
    /// fails, so survivors unwind with [`CommError::PeerHangup`] instead
    /// of blocking until their deadlines.
    pub fn hangup_all(&mut self) {
        if self.hung_up {
            return;
        }
        self.hung_up = true;
        for peer in 0..self.n as u32 {
            if peer == self.rank {
                continue;
            }
            let msg = Msg {
                from: self.rank,
                tag: tags::HANGUP,
                seq: 0,
                checksum: 0,
                data: Vec::new(),
            };
            let _ = self.sends[peer as usize].send(Packet { msg, delay: None });
        }
    }

    /// Sum-allreduce (tree-based; see [`RankComm::allreduce`]).
    pub fn allreduce_sum(&mut self, vals: &mut [f64], tag: u64) -> Result<(), CommError> {
        self.allreduce(vals, tag, op2_core::access::GblOp::Sum)
    }

    /// Allreduce with an arbitrary combining operator (sum / min / max).
    ///
    /// Binomial-tree gather of the per-rank contribution *lists* (kept in
    /// rank order), a single rank-ordered combine at the root, then a
    /// binomial-tree broadcast — `O(log n)` rounds with a combine order
    /// **identical to the linear gather**, so the result is bitwise
    /// reproducible and bitwise equal to [`RankComm::allreduce_linear`].
    ///
    /// The caller tag is remapped into the reserved collective namespace;
    /// adjacent caller tags can never collide with collective traffic.
    pub fn allreduce(
        &mut self,
        vals: &mut [f64],
        tag: u64,
        op: op2_core::access::GblOp,
    ) -> Result<(), CommError> {
        if self.n == 1 || vals.is_empty() {
            return Ok(());
        }
        let dim = vals.len();
        let up = tags::collective(tag, tags::PHASE_TREE_GATHER);
        let down = tags::collective(tag, tags::PHASE_TREE_BCAST);
        let rank = self.rank as usize;
        let n = self.n;

        // Gather phase: `flat` holds the contributions of the contiguous
        // rank range [rank, rank + subtree) in rank order.
        let mut flat = vals.to_vec();
        let mut step = 1usize;
        let mut parent: Option<usize> = None;
        while step < n {
            if rank & step != 0 {
                parent = Some(rank - step);
                break;
            }
            if rank + step < n {
                let part = self.recv((rank + step) as u32, up)?;
                debug_assert_eq!(part.len() % dim.max(1), 0);
                flat.extend_from_slice(&part);
            }
            step <<= 1;
        }

        let acc = if let Some(p) = parent {
            self.isend(p as u32, up, flat);
            self.recv(p as u32, down)?
        } else {
            // Root: combine every rank's contribution in ascending rank
            // order — the exact order of the linear gather.
            let mut acc = flat[..dim].to_vec();
            for r in 1..n {
                for (a, &p) in acc.iter_mut().zip(&flat[r * dim..(r + 1) * dim]) {
                    *a = op.combine(*a, p);
                }
            }
            acc
        };

        // Broadcast phase: forward down the same tree, largest child
        // first.
        let lsb = if rank == 0 {
            n.next_power_of_two()
        } else {
            rank & rank.wrapping_neg()
        };
        let mut child_step = lsb >> 1;
        while child_step >= 1 {
            if rank + child_step < n {
                self.isend((rank + child_step) as u32, down, acc.clone());
            }
            child_step >>= 1;
        }
        vals.copy_from_slice(&acc);
        Ok(())
    }

    /// The original O(n) rank-0 linear gather + broadcast, kept as the
    /// reference the tree path is asserted bitwise-equal against.
    pub fn allreduce_linear(
        &mut self,
        vals: &mut [f64],
        tag: u64,
        op: op2_core::access::GblOp,
    ) -> Result<(), CommError> {
        if self.n == 1 {
            return Ok(());
        }
        let up = tags::collective(tag, tags::PHASE_LINEAR_GATHER);
        let down = tags::collective(tag, tags::PHASE_LINEAR_BCAST);
        if self.rank == 0 {
            let mut acc = vals.to_vec();
            for src in 1..self.n as u32 {
                let part = self.recv(src, up)?;
                assert_eq!(part.len(), acc.len());
                for (a, p) in acc.iter_mut().zip(&part) {
                    *a = op.combine(*a, *p);
                }
            }
            for dst in 1..self.n as u32 {
                self.isend(dst, down, acc.clone());
            }
            vals.copy_from_slice(&acc);
        } else {
            self.isend(0, up, vals.to_vec());
            let acc = self.recv(0, down)?;
            vals.copy_from_slice(&acc);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use op2_core::access::GblOp;

    #[test]
    fn point_to_point_fifo() {
        let ranks = CommWorld::new(2).into_ranks();
        let mut iter = ranks.into_iter();
        let mut r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        let t = std::thread::spawn(move || {
            r0.isend(1, 7, vec![1.0, 2.0]);
            r0.isend(1, 8, vec![3.0]);
            r0
        });
        assert_eq!(r1.recv(0, 7).unwrap(), vec![1.0, 2.0]);
        assert_eq!(r1.recv(0, 8).unwrap(), vec![3.0]);
        let r0 = t.join().unwrap();
        assert_eq!(r0.sent_msgs, 2);
        assert_eq!(r0.sent_bytes, 24);
    }

    fn spawn_allreduce(
        n: usize,
        linear: bool,
    ) -> Vec<Vec<f64>> {
        let ranks = CommWorld::new(n).into_ranks();
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|mut rc| {
                std::thread::spawn(move || {
                    // Values chosen to make float combine order visible:
                    // wildly different magnitudes per rank.
                    let r = rc.rank as f64;
                    let mut v = vec![
                        (r + 1.0) * 1e-3 + 0.1,
                        10.0_f64.powf(r - 2.0),
                        -(r * 7.0 + 0.3),
                    ];
                    if linear {
                        rc.allreduce_linear(&mut v, 100, GblOp::Sum).unwrap();
                    } else {
                        rc.allreduce(&mut v, 100, GblOp::Sum).unwrap();
                    }
                    v
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let ranks = CommWorld::new(4).into_ranks();
        let handles: Vec<_> = ranks
            .into_iter()
            .map(|mut rc| {
                std::thread::spawn(move || {
                    let mut v = [rc.rank as f64 + 1.0, 10.0];
                    rc.allreduce_sum(&mut v, 100).unwrap();
                    v
                })
            })
            .collect();
        for h in handles {
            let v = h.join().unwrap();
            assert_eq!(v, [10.0, 40.0]);
        }
    }

    /// The tree reduction is bitwise identical to the linear gather for
    /// every world size (including non-powers of two), because both
    /// combine contributions in ascending rank order.
    #[test]
    fn tree_allreduce_matches_linear_bitwise() {
        for n in [2usize, 3, 4, 5, 7, 8] {
            let tree = spawn_allreduce(n, false);
            let linear = spawn_allreduce(n, true);
            for (t, l) in tree.iter().zip(&linear) {
                for (a, b) in t.iter().zip(l) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
                }
            }
            // And min/max agree too.
            let ranks = CommWorld::new(n).into_ranks();
            let hs: Vec<_> = ranks
                .into_iter()
                .map(|mut rc| {
                    std::thread::spawn(move || {
                        let mut v = [rc.rank as f64, -(rc.rank as f64)];
                        rc.allreduce(&mut v, 7, GblOp::Max).unwrap();
                        v
                    })
                })
                .collect();
            for h in hs {
                let v = h.join().unwrap();
                assert_eq!(v, [(n - 1) as f64, 0.0], "n={n}");
            }
        }
    }

    /// Tag mismatch is a typed error now, not a panic.
    #[test]
    fn tag_mismatch_is_typed_error() {
        let ranks = CommWorld::new(2).into_ranks();
        let mut iter = ranks.into_iter();
        let mut r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        r0.isend(1, 1, vec![]);
        match r1.recv(0, 2) {
            Err(CommError::TagMismatch {
                from,
                expected,
                got,
            }) => {
                assert_eq!((from, expected, got), (0, 2, 1));
            }
            other => panic!("expected TagMismatch, got {other:?}"),
        }
    }

    /// An empty channel bounded by a short deadline times out with the
    /// waited duration reported.
    #[test]
    fn recv_times_out_with_typed_error() {
        let ranks = CommWorld::new(2)
            .with_config(CommConfig {
                deadline: Duration::from_millis(20),
                ..CommConfig::default()
            })
            .into_ranks();
        let mut iter = ranks.into_iter();
        // Keep rank 0 alive (dropping it would close the channel and
        // surface as PeerHangup instead); it just never sends.
        let _r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        let t0 = Instant::now();
        match r1.recv(0, 5) {
            Err(CommError::Timeout { from, tag, .. }) => {
                assert_eq!((from, tag), (0, 5));
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(2), "deadline not honoured");
        assert_eq!(r1.counters.timeouts, 1);
    }

    /// A hangup sentinel surfaces as PeerHangup without waiting for the
    /// deadline.
    #[test]
    fn hangup_unblocks_receiver_promptly() {
        let ranks = CommWorld::new(2)
            .with_config(CommConfig {
                deadline: Duration::from_secs(30),
                ..CommConfig::default()
            })
            .into_ranks();
        let mut iter = ranks.into_iter();
        let mut r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        r0.hangup_all();
        let t0 = Instant::now();
        match r1.recv(0, 1) {
            Err(CommError::PeerHangup { peer }) => assert_eq!(peer, 0),
            other => panic!("expected PeerHangup, got {other:?}"),
        }
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// Dropped and corrupted attempts are recovered via the scheduled
    /// retransmissions; duplicates are filtered by sequence number; the
    /// payload arrives intact.
    #[test]
    fn faulty_link_still_delivers_exact_payloads() {
        let spec = FaultSpec {
            seed: 0xfeed,
            drop_permille: 200,
            dup_permille: 200,
            corrupt_permille: 200,
            delay_permille: 100,
            max_delay: Duration::from_micros(300),
            ..FaultSpec::default()
        };
        let ranks = CommWorld::with_faults(2, Arc::new(FaultPlan::new(spec))).into_ranks();
        let mut iter = ranks.into_iter();
        let mut r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        let payloads: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![i as f64, i as f64 * 0.5, -(i as f64)])
            .collect();
        let expect = payloads.clone();
        let t = std::thread::spawn(move || {
            for (i, p) in payloads.into_iter().enumerate() {
                r0.isend(1, i as u64, p);
            }
            r0
        });
        for (i, want) in expect.iter().enumerate() {
            let got = r1.recv(0, i as u64).unwrap();
            assert_eq!(&got, want, "message {i}");
        }
        let r0 = t.join().unwrap();
        assert_eq!(r0.sent_msgs, 200, "logical count excludes retransmits");
        assert!(
            r0.counters.injected_drops + r0.counters.injected_corrupt > 0,
            "fault plan never fired: {:?}",
            r0.counters
        );
        assert!(r1.counters.any_recovery(), "receiver saw no faults");
    }

    /// take/recycle round-trips serve every subsequent borrow from the
    /// pool: the allocation counter only moves on genuine misses.
    #[test]
    fn buffer_pool_reuses_and_counts_misses() {
        let mut rc = CommWorld::new(1).into_ranks().remove(0);
        let a = rc.take_buf(0, 16);
        let b = rc.take_buf(0, 8);
        assert_eq!(rc.counters.payload_allocs, 2, "cold pool must miss");
        rc.recycle(0, a);
        rc.recycle(0, b);
        assert_eq!(rc.pooled_bufs(), 2);
        // Best fit: asking for 8 must take the 8-capacity buffer, so the
        // 16-capacity one stays available for the bigger request.
        let b2 = rc.take_buf(0, 8);
        assert!(b2.capacity() >= 8 && b2.capacity() < 16);
        let a2 = rc.take_buf(0, 16);
        assert!(a2.capacity() >= 16);
        assert!(a2.is_empty() && b2.is_empty(), "recycle must clear");
        assert_eq!(rc.counters.payload_allocs, 2, "warm pool must not miss");
        // A request nothing pooled can satisfy is a miss: the largest
        // pooled buffer is grown in place so capacities are monotone.
        rc.recycle(0, a2);
        let big = rc.take_buf(0, 1024);
        assert_eq!(rc.counters.payload_allocs, 3);
        assert!(big.capacity() >= 1024);
        assert_eq!(rc.pooled_bufs(), 0, "miss must consume the grown slot");
        // ensure_buf is the Send_init moment: it only allocates when no
        // pooled buffer can already stage the request.
        rc.recycle(0, big);
        rc.ensure_buf(0, 512);
        assert_eq!(rc.counters.payload_allocs, 3, "adequate slot is a no-op");
        rc.ensure_buf(0, 4096);
        assert_eq!(rc.counters.payload_allocs, 4);
        assert!(rc.take_buf(0, 4096).capacity() >= 4096);
    }

    /// `recv_any` completes in arrival order: the late peer does not
    /// gate the early peer's message.
    #[test]
    fn recv_any_unblocks_on_first_arrival() {
        let ranks = CommWorld::new(3).into_ranks();
        let mut iter = ranks.into_iter();
        let mut r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        let mut r2 = iter.next().unwrap();
        let slow = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            r1.isend(0, 5, vec![1.0]);
            r1
        });
        r2.isend(0, 5, vec![2.0, 2.0]);
        // Peer order lists the slow rank first; arrival order must win.
        let (i, data) = r0.recv_any(&[1, 2], 5).unwrap();
        assert_eq!((i, data), (1, vec![2.0, 2.0]));
        let (i, data) = r0.recv_any(&[1], 5).unwrap();
        assert_eq!((i, data), (0, vec![1.0]));
        slow.join().unwrap();
    }

    /// `recv_any` keeps the duplicate/corruption discipline of `recv`
    /// under an active fault plan: every payload still arrives exactly
    /// once, intact, whichever peer lands first.
    #[test]
    fn recv_any_survives_faulty_links() {
        let spec = FaultSpec {
            seed: 0xabcd,
            drop_permille: 150,
            dup_permille: 150,
            corrupt_permille: 150,
            delay_permille: 150,
            max_delay: Duration::from_micros(200),
            ..FaultSpec::default()
        };
        let ranks = CommWorld::with_faults(3, Arc::new(FaultPlan::new(spec))).into_ranks();
        let mut iter = ranks.into_iter();
        let mut r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        let mut r2 = iter.next().unwrap();
        let rounds = 60u64;
        let t1 = std::thread::spawn(move || {
            for s in 0..rounds {
                r1.isend(0, s, vec![1.0, s as f64]);
            }
        });
        let t2 = std::thread::spawn(move || {
            for s in 0..rounds {
                r2.isend(0, s, vec![2.0, s as f64]);
            }
        });
        for s in 0..rounds {
            let mut pending = vec![1u32, 2u32];
            while !pending.is_empty() {
                let (i, data) = r0.recv_any(&pending, s).unwrap();
                let from = pending.remove(i);
                assert_eq!(data, vec![from as f64, s as f64], "tag {s} from {from}");
            }
        }
        t1.join().unwrap();
        t2.join().unwrap();
    }

    /// Collective traffic lives in its own tag namespace: an allreduce
    /// on base tag `t` coexists with point-to-point messages tagged
    /// `t+1` (the old ad-hoc scheme used `t`/`t+1` for its gather and
    /// broadcast, so an adjacent caller tag was indistinguishable from
    /// the reduction result — a dropped broadcast would silently accept
    /// the user payload in its place).
    #[test]
    fn collective_tags_disjoint_from_user_tags() {
        // Structural: remapped tags are in the reserved range, phases
        // distinct, user tags untouched.
        let g = tags::collective(100, tags::PHASE_TREE_GATHER);
        let b = tags::collective(100, tags::PHASE_TREE_BCAST);
        let lg = tags::collective(100, tags::PHASE_LINEAR_GATHER);
        assert!((tags::COLLECTIVE_BASE..tags::CONTROL_BASE).contains(&g));
        assert!(g != b && b != lg && g != lg);
        assert!(101 < tags::USER_LIMIT && g != 101 && b != 101);

        // Behavioural: allreduce on tag 100 + p2p on the adjacent tag
        // 101, in program order, both deliver their own payloads.
        let ranks = CommWorld::new(2).into_ranks();
        let mut iter = ranks.into_iter();
        let mut r0 = iter.next().unwrap();
        let mut r1 = iter.next().unwrap();
        let tag = 100u64;
        let t = std::thread::spawn(move || {
            let mut v = [1.0];
            r0.allreduce_sum(&mut v, tag).unwrap();
            r0.isend(1, tag + 1, vec![42.0]);
            v
        });
        let mut v = [2.0];
        r1.allreduce_sum(&mut v, tag).unwrap();
        assert_eq!(r1.recv(0, tag + 1).unwrap(), vec![42.0]);
        assert_eq!(t.join().unwrap(), [3.0]);
        assert_eq!(v, [3.0]);
    }
}
