//! In-process rank-to-rank transport — the MPI stand-in.
//!
//! Semantics mirror the subset of MPI the paper's back-end uses:
//! non-blocking sends (`isend` copies the payload into the destination's
//! unbounded inbound channel and returns immediately, like a buffered
//! `MPI_Isend`), blocking receives matched per source in FIFO order by
//! one receive loop over one inbound queue per rank (sufficient because
//! every rank executes the identical loop program, so at most the
//! messages of one exchange round are in flight per peer and they are
//! posted in deterministic order), plus an allreduce for global
//! reduction arguments — the synchronisation point that terminates a
//! loop-chain. It is a Bruck allgather (⌈log₂ n⌉ rounds, one message
//! per rank per round) followed by a rank-ordered combine on every
//! rank ([`RankComm::allreduce`]).
//!
//! The channels deliver every message once and intact, as MPI does, so
//! a receive checks nothing but the tag. What can fail is a peer:
//! [`RankComm::recv_any`] waits under a configurable deadline and
//! returns typed [`CommError`]s instead of panicking, and `hangup`
//! sentinels let a dying (or dropped) rank unblock its peers promptly
//! instead of leaving them to deadlock. A deterministic [`FaultPlan`]
//! attached to the world can delay traffic, keyed by a per-(src,dst)
//! sequence number.
//!
//! Every send is counted and sized ([`RankComm::sent_msgs`],
//! [`RankComm::sent_bytes`]); the paper's central claim is about message
//! counts and sizes, so these counters remain the ground truth the
//! tables are reproduced from.
//!
//! ## Tag namespaces
//!
//! Caller-visible tags live below [`tags::USER_LIMIT`]. The allreduce
//! maps its caller tag into a disjoint namespace at
//! [`tags::COLLECTIVE_BASE`], so a collective can never collide with an
//! adjacent point-to-point exchange no matter how callers pick tags; the
//! control plane (hangup) sits above both at [`tags::CONTROL_BASE`].

use crate::fault::FaultPlan;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
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

    /// Map a caller tag into the collective namespace.
    pub(super) fn collective(tag: u64) -> u64 {
        assert!(
            tag < USER_LIMIT,
            "collective tag {tag} too large to remap into the reserved namespace"
        );
        COLLECTIVE_BASE | tag
    }
}

/// Typed transport failures. These replace the panics of the original
/// transport: a misbehaving peer surfaces as an error the caller can
/// propagate, not as an abort of the whole world.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived within the deadline.
    Timeout {
        /// Peer we were waiting on.
        from: u32,
        /// Tag we were waiting for.
        tag: u64,
        /// Total time waited.
        waited: Duration,
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
    /// The peer hung up (its hangup sentinel, sent on exit or drop).
    PeerHangup {
        /// The dead peer.
        peer: u32,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Timeout { from, tag, waited } => write!(
                f,
                "timed out after {waited:?} waiting for tag {tag} from rank {from}"
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
        }
    }
}

impl std::error::Error for CommError {}

/// Receive-side policy: how long to wait.
///
/// The deadline is the transport-level reflection of the model's latency
/// term `L` (Eq 1/3): a healthy exchange completes in ≪ `deadline`, so
/// the deadline only binds when a peer is dead or stalled.
#[derive(Debug, Clone, Copy)]
pub struct CommConfig {
    /// Total time one receive call may wait for a message.
    pub deadline: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            deadline: Duration::from_secs(10),
        }
    }
}

/// Counters for what the transport observed — the ground truth the
/// chaos tests and the fault-determinism property assert on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommCounters {
    /// Always 0: the wire delivers every message once and intact, so a
    /// receive never discards a copy and re-waits. Kept because the
    /// benchmark reports it.
    pub retries: u64,
    /// Receives that exhausted their deadline.
    pub timeouts: u64,
    /// Messages whose delivery carried an injected delay.
    pub delayed: u64,
    /// Hangup sentinels (or closed channels) observed.
    pub hangups_seen: u64,
    /// Payload buffers allocated because the buffer pool could not
    /// satisfy a [`RankComm::take_buf`] request. Steady-state planned
    /// exchanges must not grow this: every payload is served from (and
    /// returned to) the pool.
    pub payload_allocs: u64,
}

/// What actually travels through a channel: the message plus the
/// latency the fault plan decided at send time.
#[derive(Debug)]
struct Packet {
    /// Sender rank.
    from: u32,
    /// Tag — must match the receiver's expectation (program-order bugs
    /// surface as tag-mismatch errors instead of silent corruption).
    tag: u64,
    /// Payload.
    data: Vec<f64>,
    /// Injected latency, enforced at the receiver (the wire was slow).
    delay: Option<Duration>,
    /// When the payload becomes visible: set from `delay` the first time
    /// a receive call finds the packet at the head of its source's queue.
    visible_at: Option<Instant>,
}

/// Factory wiring `n` ranks together: one inbound channel per rank, and
/// every rank holds a sender to each (its own included). One sender's
/// packets arrive in its send order, so per-source FIFO holds whatever
/// else shares the channel.
pub struct CommWorld {
    senders: Vec<Sender<Packet>>,
    receivers: Vec<Receiver<Packet>>,
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
        let (senders, receivers) = (0..n).map(|_| channel()).unzip();
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
        let (senders, plan, config) = (self.senders, self.plan, self.config);
        self.receivers
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| RankComm {
                rank: rank as u32,
                n,
                sends: senders.clone(),
                inbox,
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                sent_msgs: 0,
                sent_bytes: 0,
                next_seq: vec![1; n],
                config,
                counters: CommCounters::default(),
                plan: plan.clone(),
                hung_up: false,
                pool: vec![Vec::new(); n],
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
    /// A sender into every rank's inbound channel, by destination.
    sends: Vec<Sender<Packet>>,
    /// This rank's one inbound channel: every peer's traffic.
    inbox: Receiver<Packet>,
    /// Per source, the packets taken off `inbox` but not consumed yet,
    /// in that source's send order (MPI's unexpected-message queue). A
    /// delayed head stays parked here until it is visible, across
    /// receive calls, ahead of its source's later traffic.
    queues: Vec<VecDeque<Packet>>,
    /// Messages sent so far — the paper's message count.
    pub sent_msgs: u64,
    /// Payload bytes sent so far.
    pub sent_bytes: u64,
    /// Next sequence number per destination: the key of the fault
    /// plan's delay.
    next_seq: Vec<u64>,
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
}

/// Upper bound on pooled buffers per peer; beyond this, returned
/// buffers are simply freed. Steady-state planned exchanges circulate
/// one buffer per peer per direction — the cap only guards against
/// pathological accumulation.
const POOL_MAX_PER_PEER: usize = 8;

impl RankComm {
    /// Non-blocking send (buffered like `MPI_Isend` + internal copy).
    ///
    /// Under a fault plan the message may be delivered late. Sends to an
    /// already-dead peer are silently buffered and discarded (like
    /// `MPI_Isend` into a failed rank: the *receive* side is where the
    /// failure surfaces).
    pub fn isend(&mut self, to: u32, tag: u64, data: Vec<f64>) {
        let seq = self.next_seq[to as usize];
        self.next_seq[to as usize] += 1;
        self.sent_msgs += 1;
        self.sent_bytes += (data.len() * std::mem::size_of::<f64>()) as u64;
        let delay = self.plan.as_ref().and_then(|p| p.delay(self.rank, to, seq));
        self.push(to, tag, data, delay);
    }

    fn push(&mut self, to: u32, tag: u64, data: Vec<f64>, delay: Option<Duration>) {
        if delay.is_some() {
            self.counters.delayed += 1;
        }
        // A failed send means the peer's endpoint was dropped, and it hung
        // up as it went: the error surfaces on our next receive from it,
        // exactly like buffered MPI.
        let _ = self.sends[to as usize].send(Packet {
            from: self.rank,
            tag,
            data,
            delay,
            visible_at: None,
        });
    }

    /// Blocking receive of the next message from `from`: the one-peer
    /// call of [`RankComm::recv_any`].
    pub fn recv(&mut self, from: u32, tag: u64) -> Result<Vec<f64>, CommError> {
        self.recv_any(&[from], tag).map(|(_, data)| data)
    }

    /// Blocking receive of the next message from **any** of `peers`, in
    /// arrival order, as `(index into peers, payload)` — the one receive
    /// loop.
    ///
    /// Each round looks at the visible heads of the requested sources'
    /// queues, in `peers` order, and completes on the first: a control
    /// tag surfaces as [`CommError::PeerHangup`], a wrong tag as
    /// [`CommError::TagMismatch`], anything else is the payload. With
    /// nothing visible, the call blocks on the inbound channel until an
    /// arrival, the earliest requested head's `visible_at`, or the
    /// deadline ([`CommError::Timeout`], reported against `peers[0]`),
    /// and files every arrival under its source. A delayed head's
    /// latency starts when a receive call first finds it at its source's
    /// head; it never holds up another source's visible message, and it
    /// stays parked across calls ahead of its source's later traffic.
    pub fn recv_any(&mut self, peers: &[u32], tag: u64) -> Result<(usize, Vec<f64>), CommError> {
        assert!(!peers.is_empty(), "recv_any needs at least one peer");
        let start = Instant::now();
        let deadline = start + self.config.deadline;
        loop {
            let now = Instant::now();
            let mut wake = deadline;
            for (i, &from) in peers.iter().enumerate() {
                match self.take_visible(from, now, &mut wake) {
                    Some((got, _)) if got >= tags::CONTROL_BASE => return Err(self.hung_up(from)),
                    Some((got, _)) if got != tag => {
                        return Err(CommError::TagMismatch { from, expected: tag, got })
                    }
                    Some((_, data)) => return Ok((i, data)),
                    None => {}
                }
            }
            if now >= deadline {
                return Err(self.timed_out(peers[0], tag, start));
            }
            // The inbox never disconnects (this endpoint holds a sender
            // to it), so an error here is the timeout.
            let mut arrived = self.inbox.recv_timeout(wake - now).ok();
            while let Some(packet) = arrived {
                self.queues[packet.from as usize].push_back(packet);
                arrived = self.inbox.try_recv().ok();
            }
        }
    }

    /// The tag and payload at the head of `from`'s queue if it is
    /// visible at `now`, starting its injected latency if no receive
    /// call has seen it yet. A head still on the wire stays queued and
    /// pulls `wake` forward to its `visible_at`. A hangup sentinel is
    /// reported but stays queued, so every later receive from `from`
    /// fails the same way.
    fn take_visible(&mut self, from: u32, now: Instant, wake: &mut Instant) -> Option<(u64, Vec<f64>)> {
        let queue = &mut self.queues[from as usize];
        let head = queue.front_mut()?;
        let delay = head.delay.unwrap_or_default();
        let at = *head.visible_at.get_or_insert(now + delay);
        if at > now {
            *wake = (*wake).min(at);
            return None;
        }
        if head.tag >= tags::CONTROL_BASE {
            return Some((head.tag, Vec::new()));
        }
        queue.pop_front().map(|packet| (packet.tag, packet.data))
    }

    /// `from` is gone: its hangup sentinel reached the head of its queue.
    fn hung_up(&mut self, from: u32) -> CommError {
        self.counters.hangups_seen += 1;
        CommError::PeerHangup { peer: from }
    }

    /// The deadline ran out waiting on `from`.
    fn timed_out(&mut self, from: u32, tag: u64, start: Instant) -> CommError {
        self.counters.timeouts += 1;
        CommError::Timeout {
            from,
            tag,
            waited: start.elapsed(),
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
    /// into the next message. Beyond
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

    /// The fault plan this endpoint's traffic is subjected to, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.plan.clone()
    }

    /// Broadcast a hangup sentinel to every peer: "this rank is dead,
    /// stop waiting". Idempotent. Called by the harness when a rank
    /// exits and on drop, so survivors unwind with
    /// [`CommError::PeerHangup`] instead of blocking until their
    /// deadlines.
    pub fn hangup_all(&mut self) {
        if self.hung_up {
            return;
        }
        self.hung_up = true;
        for peer in 0..self.n as u32 {
            if peer == self.rank {
                continue;
            }
            self.push(peer, tags::HANGUP, Vec::new(), None);
        }
    }

    /// Sum-allreduce (see [`RankComm::allreduce`]).
    pub fn allreduce_sum(&mut self, vals: &mut [f64], tag: u64) -> Result<(), CommError> {
        self.allreduce(vals, tag, op2_core::access::GblOp::Sum)
    }

    /// Allreduce with an arbitrary combining operator (sum / min / max).
    ///
    /// A Bruck allgather of the per-rank contributions, then one local
    /// combine. Rank `r` holds the contributions of ranks `r, r + 1, …`
    /// (mod n) in that order; in the round where it holds `len` of them
    /// it sends the first `min(len, n − len)` to rank `r − len` and
    /// appends the block that arrives from rank `r + len`. After
    /// ⌈log₂ n⌉ rounds every rank holds all `n` and combines them in
    /// ascending rank order, the order of a linear gather at rank 0, so
    /// every rank's result is bitwise identical and reproducible.
    ///
    /// Each rank sends one message per round: n⌈log₂ n⌉ messages per
    /// allreduce for n > 2, against 2(n − 1) for a gather to a root and
    /// a broadcast, but half the rounds on the critical path (one on two
    /// ranks). For the 1–5 values a reduction argument carries, latency
    /// dominates and a few more words per message are free.
    ///
    /// Every round uses the same tag, remapped into the reserved
    /// collective namespace so adjacent caller tags can never collide
    /// with collective traffic. Each round receives from a different
    /// peer, and per-source queues are FIFO, so a message cannot be
    /// matched to the wrong round.
    pub fn allreduce(
        &mut self,
        vals: &mut [f64],
        tag: u64,
        op: op2_core::access::GblOp,
    ) -> Result<(), CommError> {
        let (n, dim, r) = (self.n, vals.len(), self.rank as usize);
        if n == 1 || dim == 0 {
            return Ok(());
        }
        let tag = tags::collective(tag);
        let mut held = Vec::with_capacity(n * dim);
        held.extend_from_slice(vals);
        let mut len = 1;
        while len < n {
            let k = len.min(n - len);
            self.isend(((r + n - len) % n) as u32, tag, held[..k * dim].to_vec());
            let part = self.recv(((r + len) % n) as u32, tag)?;
            assert_eq!(
                part.len(),
                k * dim,
                "allreduce contributions differ in length"
            );
            held.extend_from_slice(&part);
            len += k;
        }
        // Rank q's contribution is block (q − r) mod n.
        let block = |q: usize| &held[(q + n - r) % n * dim..][..dim];
        vals.copy_from_slice(block(0));
        for q in 1..n {
            for (a, &p) in vals.iter_mut().zip(block(q)) {
                *a = op.combine(*a, p);
            }
        }
        Ok(())
    }
}

/// No channel closes when an endpoint goes (every rank holds a sender to
/// every inbox), so dropping one hangs up: its peers get [`CommError::PeerHangup`].
impl Drop for RankComm {
    fn drop(&mut self) {
        self.hangup_all();
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

    /// One rank's contribution: magnitudes so far apart across ranks
    /// that any other combine order changes the bits of the sum, and a
    /// sign that makes `Min`/`Max` pick ranks from the middle.
    fn contribution(rank: u32) -> Vec<f64> {
        let r = rank as f64;
        vec![(r + 1.0) * 1e-3 + 0.1, 10f64.powf(r - 2.0), -(r * 7.0 + 0.3), (r * 3.7).sin()]
    }

    /// The bits of every contribution combined in ascending rank order,
    /// as a linear gather at rank 0 combines them.
    fn rank_ordered_fold(n: usize, op: GblOp) -> Vec<u64> {
        let mut acc = contribution(0);
        for q in 1..n as u32 {
            acc.iter_mut().zip(contribution(q)).for_each(|(a, p)| *a = op.combine(*a, p));
        }
        acc.iter().map(|x| x.to_bits()).collect()
    }

    /// `reps` allreduces of [`contribution`] on every rank of `world`:
    /// the bits of each rank's last result, its logical sends and its
    /// transport counters.
    fn run_allreduce(world: CommWorld, op: GblOp, reps: usize) -> Vec<(Vec<u64>, u64, CommCounters)> {
        let spawn = |mut rc: RankComm| {
            std::thread::spawn(move || {
                let mut v = Vec::new();
                for _ in 0..reps {
                    v = contribution(rc.rank);
                    rc.allreduce(&mut v, 100, op).unwrap();
                }
                (v.iter().map(|x| x.to_bits()).collect(), rc.sent_msgs, rc.counters)
            })
        };
        let handles: Vec<_> = world.into_ranks().into_iter().map(spawn).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    const OPS: [GblOp; 3] = [GblOp::Sum, GblOp::Min, GblOp::Max];

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

    /// Every rank's result is bitwise the rank-ordered fold, for every
    /// world size up to 8 (powers of two and not) and every operator.
    #[test]
    fn allreduce_matches_rank_ordered_fold_bitwise() {
        for n in [1usize, 2, 3, 4, 5, 7, 8] {
            for op in OPS {
                let want = rank_ordered_fold(n, op);
                for (rank, (got, _, _)) in run_allreduce(CommWorld::new(n), op, 1).iter().enumerate() {
                    assert_eq!(got, &want, "n={n} {op:?} rank {rank}");
                }
            }
        }
    }

    /// One message per rank per round, ⌈log₂ n⌉ rounds; none at n = 1.
    #[test]
    fn allreduce_sends_ceil_log2_n_messages_per_rank() {
        for n in 1usize..=8 {
            let rounds = n.next_power_of_two().trailing_zeros() as u64;
            for (rank, (_, sent, _)) in run_allreduce(CommWorld::new(n), GblOp::Sum, 1).iter().enumerate() {
                assert_eq!(*sent, rounds, "n={n} rank {rank}");
            }
        }
    }

    /// Delayed messages change timing and counters, never the reduced
    /// bits. Two allreduces run back to back, so the second's messages
    /// can arrive while a slower rank still waits on the first's.
    #[test]
    fn allreduce_under_faults_matches_fault_free_bitwise() {
        let spec = FaultSpec {
            seed: 0x5eed,
            delay_permille: 300,
            ..FaultSpec::default()
        };
        let plan = Arc::new(FaultPlan::new(spec));
        let mut delayed = 0;
        for n in [2usize, 3, 5] {
            for op in OPS {
                let clean = run_allreduce(CommWorld::new(n), op, 1);
                let faulted = run_allreduce(CommWorld::with_faults(n, plan.clone()), op, 2);
                for (rank, (c, f)) in clean.iter().zip(&faulted).enumerate() {
                    assert_eq!(f.0, c.0, "n={n} {op:?} rank {rank}");
                    delayed += f.2.delayed;
                }
            }
        }
        assert!(delayed > 0, "fault plan never delayed a message");
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
            .with_config(CommConfig { deadline: Duration::from_millis(20) })
            .into_ranks();
        let mut iter = ranks.into_iter();
        // Keep rank 0 alive (dropping it would hang up and surface as
        // PeerHangup instead); it just never sends.
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
            .with_config(CommConfig { deadline: Duration::from_secs(30) })
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

    /// Dropping an endpoint without `hangup_all` still hangs up: a peer
    /// blocked in `recv` and one blocked in a two-peer `recv_any` both
    /// get `PeerHangup` long before their deadlines.
    #[test]
    fn dropped_endpoint_hangs_up_peers() {
        let ranks = CommWorld::new(3)
            .with_config(CommConfig { deadline: Duration::from_secs(30) })
            .into_ranks();
        let mut iter = ranks.into_iter();
        let r0 = iter.next().unwrap();
        let t0 = Instant::now();
        // Each waiter hands its endpoint back and both are joined before
        // either is dropped, so no waiter's own hangup races rank 0's.
        let waiter = |mut rc: RankComm, peers: &'static [u32]| {
            std::thread::spawn(move || (rc.recv_any(peers, 1), rc))
        };
        let one = waiter(iter.next().unwrap(), &[0]);
        let two = waiter(iter.next().unwrap(), &[1, 0]);
        // Lets both waiters block first; they get the hangup either way.
        std::thread::sleep(Duration::from_millis(50));
        drop(r0);
        let done: Vec<_> = [one, two].map(|h| h.join().unwrap()).into();
        assert!(t0.elapsed() < Duration::from_secs(5), "hangup not prompt");
        for (got, rc) in &done {
            assert_eq!(got, &Err(CommError::PeerHangup { peer: 0 }), "rank {}", rc.rank);
            assert_eq!(rc.counters.hangups_seen, 1);
        }
    }

    /// A delayed packet parked while `recv_any` completes through
    /// another source stays at the head of its source's queue: the next
    /// `recv` from that source returns it before the source's later
    /// message.
    #[test]
    fn parked_packet_is_received_before_later_traffic() {
        // A seed under which rank 1's first message to rank 0 is delayed
        // far longer than rank 2's, so rank 2's completes `recv_any` while
        // rank 1's is still parked, however loaded the host is; rank 1's
        // second message is quick, so it would overtake a parked head
        // that did not hold its place.
        let spec = |seed| FaultSpec {
            seed,
            delay_permille: 1000,
            max_delay: Duration::from_millis(300),
            ..FaultSpec::default()
        };
        let ms = |p: &FaultPlan, src, seq| p.delay(src, 0, seq).unwrap().as_millis();
        let plan = (0..)
            .map(|seed| FaultPlan::new(spec(seed)))
            .find(|p| ms(p, 1, 1) >= 200 && ms(p, 2, 1) <= 20 && ms(p, 1, 2) <= 20)
            .unwrap();
        let mut ranks = CommWorld::with_faults(3, Arc::new(plan)).into_ranks().into_iter();
        let (mut r0, mut r1, mut r2) = (ranks.next().unwrap(), ranks.next().unwrap(), ranks.next().unwrap());
        r1.isend(0, 7, vec![1.0]);
        r1.isend(0, 7, vec![1.5]);
        r2.isend(0, 7, vec![2.0]);
        assert_eq!(r0.recv_any(&[1, 2], 7).unwrap(), (1, vec![2.0]));
        assert_eq!(r0.recv(1, 7).unwrap(), vec![1.0]);
        assert_eq!(r0.recv(1, 7).unwrap(), vec![1.5]);
        assert_eq!((r1.counters.delayed, r2.counters.delayed), (2, 1));
    }

    /// Delayed messages still arrive once each, intact and in send
    /// order: a delayed head holds back its source's later traffic.
    #[test]
    fn faulty_link_still_delivers_exact_payloads() {
        let spec = FaultSpec {
            seed: 0xfeed,
            delay_permille: 300,
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
        assert_eq!(r0.sent_msgs, 200);
        assert!(r0.counters.delayed > 0, "fault plan never fired: {:?}", r0.counters);
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

    /// `recv_any` keeps per-source order under a delaying fault plan:
    /// every payload still arrives exactly once, intact, whichever peer
    /// lands first.
    #[test]
    fn recv_any_survives_faulty_links() {
        let spec = FaultSpec {
            seed: 0xabcd,
            delay_permille: 300,
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
        // Structural: remapped tags are in the reserved range, distinct
        // per caller tag, user tags untouched.
        let c = tags::collective(100);
        assert!((tags::COLLECTIVE_BASE..tags::CONTROL_BASE).contains(&c));
        assert!((tags::COLLECTIVE_BASE..tags::CONTROL_BASE)
            .contains(&tags::collective(tags::USER_LIMIT - 1)));
        assert_ne!(c, tags::collective(101));
        assert!(101 < tags::USER_LIMIT && c != 101);

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
