//! Deterministic fault injection for the rank runtime.
//!
//! A [`FaultPlan`] is a pure function from (seed, src, dst, seq) to the
//! latency the wire adds to that logical message
//! ([`FaultPlan::delay`]). Because it depends only on the plan's seed
//! and the message coordinates (never on wall clock or thread
//! interleaving), replaying the same seeded plan over the same program
//! produces identical traffic and identical
//! [`CommCounters`](crate::comm::CommCounters), which is what the
//! fault-determinism property test asserts.
//!
//! The wire itself never loses, duplicates or corrupts a message (the
//! paper's substrate is MPI, which delivers reliably). What a plan can
//! break is a rank: *boundary actions* crash or stall a specific rank
//! when it reaches a configured loop / chain boundary. Crashes are
//! delivered as panics from the executor's boundary hook and contained
//! by the harness's `catch_unwind`; stalls are plain sleeps, long enough
//! to trip peers' receive deadlines when configured that way.

use std::time::Duration;

/// Where in the executed program a boundary action fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryKind {
    /// After finishing the `index`-th `par_loop` (Alg 1 path).
    Loop,
    /// After finishing the `index`-th loop-chain (Alg 2 path).
    Chain,
    /// After finishing the `index`-th loop *inside* a chain.
    ChainLoop,
}

/// A specific boundary: the `index`-th occurrence of `kind` on a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Boundary {
    /// Kind of boundary counted.
    pub kind: BoundaryKind,
    /// Zero-based occurrence count on the rank in question.
    pub index: u64,
}

impl Boundary {
    /// Convenience constructor.
    pub fn new(kind: BoundaryKind, index: u64) -> Self {
        Boundary { kind, index }
    }
}

/// What a rank does when it reaches a configured boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Panic (the harness contains it and notifies survivors).
    Crash,
    /// Sleep for the given duration before continuing.
    Stall(Duration),
}

/// Declarative description of the faults to inject. The delay
/// probability is in permille (0–1000) and is rolled per message from a
/// stream derived from `seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Seed for every probabilistic decision the plan makes.
    pub seed: u64,
    /// Probability (‰) that a message carries extra latency.
    pub delay_permille: u16,
    /// Upper bound for injected latency (uniform in `1..=max_delay`).
    pub max_delay: Duration,
    /// Ranks to crash (panic) at a boundary: `(rank, boundary)`. Fires
    /// on every crossing of the coordinate.
    pub crash: Vec<(u32, Boundary)>,
    /// Ranks to stall at a boundary: `(rank, boundary, how_long)`.
    pub stall: Vec<(u32, Boundary, Duration)>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            delay_permille: 0,
            max_delay: Duration::from_micros(200),
            crash: Vec::new(),
            stall: Vec::new(),
        }
    }
}

impl FaultSpec {
    /// Add a crash of `rank` at `boundary` (builder style).
    pub fn with_crash(mut self, rank: u32, boundary: Boundary) -> Self {
        self.crash.push((rank, boundary));
        self
    }

    /// Add a stall of `rank` at `boundary` for `dur` (builder style).
    pub fn with_stall(mut self, rank: u32, boundary: Boundary, dur: Duration) -> Self {
        self.stall.push((rank, boundary, dur));
        self
    }
}

/// SplitMix64 step — the same generator the `rand` shim uses, so the
/// whole workspace shares one deterministic stream construction.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A compiled, shareable fault plan (wrap in `Arc` and hand to
/// [`CommWorld::with_faults`](crate::comm::CommWorld::with_faults)).
///
/// The plan holds no state besides its spec: delays and boundary
/// actions are pure functions of their coordinates.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
}

impl FaultPlan {
    /// Compile a spec into a plan.
    pub fn new(spec: FaultSpec) -> Self {
        FaultPlan { spec }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Derive the deterministic decision stream for one message.
    fn stream(&self, src: u32, dst: u32, seq: u64) -> u64 {
        // Mix the coordinates so that nearby (src,dst,seq) triples land
        // far apart in the stream space.
        let mut s = self.spec.seed ^ 0x51ed_270b_9f9c_4cb1;
        s = s
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add((src as u64) << 32 | dst as u64);
        s = s.wrapping_mul(0x100_0000_01b3).wrapping_add(seq);
        // One warm-up step decorrelates similar seeds.
        splitmix64(&mut s);
        s
    }

    /// The injected latency of logical message `seq` from `src` to
    /// `dst`, if its delay roll fires.
    ///
    /// Pure in (seed, src, dst, seq): calling this twice returns the
    /// identical delay. At 0‰ it draws nothing from the stream.
    pub fn delay(&self, src: u32, dst: u32, seq: u64) -> Option<Duration> {
        let permille = self.spec.delay_permille;
        let mut state = self.stream(src, dst, seq);
        if permille == 0 || splitmix64(&mut state) % 1000 >= permille as u64 {
            return None;
        }
        let span = self.spec.max_delay.as_micros().max(1) as u64;
        Some(Duration::from_micros(1 + splitmix64(&mut state) % span))
    }

    /// Action (if any) when `rank` reaches its `index`-th boundary of
    /// `kind`. Crash takes precedence over stall if both are named.
    pub fn boundary_action(&self, rank: u32, kind: BoundaryKind, index: u64) -> Option<BoundaryAction> {
        let b = Boundary { kind, index };
        if self.spec.crash.iter().any(|&(r, cb)| r == rank && cb == b) {
            return Some(BoundaryAction::Crash);
        }
        self.spec
            .stall
            .iter()
            .find(|&&(r, sb, _)| r == rank && sb == b)
            .map(|&(_, _, dur)| BoundaryAction::Stall(dur))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delays(seed: u64, delay_permille: u16, max_us: u64) -> FaultPlan {
        FaultPlan::new(FaultSpec {
            seed,
            delay_permille,
            max_delay: Duration::from_micros(max_us),
            ..FaultSpec::default()
        })
    }

    #[test]
    fn schedules_are_deterministic() {
        let plan = delays(42, 200, 200);
        for seq in 1..500u64 {
            assert_eq!(plan.delay(0, 1, seq), plan.delay(0, 1, seq), "seq {seq}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let (a, b) = (delays(1, 200, 200), delays(2, 200, 200));
        let same = (1..200u64)
            .filter(|&s| a.delay(0, 1, s) == b.delay(0, 1, s))
            .count();
        assert!(same < 200, "seeds produced identical plans");
    }

    /// The delays of delay-only specs, in microseconds, recorded while
    /// the plan still rolled drops, corruptions and duplicates: at 0‰
    /// those rolls drew nothing, so their deletion moved no delay. The
    /// first spec is the one the benchmark's delayed-wire workload
    /// builds at seed 1 (every message, up to 100 µs).
    #[test]
    fn delay_schedule_is_pinned() {
        let coords = [(0u32, 1u32, 1u64), (1, 0, 1), (0, 1, 2), (2, 3, 7), (3, 0, 1000), (1, 2, 12345)];
        let golden: [(u64, u16, u64, [Option<u64>; 6]); 3] = [
            (1, 1000, 100, [Some(33), Some(88), Some(41), Some(85), Some(71), Some(91)]),
            (42, 300, 200, [None, Some(158), None, None, None, None]),
            (0x5eed, 1000, 300, [Some(264), Some(288), Some(112), Some(28), Some(6), Some(97)]),
        ];
        for (seed, permille, max_us, want) in golden {
            let plan = delays(seed, permille, max_us);
            for (&(src, dst, seq), want) in coords.iter().zip(want) {
                let got = plan.delay(src, dst, seq).map(|d| d.as_micros() as u64);
                assert_eq!(got, want, "seed {seed:#x}, {permille}‰: ({src}, {dst}, {seq})");
            }
        }
    }

    #[test]
    fn boundary_actions_resolve() {
        let spec = FaultSpec::default()
            .with_crash(1, Boundary::new(BoundaryKind::Chain, 2))
            .with_stall(0, Boundary::new(BoundaryKind::Loop, 4), Duration::from_millis(5));
        let plan = FaultPlan::new(spec);
        assert_eq!(
            plan.boundary_action(1, BoundaryKind::Chain, 2),
            Some(BoundaryAction::Crash)
        );
        assert_eq!(plan.boundary_action(1, BoundaryKind::Chain, 1), None);
        assert_eq!(plan.boundary_action(0, BoundaryKind::Chain, 2), None);
        assert_eq!(
            plan.boundary_action(0, BoundaryKind::Loop, 4),
            Some(BoundaryAction::Stall(Duration::from_millis(5)))
        );
    }
}
