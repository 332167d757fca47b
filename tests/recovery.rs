//! Recovery suite: the self-healing supervisor under injected rank
//! deaths and stragglers.
//!
//! Gated behind the (default-on) `chaos` feature like `tests/chaos.rs`.
//!
//! The contract under test (DESIGN.md §13): a run that crashes and
//! recovers `k` times is **bitwise identical** to a fault-free run.
//! Six behaviours are pinned down:
//!
//! 1. **Exhaustive crash sweep**: killing rank 1 once at *every*
//!    chain-loop boundary of a multi-loop chain program — at 1, 2 and 4
//!    pool threads — recovers through coordinated rollback and replays
//!    to results bitwise equal to the sequential reference.
//! 2. **Randomized crashes** (proptest): random victim rank, boundary
//!    kind/index and checkpoint cadence all recover bitwise.
//! 3. **A slow rank is not a false positive**: a stall well inside the
//!    receive deadline triggers no rollback and no escalation.
//! 4. **A straggler past the deadline is escalated, not killed**: the
//!    supervisor classifies pure timeouts as slowness, doubles the
//!    deadline, and converges — still bitwise equal.
//! 5. **A permanent fault degrades gracefully**: the unlimited legacy
//!    crash re-fires every attempt until the recovery budget runs out,
//!    surfacing as typed `RecoveryExhausted` naming the dead rank.
//! 6. **A restart carries its plans**: the attempt after a rollback runs
//!    on the failed attempt's plan cache, so the recovered run inspects
//!    no chain a fault-free run would not.

#![cfg(feature = "chaos")]

use std::time::Duration;

use op2::core::{AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec};
use op2::mesh::Quad2D;
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::{run_chain, run_loop};
use op2::runtime::{
    run_supervised, Boundary, BoundaryKind, CommConfig, FaultPlan, FaultSpec, PlanStats,
    RankFailure, RunOptions, RuntimeError, SuperviseOptions,
};
use proptest::prelude::*;

fn produce_kernel(args: &Args<'_>) {
    args.inc(0, 0, args.get(2, 0) + 1.0);
    args.inc(1, 0, args.get(3, 0) + 2.0);
}

fn consume_kernel(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0));
    args.inc(3, 0, args.get(1, 0));
}

fn bump_kernel(args: &Args<'_>) {
    args.set(0, 0, args.get(0, 0) + 1.0);
}

struct Setup {
    mesh: Quad2D,
    layouts: Vec<RankLayout>,
    /// Direct RW loop on `seed`: dirties its halo every iteration so
    /// each chain execution genuinely exchanges.
    bump: LoopSpec,
    chain: ChainSpec,
    dats: Vec<DatId>,
}

fn setup(nparts: usize) -> Setup {
    let mut mesh = Quad2D::generate(10, 8);
    let n = mesh.dom.set(mesh.nodes).size;
    let seed: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 13) as f64).collect();
    let dseed = mesh.dom.decl_dat("seed", mesh.nodes, 1, seed);
    let a = mesh.dom.decl_dat_zeros("a", mesh.nodes, 1);
    let b = mesh.dom.decl_dat_zeros("b", mesh.nodes, 1);
    let bump = LoopSpec::new(
        "bump",
        mesh.nodes,
        vec![Arg::dat_direct(dseed, AccessMode::Rw)],
        bump_kernel,
    );
    let produce = LoopSpec::new(
        "produce",
        mesh.edges,
        vec![
            Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Inc),
            Arg::dat_indirect(dseed, mesh.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(dseed, mesh.e2n, 1, AccessMode::Read),
        ],
        produce_kernel,
    );
    let consume = LoopSpec::new(
        "consume",
        mesh.edges,
        vec![
            Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Read),
            Arg::dat_indirect(b, mesh.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(b, mesh.e2n, 1, AccessMode::Inc),
        ],
        consume_kernel,
    );
    let chain = ChainSpec::new("pc", vec![produce, consume], None, &[]).unwrap();
    let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, nparts);
    let own = derive_ownership(&mesh.dom, mesh.nodes, base, nparts);
    let layouts = build_layouts(&mesh.dom, &own, 2);
    Setup {
        mesh,
        layouts,
        bump,
        chain,
        dats: vec![dseed, a, b],
    }
}

/// The sequential reference for `iters` iterations of the test program.
fn sequential_reference(setup: &Setup, iters: usize) -> Domain {
    let mut seq_dom = setup.mesh.dom.clone();
    for _ in 0..iters {
        op2::core::seq::run_loop(&mut seq_dom, &setup.bump);
        for l in &setup.chain.loops {
            op2::core::seq::run_loop(&mut seq_dom, l);
        }
    }
    seq_dom
}

/// Run the test program supervised under `opts` and return the outcome.
fn run_program(
    s: &mut Setup,
    iters: usize,
    opts: &SuperviseOptions,
) -> Result<op2::runtime::DistOutcome<()>, RuntimeError> {
    let bump = &s.bump;
    let chain = &s.chain;
    run_supervised(&mut s.mesh.dom, &s.layouts, opts, |env| {
        for _ in 0..iters {
            run_loop(env, bump)?;
            run_chain(env, chain)?;
        }
        Ok(())
    })
}

fn assert_bitwise_equal(seq_dom: &Domain, got: &Domain, dats: &[DatId], label: &str) {
    for &d in dats {
        let want: Vec<u64> = seq_dom.dat(d).data.iter().map(|x| x.to_bits()).collect();
        let have: Vec<u64> = got.dat(d).data.iter().map(|x| x.to_bits()).collect();
        assert_eq!(
            want,
            have,
            "{label}: dat `{}` diverged from the fault-free reference",
            seq_dom.dat(d).name
        );
    }
}

/// Acceptance 1 (the ISSUE's non-negotiable contract): kill rank 1 once
/// at every chain-loop boundary the program crosses, at 1/2/4 threads;
/// every variant must recover through a coordinated rollback and finish
/// bitwise identical to the fault-free reference.
#[test]
fn crash_at_every_chain_loop_boundary_recovers_bitwise() {
    let iters = 3;
    let n_boundaries = iters * 2; // two loops per chain crossing
    for n_threads in [1usize, 2, 4] {
        for k in 0..n_boundaries {
            let mut s = setup(4);
            let seq_dom = sequential_reference(&s, iters);
            let spec = FaultSpec::default()
                .with_crash_site(1, Boundary::new(BoundaryKind::ChainLoop, k as u64));
            let run = RunOptions::with_faults(FaultPlan::new(spec))
                .with_threads(n_threads)
                .checkpoint_every(1);
            let out = run_program(&mut s, iters, &SuperviseOptions::new(run))
                .unwrap_or_else(|e| {
                    panic!("threads {n_threads}, ChainLoop {k}: supervision failed: {e}")
                });
            assert!(out.all_ok());
            assert_bitwise_equal(
                &seq_dom,
                &s.mesh.dom,
                &s.dats,
                &format!("threads {n_threads}, ChainLoop boundary {k}"),
            );
            // The crash genuinely fired and was rolled back, exactly once.
            for t in &out.traces {
                assert_eq!(t.recovery.attempts, 2, "rank {}", t.rank);
                assert_eq!(t.recovery.rollbacks, 1, "rank {}", t.rank);
                assert!(t.recovery.checkpoints > 0, "rank {}", t.rank);
                // Crashes inside the first chain (k < 2) roll back to
                // the baseline with an empty journal; later ones must
                // replay the journaled prefix.
                assert!(
                    t.recovery.replayed_loops + t.recovery.replayed_chains > 0 || k < 2,
                    "rank {}: rollback replayed nothing past the baseline",
                    t.rank
                );
                assert_eq!(t.recovery.escalations, 0, "rank {}", t.rank);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Acceptance 2: random victim, random boundary coordinate, random
    /// checkpoint cadence — recovery is always bitwise exact.
    #[test]
    fn random_crash_sites_recover_bitwise(
        victim in 0u32..4,
        kind in 0usize..3,
        index in 0u64..6,
        every in 1u64..4,
    ) {
        let iters = 3;
        let kind = [BoundaryKind::Loop, BoundaryKind::Chain, BoundaryKind::ChainLoop][kind];
        let mut s = setup(4);
        let seq_dom = sequential_reference(&s, iters);
        let spec = FaultSpec::default()
            .with_crash_site(victim, Boundary::new(kind, index));
        let run = RunOptions::with_faults(FaultPlan::new(spec)).checkpoint_every(every);
        let out = run_program(&mut s, iters, &SuperviseOptions::new(run));
        let out = match out {
            Ok(o) => o,
            Err(e) => return Err(TestCaseError::fail(format!("supervision failed: {e}"))),
        };
        prop_assert!(out.all_ok());
        for &d in &s.dats {
            let want: Vec<u64> =
                seq_dom.dat(d).data.iter().map(|x| x.to_bits()).collect();
            let have: Vec<u64> =
                s.mesh.dom.dat(d).data.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(want, have, "dat `{}` diverged", seq_dom.dat(d).name);
        }
        // Whether the site fired depends on the coordinate being in
        // range; either way the run must end clean, and if it fired the
        // rollback must be recorded.
        let fired = out.traces.iter().any(|t| t.recovery.rollbacks > 0);
        if fired {
            for t in &out.traces {
                prop_assert_eq!(t.recovery.attempts, 2);
            }
        }
    }
}

/// Acceptance 3: a rank that is merely slow — stalled well inside the
/// receive deadline — must not be killed, rolled back, or escalated.
#[test]
fn slow_rank_is_not_a_false_positive() {
    let iters = 3;
    let mut s = setup(4);
    let seq_dom = sequential_reference(&s, iters);
    let spec = FaultSpec::default().with_stall(
        1,
        Boundary::new(BoundaryKind::Loop, 0),
        Duration::from_millis(300),
    );
    let run = RunOptions::with_faults(FaultPlan::new(spec))
        .comm_config(CommConfig {
            deadline: Duration::from_secs(30),
        })
        .checkpoint_every(1);
    let out = run_program(&mut s, iters, &SuperviseOptions::new(run)).unwrap();
    assert!(out.all_ok());
    assert_bitwise_equal(&seq_dom, &s.mesh.dom, &s.dats, "slow rank");
    for t in &out.traces {
        assert_eq!(t.recovery.attempts, 1, "rank {} was retried", t.rank);
        assert_eq!(t.recovery.rollbacks, 0, "rank {} was rolled back", t.rank);
        assert_eq!(t.recovery.escalations, 0, "rank {} escalated", t.rank);
    }
}

/// Acceptance 4: a straggler past the deadline is classified as
/// slowness, not death — the supervisor doubles the deadline (recorded
/// as an escalation), retries, and converges bitwise exact.
#[test]
fn straggler_escalates_deadline_and_recovers() {
    let iters = 2;
    let mut s = setup(2);
    let seq_dom = sequential_reference(&s, iters);
    // Rank 1 stalls for 600ms every attempt; the 250ms deadline loses
    // twice (250 → 500) and wins at 1000ms.
    let spec = FaultSpec::default().with_stall(
        1,
        Boundary::new(BoundaryKind::Loop, 0),
        Duration::from_millis(600),
    );
    let run = RunOptions::with_faults(FaultPlan::new(spec))
        .comm_config(CommConfig {
            deadline: Duration::from_millis(250),
        })
        .checkpoint_every(1);
    let out = run_program(&mut s, iters, &SuperviseOptions::new(run)).unwrap();
    assert!(out.all_ok());
    assert_bitwise_equal(&seq_dom, &s.mesh.dom, &s.dats, "straggler");
    for t in &out.traces {
        assert!(
            t.recovery.escalations >= 1,
            "rank {}: straggler never escalated the deadline",
            t.rank
        );
        assert!(t.recovery.rollbacks >= 1, "rank {}", t.rank);
        assert!(t.recovery.attempts >= 2, "rank {}", t.rank);
    }
}

/// Acceptance 5: a *permanent* fault — the legacy unlimited crash that
/// re-fires on every attempt — exhausts the recovery budget and
/// surfaces as typed `RecoveryExhausted` carrying the per-rank traces
/// and the dead rank's failure.
#[test]
fn permanent_crash_exhausts_recovery_budget() {
    let iters = 3;
    let mut s = setup(4);
    let spec =
        FaultSpec::default().with_crash(1, Boundary::new(BoundaryKind::Chain, 0));
    let run = RunOptions::with_faults(FaultPlan::new(spec)).checkpoint_every(1);
    let opts = SuperviseOptions::new(run).max_recoveries(2);
    let err = run_program(&mut s, iters, &opts).expect_err("permanent fault must exhaust");
    match &err {
        RuntimeError::RecoveryExhausted {
            attempts,
            traces,
            failures,
        } => {
            assert_eq!(*attempts, 3, "budget 2 allows exactly 3 attempts");
            assert_eq!(traces.len(), 4);
            assert!(
                failures.iter().any(|f| matches!(
                    f,
                    RankFailure::Panicked { rank: 1, message }
                        if message.contains("rank 1 crashed")
                )),
                "the dead rank is not named: {failures:?}"
            );
        }
        other => panic!("expected RecoveryExhausted, got {other}"),
    }
    let msg = err.to_string();
    assert!(
        msg.contains("recovery budget exhausted"),
        "unhelpful message: {msg}"
    );
}

/// Supervision of a fault-free run is invisible in the results (bitwise
/// equal to the reference) and records exactly one attempt with live
/// checkpoints — the overhead-only baseline the bench report measures.
#[test]
fn fault_free_supervised_run_is_bitwise_transparent() {
    let iters = 4;
    let mut s = setup(4);
    let seq_dom = sequential_reference(&s, iters);
    let run = RunOptions::default().checkpoint_every(2);
    let out = run_program(&mut s, iters, &SuperviseOptions::new(run)).unwrap();
    assert!(out.all_ok());
    assert_bitwise_equal(&seq_dom, &s.mesh.dom, &s.dats, "fault-free supervised");
    for t in &out.traces {
        assert_eq!(t.recovery.attempts, 1);
        assert_eq!(t.recovery.rollbacks, 0);
        // Baseline + every second chain completion.
        assert_eq!(t.recovery.checkpoints, 1 + iters as u64 / 2);
        // Incremental snapshots: the untouched coord dat is never
        // re-copied after the baseline.
        assert!(
            t.recovery.dats_skipped > 0,
            "rank {}: dirty tracking never skipped a clean dat",
            t.rank
        );
    }
}

/// Acceptance 6: a restart carries the failed attempt's plan cache, and
/// the plan counters travel with it, so a recovered run's counters sum
/// both attempts. Rank 1 dies inside the last chain, after every rank
/// has planned every chain: the recovered run then reports exactly the
/// fault-free run's misses (nothing planned twice, nothing forgotten),
/// and the chain it re-executes after the rollback is a cache hit.
#[test]
fn recovered_run_reinspects_nothing() {
    let iters = 3;
    let plan_total = |out: &op2::runtime::DistOutcome<()>| {
        let mut total = PlanStats::default();
        for t in &out.traces {
            total.add(&t.plan);
        }
        total
    };
    let mut clean = setup(4);
    let run = RunOptions::default().checkpoint_every(1);
    let fault_free = run_program(&mut clean, iters, &SuperviseOptions::new(run)).unwrap();

    let mut s = setup(4);
    let last = Boundary::new(BoundaryKind::ChainLoop, 2 * iters as u64 - 1);
    let spec = FaultSpec::default().with_crash_site(1, last);
    let run = RunOptions::with_faults(FaultPlan::new(spec)).checkpoint_every(1);
    let out = run_program(&mut s, iters, &SuperviseOptions::new(run)).unwrap();
    assert!(out.all_ok());
    for t in &out.traces {
        assert_eq!(t.recovery.rollbacks, 1, "rank {}", t.rank);
    }
    assert_bitwise_equal(
        &clean.mesh.dom,
        &s.mesh.dom,
        &s.dats,
        "recovered vs fault-free",
    );

    let (want, got) = (plan_total(&fault_free), plan_total(&out));
    assert!(
        want.misses > 1,
        "the program plans more than one dirty class: {want:?}"
    );
    // More misses: the restart re-inspected a chain. Fewer: the counters,
    // and with them the cache, were not carried.
    assert_eq!(
        got.misses, want.misses,
        "recovered {got:?} vs fault-free {want:?}"
    );
    assert!(
        got.hits > want.hits,
        "the re-executed chain missed the carried cache: {got:?} vs fault-free {want:?}"
    );
}
