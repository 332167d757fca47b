//! Chaos suite: the fault-tolerant runtime under injected faults.
//!
//! Gated behind the (default-on) `chaos` feature of the facade crate so
//! `cargo test` exercises it as part of tier-1, while
//! `--no-default-features` builds can skip it.
//!
//! Three behaviours are pinned down:
//!
//! 1. **A rank crash mid-program is contained**: the dead rank is
//!    reported by name as a typed [`RankFailure::Panicked`], survivors
//!    unwind promptly via hangup (well inside the receive deadline),
//!    and the harness returns instead of deadlocking.
//! 2. **A silent peer is a typed timeout**: a sender stalled past the
//!    receiver's deadline surfaces as [`CommError::Timeout`] naming the
//!    peer and the wait, bounded by the configured deadline.
//! 3. **A slow rank is not a false positive**: a stall well inside the
//!    receive deadline times nothing out, and the run finishes bitwise
//!    equal to the sequential walk.

#![cfg(feature = "chaos")]

use std::time::{Duration, Instant};

use op2::core::{AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec};
use op2::mesh::Quad2D;
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::{run_chain, run_loop};
use op2::runtime::{
    run_distributed_with, Boundary, BoundaryKind, CommConfig, CommError, FaultPlan, FaultSpec,
    RankFailure, RunOptions, RuntimeError,
};

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

/// The sequential walk of `iters` iterations of the test program.
fn sequential_reference(s: &Setup, iters: usize) -> Domain {
    let mut dom = s.mesh.dom.clone();
    for _ in 0..iters {
        op2::core::seq::run_loop(&mut dom, &s.bump);
        for l in &s.chain.loops {
            op2::core::seq::run_loop(&mut dom, l);
        }
    }
    dom
}

/// Acceptance 1: a rank crashing mid-program (at a chain boundary)
/// terminates the whole run promptly — well within one receive deadline
/// — with a typed per-rank error naming the crashed rank. Survivors
/// either finish or unwind with `PeerHangup` on the dead rank.
#[test]
fn crash_mid_chain_is_contained_and_prompt() {
    let iters = 3;
    let Setup {
        mut mesh,
        layouts,
        bump,
        chain,
        ..
    } = setup(4);

    let deadline = Duration::from_secs(30);
    let spec = FaultSpec::default().with_crash(1, Boundary::new(BoundaryKind::Chain, 0));
    let opts = RunOptions::with_faults(FaultPlan::new(spec)).comm_config(CommConfig { deadline });

    let t0 = Instant::now();
    let out = run_distributed_with(&mut mesh.dom, &layouts, &opts, |env| {
        for _ in 0..iters {
            run_loop(env, &bump)?;
            run_chain(env, &chain)?;
        }
        Ok(())
    });
    let elapsed = t0.elapsed();

    // Prompt termination: the hangup broadcast spares survivors their
    // full deadline. Allow generous slack for slow CI machines while
    // still proving we did not serve the 30s deadline.
    assert!(
        elapsed < deadline / 2,
        "crash took {elapsed:?} to surface (deadline {deadline:?})"
    );
    assert!(!out.all_ok());

    // The crashed rank is named, as a contained panic.
    match &out.results[1] {
        Err(RankFailure::Panicked { rank: 1, message }) => {
            assert!(
                message.contains("rank 1 crashed at Chain boundary 0"),
                "unexpected panic message: {message}"
            );
        }
        other => panic!("expected rank 1 contained crash, got {other:?}"),
    }

    // Survivors either completed or died blaming a dead peer (rank 1
    // directly, or a neighbour that itself unwound in the cascade).
    let failed: Vec<usize> = out
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i)
        .collect();
    for (rank, r) in out.results.iter().enumerate() {
        if rank == 1 {
            continue;
        }
        match r {
            Ok(()) => {}
            Err(RankFailure::Failed {
                rank: fr,
                error: RuntimeError::Comm(CommError::PeerHangup { peer }),
            }) => {
                assert_eq!(*fr as usize, rank);
                assert!(
                    failed.contains(&(*peer as usize)),
                    "rank {rank} blamed live peer {peer}"
                );
            }
            other => panic!("rank {rank}: unexpected verdict {other:?}"),
        }
    }
    // At least one neighbour of rank 1 must have observed the hangup.
    let hangups: u64 = out.traces.iter().map(|t| t.comm.hangups_seen).sum();
    assert!(hangups > 0, "no rank observed the crash hangup");
}

/// Acceptance 2: a silent-but-alive peer (a sender stalled past the
/// deadline) surfaces as a typed `Timeout` naming the peer, after the
/// configured deadline — not a deadlock, not a panic.
#[test]
fn blackholed_link_times_out_with_typed_error() {
    let Setup {
        mut mesh,
        layouts,
        bump,
        chain,
        ..
    } = setup(2);

    let deadline = Duration::from_millis(250);
    // Rank 1 stalls after its first loop (a direct one, which exchanges
    // nothing) for longer than rank 0's deadline, so rank 0 times out
    // waiting for the chain's exchange before rank 1 sends anything or
    // exits.
    let spec = FaultSpec::default().with_stall(1, Boundary::new(BoundaryKind::Loop, 0), Duration::from_secs(2));
    let opts = RunOptions::with_faults(FaultPlan::new(spec)).comm_config(CommConfig { deadline });

    let t0 = Instant::now();
    let out = run_distributed_with(&mut mesh.dom, &layouts, &opts, |env| {
        run_loop(env, &bump)?;
        run_chain(env, &chain)?;
        Ok(())
    });
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(10),
        "timeout path took {elapsed:?}"
    );

    match &out.results[0] {
        Err(RankFailure::Failed {
            rank: 0,
            error: RuntimeError::Comm(CommError::Timeout { from, waited, .. }),
        }) => {
            assert_eq!(*from, 1, "timed out on the wrong peer");
            assert!(
                *waited >= deadline,
                "reported wait {waited:?} below deadline {deadline:?}"
            );
        }
        other => panic!("expected rank 0 timeout, got {other:?}"),
    }
    assert!(out.traces[0].comm.timeouts > 0);
}

/// Acceptance 3: a rank that is merely slow — stalled well inside the
/// receive deadline — is neither failed nor timed out, and the run is
/// bitwise the sequential walk's.
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
    let opts = RunOptions::with_faults(FaultPlan::new(spec)).comm_config(CommConfig {
        deadline: Duration::from_secs(30),
    });

    let (bump, chain) = (&s.bump, &s.chain);
    let out = run_distributed_with(&mut s.mesh.dom, &s.layouts, &opts, |env| {
        for _ in 0..iters {
            run_loop(env, bump)?;
            run_chain(env, chain)?;
        }
        Ok(())
    });

    for (rank, r) in out.results.iter().enumerate() {
        assert!(r.is_ok(), "rank {rank}: {r:?}");
    }
    for &d in &s.dats {
        let bits = |dom: &Domain| {
            dom.dat(d)
                .data
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(&seq_dom),
            bits(&s.mesh.dom),
            "dat `{}` diverged",
            seq_dom.dat(d).name
        );
    }
    for t in &out.traces {
        assert_eq!(t.comm.timeouts, 0, "rank {} timed out", t.rank);
    }
}
