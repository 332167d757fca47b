//! Cross-loop fusion equivalence properties.
//!
//! The fused executor runs every kernel of a fusion group back-to-back
//! per element, keeping elided intermediates in per-worker scratch
//! instead of round-tripping them through the dat arrays. The contract
//! (DESIGN.md §16) is that this is *bitwise identical* to the unfused
//! chain on every lowering — direct, colored and tiled — at any thread
//! count, because every lowering preserves the per-location update
//! order of the unfused walk.
//!
//! Pinned here, on randomly generated 2-D quad and 3-D tet meshes:
//!
//! 1. **Fused == unfused == sequential** to the bit at 1/2/4 pool
//!    threads across the direct, colored and tiled lowerings, with the
//!    traces proving fused pieces actually ran and intermediate bytes
//!    were actually elided (proptest).
//! 2. **Steady state allocates nothing**: after one warm-up invocation
//!    per lowering the per-thread scratch pool never grows again.
//! 3. **`OP2_FUSE=auto` fuses only when profitable**: a chain with
//!    elision and no exchange traffic fuses; a fusable chain with
//!    nothing to elide stays unfused under `auto` but fuses under `on`.
//! 4. **Chaos**: a rank crash at a chain boundary of a fused program
//!    (and mid-program at a loop boundary) rolls back and replays to
//!    results bitwise equal to the fault-free reference — elided dats
//!    are never dirty-marked, so checkpointed bytes stay exact.
//!
//! All kernels keep values dyadic rationals so floating-point addition
//! is exact and the sequential reference is bit-comparable.

use op2::core::{seq, AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2::mesh::{Quad2D, Tet3D};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::{run_chain, run_chain_tiled, run_loop};
use op2::runtime::{run_distributed_with, FuseMode, RankTrace, RunOptions, Threading};
use proptest::prelude::*;

fn bump(args: &Args<'_>) {
    args.set(0, 0, args.get(0, 0) + 1.0);
}
fn produce(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0) + 1.0);
    args.inc(3, 0, args.get(1, 0) * 0.5);
}
/// `tmp = d0 * 0.5 + 1.0` — the producer of the elidable intermediate.
fn stage(args: &Args<'_>) {
    args.set(1, 0, args.get(0, 0) * 0.5 + 1.0);
}
/// `d0 += tmp * 0.25; d1 = d1 * 0.5 + tmp` — its only consumer.
fn apply(args: &Args<'_>) {
    args.set(1, 0, args.get(1, 0) + args.get(0, 0) * 0.25);
    args.set(2, 0, args.get(2, 0) * 0.5 + args.get(0, 0));
}

struct Case {
    dom: Domain,
    nodes: SetId,
    coords: DatId,
    cdim: usize,
    /// The dats compared against the reference. `tmp` is excluded: the
    /// fused run elides it, leaving its memory untouched/unspecified.
    dats: [DatId; 2],
    bump_loop: LoopSpec,
    chain: ChainSpec,
}

/// Mirror of the mg-cfd fused chain shape: an indirect edges loop
/// (set-change boundary, stays solo), then a direct Write of `tmp`,
/// then a direct loop Reading `tmp` — the last two fuse, `tmp` elides.
fn build_case(nx: usize, ny: usize, nz: usize, tet: bool) -> Case {
    build_case_with(nx, ny, nz, tet, true)
}

fn build_case_with(nx: usize, ny: usize, nz: usize, tet: bool, scratch: bool) -> Case {
    let (mut dom, nodes, edges, e2n, coords, cdim) = if tet {
        let m = Tet3D::generate(nx.min(6), ny.min(6), nz);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 3)
    } else {
        let m = Quad2D::generate(nx, ny);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 2)
    };
    let n = dom.set(nodes).size;
    let s0: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 17) as f64).collect();
    let d0 = dom.decl_dat("d0", nodes, 1, s0);
    let d1 = dom.decl_dat_zeros("d1", nodes, 1);
    let tmp = dom.decl_dat_zeros("tmp", nodes, 1);
    let bump_loop = LoopSpec::new(
        "bump",
        nodes,
        vec![Arg::dat_direct(d0, AccessMode::Rw)],
        bump,
    );
    let chain = ChainSpec::new(
        "fuse",
        vec![
            LoopSpec::new(
                "produce",
                edges,
                vec![
                    Arg::dat_indirect(d0, e2n, 0, AccessMode::Read),
                    Arg::dat_indirect(d0, e2n, 1, AccessMode::Read),
                    Arg::dat_indirect(d1, e2n, 0, AccessMode::Inc),
                    Arg::dat_indirect(d1, e2n, 1, AccessMode::Inc),
                ],
                produce,
            ),
            LoopSpec::new(
                "stage",
                nodes,
                vec![
                    Arg::dat_direct(d0, AccessMode::Read),
                    Arg::dat_direct(tmp, AccessMode::Write),
                ],
                stage,
            ),
            LoopSpec::new(
                "apply",
                nodes,
                vec![
                    Arg::dat_direct(tmp, AccessMode::Read),
                    Arg::dat_direct(d0, AccessMode::Rw),
                    Arg::dat_direct(d1, AccessMode::Rw),
                ],
                apply,
            ),
        ],
        None,
        &[],
    )
    .unwrap();
    let chain = if scratch {
        chain.with_scratch(&[tmp])
    } else {
        chain
    };
    Case {
        dom,
        nodes,
        coords,
        cdim,
        dats: [d0, d1],
        bump_loop,
        chain,
    }
}

fn layouts_for(case: &Case, nparts: usize) -> Vec<RankLayout> {
    let base = rcb_partition(&case.dom.dat(case.coords).data, case.cdim, nparts);
    let own = derive_ownership(&case.dom, case.nodes, base, nparts);
    build_layouts(&case.dom, &own, 2)
}

fn bits_of(case: &Case, dom: &Domain) -> Vec<Vec<u64>> {
    case.dats
        .iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `iters` iterations of bump + chain under `fuse`/`threading`, via
/// the strict chain entry (direct or colored lowering).
fn run_case(
    case: &Case,
    layouts: &[RankLayout],
    fuse: FuseMode,
    threading: Threading,
    iters: usize,
) -> (Vec<RankTrace>, Vec<Vec<u64>>) {
    let mut dom = case.dom.clone();
    let opts = RunOptions::default().fuse(fuse).threading(threading);
    let out = run_distributed_with(&mut dom, layouts, &opts, |env| {
        for _ in 0..iters {
            run_loop(env, &case.bump_loop)?;
            run_chain(env, &case.chain)?;
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    let bits = bits_of(case, &dom);
    (out.traces, bits)
}

/// Same program through the sparse-tiled chain executor.
fn run_case_tiled(
    case: &Case,
    layouts: &[RankLayout],
    fuse: FuseMode,
    threading: Threading,
    n_tiles: usize,
    iters: usize,
) -> (Vec<RankTrace>, Vec<Vec<u64>>) {
    let mut dom = case.dom.clone();
    let opts = RunOptions::default().fuse(fuse).threading(threading);
    let out = run_distributed_with(&mut dom, layouts, &opts, |env| {
        for _ in 0..iters {
            run_loop(env, &case.bump_loop)?;
            run_chain_tiled(env, &case.chain, n_tiles)?;
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    let bits = bits_of(case, &dom);
    (out.traces, bits)
}

/// Plain sequential reference (materializes `tmp`; the comparison never
/// looks at it).
fn run_seq(case: &Case, iters: usize) -> Vec<Vec<u64>> {
    let mut dom = case.dom.clone();
    for _ in 0..iters {
        seq::run_loop(&mut dom, &case.bump_loop);
        for l in &case.chain.loops {
            seq::run_loop(&mut dom, l);
        }
    }
    bits_of(case, &dom)
}

fn assert_fused(traces: &[RankTrace], elided: bool, label: &str) {
    for t in traces {
        assert!(
            t.plan.fused_pieces > 0,
            "{label}: rank {} ran no fused pieces",
            t.rank
        );
        if elided {
            assert!(
                t.plan.elided_bytes > 0,
                "{label}: rank {} elided no intermediate bytes",
                t.rank
            );
        } else {
            assert_eq!(
                t.plan.elided_bytes, 0,
                "{label}: rank {} elided bytes without scratch",
                t.rank
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fused == unfused == plain sequential, to the bit, on every
    /// lowering: direct (single), colored (1/2/4 pool threads) and
    /// tiled — with the fused runs' traces proving fusion engaged and
    /// elided intermediate traffic.
    #[test]
    fn fused_matches_unfused_bitwise(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        nparts in 2usize..4,
        n_tiles in 2usize..6,
        tet in proptest::bool::ANY,
    ) {
        let iters = 3;
        let case = build_case(nx, ny, nz, tet);
        let seq_bits = run_seq(&case, iters);
        let layouts = layouts_for(&case, nparts);

        // Unfused baseline equals the sequential reference.
        let (_, bits_off) =
            run_case(&case, &layouts, FuseMode::Off, Threading::single(), iters);
        prop_assert_eq!(&bits_off, &seq_bits, "unfused != seq");

        // Direct lowering, fused.
        let (traces, bits) =
            run_case(&case, &layouts, FuseMode::On, Threading::single(), iters);
        prop_assert_eq!(&bits, &seq_bits, "fused direct != seq");
        assert_fused(&traces, true, "direct");

        // Colored lowering, fused, 1/2/4 threads.
        for n_threads in [1usize, 2, 4] {
            let threading = Threading { n_threads, block_size: 4 };
            let (traces, bits) =
                run_case(&case, &layouts, FuseMode::On, threading, iters);
            prop_assert_eq!(&bits, &seq_bits, "fused colored @{} != seq", n_threads);
            assert_fused(&traces, true, &format!("colored @{n_threads}"));
        }

        // Tiled lowering: fused must match the unfused tiled run and the
        // sequential reference at 1/2/4 threads. (Whether a given tile
        // shape yields fusable windows is mesh-dependent; engagement is
        // pinned deterministically below.)
        let (_, bits_toff) = run_case_tiled(
            &case, &layouts, FuseMode::Off, Threading::single(), n_tiles, iters);
        prop_assert_eq!(&bits_toff, &seq_bits, "unfused tiled != seq");
        for n_threads in [1usize, 2, 4] {
            let threading = Threading { n_threads, block_size: 4 };
            let (_, bits) = run_case_tiled(
                &case, &layouts, FuseMode::On, threading, n_tiles, iters);
            prop_assert_eq!(&bits, &seq_bits, "fused tiled @{} != seq", n_threads);
        }
    }
}

/// Deterministic engagement check: on a mesh big enough for real
/// parallelism every lowering runs fused pieces with elided bytes, so
/// the property above isn't vacuously exercising the unfused fallback.
#[test]
fn fusion_engages_on_every_lowering() {
    let iters = 3;
    let case = build_case(16, 16, 2, false);
    let seq_bits = run_seq(&case, iters);
    let layouts = layouts_for(&case, 2);

    let (traces, bits) =
        run_case(&case, &layouts, FuseMode::On, Threading::single(), iters);
    assert_eq!(bits, seq_bits);
    assert_fused(&traces, true, "direct");

    let (traces, bits) =
        run_case(&case, &layouts, FuseMode::On, Threading::with_threads(4), iters);
    assert_eq!(bits, seq_bits);
    assert_fused(&traces, true, "colored");

    let (traces, bits) = run_case_tiled(
        &case, &layouts, FuseMode::On, Threading::with_threads(4), 6, iters);
    assert_eq!(bits, seq_bits);
    assert_fused(&traces, true, "tiled");
}

/// Satellite acceptance: the per-thread scratch pool reaches a fixed
/// point after warm-up — repeat fused invocations allocate nothing.
#[test]
fn fused_steady_state_allocates_nothing() {
    let case = build_case(12, 12, 2, false);
    let layouts = layouts_for(&case, 2);
    let mut dom = case.dom.clone();
    let opts = RunOptions::default()
        .fuse(FuseMode::On)
        .threading(Threading::with_threads(4));
    let out = run_distributed_with(&mut dom, &layouts, &opts, |env| {
        // Two warm-up iterations: the first materializes the fused
        // schedule, the second settles the dirty class.
        for _ in 0..2 {
            run_loop(env, &case.bump_loop)?;
            run_chain(env, &case.chain)?;
        }
        let warm = env.sched_allocs();
        for _ in 0..4 {
            run_loop(env, &case.bump_loop)?;
            run_chain(env, &case.chain)?;
        }
        assert_eq!(
            env.sched_allocs(),
            warm,
            "rank {}: scratch pool allocated at steady state",
            env.rank
        );
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    assert_fused(&out.traces, true, "steady state");
}

/// `OP2_FUSE=auto` takes the fused plan exactly when the modeled
/// memory-traffic saving beats the forfeited exchange/compute overlap:
/// a chain with elided bytes and no exchange fuses; a fusable chain
/// with nothing to elide stays unfused under `auto` yet fuses under
/// `on`.
#[test]
fn auto_fuses_only_when_profitable() {
    let iters = 3;

    // Elision + clean halos (no bump ⇒ no dirty dats ⇒ zero exchange
    // payload after the first plan) ⇒ auto fuses.
    let case = build_case(10, 8, 2, false);
    let seq_bits = {
        let mut dom = case.dom.clone();
        for _ in 0..iters {
            for l in &case.chain.loops {
                seq::run_loop(&mut dom, l);
            }
        }
        bits_of(&case, &dom)
    };
    let layouts = layouts_for(&case, 2);
    let mut dom = case.dom.clone();
    let opts = RunOptions::default().fuse(FuseMode::Auto);
    let out = run_distributed_with(&mut dom, &layouts, &opts, |env| {
        for _ in 0..iters {
            run_chain(env, &case.chain)?;
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    assert_eq!(bits_of(&case, &dom), seq_bits, "auto-fused != seq");
    assert_fused(&out.traces, true, "auto with elision");

    // Fusable but nothing elided (tmp not declared scratch): `on`
    // fuses with zero elided bytes, `auto` declines.
    let case = build_case_with(10, 8, 2, false, false);
    let seq_bits = run_seq(&case, iters);
    let layouts = layouts_for(&case, 2);

    let (traces, bits) =
        run_case(&case, &layouts, FuseMode::On, Threading::single(), iters);
    assert_eq!(bits, seq_bits, "forced fusion != seq");
    assert_fused(&traces, false, "on without scratch");

    let (traces, bits) =
        run_case(&case, &layouts, FuseMode::Auto, Threading::single(), iters);
    assert_eq!(bits, seq_bits, "auto-unfused != seq");
    for t in &traces {
        assert_eq!(
            t.plan.fused_pieces, 0,
            "rank {}: auto fused a chain with nothing to elide",
            t.rank
        );
    }
}

/// The application-level fused drivers: the mg-cfd step_factor →
/// time_step pair fuses with `adt` elided; the hydra state → jacobian
/// pair fuses without elision. Both must be bitwise identical to their
/// unfused runs.
mod apps {
    use super::*;
    use op2::hydra::{Hydra, HydraParams};
    use op2::mgcfd::{MgCfd, MgCfdParams};
    use op2::partition::{kway_partition, rib_partition};
    use op2_mesh::Csr;

    #[test]
    fn mgcfd_fused_driver_elides_adt_bitwise() {
        let params = MgCfdParams::small(8);
        let iters = 3;
        let layouts = {
            let app = MgCfd::new(params);
            let l0 = &app.levels[0];
            let graph =
                Csr::node_graph(app.dom.map(l0.ids.e2n), app.dom.set(l0.ids.nodes).size);
            let base = kway_partition(&graph, 4, 3);
            let own = derive_ownership(&app.dom, l0.ids.nodes, base, 4);
            build_layouts(&app.dom, &own, 2)
        };

        let run = |opts: RunOptions| {
            let mut app = MgCfd::new(params);
            let job = op2::mgcfd::job(&app, op2::mgcfd::Variant::FusedChain, iters);
            op2::mgcfd::run(&mut app, &layouts, &job, &opts).expect("every rank completes")
        };
        let off = run(RunOptions::default().fuse(FuseMode::Off));

        for threading in [None, Some(Threading::with_threads(4))] {
            let mut opts = RunOptions::default().fuse(FuseMode::On);
            if let Some(t) = threading {
                opts = opts.threading(t);
            }
            let on = run(opts);
            assert_eq!(
                on.rms.to_bits(),
                off.rms.to_bits(),
                "fused mg-cfd rms diverged ({:?})",
                threading
            );
            assert_fused(&on.traces, true, "mg-cfd");
        }
    }

    #[test]
    fn hydra_fused_driver_fuses_without_elision_bitwise() {
        let params = HydraParams::small(6);
        let iters = 3;
        let layouts = {
            let app = Hydra::new(params);
            let base = rib_partition(app.mesh.node_coords(), 3, 3);
            let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, 3);
            build_layouts(&app.mesh.dom, &own, 2)
        };

        let run = |fuse: FuseMode| {
            let mut app = Hydra::new(params);
            let job = op2::hydra::job(&app, op2::hydra::Variant::FusedChain, iters);
            op2::hydra::run(&mut app, &layouts, &job, &RunOptions::default().fuse(fuse))
                .expect("every rank completes")
        };
        let off = run(FuseMode::Off);
        let on = run(FuseMode::On);
        assert_eq!(
            on.norm.to_bits(),
            off.norm.to_bits(),
            "fused hydra norm diverged"
        );
        assert_fused(&on.traces, false, "hydra");
    }
}

/// Chaos: crashes inside a fused program recover bitwise (gated like
/// `tests/recovery.rs` behind the default-on `chaos` feature).
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use op2::runtime::{
        run_supervised, Boundary, BoundaryKind, FaultPlan, FaultSpec, SuperviseOptions,
    };

    /// Kill rank 1 at every chain boundary the fused program crosses
    /// (the fused executor checkpoints at chain granularity), and once
    /// mid-program at a loop boundary, at 1 and 4 threads. Every
    /// variant must roll back exactly once and replay to results
    /// bitwise equal to the fault-free reference — including the
    /// elided dat's checkpointed bytes, which fusion never touches.
    #[test]
    fn crash_in_fused_program_recovers_bitwise() {
        let iters = 3;
        let sites: Vec<(BoundaryKind, u64)> = (0..iters as u64)
            .map(|k| (BoundaryKind::Chain, k))
            .chain([(BoundaryKind::Loop, 1)])
            .collect();
        for n_threads in [1usize, 4] {
            for &(kind, k) in &sites {
                let case = build_case(10, 8, 2, false);
                let seq_bits = run_seq(&case, iters);
                let layouts = layouts_for(&case, 4);
                let spec = FaultSpec::default()
                    .with_crash_site(1, Boundary::new(kind, k));
                let run = RunOptions::with_faults(FaultPlan::new(spec))
                    .with_threads(n_threads)
                    .checkpoint_every(1)
                    .fuse(FuseMode::On);
                let mut dom = case.dom.clone();
                let out = run_supervised(
                    &mut dom,
                    &layouts,
                    &SuperviseOptions::new(run),
                    |env| {
                        for _ in 0..iters {
                            run_loop(env, &case.bump_loop)?;
                            run_chain(env, &case.chain)?;
                        }
                        Ok(())
                    },
                )
                .unwrap_or_else(|e| {
                    panic!("threads {n_threads}, {kind:?} {k}: supervision failed: {e}")
                });
                assert!(out.all_ok(), "failures: {:?}", out.failures());
                assert_eq!(
                    bits_of(&case, &dom),
                    seq_bits,
                    "threads {n_threads}, {kind:?} boundary {k}: diverged from reference"
                );
                assert_fused(&out.traces, true, &format!("{kind:?} {k}"));
                for t in &out.traces {
                    assert_eq!(t.recovery.attempts, 2, "rank {}", t.rank);
                    assert_eq!(t.recovery.rollbacks, 1, "rank {}", t.rank);
                    assert!(t.recovery.checkpoints > 0, "rank {}", t.rank);
                    assert_eq!(t.recovery.escalations, 0, "rank {}", t.rank);
                }
            }
        }
    }
}
