//! Dataflow-executor equivalence properties.
//!
//! `ExecMode::Dataflow` replaces the level-synchronous drain with
//! per-chunk dependency counters over the conflict DAG: a chunk fires
//! the moment its conflicting predecessors are done, spanning level
//! boundaries, with owner-first deques and steal-from-richest work
//! stealing. The contract (DESIGN.md §16) is bitwise identity with the
//! sequential walk at any thread count on every lowering, because the
//! DAG edges cover every conflicting pair in sequential order — so
//! `OP_INC` merges at a location always apply in the same order the
//! sequential loop would.
//!
//! Pinned here, on randomly generated 2-D quad and 3-D tet meshes:
//!
//! 1. **Dataflow == levels == sequential** to the bit at 1/2/4 pool
//!    threads, across the direct and colored loop lowerings (proptest).
//!    An `Inc`-only edge sweep lowers owner-computes — one level, which
//!    always drains leveled — so the sweep also comes as an indirect
//!    `Rw`, which only the colored fallback admits and whose ladder of
//!    levels the DAG replaces; those cases must lower at least one
//!    multi-level schedule, or the DAG drain would go untested.
//! 2. **Engagement**: on a mesh big enough for real parallelism the
//!    trace records dataflow drains with fires covering every chunk —
//!    the property above is not vacuously running the levels fallback.
//! 3. **Steady state allocates nothing**: after warm-up the steal
//!    queues and dependency counters never grow again.
//! 4. **Chaos**: a rank crash mid-chain under `ExecMode::Dataflow`
//!    rolls back and replays to bitwise-identical results.
//!
//! All kernels keep values dyadic rationals so floating-point addition
//! is exact and the sequential reference is bit-comparable.

use op2::core::{seq, AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2::mesh::{Quad2D, Tet3D};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::run_chain;
use op2::runtime::{run_distributed_with, ExecMode, RankTrace, RunOptions, Threading};
use proptest::prelude::*;

/// Indirect edge sweep: dyadic flux of the endpoint difference,
/// incremented into both endpoints — the conflicts that force colors
/// (levels) and DAG edges.
fn flux(args: &Args<'_>) {
    let d = (args.get(0, 0) - args.get(1, 0)) * 0.5;
    args.inc(2, 0, d * 0.25);
    args.inc(3, 0, -d * 0.25);
}

/// [`flux`] with the endpoints declared `Rw`: the same arithmetic, but
/// order-dependent by its descriptors, so it lowers to colored blocks.
fn flux_rw(args: &Args<'_>) {
    let d = (args.get(0, 0) - args.get(1, 0)) * 0.5;
    args.set(2, 0, args.get(2, 0) + d * 0.25);
    args.set(3, 0, args.get(3, 0) - d * 0.25);
}

/// Direct node relaxation between sweeps; its chunks depend on every
/// Inc chunk covering their nodes, so the DAG crosses level bounds.
fn relax(args: &Args<'_>) {
    args.set(0, 0, args.get(0, 0) * 0.5 + args.get(1, 0) * 0.25);
    args.set(1, 0, 0.0);
}

struct Case {
    dom: Domain,
    nodes: SetId,
    coords: DatId,
    cdim: usize,
    dats: [DatId; 2],
    chain: ChainSpec,
    sweeps: usize,
}

/// `[flux, relax] × sweeps` over a quad or tet mesh: alternating
/// indirect-Inc (or, with `rw`, indirect-`Rw`) and direct levels, the
/// shape the dataflow DAG threads through.
fn build_case(nx: usize, ny: usize, nz: usize, sweeps: usize, tet: bool, rw: bool) -> Case {
    let (mut dom, nodes, edges, e2n, coords, cdim) = if tet {
        let m = Tet3D::generate(nx.min(6), ny.min(6), nz);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 3)
    } else {
        let m = Quad2D::generate(nx, ny);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 2)
    };
    let n = dom.set(nodes).size;
    let s0: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 17) as f64).collect();
    let val = dom.decl_dat("val", nodes, 1, s0);
    let res = dom.decl_dat_zeros("res", nodes, 1);
    let (mode, kernel) = if rw {
        (AccessMode::Rw, flux_rw as fn(&Args<'_>))
    } else {
        (AccessMode::Inc, flux as fn(&Args<'_>))
    };
    let mut loops = Vec::with_capacity(2 * sweeps);
    for _ in 0..sweeps {
        loops.push(LoopSpec::new(
            "flux",
            edges,
            vec![
                Arg::dat_indirect(val, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(val, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(res, e2n, 0, mode),
                Arg::dat_indirect(res, e2n, 1, mode),
            ],
            kernel,
        ));
        loops.push(LoopSpec::new(
            "relax",
            nodes,
            vec![
                Arg::dat_direct(val, AccessMode::Rw),
                Arg::dat_direct(res, AccessMode::Rw),
            ],
            relax,
        ));
    }
    let chain = ChainSpec::new("dataflow_chain", loops, None, &[]).unwrap();
    Case {
        dom,
        nodes,
        coords,
        cdim,
        dats: [val, res],
        chain,
        sweeps,
    }
}

fn layouts_for(case: &Case, nparts: usize) -> Vec<RankLayout> {
    let base = rcb_partition(&case.dom.dat(case.coords).data, case.cdim, nparts);
    let own = derive_ownership(&case.dom, case.nodes, base, nparts);
    // The read-write sweeps ladder the chain's halo extent.
    build_layouts(&case.dom, &own, 2 * case.sweeps)
}

fn bits_of(case: &Case, dom: &Domain) -> Vec<Vec<u64>> {
    case.dats
        .iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn run_seq(case: &Case, iters: usize) -> Vec<Vec<u64>> {
    let mut dom = case.dom.clone();
    for _ in 0..iters {
        for l in &case.chain.loops {
            seq::run_loop(&mut dom, l);
        }
    }
    bits_of(case, &dom)
}

/// `iters` chain invocations under `exec`/`threading`, through the
/// strict chain entry.
fn run_case(
    case: &Case,
    layouts: &[RankLayout],
    exec: ExecMode,
    threading: Threading,
    iters: usize,
) -> (Vec<RankTrace>, Vec<Vec<u64>>) {
    let mut dom = case.dom.clone();
    let opts = RunOptions::default().exec(exec).threading(threading);
    let out = run_distributed_with(&mut dom, layouts, &opts, |env| {
        for _ in 0..iters {
            run_chain(env, &case.chain)?;
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    let bits = bits_of(case, &dom);
    (out.traces, bits)
}

fn dataflow_execs(traces: &[RankTrace]) -> u64 {
    traces
        .iter()
        .flat_map(|t| t.threads.iter())
        .filter(|r| r.dataflow)
        .count() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Dataflow == levels == plain sequential, to the bit, on every
    /// lowering: direct (single thread), owner-computes and colored
    /// (1/2/4 pool threads). An `Rw` sweep must lower to at least one
    /// multi-level schedule: those are what the DAG drain runs.
    #[test]
    fn dataflow_matches_sequential_bitwise(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        sweeps in 2usize..4,
        nparts in 2usize..4,
        tet in proptest::bool::ANY,
        rw in proptest::bool::ANY,
    ) {
        let iters = 3;
        let case = build_case(nx, ny, nz, sweeps, tet, rw);
        let seq_bits = run_seq(&case, iters);
        let layouts = layouts_for(&case, nparts);

        // Levels baseline equals the sequential reference.
        let (_, bits_lv) = run_case(
            &case, &layouts, ExecMode::Levels, Threading::with_threads(4), iters);
        prop_assert_eq!(&bits_lv, &seq_bits, "levels != seq");

        // Dataflow across thread counts.
        let mut multi_level = false;
        for n_threads in [1usize, 2, 4] {
            let threading = Threading { n_threads, block_size: 4 };
            let (traces, bits) = run_case(
                &case, &layouts, ExecMode::Dataflow, threading, iters);
            prop_assert_eq!(&bits, &seq_bits, "dataflow @{} != seq", n_threads);
            multi_level |= traces.iter().flat_map(|t| &t.threads).any(|r| r.n_levels > 1);
        }
        if rw {
            prop_assert!(multi_level, "no multi-level schedule reached the dataflow drain");
        }
    }
}

/// Deterministic engagement check: on a mesh big enough for real
/// parallelism the dataflow drain actually runs (trace records it),
/// fires every chunk exactly once in aggregate, and reports a critical
/// path no deeper than the barrier count it replaced.
#[test]
fn dataflow_engages_and_fires_every_chunk() {
    let iters = 3;
    let case = build_case(16, 16, 2, 3, false, true);
    let seq_bits = run_seq(&case, iters);
    let layouts = layouts_for(&case, 2);
    let threading = Threading { n_threads: 4, block_size: 8 };

    let (traces, bits) = run_case(
        &case, &layouts, ExecMode::Dataflow, threading, iters);
    assert_eq!(bits, seq_bits);
    assert!(dataflow_execs(&traces) > 0, "no dataflow drain recorded");
    for t in &traces {
        for r in t.threads.iter().filter(|r| r.dataflow) {
            let fires: u64 = r.fires.iter().sum();
            assert_eq!(
                fires, r.n_chunks as u64,
                "rank {}: fires != chunks in `{}`", t.rank, r.name
            );
            assert!(
                r.crit_path <= r.n_levels * 100,
                "rank {}: absurd critical path", t.rank
            );
            assert!(r.crit_path >= 1, "rank {}: empty critical path", t.rank);
        }
    }
}

/// Satellite acceptance: the steal queues and dependency counters
/// reach a fixed point after warm-up — repeat dataflow drains allocate
/// nothing.
#[test]
fn dataflow_steady_state_allocates_nothing() {
    let case = build_case(12, 12, 2, 3, false, true);
    let layouts = layouts_for(&case, 2);
    let mut dom = case.dom.clone();
    let opts = RunOptions::default()
        .exec(ExecMode::Dataflow)
        .threading(Threading { n_threads: 4, block_size: 8 });
    let out = run_distributed_with(&mut dom, &layouts, &opts, |env| {
        // Two warm-up invocations: the first builds plan + DAG and
        // sizes the scratch, the second settles the dirty class.
        for _ in 0..2 {
            run_chain(env, &case.chain)?;
        }
        let warm = env.threads.dataflow.allocs();
        for _ in 0..4 {
            run_chain(env, &case.chain)?;
        }
        assert_eq!(
            env.threads.dataflow.allocs(),
            warm,
            "rank {}: steal queues allocated at steady state",
            env.rank
        );
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    assert!(dataflow_execs(&out.traces) > 0, "no dataflow drain recorded");
}

/// Chaos: crashes under the dataflow executor recover bitwise (gated
/// like `tests/recovery.rs` behind the default-on `chaos` feature).
#[cfg(feature = "chaos")]
mod chaos {
    use super::*;
    use op2::runtime::{
        run_supervised, Boundary, BoundaryKind, FaultPlan, FaultSpec, SuperviseOptions,
    };

    /// The loop-boundary crash site needs a standalone loop between
    /// the chains; a trivial dyadic bump plays that role.
    fn bump(args: &Args<'_>) {
        args.set(0, 0, args.get(0, 0) + 1.0);
    }

    /// Kill rank 1 at a chain boundary and once mid-program at a loop
    /// boundary while `ExecMode::Dataflow` is live, at 1 and 4 threads.
    /// Every variant must roll back exactly once and replay to results
    /// bitwise equal to the sequential reference.
    #[test]
    fn crash_under_dataflow_recovers_bitwise() {
        let iters = 3;
        let sites = [(BoundaryKind::Chain, 1u64), (BoundaryKind::Loop, 1)];
        for n_threads in [1usize, 4] {
            for &(kind, k) in &sites {
                let case = build_case(10, 8, 2, 2, false, true);
                let bump_loop = LoopSpec::new(
                    "bump",
                    case.nodes,
                    vec![Arg::dat_direct(case.dats[0], AccessMode::Rw)],
                    bump,
                );
                let seq_bits = {
                    let mut d = case.dom.clone();
                    for _ in 0..iters {
                        seq::run_loop(&mut d, &bump_loop);
                        for l in &case.chain.loops {
                            seq::run_loop(&mut d, l);
                        }
                    }
                    bits_of(&case, &d)
                };
                let layouts = layouts_for(&case, 4);
                let spec = FaultSpec::default()
                    .with_crash_site(1, Boundary::new(kind, k));
                let run = RunOptions::with_faults(FaultPlan::new(spec))
                    .with_threads(n_threads)
                    .checkpoint_every(1)
                    .exec(ExecMode::Dataflow);
                let mut dom = case.dom.clone();
                let out = run_supervised(
                    &mut dom,
                    &layouts,
                    &SuperviseOptions::new(run),
                    |env| {
                        for _ in 0..iters {
                            op2::runtime::exec::run_loop(env, &bump_loop)?;
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

/// The application-level drivers: mg-cfd and hydra under
/// `ExecMode::Dataflow` must match their level-synchronous runs to the
/// bit.
mod apps {
    use super::*;
    use op2::hydra::{ExtentMode, Hydra, HydraParams};
    use op2::mgcfd::{MgCfd, MgCfdParams};

    #[test]
    fn mgcfd_dataflow_driver_bitwise() {
        let params = MgCfdParams::small(8);
        let iters = 3;
        let layouts = {
            let app = MgCfd::new(params);
            let coords = &app.dom.dat(app.levels[0].ids.coords).data;
            let base = rcb_partition(coords, 3, 4);
            let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 4);
            build_layouts(&app.dom, &own, 2)
        };
        let run = |opts: RunOptions| {
            let mut app = MgCfd::new(params);
            let job = op2::mgcfd::job(&app, op2::mgcfd::Variant::Ca, iters);
            op2::mgcfd::run(&mut app, &layouts, &job, &opts).expect("every rank completes")
        };
        let base = run(RunOptions::default());
        let out = run(RunOptions::default().with_threads(4).exec(ExecMode::Dataflow));
        assert_eq!(out.rms.to_bits(), base.rms.to_bits(), "mg-cfd dataflow rms diverged");
    }

    #[test]
    fn hydra_dataflow_driver_bitwise() {
        let params = HydraParams::small(6);
        let iters = 2;
        let layouts = {
            let app = Hydra::new(params);
            let base = rcb_partition(app.mesh.node_coords(), 3, 3);
            let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, 3);
            // Safe-mode extents ladder to 5 on the periodic chains.
            build_layouts(&app.mesh.dom, &own, 6)
        };
        let run = |opts: RunOptions| {
            let mut app = Hydra::new(params);
            let job = op2::hydra::job(&app, op2::hydra::Variant::ca(ExtentMode::Safe), iters);
            op2::hydra::run(&mut app, &layouts, &job, &opts).expect("every rank completes")
        };
        let base = run(RunOptions::default());
        let out = run(RunOptions::default().with_threads(4).exec(ExecMode::Dataflow));
        assert_eq!(
            out.norm.to_bits(),
            base.norm.to_bits(),
            "hydra dataflow norm diverged"
        );
    }
}
