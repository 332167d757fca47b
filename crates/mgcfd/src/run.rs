//! The driver surface: the hand-written sequential reference
//! ([`run_sequential`]), the one program builder ([`job`]) and the one
//! distributed entry point ([`run`]).
//!
//! Everything else is the caller's composition: threading, drain policy,
//! pinning, fusion and faults through [`RunOptions`]; tiled or tuned
//! chain dispatch through [`Job::dispatch`]; supervision, rebalancing
//! and the resident service by handing [`job`]'s program to
//! [`op2_runtime::run_job_supervised`],
//! [`op2_runtime::run_job_rebalanced`] or
//! [`op2_runtime::Service::submit`] and folding the result with
//! [`RunOutcome::from_job`].

use crate::app::{MgCfd, Step};
use op2_core::seq;
use op2_partition::RankLayout;
use op2_runtime::{run_job, Job, JobRun, JobStep, RankTrace, RunOptions, RuntimeError};

/// Outcome of a run: final RMS residual plus (for distributed runs) the
/// per-rank traces.
#[derive(Debug)]
pub struct RunOutcome {
    /// √(Σ q² / n) over the finest nodes after the last iteration.
    pub rms: f64,
    /// Per-rank traces (empty for sequential runs).
    pub traces: Vec<RankTrace>,
}

impl RunOutcome {
    /// Fold a hosted run of one of [`job`]'s programs (whose single
    /// finish step is the RMS reduction) into an outcome.
    pub fn from_job(app: &MgCfd, run: JobRun) -> Self {
        let n_fine = app.dom.set(app.levels[0].ids.nodes).size as f64;
        RunOutcome {
            rms: (run.gbls[0][0][0] / n_fine).sqrt(),
            traces: run.traces,
        }
    }
}

/// Run `iters` time-marching iterations sequentially (the reference all
/// back-ends are tested against). Hand-written over `seq::run_loop`, and
/// it reduces the residual every iteration — the distributed programs
/// reduce once, as their finish step; the RMS loop only reads, so the
/// two agree, and every test comparing [`run`] against this function is
/// the check that they do.
pub fn run_sequential(app: &mut MgCfd, iters: usize) -> RunOutcome {
    let init: Vec<_> = (0..app.params.levels).map(|l| app.init_loop(l)).collect();
    let iteration = app.iteration(false);
    let rms_spec = app.rms_loop();
    let n_fine = app.dom.set(app.levels[0].ids.nodes).size as f64;
    for l in &init {
        seq::run_loop(&mut app.dom, l);
    }
    let mut rms = 0.0;
    for _ in 0..iters {
        for step in &iteration {
            match step {
                Step::Loop(l) => {
                    seq::run_loop(&mut app.dom, l);
                }
                Step::Chain(c) => {
                    for l in &c.loops {
                        seq::run_loop(&mut app.dom, l);
                    }
                }
            }
        }
        let r = seq::run_loop(&mut app.dom, &rms_spec);
        rms = (r.gbls[0][0] / n_fine).sqrt();
    }
    RunOutcome {
        rms,
        traces: Vec::new(),
    }
}

/// Which program [`job`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The standard OP2 back-end: the synthetic chain flattened into
    /// Alg 1 loops.
    Op2,
    /// The CA back-end: Alg 2 for the synthetic chain, Alg 1 for
    /// everything else — the paper's mixed execution.
    Ca,
    /// Only the fusable flux → step-factor → time-step chain
    /// ([`MgCfd::fused_chain`]) per iteration — the fusion fixture.
    /// Under `FuseMode::On` its two node-direct loops interleave per
    /// element with `adt` elided into per-worker scratch.
    FusedChain,
}

impl From<Step> for JobStep {
    fn from(s: Step) -> JobStep {
        match s {
            Step::Loop(l) => JobStep::Loop(l),
            Step::Chain(c) => JobStep::Chain(c),
        }
    }
}

/// Describe `iters` iterations of this app as a [`Job`]: the per-level
/// init loops as setup, one iteration of `variant` as the repeated step
/// list, and the (pure, reduction-only) RMS loop as the finish step.
pub fn job(app: &MgCfd, variant: Variant, iters: usize) -> Job {
    let (name, steps) = match variant {
        Variant::Op2 => ("mgcfd-op2", app.iteration(false)),
        Variant::Ca => ("mgcfd-ca", app.iteration(true)),
        Variant::FusedChain => (
            "mgcfd-fused",
            vec![Step::Chain(app.fused_chain(0).expect("fused chain is valid"))],
        ),
    };
    Job::new(name, steps.into_iter().map(JobStep::from).collect(), iters)
        .setup(
            (0..app.params.levels)
                .map(|l| JobStep::Loop(app.init_loop(l)))
                .collect(),
        )
        .finish(vec![JobStep::Loop(app.rms_loop())])
}

/// Run one of [`job`]'s programs distributed over `layouts`. `Err` if
/// *any* rank failed — the first failure in rank order, typed.
pub fn run(
    app: &mut MgCfd,
    layouts: &[RankLayout],
    job: &Job,
    opts: &RunOptions,
) -> Result<RunOutcome, RuntimeError> {
    let out = run_job(&mut app.dom, layouts, job, opts)?;
    Ok(RunOutcome::from_job(app, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::MgCfdParams;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition};
    use op2_runtime::{ChainDispatch, Service, Threading, Tuner};

    /// Build `variant`'s job with the given chain dispatch and run it.
    fn go(
        app: &mut MgCfd,
        layouts: &[RankLayout],
        variant: Variant,
        iters: usize,
        dispatch: ChainDispatch,
        opts: &RunOptions,
    ) -> RunOutcome {
        let job = job(app, variant, iters).dispatch(dispatch);
        run(app, layouts, &job, opts).expect("every rank completes")
    }

    fn run_op2(app: &mut MgCfd, layouts: &[RankLayout], iters: usize) -> RunOutcome {
        let opts = RunOptions::default();
        go(app, layouts, Variant::Op2, iters, ChainDispatch::Planned, &opts)
    }

    fn run_ca(app: &mut MgCfd, layouts: &[RankLayout], iters: usize) -> RunOutcome {
        let opts = RunOptions::default();
        go(app, layouts, Variant::Ca, iters, ChainDispatch::Planned, &opts)
    }

    fn run_ca_tiled(
        app: &mut MgCfd,
        layouts: &[RankLayout],
        iters: usize,
        n_tiles: usize,
        opts: &RunOptions,
    ) -> RunOutcome {
        go(app, layouts, Variant::Ca, iters, ChainDispatch::Tiled(n_tiles), opts)
    }

    fn layouts_for(app: &MgCfd, nparts: usize) -> Vec<RankLayout> {
        let coords = &app.dom.dat(app.levels[0].ids.coords).data;
        let base = rcb_partition(coords, 3, nparts);
        let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, nparts);
        build_layouts(&app.dom, &own, 2)
    }

    fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let scale = x.abs().max(y.abs()).max(1e-30);
                (x - y).abs() / scale
            })
            .fold(0.0, f64::max)
    }

    /// All three back-ends agree on the final flow state within
    /// floating-point reassociation noise.
    #[test]
    fn op2_and_ca_match_sequential() {
        let params = MgCfdParams::small(7);
        let iters = 3;

        let mut seq_app = MgCfd::new(params);
        let seq_out = run_sequential(&mut seq_app, iters);

        let mut op2_app = MgCfd::new(params);
        let l = layouts_for(&op2_app, 4);
        let op2_out = run_op2(&mut op2_app, &l, iters);

        let mut ca_app = MgCfd::new(params);
        let l2 = layouts_for(&ca_app, 4);
        let ca_out = run_ca(&mut ca_app, &l2, iters);

        for dat in [seq_app.levels[0].q, seq_app.dres, seq_app.dflux] {
            let e1 = max_rel_err(&seq_app.dom.dat(dat).data, &op2_app.dom.dat(dat).data);
            let e2 = max_rel_err(&seq_app.dom.dat(dat).data, &ca_app.dom.dat(dat).data);
            assert!(e1 < 1e-11, "OP2 diverged on {}: {e1}", seq_app.dom.dat(dat).name);
            assert!(e2 < 1e-11, "CA diverged on {}: {e2}", seq_app.dom.dat(dat).name);
        }
        assert!((seq_out.rms - op2_out.rms).abs() <= 1e-11 * seq_out.rms.abs().max(1.0));
        assert!((seq_out.rms - ca_out.rms).abs() <= 1e-11 * seq_out.rms.abs().max(1.0));
        assert!(seq_out.rms.is_finite() && seq_out.rms > 0.0);
    }

    /// CA sends fewer, larger messages than the OP2 baseline for the
    /// synthetic chain — the paper's central measurement.
    #[test]
    fn ca_reduces_message_count() {
        let mut params = MgCfdParams::small(7);
        params.nchains = 8; // 16-loop chain
        let iters = 2;

        let mut op2_app = MgCfd::new(params);
        let l = layouts_for(&op2_app, 4);
        let op2_out = run_op2(&mut op2_app, &l, iters);

        let mut ca_app = MgCfd::new(params);
        let l2 = layouts_for(&ca_app, 4);
        let ca_out = run_ca(&mut ca_app, &l2, iters);

        #[allow(clippy::needless_range_loop)]
        for rank in 0..4 {
            // Messages attributable to the synthetic loops:
            let op2_msgs: usize = op2_out.traces[rank]
                .loops
                .iter()
                .filter(|r| r.name == "update" || r.name == "edge_flux")
                .map(|r| r.exch.n_msgs)
                .sum();
            let ca_msgs: usize = ca_out.traces[rank]
                .chains
                .iter()
                .map(|c| c.exch.n_msgs)
                .sum();
            if l[rank].neighbors.is_empty() {
                continue;
            }
            assert!(
                ca_msgs < op2_msgs,
                "rank {rank}: CA {ca_msgs} msgs vs OP2 {op2_msgs}"
            );
        }
    }

    /// Both CA levels combined (distributed chain + intra-rank tiles)
    /// still match the reference.
    #[test]
    fn tiled_ca_matches_sequential() {
        let params = MgCfdParams::small(7);
        let iters = 2;
        let mut seq_app = MgCfd::new(params);
        let reference = run_sequential(&mut seq_app, iters);
        for n_tiles in [1, 4] {
            let mut app = MgCfd::new(params);
            let layouts = layouts_for(&app, 4);
            let out = run_ca_tiled(&mut app, &layouts, iters, n_tiles, &RunOptions::default());
            let err = (reference.rms - out.rms).abs() / reference.rms.abs().max(1e-30);
            assert!(err < 1e-10, "n_tiles {n_tiles}: {err}");
        }
    }

    /// The adaptive back-end matches the sequential reference and makes
    /// the identical decision on every rank.
    #[test]
    fn tuned_matches_sequential_with_identical_decisions() {
        let params = MgCfdParams::small(7);
        let iters = 3;
        let mut seq_app = MgCfd::new(params);
        let reference = run_sequential(&mut seq_app, iters);

        let mut app = MgCfd::new(params);
        let layouts = layouts_for(&app, 4);
        let tuned = ChainDispatch::Tuned {
            mach: op2_model::Machine::archer2(),
            fixed_g: Some(5e-8),
        };
        let out = go(&mut app, &layouts, Variant::Ca, iters, tuned, &RunOptions::default());
        let err = (reference.rms - out.rms).abs() / reference.rms.abs().max(1e-30);
        assert!(err < 1e-10, "adaptive back-end diverged: {err}");

        // Everything but the per-rank measured wall clock is rank-agreed.
        let agreed = |t: &RankTrace| -> Vec<_> {
            t.tuner
                .iter()
                .map(|r| op2_runtime::TunerRec {
                    t_measured_ns: 0,
                    ..r.clone()
                })
                .collect()
        };
        let first = agreed(&out.traces[0]);
        assert!(!first.is_empty(), "calibration must record a decision");
        for t in &out.traces[1..] {
            assert_eq!(agreed(t), first, "rank {} decided differently", t.rank);
        }
    }

    /// Calibration measures wall-clock, which a journaled replay cannot
    /// reproduce: the supervised hosts refuse a tuned job, typed.
    #[test]
    fn tuned_job_is_rejected_under_supervision() {
        let mut app = MgCfd::new(MgCfdParams::small(6));
        let layouts = layouts_for(&app, 2);
        let tuned = job(&app, Variant::Ca, 1).dispatch(ChainDispatch::Tuned {
            mach: op2_model::Machine::archer2(),
            fixed_g: None,
        });
        let sopts = op2_runtime::SuperviseOptions::default();
        let out = op2_runtime::run_job_supervised(&mut app.dom, &layouts, &tuned, &sopts);
        assert!(matches!(out, Err(RuntimeError::Core(_))), "{out:?}");
    }

    /// Acceptance criterion: on the synthetic `update`/`edge_flux` chain
    /// fixture, the tuner's online (allreduced, layout-derived) decision
    /// matches `profit::classify` evaluated offline on the same
    /// partition's `HaloStats` — and repeat dispatches hit the plan
    /// cache when the chain executor is chosen.
    #[test]
    fn tuner_decision_matches_offline_classify() {
        use op2_model::{chain_components, classify, shape_from_sigs, Machine};
        use op2_partition::collect_stats;
        use op2_runtime::Backend;

        const G: f64 = 5e-8;
        let mut params = MgCfdParams::small(7);
        params.nchains = 4;
        let mut app = MgCfd::new(params);
        let chain = app
            .iteration(true)
            .into_iter()
            .find_map(|s| match s {
                Step::Chain(c) => Some(c),
                _ => None,
            })
            .expect("the synthetic chain");

        let coords = &app.dom.dat(app.levels[0].ids.coords).data;
        let base = rcb_partition(coords, 3, 4);
        let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 4);
        let stats = collect_stats(&app.dom, &own, 2, 2);
        let layouts = build_layouts(&app.dom, &own, 2);

        // Offline judgement, same entry state (chain dats dirty).
        let g = vec![G; chain.len()];
        let shape = shape_from_sigs(
            &app.dom,
            &chain.name,
            &chain.sigs(),
            &chain.halo_ext,
            &g,
            &|_| 0,
        );
        let prof = classify(&Machine::archer2(), &chain_components(&stats, &shape));
        let expected = if prof.enable_ca {
            Backend::Ca
        } else {
            Backend::Op2
        };

        let chain_ref = &chain;
        let out = op2_runtime::run_distributed(&mut app.dom, &layouts, |env| {
            let mut tuner = Tuner::new(Machine::archer2()).with_fixed_g(G);
            for sig in chain_ref.sigs() {
                for d in sig.dats() {
                    env.valid[d.idx()] = 0;
                }
            }
            for _ in 0..4 {
                tuner.run_chain(env, chain_ref)?;
            }
            Ok(tuner.decision(chain_ref).expect("calibrated"))
        });
        for t in &out.traces {
            assert_eq!(t.tuner.len(), 1);
            assert_eq!(t.tuner[0].backend, expected, "rank {}", t.rank);
            assert_eq!(
                t.tuner[0].class,
                prof.class.into(),
                "rank {} class mismatch",
                t.rank
            );
            if expected == Backend::Ca {
                assert!(
                    t.plan.hits >= 1,
                    "rank {}: repeat dispatches must hit the plan cache, {:?}",
                    t.rank,
                    t.plan
                );
            }
        }
        for decided in out.unwrap_results() {
            assert_eq!(decided, expected);
        }
    }

    /// Acceptance criterion of the threaded subsystem on the full app:
    /// the CA back-end with 2 and 4 pool threads per rank is **bitwise
    /// identical** to the single-threaded CA run — every dat, every bit,
    /// thanks to the order-preserving block coloring. A tiny block size
    /// forces real multi-color schedules.
    #[test]
    fn threaded_ca_bitwise_equals_single_threaded() {
        let params = MgCfdParams::small(7);
        let iters = 2;

        let mut ref_app = MgCfd::new(params);
        let l0 = layouts_for(&ref_app, 4);
        let reference = run_ca(&mut ref_app, &l0, iters);

        for n_threads in [2usize, 4] {
            let mut app = MgCfd::new(params);
            let layouts = layouts_for(&app, 4);
            let threading = Threading { n_threads, block_size: 16 };
            let opts = RunOptions::default().threading(threading);
            let out = go(&mut app, &layouts, Variant::Ca, iters, ChainDispatch::Planned, &opts);
            assert_eq!(
                out.rms.to_bits(),
                reference.rms.to_bits(),
                "{n_threads} threads: rms diverged"
            );
            for d in 0..app.dom.n_dats() {
                let id = op2_core::DatId(d as u32);
                let got = &app.dom.dat(id).data;
                let want = &ref_app.dom.dat(id).data;
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{n_threads} threads: dat `{}` diverged",
                    app.dom.dat(id).name
                );
            }
            // The threaded executor actually ran (trace proof), and its
            // schedule metadata is rank-deterministic.
            for t in &out.traces {
                assert!(
                    !t.threads.is_empty(),
                    "rank {}: no threaded executions recorded",
                    t.rank
                );
                for rec in &t.threads {
                    assert_eq!(rec.n_threads, n_threads);
                    assert_eq!(rec.level_ns.len(), rec.n_levels);
                }
            }
        }
    }

    /// The threaded tiled executor on the full app: CA + sparse tiling
    /// with 2 and 4 pool threads per rank is **bitwise identical** to
    /// the sequential tiled run — same-level tiles are provably
    /// conflict-free and conflicting tiles stay level-ordered, so thread
    /// count is invisible in the results. The trace must prove the
    /// pool actually ran tiled schedules.
    #[test]
    fn tiled_threaded_bitwise_equals_tiled_sequential() {
        let params = MgCfdParams::small(10);
        let (iters, n_tiles) = (2, 8);

        let mut ref_app = MgCfd::new(params);
        let l0 = layouts_for(&ref_app, 2);
        let reference = run_ca_tiled(&mut ref_app, &l0, iters, n_tiles, &RunOptions::default());

        for n_threads in [2usize, 4] {
            let mut app = MgCfd::new(params);
            let layouts = layouts_for(&app, 2);
            let opts = RunOptions::default().with_threads(n_threads);
            let out = run_ca_tiled(&mut app, &layouts, iters, n_tiles, &opts);
            assert_eq!(
                out.rms.to_bits(),
                reference.rms.to_bits(),
                "{n_threads} threads: rms diverged"
            );
            for d in 0..app.dom.n_dats() {
                let id = op2_core::DatId(d as u32);
                assert_eq!(
                    app.dom.dat(id).data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    ref_app.dom.dat(id).data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{n_threads} threads: dat `{}` diverged",
                    app.dom.dat(id).name
                );
            }
            for t in &out.traces {
                let tiled: Vec<_> = t
                    .threads
                    .iter()
                    .filter(|r| r.kind == op2_runtime::SchedKind::Tiled)
                    .collect();
                assert!(
                    !tiled.is_empty(),
                    "rank {}: no tiled pool executions recorded",
                    t.rank
                );
                for rec in tiled {
                    assert_eq!(rec.n_threads, n_threads);
                    assert_eq!(rec.level_ns.len(), rec.n_levels);
                    assert_eq!(rec.block_size, 0, "tiled schedules chunk by tile");
                }
            }
        }
    }

    /// Resident-service execution matches the standalone CA run bitwise, and the
    /// second job on the same mesh is fully warm: zero chain
    /// inspections (carried plan-cache hits instead) and zero
    /// payload-pool allocations (carried buffers).
    #[test]
    fn service_jobs_match_run_ca_and_warm_up() {
        let params = MgCfdParams::small(7);
        let iters = 2;

        let mut ref_app = MgCfd::new(params);
        let l0 = layouts_for(&ref_app, 4);
        let reference = run_ca(&mut ref_app, &l0, iters);

        let app = MgCfd::new(params);
        let layouts = layouts_for(&app, 4);
        let svc = Service::new(op2_runtime::ServiceConfig::default());
        let mesh = svc.register_mesh(app.dom.clone(), layouts);
        let ca = job(&app, Variant::Ca, iters);
        let submit = || RunOutcome::from_job(&app, svc.submit(mesh, &ca).unwrap().into());

        let cold = submit();
        let warm = submit();
        let steady = submit();
        assert_eq!(cold.rms.to_bits(), reference.rms.to_bits());
        assert_eq!(warm.rms.to_bits(), reference.rms.to_bits());
        assert_eq!(steady.rms.to_bits(), reference.rms.to_bits());

        // Second job: zero inspection — every plan from the carried cache.
        let mut plan = op2_runtime::PlanStats::default();
        for t in &warm.traces {
            plan.add(&t.plan);
        }
        assert_eq!(plan.misses, 0, "warm job must skip inspection: {plan:?}");
        assert!(plan.hits >= 1, "expected plan-cache hits: {plan:?}");

        // Steady state (pair pools rebalanced over the first jobs): zero
        // payload heap allocations.
        let payload_allocs: u64 = steady.traces.iter().map(|t| t.comm.payload_allocs).sum();
        assert_eq!(payload_allocs, 0, "steady-state job must recycle payload pools");

        let m = svc.metrics();
        assert_eq!(m.completed, 3);
        assert_eq!(m.warm_jobs, 2);
        assert!(m.warm_jobs >= 1);
    }

    /// A failure on a rank other than 0 is the run's typed error — not
    /// dropped (the old drivers read `results[0]` only and would have
    /// returned `Ok`), not a panic. Rank 1 of a 2-rank CA run crashes at
    /// its very last loop boundary — after contributing to the residual
    /// allreduce, so rank 0 completes cleanly.
    #[test]
    fn failure_on_rank_1_is_a_typed_error() {
        use op2_runtime::{Boundary, BoundaryKind, FaultPlan, FaultSpec};
        let mut app = MgCfd::new(MgCfdParams::small(6));
        let layouts = layouts_for(&app, 2);
        let ca = job(&app, Variant::Ca, 2);
        let is_loop = |s: &&JobStep| matches!(s, JobStep::Loop(_));
        let n_loops = ca.setup.len()
            + ca.iters * ca.steps.iter().filter(is_loop).count()
            + ca.finish.len();
        let last = Boundary::new(BoundaryKind::Loop, n_loops as u64 - 1);
        let spec = FaultSpec::default().with_crash_site(1, last);
        let opts = RunOptions::with_faults(FaultPlan::new(spec));
        match run(&mut app, &layouts, &ca, &opts) {
            Err(RuntimeError::Panicked { rank: 1, .. }) => {}
            other => panic!("expected rank 1's crash as a typed error, got {other:?}"),
        }
    }

    /// The solver converges (RMS falls) over a few iterations, i.e. the
    /// physics loops do something sensible.
    #[test]
    fn solver_residual_is_stable() {
        let mut app = MgCfd::new(MgCfdParams::small(6));
        let out1 = run_sequential(&mut app, 1);
        let mut app5 = MgCfd::new(MgCfdParams::small(6));
        let out5 = run_sequential(&mut app5, 5);
        assert!(out1.rms.is_finite() && out5.rms.is_finite());
        assert!(out5.rms > 0.0);
        // No blow-up: the flow norm stays within two orders of magnitude.
        assert!(out5.rms < out1.rms * 100.0);
    }
}
