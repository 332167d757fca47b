//! The driver surface: the hand-written sequential reference
//! ([`run_sequential`]), the one program builder ([`job`]) and the one
//! distributed entry point ([`run`]).
//!
//! Everything else is the caller's composition: threading, drain policy,
//! pinning, fusion and faults through [`RunOptions`]; tiled or tuned
//! dispatch of the *strict* chains through [`Job::dispatch`] (relaxed
//! chains always keep their pinned-extent executor); supervision,
//! rebalancing and the resident service by handing [`job`]'s program to
//! [`op2_runtime::run_job_supervised`],
//! [`op2_runtime::run_job_rebalanced`] or
//! [`op2_runtime::Service::submit`] and folding the result with
//! [`RunOutcome::from_job`].

use crate::app::{ExtentMode, Hydra, Step};
use op2_core::seq;
use op2_partition::RankLayout;
use op2_runtime::{run_job, Job, JobRun, JobStep, RankTrace, RunOptions, RuntimeError};

/// Result of a run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final residual norm.
    pub norm: f64,
    /// Per-rank traces (empty for sequential).
    pub traces: Vec<RankTrace>,
}

impl RunOutcome {
    /// Fold a hosted run of one of [`job`]'s programs (whose single
    /// finish step is the norm reduction) into an outcome.
    pub fn from_job(app: &Hydra, run: JobRun) -> Self {
        let n = app.mesh.dom.set(app.mesh.nodes).size as f64;
        RunOutcome {
            norm: (run.gbls[0][0][0] / n).sqrt(),
            traces: run.traces,
        }
    }
}

fn seq_steps(app: &mut Hydra, steps: &[Step]) {
    for step in steps {
        match step {
            Step::Loop(l) => {
                seq::run_loop(&mut app.mesh.dom, l);
            }
            Step::Chain(c, _) => {
                for l in &c.loops {
                    seq::run_loop(&mut app.mesh.dom, l);
                }
            }
        }
    }
}

/// Run `iters` iterations of `stages` Runge–Kutta stages sequentially
/// (the reference every back-end is tested against). Hand-written over
/// `seq::run_loop`, and it reduces the norm every iteration — the
/// distributed programs reduce once, as their finish step; the norm loop
/// only reads, so the two agree, and every test comparing [`run`]
/// against this function is the check that they do.
pub fn run_sequential(app: &mut Hydra, iters: usize, stages: usize) -> RunOutcome {
    let setup = app.setup(false, ExtentMode::Safe);
    let iteration = app.rk_iteration(false, ExtentMode::Safe, stages);
    let norm_spec = app.norm_loop();
    let n = app.mesh.dom.set(app.mesh.nodes).size as f64;
    seq_steps(app, &setup);
    let mut norm = 0.0;
    for _ in 0..iters {
        seq_steps(app, &iteration);
        let r = seq::run_loop(&mut app.mesh.dom, &norm_spec);
        norm = (r.gbls[0][0] / n).sqrt();
    }
    RunOutcome {
        norm,
        traces: Vec::new(),
    }
}

/// Which program [`job`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The standard OP2 back-end: every chain flattened into Alg 1
    /// loops, `stages` Runge–Kutta stages per iteration (Hydra's
    /// production time-marcher uses 5, §4.2).
    Op2 {
        /// RK stages per iteration.
        stages: usize,
    },
    /// The CA back-end with the chosen extent mode (`Paper` runs the
    /// chains relaxed).
    Ca {
        /// Halo extents the chains are built with.
        mode: ExtentMode,
        /// RK stages per iteration.
        stages: usize,
    },
    /// Only the fusable `state_jac` glue pair ([`Hydra::fused_chain`])
    /// per iteration, after the field initialisation — the fusion
    /// fixture.
    FusedChain,
}

impl Variant {
    /// The single-stage CA program (what the tests run).
    pub fn ca(mode: ExtentMode) -> Self {
        Variant::Ca { mode, stages: 1 }
    }
}

impl From<Step> for JobStep {
    fn from(s: Step) -> JobStep {
        match s {
            Step::Loop(l) => JobStep::Loop(l),
            Step::Chain(c, false) => JobStep::Chain(c),
            Step::Chain(c, true) => JobStep::ChainRelaxed(c),
        }
    }
}

/// Describe `iters` iterations of this app as a [`Job`]: the setup
/// program as setup steps, one RK iteration of `variant` as the repeated
/// step list, and the pure norm reduction as the finish step.
pub fn job(app: &Hydra, variant: Variant, iters: usize) -> Job {
    let (name, setup, steps) = match variant {
        Variant::Op2 { stages } => (
            "hydra-op2",
            app.setup(false, ExtentMode::Safe),
            app.rk_iteration(false, ExtentMode::Safe, stages),
        ),
        Variant::Ca { mode, stages } => (
            "hydra-ca",
            app.setup(true, mode),
            app.rk_iteration(true, mode, stages),
        ),
        Variant::FusedChain => (
            "hydra-fused",
            vec![Step::Loop(app.init_loop())],
            vec![Step::Chain(app.fused_chain().expect("fused chain is valid"), false)],
        ),
    };
    let lower = |steps: Vec<Step>| steps.into_iter().map(JobStep::from).collect();
    Job::new(name, lower(steps), iters)
        .setup(lower(setup))
        .finish(vec![JobStep::Loop(app.norm_loop())])
}

/// Run one of [`job`]'s programs distributed over `layouts`. `Err` if
/// *any* rank failed — the first failure in rank order, typed.
pub fn run(
    app: &mut Hydra,
    layouts: &[RankLayout],
    job: &Job,
    opts: &RunOptions,
) -> Result<RunOutcome, RuntimeError> {
    let out = run_job(&mut app.mesh.dom, layouts, job, opts)?;
    Ok(RunOutcome::from_job(app, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::HydraParams;
    use op2_partition::{build_layouts, derive_ownership, rib_partition};
    use op2_runtime::{ChainDispatch, Service};

    /// Build `variant`'s job with the given chain dispatch and run it.
    fn go(
        app: &mut Hydra,
        layouts: &[RankLayout],
        variant: Variant,
        iters: usize,
        dispatch: ChainDispatch,
        opts: &RunOptions,
    ) -> RunOutcome {
        let job = job(app, variant, iters).dispatch(dispatch);
        run(app, layouts, &job, opts).expect("every rank completes")
    }

    fn run_op2(app: &mut Hydra, layouts: &[RankLayout], iters: usize) -> RunOutcome {
        let (v, opts) = (Variant::Op2 { stages: 1 }, RunOptions::default());
        go(app, layouts, v, iters, ChainDispatch::Planned, &opts)
    }

    fn run_ca(
        app: &mut Hydra,
        layouts: &[RankLayout],
        iters: usize,
        mode: ExtentMode,
    ) -> RunOutcome {
        let opts = RunOptions::default();
        go(app, layouts, Variant::ca(mode), iters, ChainDispatch::Planned, &opts)
    }

    fn layouts_for(app: &Hydra, nparts: usize, depth: usize) -> Vec<RankLayout> {
        // Hydra's default partitioner is recursive inertial bisection.
        let base = rib_partition(app.mesh.node_coords(), 3, nparts);
        let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, nparts);
        build_layouts(&app.mesh.dom, &own, depth)
    }

    /// Error normalised by the dat's global magnitude: per-component
    /// relative error is meaningless for antisymmetric flux sums that
    /// legitimately cancel to ~0.
    fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
        let scale = a
            .iter()
            .chain(b)
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-30);
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() / scale)
            .fold(0.0, f64::max)
    }

    /// Safe-mode CA and the OP2 baseline both match the sequential
    /// reference to float-reassociation tolerance.
    #[test]
    fn safe_ca_matches_sequential() {
        let params = HydraParams::small(7);
        let iters = 2;

        let mut seq_app = Hydra::new(params);
        let s = run_sequential(&mut seq_app, iters, 1);

        let mut op2_app = Hydra::new(params);
        let l = layouts_for(&op2_app, 4, op2_app.required_depth(ExtentMode::Safe));
        let o = run_op2(&mut op2_app, &l, iters);

        let mut ca_app = Hydra::new(params);
        let l2 = layouts_for(&ca_app, 4, ca_app.required_depth(ExtentMode::Safe));
        let c = run_ca(&mut ca_app, &l2, iters, ExtentMode::Safe);

        for dat in [seq_app.qp, seq_app.qo, seq_app.vres, seq_app.jac] {
            let name = &seq_app.mesh.dom.dat(dat).name;
            let e1 = max_rel_err(
                &seq_app.mesh.dom.dat(dat).data,
                &op2_app.mesh.dom.dat(dat).data,
            );
            let e2 = max_rel_err(
                &seq_app.mesh.dom.dat(dat).data,
                &ca_app.mesh.dom.dat(dat).data,
            );
            assert!(e1 < 1e-10, "OP2 diverged on {name}: {e1}");
            assert!(e2 < 1e-10, "CA diverged on {name}: {e2}");
        }
        assert!(s.norm.is_finite() && o.norm.is_finite() && c.norm.is_finite());
        assert!((s.norm - c.norm).abs() <= 1e-10 * s.norm.abs().max(1e-30));
    }

    /// Paper-mode (relaxed) execution stays finite and close to the
    /// reference: staleness is confined to boundary-subset rings.
    #[test]
    fn paper_mode_runs_and_counts_staleness() {
        let params = HydraParams::small(7);
        let iters = 2;

        let mut seq_app = Hydra::new(params);
        let s = run_sequential(&mut seq_app, iters, 1);

        let mut ca_app = Hydra::new(params);
        let l = layouts_for(&ca_app, 4, ca_app.required_depth(ExtentMode::Paper));
        let c = run_ca(&mut ca_app, &l, iters, ExtentMode::Paper);

        assert!(c.norm.is_finite());
        // The result tracks the reference loosely (staleness is bounded).
        assert!(
            (s.norm - c.norm).abs() <= 0.05 * s.norm.abs().max(1e-30),
            "paper-mode norm drifted: {} vs {}",
            c.norm,
            s.norm
        );
        // Staleness is actually detected somewhere (the weight/period
        // chains pin extents below the transitive requirement).
        let total_stale: usize = c
            .traces
            .iter()
            .flat_map(|t| t.chains.iter())
            .map(|cr| cr.stale_reads)
            .sum();
        assert!(total_stale > 0, "expected counted stale reads");
    }

    /// The adaptive back-end matches the sequential reference in safe
    /// mode; strict chains get rank-agreed tuner decisions, relaxed
    /// chains bypass the tuner, and repeat iterations hit the plan cache.
    #[test]
    fn tuned_matches_sequential() {
        let params = HydraParams::small(7);
        let iters = 3;

        let mut seq_app = Hydra::new(params);
        let s = run_sequential(&mut seq_app, iters, 1);

        let mut app = Hydra::new(params);
        let l = layouts_for(&app, 4, app.required_depth(ExtentMode::Safe));
        let tuned = ChainDispatch::Tuned {
            mach: op2_model::Machine::archer2(),
            fixed_g: Some(5e-8),
        };
        let safe = Variant::ca(ExtentMode::Safe);
        let c = go(&mut app, &l, safe, iters, tuned, &RunOptions::default());
        assert!(c.norm.is_finite());
        assert!(
            (s.norm - c.norm).abs() <= 1e-10 * s.norm.abs().max(1e-30),
            "adaptive norm diverged: {} vs {}",
            c.norm,
            s.norm
        );

        // One calibration record per distinct strict chain, identical
        // across ranks (modulo the per-rank measured wall clock).
        let agreed = |t: &RankTrace| -> Vec<_> {
            t.tuner
                .iter()
                .map(|r| op2_runtime::TunerRec {
                    t_measured_ns: 0,
                    ..r.clone()
                })
                .collect()
        };
        let first = agreed(&c.traces[0]);
        assert!(!first.is_empty(), "strict chains must be calibrated");
        for t in &c.traces[1..] {
            assert_eq!(agreed(t), first, "rank {} decided differently", t.rank);
        }
        // Repeat iterations re-dispatch the same chains: plans amortize.
        for t in &c.traces {
            assert!(
                t.plan.hits > 0,
                "rank {}: expected plan-cache hits, {:?}",
                t.rank,
                t.plan
            );
        }
    }

    /// Threaded safe-mode CA is **bitwise identical** to single-threaded
    /// CA — the order-preserving block coloring makes thread count
    /// invisible in the results, even through Hydra's relaxed chains
    /// (which run sequentially inside the tiled executor) and strict
    /// chains (which run colored).
    #[test]
    fn threaded_ca_bitwise_equals_single_threaded() {
        let params = HydraParams::small(7);
        let iters = 2;

        let mut ref_app = Hydra::new(params);
        let l0 = layouts_for(&ref_app, 4, ref_app.required_depth(ExtentMode::Safe));
        let reference = run_ca(&mut ref_app, &l0, iters, ExtentMode::Safe);

        let mut app = Hydra::new(params);
        let l = layouts_for(&app, 4, app.required_depth(ExtentMode::Safe));
        let threading = op2_runtime::Threading { n_threads: 4, block_size: 16 };
        let opts = RunOptions::default().threading(threading);
        let safe = Variant::ca(ExtentMode::Safe);
        let out = go(&mut app, &l, safe, iters, ChainDispatch::Planned, &opts);

        assert_eq!(
            out.norm.to_bits(),
            reference.norm.to_bits(),
            "threaded norm diverged"
        );
        for dat in [app.qp, app.qo, app.vres, app.jac] {
            let name = &app.mesh.dom.dat(dat).name;
            let got: Vec<u64> = app.mesh.dom.dat(dat).data.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = ref_app
                .mesh
                .dom
                .dat(dat)
                .data
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, want, "threaded run diverged on dat `{name}`");
        }
        assert!(
            out.traces.iter().any(|t| !t.threads.is_empty()),
            "no threaded executions recorded"
        );
    }

    /// The threaded tiled executor on Hydra: CA + sparse tiling of the
    /// strict chains with pool threads is **bitwise identical** to the
    /// sequential tiled run, and the traces prove same-level tiles
    /// actually went through the pool.
    #[test]
    fn tiled_threaded_bitwise_equals_tiled_sequential() {
        let params = HydraParams::small(10);
        let (iters, n_tiles) = (2, 8);

        let mut ref_app = Hydra::new(params);
        let l0 = layouts_for(&ref_app, 2, ref_app.required_depth(ExtentMode::Safe));
        let safe = Variant::ca(ExtentMode::Safe);
        let tiled = ChainDispatch::Tiled(n_tiles);
        let reference = go(&mut ref_app, &l0, safe, iters, tiled.clone(), &RunOptions::default());

        let mut app = Hydra::new(params);
        let l = layouts_for(&app, 2, app.required_depth(ExtentMode::Safe));
        let out = go(&mut app, &l, safe, iters, tiled, &RunOptions::default().with_threads(4));

        assert_eq!(
            out.norm.to_bits(),
            reference.norm.to_bits(),
            "tiled-threaded norm diverged"
        );
        for dat in [app.qp, app.qo, app.vres, app.jac] {
            let name = &app.mesh.dom.dat(dat).name;
            let got: Vec<u64> = app.mesh.dom.dat(dat).data.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = ref_app
                .mesh
                .dom
                .dat(dat)
                .data
                .iter()
                .map(|x| x.to_bits())
                .collect();
            assert_eq!(got, want, "tiled-threaded run diverged on dat `{name}`");
        }
        let tiled: Vec<_> = out
            .traces
            .iter()
            .flat_map(|t| &t.threads)
            .filter(|r| r.kind == op2_runtime::SchedKind::Tiled)
            .collect();
        assert!(!tiled.is_empty(), "no tiled pool executions recorded");
        for rec in tiled {
            assert_eq!(rec.n_threads, 4);
            assert_eq!(rec.level_ns.len(), rec.n_levels);
            assert_eq!(rec.block_size, 0, "tiled schedules chunk by tile");
        }
    }

    /// Resident-service execution matches the standalone CA run bitwise (safe
    /// mode, relaxed chains included), and the second job runs warm on
    /// the carried plan cache with recycled payload pools.
    #[test]
    fn service_jobs_match_run_ca_and_warm_up() {
        let params = HydraParams::small(7);
        let iters = 2;

        let mut ref_app = Hydra::new(params);
        let l0 = layouts_for(&ref_app, 4, ref_app.required_depth(ExtentMode::Safe));
        let reference = run_ca(&mut ref_app, &l0, iters, ExtentMode::Safe);

        let app = Hydra::new(params);
        let layouts = layouts_for(&app, 4, app.required_depth(ExtentMode::Safe));
        let svc = Service::new(op2_runtime::ServiceConfig::default());
        let mesh = svc.register_mesh(app.mesh.dom.clone(), layouts);
        let ca = job(&app, Variant::ca(ExtentMode::Safe), iters);
        let submit = || RunOutcome::from_job(&app, svc.submit(mesh, &ca).unwrap().into());

        let cold = submit();
        let warm = submit();
        let steady = submit();
        assert_eq!(cold.norm.to_bits(), reference.norm.to_bits());
        assert_eq!(warm.norm.to_bits(), reference.norm.to_bits());
        assert_eq!(steady.norm.to_bits(), reference.norm.to_bits());

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
    }

    /// Per chain, CA sends fewer messages than the flattened baseline
    /// for the chains the paper reports as communication-reducing.
    #[test]
    fn chain_message_reduction() {
        let params = HydraParams::small(7);
        let iters = 2;

        let mut op2_app = Hydra::new(params);
        let l = layouts_for(&op2_app, 4, op2_app.required_depth(ExtentMode::Safe));
        let o = run_op2(&mut op2_app, &l, iters);

        let mut ca_app = Hydra::new(params);
        let l2 = layouts_for(&ca_app, 4, ca_app.required_depth(ExtentMode::Safe));
        let c = run_ca(&mut ca_app, &l2, iters, ExtentMode::Safe);

        // Total message count falls under CA.
        let op2_msgs: usize = o.traces.iter().map(|t| t.total_msgs()).sum();
        let ca_msgs: usize = c.traces.iter().map(|t| t.total_msgs()).sum();
        assert!(
            ca_msgs < op2_msgs,
            "CA total messages {ca_msgs} !< OP2 {op2_msgs}"
        );
    }
}
