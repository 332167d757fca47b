//! The driver surface: the hand-written sequential reference
//! ([`run_sequential`]), the one program builder ([`job`]) and the one
//! distributed entry point ([`run`]).
//!
//! Everything else is the caller's composition: threading, drain policy,
//! pinning and faults through [`RunOptions`]; supervision by handing
//! [`job`]'s program to [`op2_runtime::run_job_supervised`] and folding
//! the result with [`RunOutcome::from_job`].

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

    /// Build `variant`'s job and run it.
    fn go(
        app: &mut Hydra,
        layouts: &[RankLayout],
        variant: Variant,
        iters: usize,
        opts: &RunOptions,
    ) -> RunOutcome {
        run(app, layouts, &job(app, variant, iters), opts).expect("every rank completes")
    }

    fn run_op2(app: &mut Hydra, layouts: &[RankLayout], iters: usize) -> RunOutcome {
        let (v, opts) = (Variant::Op2 { stages: 1 }, RunOptions::default());
        go(app, layouts, v, iters, &opts)
    }

    fn run_ca(
        app: &mut Hydra,
        layouts: &[RankLayout],
        iters: usize,
        mode: ExtentMode,
    ) -> RunOutcome {
        let opts = RunOptions::default();
        go(app, layouts, Variant::ca(mode), iters, &opts)
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

    /// Threaded safe-mode CA is **bitwise identical** to single-threaded
    /// CA through Hydra's relaxed and strict chains alike: the
    /// owner-computes windows and direct blocks never reorder an update,
    /// and the loops neither admits (indirect `Rw`, such as `edgelength`
    /// and `limxp`) run on the rank's own thread, so thread count is
    /// invisible in the results.
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
        let out = go(&mut app, &l, safe, iters, &opts);

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
