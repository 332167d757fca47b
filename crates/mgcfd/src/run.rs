//! The driver surface: the hand-written sequential reference
//! ([`run_sequential`]), the one program builder ([`job`]) and the one
//! distributed entry point ([`run`]).
//!
//! Everything else is the caller's composition: threading, drain policy,
//! pinning and faults through [`RunOptions`]; tuned chain dispatch
//! (`ChainDispatch::Tuned`, which times both backends on the chain's
//! first calls) through [`Job::dispatch`]; supervision by handing
//! [`job`]'s program to [`op2_runtime::run_job_supervised`] and folding
//! the result with [`RunOutcome::from_job`].

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
    /// The standard OP2 back-end: every loop standalone, under Alg 1.
    Op2,
    /// The CA back-end: the whole iteration as three Alg 2 chains, the
    /// V-cycle's `vdown` and `vup` and then the synthetic chain (see
    /// [`MgCfd::iteration`]).
    Ca,
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
    use op2_runtime::{Backend, ChainDispatch, FaultPlan, FaultSpec, Threading};

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

    fn layouts_for(app: &MgCfd, nparts: usize) -> Vec<RankLayout> {
        let coords = &app.dom.dat(app.levels[0].ids.coords).data;
        let base = rcb_partition(coords, 3, nparts);
        let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, nparts);
        build_layouts(&app.dom, &own, app.required_depth())
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
                .filter(|c| c.name == "synthetic")
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

    /// The V-cycle's two chains send fewer messages, on every rank with
    /// neighbours, than its ten loops do standalone under Alg 1.
    #[test]
    fn vcycle_chains_reduce_message_count() {
        let params = MgCfdParams::small(7);
        let iters = 2;
        let synthetic = ["update", "edge_flux"];

        let mut op2_app = MgCfd::new(params);
        let l = layouts_for(&op2_app, 4);
        let op2_out = run_op2(&mut op2_app, &l, iters);

        let mut ca_app = MgCfd::new(params);
        let l2 = layouts_for(&ca_app, 4);
        let ca_out = run_ca(&mut ca_app, &l2, iters);

        for (rank, layout) in l.iter().enumerate() {
            if layout.neighbors.is_empty() {
                continue;
            }
            let op2_loops: Vec<_> = op2_out.traces[rank]
                .loops
                .iter()
                .filter(|r| {
                    let setup_or_finish = r.name.starts_with("init_state") || r.name == "rms_flow";
                    !setup_or_finish && !synthetic.contains(&r.name.as_str())
                })
                .collect();
            assert_eq!(op2_loops.len(), 10 * iters, "rank {rank}");
            let op2_msgs: usize = op2_loops.iter().map(|r| r.exch.n_msgs).sum();
            let ca_chains: Vec<_> = ca_out.traces[rank]
                .chains
                .iter()
                .filter(|c| c.name == "vdown" || c.name == "vup")
                .collect();
            assert_eq!(ca_chains.len(), 2 * iters, "rank {rank}");
            let ca_msgs: usize = ca_chains.iter().map(|c| c.exch.n_msgs).sum();
            assert!(
                ca_msgs < op2_msgs,
                "rank {rank}: V-cycle chains {ca_msgs} msgs vs standalone loops {op2_msgs}"
            );
        }
    }

    /// The adaptive back-end matches the sequential reference and makes
    /// the identical decision on every rank. Seven iterations: six probe
    /// calls, then a decided one.
    #[test]
    fn tuned_matches_sequential_with_identical_decisions() {
        let params = MgCfdParams::small(7);
        let iters = 7;
        let mut seq_app = MgCfd::new(params);
        let reference = run_sequential(&mut seq_app, iters);

        let mut app = MgCfd::new(params);
        let layouts = layouts_for(&app, 4);
        let out = go(&mut app, &layouts, Variant::Ca, iters, ChainDispatch::Tuned, &RunOptions::default());
        let err = (reference.rms - out.rms).abs() / reference.rms.abs().max(1e-30);
        assert!(err < 1e-10, "adaptive back-end diverged: {err}");

        let first = &out.traces[0].tuner;
        let names: Vec<&str> = first.iter().map(|t| t.chain.as_str()).collect();
        assert_eq!(names, ["vdown", "vup", "synthetic"], "each chain is decided once");
        for t in &out.traces[1..] {
            assert_eq!(&t.tuner, first, "rank {} decided differently", t.rank);
        }
    }

    /// The probes measure wall-clock, which a journaled replay cannot
    /// reproduce: the supervised hosts refuse a tuned job, typed.
    #[test]
    fn tuned_job_is_rejected_under_supervision() {
        let mut app = MgCfd::new(MgCfdParams::small(6));
        let layouts = layouts_for(&app, 2);
        let tuned = job(&app, Variant::Ca, 1).dispatch(ChainDispatch::Tuned);
        let sopts = op2_runtime::SuperviseOptions::default();
        let out = op2_runtime::run_job_supervised(&mut app.dom, &layouts, &tuned, &sopts);
        assert!(matches!(out, Err(RuntimeError::Core(_))), "{out:?}");
    }

    /// With every message delayed by up to 2 ms, the flattened synthetic
    /// chain's four `edge_flux` exchanges cost several times the CA
    /// chain's one grouped exchange: the timed probes pick Ca for it, on
    /// every rank.
    #[test]
    fn tuner_picks_ca_when_messages_are_slow() {
        let mut params = MgCfdParams::small(6);
        params.nchains = 4;
        let mut app = MgCfd::new(params);
        let layouts = layouts_for(&app, 2);
        let opts = RunOptions {
            faults: Some(std::sync::Arc::new(FaultPlan::new(FaultSpec {
                delay_permille: 1000,
                max_delay: std::time::Duration::from_millis(2),
                ..FaultSpec::default()
            }))),
            ..RunOptions::default()
        };
        let out = go(&mut app, &layouts, Variant::Ca, 7, ChainDispatch::Tuned, &opts);
        let first = &out.traces[0].tuner;
        assert_eq!(first.len(), 3, "{first:?}");
        let synthetic = first.iter().find(|t| t.chain == "synthetic").expect("synthetic decided");
        assert_eq!(synthetic.backend, Backend::Ca, "{first:?}");
        for t in &out.traces[1..] {
            assert_eq!(&t.tuner, first, "rank {} decided differently", t.rank);
        }
    }

    /// Acceptance criterion of the threaded subsystem on the full app:
    /// the CA back-end with 2 and 4 pool threads per rank is **bitwise
    /// identical** to the single-threaded CA run — every dat, every bit:
    /// owner-computes windows and direct blocks never reorder an update.
    /// A tiny block size sends even the short halo ranges to the pool.
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
