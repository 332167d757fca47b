//! The driver surface: the hand-written sequential reference
//! ([`run_sequential`]), the one program builder ([`job`]) and the one
//! distributed entry point ([`run`]).
//!
//! Everything else is the caller's composition: threading, drain policy,
//! pinning and faults through [`RunOptions`]; supervision by handing
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
    /// The CA back-end: the whole iteration as two Alg 2 chains, `vdown`
    /// (the V-cycle's descent) and `vup` (its ascent, then the synthetic
    /// chain; see [`MgCfd::iteration`]).
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
    use op2_runtime::Threading;

    /// Build `variant`'s job and run it.
    fn go(
        app: &mut MgCfd,
        layouts: &[RankLayout],
        variant: Variant,
        iters: usize,
        opts: &RunOptions,
    ) -> RunOutcome {
        run(app, layouts, &job(app, variant, iters), opts).expect("every rank completes")
    }

    fn run_op2(app: &mut MgCfd, layouts: &[RankLayout], iters: usize) -> RunOutcome {
        let opts = RunOptions::default();
        go(app, layouts, Variant::Op2, iters, &opts)
    }

    fn run_ca(app: &mut MgCfd, layouts: &[RankLayout], iters: usize) -> RunOutcome {
        let opts = RunOptions::default();
        go(app, layouts, Variant::Ca, iters, &opts)
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
    /// synthetic chain — the paper's central measurement. The CA program
    /// runs the synthetic pairs at the end of `vup`, after the V-cycle's
    /// ascent, and that whole chain still sends fewer messages than the
    /// synthetic loops alone do standalone.
    #[test]
    fn ca_reduces_message_count() {
        let mut params = MgCfdParams::small(7);
        params.nchains = 8; // 16 synthetic loops
        let iters = 2;

        let mut op2_app = MgCfd::new(params);
        let l = layouts_for(&op2_app, 4);
        let op2_out = run_op2(&mut op2_app, &l, iters);

        let mut ca_app = MgCfd::new(params);
        let l2 = layouts_for(&ca_app, 4);
        let ca_out = run_ca(&mut ca_app, &l2, iters);

        #[allow(clippy::needless_range_loop)]
        for rank in 0..4 {
            if l[rank].neighbors.is_empty() {
                continue;
            }
            // Messages attributable to the synthetic loops:
            let op2_synthetic: Vec<_> = op2_out.traces[rank]
                .loops
                .iter()
                .filter(|r| r.name == "update" || r.name == "edge_flux")
                .collect();
            let op2_msgs: usize = op2_synthetic.iter().map(|r| r.exch.n_msgs).sum();
            let op2_max = op2_synthetic.iter().map(|r| r.exch.max_msg_bytes).max().unwrap();
            let vup: Vec<_> = ca_out.traces[rank].chains.iter().filter(|c| c.name == "vup").collect();
            assert_eq!(vup.len(), iters, "rank {rank}");
            let ca_msgs: usize = vup.iter().map(|c| c.exch.n_msgs).sum();
            let ca_max = vup.iter().map(|c| c.exch.max_msg_bytes).max().unwrap();
            assert!(
                ca_msgs < op2_msgs,
                "rank {rank}: CA {ca_msgs} msgs vs OP2 {op2_msgs}"
            );
            assert!(ca_max > op2_max, "rank {rank}: CA {ca_max} B vs OP2 {op2_max} B");
        }
    }

    /// The iteration's two chains exchange once per iteration: on every
    /// rank with neighbours, `vdown` sends nothing after the first
    /// iteration (validity tracking finds `q` and `q_l1` valid where it
    /// reads them)
    /// and `vup` sends exactly one grouped message per neighbour, fewer
    /// than the same loops send standalone under Alg 1.
    #[test]
    fn vcycle_chains_reduce_message_count() {
        let params = MgCfdParams::small(7);
        let iters = 2;

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
                .filter(|r| !r.name.starts_with("init_state") && r.name != "rms_flow")
                .collect();
            assert_eq!(op2_loops.len(), (10 + 2 * params.nchains) * iters, "rank {rank}");
            let op2_msgs: usize = op2_loops.iter().map(|r| r.exch.n_msgs).sum();
            let chains = &ca_out.traces[rank].chains;
            let names: Vec<&str> = chains.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names, ["vdown", "vup"].repeat(iters), "rank {rank}");
            let nbrs = layout.neighbors.len();
            for (i, c) in chains.iter().enumerate() {
                // The first `vdown` fetches the `q` and `q_l1` that setup wrote.
                let want = if c.name == "vup" || i == 0 { nbrs } else { 0 };
                assert_eq!(c.exch.n_msgs, want, "rank {rank}: call {i} (`{}`) messages", c.name);
            }
            let ca_msgs: usize = chains.iter().map(|c| c.exch.n_msgs).sum();
            assert!(
                ca_msgs < op2_msgs,
                "rank {rank}: chains {ca_msgs} msgs vs standalone loops {op2_msgs}"
            );
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
            let out = go(&mut app, &layouts, Variant::Ca, iters, &opts);
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
