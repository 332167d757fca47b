//! End-to-end application tests: MG-CFD and Hydra across back-ends,
//! rank counts, partitioners, meshes and the supervised host.

use op2::core::Domain;
use op2::hydra::{self, ExtentMode, Hydra, HydraParams};
use op2::mgcfd::{self, MgCfd, MgCfdParams};
use op2::partition::{
    build_layouts, derive_ownership, kway_partition, rcb_partition, rib_partition, RankLayout,
};
use op2::runtime::{run_job, run_job_supervised, Job, JobRun, JobStep, RunOptions, SuperviseOptions};
use op2_mesh::Csr;

fn run_mgcfd(
    app: &mut MgCfd,
    layouts: &[RankLayout],
    variant: mgcfd::Variant,
    iters: usize,
) -> mgcfd::RunOutcome {
    let job = mgcfd::job(app, variant, iters);
    mgcfd::run(app, layouts, &job, &RunOptions::default()).expect("every rank completes")
}

fn run_hydra_ca(
    app: &mut Hydra,
    layouts: &[RankLayout],
    iters: usize,
    mode: ExtentMode,
) -> hydra::RunOutcome {
    let job = hydra::job(app, hydra::Variant::ca(mode), iters);
    hydra::run(app, layouts, &job, &RunOptions::default()).expect("every rank completes")
}

fn norm_close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1e-30)
}

/// Runs `job` through `run_job_supervised` with a checkpoint after every
/// chain, on `threads` pool threads per rank: real app kernels under the
/// supervisor's checkpoint, journal and dirty tracking.
fn run_supervised(dom: &mut Domain, layouts: &[RankLayout], job: &Job, threads: usize) -> JobRun {
    let run = RunOptions::default()
        .with_threads(threads)
        .checkpoint_every(1);
    run_job_supervised(dom, layouts, job, &SuperviseOptions::new(run))
        .unwrap_or_else(|e| panic!("threads {threads}: {e}"))
}

/// Holds supervised runs to the plain run on the same layouts: within
/// 1e-10 in the result and in every dat entry, and bitwise equal to each
/// other, whatever their thread count.
struct SupervisedCheck {
    want: f64,
    want_dom: Domain,
    bits: Option<Vec<u64>>,
}

impl SupervisedCheck {
    fn new(want: f64, want_dom: Domain) -> Self {
        SupervisedCheck {
            want,
            want_dom,
            bits: None,
        }
    }

    fn record(&mut self, result: f64, dom: &Domain, label: &str) {
        assert!(
            norm_close(self.want, result, 1e-10),
            "{label}: {:e} vs {result:e}",
            self.want
        );
        for (a, b) in self.want_dom.dats().iter().zip(dom.dats()) {
            for (k, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
                assert!(
                    norm_close(*x, *y, 1e-10),
                    "{label}: dat `{}` entry {k}: {x:e} vs {y:e}",
                    a.name
                );
            }
        }
        let bits: Vec<u64> = std::iter::once(result.to_bits())
            .chain(
                dom.dats()
                    .iter()
                    .flat_map(|d| d.data.iter().map(|x| x.to_bits())),
            )
            .collect();
        match &self.bits {
            None => self.bits = Some(bits),
            Some(first) => assert!(
                *first == bits,
                "{label}: not bitwise equal to the first run"
            ),
        }
    }
}

fn mgcfd_layouts(app: &MgCfd, nparts: usize, kway: bool) -> Vec<RankLayout> {
    let l0 = &app.levels[0];
    let base = if kway {
        let graph = Csr::node_graph(app.dom.map(l0.ids.e2n), app.dom.set(l0.ids.nodes).size);
        kway_partition(&graph, nparts, 3)
    } else {
        rcb_partition(&app.dom.dat(l0.ids.coords).data, 3, nparts)
    };
    let own = derive_ownership(&app.dom, l0.ids.nodes, base, nparts);
    build_layouts(&app.dom, &own, app.required_depth())
}

/// MG-CFD agrees across rank counts and partitioners.
#[test]
fn mgcfd_rank_count_sweep() {
    let params = MgCfdParams::small(8);
    let iters = 2;
    let mut ref_app = MgCfd::new(params);
    let reference = mgcfd::run_sequential(&mut ref_app, iters);

    for (nparts, kway) in [(1, false), (3, false), (6, false), (4, true)] {
        let mut app = MgCfd::new(params);
        let layouts = mgcfd_layouts(&app, nparts, kway);
        let out = run_mgcfd(&mut app, &layouts, mgcfd::Variant::Ca, iters);
        assert!(
            norm_close(reference.rms, out.rms, 1e-10),
            "nparts {nparts} kway {kway}: {} vs {}",
            reference.rms,
            out.rms
        );
    }
}

/// Longer synthetic chains stay correct, and their grouped exchanges
/// stay the same size: the paper's synthetic chain on its own (§4.1.2),
/// and the app's `vup`, which runs the V-cycle's ascent and then the
/// synthetic pairs as one chain.
#[test]
fn mgcfd_chain_length_sweep() {
    for nchains in [1, 4, 8] {
        let mut params = MgCfdParams::small(8);
        params.nchains = nchains;
        let iters = 2;

        let mut seq_app = MgCfd::new(params);
        let reference = mgcfd::run_sequential(&mut seq_app, iters);

        let mut ca_app = MgCfd::new(params);
        let layouts = mgcfd_layouts(&ca_app, 4, false);
        let ca = run_mgcfd(&mut ca_app, &layouts, mgcfd::Variant::Ca, iters);
        assert!(
            norm_close(reference.rms, ca.rms, 1e-10),
            "nchains {nchains}"
        );
        for (rank, t) in ca.traces.iter().enumerate() {
            if layouts[rank].neighbors.is_empty() {
                continue;
            }
            // `vup` imports `flux_l1`, `adt` and `flux` to depth 2 on
            // every call, whatever `nchains`: `write_pres` computes
            // `dpres` into the halo inside the chain. The first call
            // also deepens `q_l1`, which `vdown` fetched to depth 1
            // only; later calls find it valid from the previous ascent.
            let vup: Vec<_> = t.chains.iter().filter(|c| c.name == "vup").collect();
            assert_eq!(vup.len(), iters, "rank {rank} nchains {nchains}");
            for (i, c) in vup.iter().enumerate() {
                let want = if i == 0 { 4 } else { 3 };
                assert_eq!(c.d_exchanged, want, "rank {rank} nchains {nchains}: call {i}");
                assert_eq!(c.depth, 2, "rank {rank} nchains {nchains}: call {i}");
            }
        }

        // The synthetic chain itself, behind the `write_pres` that
        // dirties `dpres` each iteration. The grouped exchange carries
        // dpres (imported to depth 2) and possibly dres, though the
        // runtime's multi-level validity usually proves the previous
        // chain execution left dres deep enough (the paper's single
        // dirty bit would re-exchange it). Never more than the 2 dats of
        // §4.1.2, always at depth r = 2.
        let mut app = MgCfd::new(params);
        let layouts = mgcfd_layouts(&app, 4, false);
        let steps = vec![
            JobStep::Loop(app.write_pres_loop()),
            JobStep::Chain(app.synthetic_chain_n(nchains).unwrap()),
        ];
        let setup = (0..params.levels).map(|l| JobStep::Loop(app.init_loop(l))).collect();
        let job = Job::new("synthetic", steps, iters).setup(setup);
        let out = run_job(&mut app.dom, &layouts, &job, &RunOptions::default())
            .expect("every rank completes");
        for (rank, t) in out.traces.iter().enumerate() {
            if layouts[rank].neighbors.is_empty() {
                continue;
            }
            let synthetic: Vec<_> = t.chains.iter().filter(|c| c.name == "synthetic").collect();
            assert_eq!(synthetic.len(), iters, "rank {rank} nchains {nchains}");
            for c in synthetic {
                assert!(
                    (1..=2).contains(&c.d_exchanged),
                    "rank {rank} nchains {nchains}: {} dats",
                    c.d_exchanged
                );
                assert_eq!(c.depth, 2);
            }
        }
    }
}

/// MG-CFD with a single multigrid level and with three levels: the OP2
/// baseline on 4 ranks, and the CA program (whose `vup` chain deepens
/// with the level count) on 2 and 3 ranks at the app's own layout depth.
#[test]
fn mgcfd_multigrid_depth_sweep() {
    for levels in [1, 2, 3] {
        let mut params = MgCfdParams::small(9);
        params.levels = levels;
        let iters = 2;
        let mut seq_app = MgCfd::new(params);
        let reference = mgcfd::run_sequential(&mut seq_app, iters);
        for (variant, nparts) in [
            (mgcfd::Variant::Op2, 4),
            (mgcfd::Variant::Ca, 2),
            (mgcfd::Variant::Ca, 3),
        ] {
            let mut app = MgCfd::new(params);
            let layouts = mgcfd_layouts(&app, nparts, false);
            let out = run_mgcfd(&mut app, &layouts, variant, iters);
            assert!(
                norm_close(reference.rms, out.rms, 1e-10),
                "levels {levels} {variant:?} on {nparts} ranks: {} vs {}",
                reference.rms,
                out.rms
            );
        }
    }
}

fn hydra_layouts(app: &Hydra, nparts: usize, depth: usize) -> Vec<RankLayout> {
    let base = rib_partition(app.mesh.node_coords(), 3, nparts);
    let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, nparts);
    build_layouts(&app.mesh.dom, &own, depth)
}

/// Hydra safe-mode CA across rank counts.
#[test]
fn hydra_rank_count_sweep() {
    let params = HydraParams::small(6);
    let iters = 2;
    let mut ref_app = Hydra::new(params);
    let reference = hydra::run_sequential(&mut ref_app, iters, 1);

    for nparts in [1, 2, 5] {
        let mut app = Hydra::new(params);
        let depth = app.required_depth(ExtentMode::Safe);
        let layouts = hydra_layouts(&app, nparts, depth);
        let out = run_hydra_ca(&mut app, &layouts, iters, ExtentMode::Safe);
        assert!(
            norm_close(reference.norm, out.norm, 1e-10),
            "nparts {nparts}: {} vs {}",
            reference.norm,
            out.norm
        );
    }
}

/// MG-CFD under the supervisor at 1, 2 and 4 threads matches the plain
/// run (see [`SupervisedCheck`]).
#[test]
fn mgcfd_supervised_run_matches_plain_at_1_2_4_threads() {
    let params = MgCfdParams::small(7);
    let iters = 4;
    let mut plain = MgCfd::new(params);
    let layouts = mgcfd_layouts(&plain, 4, false);
    let want = run_mgcfd(&mut plain, &layouts, mgcfd::Variant::Ca, iters);
    let mut check = SupervisedCheck::new(want.rms, plain.dom);
    for threads in [1, 2, 4] {
        let mut app = MgCfd::new(params);
        let job = mgcfd::job(&app, mgcfd::Variant::Ca, iters);
        let run = run_supervised(&mut app.dom, &layouts, &job, threads);
        let out = mgcfd::RunOutcome::from_job(&app, run);
        check.record(out.rms, &app.dom, &format!("threads {threads}"));
    }
}

/// Hydra (`Safe` extents) under the supervisor matches the plain run
/// (see [`SupervisedCheck`]).
#[test]
fn hydra_supervised_run_matches_plain() {
    let params = HydraParams::small(6);
    let iters = 4;
    let mut plain = Hydra::new(params);
    let depth = plain.required_depth(ExtentMode::Safe);
    let layouts = hydra_layouts(&plain, 4, depth);
    let want = run_hydra_ca(&mut plain, &layouts, iters, ExtentMode::Safe);
    let mut check = SupervisedCheck::new(want.norm, plain.mesh.dom);
    for threads in [1, 2] {
        let mut app = Hydra::new(params);
        let job = hydra::job(&app, hydra::Variant::ca(ExtentMode::Safe), iters);
        let run = run_supervised(&mut app.mesh.dom, &layouts, &job, threads);
        let out = hydra::RunOutcome::from_job(&app, run);
        check.record(out.norm, &app.mesh.dom, &format!("threads {threads}"));
    }
}

/// Paper-mode execution is stable over more iterations (staleness does
/// not accumulate into divergence).
#[test]
fn hydra_paper_mode_stable_over_iterations() {
    let params = HydraParams::small(6);
    let iters = 5;
    let mut ref_app = Hydra::new(params);
    let reference = hydra::run_sequential(&mut ref_app, iters, 1);

    let mut app = Hydra::new(params);
    let depth = app.required_depth(ExtentMode::Paper);
    let layouts = hydra_layouts(&app, 4, depth);
    let out = run_hydra_ca(&mut app, &layouts, iters, ExtentMode::Paper);
    assert!(out.norm.is_finite());
    assert!(
        norm_close(reference.norm, out.norm, 0.05),
        "{} vs {}",
        reference.norm,
        out.norm
    );
}

/// The vflux chain's grouped exchange carries the five Table-4 dats on
/// every rank that talks to neighbours.
#[test]
fn hydra_vflux_exchanges_five_dats() {
    let params = HydraParams::small(7);
    let mut app = Hydra::new(params);
    let depth = app.required_depth(ExtentMode::Safe);
    let layouts = hydra_layouts(&app, 4, depth);
    let out = run_hydra_ca(&mut app, &layouts, 1, ExtentMode::Safe);
    for (rank, t) in out.traces.iter().enumerate() {
        if layouts[rank].neighbors.is_empty() {
            continue;
        }
        let vflux = t
            .chains
            .iter()
            .find(|c| c.name == "vflux")
            .expect("vflux chain ran");
        assert_eq!(vflux.d_exchanged, 5, "rank {rank}");
    }
}
