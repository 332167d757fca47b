//! Declared kernel shapes against the uniform resolution.
//!
//! Every app kernel declares its argument shape, so its compiled loops
//! resolve arguments with constant dims and one map row per iteration.
//! The same body wrapped in a closure is undeclared and takes the
//! uniform `BoundArg` form, the bitwise reference. This file runs every
//! loop the two apps build — MG-CFD's init, iteration, rms and dt_min
//! loops at both multigrid levels, Hydra's init, setup, iteration and
//! norm loops — both ways over a range, an index list and the 2-thread
//! lowering (two owner-computes windows for the `Inc` loops, the block
//! coloring for the rest), and requires every dat and global to agree
//! to the bit. The loops run in program order on evolving state, so
//! each sees the values the program would give it.
//!
//! Each app runs twice: in generator numbering, and with its sets
//! shuffled (`shuffle_set`), where the bind-time locality gate turns on
//! and the declared loops take the prefetching walk.
//!
//! The declared form is unchecked pointer arithmetic once optimised, so
//! CI runs this file under `cargo test --release` as well.

use op2::core::par::{owner_computes_accesses, thread_schedule};
use op2::core::schedule::{run_loop_schedule, BoundLoop};
use op2::core::{Args, Domain, KernelFn, LoopSpec, Schedule};
use op2::hydra::app::Step as HydraStep;
use op2::hydra::{kernels as hk, ExtentMode, Hydra, HydraParams};
use op2::mesh::shuffle::shuffle_set;
use op2::mgcfd::{kernels as mk, MgCfd, MgCfdParams, Step as MgStep};

/// `spec` with its kernel `k` wrapped in a closure: the same body,
/// undeclared.
fn undeclared<K: KernelFn>(spec: &LoopSpec, k: K) -> LoopSpec {
    LoopSpec::with_gbls(
        &spec.name,
        spec.set,
        spec.args.clone(),
        spec.gbls.clone(),
        move |a: &Args<'_>| k.call(a),
    )
}

/// The undeclared twin of an app loop, by the loop's name (MG-CFD's
/// per-level loops without their `_l{level}` suffix).
fn twin(spec: &LoopSpec) -> LoopSpec {
    let name = match spec.name.rsplit_once("_l") {
        Some((base, level)) if level.parse::<usize>().is_ok() => base,
        _ => spec.name.as_str(),
    };
    macro_rules! twins {
        ($($loop:literal => $k:expr,)*) => {
            match name {
                $($loop => undeclared(spec, $k),)*
                other => panic!("no undeclared twin for loop `{other}`"),
            }
        };
    }
    twins! {
        "init_state" => mk::init_state,
        "compute_step_factor" => mk::compute_step_factor,
        "compute_flux_edge" => mk::compute_flux_edge,
        "boundary_flux" => mk::boundary_flux,
        "time_step" => mk::time_step,
        "restrict" => mk::restrict,
        "prolong" => mk::prolong,
        "rms_flow" => mk::rms_residual,
        "calc_dt_min" => mk::calc_dt_min,
        "update" => mk::update,
        "edge_flux" => mk::edge_flux,
        "write_pres" => mk::write_pres,
        "init_fields" => hk::init_fields,
        "sumbwts" => hk::sumbwts,
        "periodsym" => hk::periodsym,
        "centreline" => hk::centreline,
        "edgelength" => hk::edgelength,
        "periodicity" => hk::periodicity,
        "negflag" => hk::negflag,
        "limxp" => hk::limxp,
        "edgecon" => hk::edgecon,
        "period" => hk::period,
        "initres" => hk::initres,
        "vflux_edge" => hk::vflux_edge,
        "initviscres" => hk::initviscres,
        "iflux_edge" => hk::iflux_edge,
        "jac_period" => hk::jac_period,
        "jac_centreline" => hk::jac_centreline,
        "jac_corrections" => hk::jac_corrections,
        "update_state" => hk::update_state,
        "smooth_rg" => hk::smooth_rg,
        "jac_assemble" => hk::jac_assemble,
        "rk_accumulate" => hk::rk_accumulate,
        "residual_norm" => hk::residual_norm,
    }
}

/// Every dat's and global's bits after running `spec` under `sched` on
/// a copy of `dom`.
fn after(dom: &Domain, spec: &LoopSpec, sched: &Schedule) -> Vec<Vec<u64>> {
    let mut dom = dom.clone();
    let result = run_loop_schedule(&mut dom, spec, sched);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    dom.dats()
        .iter()
        .map(|d| bits(&d.data))
        .chain(result.gbls.iter().map(|g| bits(g)))
        .collect()
}

/// What [`check_loops`] saw: how many loops took the owner-computes
/// lowering, and how many bound with the locality gate on.
struct Seen {
    owned: usize,
    prefetched: usize,
}

/// `loops` in order on `dom`: each declared loop against its undeclared
/// twin over a range, a list and the 2-thread lowering, bitwise; then
/// the declared loop advances `dom`.
fn check_loops(dom: &mut Domain, loops: &[LoopSpec]) -> Seen {
    let mut seen = Seen {
        owned: 0,
        prefetched: 0,
    };
    for spec in loops {
        spec.validate(dom).unwrap();
        assert!(spec.kernel.shape().is_some(), "loop `{}` is undeclared", spec.name);
        let twin = twin(spec);
        assert!(twin.kernel.shape().is_none());
        let n = dom.set(spec.set).size;
        let list: Vec<u32> = (0..n as u32).filter(|e| e % 3 != 1).collect();
        let threaded = thread_schedule(dom.maps(), &spec.sig(), 0, n, 2, 64, &dom.set_sizes());
        seen.owned += usize::from(owner_computes_accesses(dom.maps(), &spec.sig()).is_some());
        let mut gbls: Vec<Vec<f64>> = spec.gbls.iter().map(|g| g.init.clone()).collect();
        seen.prefetched +=
            usize::from(BoundLoop::bind(&mut dom.clone(), spec, &mut gbls).prefetches());
        for (what, sched) in [
            ("range", Schedule::range(n / 5, n)),
            ("list", Schedule::list(list)),
            ("2-thread lowering", threaded),
        ] {
            assert_eq!(
                after(dom, spec, &sched),
                after(dom, &twin, &sched),
                "loop `{}`, {what}",
                spec.name
            );
        }
        run_loop_schedule(dom, spec, &Schedule::range(0, n));
    }
    seen
}

/// Every loop of a program, chains flattened, in order.
fn mg_loops(steps: Vec<MgStep>) -> Vec<LoopSpec> {
    steps
        .into_iter()
        .flat_map(|s| match s {
            MgStep::Loop(l) => vec![l],
            MgStep::Chain(c) => c.loops,
        })
        .collect()
}

fn hydra_loops(steps: Vec<HydraStep>) -> Vec<LoopSpec> {
    steps
        .into_iter()
        .flat_map(|s| match s {
            HydraStep::Loop(l) => vec![l],
            HydraStep::Chain(c, _) => c.loops,
        })
        .collect()
}

/// Every MG-CFD loop, both levels, with the node and edge sets of both
/// levels shuffled if `shuffled`.
fn check_mgcfd(shuffled: bool) -> Seen {
    let mut app = MgCfd::new(MgCfdParams::small(8));
    assert_eq!(app.levels.len(), 2);
    if shuffled {
        for (k, ids) in app.levels.iter().map(|l| l.ids).enumerate() {
            shuffle_set(&mut app.dom, ids.nodes, 2 * k as u64 + 1);
            shuffle_set(&mut app.dom, ids.edges, 2 * k as u64 + 2);
        }
    }
    let mut loops = vec![app.init_loop(0), app.init_loop(1)];
    loops.extend(mg_loops(app.iteration(true)));
    loops.extend(mg_loops(app.iteration(false)));
    loops.push(app.rms_loop());
    loops.push(app.dt_min_loop());
    let mut dom = app.dom.clone();
    let seen = check_loops(&mut dom, &loops);
    assert!(
        seen.owned > 0,
        "no MG-CFD loop took the owner-computes windows"
    );
    seen
}

/// Every Hydra loop, with the node set shuffled if `shuffled`.
fn check_hydra(shuffled: bool) -> Seen {
    let mut app = Hydra::new(HydraParams::small(6));
    if shuffled {
        shuffle_set(&mut app.mesh.dom, app.mesh.nodes, 3);
    }
    let mut loops = vec![app.init_loop()];
    for ca in [true, false] {
        loops.extend(hydra_loops(app.setup(ca, ExtentMode::Safe)));
        loops.extend(hydra_loops(app.iteration(ca, ExtentMode::Safe)));
    }
    loops.push(app.norm_loop());
    let mut dom = app.mesh.dom.clone();
    let seen = check_loops(&mut dom, &loops);
    assert!(
        seen.owned > 0,
        "no Hydra loop took the owner-computes windows"
    );
    seen
}

#[test]
fn mgcfd_declared_loops_match_undeclared_bitwise() {
    check_mgcfd(false);
}

#[test]
fn hydra_declared_loops_match_undeclared_bitwise() {
    check_hydra(false);
}

/// The prefetching walk against the undeclared reference, bitwise.
#[test]
fn mgcfd_declared_loops_match_undeclared_on_a_shuffled_mesh() {
    assert!(
        check_mgcfd(true).prefetched > 0,
        "no shuffled MG-CFD loop prefetched"
    );
}

#[test]
fn hydra_declared_loops_match_undeclared_on_a_shuffled_mesh() {
    assert!(
        check_hydra(true).prefetched > 0,
        "no shuffled Hydra loop prefetched"
    );
}
