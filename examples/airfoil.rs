//! Airfoil: the classic OP2 demonstration application, re-expressed on
//! this runtime.
//!
//! Airfoil is a 2D cell-centred, finite-volume, non-linear Euler solver
//! — the canonical OP2 example (Mudalige et al. 2012). This version
//! runs a structurally faithful reduced scheme over a quad mesh:
//!
//! * `save_soln` — cells, direct: old state snapshot;
//! * `adt_calc`  — cells, direct: local time step from the state;
//! * `res_calc`  — edges: reads the two adjacent cells' states
//!   (via `e2c`), increments both cells' residuals — the hot indirect
//!   loop;
//! * `update`    — cells, direct: advance state, compute the RMS
//!   residual (a global reduction).
//!
//! The `adt_calc → res_calc` pair forms a loop-chain; the time-marching
//! loop runs it under the CA back-end and prints the message counts
//! against the per-loop baseline.
//!
//! Run with `cargo run --example airfoil`.

use op2::core::{kernel, AccessMode, Arg, Args, ChainSpec, GblDecl, LoopSpec};
use op2::mesh::Quad2D;
use op2::partition::{build_layouts, derive_ownership, rcb_partition};
use op2::runtime::exec::{run_chain, run_loop};
use op2::runtime::{run_distributed, CallKind};

const GAM: f64 = 1.4;

kernel! {
    fn save_soln(args: &Args<'_>) {
        for v in 0..4 {
            args.set(1, v, args.get(0, v));
        }
    }

    fn adt_calc(args: &Args<'_>) {
        // args: q READ, adt WRITE
        let rho = args.get(0, 0).max(1e-9);
        let u = args.get(0, 1) / rho;
        let vv = args.get(0, 2) / rho;
        let p = (GAM - 1.0) * (args.get(0, 3) - 0.5 * rho * (u * u + vv * vv));
        let c = (GAM * p.max(1e-9) / rho).sqrt();
        args.set(1, 0, 1.0 / (c + (u * u + vv * vv).sqrt() + 1e-9));
    }

    fn res_calc(args: &Args<'_>) {
        // args: q1 q2 READ (cells), adt1 adt2 READ, res1 res2 INC
        let mut f = [0.0; 4];
        #[allow(clippy::needless_range_loop)]
        for v in 0..4 {
            let dq = args.get(1, v) - args.get(0, v);
            let mean = 0.5 * (args.get(0, v) + args.get(1, v));
            f[v] = 0.05 * mean - 0.1 * dq / (args.get(2, 0) + args.get(3, 0) + 1e-9);
        }
        for (v, &fv) in f.iter().enumerate() {
            args.inc(4, v, fv);
            args.inc(5, v, -fv);
        }
    }

    fn update_cells(args: &Args<'_>) {
        // args: qold READ, q WRITE, res RW, adt READ, rms gbl INC
        let dt = args.get(3, 0) * 0.05;
        let mut rms = 0.0;
        for v in 0..4 {
            let r = args.get(2, v);
            args.set(1, v, args.get(0, v) + dt * r);
            args.set(2, v, 0.0);
            rms += r * r;
        }
        args.inc(4, 0, rms);
    }
}

fn main() {
    let mut m = Quad2D::generate(60, 40);
    let n_cells = m.dom.set(m.cells).size;
    println!(
        "airfoil mesh: {} cells, {} interior edges",
        n_cells,
        m.dom.set(m.edges).size
    );

    // Freestream initial state.
    let q0: Vec<f64> = (0..n_cells)
        .flat_map(|i| {
            let bump = 1.0 + 0.02 * ((i % 17) as f64 / 17.0);
            [bump, 0.3 * bump, 0.0, 2.5 * bump]
        })
        .collect();
    let q = m.dom.decl_dat("q", m.cells, 4, q0);
    let qold = m.dom.decl_dat_zeros("qold", m.cells, 4);
    let adt = m.dom.decl_dat_zeros("adt", m.cells, 1);
    let res = m.dom.decl_dat_zeros("res", m.cells, 4);

    let save = LoopSpec::new(
        "save_soln",
        m.cells,
        vec![
            Arg::dat_direct(q, AccessMode::Read),
            Arg::dat_direct(qold, AccessMode::Write),
        ],
        save_soln,
    );
    let adt_loop = LoopSpec::new(
        "adt_calc",
        m.cells,
        vec![
            Arg::dat_direct(q, AccessMode::Read),
            Arg::dat_direct(adt, AccessMode::Write),
        ],
        adt_calc,
    );
    let res_loop = LoopSpec::new(
        "res_calc",
        m.edges,
        vec![
            Arg::dat_indirect(q, m.e2c, 0, AccessMode::Read),
            Arg::dat_indirect(q, m.e2c, 1, AccessMode::Read),
            Arg::dat_indirect(adt, m.e2c, 0, AccessMode::Read),
            Arg::dat_indirect(adt, m.e2c, 1, AccessMode::Read),
            Arg::dat_indirect(res, m.e2c, 0, AccessMode::Inc),
            Arg::dat_indirect(res, m.e2c, 1, AccessMode::Inc),
        ],
        res_calc,
    );
    let update = LoopSpec::with_gbls(
        "update",
        m.cells,
        vec![
            Arg::dat_direct(qold, AccessMode::Read),
            Arg::dat_direct(q, AccessMode::Write),
            Arg::dat_direct(res, AccessMode::Rw),
            Arg::dat_direct(adt, AccessMode::Read),
            Arg::gbl(0, AccessMode::Inc),
        ],
        vec![GblDecl::reduction(1)],
        update_cells,
    );
    for l in [&save, &adt_loop, &res_loop, &update] {
        l.validate(&m.dom).unwrap();
    }

    // adt_calc → res_calc as a chain: adt is written directly, read
    // indirectly by res_calc, so the chain imports it once, grouped.
    let chain = ChainSpec::new(
        "adt_res",
        vec![adt_loop.clone(), res_loop.clone()],
        None,
        &[],
    )
    .unwrap();
    println!("chain extents: {:?}", chain.halo_ext);

    let nparts = 4;
    let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
    let own = derive_ownership(&m.dom, m.nodes, base, nparts);
    let layouts = build_layouts(&m.dom, &own, 2);

    let iters = 20;
    let out = run_distributed(&mut m.dom, &layouts, |env| {
        let mut rms = 0.0;
        for _ in 0..iters {
            run_loop(env, &save)?;
            run_chain(env, &chain)?;
            let r = run_loop(env, &update)?;
            rms = (r.gbls[0][0] / n_cells as f64).sqrt();
        }
        Ok(rms)
    });
    let total_msgs: usize = out.traces.iter().map(|t| t.total_msgs()).sum();
    let chain_msgs: usize = (out.traces.iter().flat_map(|t| &t.totals))
        .filter(|s| s.kind == CallKind::Chain)
        .map(|s| s.exch.n_msgs)
        .sum();
    let rms = out.unwrap_results()[0];

    println!("final rms residual after {iters} iterations: {rms:.6e}");
    println!("messages total: {total_msgs} (chains contributed {chain_msgs})");
    assert!(rms.is_finite());
    println!("ok");
}
