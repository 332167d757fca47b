//! Quickstart: the paper's running example (Figures 1–3).
//!
//! Builds a small 2D quad mesh (nodes, edges, cells), declares the
//! `res`/`pres`/`cw`/`flux` dats of Figure 3, registers the two-loop
//! chain `update` → `edge_flux`, and runs it three ways:
//!
//! 1. sequentially (the reference);
//! 2. distributed over 4 ranks with standard OP2 (Alg 1 — one halo
//!    exchange per loop);
//! 3. distributed with the CA back-end (Alg 2 — one grouped, depth-2
//!    exchange for the whole chain).
//!
//! Run with `cargo run --example quickstart`.

use op2::core::{kernel, seq, AccessMode, Arg, Args, ChainSpec, LoopSpec};
use op2::mesh::Quad2D;
use op2::partition::{build_layouts, derive_ownership, rcb_partition};
use op2::runtime::exec::{run_chain, run_loop};
use op2::runtime::run_distributed;

kernel! {
    /// Figure 2, lines 4-11: edges increment node residuals from pressures.
    fn update(args: &Args<'_>) {
        args.inc(0, 0, args.get(2, 0) - args.get(2, 1));
        args.inc(0, 1, args.get(3, 0) - args.get(3, 1));
        args.inc(1, 0, args.get(3, 1) - args.get(3, 0));
        args.inc(1, 1, args.get(2, 1) - args.get(2, 0));
    }

    /// Figure 2, lines 14-29: edges accumulate fluxes from residuals and
    /// the cell weights either side.
    fn edge_flux(args: &Args<'_>) {
        // args: res1 res2 (READ), cw1 cw2 (READ), flux1 flux2 (INC)
        args.inc(4, 0, args.get(0, 0) * args.get(2, 0) - args.get(0, 1) * args.get(2, 1));
        args.inc(4, 1, args.get(1, 1) * args.get(2, 2) - args.get(1, 0) * args.get(2, 3));
        args.inc(5, 0, args.get(1, 1) * args.get(3, 2) - args.get(0, 1) * args.get(3, 3));
        args.inc(5, 1, args.get(0, 0) * args.get(3, 0) - args.get(0, 1) * args.get(3, 1));
    }
}

fn main() {
    // The mesh of Figure 1: nodes, edges, quadrilateral cells.
    let mut m = Quad2D::generate(16, 12);
    let n_nodes = m.dom.set(m.nodes).size;
    let n_cells = m.dom.set(m.cells).size;
    println!(
        "mesh: {} nodes, {} edges, {} cells",
        n_nodes,
        m.dom.set(m.edges).size,
        n_cells
    );

    // Figure 3's dat declarations.
    let pres: Vec<f64> = (0..n_nodes * 2).map(|i| (i as f64 * 0.37).sin()).collect();
    let cw: Vec<f64> = (0..n_cells * 4).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    let dres = m.dom.decl_dat_zeros("res", m.nodes, 2);
    let dpres = m.dom.decl_dat("pres", m.nodes, 2, pres);
    let dcw = m.dom.decl_dat("cw", m.cells, 4, cw);
    let dflux = m.dom.decl_dat_zeros("flux", m.nodes, 2);

    // Figure 3's op_par_loop declarations.
    let update_loop = LoopSpec::new(
        "update",
        m.edges,
        vec![
            Arg::dat_indirect(dres, m.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(dres, m.e2n, 1, AccessMode::Inc),
            Arg::dat_indirect(dpres, m.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(dpres, m.e2n, 1, AccessMode::Read),
        ],
        update,
    );
    let flux_loop = LoopSpec::new(
        "edge_flux",
        m.edges,
        vec![
            Arg::dat_indirect(dres, m.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(dres, m.e2n, 1, AccessMode::Read),
            Arg::dat_indirect(dcw, m.e2c, 0, AccessMode::Read),
            Arg::dat_indirect(dcw, m.e2c, 1, AccessMode::Read),
            Arg::dat_indirect(dflux, m.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(dflux, m.e2n, 1, AccessMode::Inc),
        ],
        edge_flux,
    );
    update_loop.validate(&m.dom).unwrap();
    flux_loop.validate(&m.dom).unwrap();

    // The 2-loop chain: the analysis derives halo extents [2, 1] — the
    // producer computes one redundant layer deeper (Figure 7).
    let chain = ChainSpec::new(
        "update_flux",
        vec![update_loop.clone(), flux_loop.clone()],
        None,
        &[],
    )
    .unwrap();
    println!(
        "chain halo extents: {:?} (update needs depth 2)",
        chain.halo_ext
    );

    // A small writer that refreshes `pres` each outer iteration (as a
    // real solver would), dirtying its halos so every chain execution
    // genuinely exchanges data.
    kernel! {
        fn perturb(args: &Args<'_>) {
            args.set(0, 0, args.get(0, 0) * 0.9 + 0.01);
            args.set(0, 1, args.get(0, 1) * 0.9 - 0.01);
        }
    }
    let perturb_loop = LoopSpec::new(
        "perturb",
        m.nodes,
        vec![Arg::dat_direct(dpres, AccessMode::Rw)],
        perturb,
    );

    let iters = 3;
    // 1. Sequential reference.
    let mut seq_dom = m.dom.clone();
    for _ in 0..iters {
        seq::run_loop(&mut seq_dom, &perturb_loop);
        seq::run_loop(&mut seq_dom, &update_loop);
        seq::run_loop(&mut seq_dom, &flux_loop);
    }

    // Partition the nodes over 4 ranks; derive everything else.
    let nparts = 4;
    let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
    let own = derive_ownership(&m.dom, m.nodes, base, nparts);
    let layouts = build_layouts(&m.dom, &own, 2);

    // 2. Standard OP2 (per-loop exchanges).
    let mut op2_dom = m.dom.clone();
    let op2 = run_distributed(&mut op2_dom, &layouts, |env| {
        for _ in 0..iters {
            run_loop(env, &perturb_loop)?;
            run_loop(env, &update_loop)?;
            run_loop(env, &flux_loop)?;
        }
        Ok(())
    });
    assert!(op2.all_ok());

    // 3. CA back-end (one grouped exchange per chain execution).
    let ca = run_distributed(&mut m.dom, &layouts, |env| {
        for _ in 0..iters {
            run_loop(env, &perturb_loop)?;
            run_chain(env, &chain)?;
        }
        Ok(())
    });
    assert!(ca.all_ok());

    // Same numbers, fewer messages.
    let max_err = seq_dom
        .dat(dflux)
        .data
        .iter()
        .zip(&m.dom.dat(dflux).data)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("max |CA - sequential| on flux: {max_err:.3e}");
    let op2_msgs: usize = op2.traces.iter().map(|t| t.total_msgs()).sum();
    let ca_msgs: usize = ca.traces.iter().map(|t| t.total_msgs()).sum();
    println!("messages: OP2 = {op2_msgs}, CA = {ca_msgs}");
    assert!(max_err < 1e-12);
    assert!(ca_msgs > 0 && ca_msgs < op2_msgs);
    println!("ok");
}
