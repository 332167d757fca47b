//! MG-CFD with the synthetic loop-chain (§4.1 of the paper).
//!
//! Runs the full mini-app — multigrid Euler solver plus the extendable
//! `update`/`edge_flux` chain — under the OP2 baseline and the CA
//! back-end, and prints per-backend message statistics plus the
//! numerical agreement between the two.
//!
//! Run with `cargo run --release --example mgcfd_chain`.

use op2::mgcfd::{job, run, run_sequential, MgCfd, MgCfdParams, Variant};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::RunOptions;

fn layouts_for(app: &MgCfd, nparts: usize) -> Vec<RankLayout> {
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, nparts);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, nparts);
    build_layouts(&app.dom, &own, app.required_depth())
}

fn main() {
    let mut params = MgCfdParams::small(14);
    params.nchains = 8; // a 16-loop synthetic chain
    let iters = 4;
    let nparts = 6;

    println!(
        "MG-CFD: {}^3-node finest grid, {} multigrid levels, chain of {} loops, {} ranks",
        params.finest.nx,
        params.levels,
        2 * params.nchains,
        nparts
    );

    // Sequential reference.
    let mut seq_app = MgCfd::new(params);
    let seq = run_sequential(&mut seq_app, iters);
    println!("sequential  : final flow norm {:.6}", seq.rms);

    // OP2 baseline.
    let mut op2_app = MgCfd::new(params);
    let layouts = layouts_for(&op2_app, nparts);
    let op2_job = job(&op2_app, Variant::Op2, iters);
    let op2 = run(&mut op2_app, &layouts, &op2_job, &RunOptions::default()).expect("OP2 run");
    let op2_msgs: usize = op2.traces.iter().map(|t| t.total_msgs()).sum();
    let op2_bytes: usize = op2.traces.iter().map(|t| t.total_bytes()).sum();
    println!(
        "OP2 baseline: final flow norm {:.6}, {} msgs, {} B exchanged",
        op2.rms, op2_msgs, op2_bytes
    );

    // CA back-end.
    let mut ca_app = MgCfd::new(params);
    let layouts = layouts_for(&ca_app, nparts);
    let ca_job = job(&ca_app, Variant::Ca, iters);
    let ca = run(&mut ca_app, &layouts, &ca_job, &RunOptions::default()).expect("CA run");
    let ca_msgs: usize = ca.traces.iter().map(|t| t.total_msgs()).sum();
    let ca_bytes: usize = ca.traces.iter().map(|t| t.total_bytes()).sum();
    println!(
        "CA back-end : final flow norm {:.6}, {} msgs, {} B exchanged",
        ca.rms, ca_msgs, ca_bytes
    );

    let rel = (seq.rms - ca.rms).abs() / seq.rms.abs().max(1e-30);
    println!(
        "agreement   : |seq - CA| / |seq| = {rel:.3e}; message reduction {:.1}%",
        100.0 * (1.0 - ca_msgs as f64 / op2_msgs.max(1) as f64)
    );
    assert!(rel < 1e-10);
    assert!(ca_msgs < op2_msgs);
    println!("ok");
}
