//! Shared-memory sparse tiling (§2.2's second CA level).
//!
//! Builds the Luporini tile-growth schedule for an 8-loop synthetic
//! chain over an MG-CFD mesh, prints how the tiles grow (every loop's
//! boundary iterations migrate forward to satisfy dependencies), and
//! verifies tiled execution equals plain loop-by-loop sweeps.
//!
//! Run with `cargo run --release --example sparse_tiling`.

use op2::core::conflict::chain_accesses;
use op2::core::tiling::{build_tile_plan, run_chain_tiled, seed_blocks};
use op2::core::{seq, Chunk, Schedule};
use op2::mgcfd::{MgCfd, MgCfdParams};

fn main() {
    let mut params = MgCfdParams::small(16);
    params.levels = 1;
    params.nchains = 4;
    let mut app = MgCfd::new(params);
    let init = app.init_loop(0);
    seq::run_loop(&mut app.dom, &init);
    let write_pres = app.write_pres_loop();
    seq::run_loop(&mut app.dom, &write_pres);

    let chain = app.synthetic_chain().unwrap();
    let n_edges = app.dom.set(app.levels[0].ids.edges).size;
    println!(
        "chain of {} loops over {} edges; halo extents {:?}",
        chain.len(),
        n_edges,
        chain.halo_ext
    );

    let n_tiles = 8;
    let seed = seed_blocks(n_edges, n_tiles);
    let plan = build_tile_plan(&app.dom, &chain.sigs(), &seed);
    println!("\ntile sizes per loop (tiles grow forward to satisfy deps):");
    print!("{:>8}", "loop");
    for t in 0..n_tiles {
        print!("{:>7}", format!("T{t}"));
    }
    println!();
    for (j, per_tile) in plan.iters.iter().enumerate() {
        print!("{:>8}", chain.loops[j].name);
        for bucket in per_tile {
            print!("{:>7}", bucket.len());
        }
        println!();
    }

    // Tiled execution must equal plain sweeps.
    let mut plain = app.dom.clone();
    for l in &chain.loops {
        seq::run_loop(&mut plain, l);
    }
    run_chain_tiled(&mut app.dom, &chain, &plan);
    let dflux = app.dflux;
    let max_err = plain
        .dat(dflux)
        .data
        .iter()
        .zip(&app.dom.dat(dflux).data)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        / plain
            .dat(dflux)
            .data
            .iter()
            .fold(1e-30f64, |m, v| m.max(v.abs()));
    println!("\nmax relative |tiled - plain| on dflux: {max_err:.3e}");
    assert!(max_err < 1e-12);

    // The level table of the schedule `run_chain_tiled` just walked.
    let accesses = chain_accesses(app.dom.maps(), &chain.sigs());
    let sched = Schedule::from_tile_plan(&plan, &accesses, &app.dom.set_sizes());
    println!(
        "\nconflict levels: {} levels over {} tiles, level of each tile: {:?}",
        sched.n_levels(),
        plan.n_tiles,
        plan.levels
    );
    for (lv, level) in sched.levels.iter().enumerate() {
        let iters: usize = level.chunks.iter().map(Chunk::iters).sum();
        println!("  level {lv}: {} tiles, {iters} iterations", level.chunks.len());
    }
    println!("ok");
}
