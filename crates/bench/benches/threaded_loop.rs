//! Threaded execution: sequential vs per-rank pool runs of the
//! synthetic MG-CFD chain at 2/4/8 threads per rank.
//!
//! The chain is `[update, edge_flux] × nchains`. Both loops increment
//! nodes through the edge map by `OP_INC` alone, so both lower
//! owner-computes: the nodes are cut into one window per thread, and
//! each thread runs, in order, every edge that increments into its
//! window (a cut edge runs on each thread it increments for). Results
//! stay bitwise identical to the sequential executor, so the *only*
//! question this bench answers is throughput:
//!
//! * `seq` — single-threaded reference (`Threading::single()`);
//! * `threads_N` — the same chain on an N-thread pool (`block_size` 64
//!   only sets the smallest range worth pooling here).
//!
//! Caveat: on a single-core host the pool adds pure overhead — the
//! N-thread variants then measure the dispatch/sync cost, not speedup.

use criterion::{criterion_group, criterion_main, Criterion};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::ChainSpec;
use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2_runtime::exec::{run_chain, run_loop};
use op2_runtime::{run_distributed_with, RankEnv, RunOptions, RuntimeError, Threading};
use std::hint::black_box;

struct Fixture {
    app: MgCfd,
    layouts: Vec<RankLayout>,
    chain: ChainSpec,
}

fn fixture() -> Fixture {
    let mut params = MgCfdParams::small(12);
    params.levels = 1;
    params.nchains = 2;
    let app = MgCfd::new(params);
    let chain = app.synthetic_chain().expect("synthetic chain valid");
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, 2);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 2);
    let layouts = build_layouts(&app.dom, &own, 2);
    Fixture {
        app,
        layouts,
        chain,
    }
}

/// Run `reps` chain invocations per rank with the given threading, after
/// an init loop that fills the flow field.
fn run_reps(fix: &mut Fixture, reps: usize, threading: Threading) {
    let init = fix.app.init_loop(0);
    let chain = fix.chain.clone();
    let opts = RunOptions::default().threading(threading);
    let body = |env: &mut RankEnv<'_>| -> Result<(), RuntimeError> {
        run_loop(env, &init)?;
        for _ in 0..reps {
            run_chain(env, black_box(&chain))?;
        }
        Ok(())
    };
    let out = run_distributed_with(&mut fix.app.dom, &fix.layouts, &opts, body);
    assert!(out.all_ok());
}

fn bench_threaded_loop(c: &mut Criterion) {
    const REPS: usize = 8;
    let mut g = c.benchmark_group("threaded_loop");
    g.throughput(criterion::Throughput::Elements(REPS as u64));

    g.bench_function("seq", |b| {
        let mut fix = fixture();
        b.iter(|| run_reps(&mut fix, REPS, Threading::single()));
    });
    for n_threads in [2usize, 4, 8] {
        g.bench_function(format!("threads_{n_threads}"), |b| {
            let mut fix = fixture();
            let threading = Threading { n_threads, block_size: 64 };
            b.iter(|| run_reps(&mut fix, REPS, threading));
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_threaded_loop
}
criterion_main!(benches);
