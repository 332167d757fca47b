//! Inspector amortization: cold-plan vs cached-plan `run_chain`.
//!
//! The planned chain executor splits inspection (halo-layer analysis,
//! import depths, pack index lists, message layout) from execution and
//! caches the result. This bench measures what that buys per
//! invocation on the synthetic MG-CFD `update`/`edge_flux` chain:
//!
//! * `cold` — a fresh plan cache is installed before every
//!   invocation, so each repetition pays the full inspector;
//! * `cached` — plans persist across repetitions, so after the warmup
//!   invocations every repetition replays cached pack lists;
//! * `unplanned` — the pre-subsystem inline-analysis executor, the
//!   baseline the plan path must beat once amortized.
//!
//! (cold − cached) per iteration ≈ the amortized inspector cost the
//! cache saves on every repeat invocation.

use criterion::{criterion_group, criterion_main, Criterion};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::ChainSpec;
use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2_runtime::exec::{run_chain, run_chain_unplanned, run_loop};
use op2_runtime::{run_distributed, PlanCache, RankEnv, RuntimeError};
use std::hint::black_box;

struct Fixture {
    app: MgCfd,
    layouts: Vec<RankLayout>,
    chain: ChainSpec,
}

fn fixture(nchains: usize) -> Fixture {
    let mut params = MgCfdParams::small(10);
    params.levels = 1;
    params.nchains = nchains;
    let app = MgCfd::new(params);
    let chain = app.synthetic_chain().expect("synthetic chain valid");
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, 4);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 4);
    let layouts = build_layouts(&app.dom, &own, 2);
    Fixture {
        app,
        layouts,
        chain,
    }
}

/// Run `reps` chain invocations per rank under `body`, after an init
/// loop that fills the flow field.
fn run_reps(
    fix: &mut Fixture,
    reps: usize,
    body: impl Fn(&mut RankEnv<'_>, &ChainSpec) -> Result<(), RuntimeError> + Sync,
) {
    let init = fix.app.init_loop(0);
    let chain = fix.chain.clone();
    let out = run_distributed(&mut fix.app.dom, &fix.layouts, |env| {
        run_loop(env, &init)?;
        for _ in 0..reps {
            body(env, &chain)?;
        }
        Ok(())
    });
    assert!(out.all_ok());
}

fn bench_plan_amortization(c: &mut Criterion) {
    const REPS: usize = 8;
    let mut g = c.benchmark_group("plan_cache");
    g.throughput(criterion::Throughput::Elements(REPS as u64));

    for nchains in [1usize, 4] {
        let n_loops = 2 * nchains;
        g.bench_function(format!("cold_{n_loops}loops"), |b| {
            let mut fix = fixture(nchains);
            b.iter(|| {
                run_reps(&mut fix, REPS, |env, chain| {
                    // A fresh cache before every invocation: every rep
                    // pays the full inspector.
                    env.plans = PlanCache::new();
                    run_chain(env, black_box(chain))
                });
            })
        });
        g.bench_function(format!("cached_{n_loops}loops"), |b| {
            let mut fix = fixture(nchains);
            b.iter(|| {
                run_reps(&mut fix, REPS, |env, chain| {
                    run_chain(env, black_box(chain))
                });
            })
        });
        g.bench_function(format!("unplanned_{n_loops}loops"), |b| {
            let mut fix = fixture(nchains);
            b.iter(|| {
                run_reps(&mut fix, REPS, |env, chain| {
                    run_chain_unplanned(env, black_box(chain))
                });
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_plan_amortization
}
criterion_main!(benches);
