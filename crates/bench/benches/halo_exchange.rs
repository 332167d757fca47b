//! Halo-exchange engine micro-benchmarks.
//!
//! Three angles on the persistent communication engine:
//!
//! * `buffer_pool` — borrow/return against the per-peer pool vs a fresh
//!   heap allocation per message: the steady-state cost the pooled
//!   engine removes from every send.
//! * `ping_pong` — send/recv round trips of the transport itself at
//!   several payload sizes: the payload moves by pointer, so a round
//!   costs the channel hand-offs, not the bytes. Buffers circulate
//!   through the pools (zero allocations after warm-up).
//! * `executor` — the real planned CA chain round (grouped message per
//!   neighbour, pooled buffers, arrival-order unpack) vs the flattened
//!   per-loop path (one message per dat per neighbour) on a 4-rank
//!   synthetic MG-CFD chain.
//!
//! The machine-readable counterpart is the `mgcfd-wire` workload of
//! `benchmark/`: its `result.json` carries the traced `comm.pack_ms` /
//! `comm.unpack_ms` / `comm.wait_ms` and `comm.payload_allocs_steady`
//! of the same two executor modes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::ChainSpec;
use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2_runtime::exec::{run_chain, run_loop};
use op2_runtime::{CommWorld, RankEnv, RuntimeError};
use std::hint::black_box;

fn bench_buffer_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_pool");
    for n_f64s in [512usize, 8192] {
        g.throughput(Throughput::Bytes((n_f64s * 8) as u64));
        g.bench_with_input(BenchmarkId::new("pooled", n_f64s), &n_f64s, |b, &n| {
            let mut rc = CommWorld::new(1).into_ranks().remove(0);
            rc.ensure_buf(0, n);
            b.iter(|| {
                let buf = rc.take_buf(0, n);
                rc.recycle(0, black_box(buf));
            })
        });
        g.bench_with_input(BenchmarkId::new("fresh_alloc", n_f64s), &n_f64s, |b, &n| {
            b.iter(|| {
                let buf: Vec<f64> = Vec::with_capacity(n);
                black_box(buf);
            })
        });
    }
    g.finish();
}

fn bench_ping_pong(c: &mut Criterion) {
    let mut g = c.benchmark_group("ping_pong");
    for n_f64s in [512usize, 8192] {
        // One round moves the payload out and back: 2·n·8 bytes.
        g.throughput(Throughput::Bytes((2 * n_f64s * 8) as u64));
        g.bench_with_input(BenchmarkId::new("pooled", n_f64s), &n_f64s, |b, &n| {
            let mut ranks = CommWorld::new(2).into_ranks();
            let mut r1 = ranks.remove(1);
            let mut r0 = ranks.remove(0);
            r0.ensure_buf(1, n);
            let mut tag = 0u64;
            b.iter(|| {
                tag += 2;
                let mut buf = r0.take_buf(1, n);
                buf.resize(n, 1.0);
                r0.isend(1, tag, buf);
                let data = r1.recv(0, tag).expect("ping");
                r1.isend(0, tag + 1, data);
                let back = r0.recv(1, tag + 1).expect("pong");
                r0.recycle(1, black_box(back));
            })
        });
        g.bench_with_input(BenchmarkId::new("fresh_alloc", n_f64s), &n_f64s, |b, &n| {
            let mut ranks = CommWorld::new(2).into_ranks();
            let mut r1 = ranks.remove(1);
            let mut r0 = ranks.remove(0);
            let mut tag = 0u64;
            b.iter(|| {
                tag += 2;
                let buf = vec![1.0f64; n];
                r0.isend(1, tag, buf);
                let data = r1.recv(0, tag).expect("ping");
                r1.isend(0, tag + 1, data);
                let back = r0.recv(1, tag + 1).expect("pong");
                black_box(back);
            })
        });
    }
    g.finish();
}

struct Fixture {
    app: MgCfd,
    layouts: Vec<RankLayout>,
    chain: ChainSpec,
}

fn fixture() -> Fixture {
    let mut params = MgCfdParams::small(10);
    params.levels = 1;
    params.nchains = 2;
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

fn run_reps(
    fix: &mut Fixture,
    reps: usize,
    body: impl Fn(&mut RankEnv<'_>, &ChainSpec) -> Result<(), RuntimeError> + Sync,
) {
    let init = fix.app.init_loop(0);
    let chain = fix.chain.clone();
    let out = op2_runtime::run_distributed(&mut fix.app.dom, &fix.layouts, |env| {
        run_loop(env, &init)?;
        for _ in 0..reps {
            body(env, &chain)?;
        }
        Ok(())
    });
    assert!(out.all_ok());
}

fn bench_executor(c: &mut Criterion) {
    const REPS: usize = 8;
    let mut g = c.benchmark_group("exchange_executor");
    g.throughput(Throughput::Elements(REPS as u64));
    g.bench_function("grouped_planned", |b| {
        let mut fix = fixture();
        b.iter(|| {
            run_reps(&mut fix, REPS, |env, chain| run_chain(env, black_box(chain)));
        })
    });
    g.bench_function("per_loop", |b| {
        let mut fix = fixture();
        b.iter(|| {
            run_reps(&mut fix, REPS, |env, chain| {
                for spec in &chain.loops {
                    run_loop(env, spec)?;
                }
                Ok(())
            });
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_buffer_pool, bench_ping_pong, bench_executor
}
criterion_main!(benches);
