//! Checkpoint/restore micro-costs: what the self-healing runtime pays
//! per snapshot and per rollback.
//!
//! Single-rank MG-CFD fixture with checkpointing attached manually
//! (auto-cadence disabled), four scenarios:
//!
//! * `iterate_only` — one solver iteration per rep, no snapshots: the
//!   baseline the take costs sit on top of;
//! * `take_dirty` — one solver iteration then `ckpt_take` per rep: the
//!   incremental snapshot copies only the iteration's write-set;
//! * `take_clean` — back-to-back `ckpt_take` with nothing mutated:
//!   every dat is version-clean and shares the previous epoch's buffer
//!   (`Arc` bump, no copy) — the dirty-tracking fast path;
//! * `rewind` — `ckpt_rewind` per rep: restore latency back to the
//!   newest checkpoint (full dat copy-back).

use criterion::{criterion_group, criterion_main, Criterion};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2_runtime::exec::run_loop;
use op2_runtime::{
    exec_job_program, run_distributed, CheckpointConfig, Job, JobStep, RankEnv, RankState,
    RuntimeError,
};
use std::hint::black_box;
use std::sync::{Arc, Mutex};

struct Fixture {
    app: MgCfd,
    layouts: Vec<RankLayout>,
}

fn fixture() -> Fixture {
    let mut params = MgCfdParams::small(10);
    params.levels = 1;
    let app = MgCfd::new(params);
    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, 1);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 1);
    let layouts = build_layouts(&app.dom, &own, 2);
    Fixture { app, layouts }
}

/// Run `body` REPS times on a fresh single-rank env with checkpointing
/// attached (manual takes only — the cadence is effectively infinite).
fn run_reps(
    fix: &mut Fixture,
    reps: usize,
    body: impl Fn(&mut RankEnv<'_>, &mut dyn FnMut(&mut RankEnv<'_>) -> Result<(), RuntimeError>) + Sync,
) {
    let init = fix.app.init_loop(0);
    let steps = fix.app.iteration(true).into_iter().map(JobStep::from);
    let iteration = Job::new("iteration", steps.collect(), 1);
    let slot = Arc::new(Mutex::new(RankState::new()));
    let slot_ref = &slot;
    let out = run_distributed(&mut fix.app.dom, &fix.layouts, |env| {
        env.ckpt_attach(CheckpointConfig::new(u64::MAX), Arc::clone(slot_ref));
        run_loop(env, &init)?;
        let mut step = |env: &mut RankEnv<'_>| exec_job_program(env, &iteration).map(drop);
        for _ in 0..reps {
            body(env, &mut step);
        }
        Ok(())
    });
    assert!(out.all_ok());
}

fn bench_checkpoint_restore(c: &mut Criterion) {
    const REPS: usize = 8;
    let mut g = c.benchmark_group("checkpoint_restore");
    g.throughput(criterion::Throughput::Elements(REPS as u64));

    g.bench_function("iterate_only", |b| {
        let mut fix = fixture();
        b.iter(|| {
            run_reps(&mut fix, REPS, |env, step| {
                step(env).unwrap();
            });
        })
    });
    g.bench_function("take_dirty", |b| {
        let mut fix = fixture();
        b.iter(|| {
            run_reps(&mut fix, REPS, |env, step| {
                step(env).unwrap();
                black_box(env.ckpt_take());
            });
        })
    });
    g.bench_function("take_clean", |b| {
        let mut fix = fixture();
        b.iter(|| {
            run_reps(&mut fix, REPS, |env, _step| {
                // Nothing mutated since the previous take: every dat is
                // version-clean and the snapshot is Arc reuse.
                black_box(env.ckpt_take());
            });
        })
    });
    g.bench_function("rewind", |b| {
        let mut fix = fixture();
        b.iter(|| {
            run_reps(&mut fix, REPS, |env, _step| {
                assert!(black_box(env.ckpt_rewind()));
            });
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_checkpoint_restore
}
criterion_main!(benches);
