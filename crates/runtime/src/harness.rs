//! The rank harness: spawn, run, contain, collect.
//!
//! [`run_distributed`] is the reproduction's `mpirun`: it wires a
//! [`CommWorld`], spawns one OS thread per rank, hands each a fresh
//! [`RankEnv`] over its layout, runs the caller's program closure, and
//! afterwards scatters every rank's owned data back into the global
//! domain (halo copies are discarded — owners are authoritative, exactly
//! as in OP2's fetch semantics).
//!
//! While a world runs, every dat exists once, as the ranks' local
//! copies. Before the ranks spawn, each dat's payload moves out of the
//! [`Domain`] into one shared buffer; each rank gathers its copy one dat
//! at a time through [`RankLayout::gather`] and drops its handle as soon
//! as it has, so the last rank to gather a dat frees it. Inside the
//! world, `env.dom` holds metadata and empty payloads. After it, the
//! global payload is rebuilt one dat at a time from every rank's owned
//! part ([`RankLayout::scatter_owned`]), and each rank buffer is freed as
//! soon as it has been scattered.
//!
//! Unlike a real `mpirun`, a failing rank does not take the job down:
//! each rank runs under `catch_unwind`, and both panics (including
//! fault-injected crashes) and [`RuntimeError`]s are reported as that
//! rank's [`RankFailure`] in [`DistOutcome::results`]. Whenever a rank
//! exits — success or failure — it broadcasts a hangup sentinel, so
//! peers blocked on it unwind promptly with
//! [`PeerHangup`](crate::comm::CommError::PeerHangup) instead of
//! sitting out their full receive deadline. A failed rank's copy is the
//! only one, so it is scattered back too: its owned elements hold what
//! the rank had computed when it failed (its pre-run values if it
//! failed before computing).
//!
//! [`RunOptions`] is the whole configuration of a run: the harness
//! copies its threading into every rank's [`RankEnv::threading`] and
//! reads nothing from the process environment.

use crate::comm::{CommConfig, CommWorld};
use crate::env::RankEnv;
use crate::error::{RankFailure, RuntimeError};
use crate::fault::FaultPlan;
use crate::threads::Threading;
use crate::trace::RankTrace;
use op2_core::{DatId, Domain};
use op2_partition::RankLayout;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Schedule drain selector, kept only so callers that name it still
/// build: both variants select the one drain, one round of a one-level
/// schedule ([`crate::threads::run_schedule_pooled_ctx`]), so results
/// and traces are identical under either.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// The one drain.
    #[default]
    Levels,
    /// The same drain as [`ExecMode::Levels`].
    Dataflow,
}

/// Everything that configures a distributed run besides the program
/// itself. The defaults: a perfect network, the default receive policy
/// and one thread per rank.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Fault plan to subject the run's traffic (and boundaries) to.
    pub faults: Option<Arc<FaultPlan>>,
    /// Receive-side deadline/retry policy.
    pub comm: CommConfig,
    /// Intra-rank threading for kernel execution, **per rank**, block
    /// size included.
    pub threading: Threading,
}

impl RunOptions {
    /// Options for a chaos run under `plan`.
    pub fn with_faults(plan: FaultPlan) -> Self {
        RunOptions {
            faults: Some(Arc::new(plan)),
            ..RunOptions::default()
        }
    }

    /// Override the receive policy (builder style).
    pub fn comm_config(mut self, comm: CommConfig) -> Self {
        self.comm = comm;
        self
    }

    /// Run every rank's kernels on `n_threads` threads (builder style).
    pub fn with_threads(mut self, n_threads: usize) -> Self {
        self.threading = Threading::with_threads(n_threads);
        self
    }

    /// Full per-rank threading configuration (builder style).
    pub fn threading(mut self, threading: Threading) -> Self {
        self.threading = threading;
        self
    }

    /// No effect: every [`ExecMode`] selects the one drain (builder
    /// style, kept for callers that name a mode).
    pub fn exec(self, _mode: ExecMode) -> Self {
        self
    }
}

/// Everything a distributed run returns.
#[derive(Debug)]
pub struct DistOutcome<R> {
    /// Per-rank instrumentation, indexed by rank. Present for failed
    /// ranks too (whatever they recorded before dying), including the
    /// transport counters in [`RankTrace::comm`].
    pub traces: Vec<RankTrace>,
    /// Per-rank program verdicts, indexed by rank.
    pub results: Vec<Result<R, RankFailure>>,
}

impl<R> DistOutcome<R> {
    /// True when every rank completed.
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(Result::is_ok)
    }

    /// The failures, in rank order.
    pub fn failures(&self) -> Vec<&RankFailure> {
        self.results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .collect()
    }

    /// Unwrap every rank's result, panicking with a readable listing if
    /// any rank failed. The shortcut for healthy-network callers.
    ///
    /// Invariant: the caller planned no failure, so one is a bug to report.
    pub fn unwrap_results(self) -> Vec<R> {
        let mut out = Vec::with_capacity(self.results.len());
        let mut errs = Vec::new();
        for r in self.results {
            match r {
                Ok(v) => out.push(v),
                Err(f) => errs.push(f.to_string()),
            }
        }
        if !errs.is_empty() {
            panic!("{} rank(s) failed:\n  {}", errs.len(), errs.join("\n  "));
        }
        out
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute `program` on every rank concurrently over a perfect network.
/// On return, the global domain's dats hold every owner's final values:
/// a failed rank's owned elements hold what it had when it failed. See
/// [`run_distributed_with`] for fault injection and receive-policy
/// overrides.
pub fn run_distributed<F, R>(
    dom: &mut Domain,
    layouts: &[RankLayout],
    program: F,
) -> DistOutcome<R>
where
    F: Fn(&mut RankEnv<'_>) -> Result<R, RuntimeError> + Sync,
    R: Send,
{
    run_distributed_with(dom, layouts, &RunOptions::default(), program)
}

/// [`run_distributed`] with explicit [`RunOptions`] (fault plan,
/// receive deadline/retry policy, threading).
///
/// The world holds one copy of every dat (module docs): inside it
/// `dom`'s payloads are empty, and on return they are rebuilt from every
/// rank's owned elements, failed ranks included, so a failed rank's
/// owned elements hold what it had computed when it failed.
pub fn run_distributed_with<F, R>(
    dom: &mut Domain,
    layouts: &[RankLayout],
    opts: &RunOptions,
    program: F,
) -> DistOutcome<R>
where
    F: Fn(&mut RankEnv<'_>) -> Result<R, RuntimeError> + Sync,
    R: Send,
{
    // One rank's homeward payload: local dats, trace, verdict.
    type RankYield<R> = (Vec<Vec<f64>>, RankTrace, Result<R, RankFailure>);
    let nparts = layouts.len();
    assert!(nparts >= 1);
    let world = match &opts.faults {
        Some(plan) => CommWorld::with_faults(nparts, plan.clone()),
        None => CommWorld::new(nparts),
    }
    .with_config(opts.comm);
    let comms = world.into_ranks();

    // Every payload moves out of the domain; each rank holds one handle
    // on each until it has gathered that dat.
    let payloads: Vec<Arc<Vec<f64>>> = (0..dom.n_dats())
        .map(|d| Arc::new(std::mem::take(&mut dom.dat_mut(DatId(d as u32)).data)))
        .collect();
    let mut handles: Vec<Vec<Arc<Vec<f64>>>> = vec![payloads.clone(); nparts - 1];
    handles.push(payloads);
    let gathering = AtomicUsize::new(nparts);

    let dom_ref: &Domain = dom;
    let program_ref = &program;
    let gathering = &gathering;
    let collected: Vec<RankYield<R>> = std::thread::scope(|scope| {
        let threads: Vec<_> = comms
            .into_iter()
            .zip(layouts.iter())
            .zip(handles)
            .map(|((comm, layout), globals)| {
                scope.spawn(move || {
                    // One dat at a time, dropping each handle once it is
                    // gathered: the last rank to gather a dat frees it,
                    // and the last rank to finish hands the pages back
                    // (AcqRel: every other rank's frees happen before it).
                    let dats = (dom_ref.dats().iter().zip(globals))
                        .map(|(d, global)| layout.gather(d.set, d.dim, &global))
                        .collect();
                    if gathering.fetch_sub(1, Ordering::AcqRel) == 1 {
                        release_freed_heap();
                    }
                    let mut env = RankEnv::with_dats(layout, dom_ref, comm, dats);
                    env.threading = opts.threading;
                    let run = catch_unwind(AssertUnwindSafe(|| program_ref(&mut env)));
                    let verdict = match run {
                        Ok(Ok(r)) => Ok(r),
                        Ok(Err(error)) => Err(RankFailure::Failed {
                            rank: env.rank,
                            error,
                        }),
                        Err(payload) => Err(RankFailure::Panicked {
                            rank: env.rank,
                            message: panic_message(payload),
                        }),
                    };
                    // Exit broadcast, success or not: peers blocked on
                    // this rank unwind with PeerHangup instead of
                    // waiting out their deadlines. FIFO order keeps the
                    // sentinel behind every real message.
                    env.comm.hangup_all();
                    env.trace.comm = env.comm.counters;
                    env.trace.plan = env.plans.stats;
                    (env.dats, env.trace, verdict)
                })
            })
            .collect();
        threads
            .into_iter()
            // Invariant: a rank's program runs under catch_unwind, so only a harness bug gets here.
            .map(|h| h.join().expect("rank thread died outside catch_unwind"))
            .collect()
    });

    // The rank environments are gone, but what they freed stays in the
    // rank threads' malloc arenas. Hand it back before the scatter below
    // first touches fresh global pages, so peak RSS does not depend on
    // the order in which the ranks exited.
    release_freed_heap();
    let mut rank_dats = Vec::with_capacity(nparts);
    let mut traces = Vec::with_capacity(nparts);
    let mut results = Vec::with_capacity(nparts);
    for (dats, trace, verdict) in collected {
        rank_dats.push(dats);
        traces.push(trace);
        results.push(verdict);
    }
    // One dat at a time: a global payload and all its rank copies are
    // never live together.
    for d in 0..dom.n_dats() {
        let id = DatId(d as u32);
        let (set, dim) = (dom.dat(id).set, dom.dat(id).dim);
        let mut global = vec![0.0; dom.set(set).size * dim];
        for (layout, dats) in layouts.iter().zip(&mut rank_dats) {
            let local = std::mem::take(&mut dats[d]);
            layout.scatter_owned(set, dim, &local, &mut global);
        }
        dom.dat_mut(id).data = global;
        release_freed_heap();
    }
    DistOutcome { traces, results }
}

/// Return the free pages of every malloc arena to the OS (glibc's
/// `malloc_trim`); nothing on other targets.
fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` takes no pointer and touches only glibc's
        // own allocator state, under the arena locks; any thread may call
        // it at any time.
        unsafe { malloc_trim(0) };
    }
}

/// What a command-line front end should warn about when `ranks` ranks
/// of `threads` kernel threads each exceed the host's `cores`
/// (`std::thread::available_parallelism`): `--threads`/
/// [`RunOptions::with_threads`] is per rank and never capped, and on
/// shared cores the threaded lowering can lose to one thread (the
/// `mgcfd-compute` shape ran 1.7× slower at 2 ranks × 2 threads on a
/// 2-vCPU host). `None` when they fit. Nothing is capped here.
pub fn oversubscription(ranks: usize, threads: usize, cores: usize) -> Option<String> {
    let wanted = ranks.saturating_mul(threads);
    (wanted > cores).then(|| {
        format!(
            "{ranks} ranks x {threads} per rank = {wanted} threads on {cores} available cores; \
             the run is oversubscribed and may be slower than with fewer threads"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_chain, run_loop};

    #[test]
    fn oversubscription_warns_only_past_the_cores() {
        assert_eq!(oversubscription(2, 1, 2), None);
        assert_eq!(oversubscription(1, 2, 2), None);
        let w = oversubscription(2, 2, 2).expect("4 threads on 2 cores");
        assert!(
            w.contains("2 ranks x 2 per rank = 4 threads on 2 available cores"),
            "{w}"
        );
    }
    use op2_core::{AccessMode, Arg, Args, ChainSpec, GblDecl, LoopSpec};
    use op2_mesh::Quad2D;
    use op2_partition::{build_layouts, derive_ownership, rcb_partition};

    fn count_kernel(args: &Args<'_>) {
        args.inc(0, 0, 1.0);
        args.inc(1, 0, 1.0);
    }

    fn sum_kernel(args: &Args<'_>) {
        args.inc(1, 0, args.get(0, 0));
    }

    fn setup(nx: usize, ny: usize, nparts: usize, depth: usize) -> (Quad2D, Vec<RankLayout>) {
        let m = Quad2D::generate(nx, ny);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let layouts = build_layouts(&m.dom, &own, depth);
        (m, layouts)
    }

    /// Distributed degree count (integer-valued: exact across any
    /// execution order) matches the sequential reference.
    #[test]
    fn distributed_matches_sequential_exactly() {
        let (mut m, layouts) = setup(7, 5, 4, 2);
        let deg = m.dom.decl_dat_zeros("deg", m.nodes, 1);
        let spec = LoopSpec::new(
            "count",
            m.edges,
            vec![
                Arg::dat_indirect(deg, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(deg, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );

        // Sequential reference.
        let mut seq_dom = m.dom.clone();
        op2_core::seq::run_loop(&mut seq_dom, &spec);

        run_distributed(&mut m.dom, &layouts, |env| {
            run_loop(env, &spec)?;
            Ok(())
        })
        .unwrap_results();
        assert_eq!(m.dom.dat(deg).data, seq_dom.dat(deg).data);
    }

    /// Global reductions count every owned element exactly once, even
    /// though redundant halo iterations execute.
    #[test]
    fn reduction_not_double_counted() {
        let (mut m, layouts) = setup(6, 6, 3, 2);
        let ones = {
            let n = m.dom.set(m.nodes).size;
            m.dom.decl_dat("ones", m.nodes, 1, vec![1.0; n])
        };
        let spec = LoopSpec::with_gbls(
            "sum",
            m.nodes,
            vec![
                Arg::dat_direct(ones, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::reduction(1)],
            sum_kernel,
        );
        let n_nodes = m.dom.set(m.nodes).size as f64;
        let out = run_distributed(&mut m.dom, &layouts, |env| run_loop(env, &spec));
        for r in out.unwrap_results() {
            assert_eq!(r.gbls[0], vec![n_nodes]);
        }
    }

    /// A 2-loop chain under Alg 2 equals the sequential result exactly
    /// (integer data) and sends exactly one grouped message per
    /// neighbour.
    #[test]
    fn chain_matches_sequential_and_groups_messages() {
        let (mut m, layouts) = setup(8, 8, 4, 2);
        let a = m.dom.decl_dat_zeros("a", m.nodes, 1);
        let b = m.dom.decl_dat_zeros("b", m.nodes, 1);
        let produce = LoopSpec::new(
            "produce",
            m.edges,
            vec![
                Arg::dat_indirect(a, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(a, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );
        fn consume_kernel(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0));
            args.inc(3, 0, args.get(1, 0));
        }
        let consume = LoopSpec::new(
            "consume",
            m.edges,
            vec![
                Arg::dat_indirect(a, m.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(a, m.e2n, 1, AccessMode::Read),
                Arg::dat_indirect(b, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(b, m.e2n, 1, AccessMode::Inc),
            ],
            consume_kernel,
        );
        let chain = ChainSpec::new("pc", vec![produce.clone(), consume.clone()], None, &[])
            .unwrap();
        assert_eq!(chain.halo_ext, vec![2, 1]);

        let mut seq_dom = m.dom.clone();
        op2_core::seq::run_loop(&mut seq_dom, &produce);
        op2_core::seq::run_loop(&mut seq_dom, &consume);

        let out = run_distributed(&mut m.dom, &layouts, |env| run_chain(env, &chain));
        assert!(out.all_ok());
        assert_eq!(m.dom.dat(a).data, seq_dom.dat(a).data);
        assert_eq!(m.dom.dat(b).data, seq_dom.dat(b).data);
        // One grouped message per neighbour.
        for (trace, layout) in out.traces.iter().zip(layouts.iter()) {
            let rec = &trace.chains[0];
            assert!(rec.exch.n_msgs <= layout.neighbors.len());
        }
    }

    /// Single-rank execution works without any communication.
    #[test]
    fn single_rank_runs() {
        let (mut m, layouts) = setup(4, 4, 1, 2);
        let deg = m.dom.decl_dat_zeros("deg", m.nodes, 1);
        let spec = LoopSpec::new(
            "count",
            m.edges,
            vec![
                Arg::dat_indirect(deg, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(deg, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );
        let out = run_distributed(&mut m.dom, &layouts, |env| run_loop(env, &spec));
        assert!(out.all_ok());
        assert_eq!(out.traces[0].loops[0].exch.n_msgs, 0);
        let total: f64 = m.dom.dat(deg).data.iter().sum();
        assert_eq!(total, 2.0 * m.dom.set(m.edges).size as f64);
    }

    /// A panicking rank no longer brings the harness down: its failure
    /// is contained and reported; other ranks unwind via hangup; their
    /// data still scatters back.
    #[test]
    fn rank_panic_is_contained() {
        let (mut m, layouts) = setup(6, 6, 3, 1);
        let d = m.dom.decl_dat_zeros("d", m.nodes, 1);
        let before = m.dom.dat(d).data.clone();
        let spec = LoopSpec::new(
            "count",
            m.edges,
            vec![
                Arg::dat_indirect(d, m.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(d, m.e2n, 1, AccessMode::Inc),
            ],
            count_kernel,
        );
        let out = run_distributed(&mut m.dom, &layouts, |env| {
            if env.rank == 1 {
                panic!("deliberate test panic on rank 1");
            }
            run_loop(env, &spec)?;
            Ok(env.rank)
        });
        assert!(!out.all_ok());
        match &out.results[1] {
            Err(RankFailure::Panicked { rank, message }) => {
                assert_eq!(*rank, 1);
                assert!(message.contains("deliberate test panic"), "{message}");
            }
            other => panic!("expected rank 1 panic, got {other:?}"),
        }
        // Rank 1's owned elements keep their pre-run values.
        let own = &layouts[1];
        let dd = m.dom.dat(d);
        for set_l in [&own.sets[dd.set.idx()]] {
            for &g in set_l.locals.iter().take(set_l.n_owned) {
                assert_eq!(dd.data[g as usize], before[g as usize]);
            }
        }
    }

    /// Returning a RuntimeError from the program closure is a per-rank
    /// failure, not a panic.
    #[test]
    fn rank_error_is_reported() {
        let (mut m, layouts) = setup(4, 4, 2, 1);
        let out: DistOutcome<()> = run_distributed(&mut m.dom, &layouts, |env| {
            if env.rank == 0 {
                Err(RuntimeError::Comm(crate::comm::CommError::PeerHangup {
                    peer: 9,
                }))
            } else {
                Ok(())
            }
        });
        assert!(matches!(
            &out.results[0],
            Err(RankFailure::Failed { rank: 0, .. })
        ));
        assert!(out.results[1].is_ok());
        assert_eq!(out.failures().len(), 1);
    }

    /// Inside a world each dat exists once, as the ranks' copies: every
    /// global payload is empty, and the run hands it back intact.
    #[test]
    fn one_copy_payloads_are_empty_inside_a_world() {
        let (mut m, layouts) = setup(7, 6, 3, 2);
        let n = m.dom.set(m.nodes).size;
        let vals = (0..2 * n).map(|i| i as f64 + 0.5).collect();
        m.dom.decl_dat("v", m.nodes, 2, vals);
        let before: Vec<Vec<f64>> = m.dom.dats().iter().map(|d| d.data.clone()).collect();
        run_distributed(&mut m.dom, &layouts, |env| {
            for d in env.dom.dats() {
                assert!(d.data.is_empty(), "dat `{}` has a global payload", d.name);
            }
            assert!(env.dats.iter().all(|local| !local.is_empty()));
            Ok(())
        })
        .unwrap_results();
        let after: Vec<Vec<f64>> = m.dom.dats().iter().map(|d| d.data.clone()).collect();
        assert_eq!(after, before);
    }

    /// The global payload is rebuilt from the ranks' owned parts alone,
    /// into fresh zeroed buffers, so those parts must tile every set
    /// exactly once: a hole would read 0.0 after the world.
    #[test]
    fn one_copy_owned_parts_tile_every_set_once() {
        for (nx, ny, nparts, depth) in [(5, 5, 1, 1), (7, 6, 3, 2), (9, 8, 4, 3)] {
            let (mut m, layouts) = setup(nx, ny, nparts, depth);
            for (sidx, set) in m.dom.sets().iter().enumerate() {
                let mut owners = vec![0u32; set.size];
                for l in &layouts {
                    let sl = &l.sets[sidx];
                    for &g in &sl.locals[..sl.n_owned] {
                        owners[g as usize] += 1;
                    }
                }
                let name = &set.name;
                assert!(owners.iter().all(|&c| c == 1), "set `{name}`: {owners:?}");
            }
            // Nonzero everywhere, so a hole shows.
            let e = m.dom.set(m.edges).size;
            let vals = (0..3 * e).map(|i| i as f64 + 1.0).collect();
            let w = m.dom.decl_dat("w", m.edges, 3, vals);
            let before = m.dom.dat(w).data.clone();
            run_distributed(&mut m.dom, &layouts, |_| Ok(())).unwrap_results();
            assert_eq!(m.dom.dat(w).data, before, "{nparts} ranks");
        }
    }

    /// A rank that fails after its first loop holds the only copy of its
    /// owned elements, so they come back holding what it computed (here
    /// the sequential result: the loop completes every owned element).
    #[test]
    fn one_copy_failed_rank_keeps_what_it_computed() {
        use crate::comm::CommError;
        for panics in [false, true] {
            let (mut m, layouts) = setup(8, 6, 3, 2);
            let deg = m.dom.decl_dat_zeros("deg", m.nodes, 1);
            let spec = LoopSpec::new(
                "count",
                m.edges,
                vec![
                    Arg::dat_indirect(deg, m.e2n, 0, AccessMode::Inc),
                    Arg::dat_indirect(deg, m.e2n, 1, AccessMode::Inc),
                ],
                count_kernel,
            );
            let mut seq_dom = m.dom.clone();
            op2_core::seq::run_loop(&mut seq_dom, &spec);

            let out = run_distributed(&mut m.dom, &layouts, |env| {
                run_loop(env, &spec)?;
                match env.rank {
                    1 if panics => panic!("deliberate test panic after the first loop"),
                    1 => Err(RuntimeError::Comm(CommError::PeerHangup { peer: 0 })),
                    _ => Ok(()),
                }
            });
            match (&out.results[1], panics) {
                (Err(RankFailure::Panicked { rank: 1, .. }), true)
                | (Err(RankFailure::Failed { rank: 1, .. }), false) => {}
                (other, _) => panic!("expected rank 1 to fail, got {other:?}"),
            }
            assert!(out.results[0].is_ok() && out.results[2].is_ok());
            let sl = &layouts[1].sets[m.nodes.idx()];
            let owned = &sl.locals[..sl.n_owned];
            let (got, want) = (&m.dom.dat(deg).data, &seq_dom.dat(deg).data);
            // Rank 1 computed something, and every owner's values came back.
            assert!(owned.iter().any(|&g| want[g as usize] != 0.0));
            assert_eq!(got, want);
        }
    }
}
