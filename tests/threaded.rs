//! Threaded-executor equivalence properties.
//!
//! The threaded executor's contract is *bitwise identity*: both of its
//! lowerings — owner-computes windows for loops that modify through
//! maps by `OP_INC` alone, direct blocks for loops that modify no dat
//! they reach through a map — preserve ascending per-element update
//! order, and every other loop runs on the rank's own thread, so thread
//! count and block size are invisible in the results — not "equal up to
//! reassociation tolerance", equal to the bit. These properties pin
//! that contract on randomly generated 2-D quad and 3-D tet meshes, for
//! chains with `OP_INC` through maps, against both the sequential
//! reference and the unplanned distributed path, at 1, 2 and 4 threads.
//!
//! The kernels of the first group keep all values dyadic rationals of
//! small magnitude, so floating-point addition is exact and the
//! sequential reference is bit-comparable even across the distributed
//! runs' local renumbering. That makes them blind to *reordered*
//! increments, so the owner-computes group further down uses
//! order-sensitive arithmetic and compares runs that share one local
//! numbering: 1 to 4 pool threads against the same layouts run
//! single-threaded, and on one rank against [`seq::run_loop`] over the
//! mesh renumbered into the layout's order ([`seq_in_layout_order`]).

use op2::core::{seq, AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2::mesh::shuffle::{apply_permutation, shuffle_set};
use op2::mesh::{Quad2D, Tet3D};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::{run_chain, run_chain_unplanned, run_loop};
use op2::runtime::{
    run_distributed_with, RankEnv, RankTrace, RunOptions, RuntimeError, SchedKind, Threading,
};
use proptest::prelude::*;

fn bump(args: &Args<'_>) {
    args.set(0, 0, args.get(0, 0) + 1.0);
}
fn produce(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0) + 1.0);
    args.inc(3, 0, args.get(1, 0) + 1.0);
}
fn consume(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0) - args.get(1, 0));
    args.inc(3, 0, args.get(1, 0) * 0.5);
}

struct Case {
    dom: Domain,
    nodes: SetId,
    coords: DatId,
    cdim: usize,
    dats: [DatId; 2],
    bump_loop: LoopSpec,
    chain: ChainSpec,
}

fn build_case(nx: usize, ny: usize, nz: usize, tet: bool) -> Case {
    let (mut dom, nodes, edges, e2n, coords, cdim) = if tet {
        let m = Tet3D::generate(nx.min(6), ny.min(6), nz);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 3)
    } else {
        let m = Quad2D::generate(nx, ny);
        (m.dom, m.nodes, m.edges, m.e2n, m.coords, 2)
    };
    let n = dom.set(nodes).size;
    let s0: Vec<f64> = (0..n).map(|i| ((i * 11 + 5) % 19) as f64).collect();
    let d0 = dom.decl_dat("d0", nodes, 1, s0);
    let d1 = dom.decl_dat_zeros("d1", nodes, 1);
    let bump_loop = LoopSpec::new(
        "bump",
        nodes,
        vec![Arg::dat_direct(d0, AccessMode::Rw)],
        bump,
    );
    let chain = ChainSpec::new(
        "th",
        vec![
            LoopSpec::new(
                "produce",
                edges,
                vec![
                    Arg::dat_indirect(d0, e2n, 0, AccessMode::Read),
                    Arg::dat_indirect(d0, e2n, 1, AccessMode::Read),
                    Arg::dat_indirect(d1, e2n, 0, AccessMode::Inc),
                    Arg::dat_indirect(d1, e2n, 1, AccessMode::Inc),
                ],
                produce,
            ),
            LoopSpec::new(
                "consume",
                edges,
                vec![
                    Arg::dat_indirect(d1, e2n, 0, AccessMode::Read),
                    Arg::dat_indirect(d1, e2n, 1, AccessMode::Read),
                    Arg::dat_indirect(d0, e2n, 0, AccessMode::Inc),
                    Arg::dat_indirect(d0, e2n, 1, AccessMode::Inc),
                ],
                consume,
            ),
        ],
        None,
        &[],
    )
    .unwrap();
    Case {
        dom,
        nodes,
        coords,
        cdim,
        dats: [d0, d1],
        bump_loop,
        chain,
    }
}

fn layouts_for(case: &Case, nparts: usize) -> Vec<RankLayout> {
    let base = rcb_partition(&case.dom.dat(case.coords).data, case.cdim, nparts);
    let own = derive_ownership(&case.dom, case.nodes, base, nparts);
    build_layouts(&case.dom, &own, 2)
}

/// Two distributed iterations of bump + chain under `threading`, through
/// the planned or unplanned chain executor. Returns bit patterns of the
/// dats plus the per-rank traces.
fn run_dist(
    case: &Case,
    dom: &mut Domain,
    layouts: &[RankLayout],
    threading: Threading,
    planned: bool,
) -> (Vec<RankTrace>, Vec<Vec<u64>>) {
    let opts = RunOptions::default().threading(threading);
    let out = run_distributed_with(dom, layouts, &opts, |env| {
        for _ in 0..2 {
            run_loop(env, &case.bump_loop)?;
            if planned {
                run_chain(env, &case.chain)?;
            } else {
                run_chain_unplanned(env, &case.chain)?;
            }
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    (out.traces, bits_of(dom, &case.dats))
}

fn bits_of(dom: &Domain, dats: &[DatId]) -> Vec<Vec<u64>> {
    dats.iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The sequential reference of the same program: dat bit patterns.
fn run_seq(case: &Case) -> Vec<Vec<u64>> {
    let mut dom = case.dom.clone();
    for _ in 0..2 {
        seq::run_loop(&mut dom, &case.bump_loop);
        for l in &case.chain.loops {
            seq::run_loop(&mut dom, l);
        }
    }
    bits_of(&dom, &case.dats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Planned chains under 1/2/4 pool threads are bitwise identical to
    /// the sequential reference AND trace-equivalent (same loop records,
    /// same chain records, same exchange totals) to the single-threaded
    /// planned run. Thread count only ever adds `threads` records.
    #[test]
    fn threaded_planned_chain_bitwise_and_trace_equal(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        nparts in 2usize..5,
        tet in proptest::bool::ANY,
    ) {
        let case = build_case(nx, ny, nz, tet);
        let seq_bits = run_seq(&case);

        let mut dom_ref = case.dom.clone();
        let layouts = layouts_for(&case, nparts);
        let (traces_ref, bits_ref) =
            run_dist(&case, &mut dom_ref, &layouts, Threading::single(), true);
        prop_assert_eq!(&bits_ref, &seq_bits, "single-threaded planned != seq");
        for t in &traces_ref {
            prop_assert!(t.threads.is_empty(), "rank {}: unexpected ThreadRec", t.rank);
        }

        for n_threads in [1usize, 2, 4] {
            let threading = Threading { n_threads, block_size: 4 };
            let mut dom = case.dom.clone();
            let (traces, bits) = run_dist(&case, &mut dom, &layouts, threading, true);
            prop_assert_eq!(&bits, &seq_bits, "{} threads: data != seq", n_threads);
            for (t, tr) in traces.iter().zip(&traces_ref) {
                prop_assert_eq!(&t.loops, &tr.loops, "rank {} loop records", t.rank);
                prop_assert_eq!(&t.chains, &tr.chains, "rank {} chain records", t.rank);
                prop_assert_eq!(t.total_msgs(), tr.total_msgs());
                prop_assert_eq!(t.total_bytes(), tr.total_bytes());
                if n_threads == 1 {
                    prop_assert!(t.threads.is_empty());
                } else {
                    // Repeat invocations re-lower nothing: at most one
                    // lowering per (plan, loop, phase range) plus one
                    // per standalone loop signature — every further
                    // pooled execution is a cache hit.
                    let bound = t.plan.misses * 2 * case.chain.len() as u64 + 2;
                    prop_assert!(
                        t.plan.color_misses <= bound,
                        "rank {}: {:?} exceeds {}", t.rank, t.plan, bound
                    );
                }
            }
        }
    }

    /// The unplanned distributed path (standalone per-rank lowering
    /// cache, no chain plan) obeys the same contract: 2- and 4-thread
    /// runs are bitwise identical to its single-threaded run and to the
    /// sequential reference.
    #[test]
    fn threaded_unplanned_chain_bitwise_equal(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        nparts in 2usize..4,
        tet in proptest::bool::ANY,
    ) {
        let case = build_case(nx, ny, nz, tet);
        let seq_bits = run_seq(&case);

        let layouts = layouts_for(&case, nparts);
        let mut dom_ref = case.dom.clone();
        let (_, bits_ref) =
            run_dist(&case, &mut dom_ref, &layouts, Threading::single(), false);
        prop_assert_eq!(&bits_ref, &seq_bits, "single-threaded unplanned != seq");

        for n_threads in [2usize, 4] {
            let threading = Threading { n_threads, block_size: 4 };
            let mut dom = case.dom.clone();
            let (_, bits) = run_dist(&case, &mut dom, &layouts, threading, false);
            prop_assert_eq!(&bits, &seq_bits, "{} threads: data != seq", n_threads);
        }
    }
}

// Deterministic (non-property) check that the threaded path actually
// engages on a mesh big enough to exceed the block size, so the
// properties above aren't vacuously comparing sequential fallbacks.
#[test]
fn threaded_path_engages_on_large_mesh() {
    let case = build_case(12, 12, 2, false);
    let layouts = layouts_for(&case, 2);
    let mut dom = case.dom.clone();
    let threading = Threading { n_threads: 4, block_size: 8 };
    let (traces, bits) = run_dist(&case, &mut dom, &layouts, threading, true);
    assert_eq!(bits, run_seq(&case));
    assert!(
        traces.iter().any(|t| !t.threads.is_empty()),
        "no rank recorded a threaded execution"
    );
    for t in &traces {
        for rec in &t.threads {
            assert_eq!(rec.n_threads, 4);
            assert_eq!(rec.level_ns.len(), rec.n_levels);
            assert!(rec.n_chunks > 0 && rec.n_levels > 0);
        }
    }
}

/// Zero steady-state allocation: the first owner-computes chunks each
/// worker runs grow its schedule context's sink and windows, and from
/// then on repeated owner-computes loops and chains on a 2-thread pool
/// allocate nothing (`RankEnv::sched_allocs` stays flat).
#[test]
fn owned_steady_state_allocates_nothing() {
    let case = build_case(12, 12, 2, false);
    let layouts = layouts_for(&case, 2);
    let mut dom = case.dom.clone();
    let opts = RunOptions::default().threading(Threading {
        n_threads: 2,
        block_size: 8,
    });
    let produce = &case.chain.loops[0];
    let out = run_distributed_with(&mut dom, &layouts, &opts, |env| {
        // Two warm-up iterations: the first grows the contexts, the
        // second settles the dirty class.
        for _ in 0..2 {
            run_loop(env, produce)?;
            run_chain(env, &case.chain)?;
        }
        let warm = env.sched_allocs();
        assert!(
            warm > 0,
            "rank {}: no windowed chunk grew a context",
            env.rank
        );
        for _ in 0..4 {
            run_loop(env, produce)?;
            run_chain(env, &case.chain)?;
        }
        assert_eq!(
            env.sched_allocs(),
            warm,
            "rank {}: allocated at steady state",
            env.rank
        );
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    assert_owned(&out.traces, "produce");
    assert_owned(&out.traces, "consume");
}

// ---------------------------------------------------------------------
// Owner-computes lowering: order-sensitive kernels, shared numbering.
// ---------------------------------------------------------------------

/// Edge flux with irrational-ish factors: any reassociation, dropped or
/// doubled increment changes the bits of `res`.
fn flux_os(args: &Args<'_>) {
    let (a, b) = (args.get(2, 0), args.get(3, 0));
    args.inc(0, 0, (b - a) * 0.123456789 + 0.1);
    args.inc(1, 0, (a - b) * 0.987654321 - 0.3);
}

/// Declare `pres`/`res` on `nodes` and the [`flux_os`] loop over `edges`
/// incrementing `res` through both entries of `e2n`.
fn flux_os_loop(
    dom: &mut Domain,
    nodes: SetId,
    edges: SetId,
    e2n: op2::core::MapId,
) -> (LoopSpec, DatId) {
    let n = dom.set(nodes).size;
    let pres: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
    let p = dom.decl_dat("pres", nodes, 1, pres);
    let r = dom.decl_dat_zeros("res", nodes, 1);
    let spec = LoopSpec::new(
        "flux_os",
        edges,
        vec![
            Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
            Arg::dat_indirect(p, e2n, 0, AccessMode::Read),
            Arg::dat_indirect(p, e2n, 1, AccessMode::Read),
        ],
        flux_os,
    );
    (spec, r)
}

/// Increments through two maps into two different target sets (nodes
/// and cells), scaled by a directly read edge weight.
fn two_sets_os(args: &Args<'_>) {
    let w = args.get(0, 0);
    args.inc(1, 0, w * 0.377);
    args.inc(2, 0, w * -0.291 + 0.7);
    args.inc(3, 0, w * 1.113);
    args.inc(3, 1, w * 0.017);
    args.inc(4, 0, 0.5 - w);
    args.inc(4, 1, w * w);
}

/// Run `prog` on every rank of `layouts` single-threaded, then under 1
/// to 4 pool threads (block size 4, so small ranges still thread), and
/// require the bits of `dats` to match throughout. Returns the reference
/// bits and the 4-thread traces.
fn assert_thread_count_invisible(
    dom: &Domain,
    layouts: &[RankLayout],
    dats: &[DatId],
    prog: &(dyn Fn(&mut RankEnv<'_>) -> Result<(), RuntimeError> + Sync),
) -> (Vec<Vec<u64>>, Vec<RankTrace>) {
    let run = |threading: Threading| {
        let mut d = dom.clone();
        let opts = RunOptions::default().threading(threading);
        let out = run_distributed_with(&mut d, layouts, &opts, prog);
        assert!(out.all_ok(), "failures: {:?}", out.failures());
        (bits_of(&d, dats), out.traces)
    };
    let (reference, _) = run(Threading::single());
    let mut traces = Vec::new();
    for n_threads in 1..=4usize {
        let threading = Threading { n_threads, block_size: 4 };
        let (bits, t) = run(threading);
        assert_eq!(bits, reference, "{n_threads} threads != single-threaded");
        traces = t;
    }
    (reference, traces)
}

/// Every threaded record of `name` ran owner-computes, in one level.
fn assert_owned(traces: &[RankTrace], name: &str) {
    let recs: Vec<_> = traces
        .iter()
        .flat_map(|t| &t.threads)
        .filter(|r| r.name == name)
        .collect();
    assert!(!recs.is_empty(), "`{name}` never ran threaded");
    for r in recs {
        assert_eq!(r.kind, SchedKind::Owned, "`{name}` fell back to {:?}", r.kind);
        assert_eq!(r.n_levels, 1);
        assert!(r.n_chunks <= r.n_threads);
    }
}

/// Run `walk` sequentially on `dom` renumbered into the order of the
/// one-rank `layout` (local index `l` of every set becomes element `l`),
/// then renumber the result back. A one-rank layout executes exactly that
/// walk, so the two compare bitwise.
fn seq_in_layout_order(
    dom: &Domain,
    layout: &RankLayout,
    walk: impl FnOnce(&mut Domain),
) -> Domain {
    let mut d = dom.clone();
    for (s, sl) in layout.sets.iter().enumerate() {
        assert_eq!(sl.n_local(), d.sets()[s].size, "needs a one-rank layout");
        let mut to_local = vec![0u32; sl.n_local()];
        for (l, &g) in sl.locals.iter().enumerate() {
            to_local[g as usize] = l as u32;
        }
        apply_permutation(&mut d, SetId(s as u32), &to_local);
    }
    walk(&mut d);
    for (s, sl) in layout.sets.iter().enumerate() {
        apply_permutation(&mut d, SetId(s as u32), &sl.locals);
    }
    d
}

/// Nodes-based layouts for a hand-built domain: node `i` of `n` goes to
/// rank `i * nparts / n`.
fn block_layouts(dom: &Domain, nodes: SetId, nparts: usize) -> Vec<RankLayout> {
    let n = dom.set(nodes).size;
    let owner = (0..n).map(|i| (i * nparts / n) as u32).collect();
    build_layouts(dom, &derive_ownership(dom, nodes, owner, nparts), 1)
}

/// `n_edges` edges over `n_nodes` nodes with scattered endpoints; every
/// fifth edge is a self-loop (both map entries alias one node).
fn scattered_graph(n_nodes: usize, n_edges: usize) -> (Domain, SetId, LoopSpec, DatId) {
    let mut dom = Domain::new();
    let nodes = dom.decl_set("nodes", n_nodes);
    let edges = dom.decl_set("edges", n_edges);
    let vals: Vec<u32> = (0..n_edges)
        .flat_map(|k| {
            let a = (k * 7 + 3) % n_nodes;
            let b = if k % 5 == 0 { a } else { (k * 13 + 1) % n_nodes };
            [a as u32, b as u32]
        })
        .collect();
    let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
    let (spec, r) = flux_os_loop(&mut dom, nodes, edges, e2n);
    (dom, nodes, spec, r)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shuffled numbering (most edges cut, pieces mostly lists): 1 to 4
    /// threads are bitwise equal to the single-threaded run of the same
    /// layouts on 1 to 3 ranks, and on one rank to `seq::run_loop`.
    #[test]
    fn owned_bitwise_on_shuffled_meshes(
        nx in 4usize..9,
        ny in 4usize..9,
        nparts in 1usize..4,
        seed in 0u64..1000,
        tet in proptest::bool::ANY,
    ) {
        let (mut dom, nodes, edges, e2n, coords, cdim) = if tet {
            let m = Tet3D::generate(nx.min(6), ny.min(6), 3);
            (m.dom, m.nodes, m.edges, m.e2n, m.coords, 3)
        } else {
            let m = Quad2D::generate(nx, ny);
            (m.dom, m.nodes, m.edges, m.e2n, m.coords, 2)
        };
        shuffle_set(&mut dom, nodes, seed);
        shuffle_set(&mut dom, edges, seed + 1);
        let (spec, r) = flux_os_loop(&mut dom, nodes, edges, e2n);
        let base = rcb_partition(&dom.dat(coords).data, cdim, nparts);
        let layouts = build_layouts(&dom, &derive_ownership(&dom, nodes, base, nparts), 1);
        let (bits, traces) = assert_thread_count_invisible(&dom, &layouts, &[r], &|env| {
            run_loop(env, &spec)?;
            run_loop(env, &spec)?;
            Ok(())
        });
        assert_owned(&traces, "flux_os");
        if nparts == 1 {
            let seq_dom = seq_in_layout_order(&dom, &layouts[0], |d| {
                seq::run_loop(d, &spec);
                seq::run_loop(d, &spec);
            });
            prop_assert_eq!(bits, bits_of(&seq_dom, &[r]), "1 rank != seq::run_loop");
        }
    }
}

/// One loop incrementing through two maps into two different target
/// sets: each set gets its own windows, an edge runs on every thread
/// owning one of its four targets.
#[test]
fn owned_two_maps_two_target_sets() {
    let m = Quad2D::generate(9, 7);
    let mut dom = m.dom;
    shuffle_set(&mut dom, m.cells, 5);
    let n_edges = dom.set(m.edges).size;
    let w: Vec<f64> = (0..n_edges).map(|i| (i as f64 * 0.37).cos()).collect();
    let weight = dom.decl_dat("w", m.edges, 1, w);
    let on_nodes = dom.decl_dat_zeros("on_nodes", m.nodes, 1);
    let on_cells = dom.decl_dat_zeros("on_cells", m.cells, 2);
    let spec = LoopSpec::new(
        "two_sets_os",
        m.edges,
        vec![
            Arg::dat_direct(weight, AccessMode::Read),
            Arg::dat_indirect(on_nodes, m.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(on_nodes, m.e2n, 1, AccessMode::Inc),
            Arg::dat_indirect(on_cells, m.e2c, 0, AccessMode::Inc),
            Arg::dat_indirect(on_cells, m.e2c, 1, AccessMode::Inc),
        ],
        two_sets_os,
    );
    for nparts in [1usize, 2] {
        let base = rcb_partition(&dom.dat(m.coords).data, 2, nparts);
        let layouts = build_layouts(&dom, &derive_ownership(&dom, m.nodes, base, nparts), 1);
        let (bits, traces) =
            assert_thread_count_invisible(&dom, &layouts, &[on_nodes, on_cells], &|env| {
                run_loop(env, &spec).map(|_| ())
            });
        assert_owned(&traces, "two_sets_os");
        if nparts == 1 {
            let seq_dom = seq_in_layout_order(&dom, &layouts[0], |d| {
                seq::run_loop(d, &spec);
            });
            assert_eq!(bits, bits_of(&seq_dom, &[on_nodes, on_cells]));
        }
    }
}

/// Self-loop edges: both `Inc` arguments of one iteration alias one
/// node, in one window — both increments land, in argument order.
#[test]
fn owned_aliased_map_entries() {
    let (dom, nodes, spec, r) = scattered_graph(41, 160);
    for nparts in [1usize, 2] {
        let layouts = block_layouts(&dom, nodes, nparts);
        let (bits, traces) = assert_thread_count_invisible(&dom, &layouts, &[r], &|env| {
            run_loop(env, &spec).map(|_| ())
        });
        assert_owned(&traces, "flux_os");
        if nparts == 1 {
            let seq_dom = seq_in_layout_order(&dom, &layouts[0], |d| {
                seq::run_loop(d, &spec);
            });
            assert_eq!(bits, bits_of(&seq_dom, &[r]));
        }
    }
}

/// Three target nodes, four threads: at least one window is empty and
/// its thread gets no chunk.
#[test]
fn owned_more_threads_than_targets() {
    let (dom, nodes, spec, r) = scattered_graph(3, 64);
    let layouts = block_layouts(&dom, nodes, 1);
    let (bits, traces) = assert_thread_count_invisible(&dom, &layouts, &[r], &|env| {
        run_loop(env, &spec).map(|_| ())
    });
    assert_owned(&traces, "flux_os");
    assert!(traces[0].threads.iter().all(|rec| rec.n_chunks <= 3));
    let seq_dom = seq_in_layout_order(&dom, &layouts[0], |d| {
        seq::run_loop(d, &spec);
    });
    assert_eq!(bits, bits_of(&seq_dom, &[r]));
}

/// A sub-range `[start, end)` with `start > 0` (the shape of every halo
/// phase): windows are balanced over the sub-range's own touches and
/// only its iterations run.
#[test]
fn owned_subrange_with_positive_start() {
    let (dom, nodes, spec, r) = scattered_graph(67, 300);
    let layouts = block_layouts(&dom, nodes, 1);
    let (bits, traces) = assert_thread_count_invisible(&dom, &layouts, &[r], &|env| {
        env.exec_range(&spec, 37, 251, &mut []);
        Ok(())
    });
    assert_owned(&traces, "flux_os");
    assert!(traces[0].threads.iter().all(|rec| rec.iters == 251 - 37));
    let seq_dom = seq_in_layout_order(&dom, &layouts[0], |d| {
        op2::core::schedule::run_loop_schedule(d, &spec, &op2::core::Schedule::range(37, 251));
    });
    assert_eq!(bits, bits_of(&seq_dom, &[r]));
}

/// Indirect-`Rw` sweeps. An `Inc`-only edge sweep lowers owner-computes;
/// declaring the endpoints `Rw` makes the same arithmetic
/// order-dependent by its descriptors, so no lowering admits it and it
/// runs on the rank's own thread, between pooled direct-block
/// relaxations. The mix must still equal the sequential walk to the bit.
mod colored_sweeps {
    use super::*;

    /// Dyadic flux of the endpoint difference, read-modify-written into
    /// both endpoints.
    fn flux_rw(args: &Args<'_>) {
        let d = (args.get(0, 0) - args.get(1, 0)) * 0.5;
        args.set(2, 0, args.get(2, 0) + d * 0.25);
        args.set(3, 0, args.get(3, 0) - d * 0.25);
    }

    /// Direct node relaxation between sweeps.
    fn relax(args: &Args<'_>) {
        args.set(0, 0, args.get(0, 0) * 0.5 + args.get(1, 0) * 0.25);
        args.set(1, 0, 0.0);
    }

    struct Sweeps {
        dom: Domain,
        nodes: SetId,
        coords: DatId,
        cdim: usize,
        dats: [DatId; 2],
        chain: ChainSpec,
        sweeps: usize,
    }

    /// `[flux_rw, relax] × sweeps` over a quad or tet mesh.
    fn build_sweeps(nx: usize, ny: usize, nz: usize, sweeps: usize, tet: bool) -> Sweeps {
        let (mut dom, nodes, edges, e2n, coords, cdim) = if tet {
            let m = Tet3D::generate(nx.min(6), ny.min(6), nz);
            (m.dom, m.nodes, m.edges, m.e2n, m.coords, 3)
        } else {
            let m = Quad2D::generate(nx, ny);
            (m.dom, m.nodes, m.edges, m.e2n, m.coords, 2)
        };
        let n = dom.set(nodes).size;
        let s0: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 17) as f64).collect();
        let val = dom.decl_dat("val", nodes, 1, s0);
        let res = dom.decl_dat_zeros("res", nodes, 1);
        let mut loops = Vec::with_capacity(2 * sweeps);
        for _ in 0..sweeps {
            loops.push(LoopSpec::new(
                "flux_rw",
                edges,
                vec![
                    Arg::dat_indirect(val, e2n, 0, AccessMode::Read),
                    Arg::dat_indirect(val, e2n, 1, AccessMode::Read),
                    Arg::dat_indirect(res, e2n, 0, AccessMode::Rw),
                    Arg::dat_indirect(res, e2n, 1, AccessMode::Rw),
                ],
                flux_rw,
            ));
            loops.push(LoopSpec::new(
                "relax",
                nodes,
                vec![
                    Arg::dat_direct(val, AccessMode::Rw),
                    Arg::dat_direct(res, AccessMode::Rw),
                ],
                relax,
            ));
        }
        let chain = ChainSpec::new("rw_sweeps", loops, None, &[]).unwrap();
        Sweeps {
            dom,
            nodes,
            coords,
            cdim,
            dats: [val, res],
            chain,
            sweeps,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Sweeps with pooled relaxations equal the sequential walk to
        /// the bit at 1/2/4 pool threads; no pooled record names the
        /// `Rw` sweep, and the relaxations do reach the pool.
        #[test]
        fn leveled_drain_matches_sequential_on_rw_sweeps(
            nx in 4usize..8,
            ny in 4usize..8,
            nz in 2usize..4,
            sweeps in 2usize..4,
            nparts in 2usize..4,
            tet in proptest::bool::ANY,
        ) {
            let iters = 3;
            let case = build_sweeps(nx, ny, nz, sweeps, tet);
            let mut seq_dom = case.dom.clone();
            for _ in 0..iters {
                for l in &case.chain.loops {
                    seq::run_loop(&mut seq_dom, l);
                }
            }
            let seq_bits = bits_of(&seq_dom, &case.dats);
            let base = rcb_partition(&case.dom.dat(case.coords).data, case.cdim, nparts);
            let own = derive_ownership(&case.dom, case.nodes, base, nparts);
            // The read-write sweeps ladder the chain's halo extent.
            let layouts = build_layouts(&case.dom, &own, 2 * case.sweeps);

            let mut relax_pooled = false;
            for n_threads in [1usize, 2, 4] {
                let mut dom = case.dom.clone();
                let opts = RunOptions::default().threading(Threading { n_threads, block_size: 4 });
                let out = run_distributed_with(&mut dom, &layouts, &opts, |env| {
                    for _ in 0..iters {
                        run_chain(env, &case.chain)?;
                    }
                    Ok(())
                });
                prop_assert!(out.all_ok(), "failures: {:?}", out.failures());
                prop_assert_eq!(&bits_of(&dom, &case.dats), &seq_bits, "{} threads != seq", n_threads);
                for r in out.traces.iter().flat_map(|t| &t.threads) {
                    prop_assert!(r.name != "flux_rw", "an indirect-Rw sweep reached the pool");
                    prop_assert_eq!((r.kind, r.n_levels), (SchedKind::Blocked, 1));
                    relax_pooled |= r.name == "relax";
                }
            }
            prop_assert!(relax_pooled, "no relaxation reached the pool");
        }
    }
}

/// `ExecMode::Dataflow` selects the one drain: each app driver
/// gives the same bits and the same `ThreadRec`s under either mode.
mod exec_mode_dataflow_is_the_leveled_drain {
    use super::*;
    use op2::hydra::{ExtentMode, Hydra, HydraParams};
    use op2::mgcfd::{MgCfd, MgCfdParams};
    use op2::runtime::{ExecMode, ThreadRec};

    fn thread_recs(traces: &[RankTrace]) -> Vec<Vec<ThreadRec>> {
        traces.iter().map(|t| t.threads.clone()).collect()
    }

    /// Four threads, and blocks small enough that the small meshes'
    /// owner-computes and direct-block loops reach the pool.
    fn modes(exec: ExecMode) -> RunOptions {
        RunOptions::default().threading(Threading { n_threads: 4, block_size: 16 }).exec(exec)
    }

    #[test]
    fn mgcfd() {
        let params = MgCfdParams::small(8);
        let layouts = {
            let app = MgCfd::new(params);
            let coords = &app.dom.dat(app.levels[0].ids.coords).data;
            let base = rcb_partition(coords, 3, 2);
            let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 2);
            build_layouts(&app.dom, &own, 2)
        };
        let run = |exec| {
            let mut app = MgCfd::new(params);
            let job = op2::mgcfd::job(&app, op2::mgcfd::Variant::Ca, 3);
            let out = op2::mgcfd::run(&mut app, &layouts, &job, &modes(exec)).expect("every rank completes");
            (out.rms.to_bits(), thread_recs(&out.traces))
        };
        let levels = run(ExecMode::Levels);
        assert!(levels.1.iter().any(|r| !r.is_empty()), "mg-cfd drained no pooled schedule");
        assert_eq!(run(ExecMode::Dataflow), levels, "mg-cfd");
    }

    #[test]
    fn hydra() {
        let params = HydraParams::small(6);
        let layouts = {
            let app = Hydra::new(params);
            let base = rcb_partition(app.mesh.node_coords(), 3, 2);
            let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, 2);
            // Safe-mode extents ladder to 5 on the periodic chains.
            build_layouts(&app.mesh.dom, &own, 6)
        };
        let run = |exec| {
            let mut app = Hydra::new(params);
            let job = op2::hydra::job(&app, op2::hydra::Variant::ca(ExtentMode::Safe), 2);
            let out = op2::hydra::run(&mut app, &layouts, &job, &modes(exec)).expect("every rank completes");
            (out.norm.to_bits(), thread_recs(&out.traces))
        };
        let levels = run(ExecMode::Levels);
        assert!(levels.1.iter().any(|r| !r.is_empty()), "hydra drained no pooled schedule");
        assert_eq!(run(ExecMode::Dataflow), levels, "hydra");
    }
}
