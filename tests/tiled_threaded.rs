//! Tiled-threaded executor equivalence properties.
//!
//! The leveled tile schedule extends the determinism contract to the
//! sparse-tiled chain executor: inter-tile conflict levels order every
//! conflicting tile pair the same way the sequential tile-by-tile walk
//! does (ascending tile id), so running same-level tiles concurrently
//! is *bitwise identical* to the sequential tiled run — which is itself
//! bitwise identical to plain sequential execution. These properties
//! pin the full three-way identity on randomly generated 2-D quad and
//! 3-D tet meshes, for chains with `OP_INC` through maps, at 1, 2 and 4
//! pool threads.
//!
//! The kernels keep all values dyadic rationals of small magnitude, so
//! floating-point addition is exact and the sequential reference is
//! bit-comparable even across the distributed runs' local renumbering.

use op2::core::{seq, AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2::mesh::{Quad2D, Tet3D};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::{run_chain_tiled, run_loop};
use op2::runtime::{run_distributed_with, RankTrace, RunOptions, SchedKind, Threading};
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
        "tt",
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

/// Three distributed iterations of bump + tiled chain under
/// `threading` (three, so iterations 2 and 3 share a dirty class and
/// repeat invocations provably hit the cached tile schedule). Returns
/// the per-rank traces plus the dats' bit patterns.
fn run_tiled(
    case: &Case,
    dom: &mut Domain,
    layouts: &[RankLayout],
    n_tiles: usize,
    threading: Threading,
) -> (Vec<RankTrace>, Vec<Vec<u64>>) {
    let opts = RunOptions::default().threading(threading);
    let out = run_distributed_with(dom, layouts, &opts, |env| {
        for _ in 0..3 {
            run_loop(env, &case.bump_loop)?;
            run_chain_tiled(env, &case.chain, n_tiles)?;
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    let data = case
        .dats
        .iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect();
    (out.traces, data)
}

/// The sequential reference of the same program: dat bit patterns.
fn run_seq(case: &Case) -> Vec<Vec<u64>> {
    let mut dom = case.dom.clone();
    for _ in 0..3 {
        seq::run_loop(&mut dom, &case.bump_loop);
        for l in &case.chain.loops {
            seq::run_loop(&mut dom, l);
        }
    }
    case.dats
        .iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Threaded-tiled == sequential-tiled == plain sequential, to the
    /// bit, at 1/2/4 threads and random tile counts — and the threaded
    /// runs are trace-equivalent to the sequential tiled run on every
    /// record thread count cannot touch (loops, chains, exchange
    /// totals). The tile schedule is built once per (plan, tile count):
    /// repeat invocations hit the cache.
    #[test]
    fn tiled_threaded_bitwise_and_trace_equal(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        nparts in 2usize..4,
        n_tiles in 2usize..7,
        tet in proptest::bool::ANY,
    ) {
        let case = build_case(nx, ny, nz, tet);
        let seq_bits = run_seq(&case);

        let layouts = layouts_for(&case, nparts);
        let mut dom_ref = case.dom.clone();
        let (traces_ref, bits_ref) =
            run_tiled(&case, &mut dom_ref, &layouts, n_tiles, Threading::single());
        prop_assert_eq!(&bits_ref, &seq_bits, "sequential tiled != seq");
        for t in &traces_ref {
            prop_assert!(t.threads.is_empty(), "rank {}: unexpected ThreadRec", t.rank);
            prop_assert!(t.plan.tile_misses >= 1, "rank {}: no tiling inspection", t.rank);
            prop_assert!(t.plan.tile_hits >= 1, "rank {}: repeats must hit the cache", t.rank);
        }

        for n_threads in [1usize, 2, 4] {
            let threading = Threading { n_threads, block_size: 4 };
            let mut dom = case.dom.clone();
            let (traces, bits) = run_tiled(&case, &mut dom, &layouts, n_tiles, threading);
            prop_assert_eq!(&bits, &seq_bits, "{} threads: data != seq", n_threads);
            for (t, tr) in traces.iter().zip(&traces_ref) {
                prop_assert_eq!(&t.loops, &tr.loops, "rank {} loop records", t.rank);
                prop_assert_eq!(&t.chains, &tr.chains, "rank {} chain records", t.rank);
                prop_assert_eq!(t.total_msgs(), tr.total_msgs());
                prop_assert_eq!(t.total_bytes(), tr.total_bytes());
                prop_assert_eq!(t.plan.tile_misses, tr.plan.tile_misses);
                for rec in t.threads.iter().filter(|r| r.kind == SchedKind::Tiled) {
                    prop_assert_eq!(rec.n_threads, n_threads);
                    prop_assert_eq!(rec.level_ns.len(), rec.n_levels);
                    prop_assert_eq!(rec.block_size, 0);
                }
            }
        }
    }
}

// Deterministic (non-property) check that the tiled-threaded path
// actually puts same-level tiles through the pool on a mesh big enough
// for real inter-tile parallelism, so the property above isn't
// vacuously comparing sequential fallbacks.
#[test]
fn tiled_threaded_path_engages_on_large_mesh() {
    let case = build_case(16, 16, 2, false);
    let layouts = layouts_for(&case, 2);

    let mut dom_ref = case.dom.clone();
    let (_, bits_ref) = run_tiled(&case, &mut dom_ref, &layouts, 8, Threading::single());
    assert_eq!(bits_ref, run_seq(&case));

    let mut dom = case.dom.clone();
    let (traces, bits) = run_tiled(&case, &mut dom, &layouts, 8, Threading::with_threads(4));
    assert_eq!(bits, bits_ref);
    let tiled: Vec<_> = traces
        .iter()
        .flat_map(|t| &t.threads)
        .filter(|r| r.kind == SchedKind::Tiled)
        .collect();
    assert!(
        !tiled.is_empty(),
        "no rank recorded a tiled pool execution"
    );
    for rec in tiled {
        assert_eq!(rec.n_threads, 4);
        assert_eq!(rec.level_ns.len(), rec.n_levels);
        assert!(rec.n_chunks > rec.n_levels, "no level holds more than one tile");
    }
}
