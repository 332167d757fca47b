//! Halo-exchange engine equivalence and allocation properties.
//!
//! The exchange machinery runs on persistent pooled message buffers and
//! arrival-order completion. Neither may change a single bit of the
//! results:
//!
//! * the planned path (cached plan + pooled buffers + `recv_any`
//!   arrival-order unpack) must be bitwise identical to the seed
//!   unplanned path and to plain sequential execution;
//! * a chaotic network (drops, duplicates, corruption, delays) must
//!   recover to the exact same bits — duplicated or corrupted payloads
//!   are discarded before they can reach (or poison) the buffer pool;
//! * once warm, a steady-state planned exchange performs **zero**
//!   payload heap allocations — `CommCounters::payload_allocs` stays
//!   flat across rounds.
//!
//! The kernels keep all values dyadic rationals of small magnitude, so
//! floating-point addition is exact and the sequential reference is
//! bit-comparable across the distributed runs' local renumbering.

use op2::core::{seq, AccessMode, Arg, Args, ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2::mesh::{Quad2D, Tet3D};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::{run_chain, run_chain_unplanned, run_loop};
use op2::runtime::{
    run_distributed_with, FaultPlan, FaultSpec, RankEnv, RankTrace, RunOptions, RuntimeError,
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
    let s0: Vec<f64> = (0..n).map(|i| ((i * 13 + 3) % 17) as f64).collect();
    let d0 = dom.decl_dat("d0", nodes, 1, s0);
    let d1 = dom.decl_dat_zeros("d1", nodes, 1);
    let bump_loop = LoopSpec::new(
        "bump",
        nodes,
        vec![Arg::dat_direct(d0, AccessMode::Rw)],
        bump,
    );
    let chain = ChainSpec::new(
        "he",
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

const ITERS: usize = 4;

/// The sequential reference: dat bit patterns after `ITERS` rounds.
fn run_seq(case: &Case) -> Vec<Vec<u64>> {
    let mut dom = case.dom.clone();
    for _ in 0..ITERS {
        seq::run_loop(&mut dom, &case.bump_loop);
        for l in &case.chain.loops {
            seq::run_loop(&mut dom, l);
        }
    }
    bits_of(case, &dom)
}

fn bits_of(case: &Case, dom: &Domain) -> Vec<Vec<u64>> {
    case.dats
        .iter()
        .map(|&d| dom.dat(d).data.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// `ITERS` distributed rounds of bump + `body`, returning per-rank
/// traces and the dat bit patterns.
fn run_dist(
    case: &Case,
    layouts: &[RankLayout],
    opts: &RunOptions,
    body: impl Fn(&mut RankEnv<'_>, &ChainSpec) -> Result<(), RuntimeError> + Sync,
) -> (Vec<RankTrace>, Vec<Vec<u64>>) {
    let mut dom = case.dom.clone();
    let out = run_distributed_with(&mut dom, layouts, opts, |env| {
        for _ in 0..ITERS {
            run_loop(env, &case.bump_loop)?;
            body(env, &case.chain)?;
        }
        Ok(())
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    let bits = bits_of(case, &dom);
    (out.traces, bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The planned engine (persistent buffers + arrival-order unpack)
    /// == the seed unplanned path == plain sequential, to the bit, on
    /// random quad/tet meshes at 2–4 ranks.
    #[test]
    fn planned_engine_bitwise_matches_seed_path(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..4,
        nparts in 2usize..5,
        tet in proptest::bool::ANY,
    ) {
        let case = build_case(nx, ny, nz, tet);
        let seq_bits = run_seq(&case);
        let layouts = layouts_for(&case, nparts);
        let opts = RunOptions::default();

        let (_, planned) = run_dist(&case, &layouts, &opts, run_chain);
        prop_assert_eq!(&planned, &seq_bits, "planned engine != sequential");

        let (_, unplanned) =
            run_dist(&case, &layouts, &opts, run_chain_unplanned);
        prop_assert_eq!(&unplanned, &seq_bits, "seed unplanned path != sequential");
    }

    /// A chaotic network (drops, dups, corruption, delays) must not
    /// poison the pooled buffers: duplicated and corrupted payloads are
    /// rejected before unpack, and every recycled buffer is cleared, so
    /// the planned engine still lands on the exact sequential bits.
    #[test]
    fn chaos_does_not_poison_pooled_buffers(
        nx in 4usize..7,
        ny in 4usize..7,
        nparts in 2usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let case = build_case(nx, ny, 2, false);
        let seq_bits = run_seq(&case);
        let layouts = layouts_for(&case, nparts);
        let opts = RunOptions::with_faults(FaultPlan::new(FaultSpec::chaos(seed)));

        let (_, planned) = run_dist(&case, &layouts, &opts, run_chain);
        prop_assert_eq!(&planned, &seq_bits, "chaos diverged the planned engine");
    }
}

/// Acceptance: zero payload heap allocations in a steady-state planned
/// exchange. After two warm-up rounds every send buffer comes from the
/// pool and every receive is recycled back, so `payload_allocs` stays
/// exactly flat over the following rounds. A fault plan only keeps this
/// when it neither duplicates nor corrupts: those copies are clones, and
/// a clone accepted in place of the pooled original leaves the pool one
/// buffer short (see the delayed-wire case below).
#[test]
fn steady_state_planned_exchange_allocates_nothing() {
    assert_steady_state_allocates_nothing(&RunOptions::default());
}

/// The same contract under a delay-only fault plan (every message late,
/// like the benchmark's `mgcfd-wire`): a delayed message still carries
/// its pooled buffer to the peer, so the pool stays warm.
#[test]
fn steady_state_delayed_exchange_allocates_nothing() {
    let spec = FaultSpec {
        seed: 7,
        delay_permille: 1000,
        max_delay: std::time::Duration::from_micros(50),
        ..FaultSpec::default()
    };
    assert_steady_state_allocates_nothing(&RunOptions::with_faults(FaultPlan::new(spec)));
}

fn assert_steady_state_allocates_nothing(opts: &RunOptions) {
    let case = build_case(10, 10, 2, false);
    let layouts = layouts_for(&case, 4);
    let mut dom = case.dom.clone();
    let out = run_distributed_with(&mut dom, &layouts, opts, |env| {
        for _ in 0..2 {
            run_loop(env, &case.bump_loop)?;
            run_chain(env, &case.chain)?;
        }
        let warm = env.comm.counters.payload_allocs;
        for _ in 0..5 {
            run_loop(env, &case.bump_loop)?;
            run_chain(env, &case.chain)?;
        }
        Ok((warm, env.comm.counters.payload_allocs))
    });
    assert!(out.all_ok(), "failures: {:?}", out.failures());
    let mut exercised = false;
    for (rank, (warm, steady)) in out.unwrap_results().into_iter().enumerate() {
        assert_eq!(
            warm, steady,
            "rank {rank}: steady-state planned exchange allocated payload buffers \
             ({warm} after warm-up, {steady} after 5 more rounds)"
        );
        exercised |= warm > 0;
    }
    assert!(exercised, "pool never exercised — the test is vacuous");
}
