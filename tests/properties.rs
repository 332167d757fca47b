//! Property-based tests (proptest) over randomly generated meshes,
//! partitions and chain structures: the invariants DESIGN.md §7 lists.

use op2::core::chain::{calc_halo_extents, calc_halo_layers, core_depths};
use op2::core::{parse_chain_config, AccessMode, Arg, LoopSig, SetId};
use op2::mesh::{Hex3D, Hex3DParams, Quad2D};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, rib_partition};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partitioners assign every element exactly once and leave no
    /// empty part (whenever `n >= nparts`).
    #[test]
    fn partitioners_cover_and_balance(
        nx in 3usize..10,
        ny in 3usize..10,
        nz in 3usize..6,
        nparts in 1usize..9,
        rib in proptest::bool::ANY,
    ) {
        let m = Hex3D::generate(Hex3DParams { nx, ny, nz });
        let owner = if rib {
            rib_partition(m.node_coords(), 3, nparts)
        } else {
            rcb_partition(m.node_coords(), 3, nparts)
        };
        prop_assert_eq!(owner.len(), nx * ny * nz);
        let mut sizes = vec![0usize; nparts];
        for &o in &owner {
            prop_assert!((o as usize) < nparts);
            sizes[o as usize] += 1;
        }
        prop_assert!(sizes.iter().all(|&s| s > 0));
        let target = (nx * ny * nz) as f64 / nparts as f64;
        for &s in &sizes {
            prop_assert!((s as f64) <= target * 1.1 + 2.0);
        }
    }

    /// Halo-ring invariants on random meshes and partitions:
    /// every map entry a→b satisfies ring(b) ≤ max(ring(a), 1) and
    /// ring(a) ≤ ring(b) + 1 (within the built depth), and execute
    /// ranges resolve entirely through localized maps.
    #[test]
    fn ring_invariants_random_mesh(
        nx in 4usize..9,
        ny in 4usize..9,
        nparts in 2usize..6,
        depth in 1usize..4,
    ) {
        let m = Quad2D::generate(nx, ny);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let layouts = build_layouts(&m.dom, &own, depth);
        for l in &layouts {
            // Owned + imports per set never exceed the global size, and
            // locals are unique.
            for (sidx, sl) in l.sets.iter().enumerate() {
                let mut seen = std::collections::HashSet::new();
                for &g in &sl.locals {
                    prop_assert!(seen.insert(g), "duplicate local");
                    prop_assert!((g as usize) < m.dom.sets()[sidx].size);
                }
                // Core prefixes are monotone.
                for k in 1..sl.core_prefix.len() {
                    prop_assert!(sl.core_prefix[k] <= sl.core_prefix[k - 1]);
                }
            }
            // Localized maps resolve for every element executable at
            // the built depth.
            for (mid, lm) in l.maps.iter().enumerate() {
                let gm = &m.dom.maps()[mid];
                let end = l.sets[gm.from.idx()].exec_end(depth);
                for e in 0..end {
                    for i in 0..lm.arity {
                        let v = lm.values[e * lm.arity + i];
                        prop_assert!(v != op2::partition::layout::NONLOCAL);
                        prop_assert!((v as usize) < l.sets[gm.to.idx()].n_local());
                    }
                }
            }
            // Send/recv segment sizes mirror across the pair.
            for n in &l.neighbors {
                let peer = &layouts[n.rank as usize];
                let back = peer.neighbors.iter().find(|p| p.rank == l.rank).unwrap();
                let sent: usize = back.send.iter().map(|s| s.elems.len()).sum();
                let recvd: usize = n.recv.iter().map(|r| r.len as usize).sum();
                prop_assert_eq!(sent, recvd);
            }
        }
    }

    /// Algorithm 3 and the transitive closure both stay within
    /// 1 ..= n, and the closure dominates per-dat demands.
    #[test]
    fn analysis_bounds(
        n_loops in 1usize..7,
        seed in 0u64..5000,
    ) {
        // Random chain: each loop INCs one dat and READs another.
        let mut rng = seed;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng >> 33) as usize
        };
        let sigs: Vec<LoopSig> = (0..n_loops)
            .map(|i| {
                let write_dat = op2::core::DatId((next() % 4) as u32);
                let read_dat = op2::core::DatId((next() % 4) as u32);
                let mut args = vec![Arg::dat_indirect(
                    write_dat,
                    op2::core::MapId(0),
                    0,
                    AccessMode::Inc,
                )];
                if read_dat != write_dat {
                    args.push(Arg::dat_indirect(
                        read_dat,
                        op2::core::MapId(0),
                        0,
                        AccessMode::Read,
                    ));
                }
                LoopSig { name: format!("l{i}"), set: SetId(0), args }
            })
            .collect();
        let alg3 = calc_halo_layers(&sigs);
        let safe = calc_halo_extents(&sigs);
        let cores = core_depths(&sigs);
        for l in 0..n_loops {
            prop_assert!(alg3.per_loop[l] >= 1 && alg3.per_loop[l] <= n_loops);
            prop_assert!(safe[l] >= 1 && safe[l] <= n_loops);
            prop_assert!(cores[l] >= 1 && cores[l] <= n_loops);
            // Note: neither analysis dominates the other — the literal
            // Alg 3 *accumulates* consecutive indirect reads of a dat
            // (branch 2 adds a layer per read), while the transitive
            // closure takes the max demand; conversely Alg 3 misses
            // transitive ladders. Only the bounds are invariant.
        }
        // The final loop never needs more than the standard halo.
        prop_assert_eq!(safe[n_loops - 1], 1);
    }

    /// The chain configuration parser round-trips what it accepts.
    #[test]
    fn config_parser_roundtrip(
        n_chains in 1usize..4,
        n_loops in 1usize..6,
        max_halo in proptest::option::of(1usize..5),
    ) {
        let mut text = String::new();
        for c in 0..n_chains {
            text.push_str(&format!("chain c{c} {{\n"));
            let names: Vec<String> = (0..n_loops).map(|i| format!("loop{i}")).collect();
            text.push_str(&format!("  loops = {}\n", names.join(", ")));
            if let Some(h) = max_halo {
                text.push_str(&format!("  max_halo = {h}\n"));
            }
            text.push_str("}\n");
        }
        let parsed = parse_chain_config(&text).unwrap();
        prop_assert_eq!(parsed.len(), n_chains);
        for c in &parsed {
            prop_assert_eq!(c.loops.len(), n_loops);
            prop_assert_eq!(c.max_halo, max_halo);
        }
    }

    /// Ownership inheritance covers every set and respects the base
    /// assignment exactly.
    #[test]
    fn ownership_total_and_consistent(
        nx in 3usize..8,
        ny in 3usize..8,
        nparts in 1usize..6,
    ) {
        let m = Quad2D::generate(nx, ny);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base.clone(), nparts);
        prop_assert_eq!(&own.owner[m.nodes.idx()], &base);
        for (sidx, o) in own.owner.iter().enumerate() {
            prop_assert_eq!(o.len(), m.dom.sets()[sidx].size);
            prop_assert!(o.iter().all(|&r| (r as usize) < nparts));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The planned chain executor is a pure replay: on random 2-D quad
    /// and 3-D tet meshes, running a produce/consume chain through the
    /// cached-plan path yields bitwise-identical dat data AND identical
    /// chain trace records (grouped-message layout included) to the
    /// unplanned inline-analysis executor — and repeat invocations are
    /// served from the plan cache instead of re-inspecting.
    #[test]
    fn planned_chain_replay_is_bitwise_equal(
        nx in 4usize..8,
        ny in 4usize..8,
        nz in 2usize..5,
        nparts in 2usize..5,
        tet in proptest::bool::ANY,
    ) {
        use op2::core::{Args, ChainSpec, Domain, LoopSpec};
        use op2::mesh::Tet3D;
        use op2::runtime::exec::{run_chain, run_chain_unplanned};
        use op2::runtime::run_distributed;

        fn produce(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0) + 1.0);
            args.inc(3, 0, args.get(1, 0) + 1.0);
        }
        fn consume(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0) - args.get(1, 0));
            args.inc(3, 0, args.get(1, 0) * 0.5);
        }

        let (mut dom, nodes, edges, e2n, coords, cdim) = if tet {
            let m = Tet3D::generate(nx.min(6), ny.min(6), nz);
            (m.dom, m.nodes, m.edges, m.e2n, m.coords, 3)
        } else {
            let m = Quad2D::generate(nx, ny);
            (m.dom, m.nodes, m.edges, m.e2n, m.coords, 2)
        };
        let n = dom.set(nodes).size;
        let s0: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 23) as f64).collect();
        let d0 = dom.decl_dat("d0", nodes, 1, s0);
        let d1 = dom.decl_dat_zeros("d1", nodes, 1);
        let chain = ChainSpec::new(
            "pc",
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

        let run = |dom: &mut Domain, planned: bool| {
            let base = rcb_partition(&dom.dat(coords).data, cdim, nparts);
            let own = derive_ownership(dom, nodes, base, nparts);
            let layouts = build_layouts(dom, &own, 2);
            let out = run_distributed(dom, &layouts, |env| {
                for _ in 0..3 {
                    if planned {
                        run_chain(env, &chain)?;
                    } else {
                        run_chain_unplanned(env, &chain)?;
                    }
                }
                Ok(())
            });
            assert!(out.all_ok(), "failures: {:?}", out.failures());
            let data: Vec<Vec<f64>> =
                [d0, d1].iter().map(|&d| dom.dat(d).data.clone()).collect();
            (out.traces, data)
        };

        let mut dom_a = dom.clone();
        let (traces_planned, data_planned) = run(&mut dom_a, true);
        let (traces_unplanned, data_unplanned) = run(&mut dom, false);

        // Bitwise-equal results.
        prop_assert_eq!(&data_planned, &data_unplanned);
        // Identical chain records: same grouped exchange (message
        // counts, bytes, neighbour sets), same core/halo splits.
        for (tp, tu) in traces_planned.iter().zip(&traces_unplanned) {
            prop_assert_eq!(&tp.chains, &tu.chains);
            // 3 invocations over at most 2 dirty-state classes: the
            // third is always served from the cache.
            prop_assert!(
                tp.plan.hits >= 1 && tp.plan.misses <= 2,
                "rank {}: {:?}", tp.rank, tp.plan
            );
            // The unplanned path never touches the cache.
            prop_assert_eq!(tu.plan.hits + tu.plan.misses, 0);
        }
    }

    /// Fault injection is deterministic: replaying the same seeded
    /// [`FaultPlan`] over the same program yields bit-identical traces —
    /// same loop/chain records, same recovery counters per rank — and
    /// bit-identical data, regardless of thread scheduling. The faults
    /// are recoverable (no blackholes/crashes), so the results also
    /// equal the sequential reference exactly.
    #[test]
    fn fault_replay_is_deterministic(
        fault_seed in 0u64..10_000,
        nparts in 2usize..5,
        drop in 0u16..400,
        dup in 0u16..400,
        corrupt in 0u16..400,
    ) {
        use op2::core::{seq, Args, ChainSpec, LoopSpec};
        use op2::runtime::exec::{run_chain, run_loop};
        use op2::runtime::{run_distributed_with, FaultPlan, FaultSpec, RunOptions};

        fn bump(args: &Args<'_>) {
            args.set(0, 0, args.get(0, 0) + 1.0);
        }
        fn produce(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0) + 1.0);
            args.inc(3, 0, args.get(1, 0) + 1.0);
        }
        fn consume(args: &Args<'_>) {
            args.inc(2, 0, args.get(0, 0) - args.get(1, 0));
            args.inc(3, 0, args.get(1, 0));
        }

        let build = || {
            let mut m = Quad2D::generate(8, 7);
            let n = m.dom.set(m.nodes).size;
            let s0: Vec<f64> = (0..n).map(|i| ((i * 3 + 2) % 17) as f64).collect();
            let d0 = m.dom.decl_dat("d0", m.nodes, 1, s0);
            let d1 = m.dom.decl_dat_zeros("d1", m.nodes, 1);
            let d2 = m.dom.decl_dat_zeros("d2", m.nodes, 1);
            let bump_loop = LoopSpec::new(
                "bump",
                m.nodes,
                vec![Arg::dat_direct(d0, AccessMode::Rw)],
                bump,
            );
            let chain = ChainSpec::new(
                "pc",
                vec![
                    LoopSpec::new(
                        "produce",
                        m.edges,
                        vec![
                            Arg::dat_indirect(d0, m.e2n, 0, AccessMode::Read),
                            Arg::dat_indirect(d0, m.e2n, 1, AccessMode::Read),
                            Arg::dat_indirect(d1, m.e2n, 0, AccessMode::Inc),
                            Arg::dat_indirect(d1, m.e2n, 1, AccessMode::Inc),
                        ],
                        produce,
                    ),
                    LoopSpec::new(
                        "consume",
                        m.edges,
                        vec![
                            Arg::dat_indirect(d1, m.e2n, 0, AccessMode::Read),
                            Arg::dat_indirect(d1, m.e2n, 1, AccessMode::Read),
                            Arg::dat_indirect(d2, m.e2n, 0, AccessMode::Inc),
                            Arg::dat_indirect(d2, m.e2n, 1, AccessMode::Inc),
                        ],
                        consume,
                    ),
                ],
                None,
                &[],
            )
            .unwrap();
            (m, bump_loop, chain, [d0, d1, d2])
        };

        let run = || {
            let (mut m, bump_loop, chain, dats) = build();
            let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
            let own = derive_ownership(&m.dom, m.nodes, base, nparts);
            let layouts = build_layouts(&m.dom, &own, 2);
            let spec = FaultSpec {
                drop_permille: drop,
                dup_permille: dup,
                corrupt_permille: corrupt,
                delay_permille: 150,
                ..FaultSpec::chaos(fault_seed)
            };
            let opts = RunOptions::with_faults(FaultPlan::new(spec));
            let out = run_distributed_with(&mut m.dom, &layouts, &opts, |env| {
                for _ in 0..2 {
                    run_loop(env, &bump_loop)?;
                    run_chain(env, &chain)?;
                }
                Ok(())
            });
            assert!(out.all_ok(), "failures: {:?}", out.failures());
            let data: Vec<Vec<f64>> = dats.iter().map(|&d| m.dom.dat(d).data.clone()).collect();
            (out.traces, data, dats, m)
        };

        let (traces_a, data_a, dats, _m) = run();
        let (traces_b, data_b, _, _) = run();
        // Bit-identical replay: full traces (loop/chain records AND
        // per-rank transport recovery counters) and final data.
        prop_assert_eq!(&traces_a, &traces_b);
        prop_assert_eq!(&data_a, &data_b);

        // Recoverable faults leave the numerics untouched: equal to the
        // sequential reference exactly.
        let (mut m_seq, bump_loop, chain, _) = build();
        for _ in 0..2 {
            seq::run_loop(&mut m_seq.dom, &bump_loop);
            for l in &chain.loops {
                seq::run_loop(&mut m_seq.dom, l);
            }
        }
        for (i, &d) in dats.iter().enumerate() {
            prop_assert_eq!(&m_seq.dom.dat(d).data, &data_a[i]);
        }
    }
}
