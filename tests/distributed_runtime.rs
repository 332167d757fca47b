//! Distributed-runtime invariants: message accounting, dirty-bit
//! evolution, reductions, and determinism across runs.

use op2::core::{AccessMode, Arg, Args, GblDecl, LoopSpec};
use op2::mesh::Quad2D;
use op2::partition::{build_layouts, derive_ownership, rcb_partition, RankLayout};
use op2::runtime::exec::run_loop;
use op2::runtime::run_distributed;

fn inc_kernel(args: &Args<'_>) {
    args.inc(0, 0, 1.0);
    args.inc(1, 0, 1.0);
}

fn read_kernel(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0) + args.get(1, 0));
    args.inc(3, 0, args.get(0, 0) - args.get(1, 0));
}

fn sum_kernel(args: &Args<'_>) {
    args.inc(1, 0, args.get(0, 0));
}

struct Fixture {
    mesh: Quad2D,
    layouts: Vec<RankLayout>,
    a: op2::core::DatId,
    b: op2::core::DatId,
    inc_loop: LoopSpec,
    read_loop: LoopSpec,
}

fn fixture(nparts: usize) -> Fixture {
    let mut mesh = Quad2D::generate(12, 10);
    let a = mesh.dom.decl_dat_zeros("a", mesh.nodes, 1);
    let b = mesh.dom.decl_dat_zeros("b", mesh.nodes, 1);
    let inc_loop = LoopSpec::new(
        "inc",
        mesh.edges,
        vec![
            Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Inc),
        ],
        inc_kernel,
    );
    let read_loop = LoopSpec::new(
        "read",
        mesh.edges,
        vec![
            Arg::dat_indirect(a, mesh.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(a, mesh.e2n, 1, AccessMode::Read),
            Arg::dat_indirect(b, mesh.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(b, mesh.e2n, 1, AccessMode::Inc),
        ],
        read_kernel,
    );
    let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, nparts);
    let own = derive_ownership(&mesh.dom, mesh.nodes, base, nparts);
    let layouts = build_layouts(&mesh.dom, &own, 2);
    Fixture {
        mesh,
        layouts,
        a,
        b,
        inc_loop,
        read_loop,
    }
}

/// Dirty-bit behaviour (§3.1): a dat's halo is exchanged only when it
/// was modified by a preceding loop and is then indirectly read.
#[test]
fn exchanges_follow_dirty_bits() {
    let mut f = fixture(4);
    let inc_loop = f.inc_loop.clone();
    let read_loop = f.read_loop.clone();
    let out = run_distributed(&mut f.mesh.dom, &f.layouts, |env| {
        run_loop(env, &inc_loop)?; // dirties a; INC itself needs no halo
        run_loop(env, &read_loop)?; // must exchange a
        run_loop(env, &read_loop)?; // a clean again: no exchange
        Ok(())
    });
    assert!(out.all_ok());
    for (rank, t) in out.traces.iter().enumerate() {
        if f.layouts[rank].neighbors.is_empty() {
            continue;
        }
        assert_eq!(t.loops[0].d_exchanged, 0, "rank {rank}: INC must not exchange");
        assert_eq!(t.loops[1].d_exchanged, 1, "rank {rank}: read must exchange a");
        assert_eq!(t.loops[2].d_exchanged, 0, "rank {rank}: halo still valid");
    }
}

/// Message counts are symmetric: total sends equal total receives per
/// rank pair (every send segment has a matching recv segment).
#[test]
fn per_loop_message_count_matches_neighbour_count() {
    let mut f = fixture(4);
    let inc_loop = f.inc_loop.clone();
    let read_loop = f.read_loop.clone();
    let out = run_distributed(&mut f.mesh.dom, &f.layouts, |env| {
        run_loop(env, &inc_loop)?;
        run_loop(env, &read_loop)?;
        Ok(())
    });
    for (rank, t) in out.traces.iter().enumerate() {
        let nbrs = f.layouts[rank].neighbors.len();
        // One dat exchanged → at most one message per neighbour.
        assert!(t.loops[1].exch.n_msgs <= nbrs, "rank {rank}");
    }
}

/// Reductions agree with the sequential sum for every rank count.
#[test]
fn reductions_match_across_rank_counts() {
    let mut expected = None;
    for nparts in [1, 2, 3, 6] {
        let mut f = fixture(nparts);
        let vals: Vec<f64> = (0..f.mesh.dom.set(f.mesh.nodes).size)
            .map(|i| (i % 13) as f64)
            .collect();
        let seq_sum: f64 = vals.iter().sum();
        let v = f.mesh.dom.decl_dat("v", f.mesh.nodes, 1, vals);
        let red = LoopSpec::with_gbls(
            "sum",
            f.mesh.nodes,
            vec![Arg::dat_direct(v, AccessMode::Read), Arg::gbl(0, AccessMode::Inc)],
            vec![GblDecl::reduction(1)],
            sum_kernel,
        );
        let out = run_distributed(&mut f.mesh.dom, &f.layouts, |env| run_loop(env, &red));
        for r in out.unwrap_results() {
            assert_eq!(r.gbls[0][0], seq_sum, "nparts {nparts}");
        }
        match expected {
            None => expected = Some(seq_sum),
            Some(e) => assert_eq!(e, seq_sum),
        }
        let _ = (f.a, f.b);
    }
}

/// Two identical runs produce identical traces (determinism).
#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut f = fixture(4);
        let inc_loop = f.inc_loop.clone();
        let read_loop = f.read_loop.clone();
        let out = run_distributed(&mut f.mesh.dom, &f.layouts, |env| {
            run_loop(env, &inc_loop)?;
            run_loop(env, &read_loop)?;
            Ok(())
        });
        let msgs: Vec<usize> = out.traces.iter().map(|t| t.total_msgs()).collect();
        let bytes: Vec<usize> = out.traces.iter().map(|t| t.total_bytes()).collect();
        let data = f.mesh.dom.dat(f.b).data.clone();
        (msgs, bytes, data)
    };
    assert_eq!(run(), run());
}

/// Latency hiding: the core executed while messages are in flight is
/// non-trivial on interior-heavy partitions.
#[test]
fn core_iterations_are_majority_on_few_ranks() {
    let mut f = fixture(2);
    let inc_loop = f.inc_loop.clone();
    let out = run_distributed(&mut f.mesh.dom, &f.layouts, |env| {
        run_loop(env, &inc_loop).map(|_| ())
    });
    for (rank, t) in out.traces.iter().enumerate() {
        let rec = &t.loops[0];
        let total = rec.core_iters + rec.halo_iters;
        assert!(
            rec.core_iters * 2 > total,
            "rank {rank}: core {}/{total} too small",
            rec.core_iters
        );
    }
}

/// MIN/MAX global reductions (OP2's OP_MIN/OP_MAX): identical across
/// rank counts, equal to the sequential fold, and unpolluted by
/// redundant halo iterations.
#[test]
fn min_max_reductions_match() {
    use op2::core::{seq, GblDecl};
    for nparts in [1, 3, 5] {
        let mut f = fixture(nparts);
        let n = f.mesh.dom.set(f.mesh.nodes).size;
        let vals: Vec<f64> = (0..n).map(|i| ((i * 17 + 3) % 101) as f64 - 50.0).collect();
        let seq_min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let seq_max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let v = f.mesh.dom.decl_dat("v", f.mesh.nodes, 1, vals);

        fn min_kernel(args: &op2::core::Args<'_>) {
            args.reduce_min(1, 0, args.get(0, 0));
        }
        fn max_kernel(args: &op2::core::Args<'_>) {
            args.reduce_max(1, 0, args.get(0, 0));
        }
        let min_loop = LoopSpec::with_gbls(
            "vmin",
            f.mesh.nodes,
            vec![Arg::dat_direct(v, AccessMode::Read), Arg::gbl(0, AccessMode::Inc)],
            vec![GblDecl::min_reduction(1)],
            min_kernel,
        );
        let max_loop = LoopSpec::with_gbls(
            "vmax",
            f.mesh.nodes,
            vec![Arg::dat_direct(v, AccessMode::Read), Arg::gbl(0, AccessMode::Inc)],
            vec![GblDecl::max_reduction(1)],
            max_kernel,
        );
        // Sequential reference agrees.
        let mut seq_dom = f.mesh.dom.clone();
        assert_eq!(seq::run_loop(&mut seq_dom, &min_loop).gbls[0], vec![seq_min]);

        let out = run_distributed(&mut f.mesh.dom, &f.layouts, |env| {
            let mn = run_loop(env, &min_loop)?;
            let mx = run_loop(env, &max_loop)?;
            Ok((mn.gbls[0][0], mx.gbls[0][0]))
        });
        for (mn, mx) in out.unwrap_results() {
            assert_eq!(mn, seq_min, "nparts {nparts}");
            assert_eq!(mx, seq_max, "nparts {nparts}");
        }
        let _ = (f.a, f.b, f.inc_loop, f.read_loop);
    }
}

/// Failure injection: a chain requiring deeper halos than the layouts
/// were built with must fail loudly, not corrupt data. The rank panics
/// are contained by the harness and reported as typed
/// [`RankFailure::Panicked`] values naming each failed rank.
#[test]
fn chain_deeper_than_layout_panics() {
    use op2::core::ChainSpec;
    use op2::runtime::exec::run_chain;
    let mut f = fixture(4); // layouts built with depth 2
    let inc_loop = f.inc_loop.clone();
    let read_loop = f.read_loop.clone();
    // produce -> consume -> consume-into-c ladders to depth 3.
    let c = f.mesh.dom.decl_dat_zeros("c", f.mesh.nodes, 1);
    fn deeper_kernel(args: &op2::core::Args<'_>) {
        args.inc(2, 0, args.get(0, 0));
        args.inc(3, 0, args.get(1, 0));
    }
    let deeper = LoopSpec::new(
        "deeper",
        f.mesh.edges,
        vec![
            Arg::dat_indirect(f.b, f.mesh.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(f.b, f.mesh.e2n, 1, AccessMode::Read),
            Arg::dat_indirect(c, f.mesh.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(c, f.mesh.e2n, 1, AccessMode::Inc),
        ],
        deeper_kernel,
    );
    let chain = ChainSpec::new("deep3", vec![inc_loop, read_loop, deeper], None, &[]).unwrap();
    assert_eq!(chain.max_halo_layers(), 3);
    let out = run_distributed(&mut f.mesh.dom, &f.layouts, |env| {
        run_chain(env, &chain) // depth 3 > built 2: asserts on every rank
    });
    assert!(!out.all_ok());
    for (rank, r) in out.results.iter().enumerate() {
        match r {
            Err(op2::runtime::RankFailure::Panicked { rank: fr, message }) => {
                assert_eq!(*fr as usize, rank);
                assert!(
                    message.contains("needs 3 halo layers"),
                    "rank {rank}: {message}"
                );
            }
            other => panic!("rank {rank}: expected contained panic, got {other:?}"),
        }
    }
}

/// Failure injection: resolving a config against a program missing the
/// named loop reports `UnknownLoop` instead of guessing.
#[test]
fn config_with_unknown_loop_errors() {
    use op2::core::{parse_chain_config, CoreError};
    let f = fixture(1);
    let text = "chain x {\n loops = inc, no_such_loop\n}";
    let cfg = &parse_chain_config(text).unwrap()[0];
    let program = vec![f.inc_loop.clone()];
    match cfg.resolve(&program) {
        Err(CoreError::UnknownLoop(name)) => assert_eq!(name, "no_such_loop"),
        other => panic!("expected UnknownLoop, got {other:?}"),
    }
}

/// An empty set with a map out of it: `build_layouts` gives it no local
/// element on any rank, and a distributed loop over it runs on every
/// rank, posts nothing and leaves every dat as the sequential walk
/// does, as does the mesh loop after it.
#[test]
fn empty_set_with_a_map_from_it() {
    let mut f = fixture(3);
    let dom = &mut f.mesh.dom;
    let faces = dom.decl_set("faces", 0);
    let f2n = dom.decl_map("f2n", faces, f.mesh.nodes, 2, Vec::new()).unwrap();
    let face_loop = LoopSpec::new(
        "faces",
        faces,
        vec![
            Arg::dat_indirect(f.b, f2n, 0, AccessMode::Read),
            Arg::dat_indirect(f.b, f2n, 1, AccessMode::Read),
            Arg::dat_indirect(f.a, f2n, 0, AccessMode::Inc),
            Arg::dat_indirect(f.a, f2n, 1, AccessMode::Inc),
        ],
        read_kernel,
    );
    let base = rcb_partition(&dom.dat(f.mesh.coords).data, 2, 3);
    let own = derive_ownership(dom, f.mesh.nodes, base, 3);
    let layouts = build_layouts(dom, &own, 2);
    for l in &layouts {
        assert_eq!(l.sets[faces.idx()].n_local(), 0, "rank {}", l.rank);
        assert!(l.maps[f2n.idx()].values.is_empty(), "rank {}", l.rank);
    }
    let mut want = dom.clone();
    for spec in [&face_loop, &f.inc_loop] {
        op2::core::seq::run_loop(&mut want, spec);
    }
    let out = run_distributed(dom, &layouts, |env| {
        run_loop(env, &face_loop)?;
        run_loop(env, &f.inc_loop)?;
        Ok(())
    });
    for t in &out.traces {
        let face = &t.loops[0];
        let counts = (face.exch.n_msgs, face.core_iters, face.halo_iters);
        assert_eq!(counts, (0, 0, 0), "rank {}", t.rank);
    }
    out.unwrap_results();
    for d in [f.a, f.b] {
        assert_eq!(dom.dat(d).data, want.dat(d).data, "dat {}", want.dat(d).name);
    }
}
