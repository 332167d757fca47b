//! Cross-backend equivalence: for chains of indirect loops with
//! *integer-valued* data (where f64 arithmetic is exact and
//! order-independent), the CA back-end (Alg 2), the OP2 baseline
//! (Alg 1) and the sequential reference must agree **bit for bit** —
//! any discrepancy is a logic bug, not rounding.

use op2::core::{seq, AccessMode, Arg, Args, ChainSpec, Domain, LoopSpec};
use op2::mesh::{shuffle::shuffle_set, Annulus, AnnulusParams, Csr, Hex3D, Hex3DParams, Quad2D};
use op2::partition::{
    build_layouts, derive_ownership, kway_partition, rcb_partition, rib_partition, RankLayout,
};
use op2::runtime::exec::{run_chain, run_loop};
use op2::runtime::run_distributed;

/// produce: INC a at both ends, READ seed at both ends.
fn produce_kernel(args: &Args<'_>) {
    args.inc(0, 0, args.get(2, 0) + 1.0);
    args.inc(1, 0, args.get(3, 0) + 2.0);
}

/// transfer: READ a, INC b — the dependency that forces depth 2.
fn transfer_kernel(args: &Args<'_>) {
    args.inc(2, 0, args.get(0, 0) + args.get(1, 0));
    args.inc(3, 0, args.get(0, 0) - args.get(1, 0));
}

/// deepen: READ b, INC c — extends the chain to depth 3.
fn deepen_kernel(args: &Args<'_>) {
    args.inc(2, 0, 2.0 * args.get(0, 0));
    args.inc(3, 0, args.get(1, 0));
}

struct Chain3 {
    loops: Vec<LoopSpec>,
    dats: Vec<op2::core::DatId>,
}

/// A 3-loop produce → transfer → deepen chain over any edges→nodes map.
fn build_chain3(
    dom: &mut Domain,
    nodes: op2::core::SetId,
    edges: op2::core::SetId,
    e2n: op2::core::MapId,
) -> Chain3 {
    let n = dom.set(nodes).size;
    let seed: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 23) as f64).collect();
    let dseed = dom.decl_dat("seed", nodes, 1, seed);
    let a = dom.decl_dat_zeros("a", nodes, 1);
    let b = dom.decl_dat_zeros("b", nodes, 1);
    let c = dom.decl_dat_zeros("c", nodes, 1);
    let produce = LoopSpec::new(
        "produce",
        edges,
        vec![
            Arg::dat_indirect(a, e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(a, e2n, 1, AccessMode::Inc),
            Arg::dat_indirect(dseed, e2n, 0, AccessMode::Read),
            Arg::dat_indirect(dseed, e2n, 1, AccessMode::Read),
        ],
        produce_kernel,
    );
    let transfer = LoopSpec::new(
        "transfer",
        edges,
        vec![
            Arg::dat_indirect(a, e2n, 0, AccessMode::Read),
            Arg::dat_indirect(a, e2n, 1, AccessMode::Read),
            Arg::dat_indirect(b, e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(b, e2n, 1, AccessMode::Inc),
        ],
        transfer_kernel,
    );
    let deepen = LoopSpec::new(
        "deepen",
        edges,
        vec![
            Arg::dat_indirect(b, e2n, 0, AccessMode::Read),
            Arg::dat_indirect(b, e2n, 1, AccessMode::Read),
            Arg::dat_indirect(c, e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(c, e2n, 1, AccessMode::Inc),
        ],
        deepen_kernel,
    );
    Chain3 {
        loops: vec![produce, transfer, deepen],
        dats: vec![dseed, a, b, c],
    }
}

/// Run the three backends on a prepared domain; assert exact equality.
fn assert_equivalence(dom: &Domain, chain3: &Chain3, layouts: &[RankLayout]) {
    let chain = ChainSpec::new("pc3", chain3.loops.clone(), None, &[]).unwrap();
    assert_eq!(chain.halo_ext, vec![3, 2, 1]);

    let mut seq_dom = dom.clone();
    for l in &chain3.loops {
        seq::run_loop(&mut seq_dom, l);
    }

    let mut op2_dom = dom.clone();
    run_distributed(&mut op2_dom, layouts, |env| {
        for l in &chain3.loops {
            run_loop(env, l)?;
        }
        Ok(())
    })
    .unwrap_results();

    let mut ca_dom = dom.clone();
    run_distributed(&mut ca_dom, layouts, |env| run_chain(env, &chain)).unwrap_results();

    for &d in &chain3.dats {
        let name = &seq_dom.dat(d).name;
        assert_eq!(
            seq_dom.dat(d).data,
            op2_dom.dat(d).data,
            "OP2 != sequential on {name}"
        );
        assert_eq!(
            seq_dom.dat(d).data,
            ca_dom.dat(d).data,
            "CA != sequential on {name}"
        );
    }
}

#[test]
fn quad_mesh_rcb_various_rank_counts() {
    for nparts in [1, 2, 3, 5, 8] {
        let mut m = Quad2D::generate(11, 9);
        let chain3 = build_chain3(&mut m.dom, m.nodes, m.edges, m.e2n);
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, nparts);
        let own = derive_ownership(&m.dom, m.nodes, base, nparts);
        let layouts = build_layouts(&m.dom, &own, 3);
        assert_equivalence(&m.dom, &chain3, &layouts);
    }
}

#[test]
fn hex_mesh_rib() {
    let mut m = Hex3D::generate(Hex3DParams::cube(9));
    let chain3 = build_chain3(&mut m.dom, m.nodes, m.edges, m.e2n);
    let base = rib_partition(m.node_coords(), 3, 6);
    let own = derive_ownership(&m.dom, m.nodes, base, 6);
    let layouts = build_layouts(&m.dom, &own, 3);
    assert_equivalence(&m.dom, &chain3, &layouts);
}

#[test]
fn hex_mesh_kway() {
    let mut m = Hex3D::generate(Hex3DParams::cube(8));
    let chain3 = build_chain3(&mut m.dom, m.nodes, m.edges, m.e2n);
    let graph = Csr::node_graph(m.dom.map(m.e2n), m.dom.set(m.nodes).size);
    let base = kway_partition(&graph, 5, 3);
    let own = derive_ownership(&m.dom, m.nodes, base, 5);
    let layouts = build_layouts(&m.dom, &own, 3);
    assert_equivalence(&m.dom, &chain3, &layouts);
}

/// Shuffled (genuinely unstructured) numbering must not matter.
#[test]
fn shuffled_hex_mesh() {
    let mut m = Hex3D::generate(Hex3DParams::cube(8));
    shuffle_set(&mut m.dom, m.nodes, 1234);
    shuffle_set(&mut m.dom, m.edges, 5678);
    let chain3 = build_chain3(&mut m.dom, m.nodes, m.edges, m.e2n);
    let base = rcb_partition(&m.dom.dat(m.coords).data, 3, 4);
    let own = derive_ownership(&m.dom, m.nodes, base, 4);
    let layouts = build_layouts(&m.dom, &own, 3);
    assert_equivalence(&m.dom, &chain3, &layouts);
}

/// The tetrahedral mesh: degree-14 nodes, fatter halo rings.
#[test]
fn tet_mesh_kuhn_subdivision() {
    let mut m = op2::mesh::Tet3D::generate(7, 7, 7);
    let chain3 = build_chain3(&mut m.dom, m.nodes, m.edges, m.e2n);
    let base = rcb_partition(m.node_coords(), 3, 5);
    let own = derive_ownership(&m.dom, m.nodes, base, 5);
    let layouts = build_layouts(&m.dom, &own, 3);
    assert_equivalence(&m.dom, &chain3, &layouts);
}

/// A tet-mesh chain through the arity-4 tets→nodes map: tets scatter
/// into nodes, edges read the result back.
#[test]
fn tet_mesh_arity4_chain() {
    let mut m = op2::mesh::Tet3D::generate(6, 6, 6);
    let n = m.dom.set(m.nodes).size;
    let seed: Vec<f64> = (0..n).map(|i| ((i * 11 + 5) % 19) as f64).collect();
    let dseed = m.dom.decl_dat("seed", m.nodes, 1, seed);
    let acc = m.dom.decl_dat_zeros("acc", m.nodes, 1);
    let out = m.dom.decl_dat_zeros("out", m.nodes, 1);
    fn tet_kernel(args: &Args<'_>) {
        let s: f64 = (4..8).map(|i| args.get(i, 0)).sum();
        for i in 0..4 {
            args.inc(i, 0, s);
        }
    }
    fn edge_kernel(args: &Args<'_>) {
        args.inc(2, 0, args.get(0, 0));
        args.inc(3, 0, args.get(1, 0));
    }
    let tet_loop = LoopSpec::new(
        "tet_scatter",
        m.tets,
        vec![
            Arg::dat_indirect(acc, m.t2n, 0, AccessMode::Inc),
            Arg::dat_indirect(acc, m.t2n, 1, AccessMode::Inc),
            Arg::dat_indirect(acc, m.t2n, 2, AccessMode::Inc),
            Arg::dat_indirect(acc, m.t2n, 3, AccessMode::Inc),
            Arg::dat_indirect(dseed, m.t2n, 0, AccessMode::Read),
            Arg::dat_indirect(dseed, m.t2n, 1, AccessMode::Read),
            Arg::dat_indirect(dseed, m.t2n, 2, AccessMode::Read),
            Arg::dat_indirect(dseed, m.t2n, 3, AccessMode::Read),
        ],
        tet_kernel,
    );
    let edge_loop = LoopSpec::new(
        "edge_gather",
        m.edges,
        vec![
            Arg::dat_indirect(acc, m.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(acc, m.e2n, 1, AccessMode::Read),
            Arg::dat_indirect(out, m.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(out, m.e2n, 1, AccessMode::Inc),
        ],
        edge_kernel,
    );
    let chain =
        ChainSpec::new("tet_chain", vec![tet_loop.clone(), edge_loop.clone()], None, &[]).unwrap();
    assert_eq!(chain.halo_ext, vec![2, 1]);

    let mut seq_dom = m.dom.clone();
    seq::run_loop(&mut seq_dom, &tet_loop);
    seq::run_loop(&mut seq_dom, &edge_loop);

    let base = rcb_partition(m.node_coords(), 3, 4);
    let own = derive_ownership(&m.dom, m.nodes, base, 4);
    let layouts = build_layouts(&m.dom, &own, 2);
    run_distributed(&mut m.dom, &layouts, |env| run_chain(env, &chain)).unwrap_results();
    assert_eq!(seq_dom.dat(acc).data, m.dom.dat(acc).data);
    assert_eq!(seq_dom.dat(out).data, m.dom.dat(out).data);
}

/// The annular mesh with periodic edges exercises long-range couplings.
#[test]
fn annulus_mesh_with_periodic_couplings() {
    let mut m = Annulus::generate(AnnulusParams::small(7, 7, 7));
    let chain3 = build_chain3(&mut m.dom, m.nodes, m.edges, m.e2n);
    let base = rib_partition(m.node_coords(), 3, 4);
    let own = derive_ownership(&m.dom, m.nodes, base, 4);
    let layouts = build_layouts(&m.dom, &own, 3);
    assert_equivalence(&m.dom, &chain3, &layouts);
}

/// Re-running a chain (dirty halos at entry) still matches: the second
/// execution must trigger a genuine grouped exchange.
#[test]
fn repeated_chain_executions_match() {
    let mut m = Quad2D::generate(10, 10);
    let chain3 = build_chain3(&mut m.dom, m.nodes, m.edges, m.e2n);
    let chain = ChainSpec::new("pc3", chain3.loops.clone(), None, &[]).unwrap();
    let base = rcb_partition(&m.dom.dat(m.coords).data, 2, 4);
    let own = derive_ownership(&m.dom, m.nodes, base, 4);
    let layouts = build_layouts(&m.dom, &own, 3);

    // Dirty `seed` first (a standalone direct write), so the first
    // chain execution has something to import.
    fn bump_seed(args: &Args<'_>) {
        args.set(0, 0, args.get(0, 0) + 1.0);
    }
    let bump = LoopSpec::new(
        "bump_seed",
        m.nodes,
        vec![Arg::dat_direct(chain3.dats[0], AccessMode::Rw)],
        bump_seed,
    );

    let mut seq_dom = m.dom.clone();
    seq::run_loop(&mut seq_dom, &bump);
    for _ in 0..3 {
        for l in &chain3.loops {
            seq::run_loop(&mut seq_dom, l);
        }
    }
    let out = run_distributed(&mut m.dom, &layouts, |env| {
        run_loop(env, &bump)?;
        for _ in 0..3 {
            run_chain(env, &chain)?;
        }
        Ok(env.trace.chains.len())
    });
    assert!(out.all_ok());
    for &d in &chain3.dats {
        assert_eq!(seq_dom.dat(d).data, m.dom.dat(d).data);
    }
    // A pleasant CA property this pins down: the deep redundant
    // execution leaves every dat's halo valid to exactly the depth the
    // next repetition requires (an INC at extent e needs priors to
    // e − 1 and leaves validity e − 1), so only the *first* execution
    // imports anything — repetitions are communication-free while still
    // bit-identical to the sequential reference.
    for (rank, trace) in out.traces.iter().enumerate() {
        if layouts[rank].neighbors.is_empty() {
            continue;
        }
        assert!(trace.chains[0].exch.n_msgs > 0, "rank {rank} first run");
        assert_eq!(trace.chains[1].exch.n_msgs, 0, "rank {rank} second run");
        assert_eq!(trace.chains[2].exch.n_msgs, 0, "rank {rank} third run");
    }
}

/// A chain over two different iteration sets (boundary elements feed
/// edges) with a shared target dat.
#[test]
fn mixed_set_chain() {
    let mut m = Hex3D::generate(Hex3DParams::cube(7));
    let n = m.dom.set(m.nodes).size;
    let seed: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) % 11) as f64).collect();
    let dseed = m.dom.decl_dat("seed", m.nodes, 1, seed);
    let acc = m.dom.decl_dat_zeros("acc", m.nodes, 1);
    let out_dat = m.dom.decl_dat_zeros("out", m.nodes, 1);

    fn bnd_kernel(args: &Args<'_>) {
        args.inc(0, 0, 3.0 * args.get(1, 0));
    }
    fn edge_kernel(args: &Args<'_>) {
        args.inc(2, 0, args.get(0, 0));
        args.inc(3, 0, args.get(1, 0));
    }
    let bnd_loop = LoopSpec::new(
        "bnd_inc",
        m.bnodes,
        vec![
            Arg::dat_indirect(acc, m.b2n, 0, AccessMode::Inc),
            Arg::dat_indirect(dseed, m.b2n, 0, AccessMode::Read),
        ],
        bnd_kernel,
    );
    let edge_loop = LoopSpec::new(
        "edge_read",
        m.edges,
        vec![
            Arg::dat_indirect(acc, m.e2n, 0, AccessMode::Read),
            Arg::dat_indirect(acc, m.e2n, 1, AccessMode::Read),
            Arg::dat_indirect(out_dat, m.e2n, 0, AccessMode::Inc),
            Arg::dat_indirect(out_dat, m.e2n, 1, AccessMode::Inc),
        ],
        edge_kernel,
    );
    let chain =
        ChainSpec::new("mixed", vec![bnd_loop.clone(), edge_loop.clone()], None, &[]).unwrap();
    assert_eq!(chain.halo_ext, vec![2, 1]);

    let mut seq_dom = m.dom.clone();
    seq::run_loop(&mut seq_dom, &bnd_loop);
    seq::run_loop(&mut seq_dom, &edge_loop);

    let base = rcb_partition(m.node_coords(), 3, 4);
    let own = derive_ownership(&m.dom, m.nodes, base, 4);
    let layouts = build_layouts(&m.dom, &own, 2);
    run_distributed(&mut m.dom, &layouts, |env| run_chain(env, &chain)).unwrap_results();
    assert_eq!(seq_dom.dat(acc).data, m.dom.dat(acc).data);
    assert_eq!(seq_dom.dat(out_dat).data, m.dom.dat(out_dat).data);
}
