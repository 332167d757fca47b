//! Per-chunk dependency DAG over a lowered [`Schedule`] — the inspector
//! side of the dataflow executor.
//!
//! The leveled schedule is a conservative rendering of the true
//! dependence structure: a level barrier orders *every* chunk of level
//! `k` against *every* chunk of level `k+1`, even when only one pair
//! actually conflicts. [`ChunkDag::build`] recovers the exact structure:
//! an edge `p → c` exists iff chunk `p` and chunk `c` touch a common
//! element with at least one side modifying it. A chunk may then *fire*
//! the moment its own predecessors finish, across level boundaries —
//! the level-synchronous idle time (every chunk waiting for the slowest
//! chunk of the previous level) disappears.
//!
//! **Determinism argument (`OP_INC` merge ordering).** Chunks are
//! enumerated level-major (level 0's chunks first, in order, then level
//! 1's, …). The conflict rule ([`crate::conflict`]) puts every
//! conflicting chunk pair on *distinct* levels, ascending in sequential
//! order — so for any two conflicting chunks the level-major enumeration
//! agrees with sequential execution order, and the builder (which scans
//! chunks in that enumeration, tracking the last writer and *every*
//! reader since it per element) emits an edge for each such pair. Any
//! execution that respects the DAG therefore applies each element's
//! updates — in particular its floating-point `Inc` merges — in exactly
//! the sequential order; chunks with no path between them touch disjoint
//! modified elements and may interleave freely. Results are **bitwise
//! identical** to the sequential walk at any thread count, with any
//! steal order.
//!
//! Chunks are resolved to the elements they touch by the rule's own
//! walker ([`crate::conflict::for_each_touch`]) under the chain-wide
//! selector ([`crate::conflict::chain_accesses`]): cross-chunk edges of a
//! chain schedule must cover dats one loop writes (even directly) and
//! another reads — the write→read hand-off between chain loops that the
//! per-loop selector deliberately ignores.

use crate::conflict::{for_each_touch, ConflictAccess};
use crate::schedule::Schedule;

/// The per-chunk dependency DAG of one lowered [`Schedule`]. Chunk ids
/// are level-major positions (level 0's chunks first, in order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkDag {
    /// Number of chunks (nodes).
    pub n_chunks: usize,
    /// Number of edges.
    pub n_edges: usize,
    /// Predecessor count per chunk — the initial value of each chunk's
    /// firing counter.
    pub deps: Vec<u32>,
    /// Successor lists: `succs[p]` are the chunks whose counters drop
    /// when `p` finishes.
    pub succs: Vec<Vec<u32>>,
    /// `(level, index-within-level)` of each chunk id, for executors
    /// that walk the owning [`Schedule`].
    pub locs: Vec<(u32, u32)>,
    /// Chunks with no predecessors, ascending (level-major order).
    pub roots: Vec<u32>,
    /// Longest-path depth per chunk (roots = 1).
    pub depth: Vec<u32>,
    /// Critical-path length — the serial lower bound on dataflow
    /// execution, against `n_levels` barriers for the leveled walk.
    pub crit_path: u32,
}

impl ChunkDag {
    /// Build the DAG for `sched`. `accesses[j]` are loop `j`'s
    /// conflict-relevant accesses (one entry per chain loop — use
    /// [`crate::conflict::chain_accesses`]); `set_sizes` bounds the
    /// target index space per set, exactly as in
    /// [`crate::conflict::conflict_levels`].
    ///
    /// Scans chunks level-major, tracking per element the last writing
    /// chunk and **every** reading chunk since that write: a writer
    /// depends on the last writer *and all* intervening readers (with
    /// barriers gone, waiting on the latest reader alone would not
    /// imply the earlier ones finished), a reader depends on the last
    /// writer only. Self-edges cannot arise (a chunk's own accesses are
    /// recorded only after its predecessors are gathered).
    ///
    /// Chunk windows ([`crate::schedule::Chunk::mask`]) are not
    /// consulted: owner-computes schedules have a single level, which
    /// the runtime always drains leveled, so no windowed chunk reaches
    /// this builder. (Given one anyway it would stay correct but
    /// serialize the level: unmasked, the chunks' cut iterations
    /// conflict.)
    pub fn build(
        sched: &Schedule,
        set_sizes: &[usize],
        accesses: &[Vec<ConflictAccess<'_>>],
    ) -> ChunkDag {
        assert_eq!(
            accesses.len(),
            sched.n_loops,
            "one access list per chain loop"
        );
        let n_chunks = sched.n_chunks();
        // 1-based last-writer chunk per element (0 = none yet), and the
        // 1-based chunks that read it since (ascending, deduped at the
        // tail — one chunk's repeat reads are adjacent).
        let mut last_w: Vec<Vec<u32>> = set_sizes.iter().map(|&s| vec![0u32; s]).collect();
        let mut readers: Vec<Vec<Vec<u32>>> =
            set_sizes.iter().map(|&s| vec![Vec::new(); s]).collect();
        let mut deps = vec![0u32; n_chunks];
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); n_chunks];
        let mut locs = Vec::with_capacity(n_chunks);
        let mut depth = vec![0u32; n_chunks];
        // Stamp array deduping this chunk's predecessor set.
        let mut mark = vec![u32::MAX; n_chunks];
        let mut preds: Vec<u32> = Vec::new();
        let mut n_edges = 0usize;
        let mut c = 0u32;
        for (li, level) in sched.levels.iter().enumerate() {
            for (ci, chunk) in level.chunks.iter().enumerate() {
                locs.push((li as u32, ci as u32));
                preds.clear();
                for_each_touch(accesses, chunk, &mut |a, t| {
                    let w = last_w[a.set][t];
                    if w != 0 && mark[(w - 1) as usize] != c {
                        mark[(w - 1) as usize] = c;
                        preds.push(w - 1);
                    }
                    if a.writes {
                        for &r in &readers[a.set][t] {
                            if mark[(r - 1) as usize] != c {
                                mark[(r - 1) as usize] = c;
                                preds.push(r - 1);
                            }
                        }
                    }
                });
                for_each_touch(accesses, chunk, &mut |a, t| {
                    if a.writes {
                        last_w[a.set][t] = c + 1;
                        readers[a.set][t].clear();
                    } else if readers[a.set][t].last() != Some(&(c + 1)) {
                        readers[a.set][t].push(c + 1);
                    }
                });
                let mut d = 0u32;
                for &p in &preds {
                    succs[p as usize].push(c);
                    deps[c as usize] += 1;
                    d = d.max(depth[p as usize]);
                    n_edges += 1;
                }
                depth[c as usize] = d + 1;
                c += 1;
            }
        }
        let roots: Vec<u32> = (0..n_chunks as u32)
            .filter(|&i| deps[i as usize] == 0)
            .collect();
        let crit_path = depth.iter().copied().max().unwrap_or(0);
        ChunkDag {
            n_chunks,
            n_edges,
            deps,
            succs,
            locs,
            roots,
            depth,
            crit_path,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMode, Arg};
    use crate::conflict::chain_accesses;
    use crate::domain::Domain;
    use crate::kernel::Args;
    use crate::loops::LoopSpec;
    use crate::par::colored_schedule;
    use crate::schedule::{Chunk, Level, Piece, ScheduleKind};

    fn noop(_: &Args<'_>) {}

    fn path_fixture(n_nodes: usize) -> (Domain, LoopSpec) {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n_nodes);
        let edges = dom.decl_set("edges", n_nodes - 1);
        let vals: Vec<u32> = (0..n_nodes as u32 - 1).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let p = dom.decl_dat_zeros("pres", nodes, 1);
        let r = dom.decl_dat_zeros("res", nodes, 1);
        let spec = LoopSpec::new(
            "flux",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(p, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(p, e2n, 1, AccessMode::Read),
            ],
            noop,
        );
        (dom, spec)
    }

    fn dag_for(dom: &Domain, spec: &LoopSpec, block_size: usize) -> (Schedule, ChunkDag) {
        let (sig, set_sizes) = (spec.sig(), dom.set_sizes());
        let n = dom.set(sig.set).size;
        let sched = colored_schedule(dom.maps(), &sig, 0, n, block_size, &set_sizes);
        let acc = chain_accesses(dom.maps(), &[sig]);
        let dag = ChunkDag::build(&sched, &set_sizes, &acc);
        (sched, dag)
    }

    /// On a path graph, consecutive blocks chain: the DAG is a single
    /// path whose critical depth equals the level count.
    #[test]
    fn path_blocks_form_a_chain() {
        let (dom, spec) = path_fixture(65);
        let (sched, dag) = dag_for(&dom, &spec, 16);
        assert_eq!(dag.n_chunks, 4);
        assert_eq!(dag.deps, vec![0, 1, 1, 1]);
        assert_eq!(dag.succs, vec![vec![1], vec![2], vec![3], vec![]]);
        assert_eq!(dag.roots, vec![0]);
        assert_eq!(dag.crit_path as usize, sched.n_levels());
        assert_eq!(dag.n_edges, 3);
    }

    /// Disjoint blocks are all roots: depth 1 everywhere, no edges.
    #[test]
    fn disjoint_blocks_are_all_roots() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 8);
        let edges = dom.decl_set("edges", 4);
        let vals: Vec<u32> = (0..4u32).flat_map(|i| [2 * i, 2 * i + 1]).collect();
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vals).unwrap();
        let r = dom.decl_dat_zeros("res", nodes, 1);
        let spec = LoopSpec::new(
            "inc",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(r, e2n, 1, AccessMode::Inc),
            ],
            noop,
        );
        let (_, dag) = dag_for(&dom, &spec, 1);
        assert_eq!(dag.n_edges, 0);
        assert_eq!(dag.roots, vec![0, 1, 2, 3]);
        assert_eq!(dag.crit_path, 1);
    }

    /// A writer must depend on **every** reader since the last write,
    /// not just the latest one — the readers-list rule.
    #[test]
    fn writer_depends_on_all_intervening_readers() {
        let mut dom = Domain::new();
        let iters = dom.decl_set("iters", 4);
        let targets = dom.decl_set("targets", 4);
        // it0 writes t0; it1/it2 (same level) read t0; it3 rewrites t0.
        let wmap = dom
            .decl_map("w", iters, targets, 1, vec![0, 1, 2, 0])
            .unwrap();
        let rmap = dom
            .decl_map("r", iters, targets, 1, vec![3, 0, 0, 3])
            .unwrap();
        let x = dom.decl_dat_zeros("x", targets, 1);
        let spec = LoopSpec::new(
            "rw",
            iters,
            vec![
                Arg::dat_indirect(x, wmap, 0, AccessMode::Write),
                Arg::dat_indirect(x, rmap, 0, AccessMode::Read),
            ],
            noop,
        );
        // Hand-built: level 0 = {it0}, level 1 = {it1}, {it2}, level 2 =
        // {it3}. it1 and it2 only read x[0] → conflict-free, same level.
        let chunk = |s: u32, e: u32| {
            Chunk::new(vec![Piece::Range {
                loop_idx: 0,
                start: s,
                end: e,
            }])
        };
        let sched = Schedule {
            n_loops: 1,
            kind: ScheduleKind::Colored { block_size: 1 },
            levels: vec![
                Level {
                    chunks: vec![chunk(0, 1)],
                },
                Level {
                    chunks: vec![chunk(1, 2), chunk(2, 3)],
                },
                Level {
                    chunks: vec![chunk(3, 4)],
                },
            ],
        };
        let set_sizes = dom.set_sizes();
        let acc = chain_accesses(dom.maps(), &[spec.sig()]);
        let dag = ChunkDag::build(&sched, &set_sizes, &acc);
        // Readers 1 and 2 each depend on writer 0; rewriter 3 depends on
        // writer 0 *and both* readers.
        assert_eq!(dag.deps, vec![0, 1, 1, 3]);
        assert!(dag.succs[1].contains(&3) && dag.succs[2].contains(&3));
        assert_eq!(dag.crit_path, 3);
    }

    /// Cross-loop hand-off through a directly-written dat: the per-loop
    /// conflict rule ignores it (no intra-loop collision is possible),
    /// the chain-wide [`chain_accesses`] must not.
    #[test]
    fn chain_accesses_cover_direct_write_to_indirect_read() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 3);
        let edges = dom.decl_set("edges", 2);
        let e2n = dom
            .decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2])
            .unwrap();
        let x = dom.decl_dat_zeros("x", nodes, 1);
        let r = dom.decl_dat_zeros("r", nodes, 1);
        let stage = LoopSpec::new(
            "stage",
            nodes,
            vec![Arg::dat_direct(x, AccessMode::Write)],
            noop,
        );
        let apply = LoopSpec::new(
            "apply",
            edges,
            vec![
                Arg::dat_indirect(r, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(x, e2n, 1, AccessMode::Read),
            ],
            noop,
        );
        let sigs = vec![stage.sig(), apply.sig()];
        // Per-loop rule: x is only modified directly in `stage`, so it
        // contributes nothing there.
        assert!(crate::conflict::conflict_accesses(dom.maps(), &sigs[0]).is_empty());
        let acc = chain_accesses(dom.maps(), &sigs);
        assert_eq!(acc[0].len(), 1, "direct write of x must appear");
        // Two-chunk chain schedule: stage then apply — one edge.
        let sched = Schedule {
            n_loops: 2,
            // Provenance only: nothing reads a schedule's kind here.
            kind: ScheduleKind::Direct,
            levels: vec![
                Level {
                    chunks: vec![Chunk::new(vec![Piece::Range {
                        loop_idx: 0,
                        start: 0,
                        end: 3,
                    }])],
                },
                Level {
                    chunks: vec![Chunk::new(vec![Piece::Range {
                        loop_idx: 1,
                        start: 0,
                        end: 2,
                    }])],
                },
            ],
        };
        let set_sizes = dom.set_sizes();
        let dag = ChunkDag::build(&sched, &set_sizes, &acc);
        assert_eq!(dag.deps, vec![0, 1]);
        assert_eq!(dag.succs[0], vec![1]);
    }

    /// DAG edges always point from lower to higher chunk id (acyclic by
    /// construction) and root/depth bookkeeping is consistent.
    #[test]
    fn dag_invariants_hold_on_a_real_coloring() {
        let (dom, spec) = path_fixture(257);
        let (_, dag) = dag_for(&dom, &spec, 8);
        for (p, ss) in dag.succs.iter().enumerate() {
            for &s in ss {
                assert!((s as usize) > p, "edge {p}->{s} must ascend");
                assert!(dag.depth[s as usize] > dag.depth[p]);
            }
        }
        let edge_total: usize = dag.succs.iter().map(Vec::len).sum();
        assert_eq!(edge_total, dag.n_edges);
        let dep_total: u32 = dag.deps.iter().sum();
        assert_eq!(dep_total as usize, dag.n_edges);
        for &r in &dag.roots {
            assert_eq!(dag.depth[r as usize], 1);
        }
    }
}
