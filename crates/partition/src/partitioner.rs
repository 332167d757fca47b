//! Base-set partitioners.
//!
//! OP2 partitions one set (nodes, here) and derives the rest. The paper
//! uses two partitioners: ParMETIS' k-way routine for the MG-CFD runs
//! ("to obtain the best partitions per process") and Hydra's default
//! recursive inertial bisection. We provide both roles plus plain RCB:
//!
//! * [`rcb_partition`] — recursive coordinate bisection: split along the
//!   longest bounding-box axis at the median, recurse;
//! * [`rib_partition`] — recursive inertial bisection: split along the
//!   principal axis of the point cloud (dominant eigenvector of the
//!   covariance, found by power iteration), recurse;
//! * [`kway_partition`] — greedy graph growing over the node graph with
//!   balanced part sizes, followed by a boundary-refinement sweep that
//!   moves elements to the neighbouring part hosting most of their
//!   neighbours when this does not unbalance parts — a stand-in for
//!   ParMETIS k-way.
//!
//! Every partitioner supports non-power-of-two part counts and guarantees
//! each part is non-empty whenever `n >= nparts`.

use op2_mesh::Csr;

/// Partition by recursive coordinate bisection. `coords` holds `dims`
/// components per element. Returns the owning rank of every element.
pub fn rcb_partition(coords: &[f64], dims: usize, nparts: usize) -> Vec<u32> {
    bisect_partition(coords, dims, nparts, SplitAxis::Longest)
}

/// Partition by recursive inertial bisection.
pub fn rib_partition(coords: &[f64], dims: usize, nparts: usize) -> Vec<u32> {
    bisect_partition(coords, dims, nparts, SplitAxis::Inertial)
}

#[derive(Clone, Copy)]
enum SplitAxis {
    Longest,
    Inertial,
}

fn bisect_partition(coords: &[f64], dims: usize, nparts: usize, axis: SplitAxis) -> Vec<u32> {
    assert!((1..=3).contains(&dims), "1-3 coordinate dims supported");
    assert!(nparts >= 1, "need at least one part");
    let n = coords.len() / dims;
    assert_eq!(coords.len(), n * dims);
    let mut owner = vec![0u32; n];
    let mut ids: Vec<u32> = (0..n as u32).collect();
    recurse(coords, dims, &mut ids, 0, nparts as u32, &mut owner, axis);
    owner
}

/// Split index of an `n`-element slice: proportional to the part counts
/// on either side, clamped so both sides keep at least one element per
/// part whenever possible.
fn split_point(n: usize, left_parts: u32, count: u32) -> usize {
    let raw = (n as u64 * left_parts as u64 / count as u64) as usize;
    // Keep every part non-empty when there are enough elements: the left
    // side needs `left_parts` elements, the right `count - left_parts`.
    let right_parts = (count - left_parts) as usize;
    if n >= count as usize {
        raw.clamp(left_parts as usize, n - right_parts)
    } else {
        raw.min(n)
    }
}

/// Assign `ids` to ranks `[first, first + count)`, splitting in
/// proportion to the part counts so uneven part counts stay balanced.
fn recurse(
    coords: &[f64],
    dims: usize,
    ids: &mut [u32],
    first: u32,
    count: u32,
    owner: &mut [u32],
    axis: SplitAxis,
) {
    if count == 1 || ids.is_empty() {
        for &e in ids.iter() {
            owner[e as usize] = first;
        }
        return;
    }
    let left_parts = count / 2;
    let right_parts = count - left_parts;

    let mut keyed: Vec<(f64, u32)> = match axis {
        SplitAxis::Longest => {
            let ax = longest_axis(coords, dims, ids);
            ids.iter().map(|&e| (coords[e as usize * dims + ax], e)).collect()
        }
        SplitAxis::Inertial => {
            let dir = principal_axis(coords, dims, ids);
            let dot = |e: u32| (0..dims).map(|d| coords[e as usize * dims + d] * dir[d]).sum();
            ids.iter().map(|&e| (dot(e), e)).collect()
        }
    };
    // (key, id) is a total order, so a selection finds the `split`
    // smallest elements a sort would. RIB's children sum their principal
    // axis in element order, so a RIB side that splits again is sorted;
    // RCB's longest axis is a min/max, which needs no order.
    let by_key = |a: &(f64, u32), b: &(f64, u32)| {
        (a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)).then(a.1.cmp(&b.1))
    };
    let split = split_point(ids.len(), left_parts, count);
    keyed.select_nth_unstable_by(split, by_key);
    let (left, right) = keyed.split_at_mut(split);
    for (side, parts) in [(left, left_parts), (right, right_parts)] {
        if parts > 1 && matches!(axis, SplitAxis::Inertial) {
            side.sort_unstable_by(by_key);
        }
    }
    ids.iter_mut().zip(&keyed).for_each(|(id, &(_, e))| *id = e);

    let (left, right) = ids.split_at_mut(split);
    recurse(coords, dims, left, first, left_parts, owner, axis);
    recurse(coords, dims, right, first + left_parts, right_parts, owner, axis);
}

fn longest_axis(coords: &[f64], dims: usize, ids: &[u32]) -> usize {
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &e in ids {
        for d in 0..dims {
            let v = coords[e as usize * dims + d];
            lo[d] = lo[d].min(v);
            hi[d] = hi[d].max(v);
        }
    }
    (0..dims)
        .max_by(|&a, &b| {
            (hi[a] - lo[a])
                .partial_cmp(&(hi[b] - lo[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or(0)
}

/// Dominant eigenvector of the covariance matrix of the selected points,
/// by power iteration. Falls back to the longest axis for degenerate
/// clouds (e.g. all points identical).
fn principal_axis(coords: &[f64], dims: usize, ids: &[u32]) -> [f64; 3] {
    let n = ids.len().max(1) as f64;
    let mut mean = [0.0f64; 3];
    for &e in ids {
        for d in 0..dims {
            mean[d] += coords[e as usize * dims + d];
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    // Covariance (symmetric, dims x dims).
    let mut cov = [[0.0f64; 3]; 3];
    for &e in ids {
        let mut p = [0.0f64; 3];
        for d in 0..dims {
            p[d] = coords[e as usize * dims + d] - mean[d];
        }
        for a in 0..dims {
            for b in 0..dims {
                cov[a][b] += p[a] * p[b];
            }
        }
    }
    let mut v = [1.0f64, 0.7, 0.4];
    for _ in 0..30 {
        let mut w = [0.0f64; 3];
        for a in 0..dims {
            for b in 0..dims {
                w[a] += cov[a][b] * v[b];
            }
        }
        let norm = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt();
        if norm < 1e-30 {
            // Degenerate cloud: any direction works.
            let ax = longest_axis(coords, dims, ids);
            let mut unit = [0.0; 3];
            unit[ax] = 1.0;
            return unit;
        }
        for a in 0..3 {
            v[a] = w[a] / norm;
        }
    }
    v
}

/// Greedy k-way graph partitioner over a symmetric adjacency (node
/// graph): grow `nparts` balanced parts by BFS from spread-out seeds,
/// then run `refine_sweeps` boundary sweeps moving elements to the
/// neighbouring part hosting the majority of their neighbours, subject to
/// a ±3% balance constraint.
pub fn kway_partition(graph: &Csr, nparts: usize, refine_sweeps: usize) -> Vec<u32> {
    let n = graph.len();
    assert!(nparts >= 1);
    let mut owner = vec![u32::MAX; n];
    if nparts == 1 {
        owner.fill(0);
        return owner;
    }
    let target = n.div_ceil(nparts);
    let cap = target + (target / 32).max(1); // growth cap per part

    // Seeds: spread through the index space (grid generators emit
    // spatially coherent numbering; for shuffled meshes the refinement
    // sweeps recover locality).
    let mut sizes = vec![0usize; nparts];
    let mut frontier: Vec<std::collections::VecDeque<u32>> =
        (0..nparts).map(|_| std::collections::VecDeque::new()).collect();
    for p in 0..nparts {
        let seed = (p * n / nparts) as u32;
        frontier[p].push_back(seed);
    }

    // Round-robin BFS growth, bounded per part.
    let mut unassigned = n;
    let mut scan = 0usize; // fallback cursor for disconnected leftovers
    while unassigned > 0 {
        let mut progressed = false;
        for p in 0..nparts {
            if sizes[p] >= cap {
                continue;
            }
            // Pop until we find an unassigned vertex.
            while let Some(v) = frontier[p].pop_front() {
                if owner[v as usize] != u32::MAX {
                    continue;
                }
                owner[v as usize] = p as u32;
                sizes[p] += 1;
                unassigned -= 1;
                for &w in graph.row(v as usize) {
                    if owner[w as usize] == u32::MAX {
                        frontier[p].push_back(w);
                    }
                }
                progressed = true;
                break;
            }
        }
        if !progressed {
            // All frontiers exhausted or full: seed the smallest part
            // with the next unassigned vertex.
            while scan < n && owner[scan] != u32::MAX {
                scan += 1;
            }
            if scan >= n {
                break;
            }
            let p = (0..nparts).min_by_key(|&p| sizes[p]).unwrap();
            // Lift the cap if everything is full but vertices remain.
            frontier[p].push_back(scan as u32);
            sizes[p] = sizes[p].min(cap - 1);
        }
    }

    refine(graph, &mut owner, nparts, cap, refine_sweeps);
    owner
}

/// Boundary refinement: move each boundary vertex to the adjacent part
/// with the most of its neighbours if that strictly reduces cut edges and
/// keeps both parts within the cap.
fn refine(graph: &Csr, owner: &mut [u32], nparts: usize, cap: usize, sweeps: usize) {
    let n = graph.len();
    let mut sizes = vec![0usize; nparts];
    for &o in owner.iter() {
        sizes[o as usize] += 1;
    }
    let min_size = 1usize;
    for _ in 0..sweeps {
        let mut moved = 0usize;
        for v in 0..n {
            let cur = owner[v] as usize;
            let row = graph.row(v);
            if row.iter().all(|&w| owner[w as usize] as usize == cur) {
                continue; // interior vertex
            }
            // Count neighbours per adjacent part.
            let mut best_part = cur;
            let mut best_count = row
                .iter()
                .filter(|&&w| owner[w as usize] as usize == cur)
                .count();
            for &w in row {
                let p = owner[w as usize] as usize;
                if p == cur || p == best_part {
                    continue;
                }
                let c = row.iter().filter(|&&x| owner[x as usize] as usize == p).count();
                if c > best_count {
                    best_count = c;
                    best_part = p;
                }
            }
            if best_part != cur && sizes[best_part] < cap && sizes[cur] > min_size {
                owner[v] = best_part as u32;
                sizes[cur] -= 1;
                sizes[best_part] += 1;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Number of cut edges (edge list form) under an ownership assignment —
/// the quality metric partitioner tests and benches report.
pub fn cut_edges(edge_list: &[u32], owner: &[u32]) -> usize {
    edge_list
        .chunks_exact(2)
        .filter(|e| owner[e[0] as usize] != owner[e[1] as usize])
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_mesh::{Annulus, AnnulusParams, Hex3D, Hex3DParams};

    fn check_balance(owner: &[u32], nparts: usize, slack: f64) {
        let mut sizes = vec![0usize; nparts];
        for &o in owner {
            sizes[o as usize] += 1;
        }
        let target = owner.len() as f64 / nparts as f64;
        for (p, &s) in sizes.iter().enumerate() {
            assert!(s > 0, "part {p} empty");
            assert!(
                (s as f64) <= target * (1.0 + slack) + 1.0,
                "part {p} oversized: {s} vs target {target}"
            );
        }
    }

    #[test]
    fn rcb_balanced_and_total() {
        let m = Hex3D::generate(Hex3DParams::cube(8));
        for nparts in [1, 2, 3, 4, 7, 8] {
            let owner = rcb_partition(m.node_coords(), 3, nparts);
            assert_eq!(owner.len(), 512);
            check_balance(&owner, nparts, 0.02);
        }
    }

    #[test]
    fn rib_balanced() {
        let m = Hex3D::generate(Hex3DParams::cube(8));
        for nparts in [2, 5, 8] {
            let owner = rib_partition(m.node_coords(), 3, nparts);
            check_balance(&owner, nparts, 0.02);
        }
    }

    #[test]
    fn rcb_cut_scales_with_surface() {
        // Halving a cube should cut about n² edges, far fewer than random.
        let n = 10;
        let m = Hex3D::generate(Hex3DParams::cube(n));
        let owner = rcb_partition(m.node_coords(), 3, 2);
        let cut = cut_edges(&m.dom.map(m.e2n).values, &owner);
        assert_eq!(cut, n * n, "RCB on a cube must cut exactly one plane");
    }

    #[test]
    fn kway_balanced_and_better_than_stripes() {
        let m = Hex3D::generate(Hex3DParams::cube(10));
        let graph = Csr::node_graph(m.dom.map(m.e2n), 1000);
        let owner = kway_partition(&graph, 8, 4);
        check_balance(&owner, 8, 0.05);
        let cut = cut_edges(&m.dom.map(m.e2n).values, &owner);
        // Stripe partitioning (by index) cuts 7 full planes = 700 edges;
        // a decent k-way should do no worse than ~1.5x the RCB-like cut.
        assert!(cut <= 900, "k-way cut too large: {cut}");
    }

    #[test]
    fn kway_handles_more_parts_than_connected_regions() {
        // A path graph split into 4: every part non-empty.
        let mut dom = op2_core::Domain::new();
        let nodes = dom.decl_set("n", 16);
        let edges = dom.decl_set("e", 15);
        let vals: Vec<u32> = (0..15u32).flat_map(|i| [i, i + 1]).collect();
        let e2n = dom.decl_map("m", edges, nodes, 2, vals).unwrap();
        let graph = Csr::node_graph(dom.map(e2n), 16);
        let owner = kway_partition(&graph, 4, 2);
        check_balance(&owner, 4, 0.3);
    }

    #[test]
    fn single_part_is_identity() {
        let m = Hex3D::generate(Hex3DParams::cube(3));
        let owner = rcb_partition(m.node_coords(), 3, 1);
        assert!(owner.iter().all(|&o| o == 0));
        let graph = Csr::node_graph(m.dom.map(m.e2n), 27);
        assert!(kway_partition(&graph, 1, 0).iter().all(|&o| o == 0));
    }

    #[test]
    fn rib_splits_elongated_cloud_along_length() {
        // Points along a diagonal line: RIB must split by position on the
        // line, i.e. the two parts separate at the middle.
        let n = 100;
        let coords: Vec<f64> = (0..n)
            .flat_map(|i| {
                let t = i as f64;
                [t, 2.0 * t, -t]
            })
            .collect();
        let owner = rib_partition(&coords, 3, 2);
        let first_half = &owner[..50];
        let second_half = &owner[50..];
        assert!(first_half.iter().all(|&o| o == first_half[0]));
        assert!(second_half.iter().all(|&o| o == second_half[0]));
        assert_ne!(first_half[0], second_half[0]);
    }

    /// FNV-1a over an owner vector.
    fn owner_digest(owner: &[u32]) -> u64 {
        owner.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &o| {
            (o.to_le_bytes().iter()).fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Owners are pinned bitwise: digests recorded from the sort-based
    /// bisection that the selection replaced.
    #[test]
    fn partitions_match_parent_digest() {
        let mut hex = Hex3D::generate(Hex3DParams::cube(12));
        op2_mesh::shuffle::shuffle_set(&mut hex.dom, hex.nodes, 7);
        let annulus = Annulus::generate(AnnulusParams::small(6, 6, 6));
        // Per mesh: (rcb, rib) digests at 1, 2, 3, 4, 5 and 7 parts.
        let golden = [
            (
                "hex 12 shuffled",
                hex.node_coords(),
                [
                    (0x988ca9561494bf25, 0x988ca9561494bf25),
                    (0xdf33ce1ef40caa05, 0xd71fecf7f12a70b5),
                    (0x086b169d54b6e4f5, 0xfd13aa0372d34a05),
                    (0xbb2c48c9f8e12d95, 0x628d0e13909f8a05),
                    (0x40e278f33cf4e5f7, 0xe054b395be8af527),
                    (0xeff92bbd7020d182, 0x9c09a1f59a18a472),
                ],
            ),
            (
                "annulus 6",
                annulus.node_coords(),
                [
                    (0xea39157d66ff16a5, 0xea39157d66ff16a5),
                    (0x3311b6c39f5cdc45, 0x3311b6c39f5cdc45),
                    (0x1f98601f2c1caae5, 0x1f98601f2c1caae5),
                    (0xd5c281274c96f0a5, 0xd5c281274c96f0a5),
                    (0xf2333009047ef475, 0xbce2f53d6bef5165),
                    (0x12755fe598101332, 0x6e526e0430ddbee2),
                ],
            ),
        ];
        for (mesh, coords, want) in golden {
            for (nparts, (rcb, rib)) in [1, 2, 3, 4, 5, 7].into_iter().zip(want) {
                let got = owner_digest(&rcb_partition(coords, 3, nparts));
                assert_eq!(got, rcb, "{mesh}: rcb at {nparts} parts");
                let got = owner_digest(&rib_partition(coords, 3, nparts));
                assert_eq!(got, rib, "{mesh}: rib at {nparts} parts");
            }
        }
    }

    /// The bisection the selection replaced: every side is ordered
    /// fully by (key, id) before it is split.
    fn sorted_reference(coords: &[f64], dims: usize, nparts: usize, axis: SplitAxis) -> Vec<u32> {
        fn rec(c: &[f64], dims: usize, ids: &mut [u32], first: u32, count: u32, owner: &mut [u32], axis: SplitAxis) {
            if count == 1 {
                ids.iter().for_each(|&e| owner[e as usize] = first);
                return;
            }
            let key: Vec<f64> = match axis {
                SplitAxis::Longest => {
                    let ax = longest_axis(c, dims, ids);
                    ids.iter().map(|&e| c[e as usize * dims + ax]).collect()
                }
                SplitAxis::Inertial => {
                    let dir = principal_axis(c, dims, ids);
                    let dot = |e: u32| (0..dims).map(|d| c[e as usize * dims + d] * dir[d]).sum();
                    ids.iter().map(|&e| dot(e)).collect()
                }
            };
            let mut order: Vec<usize> = (0..ids.len()).collect();
            order.sort_by(|&a, &b| key[a].partial_cmp(&key[b]).unwrap().then(ids[a].cmp(&ids[b])));
            let sorted: Vec<u32> = order.iter().map(|&i| ids[i]).collect();
            ids.copy_from_slice(&sorted);
            let left_parts = count / 2;
            let (left, right) = ids.split_at_mut(split_point(ids.len(), left_parts, count));
            rec(c, dims, left, first, left_parts, owner, axis);
            rec(c, dims, right, first + left_parts, count - left_parts, owner, axis);
        }
        let n = coords.len() / dims;
        let mut owner = vec![0u32; n];
        let mut ids: Vec<u32> = (0..n as u32).collect();
        rec(coords, dims, &mut ids, 0, nparts as u32, &mut owner, axis);
        owner
    }

    /// Edge cases against the sort-based reference: fewer elements than
    /// parts, as many, one element, one point repeated (ties resolve by
    /// id), clouds on a small integer lattice (many ties), in 1-3 dims.
    #[test]
    fn selection_matches_sorted_reference_on_edge_cases() {
        let lattice = |n: usize, dims: usize, seed: u64| -> Vec<f64> {
            let mut x = seed;
            (0..n * dims)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((x >> 33) % 5) as f64
                })
                .collect()
        };
        for dims in 1..=3 {
            let line: Vec<f64> = (0..40).flat_map(|i| (0..dims).map(move |d| (i * (d + 1)) as f64)).collect();
            let cases: [(&str, Vec<f64>, &[usize]); 6] = [
                ("n < nparts", lattice(3, dims, 1), &[4, 5, 7]),
                ("n = nparts", lattice(5, dims, 2), &[5]),
                ("n = 1", lattice(1, dims, 3), &[1, 2, 3]),
                ("identical points", vec![0.25; 17 * dims], &[2, 3, 4, 7]),
                ("lattice", lattice(200, dims, 4), &[1, 2, 3, 4, 5, 7, 8]),
                ("line", line, &[2, 3, 5]),
            ];
            for (case, coords, parts) in cases {
                for &nparts in parts {
                    for (name, axis, f) in [
                        ("rcb", SplitAxis::Longest, rcb_partition as fn(&[f64], usize, usize) -> Vec<u32>),
                        ("rib", SplitAxis::Inertial, rib_partition),
                    ] {
                        let want = sorted_reference(&coords, dims, nparts, axis);
                        assert_eq!(f(&coords, dims, nparts), want, "{case}, {dims}-D, {name} at {nparts} parts");
                    }
                }
            }
        }
    }
}
