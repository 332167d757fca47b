//! The locality order inside each Figure 6(b) range.
//!
//! The paper's restructuring fixes *which* range of a rank's local index
//! space an element lives in (a core class, an import ring, a
//! neighbour's run) and leaves the order inside a range free. On a
//! scattered input numbering, ascending global id in that freedom makes
//! nearly every gather and scatter a cache miss. [`LocalityOrder`] is one
//! global order per set, computed once from the mesh, that
//! [`build_layouts`](crate::build_layouts) uses inside every range:
//!
//! * a set that a map of arity ≥ 2 targets (nodes under `e2n`, cells
//!   under `e2c`) gets a **Cuthill–McKee** order: a BFS from a
//!   minimum-degree root in each component, visiting neighbours by
//!   ascending degree, ties by global id. It runs in (degree, id) rank
//!   space over one neighbour CSR built from the map rows, so the BFS
//!   reads one row per vertex and sorts only the neighbours it has just
//!   discovered;
//! * every other set is ranked by the (min, max) positions of its first
//!   map into an already ordered set (an edge sits next to its lowest
//!   endpoint), ties by global id;
//! * a set with neither keeps its numbering.
//!
//! Every step is linear: vertices are bucketed by degree and rows by
//! their min target position, and the only comparison sorts are over one
//! vertex's new neighbours or one bucket (insertion sorts up to
//! [`INSERTION_MAX`] entries, the library sort beyond, so a hub vertex
//! cannot make one quadratic). All scratch is `u32`, so a set with more
//! than `u32::MAX` incidences panics. The order needs nothing but the
//! mesh: not the ranks, so every rank sees the same order, and not the
//! ring BFS's reverse CSR, so [`build_layouts`](crate::build_layouts)
//! runs it beside the BFS.

use op2_core::{Domain, MapData};

/// One global locality order per set.
pub(crate) struct LocalityOrder {
    /// `elems[set][k]` — the global element at position `k`.
    pub elems: Vec<Vec<u32>>,
    /// `pos[set][g]` — the position of global element `g` (the inverse of
    /// `elems`).
    pub pos: Vec<Vec<u32>>,
}

impl LocalityOrder {
    /// Order every set of `dom`.
    pub fn build(dom: &Domain) -> Self {
        let mut elems: Vec<Option<Vec<u32>>> = (0..dom.n_sets())
            .map(|s| {
                let maps: Vec<&MapData> = dom
                    .maps()
                    .iter()
                    .filter(|m| m.to.idx() == s && m.arity >= 2)
                    .collect();
                (!maps.is_empty()).then(|| cuthill_mckee(&maps, dom.sets()[s].size))
            })
            .collect();
        let mut pos: Vec<Option<Vec<u32>>> =
            elems.iter().map(|e| e.as_deref().map(inverse)).collect();

        // Rank the remaining sets, one at a time, through their first map
        // into an ordered set: the first such map in declaration order is
        // its from-set's first.
        while let Some((from, ranked)) = dom.maps().iter().find_map(|m| {
            let to_pos = pos[m.to.idx()].as_deref()?;
            (pos[m.from.idx()].is_none() && m.arity >= 1)
                .then(|| (m.from.idx(), by_target_positions(m, to_pos)))
        }) {
            pos[from] = Some(inverse(&ranked));
            elems[from] = Some(ranked);
        }

        let identity = |s: usize| (0..dom.sets()[s].size as u32).collect::<Vec<u32>>();
        LocalityOrder {
            elems: elems
                .into_iter()
                .enumerate()
                .map(|(s, e)| e.unwrap_or_else(|| identity(s)))
                .collect(),
            pos: pos
                .into_iter()
                .enumerate()
                .map(|(s, p)| p.unwrap_or_else(|| identity(s)))
                .collect(),
        }
    }
}

/// `inv[perm[k]] = k`.
fn inverse(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (k, &g) in perm.iter().enumerate() {
        inv[g as usize] = k as u32;
    }
    inv
}

/// The longest row or bucket an insertion sort handles; a longer one
/// goes to the library sort.
const INSERTION_MAX: usize = 32;

/// Stable sort of `items` by `key`.
fn sort_by_key_short(items: &mut [u32], key: impl Fn(u32) -> u32) {
    if items.len() > INSERTION_MAX {
        items.sort_by_key(|&i| key(i));
        return;
    }
    for k in 1..items.len() {
        let (x, kx) = (items[k], key(items[k]));
        let mut j = k;
        while j > 0 && key(items[j - 1]) > kx {
            items[j] = items[j - 1];
            j -= 1;
        }
        items[j] = x;
    }
}

/// Cuthill–McKee order of the `n` elements of a set that `maps` (every
/// map of arity ≥ 2 into it) target. Two elements are neighbours when
/// one row of those maps holds both; an element's degree counts those
/// incidences.
///
/// The BFS runs in *rank space*: vertex `i` is the `i`-th element in
/// (degree, id) order, and one neighbour CSR holds every vertex's
/// neighbour ranks. A vertex's unvisited neighbours are one filtered scan
/// of its row, sorted once found (so in (degree, id) order), and the
/// next root is the first unvisited rank.
fn cuthill_mckee(maps: &[&MapData], n: usize) -> Vec<u32> {
    let incidences: usize = maps.iter().map(|m| m.values.len() * (m.arity - 1)).sum();
    assert!(
        u32::try_from(incidences).is_ok(),
        "cuthill_mckee: {incidences} incidences overflow the u32 rank space"
    );
    let mut degree = vec![0u32; n];
    for m in maps {
        for &t in &m.values {
            degree[t as usize] += m.arity as u32 - 1;
        }
    }
    // Bucket the vertices by degree, in id order inside a bucket:
    // `by_degree[i]` is the vertex of rank `i` and `rank` its inverse.
    let max_degree = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut next = vec![0u32; max_degree + 2];
    for &d in &degree {
        next[d as usize + 1] += 1;
    }
    for d in 1..next.len() {
        next[d] += next[d - 1];
    }
    let mut by_degree = vec![0u32; n];
    let mut rank = vec![0u32; n];
    for (v, &d) in degree.iter().enumerate() {
        let slot = &mut next[d as usize];
        by_degree[*slot as usize] = v as u32;
        rank[v] = *slot;
        *slot += 1;
    }

    // Row `i` holds, for every incidence of vertex `i`, the ranks of the
    // other entries of its map row. `start[i]` begins as the row's end
    // and counts down to its start as the row fills.
    let mut start = vec![0u32; n + 1];
    let mut end = 0;
    for (i, &v) in by_degree.iter().enumerate() {
        end += degree[v as usize];
        start[i] = end;
    }
    start[n] = end;
    let mut items = vec![0u32; incidences];
    for m in maps {
        for row in m.values.chunks_exact(m.arity) {
            for (p, &x) in row.iter().enumerate() {
                let slot = &mut start[rank[x as usize] as usize];
                for (q, &y) in row.iter().enumerate() {
                    if p != q {
                        *slot -= 1;
                        items[*slot as usize] = rank[y as usize];
                    }
                }
            }
        }
    }

    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut root = 0;
    while order.len() < n {
        while visited[root] {
            root += 1;
        }
        visited[root] = true;
        let mut head = order.len();
        order.push(root as u32);
        while head < order.len() {
            let i = order[head] as usize;
            head += 1;
            let new = order.len();
            for &j in &items[start[i] as usize..start[i + 1] as usize] {
                if !std::mem::replace(&mut visited[j as usize], true) {
                    order.push(j);
                }
            }
            sort_by_key_short(&mut order[new..], |r| r);
        }
    }
    for i in &mut order {
        *i = by_degree[*i as usize];
    }
    order
}

/// The from-set of `m` ordered by the (min, max) target positions of
/// each row, ties by global id: one counting pass on the min, which
/// keeps id order inside a bucket, then a stable sort of each bucket on
/// the max.
fn by_target_positions(m: &MapData, to_pos: &[u32]) -> Vec<u32> {
    let (lo, hi): (Vec<u32>, Vec<u32>) = m
        .values
        .chunks_exact(m.arity)
        .map(|row| {
            row.iter()
                .map(|&t| to_pos[t as usize])
                .fold((u32::MAX, 0), |(lo, hi), p| (lo.min(p), hi.max(p)))
        })
        .unzip();
    // `start[p]` begins as bucket `p`'s end and counts down to its start
    // as the rows, taken in descending id order, fill it.
    let mut start = vec![0u32; to_pos.len() + 1];
    for &p in &lo {
        start[p as usize] += 1;
    }
    for p in 1..start.len() {
        start[p] += start[p - 1];
    }
    let mut out = vec![0u32; lo.len()];
    for (e, &p) in lo.iter().enumerate().rev() {
        start[p as usize] -= 1;
        out[start[p as usize] as usize] = e as u32;
    }
    for w in start.windows(2) {
        sort_by_key_short(&mut out[w[0] as usize..w[1] as usize], |e| hi[e as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rings::MapAdj;
    use op2_core::SetId;
    use op2_mesh::shuffle::shuffle_set;
    use op2_mesh::{Annulus, AnnulusParams, Hex3D, Hex3DParams, Quad2D, Tet3D};

    /// Stable counting sort of `items` by `key(item) < n_keys`.
    fn counting_sort(items: &[u32], n_keys: usize, key: impl Fn(u32) -> usize) -> Vec<u32> {
        let mut start = vec![0usize; n_keys + 1];
        for &i in items {
            start[key(i) + 1] += 1;
        }
        for k in 1..start.len() {
            start[k] += start[k - 1];
        }
        let mut out = vec![0u32; items.len()];
        for &i in items {
            let k = key(i);
            out[start[k]] = i;
            start[k] += 1;
        }
        out
    }

    /// The reference ranking: two stable counting passes, max first.
    fn by_target_positions_reference(m: &MapData, to_pos: &[u32]) -> Vec<u32> {
        let n_to = to_pos.len();
        let (lo, hi): (Vec<u32>, Vec<u32>) = m
            .values
            .chunks_exact(m.arity)
            .map(|row| {
                row.iter()
                    .map(|&t| to_pos[t as usize])
                    .fold((u32::MAX, 0), |(lo, hi), p| (lo.min(p), hi.max(p)))
            })
            .unzip();
        let all: Vec<u32> = (0..lo.len() as u32).collect();
        let by_hi = counting_sort(&all, n_to, |e| hi[e as usize] as usize);
        counting_sort(&by_hi, n_to, |e| lo[e as usize] as usize)
    }

    /// The reference Cuthill–McKee: the per-incidence walk over the
    /// reverse CSR — for every visited vertex, every map row through it,
    /// every entry of that row, then a sort of the new neighbours' ranks.
    fn cuthill_mckee_reference(adj: &MapAdj<'_>, set: SetId, n: usize) -> Vec<u32> {
        let maps: Vec<_> = adj
            .reverse_into(set)
            .filter(|(m, _)| m.arity >= 2)
            .collect();
        let degree: Vec<usize> = (0..n)
            .map(|v| {
                maps.iter()
                    .map(|(m, rev)| rev.row(v).len() * (m.arity - 1))
                    .sum()
            })
            .collect();
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        let all: Vec<u32> = (0..n as u32).collect();
        let by_degree = counting_sort(&all, max_degree + 1, |v| degree[v as usize]);
        let rank = inverse(&by_degree);

        let mut visited = vec![false; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        let mut roots = by_degree.iter();
        let mut nbrs: Vec<u32> = Vec::new();
        while order.len() < n {
            let Some(&root) = roots.find(|&&v| !visited[v as usize]) else {
                break;
            };
            visited[root as usize] = true;
            let mut head = order.len();
            order.push(root);
            while head < order.len() {
                let v = order[head] as usize;
                head += 1;
                nbrs.clear();
                for (m, rev) in &maps {
                    for &a in rev.row(v) {
                        let a = a as usize;
                        for &u in &m.values[a * m.arity..(a + 1) * m.arity] {
                            if !visited[u as usize] {
                                visited[u as usize] = true;
                                nbrs.push(rank[u as usize]);
                            }
                        }
                    }
                }
                nbrs.sort_unstable();
                order.extend(nbrs.iter().map(|&r| by_degree[r as usize]));
            }
        }
        order
    }

    /// The rank-space BFS and the reference walk agree on every set that
    /// maps of arity ≥ 2 target.
    fn assert_cm_matches_reference(dom: &Domain) -> usize {
        let adj = MapAdj::build(dom);
        let mut checked = 0;
        for s in 0..dom.n_sets() {
            let maps: Vec<&MapData> = dom
                .maps()
                .iter()
                .filter(|m| m.to.idx() == s && m.arity >= 2)
                .collect();
            if maps.is_empty() {
                continue;
            }
            let n = dom.sets()[s].size;
            let want = cuthill_mckee_reference(&adj, SetId(s as u32), n);
            assert_eq!(cuthill_mckee(&maps, n), want, "set {}", dom.sets()[s].name);
            checked += 1;
        }
        checked
    }

    #[test]
    fn rank_space_cuthill_mckee_matches_the_reference() {
        // Tets: `t2n` has arity 4 beside `e2n`.
        let mut t = Tet3D::generate(5, 4, 3);
        shuffle_set(&mut t.dom, t.nodes, 11);
        shuffle_set(&mut t.dom, t.edges, 12);
        assert_eq!(assert_cm_matches_reference(&t.dom), 1);

        let mut h = Hex3D::generate(Hex3DParams::cube(9));
        shuffle_set(&mut h.dom, h.nodes, 13);
        shuffle_set(&mut h.dom, h.edges, 14);
        assert_eq!(assert_cm_matches_reference(&h.dom), 1);

        // Hydra's annulus: two maps into nodes, `e2n` and the periodic
        // `p2n`.
        let a = Annulus::generate(AnnulusParams::small(6, 5, 7));
        assert_eq!(assert_cm_matches_reference(&a.dom), 1);

        // Two components, each a shuffled path, plus isolated vertices.
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 10);
        let edges = dom.decl_set("edges", 6);
        dom.decl_map("e2n", edges, nodes, 2, vec![7, 2, 2, 9, 4, 0, 0, 8, 8, 5, 9, 1])
            .unwrap();
        assert_eq!(assert_cm_matches_reference(&dom), 1);
    }

    /// The one-pass ranking equals the two-pass reference for every map
    /// into a set with an order, under the locality positions and under
    /// the identity.
    fn assert_ranking_matches_reference(dom: &Domain) -> usize {
        let o = LocalityOrder::build(dom);
        let mut checked = 0;
        for m in dom.maps() {
            let identity: Vec<u32> = (0..dom.sets()[m.to.idx()].size as u32).collect();
            for to_pos in [&o.pos[m.to.idx()], &identity] {
                let want = by_target_positions_reference(m, to_pos);
                assert_eq!(by_target_positions(m, to_pos), want, "map {}", m.name);
            }
            checked += 1;
        }
        checked
    }

    /// A star around node 0 plus a ring over nodes 1..40, every edge
    /// twice, one copy reversed: buckets full of (min, max) ties, and a
    /// hub whose neighbour row and bucket outgrow the insertion sort.
    fn hub_with_ties() -> Domain {
        let n = 40u32;
        let mut pairs: Vec<[u32; 2]> = (1..n).map(|v| [0, v]).collect();
        pairs.extend((1..n).map(|v| [v, v % (n - 1) + 1]));
        let values: Vec<u32> = pairs.iter().flat_map(|&[a, b]| [a, b, b, a]).collect();
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", n as usize);
        let edges = dom.decl_set("edges", values.len() / 2);
        dom.decl_map("e2n", edges, nodes, 2, values).unwrap();
        dom
    }

    #[test]
    fn one_pass_ranking_matches_the_two_pass_reference() {
        let mut t = Tet3D::generate(5, 4, 3);
        shuffle_set(&mut t.dom, t.nodes, 21);
        shuffle_set(&mut t.dom, t.edges, 22);
        shuffle_set(&mut t.dom, t.tets, 23);
        assert_eq!(assert_ranking_matches_reference(&t.dom), 2);

        let mut h = Hex3D::generate(Hex3DParams::cube(9));
        shuffle_set(&mut h.dom, h.nodes, 24);
        shuffle_set(&mut h.dom, h.edges, 25);
        assert_eq!(assert_ranking_matches_reference(&h.dom), 2);

        let mut a = Annulus::generate(AnnulusParams::small(6, 5, 7));
        shuffle_set(&mut a.dom, a.nodes, 26);
        shuffle_set(&mut a.dom, a.edges, 27);
        assert_eq!(assert_ranking_matches_reference(&a.dom), 4);

        let hub = hub_with_ties();
        assert_eq!(hub.maps()[0].values.len(), 4 * 2 * 39);
        assert_eq!(assert_ranking_matches_reference(&hub), 1);
        assert_eq!(assert_cm_matches_reference(&hub), 1);
    }

    fn is_permutation(p: &[u32]) -> bool {
        let mut seen = vec![false; p.len()];
        p.iter()
            .all(|&g| (g as usize) < p.len() && !std::mem::replace(&mut seen[g as usize], true))
    }

    #[test]
    fn every_set_gets_a_permutation_and_its_inverse() {
        let mut m = Tet3D::generate(4, 3, 3);
        shuffle_set(&mut m.dom, m.nodes, 3);
        let o = LocalityOrder::build(&m.dom);
        for s in 0..m.dom.n_sets() {
            assert_eq!(o.elems[s].len(), m.dom.sets()[s].size);
            assert!(is_permutation(&o.elems[s]));
            for (k, &g) in o.elems[s].iter().enumerate() {
                assert_eq!(o.pos[s][g as usize], k as u32);
            }
        }
    }

    /// Cuthill–McKee on a path: start at an end (degree 1, lowest id)
    /// and walk it.
    #[test]
    fn cuthill_mckee_walks_a_shuffled_path_from_an_end() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 6);
        let edges = dom.decl_set("edges", 5);
        // Path 3 - 0 - 5 - 1 - 4 - 2.
        dom.decl_map("e2n", edges, nodes, 2, vec![0, 3, 5, 0, 1, 5, 4, 1, 2, 4])
            .unwrap();
        let o = LocalityOrder::build(&dom);
        assert_eq!(o.elems[nodes.idx()], vec![2, 4, 1, 5, 0, 3]);
        // Edges follow their lowest endpoint: (2,4), (4,1), (1,5), (5,0), (0,3).
        assert_eq!(o.elems[edges.idx()], vec![4, 3, 2, 1, 0]);
    }

    /// A set no map reaches keeps its numbering; a set reached only
    /// through a derived set is ranked through it.
    #[test]
    fn unreached_sets_keep_numbering_chained_sets_are_ranked() {
        let mut m = Quad2D::generate(3, 3);
        let lonely = m.dom.decl_set("lonely", 4);
        let n_edges = m.dom.set(m.edges).size;
        // `marks` → edges, in reverse edge order.
        let marks = m.dom.decl_set("marks", n_edges);
        let rev: Vec<u32> = (0..n_edges as u32).rev().collect();
        m.dom.decl_map("m2e", marks, m.edges, 1, rev).unwrap();
        let o = LocalityOrder::build(&m.dom);
        assert_eq!(o.elems[lonely.idx()], vec![0, 1, 2, 3]);
        let edge_order: Vec<u32> = o.elems[marks.idx()]
            .iter()
            .map(|&k| n_edges as u32 - 1 - k)
            .collect();
        assert_eq!(edge_order, o.elems[m.edges.idx()]);
    }
}
