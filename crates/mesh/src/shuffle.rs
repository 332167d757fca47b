//! Element-numbering shuffles.
//!
//! Grid generators emit lexicographic numbering, which is unrealistically
//! cache-friendly and can mask bugs that only appear with scattered
//! indices. [`shuffle_set`] renumbers one set with a seeded random
//! permutation, rewriting every map into or out of it and every dat on it,
//! leaving the mesh semantically identical.

use op2_core::{rows, Domain, SetId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Apply a seeded random renumbering to `set`. Returns the permutation
/// used: `perm[old] = new`.
pub fn shuffle_set(dom: &mut Domain, set: SetId, seed: u64) -> Vec<u32> {
    let n = dom.set(set).size;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    apply_permutation(dom, set, &perm);
    perm
}

/// Renumber `set` with an explicit permutation `perm[old] = new`.
///
/// * maps *into* the set have their values relabelled;
/// * maps *out of* the set have their rows reordered;
/// * dats on the set have their element blocks reordered, except a dat
///   whose every value has all-zero bits: permuting it gives back the
///   same array, so it keeps its buffer untouched (a `-0.0` still moves).
///   A dat still [`op2_core::DatData::known_zero`] from its declaration
///   is left without reading it; any other dat is scanned.
///
/// Panics, naming the first offending entry, unless `perm` is a bijection.
pub fn apply_permutation(dom: &mut Domain, set: SetId, perm: &[u32]) {
    let n = dom.set(set).size;
    assert_eq!(perm.len(), n, "permutation length must equal set size");
    // `inv[new] = old`; every row is gathered through it.
    let mut inv = vec![u32::MAX; n];
    for (old, &new) in perm.iter().enumerate() {
        match inv.get_mut(new as usize) {
            Some(slot) if *slot == u32::MAX => *slot = old as u32,
            Some(_) => panic!("perm is not a bijection: perm[{old}] = {new} repeats an earlier entry"),
            None => panic!("perm is not a bijection: perm[{old}] = {new} is out of range 0..{n}"),
        }
    }

    let mut map_rows = Vec::new();
    for mid in 0..dom.n_maps() {
        let m = dom.map_mut(op2_core::MapId(mid as u32));
        if m.to == set {
            for v in &mut m.values {
                *v = perm[*v as usize];
            }
        }
        if m.from == set {
            permute_rows(&mut m.values, &inv, m.arity, &mut map_rows);
        }
    }
    drop(map_rows);
    let mut dat_rows = Vec::new();
    for did in 0..dom.n_dats() {
        let id = op2_core::DatId(did as u32);
        let d = dom.dat(id);
        if d.set == set && !d.known_zero() && d.data.iter().any(|v| v.to_bits() != 0) {
            let d = dom.dat_mut(id);
            permute_rows(&mut d.data, &inv, d.dim, &mut dat_rows);
        }
    }
}

/// Make row `k` of `data` its old row `inv[k]`, through `scratch` (one
/// buffer reused by every map or dat, not a fresh copy of each).
fn permute_rows<T: Copy>(data: &mut [T], inv: &[u32], dim: usize, scratch: &mut Vec<T>) {
    scratch.clear();
    rows::gather(scratch, data, inv, dim);
    data.copy_from_slice(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad2d::Quad2D;
    use op2_core::seq::run_loop;
    use op2_core::{AccessMode, Arg, Args, LoopSpec};

    fn sum_inc(args: &Args<'_>) {
        args.inc(0, 0, 1.0);
        args.inc(1, 0, 1.0);
    }

    /// Shuffling node numbering must not change the result of an
    /// indirect-increment loop (up to the permutation itself).
    #[test]
    fn shuffle_preserves_semantics() {
        let run = |shuffle: bool| -> Vec<f64> {
            let mut m = Quad2D::generate(4, 4);
            let deg = m.dom.decl_dat_zeros("deg", m.nodes, 1);
            let perm = if shuffle {
                shuffle_set(&mut m.dom, m.nodes, 42)
            } else {
                (0..m.dom.set(m.nodes).size as u32).collect()
            };
            let spec = LoopSpec::new(
                "count",
                m.edges,
                vec![
                    Arg::dat_indirect(deg, m.e2n, 0, AccessMode::Inc),
                    Arg::dat_indirect(deg, m.e2n, 1, AccessMode::Inc),
                ],
                sum_inc,
            );
            run_loop(&mut m.dom, &spec);
            // Un-permute for comparison.
            let data = &m.dom.dat(deg).data;
            let mut out = vec![0.0; data.len()];
            for (old, &new) in perm.iter().enumerate() {
                out[old] = data[new as usize];
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    /// The renumbering as first written: every row scattered to
    /// `perm[old]` out of a fresh copy of its map or dat.
    fn scatter_reference(dom: &mut Domain, set: SetId, perm: &[u32]) {
        for mid in 0..dom.n_maps() {
            let m = dom.map_mut(op2_core::MapId(mid as u32));
            if m.to == set {
                m.values.iter_mut().for_each(|v| *v = perm[*v as usize]);
            }
            if m.from == set {
                let (old, a) = (m.values.clone(), m.arity);
                for (e, row) in old.chunks_exact(a).enumerate() {
                    m.values[perm[e] as usize * a..][..a].copy_from_slice(row);
                }
            }
        }
        for did in 0..dom.n_dats() {
            let d = dom.dat_mut(op2_core::DatId(did as u32));
            if d.set == set {
                let (old, dim) = (d.data.clone(), d.dim);
                for (e, block) in old.chunks_exact(dim).enumerate() {
                    d.data[perm[e] as usize * dim..][..dim].copy_from_slice(block);
                }
            }
        }
    }

    /// On a tet mesh (`t2n` arity 4, `e2n` arity 2) carrying dats of
    /// widths 1-6 and 11 on every set, renumbering each set in turn (maps
    /// into it and out of it) is bitwise the scatter formulation.
    #[test]
    fn permutation_matches_the_scatter_formulation() {
        use rand::seq::SliceRandom;
        let mut m = crate::Tet3D::generate(3, 4, 2);
        for set in [m.nodes, m.edges, m.tets] {
            for dim in [1, 2, 3, 4, 5, 6, 11] {
                let len = m.dom.set(set).size * dim;
                let vals = (0..len).map(|i| (i * 31 + dim) as f64).collect();
                m.dom.decl_dat(&format!("w{dim}_{}", set.0), set, dim, vals);
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        for set in [m.nodes, m.tets, m.edges, m.nodes] {
            let mut perm: Vec<u32> = (0..m.dom.set(set).size as u32).collect();
            perm.shuffle(&mut rng);
            let mut want = m.dom.clone();
            scatter_reference(&mut want, set, &perm);
            apply_permutation(&mut m.dom, set, &perm);
            for mid in 0..want.n_maps() {
                let id = op2_core::MapId(mid as u32);
                assert_eq!(m.dom.map(id).values, want.map(id).values, "map {mid}");
            }
            for did in 0..want.n_dats() {
                let id = op2_core::DatId(did as u32);
                let bits = |d: &Domain| d.dat(id).data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&m.dom), bits(&want), "dat {did}");
            }
        }
    }

    /// Renumber the 30 nodes of a quad mesh carrying one dat of width 2
    /// that holds `values`. Returns the dat's bits after, the scatter
    /// formulation's, and whether the dat kept its buffer.
    fn renumber_one_dat(values: Vec<f64>) -> (Vec<u64>, Vec<u64>, bool) {
        use rand::seq::SliceRandom;
        let mut m = Quad2D::generate(5, 4);
        let dat = m.dom.decl_dat("d", m.nodes, 2, values);
        let mut perm: Vec<u32> = (0..m.dom.set(m.nodes).size as u32).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(9));
        let mut want = m.dom.clone();
        scatter_reference(&mut want, m.nodes, &perm);
        let before = m.dom.dat(dat).data.as_ptr();
        apply_permutation(&mut m.dom, m.nodes, &perm);
        let bits = |d: &Domain| d.dat(dat).data.iter().map(|v| v.to_bits()).collect();
        let kept = m.dom.dat(dat).data.as_ptr() == before;
        (bits(&m.dom), bits(&want), kept)
    }

    /// An all-zero dat keeps its buffer and its values, bitwise the
    /// scatter formulation's.
    #[test]
    fn all_zero_dat_keeps_its_buffer() {
        let (got, want, kept) = renumber_one_dat(vec![0.0; 60]);
        assert!(kept);
        assert_eq!(got, vec![0; 60]);
        assert_eq!(got, want);
    }

    /// A dat declared zero is left in place unread and keeps its record;
    /// one mutably borrowed since is scanned: left in place while still
    /// all zero, moved once the borrow wrote a value.
    #[test]
    fn declared_zero_dats_are_not_scanned() {
        use rand::seq::SliceRandom;
        let mut m = Quad2D::generate(5, 4);
        let n = m.dom.set(m.nodes).size;
        let [fresh, borrowed, written] =
            ["fresh", "borrowed", "written"].map(|name| m.dom.decl_dat_zeros(name, m.nodes, 2));
        let _ = m.dom.dat_mut(borrowed);
        m.dom.dat_mut(written).data[2 * n - 1] = 7.0;
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut StdRng::seed_from_u64(9));
        let mut want = m.dom.clone();
        scatter_reference(&mut want, m.nodes, &perm);
        let ptr = |d: &Domain, id: op2_core::DatId| d.dat(id).data.as_ptr();
        let before = [fresh, borrowed, written].map(|id| ptr(&m.dom, id));
        apply_permutation(&mut m.dom, m.nodes, &perm);
        let bits = |d: &Domain, id| d.dat(id).data.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for id in [fresh, borrowed, written] {
            assert_eq!(bits(&m.dom, id), bits(&want, id), "dat {}", m.dom.dat(id).name);
        }
        assert_eq!((ptr(&m.dom, fresh), ptr(&m.dom, borrowed)), (before[0], before[1]));
        assert!(m.dom.dat(fresh).known_zero());
        assert!(!m.dom.dat(borrowed).known_zero());
        assert_ne!(bits(&m.dom, written)[2 * n - 1], 7.0f64.to_bits(), "the dat did not move");
    }

    /// The zero rule compares bits: a dat of mixed `+0.0` and `-0.0`
    /// moves, and so does one that is zero except for its last value.
    #[test]
    fn signed_zeros_and_a_last_nonzero_value_move() {
        let signed: Vec<f64> = (0..60)
            .map(|i| if i % 3 == 1 { -0.0 } else { 0.0 })
            .collect();
        let mut last = vec![0.0; 60];
        last[59] = 7.0;
        for values in [signed, last] {
            let input: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            let (got, want, _) = renumber_one_dat(values);
            assert_eq!(got, want);
            assert_ne!(got, input, "the dat did not move");
        }
    }

    /// A permutation that is not a bijection panics, in release builds
    /// too, naming its first offending entry.
    #[test]
    fn permutation_validation() {
        let panic_of = |perm: &'static [u32]| {
            let mut m = Quad2D::generate(1, 1);
            let err = std::panic::catch_unwind(move || apply_permutation(&mut m.dom, m.nodes, perm));
            *err.unwrap_err().downcast::<String>().unwrap()
        };
        let msg = panic_of(&[1, 3, 1, 0]);
        assert!(msg.contains("perm[2] = 1 repeats"), "{msg}");
        let msg = panic_of(&[0, 4, 1, 2]);
        assert!(msg.contains("perm[1] = 4 is out of range 0..4"), "{msg}");
        let mut m = Quad2D::generate(1, 1);
        apply_permutation(&mut m.dom, m.nodes, &[2, 0, 3, 1]);
    }
}
