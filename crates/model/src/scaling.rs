//! Surface/volume extrapolation of chain components.
//!
//! Partition statistics obey simple geometric laws for 3D meshes split
//! into compact parts: per-rank volumes (owned and core counts) scale
//! with `N/P`, while surfaces (halo rings, message sizes) scale with
//! `(N/P)^{2/3}`. This lets a components table measured at one
//! configuration be swept across node counts or mesh sizes without
//! re-partitioning — useful for quick what-if exploration (the paper
//! figures shipped in `op2-bench` re-measure for every configuration;
//! `model_explorer` uses this module).

use crate::components::ChainComponents;
use crate::eqs::{CaChainInput, LoopInput};

/// Scale `comp`, measured at `n0` elements on `p0` ranks, to a
/// configuration of `n1` elements on `p1` ranks.
pub fn extrapolate_components(
    comp: &ChainComponents,
    n0: usize,
    p0: usize,
    n1: usize,
    p1: usize,
) -> ChainComponents {
    let vol_ratio = (n1 as f64 / p1 as f64) / (n0 as f64 / p0 as f64);
    let surf_ratio = vol_ratio.powf(2.0 / 3.0);
    let vol = |x: usize| ((x as f64) * vol_ratio).round().max(0.0) as usize;
    let surf = |x: usize| ((x as f64) * surf_ratio).round().max(0.0) as usize;

    let op2_loops: Vec<LoopInput> = comp
        .op2_loops
        .iter()
        .map(|l| LoopInput {
            g: l.g,
            s_core: vol(l.s_core),
            s_halo: surf(l.s_halo),
            d: l.d,
            p: l.p,
            m1_bytes: surf(l.m1_bytes),
        })
        .collect();
    let ca = CaChainInput {
        loops: comp
            .ca
            .loops
            .iter()
            .map(|&(g, c, h)| (g, vol(c), surf(h)))
            .collect(),
        p: comp.ca.p,
        m_r_bytes: surf(comp.ca.m_r_bytes),
    };
    ChainComponents {
        op2_comm_bytes: comp.op2_comm_bytes * surf_ratio,
        op2_core: vol(comp.op2_core),
        op2_halo: surf(comp.op2_halo),
        ca_comm_bytes: comp.ca_comm_bytes * surf_ratio,
        ca_core: vol(comp.ca_core),
        ca_halo: surf(comp.ca_halo),
        op2_loops,
        ca,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChainComponents {
        ChainComponents {
            op2_loops: vec![LoopInput {
                g: 1e-8,
                s_core: 8000,
                s_halo: 400,
                d: 2,
                p: 6,
                m1_bytes: 3200,
            }],
            ca: CaChainInput {
                loops: vec![(1e-8, 7000, 1200)],
                p: 6,
                m_r_bytes: 6400,
            },
            op2_comm_bytes: 2.0 * 2.0 * 6.0 * 3200.0,
            op2_core: 8000,
            op2_halo: 400,
            ca_comm_bytes: 6.0 * 6400.0,
            ca_core: 7000,
            ca_halo: 1200,
        }
    }

    #[test]
    fn identity_scaling_is_noop() {
        let c = sample();
        let s = extrapolate_components(&c, 1_000_000, 64, 1_000_000, 64);
        assert_eq!(s.op2_core, c.op2_core);
        assert_eq!(s.ca.m_r_bytes, c.ca.m_r_bytes);
    }

    #[test]
    fn doubling_ranks_halves_volume_terms() {
        let c = sample();
        let s = extrapolate_components(&c, 1_000_000, 64, 1_000_000, 128);
        assert_eq!(s.op2_core, c.op2_core / 2);
        // Surface terms shrink by 2^(2/3) ≈ 1.587.
        let expect = (c.ca.m_r_bytes as f64 / 2f64.powf(2.0 / 3.0)).round() as usize;
        assert_eq!(s.ca.m_r_bytes, expect);
    }

    #[test]
    fn tripling_mesh_grows_both() {
        let c = sample();
        let s = extrapolate_components(&c, 8_000_000, 512, 24_000_000, 512);
        assert!(s.op2_core > c.op2_core * 2);
        assert!(s.op2_halo > c.op2_halo && s.op2_halo < c.op2_halo * 3);
    }
}
