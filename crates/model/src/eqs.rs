//! Equations 1–4 of the paper, plus their GPU extensions (§3.3).
//!
//! CPU forms, as printed:
//!
//! ```text
//! (1) T_op2,l = MAX[ g_l·S_l^c , 2·d_l·p_l·(L + m_l^1/B) ] + g_l·S_l^1
//! (2) T_op2,L = Σ_l T_op2,l
//! (3) T_ca,L  = MAX[ Σ_l g_l·S_l^c , p·(L + m^r/B + c) ] + Σ_l g_l·S_l^h
//! (4) m^r     = Σ_l Σ_d (S_d^{eeh,h_l} + S_d^{enh,h_l}) · δ
//! ```
//!
//! GPU forms (§3.3): the latency `L` becomes `Λ` (network latency plus a
//! PCIe staging event each way), every exchange additionally streams its
//! bytes over PCIe, and every executed kernel segment pays a launch
//! overhead. CA benefits twice on GPUs — fewer messages *and* fewer
//! staging events — which is exactly why the paper sees gains at lower
//! node counts on Cirrus than on ARCHER2.

use crate::machine::{Machine, MachineKind};

/// Inputs of Eq 1 for one loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopInput {
    /// Compute cost per iteration `g_l` (seconds).
    pub g: f64,
    /// Core iterations `S_l^c` (overlapped with communication).
    pub s_core: usize,
    /// Post-exchange iterations `S_l^1` (boundary + execute halo).
    pub s_halo: usize,
    /// Dats exchanged `d_l`.
    pub d: usize,
    /// Max neighbours per rank `p_l`.
    pub p: usize,
    /// Max per-dat message size in bytes `m_l^1`.
    pub m1_bytes: usize,
}

/// Inputs of Eq 3 for one chain.
#[derive(Debug, Clone)]
pub struct CaChainInput {
    /// Per loop: (g, shrunk core `S_l^c`, halo region `S_l^h`).
    pub loops: Vec<(f64, usize, usize)>,
    /// Max neighbours per rank `p`.
    pub p: usize,
    /// Grouped message size in bytes `m^r` (max over neighbours).
    pub m_r_bytes: usize,
}

/// Eq 1 (CPU) / its §3.3 extension (GPU): runtime of one standard OP2
/// loop with latency hiding.
pub fn t_op2_loop(mach: &Machine, l: &LoopInput) -> f64 {
    let compute_core = l.g * l.s_core as f64;
    let compute_halo = l.g * l.s_halo as f64;
    match mach.kind {
        MachineKind::Cpu => {
            let comm =
                2.0 * l.d as f64 * l.p as f64 * (mach.latency + l.m1_bytes as f64 / mach.bandwidth);
            compute_core.max(comm) + compute_halo
        }
        MachineKind::Gpu => {
            let n_msgs = 2.0 * l.d as f64 * l.p as f64;
            let comm = n_msgs * (mach.latency + l.m1_bytes as f64 / mach.bandwidth);
            if mach.gpu_direct {
                // GPUDirect: no host staging, but (as the paper observed,
                // §3.3) the transfers do not run concurrently with the
                // computing kernels — no latency hiding.
                return compute_core + comm + compute_halo + 2.0 * mach.kernel_launch;
            }
            // Staged pipeline: halos cross PCIe both ways around the
            // sends/receives; Λ = L + per-event staging; full overlap
            // with the core kernel.
            let staged_bytes = n_msgs * l.m1_bytes as f64;
            let staging = if l.d > 0 {
                2.0 * mach.pcie_latency + 2.0 * staged_bytes / mach.pcie_bandwidth
            } else {
                0.0
            };
            // Two kernel segments (core, halo) per loop.
            compute_core.max(comm + staging) + compute_halo + 2.0 * mach.kernel_launch
        }
    }
}

/// Eq 2: a chain executed as standard per-loop OP2.
pub fn t_op2_chain(mach: &Machine, loops: &[LoopInput]) -> f64 {
    loops.iter().map(|l| t_op2_loop(mach, l)).sum()
}

/// Eq 3 (CPU) / its §3.3 extension (GPU): runtime of a chain under the
/// CA back-end with a single grouped exchange.
pub fn t_ca_chain(mach: &Machine, c: &CaChainInput) -> f64 {
    let compute_core: f64 = c.loops.iter().map(|&(g, s, _)| g * s as f64).sum();
    let compute_halo: f64 = c.loops.iter().map(|&(g, _, s)| g * s as f64).sum();
    // Eq 3's pack cost `c` is seconds per byte: `1 / pack_rate`.
    let pack = c.m_r_bytes as f64 * (1.0 / mach.pack_rate);
    match mach.kind {
        MachineKind::Cpu => {
            let comm = c.p as f64 * (mach.latency + c.m_r_bytes as f64 / mach.bandwidth + pack);
            compute_core.max(comm) + compute_halo
        }
        MachineKind::Gpu => {
            let comm = c.p as f64 * (mach.latency + c.m_r_bytes as f64 / mach.bandwidth + pack);
            if mach.gpu_direct {
                return compute_core
                    + comm
                    + compute_halo
                    + 2.0 * c.loops.len() as f64 * mach.kernel_launch;
            }
            let staged_bytes = c.p as f64 * c.m_r_bytes as f64;
            let staging = if c.m_r_bytes > 0 {
                2.0 * mach.pcie_latency + 2.0 * staged_bytes / mach.pcie_bandwidth
            } else {
                0.0
            };
            // Two kernel segments per loop (core, halo).
            compute_core.max(comm + staging)
                + compute_halo
                + 2.0 * c.loops.len() as f64 * mach.kernel_launch
        }
    }
}

/// Percentage gain of CA over OP2: `(T_op2 − T_ca) / T_op2 · 100`.
pub fn gain_percent(t_op2: f64, t_ca: f64) -> f64 {
    if t_op2 <= 0.0 {
        0.0
    } else {
        (t_op2 - t_ca) / t_op2 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    fn loop_in(g: f64, s_core: usize, s_halo: usize, d: usize, p: usize, m1: usize) -> LoopInput {
        LoopInput {
            g,
            s_core,
            s_halo,
            d,
            p,
            m1_bytes: m1,
        }
    }

    /// With huge cores, the loop is compute-bound and comm is hidden.
    #[test]
    fn compute_bound_loop_hides_comm() {
        let m = Machine::archer2();
        let l = loop_in(m.g_default, 10_000_000, 1000, 2, 8, 1000);
        let t = t_op2_loop(&m, &l);
        let compute_only = m.g_default * 10_001_000.0;
        assert!((t - compute_only).abs() / compute_only < 1e-12);
    }

    /// With tiny cores, comm latency dominates Eq 1's MAX.
    #[test]
    fn latency_bound_loop() {
        let m = Machine::archer2();
        let l = loop_in(m.g_default, 10, 10, 3, 12, 100);
        let t = t_op2_loop(&m, &l);
        let comm = 2.0 * 3.0 * 12.0 * (m.latency + 100.0 / m.bandwidth);
        assert!(t >= comm);
        assert!((t - (comm + m.g_default * 10.0)).abs() < 1e-12);
    }

    /// Eq 2 is the plain sum of Eq 1.
    #[test]
    fn chain_sum_equals_loops() {
        let m = Machine::archer2();
        let ls = [
            loop_in(1e-8, 100, 10, 1, 4, 64),
            loop_in(2e-8, 200, 20, 2, 4, 128),
        ];
        let total = t_op2_chain(&m, &ls);
        let manual: f64 = ls.iter().map(|l| t_op2_loop(&m, l)).sum();
        assert_eq!(total, manual);
    }

    /// In the latency-dominated regime, CA (1 message/neighbour) beats
    /// per-loop OP2 (2·d·p messages per loop) — the paper's headline.
    #[test]
    fn ca_wins_when_latency_dominates() {
        let m = Machine::archer2();
        let n = 16; // 16-loop chain
        let per_loop: Vec<LoopInput> =
            (0..n).map(|_| loop_in(m.g_default, 50, 30, 2, 8, 256)).collect();
        let t_op2 = t_op2_chain(&m, &per_loop);
        let ca = CaChainInput {
            loops: (0..n).map(|_| (m.g_default, 40, 90)).collect(),
            p: 8,
            m_r_bytes: 1024,
        };
        let t_ca = t_ca_chain(&m, &ca);
        assert!(
            t_ca < t_op2,
            "CA should win latency-dominated: {t_ca} vs {t_op2}"
        );
        assert!(gain_percent(t_op2, t_ca) > 0.0);
    }

    /// In the compute-dominated regime with heavy redundant work, CA
    /// loses — the paper's cautionary result (e.g. gradl).
    #[test]
    fn ca_loses_when_redundant_compute_dominates() {
        let m = Machine::archer2();
        let per_loop = vec![
            loop_in(m.g_default, 1_000_000, 2000, 1, 4, 512),
            loop_in(m.g_default, 1_000_000, 2000, 1, 4, 512),
        ];
        let t_op2 = t_op2_chain(&m, &per_loop);
        let ca = CaChainInput {
            loops: vec![
                (m.g_default, 990_000, 400_000),
                (m.g_default, 990_000, 400_000),
            ],
            p: 4,
            m_r_bytes: 2048,
        };
        let t_ca = t_ca_chain(&m, &ca);
        assert!(t_ca > t_op2, "CA should lose compute-bound: {t_ca} vs {t_op2}");
        assert!(gain_percent(t_op2, t_ca) < 0.0);
    }

    /// The staged pipeline beats GPUDirect whenever the core is big
    /// enough to hide the transfers — the §3.3 design decision.
    #[test]
    fn pipeline_beats_gpudirect_on_large_cores() {
        let staged = Machine::cirrus();
        let direct = Machine::cirrus_gpudirect();
        let l = loop_in(staged.g_default, 5_000_000, 20_000, 3, 6, 50_000);
        let t_staged = t_op2_loop(&staged, &l);
        let t_direct = t_op2_loop(&direct, &l);
        assert!(
            t_staged < t_direct,
            "staged {t_staged} should beat GPUDirect {t_direct} with a big core"
        );
    }

    /// On the GPU machine, grouping pays even with zero message-count
    /// reduction, because staging events collapse (vflux behaviour).
    #[test]
    fn gpu_gains_from_fewer_staging_events() {
        let m = Machine::cirrus();
        let n = 2;
        let per_loop: Vec<LoopInput> =
            (0..n).map(|_| loop_in(m.g_default, 20_000, 3000, 3, 6, 40_000)).collect();
        let t_op2 = t_op2_chain(&m, &per_loop);
        // Same total bytes and similar halo work — only grouped.
        let ca = CaChainInput {
            loops: (0..n).map(|_| (m.g_default, 18_000, 5000)).collect(),
            p: 6,
            m_r_bytes: 240_000,
        };
        let t_ca = t_ca_chain(&m, &ca);
        assert!(t_ca < t_op2, "GPU grouping should win: {t_ca} vs {t_op2}");
    }
}
