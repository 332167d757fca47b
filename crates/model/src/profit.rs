//! Profitability classification — the §3.2 / §5 insights as code.
//!
//! The paper's concluding analysis sorts loop-chains into qualitative
//! classes (its Table 5 discussion): chains that *reduce communication*
//! beyond their computation increase win, hardest at scale; chains that
//! only *group* messages break even on CPUs but win on GPUs (staging
//! collapse); chains that *increase* both communication and computation
//! degrade. [`classify`] reproduces that judgement from a chain's
//! measured components and a machine, with the contributing factors
//! spelled out.

use crate::components::ChainComponents;
use crate::eqs::{gain_percent, t_ca_chain, t_op2_chain};
use crate::machine::{Machine, MachineKind};

/// Qualitative class of a chain under CA — the §4.2 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainClass {
    /// Communication shrinks and computation growth is affordable
    /// (period, jacob): recommend CA, gains grow with scale.
    CommunicationReducing,
    /// Bytes unchanged, messages (and GPU staging events) grouped
    /// (vflux, iflux): near-neutral on CPU clusters, profitable on GPU
    /// clusters.
    GroupingOnly,
    /// Communication *and* computation increase (gradl): CA degrades;
    /// execute the loops individually.
    CommunicationIncreasing,
}

/// The verdict for one (chain, machine) pair.
#[derive(Debug, Clone)]
pub struct Profitability {
    /// Qualitative class.
    pub class: ChainClass,
    /// Modelled gain% of CA over OP2 on this machine.
    pub gain_pct: f64,
    /// Communication reduction % (bytes).
    pub comm_reduction_pct: f64,
    /// Computation increase % (iterations).
    pub comp_increase_pct: f64,
    /// Whether the model recommends enabling CA for this chain here —
    /// the decision the paper says "would be the challenge in real-world
    /// applications" (§5).
    pub enable_ca: bool,
}

/// Classify a chain's components on a machine.
pub fn classify(mach: &Machine, comp: &ChainComponents) -> Profitability {
    let comm_red = comp.comm_reduction_pct();
    let comp_inc = comp.comp_increase_pct();
    let class = if comm_red < -1.0 {
        ChainClass::CommunicationIncreasing
    } else if comm_red <= 1.0 {
        ChainClass::GroupingOnly
    } else {
        ChainClass::CommunicationReducing
    };
    let t_op2 = t_op2_chain(mach, &comp.op2_loops);
    let t_ca = t_ca_chain(mach, &comp.ca);
    let gain = gain_percent(t_op2, t_ca);
    Profitability {
        class,
        gain_pct: gain,
        comm_reduction_pct: comm_red,
        comp_increase_pct: comp_inc,
        enable_ca: gain > 0.0,
    }
}

/// The paper's narrative for a class on a machine kind, for reports.
pub fn narrative(class: ChainClass, kind: MachineKind) -> &'static str {
    match (class, kind) {
        (ChainClass::CommunicationReducing, _) => {
            "reduces communication beyond its computation increase: CA gains, \
             growing with node count (period/jacob behaviour)"
        }
        (ChainClass::GroupingOnly, MachineKind::Cpu) => {
            "groups messages without shrinking bytes: near break-even on CPU \
             clusters (vflux/iflux behaviour)"
        }
        (ChainClass::GroupingOnly, MachineKind::Gpu) => {
            "groups messages and collapses host-device staging events: gains \
             on GPU clusters even with zero byte reduction (vflux/iflux)"
        }
        (ChainClass::CommunicationIncreasing, _) => {
            "increases both communication and computation: CA degrades; run \
             the loops individually (gradl behaviour)"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eqs::{CaChainInput, LoopInput};

    fn comp(op2_bytes: f64, ca_bytes: f64, op2_iters: usize, ca_iters: usize) -> ChainComponents {
        // Two loops, d = 2 dats, p = 8 neighbours. Keep the eq inputs
        // consistent with the byte columns: the 2·d·p messages of each
        // of the 2 loops together carry `op2_bytes / p` per neighbour
        // (m¹ is the mean per-message size), and the single grouped
        // message carries `ca_bytes / p`.
        let (d, p, n_loops) = (2usize, 8usize, 2.0);
        ChainComponents {
            op2_loops: vec![
                LoopInput {
                    g: 5e-8,
                    s_core: op2_iters,
                    s_halo: op2_iters / 10,
                    d,
                    p,
                    m1_bytes: (op2_bytes / (n_loops * 2.0 * d as f64 * p as f64)) as usize,
                };
                2
            ],
            ca: CaChainInput {
                loops: vec![(5e-8, ca_iters, ca_iters / 3); 2],
                p,
                m_r_bytes: (ca_bytes / p as f64) as usize,
            },
            op2_comm_bytes: op2_bytes,
            op2_core: 2 * op2_iters,
            op2_halo: op2_iters / 5,
            ca_comm_bytes: ca_bytes,
            ca_core: 2 * ca_iters,
            ca_halo: 2 * ca_iters / 3,
        }
    }

    #[test]
    fn classes_follow_byte_ratios() {
        let m = Machine::archer2();
        let reducing = classify(&m, &comp(1_000_000.0, 300_000.0, 5000, 4800));
        assert_eq!(reducing.class, ChainClass::CommunicationReducing);

        let grouping = classify(&m, &comp(1_000_000.0, 1_000_000.0, 5000, 4800));
        assert_eq!(grouping.class, ChainClass::GroupingOnly);

        let increasing = classify(&m, &comp(1_000_000.0, 1_400_000.0, 5000, 4800));
        assert_eq!(increasing.class, ChainClass::CommunicationIncreasing);
        assert!(increasing.comm_reduction_pct < 0.0);
    }

    #[test]
    fn grouping_only_wins_on_gpu_not_cpu() {
        // Latency-light CPU regime: bytes dominate, grouping alone is
        // near-neutral; the GPU staging collapse tips it positive.
        let c = comp(4_000_000.0, 4_000_000.0, 3000, 3000);
        let cpu = classify(&Machine::archer2(), &c);
        let gpu = classify(&Machine::cirrus(), &c);
        assert!(gpu.gain_pct > cpu.gain_pct);
    }

    #[test]
    fn narratives_cover_all_classes() {
        for class in [
            ChainClass::CommunicationReducing,
            ChainClass::GroupingOnly,
            ChainClass::CommunicationIncreasing,
        ] {
            for kind in [MachineKind::Cpu, MachineKind::Gpu] {
                assert!(!narrative(class, kind).is_empty());
            }
        }
    }
}
