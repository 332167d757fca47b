//! Modelled cluster time from measured execution traces.
//!
//! The executors measure *what happened* (iterations, messages, bytes);
//! combining a trace record with a [`Machine`] preset yields modelled
//! seconds — Eq 1/3 for CPU presets, their §3.3 extensions for GPU
//! presets (the quantity Figures 11 and 13 plot). Using measured traces
//! (rather than [`op2_model::components`] statistics) means examples and
//! ablation benches can model exactly the run they just executed.
//!
//! This module lives in `op2-gpu` because it is the one crate that sees
//! both the runtime's trace types and the model; [`loop_time`] /
//! [`chain_time`] accept either machine kind.

use op2_model::eqs::{t_ca_chain, t_op2_loop, CaChainInput, LoopInput};
use op2_model::machine::{Machine, MachineKind};
use op2_runtime::trace::{ChainRec, LoopRec};

/// Modelled time of one standard (Alg 1) loop execution on either
/// machine kind. `g` is the per-iteration kernel cost (use
/// `mach.g_default` unless the loop was calibrated separately).
pub fn loop_time(mach: &Machine, rec: &LoopRec, g: f64) -> f64 {
    t_op2_loop(
        mach,
        &LoopInput {
            g,
            s_core: rec.core_iters,
            s_halo: rec.halo_iters,
            d: rec.d_exchanged,
            p: rec.exch.n_neighbors,
            m1_bytes: rec.exch.max_msg_bytes,
        },
    )
}

/// Modelled time of one CA (Alg 2) chain execution on either machine
/// kind. `gs` supplies per-loop kernel costs (length must match).
pub fn chain_time(mach: &Machine, rec: &ChainRec, gs: &[f64]) -> f64 {
    assert_eq!(gs.len(), rec.per_loop.len());
    t_ca_chain(
        mach,
        &CaChainInput {
            loops: rec
                .per_loop
                .iter()
                .zip(gs)
                .map(|(&(c, h), &g)| (g, c, h))
                .collect(),
            p: rec.exch.n_neighbors,
            m_r_bytes: rec.exch.max_msg_bytes,
        },
    )
}

/// [`loop_time`] restricted to GPU presets (asserted in debug builds).
pub fn loop_time_gpu(mach: &Machine, rec: &LoopRec, g: f64) -> f64 {
    debug_assert_eq!(mach.kind, MachineKind::Gpu);
    loop_time(mach, rec, g)
}

/// [`chain_time`] restricted to GPU presets (asserted in debug builds).
pub fn chain_time_gpu(mach: &Machine, rec: &ChainRec, gs: &[f64]) -> f64 {
    debug_assert_eq!(mach.kind, MachineKind::Gpu);
    chain_time(mach, rec, gs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_runtime::trace::ExchangeRec;

    #[test]
    fn chain_time_beats_per_loop_time_when_latency_bound() {
        let mach = Machine::cirrus();
        let g = mach.g_default;
        // Eight identical small loops, each exchanging 2 dats.
        let loop_rec = LoopRec {
            name: "l".into(),
            core_iters: 2000,
            halo_iters: 500,
            d_exchanged: 2,
            exch: ExchangeRec {
                n_msgs: 12,
                bytes: 48_000,
                max_msg_bytes: 4000,
                n_neighbors: 6,
                packed_elems: 6000,
                ..Default::default()
            },
            wall_ns: 0,
        };
        let t_op2: f64 = (0..8).map(|_| loop_time_gpu(&mach, &loop_rec, g)).sum();
        let chain_rec = ChainRec {
            name: "c".into(),
            per_loop: (0..8).map(|_| (1800, 1200)).collect(),
            d_exchanged: 2,
            depth: 2,
            exch: ExchangeRec {
                n_msgs: 6,
                bytes: 96_000,
                max_msg_bytes: 16_000,
                n_neighbors: 6,
                packed_elems: 12_000,
                ..Default::default()
            },
            stale_reads: 0,
            wall_ns: 0,
        };
        let t_ca = chain_time_gpu(&mach, &chain_rec, &[g; 8]);
        assert!(t_ca < t_op2, "{t_ca} vs {t_op2}");
    }

    /// The kind-generic helpers accept CPU presets too — same record,
    /// different equations: the CPU loop pays no staging or launches.
    #[test]
    fn cpu_kind_accepted_and_cheaper_on_overheads() {
        let cpu = Machine::archer2();
        let rec = LoopRec {
            name: "l".into(),
            core_iters: 100,
            halo_iters: 10,
            d_exchanged: 0, // no exchange: pure compute
            exch: ExchangeRec::default(),
            wall_ns: 0,
        };
        let t_cpu = loop_time(&cpu, &rec, cpu.g_default);
        // Pure compute: exactly g * (core + halo).
        let expect = cpu.g_default * 110.0;
        assert!((t_cpu - expect).abs() < 1e-15);
        // GPU adds two kernel launches even without communication.
        let gpu = Machine::cirrus();
        let t_gpu = loop_time(&gpu, &rec, gpu.g_default);
        assert!(t_gpu >= 2.0 * gpu.kernel_launch);
    }

    #[test]
    #[should_panic]
    fn g_count_mismatch_panics() {
        let mach = Machine::cirrus();
        let rec = ChainRec {
            per_loop: vec![(1, 1), (1, 1)],
            ..Default::default()
        };
        chain_time_gpu(&mach, &rec, &[1e-9]);
    }
}
