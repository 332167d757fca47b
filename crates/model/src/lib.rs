//! # op2-model
//!
//! The analytic performance model of §3.2 of the paper (Eqs 1–4), plus
//! machine presets for the two benchmarked systems and the glue that
//! turns measured halo statistics into model inputs.
//!
//! * [`machine`] — Table 1 as code: an ARCHER2-like CPU cluster (128
//!   ranks/node, Slingshot-class network) and a Cirrus-like V100 cluster
//!   (4 GPU ranks/node, FDR InfiniBand, PCIe staging);
//! * [`eqs`] — the equations themselves: Eq 1 (standard OP2 loop with
//!   latency hiding), Eq 2 (chain as sum of loops), Eq 3 (CA chain with
//!   one grouped message), Eq 4 (grouped message size), and their GPU
//!   extensions (larger effective latency `Λ`, PCIe staging per
//!   exchange event, kernel-launch overhead);
//! * [`components`] — computes, from [`op2_partition::HaloStats`] and a
//!   chain's access descriptors, exactly the columns of Tables 2 and 5:
//!   `Σ(2dpm¹)`, `Σ(Sᶜ)`, `Σ(S¹)` for OP2 and `pmʳ`, `Σ(Sᶜ)`, `Σ(Sʰ)`
//!   for CA, plus gain/comm-reduction/comp-increase percentages;
//! * [`scaling`] — surface/volume extrapolation of partition statistics
//!   across mesh sizes and rank counts, for quick sweeps without
//!   re-partitioning;
//! * [`profit`] — the §3.2/§5 profitability judgement: classify a chain
//!   as communication-reducing / grouping-only / communication-increasing
//!   and recommend whether to enable CA on a given machine.

pub mod components;
pub mod eqs;
pub mod machine;
pub mod profit;
pub mod scaling;

pub use components::{chain_components, shape_from_sigs, ChainComponents, LoopShape};
pub use eqs::{t_ca_chain, t_op2_chain, t_op2_loop, CaChainInput, LoopInput};
pub use machine::{Machine, MachineKind};
pub use profit::{classify, ChainClass, Profitability};
pub use scaling::extrapolate_components;
