//! # hydra-sim
//!
//! A structural reproduction of **OP2-Hydra** — Rolls-Royce's production
//! RANS solver as re-engineered over OP2 (Mudalige et al. 2022) — at the
//! granularity the paper benchmarks: the six loop-chains of Tables 3–4
//! (`weight`, `period`, `gradl`, `vflux`, `iflux`, `jacob`), embedded in
//! a time-marching iteration, over an annular rotor-passage mesh with
//! periodic planes, hub/casing boundary and centreline sets.
//!
//! The real Hydra is ~100 kLoC of Fortran with ~500 parallel loops; its
//! CA behaviour on each chain, however, is fully determined by the
//! chain's iteration sets and access descriptors, which this crate
//! replicates loop by loop (see Tables 3–4 and `app::Hydra`). Kernels
//! are compact CFD-flavoured arithmetic with the right operand structure
//! — commutative where executed redundantly, per the order-independence
//! assumption sparse tiling relies on (§2.2).
//!
//! ## Halo extents: `Safe` vs `Paper`
//!
//! Our dependency analysis ([`op2_core::chain::calc_halo_extents`]) is
//! *transitive*: chains of read-write loops over the periodic-edge set
//! ladder up (period: `[5,4,3,2,1,1]`). The paper's Algorithm 3 tracks
//! dats independently and reports shallower extents (period:
//! `[2,2,1,2,1,1]`), which is sound for Hydra only because periodic-edge
//! loops perturb a thin subset of each dat. Both are supported:
//! [`app::ExtentMode::Safe`] executes with provably-consistent extents
//! (strict validity checks; bit-level agreement with the sequential
//! reference up to float reassociation), while [`app::ExtentMode::Paper`]
//! pins the published Table 3–4 extents and marks the chains *relaxed*
//! ([`op2_core::ChainSpec::relaxed`]: one sync per chain, bounded
//! staleness counted in the traces). EXPERIMENTS.md records both.
//!
//! ## The chain configuration file
//!
//! As in the paper (§3.4), the application is a plain list of loops, and
//! one configuration file, `configs/hydra_chains.cfg`, names each chain's
//! loops and pins its halo extensions. The crate embeds the file and
//! parses it once in [`Hydra::new`]; [`Hydra::chain`] resolves a block
//! against the app's loops, applying the pins only in `Paper` mode. The
//! programs the app builds ([`app::Step`]) convert into the workspace's
//! one program type, [`op2_core::Step`].

pub mod app;
pub mod kernels;
pub mod run;

pub use app::{ExtentMode, Hydra, HydraParams};
pub use run::{job, run, run_sequential, RunOutcome, Variant};
