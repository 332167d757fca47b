//! # mg-cfd
//!
//! A reproduction of **MG-CFD** (Owenson et al. 2020): the 3D
//! unstructured multigrid finite-volume CFD mini-app the paper uses for
//! its synthetic loop-chain experiments (§4.1). MG-CFD extends the
//! Rodinia CFD solver: an inviscid, compressible Euler solver,
//! node-centred over an unstructured mesh, with geometric multigrid
//! accelerating convergence.
//!
//! Structure of this crate:
//!
//! * [`kernels`] — the solver's user kernels (flux, time step,
//!   multigrid restriction/prolongation) plus the paper's synthetic
//!   `update` / `edge_flux` pair;
//! * [`app`] — mesh + dats + loop program assembly: the multigrid
//!   V-cycle and the synthetic loop-chain with the `nchains` parameter
//!   of §4.1.1 (a `[update, edge_flux]` pair repeated, forming a single
//!   2·nchains-loop chain with r = 2). For CA the whole iteration is two
//!   chains, `vdown` (the descent) and `vup` (the ascent, then the
//!   synthetic pairs), of depth `levels`, at least 2
//!   ([`MgCfd::required_depth`]);
//! * [`mod@run`] — the sequential reference, the one program builder
//!   ([`job`]: the app's iteration as an [`op2_runtime::Job`]) and the
//!   one distributed entry point ([`run()`]) used by tests, examples and
//!   benchmarks.
//!
//! The NASA Rotor 37 meshes are replaced by [`op2_mesh::Hex3D`] grids of
//! the same node counts (see DESIGN.md for the substitution argument).

pub mod app;
pub mod kernels;
pub mod run;

pub use app::{MgCfd, MgCfdParams, Step};
pub use run::{job, run, run_sequential, RunOutcome, Variant};
