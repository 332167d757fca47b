//! Facade crate for the OP2 communication-avoiding (CA) reproduction.
//!
//! Re-exports every sub-crate under a stable path so downstream users can
//! depend on a single crate:
//!
//! ```
//! use op2::core::AccessMode;
//! assert!(AccessMode::Inc.modifies());
//! ```
pub use op2_core as core;
pub use op2_mesh as mesh;
pub use op2_model as model;
pub use op2_partition as partition;
pub use op2_runtime as runtime;

pub use hydra_sim as hydra;
pub use mg_cfd as mgcfd;
