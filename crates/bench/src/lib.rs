//! Shared harness for the paper-reproduction benchmark binaries.
//!
//! Every binary regenerates one table or figure of the paper. Because
//! the full 8M/24M-node configurations partition millions of elements
//! across thousands of ranks (minutes of inspection per configuration),
//! each binary takes a `--scale` flag:
//!
//! * `--scale small` (default) — ~64k/186k-node meshes, 8 ranks/node:
//!   runs in seconds, same qualitative shapes;
//! * `--scale medium` — ~1M/2.9M nodes, 32 ranks/node;
//! * `--scale paper` — the full 8M/24M nodes at 128 ranks/node (CPU) or
//!   4 ranks/node (GPU), matching the paper's configurations.
//!
//! `--csv` emits machine-readable rows after the human-readable table.

pub mod harness;

pub use harness::*;
