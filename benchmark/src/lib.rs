//! The repo's benchmark as a library: the `op2-benchmark` binary is a
//! thin command line over these modules, and the package's tests use
//! them to read what the binary wrote. See `benchmark/README.md`.

pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod probe;
pub mod run;
pub mod spans;
pub mod stats;
pub mod tasks;
pub mod workloads;
pub mod world;
