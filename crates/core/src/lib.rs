//! # op2-core
//!
//! The core of an OP2-style embedded DSL for unstructured-mesh
//! applications, reproduced from *"Communication-Avoiding Optimizations for
//! Large-Scale Unstructured-Mesh Applications with OP2"* (ICPP 2023).
//!
//! The OP2 abstraction describes a computation as:
//!
//! * **sets** ([`Set`]) — collections of mesh elements (nodes, edges, cells,
//!   boundary faces, …), declared with `op_decl_set` in OP2;
//! * **maps** ([`MapData`]) — explicit connectivity between sets
//!   (`op_decl_map`), e.g. an edges→nodes map of arity 2;
//! * **dats** ([`DatData`]) — data associated with every element of a set
//!   (`op_decl_dat`), e.g. a 2-component residual per node;
//! * **parallel loops** ([`LoopSpec`]) — a kernel applied to every element
//!   of a set, with *access descriptors* ([`Arg`]) stating which dats are
//!   touched, through which map, and in which [`AccessMode`]
//!   (`op_par_loop` + `op_arg_dat`).
//!
//! On top of this sits the *loop-chain* abstraction ([`chain`]): an ordered
//! sequence of parallel loops with no global synchronisation in between,
//! which a communication-avoiding back-end may execute with a single,
//! deeper, grouped halo exchange instead of one exchange per loop. A
//! program is a list of [`Step`]s, each a loop or a chain.
//!
//! ## A complete (tiny) program
//!
//! ```
//! use op2_core::{kernel, seq, AccessMode, Arg, Args, ChainSpec, Domain, LoopSpec};
//!
//! // Figure 1 in miniature: two edges over three nodes.
//! let mut dom = Domain::new();
//! let nodes = dom.decl_set("nodes", 3);
//! let edges = dom.decl_set("edges", 2);
//! let e2n = dom.decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2]).unwrap();
//! let pres = dom.decl_dat("pres", nodes, 1, vec![1.0, 2.0, 4.0]);
//! let res = dom.decl_dat_zeros("res", nodes, 1);
//!
//! kernel! {
//!     fn update(args: &Args<'_>) {
//!         // res[n0] += pres[n1]; res[n1] += pres[n0]
//!         args.inc(0, 0, args.get(3, 0));
//!         args.inc(1, 0, args.get(2, 0));
//!     }
//! }
//! let spec = LoopSpec::new(
//!     "update",
//!     edges,
//!     vec![
//!         Arg::dat_indirect(res, e2n, 0, AccessMode::Inc),
//!         Arg::dat_indirect(res, e2n, 1, AccessMode::Inc),
//!         Arg::dat_indirect(pres, e2n, 0, AccessMode::Read),
//!         Arg::dat_indirect(pres, e2n, 1, AccessMode::Read),
//!     ],
//!     update,
//! );
//! spec.validate(&dom).unwrap();
//! seq::run_loop(&mut dom, &spec);
//! assert_eq!(dom.dat(res).data, vec![2.0, 5.0, 2.0]);
//!
//! // Chains carry the halo analysis the CA back-end executes with.
//! let chain = ChainSpec::new("c", vec![spec.clone(), spec], None, &[]).unwrap();
//! assert_eq!(chain.halo_ext, vec![1, 1]); // INC-INC pairs don't ladder
//! ```
//!
//! This crate is entirely serial and machine-agnostic: it holds the data
//! model, the kernel calling convention, the sequential reference executor
//! ([`seq`]), the loop-chain dependency analysis (Alg 3 of the paper,
//! [`chain::calc_halo_layers`]) and the chain configuration-file format
//! described in §3.4 of the paper. It lowers loops to threaded
//! [`Schedule`]s ([`par`], [`schedule`]) but never starts a thread: the
//! runtime's per-rank pool runs them. Distribution, halos, communication and
//! threads live in `op2-partition` / `op2-runtime`.

// Index-driven loops over parallel per-element arrays are the natural
// idiom in the scheduling code here; keep them.
#![allow(clippy::needless_range_loop)]

pub mod access;
pub mod chain;
pub mod config;
pub mod domain;
pub mod error;
pub mod kernel;
pub mod loops;
pub mod par;
pub mod rows;
pub mod schedule;
pub mod seq;

pub use access::{AccessMode, Arg, GblDecl, GblOp};
pub use chain::{
    calc_halo_extents, calc_halo_layers, import_depths, ChainImport, ChainSpec, HaloLayers, StaleRead,
    Step,
};
pub use config::{parse_chain_config, ChainConfig};
pub use domain::{DatData, DatId, Domain, MapData, MapId, Set, SetId};
pub use error::{CoreError, Result};
pub use kernel::{ArgShape, Args, Kernel, KernelFn};
pub use loops::{LoopSig, LoopSpec};
pub use par::{
    blocked_schedule, owned_schedule, owner_computes_accesses, thread_schedule, touch_windows,
    ConflictAccess,
};
pub use schedule::{
    run_chunk, run_schedule, run_schedule_ctx, ArgWindow, BoundArg, BoundLoop, Chunk, Piece,
    SchedCtx, Schedule, ScheduleKind,
};
