//! # op2-mesh
//!
//! Unstructured-mesh generators for the OP2-CA reproduction.
//!
//! The paper evaluates on NASA Rotor 37 meshes (8M and 24M nodes) — a
//! proprietary transonic-compressor geometry we cannot ship. What the CA
//! trade-off actually depends on is the *structure* of the mesh graph:
//! surface-to-volume ratios of partitions, map arities, and the presence
//! of the special boundary sets Hydra's loop-chains iterate (periodic
//! edges, hub/casing boundary, centreline). These generators reproduce
//! that structure synthetically:
//!
//! * [`quad2d`] — the small 2D quad mesh of Figure 1 (nodes, edges,
//!   cells, `e2n`, `e2c`) used by the quickstart and many tests;
//! * [`hex3d`] — a 3D node-centred mesh (nodes + dual edges + boundary
//!   nodes) of arbitrary size, e.g. 200³ = 8M and 288·288·289 ≈ 24M
//!   nodes, standing in for the Rotor 37 grids in MG-CFD runs;
//! * [`annulus`] — a rotor-passage-like annular sector with periodic
//!   planes (`pedges`), hub/casing boundary (`bnd`) and centreline
//!   (`cbnd`) sets, matching the iteration sets of the Hydra loop-chains
//!   in Tables 3–4;
//! * [`tet3d`] — a Kuhn-subdivision tetrahedral mesh (arity-4 maps,
//!   degree-14 nodes — the fatter halos of genuine simplex grids);
//! * [`multigrid`] — fine→coarse node maps for MG-CFD's multigrid;
//! * [`csr`] — compressed reverse adjacency used by partitioners and the
//!   halo-ring BFS.
//!
//! All generators emit plain [`op2_core::Domain`]
//! declarations plus typed handles to the ids, and can optionally shuffle
//! element numbering to exercise genuinely unstructured orderings.

pub mod annulus;
pub mod csr;
pub mod hex3d;
pub mod multigrid;
pub mod quad2d;
pub mod tet3d;
pub mod shuffle;

pub use annulus::{Annulus, AnnulusParams};
pub use csr::Csr;
pub use hex3d::{Hex3D, Hex3DIds, Hex3DParams};
pub use multigrid::mg_node_map;
pub use quad2d::Quad2D;
pub use tet3d::Tet3D;
