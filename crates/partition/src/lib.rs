//! # op2-partition
//!
//! Everything between the global mesh and per-rank execution:
//!
//! * [`partitioner`] — assigns every element of a *base set* to a rank:
//!   recursive coordinate bisection (RCB), recursive inertial bisection
//!   (RIB — Hydra's default partitioner in the paper), and a greedy
//!   k-way graph partitioner standing in for ParMETIS' k-way routine
//!   used in the MG-CFD experiments;
//! * [`ownership`] — propagates ownership from the base set to every
//!   other set through the declared maps (OP2 partitions one set and
//!   derives the rest);
//! * [`rings`] — per-rank halo *rings*: the multi-layered generalisation
//!   of OP2's import/export halos (Figures 5 and 7 of the paper),
//!   computed with a 0-1 BFS over the map graph, plus the mirrored
//!   *inner* rings that define how far a loop-chain's latency-hiding
//!   core must retract per chain position;
//! * [`layout`] — per-rank local index spaces: owned elements ordered by
//!   descending inner depth (so every prewait core is a prefix), import
//!   rings appended level by level (the paper's Figure 6(b)
//!   restructuring), localized maps, and per-neighbour send/receive
//!   lists grouped by (set, level) so the grouped message of Figure 8
//!   packs and unpacks from contiguous ranges. Inside every such range
//!   elements follow one global locality order per set (Cuthill–McKee
//!   on map targets, lowest target for the rest), so gathers and
//!   scatters stay near each other whatever the input numbering;
//! * [`stats`] — a counts-only pipeline producing the halo statistics of
//!   the paper's Tables 2 and 5 (message sizes, neighbour counts, core
//!   and halo iteration counts) for meshes up to the full 8M/24M nodes
//!   without materialising executable layouts.
//!
//! A mesh is partitioned once, up front, by element count, as in the
//! paper; nothing here re-partitions a running job.

// Index-based loops over parallel arrays are the dominant idiom in this
// crate's mesh/partition kernels; iterator-zip rewrites obscure which
// array drives the bound without changing the generated code.
#![allow(clippy::needless_range_loop)]

pub mod layout;
mod order;
pub mod ownership;
pub mod partitioner;
pub mod rings;
pub mod stats;

pub use layout::{build_layouts, RankLayout};
pub use ownership::{derive_ownership, Ownership};
pub use partitioner::{kway_partition, rcb_partition, rib_partition};
pub use rings::{compute_rings, RankRings};
pub use stats::{collect_stats, HaloStats};

/// One dense table per set of `dom`, every entry `fill`.
pub(crate) fn per_set<T: Clone>(dom: &op2_core::Domain, fill: T) -> Vec<Vec<T>> {
    dom.sets().iter().map(|s| vec![fill.clone(); s.size]).collect()
}

/// Set `slots[r] = work(&mut scratch, r)` for every rank `r`, over at
/// most `workers` scoped threads: each takes one contiguous chunk of
/// ranks and one `scratch()` of its own, and the calling thread works
/// the last chunk. Each slot depends on its rank alone, so the result is
/// the same for any `workers`.
pub(crate) fn for_each_rank<T: Send, S>(
    slots: &mut [T],
    workers: usize,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) {
    let chunk = slots.len().div_ceil(workers.max(1)).max(1);
    let run = |first: usize, ranks: &mut [T]| {
        let mut s = scratch();
        for (off, slot) in ranks.iter_mut().enumerate() {
            *slot = work(&mut s, first + off);
        }
    };
    std::thread::scope(|scope| {
        let mut chunks = slots.chunks_mut(chunk).enumerate();
        let last = chunks.next_back();
        for (c, ranks) in chunks {
            let run = &run;
            scope.spawn(move || run(c * chunk, ranks));
        }
        if let Some((c, ranks)) = last {
            run(c * chunk, ranks);
        }
    });
}
