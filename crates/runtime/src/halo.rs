//! The one halo-exchange engine.
//!
//! Alg 1 and Alg 2 differ only in *which* (dat, depth) pairs a rank
//! imports and in how they travel: one message per (neighbour, dat), or
//! one grouped message per neighbour (Fig 8). Pack and unpack are the
//! same copy either way (the model's one term `c`). An [`ExchangePlan`]
//! is an import list under a [`Split`], resolved once against the rank's
//! layout — the only place segments are filtered by depth — into
//! per-neighbour pack lists, copy ranges and payload sizes. Every
//! [`crate::plan::ChainPlan`] holds a grouped one; Alg 1 caches per-dat
//! ones per (loop, dirty class) in the [`crate::plan::PlanCache`]; the
//! reference [`crate::exec::run_chain_unplanned`] builds one per call.
//! [`ExchangePlan::post`] warms the buffer pool once per plan, packs and
//! sends; [`ExchangePlan::complete`] receives in arrival order, unpacks,
//! and only then raises validity.

use crate::comm::CommError;
use crate::env::RankEnv;
use crate::plan::{fnv_bytes, fnv_usize, FNV_OFFSET};
use crate::trace::ExchangeRec;
use op2_core::{rows, DatId, Domain};
use op2_partition::layout::RankLayout;
use std::ops::Range;
use std::time::Instant;

/// How an import list travels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split {
    /// Alg 1: one message per (neighbour, dat), in import order.
    PerDat,
    /// Alg 2: one message per neighbour carrying every dat back to back
    /// (Fig 8).
    Grouped,
}

impl Split {
    /// The messages one direction of a pair carries, given each import
    /// dat's payload length there. Empty payloads are never sent.
    fn payloads(self, f64s: &[usize]) -> Vec<Payload> {
        let runs: Vec<Range<usize>> = match self {
            Split::PerDat => (0..f64s.len()).map(|k| k..k + 1).collect(),
            Split::Grouped => std::iter::once(0..f64s.len()).collect(),
        };
        runs.into_iter()
            .map(|dats| Payload {
                f64s: f64s[dats.clone()].iter().sum(),
                dats,
            })
            .filter(|p| p.f64s > 0)
            .collect()
    }
}

/// One message: the run of import dats it carries, back to back in
/// import order, and its length.
#[derive(Debug)]
pub(crate) struct Payload {
    /// Import-list positions carried.
    pub dats: Range<usize>,
    /// Payload length in f64s.
    pub f64s: usize,
}

/// The exchange with one neighbour.
#[derive(Debug)]
pub(crate) struct NeighborPack {
    /// The neighbour's rank.
    pub rank: u32,
    /// Per import dat: sender-local owned element indices, flattened
    /// across every send segment within the import depth.
    pub send: Vec<Vec<u32>>,
    /// Per import dat: receiver-side `(elem_start, elem_len)` copy ranges
    /// in local element units.
    pub recv: Vec<Vec<(u32, u32)>>,
    /// Outgoing messages, in send order.
    pub sends: Vec<Payload>,
    /// Incoming messages, in the neighbour's send order.
    pub recvs: Vec<Payload>,
}

/// One halo exchange, resolved against one rank's layout: what to
/// import, how it is split into messages, and every index list pack and
/// unpack replay. Immutable once built: the fields the copies trust stay
/// crate-private.
#[derive(Debug)]
pub struct ExchangePlan {
    /// Per dat, the depth the exchange delivers.
    pub(crate) import: Vec<(DatId, u8)>,
    /// One entry per layout neighbour, in layout order.
    pub(crate) neighbors: Vec<NeighborPack>,
    /// Total incoming payload bytes.
    pub recv_bytes: usize,
    /// Hash of `(split, import)`: the buffer warm-up key. Two plans with
    /// equal keys move identical messages on one layout.
    key: u64,
}

impl ExchangePlan {
    /// Resolve `import` against `layout`: a dat travels every segment of
    /// its set whose ring level is within its depth, in the layout's
    /// segment order, which both sides of a pair enumerate identically —
    /// so messages need no headers.
    pub fn build(layout: &RankLayout, dom: &Domain, import: Vec<(DatId, u8)>, split: Split) -> Self {
        let mut key = FNV_OFFSET;
        fnv_bytes(&mut key, &[split as u8]);
        for &(dat, depth) in &import {
            fnv_usize(&mut key, dat.idx());
            fnv_bytes(&mut key, &[depth]);
        }
        let mut recv_bytes = 0;
        let neighbors = (layout.neighbors.iter())
            .map(|nbr| {
                let (mut send, mut recv) = (Vec::new(), Vec::new());
                let (mut send_f64s, mut recv_f64s) = (Vec::new(), Vec::new());
                for &(dat, depth) in &import {
                    let d = dom.dat(dat);
                    let elems: Vec<u32> = (nbr.send.iter())
                        .filter(|seg| seg.set == d.set && seg.level <= depth)
                        .flat_map(|seg| seg.elems.iter().copied())
                        .collect();
                    let ranges: Vec<(u32, u32)> = (nbr.recv.iter())
                        .filter(|seg| seg.set == d.set && seg.level <= depth)
                        .map(|seg| (seg.start, seg.len))
                        .collect();
                    send_f64s.push(elems.len() * d.dim);
                    recv_f64s.push(ranges.iter().map(|&(_, n)| n as usize).sum::<usize>() * d.dim);
                    send.push(elems);
                    recv.push(ranges);
                }
                recv_bytes += recv_f64s.iter().sum::<usize>() * 8;
                NeighborPack {
                    rank: nbr.rank,
                    send,
                    recv,
                    sends: split.payloads(&send_f64s),
                    recvs: split.payloads(&recv_f64s),
                }
            })
            .collect();
        ExchangePlan {
            import,
            neighbors,
            recv_bytes,
            key,
        }
    }

    /// True when the plan imports nothing.
    pub fn is_empty(&self) -> bool {
        self.import.is_empty()
    }

    /// Post the exchange (Alg 1 lines 1–2, Alg 2 lines 5–7): take a fresh
    /// tag, then pack every message into a pooled buffer and send it.
    /// An empty plan sends nothing but still takes its tag.
    pub fn post(&self, env: &mut RankEnv<'_>) -> ExchangeRec {
        let tag = env.next_tag();
        let mut rec = ExchangeRec::default();
        if self.is_empty() {
            return rec;
        }
        // The `MPI_Send_init` moment, once per plan and rank: size each
        // peer's pool slot to the pair's largest message either way.
        // Buffers travel with messages and come back with the peer's, so
        // the pool stops growing after warm-up and steady-state exchanges
        // make zero payload allocations (asserted via
        // [`crate::comm::CommCounters::payload_allocs`]).
        if env.warmed.insert(self.key) {
            for nbr in &self.neighbors {
                let largest = nbr.sends.iter().chain(&nbr.recvs).map(|p| p.f64s).max();
                env.comm.ensure_buf(nbr.rank, largest.unwrap_or(0));
            }
        }
        rec.n_neighbors = env.layout.neighbors.len();
        for nbr in &self.neighbors {
            for p in &nbr.sends {
                let mut payload = env.comm.take_buf(nbr.rank, p.f64s);
                let t0 = Instant::now();
                self.pack(env, nbr, p, &mut payload);
                rec.pack_ns += t0.elapsed().as_nanos() as u64;
                let bytes = payload.len() * 8;
                rec.n_msgs += 1;
                rec.bytes += bytes;
                rec.max_msg_bytes = rec.max_msg_bytes.max(bytes);
                rec.packed_elems += payload.len();
                rec.nbr_bits |= 1u128 << nbr.rank.min(127);
                env.comm.isend(nbr.rank, tag, payload);
            }
        }
        rec
    }

    /// Complete the exchange [`ExchangePlan::post`] started (the
    /// `MPI_Wait` of Algs 1–2). Messages complete in **arrival order**
    /// across neighbours — whichever lands first is unpacked first, so
    /// the tail is one slowest neighbour, not a sum of in-order stalls —
    /// and in FIFO order within one neighbour, which is its send order.
    /// Receive ranges never alias across messages, so the order cannot
    /// change results. Wait/unpack wall time accumulates into `rec`;
    /// payload buffers return to the per-peer pool.
    ///
    /// Transport failures surface as [`CommError`]; validity rises to
    /// each dat's import depth only after *every* message landed, so a
    /// failed wait never marks rings valid that were not filled.
    pub fn complete(&self, env: &mut RankEnv<'_>, rec: &mut ExchangeRec) -> Result<(), CommError> {
        if self.is_empty() {
            return Ok(());
        }
        let tag = env.tag_seq;
        // Neighbours still owed a message, with the next one due.
        let mut pending: Vec<(&NeighborPack, usize)> = (self.neighbors.iter())
            .filter(|nbr| !nbr.recvs.is_empty())
            .map(|nbr| (nbr, 0))
            .collect();
        let mut peers: Vec<u32> = pending.iter().map(|(nbr, _)| nbr.rank).collect();
        while !pending.is_empty() {
            let t0 = Instant::now();
            let (i, payload) = env.comm.recv_any(&peers, tag)?;
            rec.wait_ns += t0.elapsed().as_nanos() as u64;
            let (nbr, m) = pending[i];
            let p = &nbr.recvs[m];
            assert_eq!(payload.len(), p.f64s, "halo message length mismatch from rank {}", nbr.rank);
            let t1 = Instant::now();
            self.unpack(env, nbr, p, &payload);
            rec.unpack_ns += t1.elapsed().as_nanos() as u64;
            env.comm.recycle(nbr.rank, payload);
            if m + 1 < nbr.recvs.len() {
                pending[i].1 += 1;
            } else {
                pending.remove(i);
                peers.remove(i);
            }
        }
        for &(dat, depth) in &self.import {
            env.valid[dat.idx()] = env.valid[dat.idx()].max(depth);
        }
        Ok(())
    }

    /// Gather message `p` to `nbr` from the rank's dats into `payload`
    /// (a pooled buffer with room for it) — the one pack.
    fn pack(&self, env: &RankEnv<'_>, nbr: &NeighborPack, p: &Payload, payload: &mut Vec<f64>) {
        for k in p.dats.clone() {
            let dim = env.dom.dat(self.import[k].0).dim;
            rows::gather(payload, &env.dats[self.import[k].0.idx()], &nbr.send[k], dim);
        }
    }

    /// Scatter message `p` from `nbr` through its copy ranges into the
    /// rank's dats — the one unpack.
    fn unpack(&self, env: &mut RankEnv<'_>, nbr: &NeighborPack, p: &Payload, payload: &[f64]) {
        let mut off = 0;
        for k in p.dats.clone() {
            let dim = env.dom.dat(self.import[k].0).dim;
            let buf = &mut env.dats[self.import[k].0.idx()];
            for &(start, len) in &nbr.recv[k] {
                let n = len as usize * dim;
                buf[start as usize * dim..][..n].copy_from_slice(&payload[off..off + n]);
                off += n;
            }
        }
        debug_assert_eq!(off, payload.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use op2_mesh::{Quad2D, Tet3D};
    use op2_partition::{build_layouts, derive_ownership, rcb_partition};
    use proptest::prelude::*;

    /// A random partitioned quad or tet mesh carrying three node dats
    /// (dims 1, 2, 3) and one edge dat (dim 2), every value distinct.
    fn fixture(n: usize, tet: bool, nparts: usize) -> (Domain, Vec<RankLayout>, Vec<DatId>) {
        let (mut dom, nodes, edges, coords, cdim) = if tet {
            let m = Tet3D::generate(n, n, 2);
            (m.dom, m.nodes, m.edges, m.coords, 3)
        } else {
            let m = Quad2D::generate(n, n);
            (m.dom, m.nodes, m.edges, m.coords, 2)
        };
        let dats = [(nodes, 1), (nodes, 2), (edges, 2), (nodes, 3)]
            .into_iter()
            .enumerate()
            .map(|(k, (set, dim))| {
                let len = dom.set(set).size * dim;
                let vals = (0..len).map(|i| (k * 100_000 + i) as f64).collect();
                dom.decl_dat(&format!("d{k}"), set, dim, vals)
            })
            .collect();
        let base = rcb_partition(&dom.dat(coords).data, cdim, nparts);
        let own = derive_ownership(&dom, nodes, base, nparts);
        let layouts = build_layouts(&dom, &own, 2);
        (dom, layouts, dats)
    }

    /// Every message of `nbr` packed on `env`, in send order.
    fn packed(x: &ExchangePlan, env: &RankEnv<'_>, nbr: &NeighborPack) -> Vec<Vec<f64>> {
        (nbr.sends.iter())
            .map(|p| {
                let mut payload = Vec::with_capacity(p.f64s);
                x.pack(env, nbr, p, &mut payload);
                payload
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The two splits of one import are one wire format: per
        /// neighbour, the per-dat messages concatenated in dat order are
        /// bit-identical to the grouped message, and every payload size
        /// is the sum of its dats' sizes; on the receive side, each
        /// imported ring is covered by exactly one copy range.
        #[test]
        fn splits_share_one_wire_format(
            n in 4usize..8,
            tet in proptest::bool::ANY,
            nparts in 2usize..5,
            d0 in 0u8..3,
            d1 in 0u8..3,
            d2 in 0u8..3,
            d3 in 0u8..3,
        ) {
            let (dom, layouts, dats) = fixture(n, tet, nparts);
            let import: Vec<(DatId, u8)> = dats.iter().copied().zip([d0, d1, d2, d3]).collect();
            let mut comms = CommWorld::new(nparts).into_ranks().into_iter();
            for layout in &layouts {
                let env = RankEnv::new(layout, &dom, comms.next().unwrap());
                let per_dat = ExchangePlan::build(layout, &dom, import.clone(), Split::PerDat);
                let grouped = ExchangePlan::build(layout, &dom, import.clone(), Split::Grouped);
                prop_assert_eq!(per_dat.recv_bytes, grouped.recv_bytes);
                for (a, b) in per_dat.neighbors.iter().zip(&grouped.neighbors) {
                    let concat: Vec<u64> = packed(&per_dat, &env, a)
                        .concat()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    let whole: Vec<u64> = packed(&grouped, &env, b)
                        .concat()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    prop_assert_eq!(&concat, &whole, "rank {} -> {}", layout.rank, a.rank);
                    prop_assert!(b.sends.len() <= 1 && b.recvs.len() <= 1);
                    let dim = |k: usize| dom.dat(import[k].0).dim;
                    let send: Vec<usize> = (0..import.len()).map(|k| a.send[k].len() * dim(k)).collect();
                    let recv: Vec<usize> = (0..import.len())
                        .map(|k| a.recv[k].iter().map(|&(_, n)| n as usize).sum::<usize>() * dim(k))
                        .collect();
                    for (msgs, sizes) in [(&a.sends, &send), (&a.recvs, &recv)] {
                        for p in msgs.iter() {
                            prop_assert_eq!(p.f64s, sizes[p.dats.clone()].iter().sum::<usize>());
                        }
                    }
                    let total = |msgs: &[Payload]| msgs.iter().map(|p| p.f64s).sum::<usize>();
                    prop_assert_eq!(total(&b.sends), send.iter().sum::<usize>());
                    prop_assert_eq!(total(&a.sends), total(&b.sends));
                    prop_assert_eq!(total(&b.recvs), recv.iter().sum::<usize>());
                    prop_assert_eq!(total(&a.recvs), total(&b.recvs));
                }
                for (k, &(dat, depth)) in import.iter().enumerate() {
                    let set = &layout.sets[dom.dat(dat).set.idx()];
                    let mut hits = vec![0u32; set.n_local()];
                    for nbr in &grouped.neighbors {
                        for &(start, len) in &nbr.recv[k] {
                            for h in &mut hits[start as usize..(start + len) as usize] {
                                *h += 1;
                            }
                        }
                    }
                    let ring = set.n_owned..set.exec_end(depth as usize);
                    for (l, &h) in hits.iter().enumerate() {
                        prop_assert_eq!(h, u32::from(ring.contains(&l)), "dat {} local {}", k, l);
                    }
                }
            }
        }
    }
}
