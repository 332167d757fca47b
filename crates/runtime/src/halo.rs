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
use crate::threads::ThreadPool;
use crate::trace::ExchangeRec;
use op2_core::{DatId, Domain};
use op2_partition::layout::RankLayout;
use std::ops::Range;
use std::ptr::copy_nonoverlapping;
use std::sync::Arc;
use std::time::Instant;

/// Payload size above which pack/unpack splits one message's copies
/// across the rank's thread pool. Tuned so the fork/join cost (two pool
/// barriers, ~µs) stays well under the memory traffic it parallelises;
/// below it the sequential copy wins.
pub const PACK_THREAD_BYTES: usize = 32 << 10;

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
    /// Total incoming payload bytes (the staged-in volume).
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
            // Unpack mutated the import rings: the dat is dirty for
            // incremental checkpointing even if no loop touches it.
            env.ckpt.note_write(dat.idx());
        }
        Ok(())
    }

    /// Gather message `p` to `nbr` from the rank's dats into `payload`
    /// (a pooled buffer with room for it) — the one pack. Above
    /// [`PACK_THREAD_BYTES`] the element copies are cut into even spans,
    /// one per pool thread; each copy writes a disjoint `dim`-sized
    /// window of the payload, so the result is byte-identical.
    fn pack(&self, env: &mut RankEnv<'_>, nbr: &NeighborPack, p: &Payload, payload: &mut Vec<f64>) {
        let Some(pool) = copy_pool(env, p.f64s) else {
            for k in p.dats.clone() {
                let dim = env.dom.dat(self.import[k].0).dim;
                let buf = &env.dats[self.import[k].0.idx()];
                for &e in &nbr.send[k] {
                    payload.extend_from_slice(&buf[e as usize * dim..][..dim]);
                }
            }
            return;
        };
        payload.resize(p.f64s, 0.0);
        // Entry = one element copy: dat `j` of the message owns entries
        // `first[j]..first[j + 1]` and the payload from `off[j]`.
        let (mut first, mut off, mut dims) = (vec![0], Vec::new(), Vec::new());
        let (mut entries, mut at) = (0, 0);
        for k in p.dats.clone() {
            let dim = env.dom.dat(self.import[k].0).dim;
            entries += nbr.send[k].len();
            first.push(entries);
            off.push(at);
            dims.push(dim);
            at += nbr.send[k].len() * dim;
        }
        assert_eq!(at, p.f64s, "pack windows must tile the payload");
        let (dats, dst) = (&env.dats, PackPtr(payload.as_mut_ptr()));
        pool.run_spans(entries, &|lo, hi| {
            let mut j = first.partition_point(|&s| s <= lo) - 1;
            for e in lo..hi {
                while first[j + 1] <= e {
                    j += 1;
                }
                let (k, i, dim) = (p.dats.start + j, e - first[j], dims[j]);
                let el = nbr.send[k][i] as usize;
                let src = &dats[self.import[k].0.idx()][el * dim..][..dim];
                // SAFETY: entry `e` writes the window `off[j] + i·dim`,
                // disjoint from every other entry's; the windows tile
                // `0..at` and `at == p.f64s == payload.len()` (asserted).
                unsafe { copy_nonoverlapping(src.as_ptr(), dst.get().add(off[j] + i * dim), dim) };
            }
        });
    }

    /// Scatter message `p` from `nbr` through its copy ranges into the
    /// rank's dats — the one unpack. Above [`PACK_THREAD_BYTES`] the
    /// payload is cut into even f64 spans, one per pool thread, each
    /// copying its intersection with the (disjoint) receive ranges.
    fn unpack(&self, env: &mut RankEnv<'_>, nbr: &NeighborPack, p: &Payload, payload: &[f64]) {
        let Some(pool) = copy_pool(env, p.f64s) else {
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
            return;
        };
        let mut dsts = Vec::new();
        for k in p.dats.clone() {
            let (dat, _) = self.import[k];
            let buf = &mut env.dats[dat.idx()];
            dsts.push((PackPtr(buf.as_mut_ptr()), buf.len(), env.dom.dat(dat).dim));
        }
        pool.run_spans(p.f64s, &|lo, hi| {
            let mut off = 0;
            for (j, k) in p.dats.clone().enumerate() {
                let (base, len, dim) = &dsts[j];
                for &(start, n) in &nbr.recv[k] {
                    let n = n as usize * dim;
                    let (a, b) = (off.max(lo), (off + n).min(hi));
                    if a < b {
                        let at = start as usize * dim + (a - off);
                        assert!(at + (b - a) <= *len, "receive range outside its dat");
                        let src = &payload[a..b];
                        // SAFETY: in bounds (asserted). Spans are disjoint
                        // payload slices and the layout's receive ranges
                        // disjoint local windows, so no element is written
                        // by two threads.
                        unsafe { copy_nonoverlapping(src.as_ptr(), base.get().add(at), b - a) };
                    }
                    off += n;
                    if off >= hi {
                        return;
                    }
                }
            }
        });
    }
}

/// The rank's pool, when an `f64s`-long copy is worth splitting across
/// it: threading active, more than one thread, at least
/// [`PACK_THREAD_BYTES`].
fn copy_pool(env: &mut RankEnv<'_>, f64s: usize) -> Option<Arc<ThreadPool>> {
    if !env.policy.threading.active() || f64s * 8 < PACK_THREAD_BYTES {
        return None;
    }
    let pool = env.threads.pool(env.policy.threading.n_threads);
    (pool.n_threads() > 1).then_some(pool)
}

/// Raw-pointer wrapper so pack/unpack closures can fan copies out over
/// the pool.
struct PackPtr(*mut f64);
// SAFETY: the one field is a destination pointer the pool's threads
// write through at disjoint windows only (see the copies' SAFETY notes),
// while the owning buffer outlives the round.
unsafe impl Send for PackPtr {}
// SAFETY: as for `Send` — shared use never writes one element twice.
unsafe impl Sync for PackPtr {}

impl PackPtr {
    /// The raw pointer. Going through a method (rather than `.0`) keeps
    /// closures capturing the `Sync` wrapper, not the bare pointer.
    #[inline]
    fn get(&self) -> *mut f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommWorld;
    use crate::threads::Threading;
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
    fn packed(x: &ExchangePlan, env: &mut RankEnv<'_>, nbr: &NeighborPack) -> Vec<Vec<f64>> {
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
                let mut env = RankEnv::new(layout, &dom, comms.next().unwrap());
                let per_dat = ExchangePlan::build(layout, &dom, import.clone(), Split::PerDat);
                let grouped = ExchangePlan::build(layout, &dom, import.clone(), Split::Grouped);
                prop_assert_eq!(per_dat.recv_bytes, grouped.recv_bytes);
                for (a, b) in per_dat.neighbors.iter().zip(&grouped.neighbors) {
                    let concat: Vec<u64> = packed(&per_dat, &mut env, a)
                        .concat()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    let whole: Vec<u64> = packed(&grouped, &mut env, b)
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

    /// Above [`PACK_THREAD_BYTES`] the pool-split pack and unpack copy
    /// exactly what the sequential ones do.
    #[test]
    fn threaded_copies_match_sequential() {
        let mut m = Quad2D::generate(64, 64);
        let n = m.dom.set(m.nodes).size;
        let wide = m.dom.decl_dat("wide", m.nodes, 48, (0..n * 48).map(|i| i as f64).collect());
        let thin = m.dom.decl_dat("thin", m.nodes, 1, (0..n).map(|i| -(i as f64)).collect());
        let base = rcb_partition(&m.dom.dat(m.coords).data, 2, 2);
        let own = derive_ownership(&m.dom, m.nodes, base, 2);
        let layouts = build_layouts(&m.dom, &own, 2);
        let layout = &layouts[0];
        let x = ExchangePlan::build(layout, &m.dom, vec![(wide, 2), (thin, 2)], Split::Grouped);
        let mut comms = CommWorld::new(2).into_ranks().into_iter();
        let mut seq = RankEnv::new(layout, &m.dom, comms.next().unwrap());
        let mut par = RankEnv::new(layout, &m.dom, comms.next().unwrap());
        par.policy.threading = Threading::with_threads(2);
        let nbr = &x.neighbors[0];
        let (p, q) = (&nbr.sends[0], &nbr.recvs[0]);
        assert!(p.f64s * 8 >= PACK_THREAD_BYTES && q.f64s * 8 >= PACK_THREAD_BYTES);
        assert!(copy_pool(&mut par, p.f64s).is_some() && copy_pool(&mut seq, p.f64s).is_none());
        assert_eq!(packed(&x, &mut seq, nbr), packed(&x, &mut par, nbr));
        let payload: Vec<f64> = (0..q.f64s).map(|i| 0.5 + i as f64).collect();
        x.unpack(&mut seq, nbr, q, &payload);
        x.unpack(&mut par, nbr, q, &payload);
        assert_eq!(seq.dats, par.dats);
    }
}
