//! Loop-chain abstraction and the halo-layer dependency analysis.
//!
//! A *loop-chain* (§2.2 of the paper) is an ordered sequence of parallel
//! loops with no global synchronisation point in between. The CA back-end
//! moves all halo exchanges to the start of the chain; in exchange, each
//! loop must redundantly compute over extra halo layers so that later
//! loops' reads are satisfied. [`calc_halo_layers`] is the paper's
//! Algorithm 3: it walks the chain backwards, accumulating how many layers
//! of halo each loop must execute for each dat, then takes the per-loop
//! maximum.

use crate::access::AccessMode;
use crate::domain::DatId;
use crate::error::{CoreError, Result};
use crate::loops::{LoopSig, LoopSpec};

/// A named, validated loop-chain: the loops (in program order), the
/// result of the halo-layer analysis and the chain's execution mode.
#[derive(Debug, Clone)]
pub struct ChainSpec {
    /// Chain name (matches the configuration file).
    pub name: String,
    /// Constituent loops in program order.
    pub loops: Vec<LoopSpec>,
    /// Per-loop effective halo extension (`HE_l`), in program order.
    pub halo_ext: Vec<usize>,
    /// Relaxed (the paper's) mode: the extents are pinned by a
    /// configuration, reads beyond in-chain validity take the pre-chain
    /// values of the grouped import and are counted, not refused. Strict
    /// (`false`, what [`ChainSpec::new`] builds) refuses any such read.
    pub relaxed: bool,
}

/// One instruction of a program: a standalone loop (Alg 1) or a
/// loop-chain (Alg 2, strict or relaxed as the chain says).
#[derive(Debug, Clone)]
pub enum Step {
    /// A standard OP2 loop.
    Loop(LoopSpec),
    /// A communication-avoiding loop-chain.
    Chain(ChainSpec),
}

impl Step {
    /// The loops this step executes, in program order.
    pub fn loops(&self) -> &[LoopSpec] {
        match self {
            Step::Loop(l) => std::slice::from_ref(l),
            Step::Chain(c) => &c.loops,
        }
    }
}

impl ChainSpec {
    /// Build a chain from loops, running Algorithm 3 to compute halo
    /// extensions. `max_halo`, when given, caps every `HE_l` (the paper's
    /// configuration file carries a "maximum halo extension" per chain).
    /// `overrides` pins specific loops' extensions (by position), which the
    /// paper's config file also permits.
    pub fn new(
        name: &str,
        loops: Vec<LoopSpec>,
        max_halo: Option<usize>,
        overrides: &[(usize, usize)],
    ) -> Result<Self> {
        if loops.is_empty() {
            return Err(CoreError::InvalidChain("empty chain".into()));
        }
        if let Some(l) = loops.iter().find(|l| l.has_reduction()) {
            return Err(CoreError::InvalidChain(format!(
                "loop `{}` performs a global reduction, a synchronisation point",
                l.name
            )));
        }
        let sigs: Vec<LoopSig> = loops.iter().map(|l| l.sig()).collect();
        // Executors need the dependency-correct transitive extents; the
        // literal Algorithm 3 result stays available via
        // [`calc_halo_layers`] for paper-table reproduction.
        let mut halo_ext = calc_halo_extents(&sigs);
        if let Some(cap) = max_halo {
            for he in &mut halo_ext {
                *he = (*he).min(cap);
            }
        }
        for &(pos, he) in overrides {
            if pos >= halo_ext.len() {
                return Err(CoreError::InvalidChain(format!(
                    "override position {pos} out of range for {}-loop chain",
                    halo_ext.len()
                )));
            }
            halo_ext[pos] = he;
        }
        Ok(ChainSpec {
            name: name.to_string(),
            loops,
            halo_ext,
            relaxed: false,
        })
    }

    /// Number of loops (`n` in the paper).
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True for a zero-loop chain (never constructable through `new`).
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Maximum halo extension over the chain — the `r ≤ n` of Eq 3/4: how
    /// many layers must be imported at the start of the chain.
    pub fn max_halo_layers(&self) -> usize {
        self.halo_ext.iter().copied().max().unwrap_or(1)
    }

    /// Loop signatures, in program order.
    pub fn sigs(&self) -> Vec<LoopSig> {
        self.loops.iter().map(|l| l.sig()).collect()
    }

    /// A human-readable execution plan — the analogue of OP2's generated
    /// (and deliberately readable, §3.4) chain code: per loop, the halo
    /// extent, latency-hiding core depth and access summary, plus the
    /// grouped-import plan assuming every dat enters dirty.
    pub fn describe(&self, dom: &crate::Domain) -> String {
        use std::fmt::Write;
        let sigs = self.sigs();
        let cores = core_depths(&sigs);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chain `{}`: {} loops, r = {} halo layers",
            self.name,
            self.len(),
            self.max_halo_layers()
        );
        for (pos, sig) in sigs.iter().enumerate() {
            let accesses: Vec<String> = sig
                .dats()
                .iter()
                .filter_map(|&d| {
                    sig.access_of(d).map(|(mode, ind)| {
                        format!(
                            "{}{}:{}",
                            dom.dat(d).name,
                            if ind { "*" } else { "" },
                            mode.label()
                        )
                    })
                })
                .collect();
            let _ = writeln!(
                out,
                "  [{pos}] {:<18} over {:<8} ext={} core_depth={}  {}",
                sig.name,
                dom.set(sig.set).name,
                self.halo_ext[pos],
                cores[pos],
                accesses.join(" ")
            );
        }
        let imports = import_depths(&sigs, &self.halo_ext, &|_| 0).import;
        let _ = writeln!(
            out,
            "  grouped import (all-dirty entry): {}",
            imports
                .iter()
                .map(|&(d, t)| format!("{}@{t}", dom.dat(d).name))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out
    }
}

/// Output of [`calc_halo_layers`] (Algorithm 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloLayers {
    /// Distinct dats considered, in first-appearance order.
    pub dats: Vec<DatId>,
    /// `per_dat[l][k]` = halo extension required by loop `l` (program
    /// order) for dat `dats[k]`.
    pub per_dat: Vec<Vec<usize>>,
    /// `per_loop[l]` = `HE_l` = max over dats (at least 1).
    pub per_loop: Vec<usize>,
}

/// Algorithm 3 of the paper, implemented literally.
///
/// Walks loops from last (`n-1`) to first (`0`). For each dat it tracks
/// `halo_ext` (layers demanded by later loops' indirect reads) and
/// `ind_rd` (is the most recent relevant access an indirect read?). The
/// three branches, in the paper's order:
///
/// 1. `ind_rd` ∧ mode ∈ {WRITE, INC, RW} → this loop must produce
///    `halo_ext + 1` layers; reset.
/// 2. indirect ∧ mode ∈ {READ, RW} → one more layer demanded from earlier
///    producers; `ind_rd := true`.
/// 3. direct ∧ mode ∈ {READ, RW} → a direct read needs only the standard
///    single layer; reset.
///
/// Note (also recorded in DESIGN.md): applied to Table 3's `weight` chain
/// this literal transcription reproduces 4 of the 5 published `HE_l`
/// values; the `centreline` WRITE loop computes 1 where the paper's table
/// lists 2. The paper's configuration file can override per-loop
/// extensions, which [`ChainSpec::new`] supports.
pub fn calc_halo_layers(sigs: &[LoopSig]) -> HaloLayers {
    let n = sigs.len();
    // Distinct dats in first-appearance order.
    let mut dats: Vec<DatId> = Vec::new();
    for s in sigs {
        for d in s.dats() {
            if !dats.contains(&d) {
                dats.push(d);
            }
        }
    }
    let mut per_dat = vec![vec![1usize; dats.len()]; n];

    for (k, &dat) in dats.iter().enumerate() {
        let mut halo_ext = 0usize;
        let mut ind_rd = false;
        for l in (0..n).rev() {
            per_dat[l][k] = 1;
            let Some((mode, indirect)) = sigs[l].access_of(dat) else {
                continue;
            };
            // Branch 1: a producer below a pending indirect read.
            if ind_rd
                && matches!(
                    mode,
                    AccessMode::Write | AccessMode::Inc | AccessMode::Rw
                )
            {
                per_dat[l][k] = halo_ext + 1;
                halo_ext = 0;
                ind_rd = false;
                continue;
            }
            // Branch 2: an indirect read demands one more layer.
            if indirect && matches!(mode, AccessMode::Read | AccessMode::Rw) {
                halo_ext += 1;
                per_dat[l][k] = halo_ext;
                ind_rd = true;
                continue;
            }
            // Branch 3: a direct read resets the demand.
            if !indirect && matches!(mode, AccessMode::Read | AccessMode::Rw) {
                per_dat[l][k] = 1;
                halo_ext = 0;
                ind_rd = false;
                continue;
            }
        }
    }

    let per_loop = (0..n)
        .map(|l| per_dat[l].iter().copied().max().unwrap_or(1).max(1))
        .collect();
    HaloLayers {
        dats,
        per_dat,
        per_loop,
    }
}

/// Transitive halo-extent analysis — the dependency-correct variant the
/// executors use.
///
/// The paper's prose (§3.1) states the requirement directly: in a chain
/// where each loop updates a dat the next loop reads, "to compute I
/// iterations of the last loop, the loops L_{n-1}, …, L_0 should be
/// iterating over I plus halo depths of 1, 2, …, n respectively". The
/// printed Algorithm 3 tracks each dat *independently* and therefore does
/// not propagate depth through such ladders (it yields 2 for every
/// producer). This function computes the fixpoint the prose demands:
///
/// * `E[n-1] = 1` baseline; every loop executes at least one halo layer
///   (owner-compute needs ring 1 for indirect increments, exactly
///   standard OP2's import-execute halo);
/// * if loop `m` reads dat `d` *indirectly* at depth `E[m]`, the latest
///   preceding modifier `l` of `d` must produce `d` valid to depth `E[m]`,
///   i.e. `E[l] ≥ E[m] + 1` when `l` modifies `d` indirectly (ring
///   `E[l]` holds partial sums, so validity is `E[l] − 1`), or
///   `E[l] ≥ E[m]` when `l` writes `d` directly;
/// * a *direct* read by `m` demands validity `E[m]` likewise.
///
/// Iterating backwards once suffices because demands only flow from later
/// to earlier loops.
pub fn calc_halo_extents(sigs: &[LoopSig]) -> Vec<usize> {
    let n = sigs.len();
    let mut ext = vec![1usize; n];
    // For each loop (reverse order), record the validity depth demanded of
    // each dat by this loop and later ones.
    let mut demand: Vec<(DatId, usize)> = Vec::new();
    let demand_of = |demand: &[(DatId, usize)], d: DatId| {
        demand
            .iter()
            .rev()
            .find(|(x, _)| *x == d)
            .map(|(_, v)| *v)
    };
    let set_demand = |demand: &mut Vec<(DatId, usize)>, d: DatId, v: usize| {
        if let Some(entry) = demand.iter_mut().find(|(x, _)| *x == d) {
            entry.1 = v;
        } else {
            demand.push((d, v));
        }
    };

    for l in (0..n).rev() {
        // 1. This loop's execution depth must satisfy the strongest
        //    outstanding demand on any dat it modifies.
        let mut e = 1usize;
        for d in sigs[l].dats() {
            let Some((mode, indirect)) = sigs[l].access_of(d) else {
                continue;
            };
            if mode.modifies() {
                if let Some(v) = demand_of(&demand, d) {
                    // Indirect modification poisons its outermost ring.
                    let need = if indirect { v + 1 } else { v };
                    e = e.max(need);
                }
            }
        }
        ext[l] = e;
        // 2. Now that E[l] is fixed, this loop's own reads place demands
        //    on earlier producers; its modifications *satisfy* (clear)
        //    later demands.
        for d in sigs[l].dats() {
            let Some((mode, indirect)) = sigs[l].access_of(d) else {
                continue;
            };
            if mode.modifies() {
                // Earlier loops only need to satisfy *this* loop's reads
                // of d from now on.
                set_demand(&mut demand, d, 0);
            }
            if mode.reads() {
                // Reading at depth E[l]: indirect reads touch rings ≤ E[l]
                // of the data set; direct reads (and INC's
                // read-modify-write of prior values) need validity E[l]
                // too — but an indirect INC only *consumes* rings that end
                // up valid, demanding E[l] − 1 … conservatively we demand
                // the full E[l] for RW/Read and E[l] for Inc prior values.
                let need = if indirect && mode == AccessMode::Inc {
                    // Prior values on rings ≤ E[l] are incremented; ring
                    // E[l] becomes partial anyway, so correctness of the
                    // final valid region (≤ E[l]−1) needs priors ≤ E[l]−1.
                    ext[l].saturating_sub(1)
                } else {
                    ext[l]
                };
                let cur = demand_of(&demand, d).unwrap_or(0);
                set_demand(&mut demand, d, cur.max(need));
            }
        }
    }
    ext
}

/// Validity depth a loop at halo extent `ext` demands of a dat accessed
/// with (`mode`, `indirect`):
///
/// * indirect READ/RW from executed rings ≤ ext touches data rings up to
///   `max(ext, 1)` (even owned iterations read the ring-1 frontier);
/// * direct READ/RW touches exactly the executed rings;
/// * indirect INC consumes prior values only where the result must end
///   up correct, rings ≤ ext − 1;
/// * pure writes need no prior halo values.
pub fn read_requirement(mode: AccessMode, indirect: bool, ext: usize) -> usize {
    match (mode, indirect) {
        (AccessMode::Read | AccessMode::Rw, true) => ext.max(1),
        (AccessMode::Read | AccessMode::Rw, false) => ext,
        (AccessMode::Inc, true) => ext.saturating_sub(1),
        (AccessMode::Inc, false) => ext,
        (AccessMode::Write, _) => 0,
    }
}

/// Validity depth a loop at extent `ext` leaves behind on a dat it
/// modifies (`None` = unmodified): indirect modification poisons its
/// outermost executed ring with partial sums (`ext − 1`); a direct write
/// recomputes rings ≤ ext exactly as the owner does (`ext`).
pub fn produced_validity(mode: AccessMode, indirect: bool, ext: usize) -> Option<usize> {
    if !mode.modifies() {
        return None;
    }
    Some(if indirect {
        ext.saturating_sub(1)
    } else {
        ext
    })
}

/// One read a chain makes beyond what an earlier loop of the same chain
/// left valid: a config-pinned extent too small for the chain's
/// dependency depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleRead {
    /// Chain position of the reading loop.
    pub pos: usize,
    /// The dat read.
    pub dat: DatId,
    /// Halo depth the loop requires.
    pub need: u8,
    /// Halo depth valid at that point.
    pub have: u8,
}

/// What [`import_depths`] finds about a chain.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChainImport {
    /// `(dat, depth)` for every dat the grouped exchange at chain entry
    /// must deliver, in first-use order.
    pub import: Vec<(DatId, usize)>,
    /// Reads beyond in-chain validity, in loop order. Empty on
    /// consistent extents.
    pub stale: Vec<StaleRead>,
}

/// The grouped-import plan of a chain (the inspection side of Alg 2,
/// lines 1–3), from one forward walk of its validity.
///
/// `import` holds, per dat, the depth the initial grouped exchange must
/// deliver given each dat's validity at chain entry: every dat whose
/// entry validity falls short of its first-use requirement. Where a
/// later read requires more than an earlier in-chain modification
/// produced (an extent pinned too low), the import is deepened to cover
/// it and the read is recorded in `stale`. The deep rings then hold
/// *pre-chain* values: exactly the paper's "all communications at the
/// start of the loop-chain" semantics, which tolerates bounded staleness
/// on boundary-subset loops (§2.2's order-independence assumption; the
/// Hydra chains of Tables 3–4 are configured this way). A strict
/// executor refuses a chain with any stale read; a relaxed one counts
/// them.
pub fn import_depths(
    sigs: &[LoopSig],
    extents: &[usize],
    entry_validity: &dyn Fn(DatId) -> usize,
) -> ChainImport {
    assert_eq!(sigs.len(), extents.len());
    let mut out = ChainImport::default();
    // Validity an in-chain modification left behind; a dat absent here
    // is untouched since entry, so its reads are satisfied by import.
    let mut known: Vec<(DatId, usize)> = Vec::new();

    for (pos, (sig, &ext)) in sigs.iter().zip(extents).enumerate() {
        for d in sig.dats() {
            let Some((mode, indirect)) = sig.access_of(d) else {
                continue;
            };
            let req = read_requirement(mode, indirect, ext);
            let covered = match known.iter().find(|(x, _)| *x == d) {
                Some(&(_, v)) if v < req => {
                    out.stale.push(StaleRead {
                        pos,
                        dat: d,
                        need: req as u8,
                        have: v as u8,
                    });
                    false
                }
                Some(_) => true,
                None => req == 0,
            };
            if !covered {
                match out.import.iter_mut().find(|(x, _)| *x == d) {
                    Some(entry) => entry.1 = entry.1.max(req),
                    None => out.import.push((d, req)),
                }
            }
            if let Some(v) = produced_validity(mode, indirect, ext) {
                match known.iter_mut().find(|(x, _)| *x == d) {
                    Some(entry) => entry.1 = v,
                    None => known.push((d, v)),
                }
            }
        }
    }
    out.import.retain(|&(d, t)| t > entry_validity(d));
    out
}

/// Latency-hiding core depths per loop of a chain.
///
/// During Alg 2's overlap phase, loop `l` may execute, before the
/// grouped exchange completes, exactly the owned elements whose
/// touched-data region is ordered consistently with every other loop it
/// conflicts with. Alg 2 runs *all* prewait cores first, then every
/// postwait halo region in loop order — so a later loop's prewait core
/// effectively executes *before* an earlier loop's postwait boundary.
/// That reordering is only legal where the two loops' touched regions
/// are disjoint or their accesses commute:
///
/// * two loops that only **read** a shared dat never conflict;
/// * two loops that only **increment** a shared dat commute (the
///   paper's §2.2 order-independence assumption) and never conflict;
/// * every other sharing (read–write, write–read, write–write in any
///   direction) orders loop `B` after loop `A`: `B`'s prewait core must
///   sit strictly inside the region `A`'s postwait phase can touch.
///   `A` at core depth `c` touches the shared dat up to inner depth
///   `c` when its access is *indirect* (its boundary elements reach one
///   map-hop further in) and up to `c − 1` when *direct* — hence
///   `depth(B) ≥ depth(A) + 1` (indirect) or `≥ depth(A)` (direct).
///
/// The executor runs loop `l`'s prewait core over owned elements with
/// inner depth ≥ `core_depths[l]`. The depths are driven by conflict
/// structure, not chain position: for the paper's `vflux` chain
/// (`initres` writes `vres` *directly*; `vflux_edge` reads only
/// chain-external dats) every depth is 1 and the CA cores equal the OP2
/// cores, exactly as Table 5 reports.
pub fn core_depths(sigs: &[LoopSig]) -> Vec<usize> {
    let n = sigs.len();
    let mut depth = vec![1usize; n];
    for l in 0..n {
        let mut d_l = 1usize;
        for d in sigs[l].dats() {
            let Some((mode_b, _)) = sigs[l].access_of(d) else {
                continue;
            };
            for a in 0..l {
                let Some((mode_a, indirect_a)) = sigs[a].access_of(d) else {
                    continue;
                };
                let both_read = !mode_a.modifies() && !mode_b.modifies();
                let both_inc = mode_a == AccessMode::Inc && mode_b == AccessMode::Inc;
                if both_read || both_inc {
                    continue;
                }
                d_l = d_l.max(depth[a] + usize::from(indirect_a));
            }
        }
        depth[l] = d_l;
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Arg;
    use crate::domain::{DatId, MapId, SetId};

    fn sig(name: &str, set: u32, args: Vec<Arg>) -> LoopSig {
        LoopSig {
            name: name.into(),
            set: SetId(set),
            args,
        }
    }

    const EDGES: u32 = 0;
    fn e2n() -> MapId {
        MapId(0)
    }
    fn dres() -> DatId {
        DatId(0)
    }
    fn dpres() -> DatId {
        DatId(1)
    }
    fn dflux() -> DatId {
        DatId(2)
    }

    /// The paper's Figure 3 chain: update (INC res, READ pres) then
    /// edge_flux (READ res, INC flux). The producer loop needs 2 layers,
    /// the consumer 1 (Fig 7).
    #[test]
    fn two_loop_chain_depths() {
        let update = sig(
            "update",
            EDGES,
            vec![
                Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Inc),
                Arg::dat_indirect(dres(), e2n(), 1, AccessMode::Inc),
                Arg::dat_indirect(dpres(), e2n(), 0, AccessMode::Read),
                Arg::dat_indirect(dpres(), e2n(), 1, AccessMode::Read),
            ],
        );
        let edge_flux = sig(
            "edge_flux",
            EDGES,
            vec![
                Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Read),
                Arg::dat_indirect(dres(), e2n(), 1, AccessMode::Read),
                Arg::dat_indirect(dflux(), e2n(), 0, AccessMode::Inc),
                Arg::dat_indirect(dflux(), e2n(), 1, AccessMode::Inc),
            ],
        );
        let hl = calc_halo_layers(&[update, edge_flux]);
        assert_eq!(hl.per_loop, vec![2, 1]);
    }

    fn ladder(n: usize) -> Vec<LoopSig> {
        // loop i INCs dat i and READs dat i-1 (all indirect).
        (0..n)
            .map(|i| {
                let mut args = vec![Arg::dat_indirect(
                    DatId(i as u32),
                    e2n(),
                    0,
                    AccessMode::Inc,
                )];
                if i > 0 {
                    args.push(Arg::dat_indirect(
                        DatId(i as u32 - 1),
                        e2n(),
                        0,
                        AccessMode::Read,
                    ));
                }
                sig(&format!("l{i}"), EDGES, args)
            })
            .collect()
    }

    /// An n-loop produce/consume ladder requires transitive depths
    /// n, n-1, …, 1 (the §3.1 prose), which [`calc_halo_extents`]
    /// computes. The literal Algorithm 3 tracks dats independently and
    /// reports 2 for every producer — both behaviours are pinned here.
    #[test]
    fn ladder_chain_max_depth() {
        let sigs = ladder(5);
        assert_eq!(calc_halo_extents(&sigs), vec![5, 4, 3, 2, 1]);
        let hl = calc_halo_layers(&sigs);
        assert_eq!(hl.per_loop, vec![2, 2, 2, 2, 1]);
    }

    /// On a single producer/consumer pair the two analyses agree.
    #[test]
    fn extents_match_alg3_on_two_loop_chain() {
        let sigs = ladder(2);
        assert_eq!(calc_halo_extents(&sigs), vec![2, 1]);
        assert_eq!(calc_halo_layers(&sigs).per_loop, vec![2, 1]);
    }

    /// A direct write between producer and consumer absorbs the demand at
    /// the write's own depth (no +1 for direct modification).
    #[test]
    fn direct_write_absorbs_demand() {
        let produce = sig(
            "produce",
            1,
            vec![Arg::dat_direct(dres(), AccessMode::Write)],
        );
        let consume = sig(
            "consume",
            EDGES,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Read)],
        );
        assert_eq!(calc_halo_extents(&[produce, consume]), vec![1, 1]);
    }

    /// Independent loops (no shared dats) all keep the default depth 1.
    #[test]
    fn independent_loops_depth_one() {
        let sigs: Vec<LoopSig> = (0..4)
            .map(|i| {
                sig(
                    &format!("l{i}"),
                    EDGES,
                    vec![Arg::dat_indirect(DatId(i), e2n(), 0, AccessMode::Inc)],
                )
            })
            .collect();
        let hl = calc_halo_layers(&sigs);
        assert_eq!(hl.per_loop, vec![1, 1, 1, 1]);
    }

    /// A direct read between producer and indirect consumer does not
    /// deepen the producer (branch 3 resets the demand).
    #[test]
    fn direct_read_resets() {
        let produce = sig(
            "produce",
            EDGES,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Inc)],
        );
        let direct = sig("direct", 1, vec![Arg::dat_direct(dres(), AccessMode::Read)]);
        let hl = calc_halo_layers(&[produce, direct]);
        assert_eq!(hl.per_loop, vec![1, 1]);
    }

    /// vflux's shape: a direct-write producer then a consumer that only
    /// reads chain-external dats keeps every core at the standard
    /// depth 1 (the paper's Table 5 shows equal OP2/CA cores for it).
    #[test]
    fn core_depths_vflux_shape() {
        let initres = sig("initres", 1, vec![Arg::dat_direct(dres(), AccessMode::Write)]);
        let vflux_edge = sig(
            "vflux_edge",
            EDGES,
            vec![
                Arg::dat_indirect(dpres(), e2n(), 0, AccessMode::Read),
                Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Inc),
            ],
        );
        assert_eq!(core_depths(&[initres, vflux_edge]), vec![1, 1]);
    }

    /// Read-after-indirect-write deepens; INC-INC pairs commute and do
    /// not.
    #[test]
    fn core_depths_raw_and_commuting_incs() {
        let produce = sig(
            "produce",
            EDGES,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Inc)],
        );
        let consume = sig(
            "consume",
            EDGES,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Read)],
        );
        assert_eq!(core_depths(&[produce.clone(), consume]), vec![1, 2]);
        // Two INCs of the same dat commute: no deepening.
        assert_eq!(core_depths(&[produce.clone(), produce]), vec![1, 1]);
    }

    /// Write-after-read: a later writer's prewait core must clear the
    /// earlier reader's postwait reach (the jacob-chain hazard: the
    /// centreline write must not land before the periodic read).
    #[test]
    fn core_depths_war_hazard() {
        let reader = sig(
            "jac_period",
            EDGES,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Rw)],
        );
        let writer = sig(
            "jac_centreline",
            1,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Write)],
        );
        let corrections = sig(
            "jac_corrections",
            2,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Rw)],
        );
        assert_eq!(core_depths(&[reader, writer, corrections]), vec![1, 2, 3]);
    }

    /// `describe` renders the execution plan with extents, core depths
    /// and the grouped-import line.
    #[test]
    fn describe_renders_plan() {
        let mut dom = crate::Domain::new();
        let nodes = dom.decl_set("nodes", 3);
        let edges = dom.decl_set("edges", 2);
        let e2n = dom.decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2]).unwrap();
        let a = dom.decl_dat_zeros("a", nodes, 1);
        let b = dom.decl_dat_zeros("b", nodes, 1);
        fn k(_: &crate::Args<'_>) {}
        let produce = LoopSpec::new(
            "produce",
            edges,
            vec![Arg::dat_indirect(a, e2n, 0, AccessMode::Inc)],
            k,
        );
        let consume = LoopSpec::new(
            "consume",
            edges,
            vec![
                Arg::dat_indirect(a, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(b, e2n, 0, AccessMode::Inc),
            ],
            k,
        );
        let chain = ChainSpec::new("pc", vec![produce, consume], None, &[]).unwrap();
        let text = chain.describe(&dom);
        assert!(text.contains("chain `pc`: 2 loops, r = 2 halo layers"));
        assert!(text.contains("produce"));
        assert!(text.contains("ext=2"));
        assert!(text.contains("core_depth=2"));
        assert!(text.contains("a*:INC"));
        assert!(text.contains("grouped import"));
        assert!(text.contains("a@"));
    }

    /// Only dats dirty at entry are imported; a clean dat that an earlier
    /// loop modifies in-chain is covered by its redundant computation,
    /// not by the exchange.
    #[test]
    fn import_respects_dirty_bits() {
        let consume = sig(
            "consume",
            EDGES,
            vec![
                Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Read),
                Arg::dat_indirect(dpres(), e2n(), 0, AccessMode::Read),
            ],
        );
        // Only dres is dirty on entry: only it is imported.
        let entry = |d: DatId| if d == dres() { 0 } else { usize::MAX };
        let got = import_depths(std::slice::from_ref(&consume), &[1], &entry);
        assert_eq!(got.import, vec![(dres(), 1)]);
        assert!(got.stale.is_empty());
        let produce = sig(
            "produce",
            EDGES,
            vec![Arg::dat_indirect(dpres(), e2n(), 0, AccessMode::Inc)],
        );
        let sigs = [produce, consume];
        let got = import_depths(&sigs, &calc_halo_extents(&sigs), &entry);
        assert_eq!(got.import, vec![(dres(), 1)]);
        assert!(got.stale.is_empty());
    }

    /// An INC over a dirty dat reads its prior halo values, so the dat
    /// is imported to one ring short of the loop's extent.
    #[test]
    fn inc_of_dirty_dat_is_imported() {
        let inc = sig(
            "inc",
            EDGES,
            vec![Arg::dat_indirect(dres(), e2n(), 0, AccessMode::Inc)],
        );
        let sigs = std::slice::from_ref(&inc);
        assert_eq!(import_depths(sigs, &[2], &|_| 0).import, vec![(dres(), 1)]);
        assert!(import_depths(sigs, &[2], &|_| 1).import.is_empty());
        // At extent 1 an INC consumes no prior halo values at all.
        assert!(import_depths(sigs, &[1], &|_| 0).import.is_empty());
    }

    /// The one walk on an under-pinned chain: `produce` is pinned to
    /// extent 1 where `consume`'s read of `a` at extent 2 needs 3. The
    /// import is deepened to cover the read, and the read is reported
    /// stale exactly once.
    #[test]
    fn walk_deepens_import_and_reports_the_stale_read() {
        const NODES: u32 = 1;
        let (a, b, tmp, c) = (DatId(0), DatId(1), DatId(2), DatId(3));
        let inc = |d| Arg::dat_indirect(d, e2n(), 0, AccessMode::Inc);
        let sigs = [
            sig("produce", EDGES, vec![inc(a)]),
            sig(
                "consume",
                EDGES,
                vec![Arg::dat_indirect(a, e2n(), 0, AccessMode::Read), inc(b)],
            ),
            sig(
                "stage",
                NODES,
                vec![
                    Arg::dat_direct(b, AccessMode::Read),
                    Arg::dat_direct(tmp, AccessMode::Write),
                ],
            ),
            sig(
                "apply",
                NODES,
                vec![
                    Arg::dat_direct(tmp, AccessMode::Read),
                    Arg::dat_direct(c, AccessMode::Rw),
                ],
            ),
        ];
        assert_eq!(calc_halo_extents(&sigs), vec![3, 2, 1, 1]);
        let pinned = [1, 2, 1, 1];
        let got = import_depths(&sigs, &pinned, &|_| 0);
        assert_eq!(got.import, vec![(a, 2), (b, 1), (c, 1)]);
        assert_eq!(
            got.stale,
            vec![StaleRead {
                pos: 1,
                dat: a,
                need: 2,
                have: 0,
            }]
        );
        assert_eq!(sigs[got.stale[0].pos].name, "consume");
        // On the analysis' own extents nothing is stale: `produce`'s INC
        // at extent 3 consumes the same import of `a` itself.
        let got = import_depths(&sigs, &calc_halo_extents(&sigs), &|_| 0);
        assert!(got.stale.is_empty());
        assert_eq!(got.import, vec![(a, 2), (b, 1), (c, 1)]);
    }
}
