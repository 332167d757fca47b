//! MG-CFD application assembly: meshes, dats, loops, chains.

use crate::kernels;
use op2_core::{
    AccessMode, Arg, ChainSpec, DatId, Domain, GblDecl, LoopSpec, MapId, Result,
};
use op2_mesh::hex3d::{Hex3D, Hex3DIds, Hex3DParams};
use op2_mesh::multigrid::{coarsen, mg_node_map};

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct MgCfdParams {
    /// Finest grid dimensions.
    pub finest: Hex3DParams,
    /// Multigrid levels (1 = no multigrid).
    pub levels: usize,
    /// Synthetic loop-chain repetitions (§4.1.1): the chain holds
    /// `2 * nchains` loops.
    pub nchains: usize,
}

impl MgCfdParams {
    /// A small test/demo configuration.
    pub fn small(n: usize) -> Self {
        MgCfdParams {
            finest: Hex3DParams::cube(n),
            levels: 2,
            nchains: 2,
        }
    }
}

/// Per-level mesh ids and flow dats.
#[derive(Debug, Clone, Copy)]
pub struct LevelData {
    /// Mesh sets/maps of this level.
    pub ids: Hex3DIds,
    /// Conserved variables (dim 5).
    pub q: DatId,
    /// Local pseudo time step (dim 1).
    pub adt: DatId,
    /// Flux accumulator / residual (dim 5).
    pub flux: DatId,
}

/// One step of the application program: a plain loop or a CA chain.
#[derive(Debug, Clone)]
pub enum Step {
    /// Execute as a standard OP2 loop (Alg 1 when distributed).
    Loop(LoopSpec),
    /// Execute as a CA loop-chain (Alg 2 when distributed; flattened to
    /// loops for the OP2 baseline).
    Chain(ChainSpec),
}

/// The assembled application.
pub struct MgCfd {
    /// The combined multigrid domain.
    pub dom: Domain,
    /// Levels, finest first.
    pub levels: Vec<LevelData>,
    /// Fine→coarse node maps, `mg[i]`: level `i` → level `i+1`.
    pub mg: Vec<MapId>,
    /// Synthetic chain dats on the finest nodes (all dim 2).
    pub dres: DatId,
    /// See [`MgCfd::dres`].
    pub dpres: DatId,
    /// See [`MgCfd::dres`].
    pub dflux: DatId,
    /// Construction parameters.
    pub params: MgCfdParams,
}

impl MgCfd {
    /// Generate meshes and declare every dat.
    pub fn new(params: MgCfdParams) -> Self {
        assert!(params.levels >= 1);
        assert!(params.nchains >= 1);
        let mut dom = Domain::new();
        let mut levels = Vec::with_capacity(params.levels);
        let mut p = params.finest;
        let mut grid_params = Vec::with_capacity(params.levels);
        for l in 0..params.levels {
            let suffix = if l == 0 { String::new() } else { format!("_l{l}") };
            let ids = Hex3D::generate_level(&mut dom, p, &suffix);
            let q = dom.decl_dat_zeros(&format!("q{suffix}"), ids.nodes, kernels::NVAR);
            let adt = dom.decl_dat_zeros(&format!("adt{suffix}"), ids.nodes, 1);
            let flux = dom.decl_dat_zeros(&format!("flux{suffix}"), ids.nodes, kernels::NVAR);
            levels.push(LevelData { ids, q, adt, flux });
            grid_params.push(p);
            p = coarsen(p);
        }
        let mut mg = Vec::with_capacity(params.levels.saturating_sub(1));
        for l in 0..params.levels - 1 {
            mg.push(mg_node_map(
                &mut dom,
                &format!("mg_{l}_{}", l + 1),
                grid_params[l],
                levels[l].ids.nodes,
                levels[l + 1].ids.nodes,
            ));
        }
        let fine_nodes = levels[0].ids.nodes;
        let dres = dom.decl_dat_zeros("dres", fine_nodes, 2);
        let dpres = dom.decl_dat_zeros("dpres", fine_nodes, 2);
        let dflux = dom.decl_dat_zeros("dflux", fine_nodes, 2);
        MgCfd {
            dom,
            levels,
            mg,
            dres,
            dpres,
            dflux,
            params,
        }
    }

    /// `init_state` over a level's nodes.
    pub fn init_loop(&self, level: usize) -> LoopSpec {
        let l = &self.levels[level];
        LoopSpec::new(
            &format!("init_state_l{level}"),
            l.ids.nodes,
            vec![
                Arg::dat_direct(l.q, AccessMode::Write),
                Arg::dat_direct(l.ids.coords, AccessMode::Read),
            ],
            kernels::init_state,
        )
    }

    /// `compute_step_factor` over a level's nodes.
    pub fn step_factor_loop(&self, level: usize) -> LoopSpec {
        let l = &self.levels[level];
        LoopSpec::new(
            &format!("compute_step_factor_l{level}"),
            l.ids.nodes,
            vec![
                Arg::dat_direct(l.q, AccessMode::Read),
                Arg::dat_direct(l.adt, AccessMode::Write),
            ],
            kernels::compute_step_factor,
        )
    }

    /// `compute_flux_edge` over a level's edges — the hot loop.
    pub fn flux_loop(&self, level: usize) -> LoopSpec {
        let l = &self.levels[level];
        LoopSpec::new(
            &format!("compute_flux_edge_l{level}"),
            l.ids.edges,
            vec![
                Arg::dat_indirect(l.q, l.ids.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(l.q, l.ids.e2n, 1, AccessMode::Read),
                Arg::dat_indirect(l.flux, l.ids.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(l.flux, l.ids.e2n, 1, AccessMode::Inc),
            ],
            kernels::compute_flux_edge,
        )
    }

    /// `boundary_flux` over a level's boundary elements.
    pub fn boundary_loop(&self, level: usize) -> LoopSpec {
        let l = &self.levels[level];
        LoopSpec::new(
            &format!("boundary_flux_l{level}"),
            l.ids.bnodes,
            vec![
                Arg::dat_indirect(l.q, l.ids.b2n, 0, AccessMode::Read),
                Arg::dat_indirect(l.flux, l.ids.b2n, 0, AccessMode::Inc),
            ],
            kernels::boundary_flux,
        )
    }

    /// `time_step` over a level's nodes.
    pub fn time_step_loop(&self, level: usize) -> LoopSpec {
        let l = &self.levels[level];
        LoopSpec::new(
            &format!("time_step_l{level}"),
            l.ids.nodes,
            vec![
                Arg::dat_direct(l.q, AccessMode::Rw),
                Arg::dat_direct(l.adt, AccessMode::Read),
                Arg::dat_direct(l.flux, AccessMode::Rw),
            ],
            kernels::time_step,
        )
    }

    /// `restrict` residuals from `level` to `level + 1`.
    pub fn restrict_loop(&self, level: usize) -> LoopSpec {
        let fine = &self.levels[level];
        let coarse = &self.levels[level + 1];
        LoopSpec::new(
            &format!("restrict_l{level}"),
            fine.ids.nodes,
            vec![
                Arg::dat_direct(fine.flux, AccessMode::Read),
                Arg::dat_indirect(coarse.flux, self.mg[level], 0, AccessMode::Inc),
            ],
            kernels::restrict,
        )
    }

    /// `prolong` corrections from `level + 1` back to `level`.
    pub fn prolong_loop(&self, level: usize) -> LoopSpec {
        let fine = &self.levels[level];
        let coarse = &self.levels[level + 1];
        LoopSpec::new(
            &format!("prolong_l{level}"),
            fine.ids.nodes,
            vec![
                Arg::dat_direct(fine.q, AccessMode::Rw),
                Arg::dat_indirect(coarse.q, self.mg[level], 0, AccessMode::Read),
            ],
            kernels::prolong,
        )
    }

    /// `rms_flow` over the finest nodes — a global reduction over the
    /// flow state (the residual dat is consumed by `time_step`, so the
    /// convergence monitor reads `q`, like MG-CFD's solution norm).
    pub fn rms_loop(&self) -> LoopSpec {
        let l = &self.levels[0];
        LoopSpec::with_gbls(
            "rms_flow",
            l.ids.nodes,
            vec![
                Arg::dat_direct(l.q, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::reduction(1)],
            kernels::rms_residual,
        )
    }

    /// `calc_dt_min` over the finest nodes — a global MIN reduction
    /// (the stable time-step bound; OP2's `OP_MIN`).
    pub fn dt_min_loop(&self) -> LoopSpec {
        let l = &self.levels[0];
        LoopSpec::with_gbls(
            "calc_dt_min",
            l.ids.nodes,
            vec![
                Arg::dat_direct(l.adt, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::min_reduction(1)],
            kernels::calc_dt_min,
        )
    }

    /// The synthetic `update` loop (§4.1.1): INC `dres`, READ `dpres`.
    pub fn update_loop(&self) -> LoopSpec {
        let ids = &self.levels[0].ids;
        LoopSpec::new(
            "update",
            ids.edges,
            vec![
                Arg::dat_indirect(self.dres, ids.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(self.dres, ids.e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(self.dpres, ids.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.dpres, ids.e2n, 1, AccessMode::Read),
            ],
            kernels::update,
        )
    }

    /// The synthetic `edge_flux` loop (§4.1.1): READ `dres`, INC
    /// `dflux` — a structural replica of `compute_flux_edge`.
    pub fn edge_flux_loop(&self) -> LoopSpec {
        let ids = &self.levels[0].ids;
        LoopSpec::new(
            "edge_flux",
            ids.edges,
            vec![
                Arg::dat_indirect(self.dres, ids.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.dres, ids.e2n, 1, AccessMode::Read),
                Arg::dat_indirect(self.dflux, ids.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(self.dflux, ids.e2n, 1, AccessMode::Inc),
            ],
            kernels::edge_flux,
        )
    }

    /// Refresh `dpres` from the flow state each outer iteration (direct
    /// write) — keeps it dirty so every chain execution genuinely
    /// exchanges two dats, the configuration §4.1.2 studies.
    pub fn write_pres_loop(&self) -> LoopSpec {
        let l = &self.levels[0];
        LoopSpec::new(
            "write_pres",
            l.ids.nodes,
            vec![
                Arg::dat_direct(self.dpres, AccessMode::Write),
                Arg::dat_direct(l.q, AccessMode::Read),
            ],
            kernels::write_pres,
        )
    }

    /// The synthetic chain: `[update, edge_flux] × nchains` as one
    /// loop-chain. Its halo extents alternate `[2, 1, 2, 1, …]`, so
    /// `r = 2` regardless of length — exactly the paper's setup.
    pub fn synthetic_chain(&self) -> Result<ChainSpec> {
        self.synthetic_chain_n(self.params.nchains)
    }

    /// The synthetic chain with an explicit repetition count (used by
    /// the benchmark harness to sweep loop counts over one mesh).
    pub fn synthetic_chain_n(&self, nchains: usize) -> Result<ChainSpec> {
        assert!(nchains >= 1);
        let mut loops = Vec::with_capacity(2 * nchains);
        for _ in 0..nchains {
            loops.push(self.update_loop());
            loops.push(self.edge_flux_loop());
        }
        ChainSpec::new("synthetic", loops, None, &[])
    }

    /// One time-marching iteration of the full program: the solver's
    /// V-cycle with the pressure refresh, then the synthetic chain. With
    /// `ca = true` the iteration runs as two CA chains, cut at the
    /// coarsest residual: `vdown` (the fine-level residual, then
    /// restriction and the flux of each coarser level; extents
    /// [1, 2, 2, 1, 1] at 2 levels) and `vup` (the coarse updates and
    /// prolongation back up, the fine `time_step`, `write_pres`, then
    /// the synthetic `[update, edge_flux] × nchains`; extents
    /// [2, 2, 2, 2, 2, 2, 1, 2, 1, …] at 2 levels). After the first
    /// iteration `vdown` finds everything it reads still valid from the
    /// previous `vup`, so each iteration exchanges once, at `vup`'s
    /// start. That break is a measured choice (EXPERIMENTS.md): of the
    /// two whole-iteration splits that fit depth-2 layouts it imports
    /// the fewer dats, and the two tie on time. With `ca = false` the
    /// same loops run flattened, in the same order (the OP2 baseline and
    /// the sequential reference).
    pub fn iteration(&self, ca: bool) -> Vec<Step> {
        let levels = self.params.levels;
        let mut program = vec![self.step_factor_loop(0), self.flux_loop(0), self.boundary_loop(0)];
        // V-cycle down, to the coarsest residual.
        for l in 0..levels - 1 {
            program.push(self.restrict_loop(l));
            program.push(self.flux_loop(l + 1));
        }
        let descent = program.len();
        // Coarse updates + prolongation back up.
        for l in (0..levels - 1).rev() {
            program.push(self.step_factor_loop(l + 1));
            program.push(self.time_step_loop(l + 1));
            program.push(self.prolong_loop(l));
        }
        program.push(self.time_step_loop(0));
        program.push(self.write_pres_loop());
        program.extend(self.synthetic_chain().expect("synthetic chain is valid").loops);
        if !ca {
            return program.into_iter().map(Step::Loop).collect();
        }
        let vup = program.split_off(descent);
        let chain = |name, loops| ChainSpec::new(name, loops, None, &[]).expect("MG-CFD chain is valid");
        vec![Step::Chain(chain("vdown", program)), Step::Chain(chain("vup", vup))]
    }

    /// Deepest halo layer any chain of [`MgCfd::iteration`] needs — the
    /// layout build depth: 2 for `levels ≤ 2`, `levels` beyond.
    pub fn required_depth(&self) -> usize {
        self.iteration(true)
            .iter()
            .map(|s| match s {
                Step::Chain(c) => c.max_halo_layers(),
                Step::Loop(_) => 1,
            })
            .max()
            .unwrap_or(1)
    }

    /// Validate every loop of one iteration against the domain.
    pub fn validate(&self) -> Result<()> {
        for step in self.iteration(false) {
            match step {
                Step::Loop(l) => l.validate(&self.dom)?,
                Step::Chain(c) => {
                    for l in &c.loops {
                        l.validate(&self.dom)?;
                    }
                }
            }
        }
        self.init_loop(0).validate(&self.dom)?;
        self.rms_loop().validate(&self.dom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        let app = MgCfd::new(MgCfdParams::small(6));
        app.validate().unwrap();
        assert_eq!(app.levels.len(), 2);
        assert_eq!(app.mg.len(), 1);
        // Coarse level is 3³ + clamps.
        assert!(app.dom.set(app.levels[1].ids.nodes).size < app.dom.set(app.levels[0].ids.nodes).size);
    }

    #[test]
    fn synthetic_chain_extents_alternate() {
        let mut p = MgCfdParams::small(5);
        p.nchains = 4;
        let app = MgCfd::new(p);
        let chain = app.synthetic_chain().unwrap();
        assert_eq!(chain.len(), 8);
        assert_eq!(chain.halo_ext, vec![2, 1, 2, 1, 2, 1, 2, 1]);
        assert_eq!(chain.max_halo_layers(), 2);
    }

    #[test]
    fn chain_imports_two_dats_constant_in_length() {
        // The grouped import is {dpres: 2, dres: 1} for any nchains —
        // the paper's "op_dats exchanged remains constant at 2".
        for nchains in [1, 4, 16] {
            let mut p = MgCfdParams::small(5);
            p.nchains = nchains;
            let app = MgCfd::new(p);
            let chain = app.synthetic_chain().unwrap();
            let sigs = chain.sigs();
            let imports =
                op2_core::chain::import_depths(&sigs, &chain.halo_ext, &|_| 0usize);
            let mut named: Vec<(String, usize)> = imports
                .into_iter()
                .map(|(d, t)| (app.dom.dat(d).name.clone(), t))
                .collect();
            named.sort();
            assert_eq!(
                named,
                vec![("dpres".to_string(), 2), ("dres".to_string(), 1)],
                "nchains = {nchains}"
            );
        }
    }

    #[test]
    fn dt_min_reduction_positive_and_minimal() {
        let mut app = MgCfd::new(MgCfdParams::small(5));
        let init = app.init_loop(0);
        let sf = app.step_factor_loop(0);
        let dt = app.dt_min_loop();
        dt.validate(&app.dom).unwrap();
        op2_core::seq::run_loop(&mut app.dom, &init);
        op2_core::seq::run_loop(&mut app.dom, &sf);
        let r = op2_core::seq::run_loop(&mut app.dom, &dt);
        let got = r.gbls[0][0];
        let expect = app
            .dom
            .dat(app.levels[0].adt)
            .data
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(got, expect);
        assert!(got.is_finite() && got > 0.0);
    }

    #[test]
    fn iteration_program_shape() {
        let app = MgCfd::new(MgCfdParams::small(5));
        let op2 = app.iteration(false);
        let ca = app.iteration(true);
        assert!(op2.iter().all(|s| matches!(s, Step::Loop(_))));
        let chains: Vec<&ChainSpec> = ca
            .iter()
            .map(|s| match s {
                Step::Chain(c) => c,
                Step::Loop(l) => panic!("standalone loop `{}` in the CA program", l.name),
            })
            .collect();
        let names: Vec<&str> = chains.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["vdown", "vup"]);
        assert_eq!(chains[0].halo_ext, vec![1, 2, 2, 1, 1]);
        assert_eq!(chains[1].halo_ext, vec![2, 2, 2, 2, 2, 2, 1, 2, 1]);
        // `vup` ends with the synthetic chain, loop for loop.
        let synthetic = app.synthetic_chain().unwrap();
        let tail = &chains[1].loops[chains[1].len() - synthetic.len()..];
        assert!(tail.iter().zip(&synthetic.loops).all(|(a, b)| a.name == b.name));
        // The chains cover the flattened program, loop for loop, in order.
        let flat: Vec<&str> = op2
            .iter()
            .map(|s| match s {
                Step::Loop(l) => l.name.as_str(),
                Step::Chain(_) => unreachable!(),
            })
            .collect();
        let chained: Vec<&str> =
            chains.iter().flat_map(|c| c.loops.iter().map(|l| l.name.as_str())).collect();
        assert_eq!(flat, chained);
        assert_eq!(flat.len(), 10 + 2 * app.params.nchains);
    }

    /// The benchmark builds MG-CFD layouts at a literal depth of 2 (its
    /// workloads use 2 levels): every chain must fit the depth
    /// `required_depth` reports, whatever the synthetic chain's length.
    #[test]
    fn required_depth_by_levels() {
        for (levels, depth) in [(1, 2), (2, 2), (3, 3)] {
            for nchains in [1, 4, 8] {
                let mut p = MgCfdParams::small(9);
                p.levels = levels;
                p.nchains = nchains;
                let app = MgCfd::new(p);
                assert_eq!(app.required_depth(), depth, "levels = {levels}, nchains = {nchains}");
                for step in app.iteration(true) {
                    let Step::Chain(c) = step else { panic!("standalone loop in the CA program") };
                    assert!(
                        c.max_halo_layers() <= depth,
                        "levels = {levels}, nchains = {nchains}: `{}` needs {} > {depth}",
                        c.name,
                        c.max_halo_layers()
                    );
                }
            }
        }
    }
}
