//! Hydra application assembly: the six benchmarked loop-chains over an
//! annular rotor-passage mesh. The application is a plain list of loops;
//! which of them form chains, and the halo extensions the paper pins
//! for each, come from its chain configuration file (§3.4,
//! `configs/hydra_chains.cfg`, embedded at build time).

use crate::kernels;
use op2_core::{
    parse_chain_config, AccessMode, Arg, ChainConfig, ChainSpec, CoreError, DatId, GblDecl,
    LoopSpec, Result,
};
use op2_mesh::{Annulus, AnnulusParams};

/// The chain configuration file: each chain's loops and pinned extents.
const CHAIN_CONFIG: &str = include_str!("../../../configs/hydra_chains.cfg");

/// Which halo extents the chains are built with (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtentMode {
    /// Transitive (provably consistent) extents: the chains run.
    Safe,
    /// The published Table 3–4 extents, pinned by the configuration
    /// file's `he`/`max_halo` lines. Kept as data: where a pin sits below
    /// what the chain's dependencies need (`weight`, `period`, `jacob`),
    /// the executor refuses the chain with a typed validity error.
    Paper,
}

/// Construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct HydraParams {
    /// Mesh dimensions.
    pub mesh: AnnulusParams,
}

impl HydraParams {
    /// A small test/demo passage.
    pub fn small(n: usize) -> Self {
        HydraParams {
            mesh: AnnulusParams::small(n, n, n),
        }
    }
}

/// One step of the program. It converts into the one program type,
/// [`op2_core::Step`].
#[derive(Debug, Clone)]
pub enum Step {
    /// A standard OP2 loop.
    Loop(LoopSpec),
    /// A CA chain. The `bool` is always `false`: no chain runs with
    /// reads beyond its in-chain validity.
    Chain(ChainSpec, bool),
}

impl From<Step> for op2_core::Step {
    fn from(s: Step) -> Self {
        match s {
            Step::Loop(l) => op2_core::Step::Loop(l),
            Step::Chain(c, b) => {
                debug_assert!(!b, "chain `{}`: a step flag set", c.name);
                op2_core::Step::Chain(c)
            }
        }
    }
}

/// The assembled application: mesh handles plus every dat.
pub struct Hydra {
    /// Mesh (owns the domain).
    pub mesh: Annulus,
    /// Boundary weights, dim 2 (the `weight`/`period` chains' target).
    pub qo: DatId,
    /// Nodal volumes, dim 1.
    pub vol: DatId,
    /// Primary state, dim 5.
    pub qp: DatId,
    /// Limited state, dim 5.
    pub ql: DatId,
    /// Turbulent viscosity, dim 1.
    pub qmu: DatId,
    /// Gradient magnitude, dim 1.
    pub qrg: DatId,
    /// Deformed coordinates, dim 3.
    pub xp: DatId,
    /// Viscous residual, dim 5.
    pub vres: DatId,
    /// Inviscid residual, dim 1.
    pub ires: DatId,
    /// Jacobian block, dim 4.
    pub jac: DatId,
    /// Jacobian correction block, dim 4.
    pub jaca: DatId,
    /// Parameters.
    pub params: HydraParams,
    /// The parsed chain configuration, one block per chain.
    chains: Vec<ChainConfig>,
}

impl Hydra {
    /// Generate the mesh and declare every dat.
    pub fn new(params: HydraParams) -> Self {
        let mut mesh = Annulus::generate(params.mesh);
        let nodes = mesh.nodes;
        let qo = mesh.dom.decl_dat_zeros("qo", nodes, 2);
        let vol = mesh.dom.decl_dat_zeros("vol", nodes, 1);
        let qp = mesh.dom.decl_dat_zeros("qp", nodes, 5);
        let ql = mesh.dom.decl_dat_zeros("ql", nodes, 5);
        let qmu = mesh.dom.decl_dat_zeros("qmu", nodes, 1);
        let qrg = mesh.dom.decl_dat_zeros("qrg", nodes, 1);
        let xp = mesh.dom.decl_dat_zeros("xp", nodes, 3);
        let vres = mesh.dom.decl_dat_zeros("vres", nodes, 5);
        let ires = mesh.dom.decl_dat_zeros("ires", nodes, 1);
        let jac = mesh.dom.decl_dat_zeros("jac", nodes, 4);
        let jaca = mesh.dom.decl_dat_zeros("jaca", nodes, 4);
        Hydra {
            mesh,
            qo,
            vol,
            qp,
            ql,
            qmu,
            qrg,
            xp,
            vres,
            ires,
            jac,
            jaca,
            params,
            chains: parse_chain_config(CHAIN_CONFIG).expect("the embedded chain config parses"),
        }
    }

    /// Initialise every field from the coordinates (direct writes).
    pub fn init_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "init_fields",
            self.mesh.nodes,
            vec![
                Arg::dat_direct(self.qo, AccessMode::Write),
                Arg::dat_direct(self.vol, AccessMode::Write),
                Arg::dat_direct(self.qp, AccessMode::Write),
                Arg::dat_direct(self.ql, AccessMode::Write),
                Arg::dat_direct(self.qmu, AccessMode::Write),
                Arg::dat_direct(self.qrg, AccessMode::Write),
                Arg::dat_direct(self.xp, AccessMode::Write),
                Arg::dat_direct(self.vres, AccessMode::Write),
                Arg::dat_direct(self.ires, AccessMode::Write),
                Arg::dat_direct(self.jac, AccessMode::Write),
                Arg::dat_direct(self.jaca, AccessMode::Write),
                Arg::dat_direct(self.mesh.coords, AccessMode::Read),
            ],
            kernels::init_fields,
        )
    }

    // ---- weight chain loops ----

    fn sumbwts_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "sumbwts",
            self.mesh.bnd,
            vec![
                Arg::dat_indirect(self.qo, self.mesh.bnd2n, 0, AccessMode::Inc),
                Arg::dat_indirect(self.mesh.coords, self.mesh.bnd2n, 0, AccessMode::Read),
            ],
            kernels::sumbwts,
        )
    }

    fn periodsym_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "periodsym",
            self.mesh.pedges,
            vec![
                Arg::dat_indirect(self.qo, self.mesh.p2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.qo, self.mesh.p2n, 1, AccessMode::Rw),
            ],
            kernels::periodsym,
        )
    }

    fn centreline_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "centreline",
            self.mesh.cbnd,
            vec![Arg::dat_indirect(self.qo, self.mesh.c2n, 0, AccessMode::Write)],
            kernels::centreline,
        )
    }

    fn edgelength_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "edgelength",
            self.mesh.edges,
            vec![
                Arg::dat_indirect(self.qo, self.mesh.e2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.qo, self.mesh.e2n, 1, AccessMode::Rw),
                Arg::dat_indirect(self.mesh.coords, self.mesh.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.mesh.coords, self.mesh.e2n, 1, AccessMode::Read),
            ],
            kernels::edgelength,
        )
    }

    fn periodicity_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "periodicity",
            self.mesh.pedges,
            vec![
                Arg::dat_indirect(self.qo, self.mesh.p2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.qo, self.mesh.p2n, 1, AccessMode::Rw),
            ],
            kernels::periodicity,
        )
    }

    // ---- period chain loops ----

    fn negflag_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "negflag",
            self.mesh.pedges,
            vec![
                Arg::dat_indirect(self.vol, self.mesh.p2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.vol, self.mesh.p2n, 1, AccessMode::Rw),
            ],
            kernels::negflag,
        )
    }

    fn limxp_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "limxp",
            self.mesh.edges,
            vec![
                Arg::dat_indirect(self.qo, self.mesh.e2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.qo, self.mesh.e2n, 1, AccessMode::Rw),
                Arg::dat_indirect(self.vol, self.mesh.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.vol, self.mesh.e2n, 1, AccessMode::Read),
            ],
            kernels::limxp,
        )
    }

    // ---- gradl chain loops ----

    fn edgecon_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "edgecon",
            self.mesh.edges,
            vec![
                Arg::dat_indirect(self.qp, self.mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(self.qp, self.mesh.e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(self.ql, self.mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(self.ql, self.mesh.e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(self.vol, self.mesh.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.vol, self.mesh.e2n, 1, AccessMode::Read),
            ],
            kernels::edgecon,
        )
    }

    fn period_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "period",
            self.mesh.pedges,
            vec![
                Arg::dat_indirect(self.qp, self.mesh.p2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.qp, self.mesh.p2n, 1, AccessMode::Rw),
                Arg::dat_indirect(self.ql, self.mesh.p2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.ql, self.mesh.p2n, 1, AccessMode::Rw),
            ],
            kernels::period,
        )
    }

    // ---- vflux chain loops ----

    fn initres_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "initres",
            self.mesh.nodes,
            vec![Arg::dat_direct(self.vres, AccessMode::Write)],
            kernels::initres,
        )
    }

    fn vflux_edge_loop(&self) -> LoopSpec {
        let e2n = self.mesh.e2n;
        LoopSpec::new(
            "vflux_edge",
            self.mesh.edges,
            vec![
                Arg::dat_indirect(self.qp, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.qp, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(self.xp, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.xp, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(self.ql, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.ql, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(self.qmu, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.qmu, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(self.qrg, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.qrg, e2n, 1, AccessMode::Read),
                Arg::dat_indirect(self.vres, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(self.vres, e2n, 1, AccessMode::Inc),
            ],
            kernels::vflux_edge,
        )
    }

    // ---- iflux chain loops ----

    fn initviscres_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "initviscres",
            self.mesh.nodes,
            vec![Arg::dat_direct(self.ires, AccessMode::Write)],
            kernels::initviscres,
        )
    }

    fn iflux_edge_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "iflux_edge",
            self.mesh.edges,
            vec![
                Arg::dat_indirect(self.qrg, self.mesh.e2n, 0, AccessMode::Read),
                Arg::dat_indirect(self.qrg, self.mesh.e2n, 1, AccessMode::Read),
                Arg::dat_indirect(self.ires, self.mesh.e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(self.ires, self.mesh.e2n, 1, AccessMode::Inc),
            ],
            kernels::iflux_edge,
        )
    }

    // ---- jacob chain loops ----

    fn jac_period_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "jac_period",
            self.mesh.pedges,
            vec![
                Arg::dat_indirect(self.jac, self.mesh.p2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.jac, self.mesh.p2n, 1, AccessMode::Rw),
                Arg::dat_indirect(self.jaca, self.mesh.p2n, 0, AccessMode::Rw),
                Arg::dat_indirect(self.jaca, self.mesh.p2n, 1, AccessMode::Rw),
            ],
            kernels::jac_period,
        )
    }

    fn jac_centreline_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "jac_centreline",
            self.mesh.cbnd,
            vec![Arg::dat_indirect(self.jac, self.mesh.c2n, 0, AccessMode::Write)],
            kernels::jac_centreline,
        )
    }

    fn jac_corrections_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "jac_corrections",
            self.mesh.bnd,
            vec![Arg::dat_indirect(self.jac, self.mesh.bnd2n, 0, AccessMode::Rw)],
            kernels::jac_corrections,
        )
    }

    // ---- glue loops ----

    fn update_state_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "update_state",
            self.mesh.nodes,
            vec![
                Arg::dat_direct(self.qp, AccessMode::Rw),
                Arg::dat_direct(self.ql, AccessMode::Write),
                Arg::dat_direct(self.qmu, AccessMode::Write),
                Arg::dat_direct(self.qrg, AccessMode::Write),
                Arg::dat_direct(self.xp, AccessMode::Write),
                Arg::dat_direct(self.qo, AccessMode::Read),
                Arg::dat_direct(self.mesh.coords, AccessMode::Read),
            ],
            kernels::update_state,
        )
    }

    fn smooth_rg_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "smooth_rg",
            self.mesh.nodes,
            vec![
                Arg::dat_direct(self.qrg, AccessMode::Rw),
                Arg::dat_direct(self.ires, AccessMode::Read),
            ],
            kernels::smooth_rg,
        )
    }

    fn jac_assemble_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "jac_assemble",
            self.mesh.nodes,
            vec![
                Arg::dat_direct(self.jac, AccessMode::Write),
                Arg::dat_direct(self.jaca, AccessMode::Write),
                Arg::dat_direct(self.qp, AccessMode::Read),
            ],
            kernels::jac_assemble,
        )
    }

    fn rk_accumulate_loop(&self) -> LoopSpec {
        LoopSpec::new(
            "rk_accumulate",
            self.mesh.nodes,
            vec![
                Arg::dat_direct(self.qp, AccessMode::Rw),
                Arg::dat_direct(self.vres, AccessMode::Read),
                Arg::dat_direct(self.ires, AccessMode::Read),
                Arg::dat_direct(self.jac, AccessMode::Read),
            ],
            kernels::rk_accumulate,
        )
    }

    /// The convergence monitor (global reduction).
    pub fn norm_loop(&self) -> LoopSpec {
        LoopSpec::with_gbls(
            "residual_norm",
            self.mesh.nodes,
            vec![
                Arg::dat_direct(self.vres, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::reduction(1)],
            kernels::residual_norm,
        )
    }

    /// Every loop a chain of the configuration may name, one of each.
    fn chain_loops(&self) -> Vec<LoopSpec> {
        vec![
            self.sumbwts_loop(),
            self.periodsym_loop(),
            self.centreline_loop(),
            self.edgelength_loop(),
            self.periodicity_loop(),
            self.negflag_loop(),
            self.limxp_loop(),
            self.edgecon_loop(),
            self.period_loop(),
            self.initres_loop(),
            self.vflux_edge_loop(),
            self.initviscres_loop(),
            self.iflux_edge_loop(),
            self.jac_period_loop(),
            self.jac_centreline_loop(),
            self.jac_corrections_loop(),
        ]
    }

    /// Build one of the six chains from its block of the chain
    /// configuration. `Safe` keeps Algorithm 3's transitive extents;
    /// `Paper` applies the block's `he`/`max_halo` pins. A name no block
    /// declares is [`CoreError::UnknownChain`].
    pub fn chain(&self, name: &str, mode: ExtentMode) -> Result<ChainSpec> {
        let cfg = (self.chains.iter().find(|c| c.name == name))
            .ok_or_else(|| CoreError::UnknownChain(name.to_string()))?;
        let program = self.chain_loops();
        match mode {
            ExtentMode::Safe => ChainSpec::new(name, cfg.resolve_loops(&program)?, None, &[]),
            ExtentMode::Paper => cfg.resolve(&program),
        }
    }

    /// The six benchmarked chain names, in Table 3–4 order.
    pub fn chain_names() -> [&'static str; 6] {
        ["weight", "period", "gradl", "vflux", "iflux", "jacob"]
    }

    /// Append chain `name` as one CA step (`ca`) or flattened into its
    /// loops.
    fn push_chain(&self, steps: &mut Vec<Step>, name: &str, ca: bool, mode: ExtentMode) {
        let chain = self.chain(name, mode).expect("the configured chain is valid");
        if ca {
            steps.push(Step::Chain(chain, false));
        } else {
            steps.extend(chain.loops.into_iter().map(Step::Loop));
        }
    }

    /// Setup phase: field initialisation plus the `weight` and `period`
    /// chains (they sit outside the time-marching loop, §4.2).
    pub fn setup(&self, ca: bool, mode: ExtentMode) -> Vec<Step> {
        let mut steps = vec![Step::Loop(self.init_loop())];
        for name in ["weight", "period"] {
            self.push_chain(&mut steps, name, ca, mode);
        }
        steps
    }

    /// One time-marching iteration: the four in-loop chains (`vflux`,
    /// `iflux`, `gradl`, `jacob`) plus the glue loops that dirty their
    /// inputs, closed by the RK accumulation.
    pub fn iteration(&self, ca: bool, mode: ExtentMode) -> Vec<Step> {
        let mut steps = vec![Step::Loop(self.update_state_loop())];
        self.push_chain(&mut steps, "vflux", ca, mode);
        steps.push(Step::Loop(self.smooth_rg_loop()));
        self.push_chain(&mut steps, "iflux", ca, mode);
        self.push_chain(&mut steps, "gradl", ca, mode);
        steps.push(Step::Loop(self.jac_assemble_loop()));
        self.push_chain(&mut steps, "jacob", ca, mode);
        steps.push(Step::Loop(self.rk_accumulate_loop()));
        steps
    }

    /// A full 5-stage Runge–Kutta iteration (Hydra's time-marcher, §4.2):
    /// the in-loop chains and their glue repeated per stage, with one
    /// state update closing each stage. Tests use the single-stage
    /// [`Hydra::iteration`]; the CLI and benchmarks can use this.
    pub fn rk_iteration(&self, ca: bool, mode: ExtentMode, stages: usize) -> Vec<Step> {
        assert!(stages >= 1);
        let mut steps = Vec::new();
        for _ in 0..stages {
            steps.extend(self.iteration(ca, mode));
        }
        steps
    }

    /// Deepest halo layer any chain requires in this mode — the layout
    /// build depth.
    pub fn required_depth(&self, mode: ExtentMode) -> usize {
        Self::chain_names()
            .iter()
            .map(|n| self.chain(n, mode).expect("chain is valid").max_halo_layers())
            .max()
            .unwrap_or(1)
    }

    /// Validate every loop against the domain.
    pub fn validate(&self) -> Result<()> {
        for step in self
            .setup(false, ExtentMode::Safe)
            .into_iter()
            .chain(self.iteration(false, ExtentMode::Safe))
        {
            if let Step::Loop(l) = step {
                l.validate(&self.mesh.dom)?;
            }
        }
        self.norm_loop().validate(&self.mesh.dom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let app = Hydra::new(HydraParams::small(6));
        app.validate().unwrap();
    }

    /// vflux / iflux / gradl: the transitive analysis reproduces the
    /// paper's extents exactly. weight / period / jacob ladder deeper
    /// (see crate docs); their paper variants pin the published values,
    /// which the configuration file carries.
    #[test]
    fn chain_extents_vs_paper() {
        let app = Hydra::new(HydraParams::small(6));
        let safe = |n: &str| app.chain(n, ExtentMode::Safe).unwrap().halo_ext;
        assert_eq!(safe("vflux"), vec![1, 1]);
        assert_eq!(safe("iflux"), vec![1, 1]);
        assert_eq!(safe("gradl"), vec![2, 1]);
        assert_eq!(safe("weight"), vec![2, 1, 3, 2, 1]);
        assert_eq!(safe("period"), vec![5, 4, 3, 2, 1, 1]);
        assert_eq!(safe("jacob"), vec![1, 2, 1]);
        let published: [(&str, &[usize]); 6] = [
            ("weight", &[2, 1, 2, 2, 1]),
            ("period", &[2, 2, 1, 2, 1, 1]),
            ("gradl", &[2, 1]),
            ("vflux", &[1, 1]),
            ("iflux", &[1, 1]),
            ("jacob", &[1, 1, 1]),
        ];
        for (name, extents) in published {
            let paper = app.chain(name, ExtentMode::Paper).unwrap();
            assert_eq!(paper.halo_ext, extents, "{name}");
        }
    }

    /// `Safe` chains carry Algorithm 3's transitive extents, which
    /// leave no read stale.
    #[test]
    fn safe_chains_are_transitive_and_strict() {
        let app = Hydra::new(HydraParams::small(6));
        for name in Hydra::chain_names() {
            let chain = app.chain(name, ExtentMode::Safe).unwrap();
            let sigs = chain.sigs();
            assert_eq!(chain.halo_ext, op2_core::calc_halo_extents(&sigs), "{name}");
            let walk = op2_core::import_depths(&sigs, &chain.halo_ext, &|_| 0);
            assert!(walk.stale.is_empty(), "{name}: {:?}", walk.stale);
        }
    }

    /// A chain name no block declares is a typed error in either mode.
    #[test]
    fn unknown_chain_is_a_typed_error() {
        let app = Hydra::new(HydraParams::small(5));
        for mode in [ExtentMode::Safe, ExtentMode::Paper] {
            match app.chain("no_such_chain", mode) {
                Err(CoreError::UnknownChain(name)) => assert_eq!(name, "no_such_chain"),
                other => panic!("expected UnknownChain, got {other:?}"),
            }
        }
    }

    /// The vflux chain's grouped import carries exactly the five dats of
    /// Table 4: qp, xp, ql, qmu, qrg.
    #[test]
    fn vflux_imports_match_table4() {
        let app = Hydra::new(HydraParams::small(6));
        let chain = app.chain("vflux", ExtentMode::Safe).unwrap();
        let sigs = chain.sigs();
        let walk = op2_core::chain::import_depths(&sigs, &chain.halo_ext, &|_| 0);
        assert!(walk.stale.is_empty(), "{:?}", walk.stale);
        let imports = walk.import;
        let mut names: Vec<&str> = imports
            .iter()
            .map(|(d, _)| app.mesh.dom.dat(*d).name.as_str())
            .collect();
        names.sort_unstable();
        assert_eq!(names, vec!["ql", "qmu", "qp", "qrg", "xp"]);
        assert!(imports.iter().all(|&(_, t)| t == 1));
    }

    #[test]
    fn required_depth_by_mode() {
        let app = Hydra::new(HydraParams::small(6));
        assert_eq!(app.required_depth(ExtentMode::Paper), 2);
        assert_eq!(app.required_depth(ExtentMode::Safe), 5);
    }

    #[test]
    fn iteration_contains_all_inloop_chains() {
        let app = Hydra::new(HydraParams::small(5));
        let steps = app.iteration(true, ExtentMode::Safe);
        let chains: Vec<String> = steps
            .iter()
            .filter_map(|s| match s {
                Step::Chain(c, _) => Some(c.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(chains, vec!["vflux", "iflux", "gradl", "jacob"]);
    }
}
