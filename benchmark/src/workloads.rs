//! The four workloads: what each builds, how it is partitioned, and the
//! run options of its primary, baseline and diagnostic policies.
//!
//! Everything here stays inside the pinned surface listed in the README,
//! so that the planned collapse of the per-app `run_*` drivers and the
//! `run_chain_*` variants can land without editing the benchmark.

use crate::probe::ProbeSpec;
use crate::spans::{SpanLog, NO_PARENT};
use hydra_sim::{ExtentMode, Hydra, HydraParams};
use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::{ChainSpec, DatId, Domain, LoopSpec, SetId};
use op2_mesh::hex3d::Hex3DParams;
use op2_mesh::shuffle::shuffle_set;
use op2_mesh::AnnulusParams;
use op2_partition::{build_layouts, derive_ownership, rcb_partition, rib_partition, RankLayout};
use op2_runtime::{ExecMode, FaultPlan, FaultSpec, RunOptions};
use std::sync::Arc;
use std::time::Duration;

/// One call into the runtime.
#[derive(Clone)]
pub enum Call {
    Loop(LoopSpec),
    Chain(ChainSpec),
}

impl Call {
    pub fn name(&self) -> &str {
        match self {
            Call::Loop(l) => &l.name,
            Call::Chain(c) => &c.name,
        }
    }

    /// The loops this call executes, chains flattened.
    pub fn loops(&self) -> &[LoopSpec] {
        match self {
            Call::Loop(l) => std::slice::from_ref(l),
            Call::Chain(c) => &c.loops,
        }
    }
}

impl From<mg_cfd::Step> for Call {
    fn from(s: mg_cfd::Step) -> Call {
        match s {
            mg_cfd::Step::Loop(l) => Call::Loop(l),
            mg_cfd::Step::Chain(c) => Call::Chain(c),
        }
    }
}

impl From<hydra_sim::app::Step> for Call {
    fn from(s: hydra_sim::app::Step) -> Call {
        match s {
            hydra_sim::app::Step::Loop(l) => Call::Loop(l),
            // `ExtentMode::Safe` chains are strict; the relaxed flag is
            // only ever set by `ExtentMode::Paper`.
            hydra_sim::app::Step::Chain(c, _relaxed) => Call::Chain(c),
        }
    }
}

/// What every rank executes: `init` once, then `iteration` followed by
/// the `reduce` loop per time-march iteration.
#[derive(Clone)]
pub struct Program {
    pub init: Vec<Call>,
    pub iteration: Vec<Call>,
    /// The closing global reduction (residual norm).
    pub reduce: LoopSpec,
}

impl Program {
    /// Kernel iterations one time-march iteration performs when nothing
    /// is executed redundantly: the sequential walk's count.
    pub fn useful_iters(&self, dom: &Domain) -> usize {
        self.iteration
            .iter()
            .flat_map(Call::loops)
            .chain(std::iter::once(&self.reduce))
            .map(|l| dom.set(l.set).size)
            .sum()
    }
}

/// Which of a workload's execution policies a world runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    Primary,
    Baseline,
    /// `mgcfd-threads` only: the primary policy with the dataflow drain.
    Dataflow,
}

#[derive(Debug, Clone, Copy)]
enum App {
    MgCfd {
        n: usize,
        nchains: usize,
        shuffle: bool,
    },
    Hydra {
        n: usize,
    },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    app: App,
    pub ranks: usize,
    /// Threads per rank under the primary policy.
    pub threads: usize,
    /// Every message is delayed uniformly up to this long.
    delay: Option<Duration>,
    /// Time-march iterations per repeat and per policy when the run
    /// measures for [`crate::REFERENCE_SECONDS`].
    pub iters: usize,
    /// Iterations of the sequential pass after each repeat, at the same
    /// reference.
    pub seq_iters: usize,
    /// The host probe: numbered like the mesh, a few megabytes that an
    /// iteration pushes out of L2 (less on `mgcfd-wire`, whose iteration
    /// pushes nothing out), with the nominal time and the sensitivities
    /// measured for this workload.
    pub probe: ProbeSpec,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mgcfd-compute",
        why: "MG-CFD 48^3 with shuffled numbering, 2 ranks: kernel execution is about 90% of the \
              iteration, so kernel, reordering and fusion work shows here and exchange work does not",
        app: App::MgCfd {
            n: 48,
            nchains: 4,
            shuffle: true,
        },
        ranks: 2,
        threads: 1,
        delay: None,
        iters: 44,
        seq_iters: 12,
        probe: ProbeSpec {
            nodes: 32_000,
            every: 1,
            local: false,
            nominal_ns_per_edge: [40.0, 35.0],
            sensitivity: [1.45, 1.25],
        },
    },
    Workload {
        name: "mgcfd-wire",
        why: "MG-CFD 16^3, 16-loop chain, every message delayed up to 100 us: the only workload where \
              8 grouped messages instead of 24 per iteration decide the wall; highest call rate",
        app: App::MgCfd {
            n: 16,
            nchains: 8,
            shuffle: false,
        },
        ranks: 2,
        threads: 1,
        delay: Some(Duration::from_micros(100)),
        iters: 600,
        seq_iters: 300,
        probe: ProbeSpec {
            nodes: 8_000,
            every: 10,
            local: true,
            nominal_ns_per_edge: [19.0, 23.0],
            sensitivity: [1.45, 1.0],
        },
    },
    Workload {
        name: "hydra-chains",
        why: "Hydra annulus 40^3, safe extents (halo depth 5), RIB: six chain shapes, five-dat grouped \
              exchanges and deep redundant halo compute, on cache-friendly generator numbering",
        app: App::Hydra { n: 40 },
        ranks: 2,
        threads: 1,
        delay: None,
        iters: 140,
        seq_iters: 37,
        probe: ProbeSpec {
            nodes: 32_000,
            every: 2,
            local: true,
            nominal_ns_per_edge: [19.5, 20.5],
            sensitivity: [1.45, 1.35],
        },
    },
    Workload {
        name: "mgcfd-threads",
        why: "MG-CFD 32^3 on 1 rank x 2 threads against 1 thread: zero messages, so the thread pool, \
              schedule lowering and drain do all the work that differs from baseline",
        app: App::MgCfd {
            n: 32,
            nchains: 4,
            shuffle: false,
        },
        ranks: 1,
        threads: 2,
        delay: None,
        iters: 80,
        seq_iters: 73,
        probe: ProbeSpec {
            nodes: 32_000,
            every: 2,
            local: true,
            nominal_ns_per_edge: [19.3, 20.7],
            sensitivity: [1.45, 1.0],
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A built application: the global domain plus its two programs.
pub struct Problem {
    pub dom: Domain,
    /// Chains executed as chains (Alg 2).
    pub ca: Program,
    /// Every chain flattened into standard loops (Alg 1); also what the
    /// sequential walk executes.
    pub flat: Program,
    /// Node count the reduction is normalised by.
    pub norm_n: f64,
    base_set: SetId,
    coords: DatId,
    depth: usize,
    inertial: bool,
}

/// What one world runs: a program under run options.
pub struct PolicyRun<'p> {
    pub program: &'p Program,
    pub opts: RunOptions,
    /// Threads per rank the options ask for.
    pub threads: usize,
    /// Node count the reduction is normalised by.
    pub norm_n: f64,
    pub probe: ProbeSpec,
}

/// Names of the set-up spans, in [`SETUP_SPAN_NAMES`] order.
pub mod setup_span {
    pub const MESH_BUILD: u32 = 0;
    pub const MESH_SHUFFLE: u32 = 1;
    pub const SPLIT: u32 = 2;
    pub const OWNERSHIP: u32 = 3;
    pub const LAYOUTS: u32 = 4;
    pub const WORLD: u32 = 5;
}

pub const SETUP_SPAN_NAMES: [&str; 6] = [
    "mesh.build",
    "mesh.shuffle",
    "partition.split",
    "partition.ownership",
    "partition.layouts",
    "world",
];

impl Workload {
    /// Build the application from `seed`. Spans go to `log`.
    pub fn build(&self, seed: u64, log: &mut SpanLog) -> Problem {
        match self.app {
            App::MgCfd {
                n,
                nchains,
                shuffle,
            } => {
                let params = MgCfdParams {
                    finest: Hex3DParams::cube(n),
                    levels: 2,
                    nchains,
                };
                let mut app = log.scope(setup_span::MESH_BUILD, NO_PARENT, || MgCfd::new(params));
                if shuffle {
                    log.scope(setup_span::MESH_SHUFFLE, NO_PARENT, || {
                        for (k, l) in app.levels.iter().enumerate() {
                            let s = seed.wrapping_mul(4).wrapping_add(2 * k as u64);
                            shuffle_set(&mut app.dom, l.ids.nodes, s);
                            shuffle_set(&mut app.dom, l.ids.edges, s.wrapping_add(1));
                        }
                    });
                }
                let program = |ca: bool| Program {
                    init: (0..params.levels)
                        .map(|l| Call::Loop(app.init_loop(l)))
                        .collect(),
                    iteration: app.iteration(ca).into_iter().map(Call::from).collect(),
                    reduce: app.rms_loop(),
                };
                let (ca, flat) = (program(true), program(false));
                let fine = app.levels[0].ids;
                Problem {
                    norm_n: app.dom.set(fine.nodes).size as f64,
                    ca,
                    flat,
                    base_set: fine.nodes,
                    coords: fine.coords,
                    depth: 2,
                    inertial: false,
                    dom: app.dom,
                }
            }
            App::Hydra { n } => {
                let params = HydraParams {
                    mesh: AnnulusParams::small(n, n, n),
                };
                let app = log.scope(setup_span::MESH_BUILD, NO_PARENT, || Hydra::new(params));
                let mode = ExtentMode::Safe;
                let program = |ca: bool| Program {
                    init: app.setup(ca, mode).into_iter().map(Call::from).collect(),
                    iteration: app
                        .iteration(ca, mode)
                        .into_iter()
                        .map(Call::from)
                        .collect(),
                    reduce: app.norm_loop(),
                };
                let (ca, flat) = (program(true), program(false));
                Problem {
                    norm_n: app.mesh.dom.set(app.mesh.nodes).size as f64,
                    ca,
                    flat,
                    base_set: app.mesh.nodes,
                    coords: app.mesh.coords,
                    depth: app.required_depth(mode),
                    inertial: true,
                    dom: app.mesh.dom,
                }
            }
        }
    }

    /// Partition `problem` over this workload's ranks.
    pub fn partition(&self, problem: &Problem, log: &mut SpanLog) -> Vec<RankLayout> {
        let coords = &problem.dom.dat(problem.coords).data;
        let base = log.scope(setup_span::SPLIT, NO_PARENT, || {
            if problem.inertial {
                rib_partition(coords, 3, self.ranks)
            } else {
                rcb_partition(coords, 3, self.ranks)
            }
        });
        let own = log.scope(setup_span::OWNERSHIP, NO_PARENT, || {
            derive_ownership(&problem.dom, problem.base_set, base, self.ranks)
        });
        log.scope(setup_span::LAYOUTS, NO_PARENT, || {
            build_layouts(&problem.dom, &own, problem.depth)
        })
    }

    /// The program and run options of `policy`. On the two-rank
    /// workloads the baseline is standard OP2 (every chain flattened,
    /// one exchange per loop); on `mgcfd-threads` it is one thread.
    pub fn policy<'p>(&self, policy: Policy, problem: &'p Problem, seed: u64) -> PolicyRun<'p> {
        let mut opts = RunOptions::default();
        if let Some(max_delay) = self.delay {
            opts.faults = Some(Arc::new(FaultPlan::new(FaultSpec {
                seed,
                delay_permille: 1000,
                max_delay,
                ..FaultSpec::default()
            })));
        }
        let threaded = self.threads > 1;
        let (program, threads) = match policy {
            Policy::Primary | Policy::Dataflow => (&problem.ca, self.threads),
            Policy::Baseline if threaded => (&problem.ca, 1),
            Policy::Baseline => (&problem.flat, 1),
        };
        let mut opts = opts.with_threads(threads);
        if policy == Policy::Dataflow {
            opts = opts.exec(ExecMode::Dataflow);
        }
        PolicyRun {
            program,
            opts,
            threads,
            norm_n: problem.norm_n,
            probe: self.probe,
        }
    }

    /// Policies the correctness oracle compares against the primary, and
    /// whether the comparison is bitwise. Thread count and drain policy
    /// are bitwise-invisible by the runtime's contract. Standard OP2 and
    /// CA are not for rounding kernels: a halo value computed redundantly
    /// sums its increments in the importing rank's edge order, the owner's
    /// copy in the owner's, so they agree bitwise only while the sums
    /// happen to be exact (the repo's own app tests compare at 1e-10).
    pub fn compared_policies(&self) -> &'static [(Policy, bool)] {
        if self.threads > 1 {
            &[(Policy::Baseline, true), (Policy::Dataflow, true)]
        } else {
            &[(Policy::Baseline, false)]
        }
    }
}
