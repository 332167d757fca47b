//! Scales, CLI parsing, statistics plumbing and table printing shared by
//! the table/figure binaries.

use mg_cfd::{MgCfd, MgCfdParams};
use op2_core::LoopSig;
use op2_mesh::{AnnulusParams, Csr, Hex3DParams};
use op2_model::components::{chain_components, shape_from_sigs, ChainComponents};
use op2_model::Machine;
use op2_partition::{collect_stats, derive_ownership, kway_partition, rib_partition, HaloStats};

/// Problem / cluster scaling for a reproduction run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Scale name for the banner.
    pub name: &'static str,
    /// MG-CFD "8M" mesh at this scale.
    pub hex_8m: Hex3DParams,
    /// MG-CFD "24M" mesh at this scale.
    pub hex_24m: Hex3DParams,
    /// Hydra "8M" passage at this scale.
    pub ann_8m: AnnulusParams,
    /// Hydra "24M" passage at this scale.
    pub ann_24m: AnnulusParams,
    /// MPI ranks per CPU node at this scale (128 at paper scale).
    pub cpu_rpn: usize,
    /// MPI ranks (GPUs) per GPU node (4 at paper scale).
    pub gpu_rpn: usize,
    /// Worker threads for the statistics pipeline.
    pub threads: usize,
}

impl Scale {
    /// ~64k-node meshes, 8 CPU ranks / 2 GPU ranks per node.
    pub fn small() -> Self {
        Scale {
            name: "small",
            hex_8m: Hex3DParams::cube(40),
            hex_24m: Hex3DParams::cube(58),
            ann_8m: AnnulusParams::small(40, 40, 40),
            ann_24m: AnnulusParams::small(58, 58, 58),
            cpu_rpn: 8,
            gpu_rpn: 2,
            threads: 8,
        }
    }

    /// ~1M-node meshes, 32 ranks per node.
    pub fn medium() -> Self {
        Scale {
            name: "medium",
            hex_8m: Hex3DParams::cube(100),
            hex_24m: Hex3DParams::cube(144),
            ann_8m: AnnulusParams::small(100, 100, 100),
            ann_24m: AnnulusParams::small(144, 144, 144),
            cpu_rpn: 32,
            gpu_rpn: 4,
            threads: 8,
        }
    }

    /// The paper's configurations: 8M/24M nodes, 128 CPU ranks or 4
    /// GPUs per node.
    pub fn paper() -> Self {
        Scale {
            name: "paper",
            hex_8m: Hex3DParams::mesh_8m(),
            hex_24m: Hex3DParams::mesh_24m(),
            ann_8m: AnnulusParams::mesh_8m(),
            ann_24m: AnnulusParams::mesh_24m(),
            cpu_rpn: 128,
            gpu_rpn: 4,
            threads: 16,
        }
    }
}

/// Parsed common CLI flags.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Selected scale.
    pub scale: Scale,
    /// Emit CSV rows after the table.
    pub csv: bool,
    /// Restrict node counts (`--nodes 4,16,64`).
    pub nodes: Option<Vec<usize>>,
}

impl Cli {
    /// Parse `std::env::args`.
    pub fn parse() -> Self {
        let mut scale = Scale::small();
        let mut csv = false;
        let mut nodes = None;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    scale = match args.get(i).map(String::as_str) {
                        Some("small") => Scale::small(),
                        Some("medium") => Scale::medium(),
                        Some("paper") => Scale::paper(),
                        other => panic!("--scale must be small|medium|paper, got {other:?}"),
                    };
                }
                "--csv" => csv = true,
                "--nodes" => {
                    i += 1;
                    nodes = Some(
                        args.get(i)
                            .expect("--nodes needs a comma-separated list")
                            .split(',')
                            .map(|s| s.parse().expect("node counts are integers"))
                            .collect(),
                    );
                }
                "--help" | "-h" => {
                    eprintln!("flags: --scale small|medium|paper  --csv  --nodes a,b,c");
                    std::process::exit(0);
                }
                other => panic!("unknown flag `{other}`"),
            }
            i += 1;
        }
        Cli { scale, csv, nodes }
    }

    /// Node counts to sweep, honouring `--nodes`.
    pub fn node_counts(&self, default: &[usize]) -> Vec<usize> {
        self.nodes.clone().unwrap_or_else(|| default.to_vec())
    }
}

/// Banner printed by every binary.
pub fn banner(what: &str, cli: &Cli) {
    println!("== {what} ==");
    println!(
        "scale: {} (see --scale; `paper` matches the published mesh sizes)",
        cli.scale.name
    );
    println!();
}

/// Halo statistics for an MG-CFD mesh partitioned k-way (the paper uses
/// ParMETIS k-way for MG-CFD). Returns the app (for loop signatures)
/// and the statistics.
pub fn mgcfd_stats(finest: Hex3DParams, ranks: usize, threads: usize) -> (MgCfd, HaloStats) {
    let mut params = MgCfdParams::small(4);
    params.finest = finest;
    params.levels = 1; // chain statistics live on the finest level only
    params.nchains = 1;
    let app = MgCfd::new(params);
    let l0 = &app.levels[0];
    let graph = Csr::node_graph(
        app.dom.map(l0.ids.e2n),
        app.dom.set(l0.ids.nodes).size,
    );
    let base = kway_partition(&graph, ranks, 2);
    let own = derive_ownership(&app.dom, l0.ids.nodes, base, ranks);
    let stats = collect_stats(&app.dom, &own, 2, threads);
    (app, stats)
}

/// Halo statistics for a Hydra passage partitioned with recursive
/// inertial bisection (Hydra's default partitioner in the paper).
pub fn hydra_stats(
    mesh: AnnulusParams,
    ranks: usize,
    depth: usize,
    threads: usize,
) -> (hydra_sim::Hydra, HaloStats) {
    let app = hydra_sim::Hydra::new(hydra_sim::HydraParams { mesh });
    let base = rib_partition(app.mesh.node_coords(), 3, ranks);
    let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, ranks);
    let stats = collect_stats(&app.mesh.dom, &own, depth, threads);
    (app, stats)
}

/// Model components for the MG-CFD synthetic chain of `2 * nchains`
/// loops. `g_update` and `g_flux` are the per-iteration costs of the
/// two kernels.
pub fn synthetic_components(
    app: &MgCfd,
    stats: &HaloStats,
    nchains: usize,
    g_update: f64,
    g_flux: f64,
) -> ChainComponents {
    let chain = app.synthetic_chain_n(nchains).expect("synthetic chain valid");
    let sigs: Vec<LoopSig> = chain.sigs();
    let gs: Vec<f64> = (0..sigs.len())
        .map(|i| if i % 2 == 0 { g_update } else { g_flux })
        .collect();
    // Relaxed shape: the paper's back-end keeps the standard depth-1
    // latency-hiding core for every loop of the chain (its Table 2 CA
    // cores barely shrink), tolerating bounded staleness — match that.
    let shape =
        shape_from_sigs(&app.dom, "synthetic", &sigs, &chain.halo_ext, &gs, &|_| 0);
    chain_components(stats, &shape)
}

/// Model components for one Hydra chain (paper extents), with per-loop
/// costs proportional to the chain's share of Hydra's runtime.
pub fn hydra_chain_components(
    app: &hydra_sim::Hydra,
    stats: &HaloStats,
    name: &str,
    mach: &Machine,
) -> ChainComponents {
    let chain = app
        .chain(name, hydra_sim::ExtentMode::Paper)
        .expect("chain valid");
    let sigs = chain.sigs();
    // Relative per-iteration costs: edge loops carry real arithmetic,
    // boundary-set loops are light; vflux is Hydra's most expensive
    // loop (18% of runtime, §4.2).
    let gs: Vec<f64> = sigs
        .iter()
        .map(|s| {
            let set_name = &app.mesh.dom.set(s.set).name;
            let base = mach.g_default;
            match (name, set_name.as_str()) {
                ("vflux", "edges") => 4.0 * base,
                (_, "edges") => 1.5 * base,
                (_, "nodes") => 0.5 * base,
                _ => 0.8 * base, // pedges / bnd / cbnd
            }
        })
        .collect();
    // Paper extents are pinned below the transitive requirement for
    // some chains; the relaxed plan deepens the initial import instead.
    // Coordinates are never modified, hence never exchanged.
    let coords = app.mesh.coords;
    let shape = shape_from_sigs(
        &app.mesh.dom,
        name,
        &sigs,
        &chain.halo_ext,
        &gs,
        &|d| if d == coords { usize::MAX } else { 0 },
    );
    chain_components(stats, &shape)
}

/// Seconds with engineering units.
pub fn fmt_time(t: f64) -> String {
    if t >= 1.0 {
        format!("{t:.3}s")
    } else if t >= 1e-3 {
        format!("{:.3}ms", t * 1e3)
    } else {
        format!("{:.3}us", t * 1e6)
    }
}
