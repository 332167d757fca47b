//! Tables 3 & 4: the six OP2-Hydra loop-chains — iteration sets, access
//! modes of the halo-exchanged dats, and halo extensions per loop.
//!
//! Three extent columns are printed side by side:
//!
//! * **paper** — the published Table 3/4 values, as the chain
//!   configuration file `configs/hydra_chains.cfg` pins them
//!   (`ExtentMode::Paper`);
//! * **alg3** — the literal Algorithm 3 as printed in the paper
//!   ([`op2_core::chain::calc_halo_layers`]);
//! * **safe** — the transitive dependency closure this reproduction's
//!   executor requires ([`op2_core::chain::calc_halo_extents`]).
//!
//! A closing table gives each chain's **stale** count: the reads the
//! paper extents leave beyond in-chain validity, per call
//! ([`op2_core::chain::import_depths`]; static, as entry validity only
//! shapes the import). The executor refuses a chain with any.
//! Divergences between the columns are analysed in EXPERIMENTS.md.

use hydra_sim::{ExtentMode, Hydra, HydraParams};
use op2_core::chain::{calc_halo_extents, calc_halo_layers, import_depths};

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    println!("== Tables 3 & 4: OP2-Hydra loop-chains and halo extensions ==\n");
    let app = Hydra::new(HydraParams::small(8));
    if csv {
        println!("csv,chain,pos,loop,set,he_paper,he_alg3,he_safe");
    }

    for name in Hydra::chain_names() {
        let chain = app.chain(name, ExtentMode::Safe).expect("chain valid");
        let sigs = chain.sigs();
        let alg3 = calc_halo_layers(&sigs);
        let safe = calc_halo_extents(&sigs);
        let paper = app.chain(name, ExtentMode::Paper).expect("chain valid").halo_ext;
        println!(
            "loop-chain: {name} (loop count = {})",
            chain.len()
        );
        println!(
            "  {:<16} {:<8} | {:<30} | {:>5} {:>5} {:>5}",
            "parallel loop", "iter set", "halo-exchanged dats (mode)", "paper", "alg3", "safe"
        );
        for (pos, sig) in sigs.iter().enumerate() {
            let set = &app.mesh.dom.set(sig.set).name;
            let mut dats = Vec::new();
            for d in sig.dats() {
                if let Some((mode, indirect)) = sig.access_of(d) {
                    if indirect {
                        dats.push(format!(
                            "{}:{}",
                            app.mesh.dom.dat(d).name,
                            mode.label()
                        ));
                    }
                }
            }
            let dats = if dats.is_empty() {
                "-".to_string()
            } else {
                dats.join(", ")
            };
            println!(
                "  {:<16} {:<8} | {:<30} | {:>5} {:>5} {:>5}",
                sig.name, set, dats, paper[pos], alg3.per_loop[pos], safe[pos]
            );
            if csv {
                println!(
                    "csv,{name},{pos},{},{set},{},{},{}",
                    sig.name, paper[pos], alg3.per_loop[pos], safe[pos]
                );
            }
        }
        println!();
    }
    println!("reads the paper extents leave stale, per call:");
    println!("  {:<8} {:>5}", "chain", "stale");
    for name in Hydra::chain_names() {
        let chain = app.chain(name, ExtentMode::Paper).expect("chain valid");
        let stale = import_depths(&chain.sigs(), &chain.halo_ext, &|_| 0).stale.len();
        println!("  {name:<8} {stale:>5}");
    }
    println!();
    println!(
        "vflux / iflux / gradl: all three columns agree with the paper.\n\
         weight / period / jacob: the literal Alg 3 and the transitive\n\
         closure disagree with individual published values — see\n\
         EXPERIMENTS.md for the per-loop discussion. The published extents\n\
         are kept as data: the executor refuses a chain with a stale read\n\
         (a typed validity error), and runs use the `Safe` transitive closure."
    );
}
