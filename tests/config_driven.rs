//! The §3.4 flow end-to-end: a chain *configuration file* (the only
//! addition CA makes to OP2's build process) is parsed, resolved
//! against the application's loop declarations, and executed — the
//! shipped `configs/*.cfg` files are the fixtures.

use op2::core::{parse_chain_config, seq, ChainSpec};
use op2::hydra::{ExtentMode, Hydra, HydraParams};
use op2::mgcfd::{MgCfd, MgCfdParams, Step};
use op2::partition::{build_layouts, derive_ownership, rcb_partition, rib_partition};
use op2::runtime::exec::{run_chain, run_loop};
use op2::runtime::run_distributed;

#[test]
fn mgcfd_config_resolves_and_runs() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/mgcfd_chains.cfg"
    ))
    .expect("shipped config present");
    let configs = parse_chain_config(&text).unwrap();
    assert_eq!(configs.len(), 3);
    assert_eq!(configs[0].name, "synthetic8");
    assert_eq!(configs[0].loops.len(), 8);
    assert_eq!(configs[0].max_halo, Some(2));

    let mut params = MgCfdParams::small(7);
    params.nchains = 4;
    let mut app = MgCfd::new(params);

    // The "program": the declared loops the config names.
    let program = vec![app.update_loop(), app.edge_flux_loop(), app.write_pres_loop()];
    let chain = configs[0].resolve(&program).unwrap();
    assert_eq!(chain.len(), 8);
    assert_eq!(chain.max_halo_layers(), 2);
    assert_eq!(chain.halo_ext, vec![2, 1, 2, 1, 2, 1, 2, 1]);

    // The iteration's chains resolve to exactly the built-in CA program's.
    let flat: Vec<_> = app
        .iteration(false)
        .into_iter()
        .map(|s| match s {
            Step::Loop(l) => l,
            Step::Chain(c) => panic!("chain `{}` in the flattened program", c.name),
        })
        .collect();
    let builtin: Vec<_> = app
        .iteration(true)
        .into_iter()
        .map(|s| match s {
            Step::Chain(c) => c,
            Step::Loop(l) => panic!("standalone loop `{}` in the CA program", l.name),
        })
        .collect();
    assert_eq!(builtin.len(), 2);
    for (cfg, want) in configs[1..].iter().zip(&builtin) {
        let got = cfg.resolve(&flat).unwrap();
        let names = |c: &ChainSpec| -> Vec<String> {
            c.loops.iter().map(|l| l.name.clone()).collect()
        };
        assert_eq!(got.name, want.name);
        assert_eq!(names(&got), names(want), "chain {}", got.name);
        assert_eq!(got.halo_ext, want.halo_ext, "chain {}", got.name);
    }

    // Run the resolved chain distributed; compare with sequential.
    let write_pres = app.write_pres_loop();
    let mut seq_dom = app.dom.clone();
    seq::run_loop(&mut seq_dom, &write_pres);
    for l in &chain.loops {
        seq::run_loop(&mut seq_dom, l);
    }

    let coords = &app.dom.dat(app.levels[0].ids.coords).data;
    let base = rcb_partition(coords, 3, 4);
    let own = derive_ownership(&app.dom, app.levels[0].ids.nodes, base, 4);
    let layouts = build_layouts(&app.dom, &own, 2);
    run_distributed(&mut app.dom, &layouts, |env| {
        run_loop(env, &write_pres)?;
        run_chain(env, &chain)
    })
    .unwrap_results();
    for d in [app.dres, app.dflux] {
        let a = &seq_dom.dat(d).data;
        let b = &app.dom.dat(d).data;
        let scale = a.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
        let err = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f64, f64::max)
            / scale;
        assert!(err < 1e-12, "dat {} err {err}", seq_dom.dat(d).name);
    }
}

/// The shipped Hydra configuration is the one `hydra-sim` embeds: every
/// block resolves against the app's loops, the blocks are exactly
/// `Hydra::chain_names()`, and `Paper` mode is the block's pins, relaxed.
#[test]
fn hydra_config_resolves_every_block() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/hydra_chains.cfg"
    ))
    .expect("shipped config present");
    let configs = parse_chain_config(&text).unwrap();
    let mut names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
    let mut want = Hydra::chain_names().to_vec();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want);

    let app = Hydra::new(HydraParams::small(6));
    for cfg in &configs {
        let safe = app.chain(&cfg.name, ExtentMode::Safe).unwrap();
        let paper = app.chain(&cfg.name, ExtentMode::Paper).unwrap();
        let names: Vec<&str> = safe.loops.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, cfg.loops, "chain {}", cfg.name);
        let resolved = cfg.resolve(&safe.loops).unwrap();
        assert_eq!(resolved.halo_ext, paper.halo_ext, "chain {}", cfg.name);
        assert!(!resolved.relaxed && paper.relaxed, "chain {}", cfg.name);
    }
}

#[test]
fn hydra_config_driven_execution_runs_relaxed() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../configs/hydra_chains.cfg"
    ))
    .unwrap();
    let configs = parse_chain_config(&text).unwrap();
    let mut app = Hydra::new(HydraParams::small(6));
    let program = [
        app.chain("vflux", ExtentMode::Safe).unwrap().loops,
        app.chain("iflux", ExtentMode::Safe).unwrap().loops,
    ]
    .concat();
    let vflux = ChainSpec {
        relaxed: true,
        ..configs.iter().find(|c| c.name == "vflux").unwrap().resolve(&program).unwrap()
    };

    let init = app.init_loop();
    let base = rib_partition(app.mesh.node_coords(), 3, 3);
    let own = derive_ownership(&app.mesh.dom, app.mesh.nodes, base, 3);
    let layouts = build_layouts(&app.mesh.dom, &own, 2);
    let out = run_distributed(&mut app.mesh.dom, &layouts, |env| {
        run_loop(env, &init)?;
        run_chain(env, &vflux)?;
        Ok(env.trace.chains[0].d_exchanged)
    })
    .unwrap_results();
    // Five dats grouped, per Table 4.
    for (rank, d) in out.iter().enumerate() {
        if layouts[rank].neighbors.is_empty() {
            continue;
        }
        assert_eq!(*d, 5, "rank {rank}");
    }
}
