//! MG-CFD user kernels.
//!
//! Node-centred compressible Euler: five conserved variables per node
//! (density ρ, momentum ρu⃗, energy ρE), fluxes accumulated over dual
//! edges. The arithmetic follows the shape (operation mix, operand
//! counts) of MG-CFD's kernels; constants are chosen so a few dozen
//! time-marching iterations stay bounded on the synthetic meshes. The
//! reproduction's claims are about communication structure, not
//! aerodynamic accuracy — but the kernels are genuine indirect
//! gather/scatter CFD arithmetic, not placeholders.
//!
//! Argument layouts are documented per kernel; executors resolve them
//! from the access descriptors in [`crate::app`].

use op2_core::{kernel, Args};

/// Number of conserved flow variables.
pub const NVAR: usize = 5;
/// Ratio of specific heats.
pub const GAMMA: f64 = 1.4;
/// Pseudo time-step scale.
pub const CFL: f64 = 0.05;
/// Freestream state (ρ, ρu, ρv, ρw, ρE).
pub const FREESTREAM: [f64; NVAR] = [1.0, 0.3, 0.0, 0.0, 2.5];

/// Pressure from conserved variables.
#[inline]
pub fn pressure(q: &[f64; NVAR]) -> f64 {
    let rho = q[0].max(1e-12);
    let ke = (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / (2.0 * rho);
    (GAMMA - 1.0) * (q[4] - ke)
}

kernel! {
    /// `init_state` — nodes, direct: `q` WRITE. Sets freestream everywhere
    /// with a small smooth perturbation from the node coordinates (`x`
    /// READ) so fluxes are non-trivial.
    pub fn init_state(args: &Args<'_>) [direct(NVAR), direct(3)] {
        let xx = args.get(1, 0);
        let y = args.get(1, 1);
        let z = args.get(1, 2);
        let bump = 0.01 * ((0.37 * xx).sin() + (0.23 * y).cos() + (0.11 * z).sin());
        for (v, &free) in FREESTREAM.iter().enumerate() {
            args.set(0, v, free * (1.0 + bump));
        }
    }

    /// `compute_step_factor` — nodes, direct: `q` READ, `adt` WRITE. The
    /// local pseudo time step from the acoustic speed.
    pub fn compute_step_factor(args: &Args<'_>) [direct(NVAR), direct(1)] {
        let mut q = [0.0; NVAR];
        args.load(0, &mut q);
        let rho = q[0].max(1e-12);
        let p = pressure(&q).max(1e-12);
        let c = (GAMMA * p / rho).sqrt();
        let speed = ((q[1] * q[1] + q[2] * q[2] + q[3] * q[3]).sqrt() / rho) + c;
        args.set(1, 0, CFL / speed.max(1e-12));
    }

    /// `compute_flux_edge` — edges, the hot loop: `q` READ at both nodes
    /// (args 0, 1), `flux` INC at both nodes (args 2, 3). An approximate
    /// Riemann-style symmetric flux difference.
    pub fn compute_flux_edge(args: &Args<'_>) [map(0, NVAR), map(1, NVAR), map(0, NVAR), map(1, NVAR)] {
        let mut qa = [0.0; NVAR];
        let mut qb = [0.0; NVAR];
        args.load(0, &mut qa);
        args.load(1, &mut qb);
        let pa = pressure(&qa);
        let pb = pressure(&qb);
        // Characteristic smoothing factor from both states.
        let rho_a = qa[0].max(1e-12);
        let rho_b = qb[0].max(1e-12);
        let ca = (GAMMA * pa.max(1e-12) / rho_a).sqrt();
        let cb = (GAMMA * pb.max(1e-12) / rho_b).sqrt();
        let lambda = 0.5 * (ca + cb)
            + 0.5 * ((qa[1] / rho_a - qb[1] / rho_b).abs()
                + (qa[2] / rho_a - qb[2] / rho_b).abs()
                + (qa[3] / rho_a - qb[3] / rho_b).abs());
        for v in 0..NVAR {
            // Central flux with scalar dissipation: conservative (what
            // leaves a is gained by b).
            let mut f = 0.5 * (qa[v] + qb[v]) * 0.1 - lambda * (qb[v] - qa[v]);
            if (1..=3).contains(&v) {
                // Pressure contribution to the momentum components.
                f += 0.05 * (pa - pb);
            }
            args.inc(2, v, -f * 0.01);
            args.inc(3, v, f * 0.01);
        }
    }

    /// `boundary_flux` — boundary elements: `q` READ at the wall node
    /// (arg 0, via `b2n`), `flux` INC at it (arg 1). A weak farfield
    /// condition pulling the state back to freestream.
    pub fn boundary_flux(args: &Args<'_>) [map(0, NVAR), map(0, NVAR)] {
        let mut q = [0.0; NVAR];
        args.load(0, &mut q);
        for v in 0..NVAR {
            args.inc(1, v, 0.01 * (FREESTREAM[v] - q[v]));
        }
    }

    /// `time_step` — nodes, direct: `q` RW, `adt` READ, `flux` RW
    /// (consumed and cleared). Forward-Euler pseudo-time update.
    pub fn time_step(args: &Args<'_>) [direct(NVAR), direct(1), direct(NVAR)] {
        let dt = args.get(1, 0);
        for v in 0..NVAR {
            let q = args.get(0, v);
            let f = args.get(2, v);
            args.set(0, v, q + dt * f);
            args.set(2, v, 0.0);
        }
    }

    /// `restrict` — fine nodes: `flux_fine` READ direct (arg 0),
    /// `flux_coarse` INC via the multigrid map (arg 1). Residual
    /// restriction.
    pub fn restrict(args: &Args<'_>) [direct(NVAR), map(0, NVAR)] {
        for v in 0..NVAR {
            args.inc(1, v, 0.125 * args.get(0, v));
        }
    }

    /// `prolong` — fine nodes: `q_fine` RW direct (arg 0), `q_coarse` READ
    /// via the multigrid map (arg 1), blending the coarse correction in.
    pub fn prolong(args: &Args<'_>) [direct(NVAR), map(0, NVAR)] {
        for v in 0..NVAR {
            let qf = args.get(0, v);
            let qc = args.get(1, v);
            args.set(0, v, qf + 0.05 * (qc - qf));
        }
    }

    /// `rms_residual` — nodes, direct: `flux` READ, gbl INC (sum of
    /// squares). The convergence check — a global reduction, i.e. a chain
    /// terminator.
    pub fn rms_residual(args: &Args<'_>) [direct(NVAR), global(1)] {
        let mut s = 0.0;
        for v in 0..NVAR {
            let f = args.get(0, v);
            s += f * f;
        }
        args.inc(1, 0, s);
    }

    /// `calc_dt_min` — nodes, direct: `adt` READ, gbl MIN. The global
    /// time-step bound (OP2's `OP_MIN` reduction — a synchronisation point).
    pub fn calc_dt_min(args: &Args<'_>) [direct(1), global(1)] {
        args.reduce_min(1, 0, args.get(0, 0));
    }

    // --- The synthetic loop-chain pair of §4.1.1. ---

    /// `write_pres` — fine nodes, direct: `dpres` WRITE (arg 0), `q` READ
    /// (arg 1). Refreshes the pair's pressure input from the flow state.
    pub fn write_pres(args: &Args<'_>) [direct(2), direct(NVAR)] {
        let mut q = [0.0; NVAR];
        args.load(1, &mut q);
        args.set(0, 0, pressure(&q));
        args.set(0, 1, q[0]);
    }

    /// `update` — edges: `dres` INC at both nodes (args 0, 1), `dpres` READ
    /// at both nodes (args 2, 3). Mirrors Figure 2's first loop: dirties
    /// `dres` each repetition.
    pub fn update(args: &Args<'_>) [map(0, 2), map(1, 2), map(0, 2), map(1, 2)] {
        args.inc(0, 0, args.get(2, 0) - args.get(2, 1));
        args.inc(0, 1, args.get(3, 0) - args.get(3, 1));
        args.inc(1, 0, args.get(3, 1) - args.get(3, 0));
        args.inc(1, 1, args.get(2, 1) - args.get(2, 0));
    }

    /// `edge_flux` — edges: `dres` READ at both nodes (args 0, 1), `dflux`
    /// INC at both nodes (args 2, 3). A structural replica of
    /// `compute_flux_edge`'s access pattern (the most expensive loop in
    /// MG-CFD), reading the dat the preceding `update` dirtied — the target
    /// pattern for sparse tiling (§4.1.1).
    pub fn edge_flux(args: &Args<'_>) [map(0, 2), map(1, 2), map(0, 2), map(1, 2)] {
        let r0 = args.get(0, 0);
        let r1 = args.get(0, 1);
        let s0 = args.get(1, 0);
        let s1 = args.get(1, 1);
        args.inc(2, 0, r0 * 0.4 - r1 * 0.1);
        args.inc(2, 1, s1 * 0.3 - r0 * 0.2);
        args.inc(3, 0, s1 * 0.3 - r1 * 0.2);
        args.inc(3, 1, r0 * 0.4 - s0 * 0.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::kernel::ArgSlot;
    use op2_core::{AccessMode, KernelFn};

    fn slots(bufs: &mut [(&mut [f64], AccessMode)]) -> Vec<ArgSlot> {
        bufs.iter_mut()
            .map(|(b, m)| ArgSlot {
                ptr: b.as_mut_ptr(),
                dim: b.len() as u32,
                mode: *m,
            })
            .collect()
    }

    #[test]
    fn pressure_of_freestream_positive() {
        let p = pressure(&FREESTREAM);
        assert!(p > 0.0, "freestream pressure {p}");
    }

    #[test]
    fn flux_edge_is_conservative_in_mass() {
        // The mass component (v=0) carries no pressure term: what one
        // node gains the other loses exactly.
        let mut qa = FREESTREAM;
        let mut qb = FREESTREAM;
        qb[0] = 1.1;
        let mut fa = [0.0; NVAR];
        let mut fb = [0.0; NVAR];
        {
            let mut bufs: [(&mut [f64], AccessMode); 4] = [
                (&mut qa, AccessMode::Read),
                (&mut qb, AccessMode::Read),
                (&mut fa, AccessMode::Inc),
                (&mut fb, AccessMode::Inc),
            ];
            let s = slots(&mut bufs);
            compute_flux_edge.call(&Args::new(&s));
        }
        assert!((fa[0] + fb[0]).abs() < 1e-14, "mass not conserved");
        assert!(fa[0] != 0.0, "flux must be non-trivial");
    }

    #[test]
    fn step_factor_positive_and_finite() {
        let mut q = FREESTREAM;
        let mut adt = [0.0];
        let mut bufs: [(&mut [f64], AccessMode); 2] = [
            (&mut q, AccessMode::Read),
            (&mut adt, AccessMode::Write),
        ];
        let s = slots(&mut bufs);
        compute_step_factor.call(&Args::new(&s));
        assert!(adt[0] > 0.0 && adt[0].is_finite());
    }

    #[test]
    fn time_step_consumes_flux() {
        let mut q = FREESTREAM;
        let mut adt = [0.5];
        let mut flux = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut bufs: [(&mut [f64], AccessMode); 3] = [
            (&mut q, AccessMode::Rw),
            (&mut adt, AccessMode::Read),
            (&mut flux, AccessMode::Rw),
        ];
        let s = slots(&mut bufs);
        time_step.call(&Args::new(&s));
        assert_eq!(q[0], FREESTREAM[0] + 0.5);
        assert!(flux.iter().all(|&f| f == 0.0), "flux must be cleared");
    }

    #[test]
    fn update_matches_figure2() {
        // Hand-roll Figure 2's arithmetic for one edge.
        let mut res1 = [0.0, 0.0];
        let mut res2 = [0.0, 0.0];
        let mut p1 = [3.0, 1.0];
        let mut p2 = [5.0, 2.0];
        let mut bufs: [(&mut [f64], AccessMode); 4] = [
            (&mut res1, AccessMode::Inc),
            (&mut res2, AccessMode::Inc),
            (&mut p1, AccessMode::Read),
            (&mut p2, AccessMode::Read),
        ];
        let s = slots(&mut bufs);
        update.call(&Args::new(&s));
        assert_eq!(res1, [3.0 - 1.0, 5.0 - 2.0]);
        assert_eq!(res2, [2.0 - 5.0, 1.0 - 3.0]);
    }
}
