//! Hydra-style user kernels.
//!
//! Compact RANS-flavoured arithmetic with the access structure of the
//! loops in Tables 3–4. Two properties matter for the CA back-end and
//! are upheld throughout:
//!
//! * loops that execute redundantly over halo layers use only
//!   *commutative, associative* per-target updates (sums and products),
//!   so execution order changes results only in the last bits;
//! * loops over the periodic / boundary / centreline sets touch each
//!   target node at most once (each node belongs to at most one periodic
//!   edge, one wall element, one centreline element), so their
//!   read-modify-write updates are deterministic.
//!
//! Argument layouts (indices into [`Args`]) are listed per kernel.

use op2_core::{kernel, Args};

/// Flow-state width (ρ, ρu, ρv, ρw, ρE).
pub const NQ: usize = 5;

kernel! {
    // ---------- initialisation ----------

    /// `init_fields` — nodes, direct: `qo`, `vol`, `qp`, `ql`, `qmu`,
    /// `qrg`, `xp`, `vres`, `ires`, `jac`, `jaca` WRITE (args 0–10), `x`
    /// READ (arg 11). Initialises every field from the coordinates.
    pub fn init_fields(args: &Args<'_>) [
        direct(2), direct(1), direct(NQ), direct(NQ), direct(1), direct(1),
        direct(3), direct(NQ), direct(1), direct(4), direct(4), direct(3),
    ] {
        let x0 = args.get(11, 0);
        let x1 = args.get(11, 1);
        let x2 = args.get(11, 2);
        let r = (x0 * x0 + x1 * x1).sqrt();
        args.set(0, 0, 1.0 + 0.1 * r); // qo
        args.set(0, 1, 0.5);
        args.set(1, 0, 0.8 + 0.2 * r); // vol
        for v in 0..NQ {
            args.set(2, v, 1.0 + 0.05 * (v as f64) * r); // qp
            args.set(3, v, 0.5 + 0.01 * x2); // ql
            args.set(7, v, 0.0); // vres
        }
        args.set(4, 0, 1.0); // qmu
        args.set(5, 0, 0.2 + 0.1 * r); // qrg
        for c in 0..3 {
            args.set(6, c, args.get(11, c)); // xp = x
        }
        args.set(8, 0, 0.0); // ires
        for v in 0..4 {
            args.set(9, v, if v == 0 || v == 3 { 1.0 } else { 0.0 }); // jac
            args.set(10, v, 0.5); // jaca
        }
    }

    // ---------- weight chain (setup) ----------

    /// `sumbwts` — bnd: `qo` INC (arg 0, via bnd2n), `x` READ (arg 1).
    /// Accumulates boundary weights.
    pub fn sumbwts(args: &Args<'_>) [map(0, 2), map(0, 3)] {
        let r = (args.get(1, 0).powi(2) + args.get(1, 1).powi(2)).sqrt();
        args.inc(0, 0, 0.5 * r);
        args.inc(0, 1, 0.25);
    }

    /// `periodsym` — pedges: `qo` RW at both matched nodes (args 0, 1).
    /// Symmetrises weights across the periodic planes; every node belongs
    /// to exactly one periodic edge, so the update is deterministic.
    pub fn periodsym(args: &Args<'_>) [map(0, 2), map(1, 2)] {
        for c in 0..2 {
            let avg = 0.5 * (args.get(0, c) + args.get(1, c));
            args.set(0, c, avg);
            args.set(1, c, avg);
        }
    }

    /// `centreline` — cbnd: `qo` WRITE (arg 0, via c2n). Pins centreline
    /// weights.
    pub fn centreline(args: &Args<'_>) [map(0, 2)] {
        args.set(0, 0, 1.0);
        args.set(0, 1, 0.0);
    }

    /// `edgelength` — edges: `qo` RW at both nodes (args 0, 1), `x` READ at
    /// both nodes (args 2, 3). Scales weights by edge length —
    /// multiplicative, hence order-independent per node.
    pub fn edgelength(args: &Args<'_>) [map(0, 2), map(1, 2), map(0, 3), map(1, 3)] {
        let mut len2 = 0.0;
        for c in 0..3 {
            let d = args.get(2, c) - args.get(3, c);
            len2 += d * d;
        }
        let f = 1.0 - 0.01 * len2.sqrt().min(1.0);
        for (a, c) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
            args.set(a, c, args.get(a, c) * f);
        }
    }

    /// `periodicity` — pedges: `qo` RW at both matched nodes (args 0, 1).
    /// Re-applies the periodic constraint after the edge sweep.
    pub fn periodicity(args: &Args<'_>) [map(0, 2), map(1, 2)] {
        for c in 0..2 {
            let avg = 0.5 * (args.get(0, c) + args.get(1, c));
            args.set(0, c, avg);
            args.set(1, c, avg);
        }
    }

    // ---------- period chain (setup) ----------

    /// `negflag` — pedges: `vol` RW at both matched nodes (args 0, 1).
    /// Hydra flags periodic volumes by sign; flipping twice (the chain runs
    /// it at entry and exit) restores them.
    pub fn negflag(args: &Args<'_>) [map(0, 1), map(1, 1)] {
        args.set(0, 0, -args.get(0, 0));
        args.set(1, 0, -args.get(1, 0));
    }

    /// `limxp` — edges: `qo` RW at both nodes (args 0, 1), `vol` READ at
    /// both nodes (args 2, 3). A limiter sweep: multiplicative damping by
    /// the volume ratio.
    pub fn limxp(args: &Args<'_>) [map(0, 2), map(1, 2), map(0, 1), map(1, 1)] {
        let va = args.get(2, 0).abs().max(1e-9);
        let vb = args.get(3, 0).abs().max(1e-9);
        let ratio = (va.min(vb) / va.max(vb)).sqrt();
        let f = 0.999 + 0.001 * ratio;
        for (a, c) in [(0usize, 0usize), (0, 1), (1, 0), (1, 1)] {
            args.set(a, c, args.get(a, c) * f);
        }
    }

    // ---------- gradl chain ----------

    /// `edgecon` — edges: `qp` INC at both nodes (args 0, 1), `ql` INC at
    /// both nodes (args 2, 3), `vol` READ at both nodes (args 4, 5).
    /// Gradient edge contributions.
    pub fn edgecon(args: &Args<'_>) [
        map(0, NQ), map(1, NQ), map(0, NQ), map(1, NQ), map(0, 1), map(1, 1),
    ] {
        let w = 1.0 / (args.get(4, 0).abs() + args.get(5, 0).abs() + 1.0);
        for v in 0..NQ {
            args.inc(0, v, 1e-4 * w);
            args.inc(1, v, -1e-4 * w);
            args.inc(2, v, 5e-5 * w);
            args.inc(3, v, -5e-5 * w);
        }
    }

    /// `period` — pedges: `qp` RW at both matched nodes (args 0, 1), `ql`
    /// RW at both matched nodes (args 2, 3). Periodic gradient fix-up.
    pub fn period(args: &Args<'_>) [map(0, NQ), map(1, NQ), map(0, NQ), map(1, NQ)] {
        for v in 0..NQ {
            let ap = 0.5 * (args.get(0, v) + args.get(1, v));
            args.set(0, v, ap);
            args.set(1, v, ap);
            let al = 0.5 * (args.get(2, v) + args.get(3, v));
            args.set(2, v, al);
            args.set(3, v, al);
        }
    }

    // ---------- vflux chain ----------

    /// `initres` — nodes, direct: `vres` WRITE. Zero the viscous residual.
    pub fn initres(args: &Args<'_>) [direct(NQ)] {
        for v in 0..NQ {
            args.set(0, v, 0.0);
        }
    }

    /// `vflux_edge` — edges, the most expensive Hydra loop (18% of
    /// runtime): reads `qp`, `xp`, `ql`, `qmu`, `qrg` at both nodes (args
    /// 0–9), `vres` INC at both nodes (args 10, 11). Viscous flux with a
    /// deformation-weighted diffusion.
    pub fn vflux_edge(args: &Args<'_>) [
        map(0, NQ), map(1, NQ), map(0, 3), map(1, 3), map(0, NQ), map(1, NQ),
        map(0, 1), map(1, 1), map(0, 1), map(1, 1), map(0, NQ), map(1, NQ),
    ] {
        // Geometric weight from the deformed coordinates.
        let mut dist2 = 0.0;
        for c in 0..3 {
            let d = args.get(2, c) - args.get(3, c);
            dist2 += d * d;
        }
        let geo = 1.0 / (dist2 + 1.0);
        let mu = 0.5 * (args.get(6, 0) + args.get(7, 0));
        let rg = 0.5 * (args.get(8, 0) + args.get(9, 0));
        let coef = geo * (mu + 0.1 * rg);
        for v in 0..NQ {
            let dq = args.get(1, v) - args.get(0, v);
            let dl = args.get(5, v) - args.get(4, v);
            let f = coef * (dq + 0.3 * dl) * 1e-3;
            args.inc(10, v, f);
            args.inc(11, v, -f);
        }
    }

    // ---------- iflux chain ----------

    /// `initviscres` — nodes, direct: `ires` WRITE.
    pub fn initviscres(args: &Args<'_>) [direct(1)] {
        args.set(0, 0, 0.0);
    }

    /// `iflux_edge` — edges: `qrg` READ at both nodes (args 0, 1), `ires`
    /// INC at both nodes (args 2, 3). Inviscid smoothing flux.
    pub fn iflux_edge(args: &Args<'_>) [map(0, 1), map(1, 1), map(0, 1), map(1, 1)] {
        let f = 1e-3 * (args.get(1, 0) - args.get(0, 0));
        args.inc(2, 0, f);
        args.inc(3, 0, -f);
    }

    // ---------- jacob chain ----------

    /// `jac_period` — pedges: `jac` RW (args 0, 1) and `jaca` RW (args 2,
    /// 3) at both matched nodes. Periodic Jacobian symmetrisation.
    pub fn jac_period(args: &Args<'_>) [map(0, 4), map(1, 4), map(0, 4), map(1, 4)] {
        for v in 0..4 {
            let j = 0.5 * (args.get(0, v) + args.get(1, v));
            args.set(0, v, j);
            args.set(1, v, j);
            let ja = 0.5 * (args.get(2, v) + args.get(3, v));
            args.set(2, v, ja);
            args.set(3, v, ja);
        }
    }

    /// `jac_centreline` — cbnd: `jac` WRITE (arg 0, via c2n). Pins the
    /// centreline Jacobian block to identity.
    pub fn jac_centreline(args: &Args<'_>) [map(0, 4)] {
        args.set(0, 0, 1.0);
        args.set(0, 1, 0.0);
        args.set(0, 2, 0.0);
        args.set(0, 3, 1.0);
    }

    /// `jac_corrections` — bnd: `jac` RW (arg 0, via bnd2n). Wall
    /// corrections; each wall node appears exactly once in `bnd`.
    pub fn jac_corrections(args: &Args<'_>) [map(0, 4)] {
        for v in 0..4 {
            let j = args.get(0, v);
            args.set(0, v, 0.9 * j + if v == 0 || v == 3 { 0.1 } else { 0.0 });
        }
    }

    // ---------- glue loops (outside the benchmarked chains) ----------

    /// `update_state` — nodes, direct: `qp` RW, `ql` WRITE, `qmu` WRITE,
    /// `qrg` WRITE, `xp` WRITE, `qo` READ, `x` READ. Refreshes (and
    /// dirties) every dat the vflux chain exchanges — the per-iteration
    /// producer that makes those halos dirty, as in the real solver.
    pub fn update_state(args: &Args<'_>) [
        direct(NQ), direct(NQ), direct(1), direct(1), direct(3), direct(2), direct(3),
    ] {
        let w0 = args.get(5, 0);
        for v in 0..NQ {
            let qp = args.get(0, v);
            args.set(0, v, qp * 0.999 + 0.001 * w0);
            args.set(1, v, qp * 0.5);
        }
        let qp0 = args.get(0, 0);
        args.set(2, 0, 0.9 + 0.1 * qp0.abs().min(2.0));
        args.set(3, 0, qp0 * 0.25);
        for c in 0..3 {
            args.set(4, c, args.get(6, c) * (1.0 + 1e-4 * qp0));
        }
    }

    /// `smooth_rg` — nodes, direct: `qrg` RW, `ires` READ. Re-dirties `qrg`
    /// between the vflux and iflux chains (Hydra's gradient smoother), so
    /// iflux genuinely exchanges it, per Table 4.
    pub fn smooth_rg(args: &Args<'_>) [direct(1), direct(1)] {
        args.set(0, 0, args.get(0, 0) * 0.995 + 0.01 * args.get(1, 0));
    }

    /// `jac_assemble` — nodes, direct: `jac` WRITE, `jaca` WRITE, `qp`
    /// READ. Builds (and dirties) the Jacobian blocks before the jacob
    /// chain.
    pub fn jac_assemble(args: &Args<'_>) [direct(4), direct(4), direct(NQ)] {
        let q0 = args.get(2, 0);
        let q1 = args.get(2, 1);
        for v in 0..4 {
            let j = if v == 0 || v == 3 { 1.0 + 0.01 * q0 } else { 0.005 * q1 };
            args.set(0, v, j);
            args.set(1, v, 0.5 * j);
        }
    }

    /// `rk_accumulate` — nodes, direct: `qp` RW, `vres` READ, `ires` READ,
    /// `jac` READ. The Runge–Kutta stage update consuming the residuals.
    pub fn rk_accumulate(args: &Args<'_>) [direct(NQ), direct(NQ), direct(1), direct(4)] {
        let damp = args.get(3, 0).clamp(0.5, 2.0);
        let ir = args.get(2, 0);
        for v in 0..NQ {
            let qp = args.get(0, v);
            args.set(0, v, qp + (args.get(1, v) + 0.2 * ir) / damp * 0.1);
        }
    }

    /// `residual_norm` — nodes, direct: `vres` READ, gbl INC. The
    /// convergence monitor (a global reduction — chain terminator).
    pub fn residual_norm(args: &Args<'_>) [direct(NQ), global(1)] {
        let mut s = 0.0;
        for v in 0..NQ {
            let r = args.get(0, v);
            s += r * r;
        }
        args.inc(1, 0, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use op2_core::kernel::ArgSlot;
    use op2_core::{AccessMode, KernelFn};

    fn run<const N: usize>(
        kernel: impl KernelFn,
        bufs: &mut [(&mut [f64], AccessMode); N],
    ) {
        let slots: Vec<ArgSlot> = bufs
            .iter_mut()
            .map(|(b, m)| ArgSlot {
                ptr: b.as_mut_ptr(),
                dim: b.len() as u32,
                mode: *m,
            })
            .collect();
        kernel.call(&Args::new(&slots));
    }

    #[test]
    fn periodsym_symmetrises() {
        let mut a = [1.0, 3.0];
        let mut b = [3.0, 1.0];
        run(periodsym, &mut [(&mut a, AccessMode::Rw), (&mut b, AccessMode::Rw)]);
        assert_eq!(a, [2.0, 2.0]);
        assert_eq!(b, [2.0, 2.0]);
    }

    #[test]
    fn negflag_is_involutive() {
        let mut a = [1.5];
        let mut b = [-2.5];
        run(negflag, &mut [(&mut a, AccessMode::Rw), (&mut b, AccessMode::Rw)]);
        run(negflag, &mut [(&mut a, AccessMode::Rw), (&mut b, AccessMode::Rw)]);
        assert_eq!(a, [1.5]);
        assert_eq!(b, [-2.5]);
    }

    #[test]
    fn iflux_edge_antisymmetric() {
        let mut ra = [1.0];
        let mut rb = [3.0];
        let mut ia = [0.0];
        let mut ib = [0.0];
        run(
            iflux_edge,
            &mut [
                (&mut ra, AccessMode::Read),
                (&mut rb, AccessMode::Read),
                (&mut ia, AccessMode::Inc),
                (&mut ib, AccessMode::Inc),
            ],
        );
        assert!((ia[0] + ib[0]).abs() < 1e-15);
        assert!(ia[0] > 0.0);
    }

    #[test]
    fn vflux_edge_conserves() {
        let mut qp_a = [1.0, 0.2, 0.0, 0.0, 2.0];
        let mut qp_b = [1.1, 0.1, 0.0, 0.0, 2.1];
        let mut xp_a = [0.0, 0.0, 0.0];
        let mut xp_b = [1.0, 0.0, 0.0];
        let mut ql_a = [0.5; 5];
        let mut ql_b = [0.6; 5];
        let mut mu_a = [1.0];
        let mut mu_b = [1.2];
        let mut rg_a = [0.3];
        let mut rg_b = [0.4];
        let mut va = [0.0; 5];
        let mut vb = [0.0; 5];
        run(
            vflux_edge,
            &mut [
                (&mut qp_a, AccessMode::Read),
                (&mut qp_b, AccessMode::Read),
                (&mut xp_a, AccessMode::Read),
                (&mut xp_b, AccessMode::Read),
                (&mut ql_a, AccessMode::Read),
                (&mut ql_b, AccessMode::Read),
                (&mut mu_a, AccessMode::Read),
                (&mut mu_b, AccessMode::Read),
                (&mut rg_a, AccessMode::Read),
                (&mut rg_b, AccessMode::Read),
                (&mut va, AccessMode::Inc),
                (&mut vb, AccessMode::Inc),
            ],
        );
        for v in 0..NQ {
            assert!((va[v] + vb[v]).abs() < 1e-15, "component {v}");
        }
        assert!(va.iter().any(|&f| f != 0.0));
    }

    #[test]
    fn jac_centreline_writes_identity() {
        let mut j = [9.0, 9.0, 9.0, 9.0];
        run(jac_centreline, &mut [(&mut j, AccessMode::Write)]);
        assert_eq!(j, [1.0, 0.0, 0.0, 1.0]);
    }
}
