//! Sequential reference executor.
//!
//! Runs a parallel loop over the *global* domain on one thread, in set
//! order. Every other back-end (distributed Alg 1, CA Alg 2, simulated
//! GPU) is tested against this executor: for the order-independent kernels
//! the abstraction admits, results must agree to machine precision — and
//! the test-suite in fact demands exact equality on meshes where each
//! increment sequence is identical.
//!
//! Since the [`crate::schedule`] refactor this module is a thin facade:
//! argument resolution and kernel invocation live in
//! [`crate::schedule::BoundLoop`], and every entry point here lowers to a
//! degenerate one-level [`crate::schedule::Schedule`]. There is no second
//! execution loop.

use crate::domain::Domain;
use crate::loops::LoopSpec;
use crate::schedule::{run_loop_schedule, Schedule};

/// Result of one loop execution: the final values of every global
/// argument (constants come back unchanged, reductions hold the sum).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoopResult {
    /// One buffer per [`crate::access::GblDecl`], in declaration order.
    pub gbls: Vec<Vec<f64>>,
}

/// Execute `spec` over the whole domain. Panics (debug) on descriptor
/// misuse; validate with [`LoopSpec::validate`] first for graceful errors.
pub fn run_loop(dom: &mut Domain, spec: &LoopSpec) -> LoopResult {
    let n_iter = dom.set(spec.set).size;
    run_loop_range(dom, spec, 0, n_iter)
}

/// Execute `spec` over iterations `[start, end)` of its set — the building
/// block the distributed executors share (core / halo segments are ranges
/// after renumbering).
pub fn run_loop_range(dom: &mut Domain, spec: &LoopSpec, start: usize, end: usize) -> LoopResult {
    run_loop_schedule(dom, spec, &Schedule::range(start, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessMode, Arg, GblDecl};
    use crate::kernel::Args;

    /// Figure 2's `update` kernel on the Figure 1 mesh shape: edges
    /// increment node residuals from node pressures.
    fn update_kernel(args: &Args<'_>) {
        // args: res1 INC, res2 INC, pres1 READ, pres2 READ (dim 2 each)
        args.inc(0, 0, args.get(2, 0) - args.get(2, 1));
        args.inc(0, 1, args.get(3, 0) - args.get(3, 1));
        args.inc(1, 0, args.get(3, 1) - args.get(3, 0));
        args.inc(1, 1, args.get(2, 1) - args.get(2, 0));
    }

    #[test]
    fn indirect_increment_matches_hand_rolled() {
        // Path graph: 3 nodes, 2 edges.
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 3);
        let edges = dom.decl_set("edges", 2);
        let e2n = dom
            .decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2])
            .unwrap();
        let pres = dom.decl_dat("pres", nodes, 2, vec![1.0, 2.0, 3.0, 5.0, 8.0, 13.0]);
        let res = dom.decl_dat_zeros("res", nodes, 2);

        let spec = LoopSpec::new(
            "update",
            edges,
            vec![
                Arg::dat_indirect(res, e2n, 0, AccessMode::Inc),
                Arg::dat_indirect(res, e2n, 1, AccessMode::Inc),
                Arg::dat_indirect(pres, e2n, 0, AccessMode::Read),
                Arg::dat_indirect(pres, e2n, 1, AccessMode::Read),
            ],
            update_kernel,
        );
        spec.validate(&dom).unwrap();
        run_loop(&mut dom, &spec);

        // Hand-rolled expectation.
        let p = [1.0, 2.0, 3.0, 5.0, 8.0, 13.0];
        let mut expect = [0.0; 6];
        for (a, b) in [(0usize, 1usize), (1, 2)] {
            expect[2 * a] += p[2 * a] - p[2 * a + 1];
            expect[2 * a + 1] += p[2 * b] - p[2 * b + 1];
            expect[2 * b] += p[2 * b + 1] - p[2 * b];
            expect[2 * b + 1] += p[2 * a + 1] - p[2 * a];
        }
        assert_eq!(dom.dat(res).data.as_slice(), &expect);
    }

    fn sumsq_kernel(args: &Args<'_>) {
        let v = args.get(0, 0);
        args.inc(1, 0, v * v);
    }

    #[test]
    fn global_reduction_sums() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 4);
        let x = dom.decl_dat("x", nodes, 1, vec![1.0, 2.0, 3.0, 4.0]);
        let spec = LoopSpec::with_gbls(
            "sumsq",
            nodes,
            vec![
                Arg::dat_direct(x, AccessMode::Read),
                Arg::gbl(0, AccessMode::Inc),
            ],
            vec![GblDecl::reduction(1)],
            sumsq_kernel,
        );
        spec.validate(&dom).unwrap();
        let res = run_loop(&mut dom, &spec);
        assert_eq!(res.gbls[0], vec![30.0]);
    }

    fn scale_kernel(args: &Args<'_>) {
        let factor = args.get(1, 0);
        args.set(0, 0, args.get(0, 0) * factor);
    }

    #[test]
    fn constant_gbl_and_range_execution() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 4);
        let x = dom.decl_dat("x", nodes, 1, vec![1.0, 1.0, 1.0, 1.0]);
        let spec = LoopSpec::with_gbls(
            "scale",
            nodes,
            vec![
                Arg::dat_direct(x, AccessMode::Rw),
                Arg::gbl(0, AccessMode::Read),
            ],
            vec![GblDecl::constant(&[3.0])],
            scale_kernel,
        );
        // Only iterations 1..3.
        run_loop_range(&mut dom, &spec, 1, 3);
        assert_eq!(dom.dat(x).data, vec![1.0, 3.0, 3.0, 1.0]);
    }
}
