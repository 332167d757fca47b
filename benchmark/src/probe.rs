//! The host probe: a fixed kernel the benchmark owns, timed between the
//! time-march iterations it measures.
//!
//! The host this benchmark is judged on gives it two cores of a shared
//! machine, and the speed of those cores moves: for seconds to many
//! minutes at a time every kernel of a workload runs 1.5x, 2x or 4.5x
//! slower, on one core or on both, while nothing in the guest changes
//! (see "Noise on a shared host" in the README). No statistic of the raw
//! wall-clocks of a 15-60 s run survives that. So every thread that
//! executes a workload also times this probe every few iterations. How
//! much slower than nominal the probes around a measured time ran is the
//! host's slowdown; the measured time divided by the slowdown (to a
//! power fitted per workload, see [`ProbeSpec::sensitivity`]) is the time
//! the code would have taken at the host's nominal speed. That quotient
//! is what the end-to-end timings report, and the raw medians and the
//! slowdown are kept beside them.
//!
//! The probe is shaped like what it stands in for, an edge-based flux
//! kernel over a graph: two indirect reads of five doubles, three square
//! roots, two divisions and some sixty flops per edge, two indirect
//! increments, over a few megabytes that the workload's own iteration
//! has pushed out of L2 by the time the probe runs again. The slow
//! periods hit the memory system, not the clock: a probe that stays in L1
//! barely notices a period in which `mgcfd-compute` runs 2x slower. It
//! depends on nothing in `crates/`, so no change to the repo moves it,
//! and its inputs are fixed (not drawn from `--seed`), so it is the same
//! work in every run.

use crate::host;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

const VARS: usize = 5;
const EDGES_PER_NODE: usize = 3;

/// The host probe of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSpec {
    /// Nodes of the probe's graph; it has three edges per node, as a
    /// hexahedral mesh has, and takes 176 bytes per node.
    pub nodes: usize,
    /// A probe runs before every `every`-th time-march iteration (and
    /// after the last).
    pub every: usize,
    /// Edges join nearby node numbers (strides 1, 32, 1024), like a
    /// generator-numbered mesh, instead of random ones, like a shuffled
    /// mesh.
    pub local: bool,
    /// Nanoseconds per edge on the reference host (Xeon 2.1 GHz guest,
    /// two cores) while it is undisturbed, as measured inside the
    /// workload's worlds: with one core busy, and with both. Only the
    /// ratio to it matters: on another machine the normalised times are
    /// "milliseconds at the reference host's speed" (to re-base them,
    /// multiply by the `host_slowdown_p50` of a run on the idle machine).
    pub nominal_ns_per_edge: [f64; 2],
    /// How much more a pass of the workload slows down than the probe
    /// does when the host slows: a measured time is divided by the
    /// probes' slowdown to this power. For the sequential walk and for
    /// the worlds; fitted over runs that met both speeds of the host (see
    /// "Noise on a shared host" in the README).
    pub sensitivity: [f64; 2],
}

pub struct Probe {
    state: Vec<[f64; VARS]>,
    residual: Vec<[f64; VARS]>,
    edges: Vec<[u32; 2]>,
    weights: Vec<[f64; 3]>,
    nominal_ns: f64,
}

/// xorshift64: the probe's graph must not depend on any crate.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

impl Probe {
    /// A probe for a thread that is one of `cores_busy` running the
    /// workload at once.
    pub fn new(spec: &ProbeSpec, cores_busy: usize) -> Self {
        let nominal_ns_per_edge = spec.nominal_ns_per_edge[cores_busy.clamp(1, 2) - 1];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let (nodes, n_edges) = (spec.nodes, spec.nodes * EDGES_PER_NODE);
        let unit = |rng: &mut u64| (next(rng) >> 11) as f64 / (1u64 << 53) as f64;
        let mut probe = Probe {
            state: (0..nodes)
                .map(|_| {
                    let rho = 1.0 + 0.1 * unit(&mut rng);
                    let m = [0.3 * unit(&mut rng), 0.2 * unit(&mut rng), 0.1];
                    [rho, m[0], m[1], m[2], 2.5 + 0.1 * unit(&mut rng)]
                })
                .collect(),
            residual: vec![[0.0; VARS]; nodes],
            edges: (0..n_edges)
                .map(|e| {
                    if spec.local {
                        let a = e / EDGES_PER_NODE;
                        let stride = [1, 32, 1024][e % EDGES_PER_NODE];
                        [a as u32, ((a + stride) % nodes) as u32]
                    } else {
                        [
                            (next(&mut rng) % nodes as u64) as u32,
                            (next(&mut rng) % nodes as u64) as u32,
                        ]
                    }
                })
                .collect(),
            weights: (0..n_edges)
                .map(|_| {
                    [
                        unit(&mut rng) - 0.5,
                        unit(&mut rng) - 0.5,
                        unit(&mut rng) - 0.5,
                    ]
                })
                .collect(),
            nominal_ns: nominal_ns_per_edge * n_edges as f64,
        };
        // Fault the arrays in and fill the caches: the first timed run
        // is to be like every other.
        probe.run();
        probe
    }

    /// Sweep the edges once; returns the time it took as a multiple of
    /// what it takes on the undisturbed reference host.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        for (e, w) in self.edges.iter().zip(&self.weights) {
            let (a, b) = (e[0] as usize, e[1] as usize);
            let flux = edge_flux(&self.state[a], &self.state[b], w);
            for (v, f) in flux.iter().enumerate() {
                self.residual[a][v] += f;
                self.residual[b][v] -= f;
            }
        }
        std::hint::black_box(&mut self.residual);
        t.elapsed().as_nanos() as f64 / self.nominal_ns
    }
}

/// A Rusanov-style flux between two states across the face `w`.
#[inline(always)]
fn edge_flux(qa: &[f64; VARS], qb: &[f64; VARS], w: &[f64; 3]) -> [f64; VARS] {
    const GAMMA: f64 = 1.4;
    let side = |q: &[f64; VARS]| {
        let inv_rho = 1.0 / q[0];
        let u = [q[1] * inv_rho, q[2] * inv_rho, q[3] * inv_rho];
        let ke = 0.5 * (q[1] * u[0] + q[2] * u[1] + q[3] * u[2]);
        let p = (GAMMA - 1.0) * (q[4] - ke);
        let un = u[0] * w[0] + u[1] * w[1] + u[2] * w[2];
        let c = (GAMMA * p * inv_rho).abs().sqrt();
        (p, un, c)
    };
    let (pa, una, ca) = side(qa);
    let (pb, unb, cb) = side(qb);
    let area = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt();
    let lambda = 0.5 * ((una.abs() + ca * area).max(unb.abs() + cb * area));
    let p_sum = 0.5 * (pa + pb);
    let mut f = [0.0; VARS];
    f[0] = 0.5 * (qa[0] * una + qb[0] * unb) - lambda * (qb[0] - qa[0]);
    for d in 0..3 {
        f[1 + d] = 0.5 * (qa[1 + d] * una + qb[1 + d] * unb) + p_sum * w[d]
            - lambda * (qb[1 + d] - qa[1 + d]);
    }
    f[4] = 0.5 * ((qa[4] + pa) * una + (qb[4] + pb) * unb) - lambda * (qb[4] - qa[4]);
    f
}

/// A probe on another core of the same rank, on a thread of its own that
/// sleeps between probes.
struct Helper {
    request: Option<mpsc::Sender<()>>,
    reply: mpsc::Receiver<f64>,
    /// Returns whether the thread could be pinned.
    thread: Option<JoinHandle<bool>>,
}

impl Helper {
    fn spawn(spec: ProbeSpec, cores_busy: usize, core: usize) -> Self {
        let (request, requests) = mpsc::channel::<()>();
        let (replies, reply) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            let pinned = host::pin_current_thread(core);
            let mut probe = Probe::new(&spec, cores_busy);
            while requests.recv().is_ok() && replies.send(probe.run()).is_ok() {}
            pinned
        });
        Helper {
            request: Some(request),
            reply,
            thread: Some(thread),
        }
    }

    /// Hang up and wait for the thread; true when it was pinned.
    fn join(&mut self) -> bool {
        self.request = None;
        self.thread
            .take()
            .is_some_and(|t| t.join().unwrap_or(false))
    }
}

impl Drop for Helper {
    fn drop(&mut self) {
        self.join();
    }
}

/// The probes of one rank: one on the calling thread and one per further
/// core its pool workers compute on, all run at once, as the workload
/// runs on all of them at once.
pub struct RankProbes {
    own: Probe,
    helpers: Vec<Helper>,
}

impl RankProbes {
    /// Probes for a rank of a world that keeps `cores_busy` cores busy,
    /// the calling thread's and one on each of `helper_cores`.
    pub fn new(spec: &ProbeSpec, cores_busy: usize, helper_cores: std::ops::Range<usize>) -> Self {
        RankProbes {
            own: Probe::new(spec, cores_busy),
            helpers: helper_cores
                .map(|c| Helper::spawn(*spec, cores_busy, c))
                .collect(),
        }
    }

    /// Probe every core; returns the slowest core's time over nominal.
    pub fn run(&mut self) -> f64 {
        for h in &self.helpers {
            if let Some(request) = &h.request {
                let _ = request.send(());
            }
        }
        let own = self.own.run();
        self.helpers
            .iter()
            .filter_map(|h| h.reply.recv().ok())
            .fold(own, f64::max)
    }

    /// Stop the helper threads; true when each was pinned to its core.
    pub fn finish(mut self) -> bool {
        self.helpers.iter_mut().all(Helper::join)
    }
}

/// How much slower than nominal the host ran during each block of
/// iterations, from the probes around it.
///
/// `per_thread[t][k]` is thread `t`'s `k`-th probe time over its
/// nominal; probe `k` ran right before block `k`, probe `k + 1` right
/// after it. Threads that execute one workload wait for one another
/// every few calls, so the slowest thread sets the pace: the factor of a
/// block is the mean of (the slowest thread's ratio before) and (the
/// slowest thread's ratio after).
pub fn block_factors(per_thread: &[Vec<f64>]) -> Vec<f64> {
    let n = per_thread.iter().map(Vec::len).min().unwrap_or(0);
    let slowest: Vec<f64> = (0..n)
        .map(|k| per_thread.iter().map(|t| t[k]).fold(f64::MIN, f64::max))
        .collect();
    slowest.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(local: bool) -> ProbeSpec {
        ProbeSpec {
            nodes: 2000,
            every: 1,
            local,
            nominal_ns_per_edge: [30.0, 40.0],
            sensitivity: [1.0, 1.0],
        }
    }

    #[test]
    fn probe_is_the_same_work_every_time() {
        for local in [false, true] {
            let (mut a, mut b) = (Probe::new(&spec(local), 1), Probe::new(&spec(local), 1));
            assert!(a.run() > 0.0 && b.run() > 0.0);
            assert_eq!(a.edges, b.edges);
            assert!(a.residual == b.residual);
            assert!(a.residual.iter().flatten().all(|v| v.is_finite()));
            assert!(a.residual.iter().flatten().any(|&v| v != 0.0));
            assert_eq!(a.nominal_ns, 30.0 * 6000.0);
            assert!(a.edges.iter().flatten().all(|&n| (n as usize) < 2000));
            assert_eq!(Probe::new(&spec(local), 2).nominal_ns, 40.0 * 6000.0);
        }
    }

    #[test]
    fn block_factor_follows_the_slowest_thread() {
        let t0 = vec![1.0, 1.0, 3.0, 1.0];
        let t1 = vec![1.0, 2.0, 1.0, 1.0];
        assert_eq!(block_factors(&[t0.clone(), t1]), vec![1.5, 2.5, 2.0]);
        assert_eq!(block_factors(&[t0]), vec![1.0, 2.0, 2.0]);
        assert!(block_factors(&[]).is_empty());
    }
}
