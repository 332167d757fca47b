//! Adaptive backend dispatch by measurement.
//!
//! The paper closes (§5) observing that deciding *when* to enable the CA
//! back-end "would be the challenge in real-world applications". The
//! [`Tuner`] answers it by timing both backends on the chain itself: the
//! first `2 ×` [`PROBES`] calls of each strict chain alternate the
//! *flattened* chain (standard Alg 1 per loop) and the CA chain executor
//! (Alg 2) — Op2, Ca, Op2, Ca, … — and every later call dispatches to the
//! backend with the smaller best time. The first call of each backend
//! warms its plans and is not compared; a tie goes to Ca. Every probe is
//! a real execution, so no iteration is wasted; a chain called fewer
//! than `2 × PROBES` times is never decided.
//!
//! Determinism: each rank's compared timings are allreduce-maxed in one
//! call before the comparison, so all ranks pick the same backend — no
//! rank can diverge into a different communication pattern (which would
//! deadlock the rendezvous). Measured wall-clock stays inside the tuner
//! and its [`TunerRec`]; the loop/chain trace records remain
//! replay-deterministic.
//!
//! There is no override: a program that wants a fixed backend names it
//! directly (`Variant::Op2`, or [`crate::ChainDispatch::Planned`])
//! instead of a tuned dispatch.

use crate::env::RankEnv;
use crate::error::RuntimeError;
use crate::exec::{run_chain, run_loop};
use crate::plan::chain_signature;
use crate::trace::TunerRec;
use op2_core::access::GblOp;
use op2_core::ChainSpec;
use std::collections::HashMap;
use std::time::Instant;

/// Probe calls per backend before a chain is decided; the first of each
/// is a warm-up and is not compared.
pub const PROBES: usize = 3;

/// Which executor a chain is dispatched to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Backend {
    /// Flattened: each loop as standard Alg 1 with per-loop exchanges.
    Op2,
    /// The CA chain executor (Alg 2, grouped multi-level exchange).
    #[default]
    Ca,
}

/// One chain's progress through the probe sequence.
enum State {
    /// `calls` probes done; `ns` holds the compared ones, in call order.
    Probing { calls: usize, ns: Vec<f64> },
    Decided(Backend),
}

/// Per-rank adaptive dispatcher. Each rank owns one (decisions are
/// rank-agreed by construction, so the per-rank maps stay identical).
#[derive(Default)]
pub struct Tuner {
    chains: HashMap<u64, State>,
}

impl Tuner {
    /// Execute `chain` through the adaptive dispatcher: the next probe
    /// while it is undecided, the winning backend afterwards.
    pub fn run_chain(
        &mut self,
        env: &mut RankEnv<'_>,
        chain: &ChainSpec,
    ) -> Result<(), RuntimeError> {
        let state = self
            .chains
            .entry(chain_signature(chain, false))
            .or_insert(State::Probing {
                calls: 0,
                ns: Vec::with_capacity(2 * PROBES - 2),
            });
        let (calls, ns) = match state {
            State::Decided(b) => return dispatch(env, chain, *b),
            State::Probing { calls, ns } => (calls, ns),
        };
        let backend = if *calls % 2 == 0 {
            Backend::Op2
        } else {
            Backend::Ca
        };
        let t0 = Instant::now();
        dispatch(env, chain, backend)?;
        if *calls >= 2 {
            ns.push(t0.elapsed().as_nanos() as f64);
        }
        *calls += 1;
        if *calls < 2 * PROBES {
            return Ok(());
        }

        let tag = env.next_tag();
        env.comm.allreduce(ns, tag, GblOp::Max)?;
        let best = |parity: usize| {
            ns.iter()
                .skip(parity)
                .step_by(2)
                .fold(f64::INFINITY, |a, &b| a.min(b))
        };
        let (t_op2, t_ca) = (best(0), best(1));
        let backend = if t_ca <= t_op2 {
            Backend::Ca
        } else {
            Backend::Op2
        };
        *state = State::Decided(backend);
        env.trace.tuner.push(TunerRec {
            chain: chain.name.clone(),
            backend,
            t_op2_ns: t_op2 as u64,
            t_ca_ns: t_ca as u64,
        });
        Ok(())
    }
}

/// Run `chain` on `backend`: flattened into Alg 1 loops, or as a chain.
fn dispatch(
    env: &mut RankEnv<'_>,
    chain: &ChainSpec,
    backend: Backend,
) -> Result<(), RuntimeError> {
    match backend {
        Backend::Op2 => {
            for spec in &chain.loops {
                run_loop(env, spec)?;
            }
            Ok(())
        }
        Backend::Ca => run_chain(env, chain),
    }
}
