//! The resident mesh-compute service: one booted world, many jobs.
//!
//! Everything expensive in this runtime is reusable —
//! [`crate::plan::ChainPlan`]s key on structural signatures, planned
//! exchanges pre-size the transport's per-peer pools, thread pools
//! persist — yet a standalone [`crate::harness::run_distributed`]
//! throws all of it away on return. A [`Service`] keeps it resident: meshes are
//! registered once (domain + layouts, keyed by [`mesh_signature`]), and
//! **jobs** — data-described programs over a registered mesh
//! ([`crate::job`]) — are submitted against them.
//!
//! ## Job lifecycle
//!
//! `submit` passes admission control (a bounded in-flight count;
//! [`ServiceError::Saturated`] beyond `ServiceConfig::max_inflight`),
//! then queues on the mesh's world lock — execution is serialized per
//! world (one set of rank resources), concurrent across worlds. Each job runs
//! under full supervision ([`run_job_with_state`]) on a fresh clone of
//! the registered domain with the job's initial dat overrides applied,
//! with per-rank state slots **pre-seeded** from the world's carry —
//! exactly what a supervised restart installs:
//!
//! * the rank's plan cache (chain plans, exchanges, lowerings), so the
//!   second job on a mesh skips inspection entirely (plan-cache `hits`,
//!   zero `misses`); its counters restart at zero per job;
//! * the thread context (worker pool and executor scratch);
//! * per-peer transport payload pools, so a warm job's planned
//!   exchanges make **zero payload heap allocations**
//!   ([`crate::comm::CommCounters::payload_allocs`]).
//!
//! After the job — success, crash-with-recovery, or budget exhaustion —
//! the sealed slots are harvested back into the world, so even a failed
//! job returns its plans and buffers for the next one. A world is
//! keyed by its mesh signature and runs one job at a time, so one carry
//! per rank is all the sharing there is. A crashing job recovers
//! via checkpoint/rollback *inside its own supervision loop*: the world
//! survives, concurrent jobs on other worlds are untouched, and jobs
//! queued behind it see only added latency.
//!
//! ## Isolation and determinism
//!
//! Jobs get fresh domains, fresh checkpoints/journals, fresh traces
//! ([`JobTrace`] wraps the per-rank [`RankTrace`]s; the job id is
//! stamped into [`crate::trace::RecoveryRec`]/[`crate::trace::TunerRec`]).
//! Shared artifacts are immutable (`Arc<ChainPlan>`) or content-neutral
//! (buffer pools, thread pools), so a service job's results are bitwise
//! identical to a standalone [`crate::harness::run_distributed`] of the
//! same program — including under a mid-job crash with recovery
//! (`tests/service.rs` asserts both).
//!
//! ## Batching
//!
//! [`Service::submit_batch`] groups same-shaped jobs (equal
//! [`Job::shape`]: mesh + setup/steps/finish signatures + iteration
//! count) and runs each group back-to-back under one world-lock hold on
//! hot plans and pools — the amortization the paper's inspector-
//! executor split exists for, applied across whole simulations. A job
//! in a group of more than one is reported as `batched`.

use crate::checkpoint::{lock, Carry, CheckpointConfig, RankState};
use crate::comm::CommCounters;
use crate::error::RuntimeError;
use crate::harness::RunOptions;
use crate::job::{run_job_with_state, Job, JobRun};
use crate::plan::{mesh_signature, PlanStats};
use crate::supervise::SuperviseOptions;
use crate::trace::RankTrace;
use op2_core::{DatId, Domain};
use op2_partition::RankLayout;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Service configuration: the admission bound and the supervision
/// every job runs under.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admitted-but-unfinished job bound (default 8). Submissions
    /// beyond it are rejected with [`ServiceError::Saturated`], never
    /// silently queued unbounded.
    pub max_inflight: usize,
    /// Base supervision each job starts from: run options (fault plan,
    /// comm policy, threading, checkpoint cadence), recovery budget and
    /// deadline escalation. Per-job overrides apply on top.
    pub supervise: SuperviseOptions,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_inflight: 8,
            supervise: SuperviseOptions::new(RunOptions::default()),
        }
    }
}

impl ServiceConfig {
    /// Override the base run options (builder style).
    pub fn run(mut self, run: RunOptions) -> Self {
        self.supervise.run = run;
        self
    }

    /// Override the admission bound (builder style).
    pub fn max_inflight(mut self, n: usize) -> Self {
        assert!(n >= 1, "max_inflight must be at least 1");
        self.max_inflight = n;
        self
    }
}

/// Why the service rejected or failed a job.
#[derive(Debug)]
pub enum ServiceError {
    /// Admission control: the in-flight bound is reached. Resubmit
    /// later — nothing was queued.
    Saturated {
        /// Jobs admitted and unfinished at rejection time.
        inflight: usize,
        /// The configured bound.
        max: usize,
    },
    /// The job names a mesh signature no registered world matches.
    UnknownMesh {
        /// The unmatched signature.
        mesh: u64,
    },
    /// A job's initial dat override does not match the dat's payload
    /// length in the registered domain.
    BadInit {
        /// The job.
        name: String,
        /// The offending dat.
        dat: DatId,
        /// Payload length the domain expects.
        expect: usize,
        /// Length the job supplied.
        got: usize,
    },
    /// A job's initial dat override names a dat the registered domain
    /// does not declare.
    UnknownDat {
        /// The job.
        name: String,
        /// The unknown dat.
        dat: DatId,
    },
    /// The job failed beyond its recovery budget (or hit a
    /// non-recoverable error). The world survives; only this job is
    /// lost.
    Job {
        /// The failed job.
        name: String,
        /// The underlying runtime error (boxed:
        /// [`RuntimeError::RecoveryExhausted`] carries full traces).
        error: Box<RuntimeError>,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Saturated { inflight, max } => {
                write!(f, "service saturated: {inflight} job(s) in flight (max {max})")
            }
            ServiceError::UnknownMesh { mesh } => {
                write!(f, "no registered mesh with signature {mesh:#018x}")
            }
            ServiceError::BadInit {
                name,
                dat,
                expect,
                got,
            } => write!(
                f,
                "job `{name}`: initial state for dat {} has {got} value(s), domain expects {expect}",
                dat.idx()
            ),
            ServiceError::UnknownDat { name, dat } => {
                write!(f, "job `{name}`: initial state names unknown dat {}", dat.idx())
            }
            ServiceError::Job { name, error } => write!(f, "job `{name}` failed: {error}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Job { error, .. } => Some(error.as_ref()),
            _ => None,
        }
    }
}

/// Per-job trace: the job's per-rank [`RankTrace`]s plus job-level
/// context, isolated from every other job on the world.
#[derive(Debug, Clone)]
pub struct JobTrace {
    /// Service-assigned job id (also stamped into the rank traces'
    /// recovery/tuner records).
    pub job: u64,
    /// The job's name.
    pub name: String,
    /// True when the job ran entirely on shared/cached plans — zero
    /// chain inspections ([`PlanStats::misses`] summed over ranks is 0).
    pub warm: bool,
    /// True when this job ran in a same-shape [`Service::submit_batch`]
    /// group of more than one job.
    pub batched: bool,
    /// Per-rank traces, indexed by rank.
    pub ranks: Vec<RankTrace>,
}

impl JobTrace {
    /// Plan-cache counters summed over ranks.
    pub fn plan_total(&self) -> PlanStats {
        let mut total = PlanStats::default();
        for t in &self.ranks {
            total.add(&t.plan);
        }
        total
    }

    /// Transport counters summed over ranks.
    pub fn comm_total(&self) -> CommCounters {
        let mut total = CommCounters::default();
        for t in &self.ranks {
            total.add(&t.comm);
        }
        total
    }

    /// Payload-pool misses across the job — 0 on a warm world is the
    /// zero-allocation steady-state assertion.
    pub fn payload_allocs(&self) -> u64 {
        self.comm_total().payload_allocs
    }
}

/// What a completed job returns.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Service-assigned job id.
    pub job: u64,
    /// Final global dat payloads, indexed by [`DatId`] — the service
    /// analogue of the domain state after a standalone run.
    pub dats: Vec<Vec<f64>>,
    /// Per finish-step loop results (global-argument buffers; empty for
    /// chain steps) from rank 0 — reductions are identical on every
    /// rank by construction.
    pub gbls: Vec<Vec<Vec<f64>>>,
    /// The job's isolated trace.
    pub trace: JobTrace,
}

impl From<JobOutcome> for JobRun {
    /// Drop the service-side context, keeping what every other host
    /// returns: the finish results and the per-rank traces.
    fn from(out: JobOutcome) -> JobRun {
        JobRun {
            gbls: out.gbls,
            traces: out.trace.ranks,
        }
    }
}

/// One registered mesh's resident world.
struct World {
    /// Pristine registered domain; every job runs on a clone.
    base: Domain,
    layouts: Vec<RankLayout>,
    /// Per rank, what the last job sealed: plan cache, thread context,
    /// payload pools.
    carry: Vec<Carry>,
}

/// Cumulative service counters ([`Service::metrics`] snapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceMetrics {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs completed successfully.
    pub completed: u64,
    /// Jobs lost (recovery budget exhausted or non-recoverable error).
    pub failed: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Jobs that ran in a same-shape batch group of more than one job.
    pub batched: u64,
    /// Completed jobs that performed zero chain inspections.
    pub warm_jobs: u64,
    /// Coordinated rollbacks across all jobs (crash recoveries).
    pub recoveries: u64,
    /// Plan-cache counters summed over completed jobs' ranks.
    pub plan: PlanStats,
    /// Payload-pool misses summed over completed jobs' ranks.
    pub payload_allocs: u64,
}

/// RAII admission permit: holds `n` in-flight slots until the job(s)
/// finish (drop runs on panic paths too, so a crashed submission can
/// never leak capacity).
struct Permit<'a> {
    svc: &'a Service,
    n: usize,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.svc.inflight.fetch_sub(self.n, Ordering::SeqCst);
    }
}

/// The resident mesh-compute server. All methods take `&self`: a
/// `Service` is shared across submitter threads (`Arc` or scoped
/// borrows), jobs on distinct meshes run concurrently, jobs on one mesh
/// serialize on its world lock.
pub struct Service {
    cfg: ServiceConfig,
    worlds: Mutex<HashMap<u64, Arc<Mutex<World>>>>,
    inflight: AtomicUsize,
    next_job: AtomicU64,
    metrics: Mutex<ServiceMetrics>,
}

impl Service {
    /// Boot a service with explicit configuration.
    pub fn new(cfg: ServiceConfig) -> Self {
        Service {
            cfg,
            worlds: Mutex::new(HashMap::new()),
            inflight: AtomicUsize::new(0),
            next_job: AtomicU64::new(0),
            metrics: Mutex::new(ServiceMetrics::default()),
        }
    }

    /// Register a mesh world: the pristine domain and its partition
    /// layouts. Returns the [`mesh_signature`] jobs submit against.
    /// Re-registering an identical mesh is a no-op returning the same
    /// signature (the resident world and its warm state are kept).
    pub fn register_mesh(&self, dom: Domain, layouts: Vec<RankLayout>) -> u64 {
        let mesh = mesh_signature(&layouts);
        let mut worlds = lock(&self.worlds);
        worlds.entry(mesh).or_insert_with(|| {
            let carry = (0..layouts.len()).map(|_| Carry::default()).collect();
            Arc::new(Mutex::new(World {
                base: dom,
                layouts,
                carry,
            }))
        });
        mesh
    }

    /// Jobs admitted and not yet finished (gauge).
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Snapshot of the cumulative counters.
    pub fn metrics(&self) -> ServiceMetrics {
        *lock(&self.metrics)
    }

    fn with_metrics(&self, f: impl FnOnce(&mut ServiceMetrics)) {
        f(&mut lock(&self.metrics));
    }

    /// Take `n` admission slots or reject with
    /// [`ServiceError::Saturated`].
    fn admit(&self, n: usize) -> Result<Permit<'_>, ServiceError> {
        let max = self.cfg.max_inflight;
        let take = |cur: usize| (cur + n <= max).then_some(cur + n);
        match self.inflight.fetch_update(Ordering::SeqCst, Ordering::SeqCst, take) {
            Ok(_) => Ok(Permit { svc: self, n }),
            Err(inflight) => {
                self.with_metrics(|m| m.rejected += n as u64);
                Err(ServiceError::Saturated { inflight, max })
            }
        }
    }

    fn world(&self, mesh: u64) -> Result<Arc<Mutex<World>>, ServiceError> {
        lock(&self.worlds)
            .get(&mesh)
            .cloned()
            .ok_or(ServiceError::UnknownMesh { mesh })
    }

    /// Submit one job against a registered mesh and wait for its
    /// outcome. Queues on the mesh's world lock behind earlier jobs;
    /// rejected immediately when the service is saturated.
    pub fn submit(&self, mesh: u64, job: &Job) -> Result<JobOutcome, ServiceError> {
        let _permit = self.admit(1)?;
        self.with_metrics(|m| m.submitted += 1);
        let world = self.world(mesh)?;
        let mut w = lock(&world);
        self.run_world_job(&mut w, job, false)
    }

    /// Submit a batch and wait for all outcomes (input order).
    /// Same-[`Job::shape`] jobs run back-to-back on hot plans and pools;
    /// the whole batch needs admission capacity at once. The outer `Err`
    /// is admission/lookup; per-job failures land in the inner results —
    /// one crashing job never takes down its batch mates.
    #[allow(clippy::type_complexity)]
    pub fn submit_batch(
        &self,
        mesh: u64,
        jobs: &[Job],
    ) -> Result<Vec<Result<JobOutcome, ServiceError>>, ServiceError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let _permit = self.admit(jobs.len())?;
        self.with_metrics(|m| m.submitted += jobs.len() as u64);
        let world = self.world(mesh)?;
        // Group by shape: a stable sort on each shape's first appearance
        // keeps submission order within and across groups, so batch
        // results are reproducible.
        let shapes: Vec<u64> = jobs.iter().map(Job::shape).collect();
        let group_size = |i: usize| shapes.iter().filter(|&&s| s == shapes[i]).count();
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by_key(|&i| shapes.iter().position(|&s| s == shapes[i]));
        let mut outcomes: Vec<Option<Result<JobOutcome, ServiceError>>> =
            (0..jobs.len()).map(|_| None).collect();
        let mut w = lock(&world);
        for i in order {
            let batched = group_size(i) > 1;
            outcomes[i] = Some(self.run_world_job(&mut w, &jobs[i], batched));
        }
        Ok(outcomes.into_iter().map(|o| o.expect("every job ran")).collect())
    }

    /// Run one job on a locked world: seed per-rank state from the
    /// world's carry, execute under supervision, harvest the carry back
    /// (crash or not), and account the outcome.
    fn run_world_job(
        &self,
        world: &mut World,
        job: &Job,
        batched: bool,
    ) -> Result<JobOutcome, ServiceError> {
        let job_id = self.next_job.fetch_add(1, Ordering::SeqCst) + 1;

        // Per-job domain: pristine base plus the job's initial state.
        let mut dom = world.base.clone();
        for (dat, data) in &job.init {
            if dat.idx() >= dom.n_dats() {
                return Err(ServiceError::UnknownDat {
                    name: job.name.clone(),
                    dat: *dat,
                });
            }
            let buf = &mut dom.dat_mut(*dat).data;
            if buf.len() != data.len() {
                return Err(ServiceError::BadInit {
                    name: job.name.clone(),
                    dat: *dat,
                    expect: buf.len(),
                    got: data.len(),
                });
            }
            buf.clone_from(data);
        }

        // Fresh per-job state slots, seeded with the world's carry; the
        // plan counters restart so the trace counts this job only.
        let slots: Vec<Arc<Mutex<RankState>>> = world
            .carry
            .iter_mut()
            .map(|carry| {
                let mut carry = std::mem::take(carry);
                carry.plans.stats = PlanStats::default();
                let mut st = RankState::new();
                st.rec.job = job_id;
                st.carry = Some(carry);
                Arc::new(Mutex::new(st))
            })
            .collect();

        let mut sopts = self.cfg.supervise.clone();
        sopts.run.faults = job.faults.clone();
        if let Some(every) = job.checkpoint_every {
            sopts.run.checkpoint = CheckpointConfig::new(every);
        }
        let result = run_job_with_state(&mut dom, &world.layouts, job, &sopts, &slots, job_id);

        // Harvest the carry — sealed by `ckpt_seal` even for failed
        // ranks, so a lost job still returns its plans and buffers.
        for (carry, slot) in world.carry.iter_mut().zip(&slots) {
            *carry = lock(slot).carry.take().unwrap_or_default();
        }
        rebalance_pools(&mut world.carry);

        let JobRun { gbls, traces } = result.map_err(|e| {
            self.with_metrics(|m| m.failed += 1);
            ServiceError::Job {
                name: job.name.clone(),
                error: Box::new(e),
            }
        })?;
        let dats: Vec<Vec<f64>> = (0..dom.n_dats())
            .map(|d| dom.dat(DatId(d as u32)).data.clone())
            .collect();
        let mut trace = JobTrace {
            job: job_id,
            name: job.name.clone(),
            warm: false,
            batched,
            ranks: traces,
        };
        let plan_total = trace.plan_total();
        trace.warm = plan_total.misses == 0;
        self.with_metrics(|m| {
            m.completed += 1;
            m.batched += u64::from(batched);
            m.warm_jobs += u64::from(trace.warm);
            // Rollbacks are coordinated — identical on every rank.
            m.recoveries += trace.ranks[0].recovery.rollbacks;
            m.plan.add(&plan_total);
            m.payload_allocs += trace.payload_allocs();
        });
        Ok(JobOutcome {
            job: job_id,
            dats,
            gbls,
            trace,
        })
    }
}

/// Even out the pair-circulating payload buffers between jobs.
///
/// Chain exchanges swap buffers symmetrically (each side's send buffer
/// lands in the other side's pool slot for it), so a pair's buffer
/// total is conserved. One-way traffic is not: a per-dat Alg 1
/// message over an asymmetric halo segment (a imports the dat from b,
/// b imports nothing back) permanently migrates the sender's buffer to
/// the receiver, which never sends it back — left alone, the sending
/// side would re-allocate the same buffers every job while the
/// receiving side hoards them. (Reductions touch no pool: the allreduce
/// sends freshly allocated buffers and drops what it receives.) The
/// world owns all pools between jobs, so restock the depleted side of
/// each skewed pair.
fn rebalance_pools(carry: &mut [Carry]) {
    for a in 0..carry.len() {
        let (lo, hi) = carry.split_at_mut(a + 1);
        let ca = &mut lo[a];
        for (off, cb) in hi.iter_mut().enumerate() {
            let b = a + 1 + off;
            if let (Some(pa), Some(pb)) = (ca.pools.get_mut(b), cb.pools.get_mut(a)) {
                balance_slot_pair(pa, pb);
            }
        }
    }
}

/// Resolve one pair's skew. A near-even pair (symmetric swap traffic)
/// is left alone. A skewed pair means one-way traffic: the sender's
/// buffers stranded on the receiving side, which itself sends little or
/// nothing — so the stranded side keeps one buffer and everything else
/// goes back to the depleted (sending) side, smallest first.
fn balance_slot_pair(x: &mut Vec<Vec<f64>>, y: &mut Vec<Vec<f64>>) {
    let (from, to) = if x.len() > y.len() + 1 {
        (x, y)
    } else if y.len() > x.len() + 1 {
        (y, x)
    } else {
        return;
    };
    while from.len() > 1 {
        let min = (0..from.len())
            .min_by_key(|&i| from[i].capacity())
            .expect("richer side is non-empty");
        to.push(from.swap_remove(min));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unknown meshes are a typed rejection, not a panic.
    #[test]
    fn unknown_mesh_rejected() {
        let svc = Service::new(ServiceConfig::default());
        let job = Job::new("j", vec![], 0);
        assert!(matches!(
            svc.submit(42, &job),
            Err(ServiceError::UnknownMesh { mesh: 42 })
        ));
    }

    /// An initial override naming a dat the domain does not declare is
    /// a typed rejection, not an index panic inside `submit`.
    #[test]
    fn unknown_init_dat_rejected() {
        use op2_mesh::Quad2D;
        use op2_partition::{build_layouts, derive_ownership, rcb_partition};

        let mut mesh = Quad2D::generate(3, 3);
        mesh.dom.decl_dat_zeros("v", mesh.nodes, 1);
        let base = rcb_partition(&mesh.dom.dat(mesh.coords).data, 2, 1);
        let own = derive_ownership(&mesh.dom, mesh.nodes, base, 1);
        let layouts = build_layouts(&mesh.dom, &own, 1);
        let svc = Service::new(ServiceConfig::default());
        let id = svc.register_mesh(mesh.dom, layouts);
        let job = Job::new("j", vec![], 0).with_init(DatId(999), vec![0.0]);
        assert!(matches!(
            svc.submit(id, &job),
            Err(ServiceError::UnknownDat { dat: DatId(999), .. })
        ));
    }

    /// A batch larger than the admission bound is rejected whole —
    /// deterministic saturation without relying on timing.
    #[test]
    fn oversized_batch_saturates() {
        let svc = Service::new(ServiceConfig::default().max_inflight(2));
        let jobs = vec![Job::default(), Job::default(), Job::default()];
        match svc.submit_batch(1, &jobs) {
            Err(ServiceError::Saturated { inflight, max }) => {
                assert_eq!(inflight, 0);
                assert_eq!(max, 2);
            }
            other => panic!("expected saturation, got {other:?}"),
        }
        assert_eq!(svc.metrics().rejected, 3);
        assert_eq!(svc.inflight(), 0, "rejected batches leak no capacity");
    }
}
