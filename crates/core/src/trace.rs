//! Trace-driven workload replay — the §V / Figure 10 experiment.
//!
//! A trace (e.g. the FB-2009 re-synthesis from `workload::facebook`) is
//! replayed "based on the job arrival time" against an architecture. On the
//! hybrid architecture a placement policy routes each job; the baselines
//! have a single cluster. Following the paper, jobs are *classified* as
//! "scale-up jobs" / "scale-out jobs" by the cross-point scheduler's verdict
//! ("we refer to the jobs that are scheduled to scale-up cluster and
//! scale-out cluster by our scheduler as scale-up jobs and scale-out jobs"),
//! and that classification is applied to every architecture so the Figure 10
//! CDFs compare the same job populations.

use crate::architecture::{Architecture, Deployment, DeploymentTuning};
use mapreduce::{FaultStats, JobId, JobResult, JobSpec, OnlineRouter, RouteDecision};
use metrics::EmpiricalCdf;
use scheduler::{
    AdaptiveDecision, AdaptiveScheduler, ClusterLoads, CrossPointScheduler, DispatchOutcome,
    JobPlacement, Placement, PolicyKind, TenantDispatcher, TenantId, TenantJob, TenantSchedConfig,
    TenantTable,
};
use simcore::SimDuration;
use simcore::SimTime;
use std::collections::HashMap;

/// Outcome of one trace replay.
#[derive(Debug, Clone)]
pub struct TraceOutcome {
    /// The architecture replayed against.
    pub arch: Architecture,
    /// Placement policy used (only consequential on `Hybrid`).
    pub policy: String,
    /// Per-job results, in completion order.
    pub results: Vec<JobResult>,
    /// Execution times (s) of the jobs classified as scale-up jobs.
    pub up_class_exec: Vec<f64>,
    /// Execution times (s) of the jobs classified as scale-out jobs.
    pub out_class_exec: Vec<f64>,
    /// Time from simulation start to the last job completion.
    pub makespan: SimDuration,
    /// Injected-fault accounting for the whole replay (all zeros when the
    /// deployment ran with an empty fault plan).
    pub fault_stats: FaultStats,
    /// The observability recorder, when the replay ran with
    /// [`DeploymentTuning::observe`] set — spans, counters, and placement
    /// annotations ready for [`obs::chrome`] export or
    /// [`obs::breakdown::PhaseBreakdown`].
    pub recorder: Option<Box<obs::Recorder>>,
    /// The streaming aggregator, when the replay ran with
    /// [`DeploymentTuning::telemetry`] set — bounded-memory utilization
    /// timelines, latency histograms, fault counters, placement audit, and
    /// critical-path attribution, ready for Prometheus/JSON exposition.
    pub telemetry: Option<Box<obs::OnlineAggregator>>,
    /// The online anomaly detector, when the replay ran with
    /// [`DeploymentTuning::doctor`] set — flight recorder, open alerts, and
    /// the deterministic incident reports diagnosed from the same event
    /// stream the aggregator folds.
    pub doctor: Option<Box<obs::Doctor>>,
    /// The closed-loop scheduler recovered after an adaptive replay
    /// ([`run_trace_adaptive_with`] and friends): final thresholds and the
    /// full recalibration audit trail. `None` on static replays.
    pub adaptive: Option<Box<AdaptiveScheduler>>,
    /// Windowed-executor accounting when the replay ran with
    /// [`mapreduce::ReplayParallelism::Windowed`] (all zeros on sequential
    /// replays). Diagnostic only — never part of replay fingerprints.
    pub parallel: mapreduce::ParallelStats,
}

impl TraceOutcome {
    /// CDF of scale-up-class execution times (Figure 10a).
    pub fn up_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.up_class_exec.clone())
    }

    /// CDF of scale-out-class execution times (Figure 10b).
    pub fn out_cdf(&self) -> EmpiricalCdf {
        EmpiricalCdf::new(self.out_class_exec.clone())
    }

    /// Number of jobs that failed (should be zero on OFS architectures).
    pub fn failures(&self) -> usize {
        self.results.iter().filter(|r| !r.succeeded()).count()
    }
}

/// A crude backlog estimate for load-aware policies: seconds of virtual
/// work added per job. Only relative magnitudes matter.
fn est_cost_secs(spec: &JobSpec) -> f64 {
    3.0 + spec.input_size as f64 / 500.0e6
}

/// Virtual-backlog drain rates (work-seconds per second) for the scale-up
/// and scale-out sides, proportional to each side's slot count in `arch`'s
/// cluster spec. A side with no cluster in this architecture keeps the
/// legacy rate of 1.0 so a phantom backlog cannot grow without bound.
fn backlog_drain_rates(arch: Architecture, tuning: &DeploymentTuning) -> (f64, f64) {
    let mut up_slots = 0.0;
    let mut out_slots = 0.0;
    for spec in arch.cluster_specs_with(&tuning.up_machine, &tuning.out_machine) {
        let slots = (spec.total_map_slots() + spec.total_reduce_slots()) as f64;
        if spec.name.starts_with("scale-up") {
            up_slots += slots;
        } else {
            out_slots += slots;
        }
    }
    (up_slots.max(1.0), out_slots.max(1.0))
}

/// Annotate every attached telemetry sink with one placement decision: which
/// band fired, against which cross point, what the alternative would have
/// been, and the backlog snapshot the policy saw. Only called when a sink is
/// attached, so it never perturbs an unobserved replay.
fn record_placement(
    deployment: &mut Deployment,
    policy: &dyn JobPlacement,
    spec: &JobSpec,
    loads: &ClusterLoads,
) {
    let decision = policy.explain(spec, loads);
    let mut args: Vec<(&'static str, obs::ArgValue)> = vec![
        ("job", obs::ArgValue::from(spec.id.0)),
        ("policy", obs::ArgValue::from(policy.name())),
        ("band", obs::ArgValue::from(decision.band)),
        ("input_bytes", obs::ArgValue::from(spec.input_size)),
        ("up_backlog_s", obs::ArgValue::from(loads.up_outstanding)),
        ("out_backlog_s", obs::ArgValue::from(loads.out_outstanding)),
        ("est_cost_s", obs::ArgValue::from(est_cost_secs(spec))),
    ];
    if let Some(t) = decision.threshold {
        args.push(("cross_point_bytes", obs::ArgValue::from(t)));
    }
    if let Some(note) = decision.note {
        args.push(("note", obs::ArgValue::from(note)));
    }
    let name = match decision.placement {
        Placement::ScaleUp => "place:scale-up",
        Placement::ScaleOut => "place:scale-out",
    };
    deployment.sim.annotate_instant(
        "placement",
        name,
        obs::lanes::JOBS,
        spec.id.0,
        spec.submit,
        args,
    );
}

/// Human-readable GiB for decision notes (matches the scheduler crate's
/// formatting so audit tags aggregate consistently).
fn gib(bytes: u64) -> String {
    format!("{:.2} GiB", bytes as f64 / (1u64 << 30) as f64)
}

/// The audit note for one adaptive decision, in the same
/// `"<tag>: <detail>"` shape as [`CrossPointScheduler`]'s explain notes so
/// the telemetry layer's reason-tagging groups them alongside the static
/// policy's ("rejected scale-up", "rejected scale-out", and the new
/// "exploration probe").
fn adaptive_note(d: &AdaptiveDecision, input_size: u64) -> String {
    match (d.probe, d.placement) {
        (true, Placement::ScaleUp) => format!(
            "exploration probe: sampling scale-up at {} against cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
        (true, Placement::ScaleOut) => format!(
            "exploration probe: sampling scale-out at {} against cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
        (false, Placement::ScaleUp) => format!(
            "rejected scale-out: input {} below cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
        (false, Placement::ScaleOut) => format!(
            "rejected scale-up: input {} at/above cross point {}",
            gib(input_size),
            gib(d.threshold)
        ),
    }
}

/// Bridges an [`AdaptiveScheduler`] into the engine's [`OnlineRouter`] hook:
/// maps placements to the deployment's cluster indices, remembers each
/// in-flight job's size and ratio (a [`JobResult`] carries neither the ratio
/// nor the probe flag), and feeds successful completions back into the
/// closed loop.
struct AdaptiveRouter {
    policy: AdaptiveScheduler,
    up: Option<usize>,
    out: Option<usize>,
    inflight: HashMap<JobId, (u64, f64)>,
    /// When `Some(k)`, the policy is torn down to its snapshot JSON and
    /// rebuilt from it after every k-th successful completion — the
    /// restart-equivalence harness: a replay under this mode must stay
    /// bitwise-identical to an uninterrupted one.
    snapshot_every: Option<usize>,
}

impl AdaptiveRouter {
    /// Turn one scheduler verdict into the engine's route decision, noting
    /// the job in-flight and building the audit annotation when asked.
    fn finish_decision(
        &mut self,
        spec: &JobSpec,
        d: AdaptiveDecision,
        annotate: bool,
    ) -> RouteDecision {
        self.inflight
            .insert(spec.id, (spec.input_size, spec.profile.shuffle_input_ratio));
        let cluster = match d.placement {
            Placement::ScaleUp => self.up.or(self.out),
            Placement::ScaleOut => self.out.or(self.up),
        }
        .expect("deployment has at least one cluster");
        let annotation = annotate.then(|| {
            let name = match d.placement {
                Placement::ScaleUp => "place:scale-up",
                Placement::ScaleOut => "place:scale-out",
            };
            let args: Vec<(&'static str, obs::ArgValue)> = vec![
                ("job", obs::ArgValue::from(spec.id.0)),
                ("policy", obs::ArgValue::from("adaptive")),
                ("band", obs::ArgValue::from(d.band)),
                ("input_bytes", obs::ArgValue::from(spec.input_size)),
                ("cross_point_bytes", obs::ArgValue::from(d.threshold)),
                ("probe", obs::ArgValue::from(d.probe)),
                (
                    "note",
                    obs::ArgValue::from(adaptive_note(&d, spec.input_size)),
                ),
            ];
            ("placement", name, args)
        });
        RouteDecision {
            cluster,
            annotation,
        }
    }
}

impl OnlineRouter for AdaptiveRouter {
    fn route(&mut self, spec: &JobSpec, _now: SimTime, annotate: bool) -> RouteDecision {
        let d = self.policy.route(spec);
        self.finish_decision(spec, d, annotate)
    }

    fn route_batch(
        &mut self,
        specs: &[&JobSpec],
        _now: SimTime,
        annotate: bool,
    ) -> Vec<RouteDecision> {
        // One threshold load for the whole batch; decisions and RNG draws
        // are bitwise-identical to per-spec `route` calls (the scheduler's
        // batched API guarantees it).
        let decisions = self.policy.route_batch(specs.iter().copied());
        specs
            .iter()
            .zip(decisions)
            .map(|(spec, d)| self.finish_decision(spec, d, annotate))
            .collect()
    }

    fn on_complete(&mut self, result: &JobResult) -> Vec<mapreduce::RouterAnnotation> {
        let Some((input_size, ratio)) = self.inflight.remove(&result.id) else {
            return Vec::new();
        };
        if !result.succeeded() {
            return Vec::new();
        }
        // Side observed = where the job actually ran (a single-cluster
        // fallback may differ from the decision).
        let ran_up = Some(result.cluster) == self.up;
        let rec = self
            .policy
            .observe(input_size, ratio, ran_up, result.execution.as_secs_f64());
        if let Some(k) = self.snapshot_every.filter(|&k| k > 0) {
            if self.policy.completions().is_multiple_of(k as u64) {
                let doc = scheduler::snapshot::save(&self.policy);
                self.policy =
                    scheduler::snapshot::restore(&doc).expect("a saved snapshot always restores");
            }
        }
        let Some(rec) = rec else {
            return Vec::new();
        };
        let note = format!(
            "recalibrated {}: cross point {} -> {} (estimate {}{}{})",
            rec.band,
            gib(rec.old_bytes),
            gib(rec.new_bytes),
            gib(rec.estimate_bytes.round() as u64),
            if rec.stepped { ", step-limited" } else { "" },
            if rec.clamped { ", clamped" } else { "" },
        );
        vec![(
            "scheduler",
            "recalibrate",
            vec![
                ("band", obs::ArgValue::from(rec.band)),
                ("old_bytes", obs::ArgValue::from(rec.old_bytes)),
                ("new_bytes", obs::ArgValue::from(rec.new_bytes)),
                ("estimate_bytes", obs::ArgValue::from(rec.estimate_bytes)),
                ("window_up", obs::ArgValue::from(rec.window_up as u64)),
                ("window_out", obs::ArgValue::from(rec.window_out as u64)),
                ("completions", obs::ArgValue::from(rec.completions)),
                ("note", obs::ArgValue::from(note)),
            ],
        )]
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Replay `trace` on `arch` routing via `policy`, classifying jobs with the
/// paper's default cross-point scheduler.
pub fn run_trace(arch: Architecture, policy: &dyn JobPlacement, trace: &[JobSpec]) -> TraceOutcome {
    run_trace_with(arch, policy, trace, &DeploymentTuning::default())
}

/// [`run_trace`] with explicit tuning.
pub fn run_trace_with(
    arch: Architecture,
    policy: &dyn JobPlacement,
    trace: &[JobSpec],
    tuning: &DeploymentTuning,
) -> TraceOutcome {
    run_trace_streaming_with(arch, policy, trace.iter().cloned(), tuning)
}

/// [`run_trace_with`] over a lazily produced job stream.
///
/// Accepts any `IntoIterator<Item = JobSpec>` — in particular
/// [`workload::facebook::stream`] — so a million-job replay materializes one
/// `JobSpec` at a time instead of holding the whole trace in a `Vec` first.
/// A slice-backed call (`run_trace_with`) routes through here and produces
/// byte-identical results.
pub fn run_trace_streaming_with<I>(
    arch: Architecture,
    policy: &dyn JobPlacement,
    trace: I,
    tuning: &DeploymentTuning,
) -> TraceOutcome
where
    I: IntoIterator<Item = JobSpec>,
{
    let trace = trace.into_iter();
    let classifier = CrossPointScheduler::default();
    let mut deployment = Deployment::build_with(arch, tuning);

    // Virtual backlog (for load-aware policies): grows by each job's
    // estimated serial cost and drains proportionally to the side's slot
    // count — a sub-cluster with S slots retires S work-seconds of backlog
    // per second, so the 2-machine scale-up side is no longer modelled as
    // draining at the same rate as the 12-machine scale-out side.
    let (up_drain, out_drain) = backlog_drain_rates(arch, tuning);
    let mut loads = ClusterLoads::default();
    let mut t_prev = 0.0f64;
    // Keyed by JobId, not trace position: sliced or filtered traces have
    // non-contiguous ids.
    let mut class_of: HashMap<JobId, Placement> = HashMap::with_capacity(trace.size_hint().0);

    for spec in trace {
        let t = spec.submit.as_secs_f64();
        let dt = (t - t_prev).max(0.0);
        t_prev = t;
        loads.up_outstanding = (loads.up_outstanding - dt * up_drain).max(0.0);
        loads.out_outstanding = (loads.out_outstanding - dt * out_drain).max(0.0);

        let placement = policy.place(&spec, &loads);
        if deployment.sim.telemetry_active() {
            record_placement(&mut deployment, policy, &spec, &loads);
        }
        match placement {
            Placement::ScaleUp => loads.up_outstanding += est_cost_secs(&spec),
            Placement::ScaleOut => loads.out_outstanding += est_cost_secs(&spec),
        }
        class_of.insert(spec.id, classifier.place(&spec, &ClusterLoads::default()));
        deployment.submit_placed(spec, placement);
    }

    finish_replay(arch, policy.name().to_string(), deployment, &class_of)
}

/// [`run_trace_with`] routed by a closed-loop [`AdaptiveScheduler`] instead
/// of a static policy: the scheduler is consumed (it mutates as it learns)
/// and recovered — final thresholds, audit trail and all — in
/// [`TraceOutcome::adaptive`].
///
/// With [`scheduler::AdaptiveConfig::exploration`] set to zero the decision
/// stream is provably identical to the static [`CrossPointScheduler`] the
/// loop started from, so results are bitwise-equal to a static replay.
pub fn run_trace_adaptive_with(
    arch: Architecture,
    adaptive: AdaptiveScheduler,
    trace: &[JobSpec],
    tuning: &DeploymentTuning,
) -> TraceOutcome {
    run_trace_adaptive_streaming_with(arch, adaptive, trace.iter().cloned(), tuning)
}

/// [`run_trace_adaptive_with`] over a lazily produced job stream.
///
/// Unlike the static streaming path, jobs are routed *at arrival inside the
/// event loop* ([`mapreduce::Simulation::submit_routed`]), so a decision
/// sees every completion with an earlier timestamp — the feedback a live
/// JobTracker would have — while arrival ordering and event tie-breaking
/// stay identical to the static path.
pub fn run_trace_adaptive_streaming_with<I>(
    arch: Architecture,
    adaptive: AdaptiveScheduler,
    trace: I,
    tuning: &DeploymentTuning,
) -> TraceOutcome
where
    I: IntoIterator<Item = JobSpec>,
{
    run_trace_adaptive_roundtrip_streaming_with(arch, adaptive, trace, tuning, None)
}

/// [`run_trace_adaptive_streaming_with`] with the restart-equivalence
/// harness switched on: when `snapshot_every` is `Some(k)`, the router
/// serializes the live scheduler with [`scheduler::snapshot::save`] after
/// every k-th successful completion and swaps in the
/// [`scheduler::snapshot::restore`] of that document — simulating a service
/// that is killed and restarted from its checkpoint mid-run. The snapshot
/// contract says the outcome is bitwise-identical to the uninterrupted
/// replay; the golden-fingerprint tests pin it.
pub fn run_trace_adaptive_roundtrip_streaming_with<I>(
    arch: Architecture,
    adaptive: AdaptiveScheduler,
    trace: I,
    tuning: &DeploymentTuning,
    snapshot_every: Option<usize>,
) -> TraceOutcome
where
    I: IntoIterator<Item = JobSpec>,
{
    let trace = trace.into_iter();
    let classifier = CrossPointScheduler::default();
    let mut deployment = Deployment::build_with(arch, tuning);
    deployment.sim.set_router(Box::new(AdaptiveRouter {
        policy: adaptive,
        up: deployment.up_cluster,
        out: deployment.out_cluster,
        inflight: HashMap::new(),
        snapshot_every,
    }));
    let mut class_of: HashMap<JobId, Placement> = HashMap::with_capacity(trace.size_hint().0);
    for spec in trace {
        class_of.insert(spec.id, classifier.place(&spec, &ClusterLoads::default()));
        deployment.sim.submit_routed(spec);
    }
    finish_replay(arch, "adaptive".to_string(), deployment, &class_of)
}

/// Per-job tenant attribution the internal tenant router (and the caller,
/// via [`TenantOutcome::attribution`]) keeps for each released job.
#[derive(Debug, Clone)]
pub struct TenantAttribution {
    pub tenant: TenantId,
    /// Hierarchical queue the tenant belongs to.
    pub queue: &'static str,
    /// The tenant's fair-share weight (normalizes slot-share telemetry).
    pub weight: f64,
    /// When the tenant submitted the job (before queueing delay) — sojourn
    /// and SLO misses are measured from here, not from the release time.
    pub orig_submit: SimTime,
    pub slo_secs: Option<f64>,
}

/// Wraps the closed-loop [`AdaptiveRouter`] with per-tenant attribution:
/// placement and recalibration behave exactly as in an adaptive replay,
/// and every completion additionally broadcasts a `("tenant", "complete")`
/// instant carrying tenant, queue, weighted sojourn, and SLO verdict —
/// the stream [`obs::OnlineAggregator`] folds into per-tenant latency
/// histograms and fairness counters.
struct TenantRouter {
    inner: AdaptiveRouter,
    meta: HashMap<JobId, TenantAttribution>,
}

impl OnlineRouter for TenantRouter {
    fn route(&mut self, spec: &JobSpec, now: SimTime, annotate: bool) -> RouteDecision {
        self.inner.route(spec, now, annotate)
    }

    fn on_complete(&mut self, result: &JobResult) -> Vec<mapreduce::RouterAnnotation> {
        let mut anns = self.inner.on_complete(result);
        if let Some(m) = self.meta.get(&result.id) {
            let sojourn = result.end.since(m.orig_submit).as_secs_f64();
            let miss = m.slo_secs.is_some_and(|s| sojourn > s);
            anns.push((
                "tenant",
                "complete",
                vec![
                    ("job", obs::ArgValue::from(result.id.0)),
                    ("tenant", obs::ArgValue::from(m.tenant.0)),
                    ("queue", obs::ArgValue::from(m.queue)),
                    ("weight", obs::ArgValue::from(m.weight)),
                    ("sojourn_s", obs::ArgValue::from(sojourn)),
                    (
                        "exec_s",
                        obs::ArgValue::from(result.execution.as_secs_f64()),
                    ),
                    ("slo_s", obs::ArgValue::from(m.slo_secs.unwrap_or(0.0))),
                    ("slo_miss", obs::ArgValue::from(miss)),
                ],
            ));
        }
        anns
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Outcome of a multi-tenant replay: the engine-side [`TraceOutcome`] plus
/// the dispatch-side accounting (release schedule statistics, preemption
/// log, final share ledger) and the job → tenant attribution map.
#[derive(Debug)]
pub struct TenantOutcome {
    pub trace: TraceOutcome,
    /// Queue-layer accounting from the [`TenantDispatcher`] (its
    /// `released` list is consumed by the replay and left empty).
    pub dispatch: DispatchOutcome,
    /// Attribution for every released job, keyed by engine job id.
    pub attribution: HashMap<JobId, TenantAttribution>,
}

impl TenantOutcome {
    /// Tenant-experienced sojourn (submission → completion, including
    /// queueing delay) of one successful result.
    pub fn sojourn_secs(&self, r: &JobResult) -> Option<f64> {
        self.attribution
            .get(&r.id)
            .map(|m| r.end.since(m.orig_submit).as_secs_f64())
    }

    /// Completed jobs whose sojourn exceeded their tenant's SLO.
    pub fn slo_misses(&self) -> u64 {
        self.trace
            .results
            .iter()
            .filter(|r| r.succeeded())
            .filter(|r| {
                self.attribution.get(&r.id).is_some_and(|m| {
                    m.slo_secs
                        .is_some_and(|s| r.end.since(m.orig_submit).as_secs_f64() > s)
                })
            })
            .count() as u64
    }

    /// Jain fairness index over final weight-normalized tenant usages.
    pub fn jain_index(&self) -> f64 {
        self.dispatch.ledger.jain_index()
    }
}

/// Replay a tenant-tagged job stream through a queue policy *and* the
/// cross-point router: the [`TenantDispatcher`] (policy `kind`, shares,
/// preemption, delay scheduling per `sched_cfg`) decides *when* each job
/// is released, then the engine replays the released jobs with the given
/// closed-loop `adaptive` scheduler deciding *where* (Algorithm 1 — pass
/// exploration 0 for the provably-static variant).
///
/// With [`TenantSchedConfig::unlimited`], a single-tenant table, and the
/// FIFO policy, every spec is forwarded bit-for-bit at its original submit
/// time, so the replay is bitwise identical to
/// [`run_trace_adaptive_streaming_with`] on the same stream — the pinned
/// goldens hold the dispatcher to that.
pub fn run_trace_tenants_with<I>(
    arch: Architecture,
    table: TenantTable,
    sched_cfg: TenantSchedConfig,
    kind: PolicyKind,
    adaptive: AdaptiveScheduler,
    jobs: I,
    tuning: &DeploymentTuning,
) -> TenantOutcome
where
    I: IntoIterator<Item = TenantJob>,
{
    let policy = kind.build(&table);
    let dispatcher = TenantDispatcher::new(table, sched_cfg, policy);
    let mut dispatch = dispatcher.run(jobs);

    let classifier = CrossPointScheduler::default();
    let mut deployment = Deployment::build_with(arch, tuning);
    let mut attribution: HashMap<JobId, TenantAttribution> =
        HashMap::with_capacity(dispatch.released.len());
    for r in &dispatch.released {
        attribution.insert(
            r.spec.id,
            TenantAttribution {
                tenant: r.tenant,
                queue: dispatch.table.queue_name(r.tenant),
                weight: dispatch.table.spec(r.tenant).weight,
                orig_submit: r.orig_submit,
                slo_secs: r.slo_secs,
            },
        );
    }
    deployment.sim.set_router(Box::new(TenantRouter {
        inner: AdaptiveRouter {
            policy: adaptive,
            up: deployment.up_cluster,
            out: deployment.out_cluster,
            inflight: HashMap::new(),
            snapshot_every: None,
        },
        meta: attribution.clone(),
    }));

    // Queue-layer telemetry rides ahead of the replay: preemptions and the
    // final share snapshot happened at dispatch time, so their instants are
    // stamped with dispatch-sim clocks and broadcast before the engine
    // events stream in. The aggregator folds instants independent of order.
    if deployment.sim.telemetry_active() {
        for ev in &dispatch.preemptions {
            deployment.sim.annotate_instant(
                "tenant",
                "preempt",
                obs::lanes::JOBS,
                ev.victim_job,
                SimTime::from_secs_f64(ev.at),
                vec![
                    ("job", obs::ArgValue::from(ev.victim_job)),
                    ("tenant", obs::ArgValue::from(ev.victim.0)),
                    ("preemptor", obs::ArgValue::from(ev.preemptor.0)),
                    ("wasted_s", obs::ArgValue::from(ev.wasted_secs)),
                ],
            );
        }
        for (job, tenant) in &dispatch.rejected {
            deployment.sim.annotate_instant(
                "tenant",
                "reject",
                obs::lanes::JOBS,
                *job,
                SimTime::from_secs_f64(dispatch.end_time),
                vec![
                    ("job", obs::ArgValue::from(*job)),
                    ("tenant", obs::ArgValue::from(tenant.0)),
                ],
            );
        }
        for (tenant, weight, usage) in dispatch.ledger.active_shares() {
            deployment.sim.annotate_instant(
                "tenant",
                "share",
                obs::lanes::JOBS,
                tenant.0,
                SimTime::from_secs_f64(dispatch.end_time),
                vec![
                    ("tenant", obs::ArgValue::from(tenant.0)),
                    ("weight", obs::ArgValue::from(weight)),
                    ("usage_s", obs::ArgValue::from(usage)),
                ],
            );
        }
    }

    let released = std::mem::take(&mut dispatch.released);
    let mut class_of: HashMap<JobId, Placement> = HashMap::with_capacity(released.len());
    for r in released {
        class_of.insert(
            r.spec.id,
            classifier.place(&r.spec, &ClusterLoads::default()),
        );
        deployment.sim.submit_routed(r.spec);
    }
    let label = format!("tenant-{}", dispatch.policy_name);
    let trace = finish_replay(arch, label, deployment, &class_of);
    TenantOutcome {
        trace,
        dispatch,
        attribution,
    }
}

/// Run the submitted deployment to completion and fold the results into a
/// [`TraceOutcome`], recovering whatever observability state (recorder,
/// aggregator, adaptive router) the replay carried.
fn finish_replay(
    arch: Architecture,
    policy: String,
    mut deployment: Deployment,
    class_of: &HashMap<JobId, Placement>,
) -> TraceOutcome {
    let results = deployment.sim.run().to_vec();
    let recorder = deployment.sim.take_observability();
    let telemetry = deployment.sim.take_sink::<obs::OnlineAggregator>();
    let doctor = deployment.sim.take_sink::<obs::Doctor>();
    let adaptive = deployment.sim.take_router().and_then(|r| {
        match r.into_any().downcast::<AdaptiveRouter>() {
            Ok(r) => Some(Box::new(r.policy)),
            Err(any) => any
                .downcast::<TenantRouter>()
                .ok()
                .map(|r| Box::new(r.inner.policy)),
        }
    });
    let fault_stats = deployment.sim.fault_stats().clone();
    let parallel = deployment.sim.parallel_stats();
    let makespan = results
        .iter()
        .map(|r| r.end.since(simcore::SimTime::ZERO))
        .max()
        .unwrap_or(SimDuration::ZERO);
    let mut up_class_exec = Vec::new();
    let mut out_class_exec = Vec::new();
    for r in &results {
        if !r.succeeded() {
            continue;
        }
        let class = *class_of
            .get(&r.id)
            .expect("every result corresponds to a submitted trace job");
        match class {
            Placement::ScaleUp => up_class_exec.push(r.execution.as_secs_f64()),
            Placement::ScaleOut => out_class_exec.push(r.execution.as_secs_f64()),
        }
    }
    TraceOutcome {
        arch,
        policy,
        results,
        up_class_exec,
        out_class_exec,
        makespan,
        fault_stats,
        recorder,
        telemetry,
        doctor,
        adaptive,
        parallel,
    }
}

/// Summarize one quantile of a class across replicated outcomes.
pub fn quantile_stats(
    outcomes: &[TraceOutcome],
    scale_up_class: bool,
    q: f64,
) -> metrics::OnlineStats {
    let mut stats = metrics::OnlineStats::new();
    for o in outcomes {
        let cdf = if scale_up_class {
            o.up_cdf()
        } else {
            o.out_cdf()
        };
        if let Some(v) = cdf.quantile(q) {
            stats.push(v);
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use scheduler::AlwaysOut;
    use workload::{generate_facebook_trace, FacebookTraceConfig};

    fn small_trace(jobs: usize) -> Vec<JobSpec> {
        // A compressed window keeps queueing pressure realistic at small
        // job counts.
        let cfg = FacebookTraceConfig {
            jobs,
            window: simcore::SimDuration::from_secs(jobs as u64 * 12),
            ..Default::default()
        };
        generate_facebook_trace(&cfg)
    }

    #[test]
    fn replay_completes_all_jobs_on_hybrid() {
        let trace = small_trace(60);
        let out = run_trace(
            Architecture::Hybrid,
            &CrossPointScheduler::default(),
            &trace,
        );
        assert_eq!(out.results.len(), 60);
        assert_eq!(out.failures(), 0);
        assert_eq!(out.up_class_exec.len() + out.out_class_exec.len(), 60);
        // FB-2009-like traces are dominated by small jobs.
        assert!(out.up_class_exec.len() > out.out_class_exec.len());
    }

    #[test]
    fn classification_is_stable_across_architectures() {
        let trace = small_trace(40);
        let h = run_trace(
            Architecture::Hybrid,
            &CrossPointScheduler::default(),
            &trace,
        );
        let t = run_trace(Architecture::THadoop, &AlwaysOut, &trace);
        assert_eq!(h.up_class_exec.len(), t.up_class_exec.len());
        assert_eq!(h.out_class_exec.len(), t.out_class_exec.len());
    }

    #[test]
    fn cdfs_cover_their_class() {
        let trace = small_trace(50);
        let out = run_trace(Architecture::RHadoop, &AlwaysOut, &trace);
        let cdf = out.up_cdf();
        assert_eq!(cdf.len(), out.up_class_exec.len());
        if let Some(max) = cdf.max() {
            assert!(max > 0.0);
        }
    }

    #[test]
    fn policy_name_is_recorded() {
        let trace = small_trace(10);
        let out = run_trace(
            Architecture::Hybrid,
            &CrossPointScheduler::default(),
            &trace,
        );
        assert_eq!(out.policy, "crosspoint");
    }

    #[test]
    fn sliced_trace_with_noncontiguous_ids_replays() {
        // Regression: classification used to index a Vec by `JobId`, so any
        // trace whose ids are not 0..n (a slice, a filtered trace) panicked
        // or misclassified. Keep every third job: ids 0, 3, 6, ...
        let full = small_trace(60);
        let sliced: Vec<JobSpec> = full.iter().step_by(3).cloned().collect();
        assert!(sliced.iter().any(|s| s.id.0 as usize >= sliced.len()));
        let out = run_trace(
            Architecture::Hybrid,
            &CrossPointScheduler::default(),
            &sliced,
        );
        assert_eq!(out.results.len(), sliced.len());
        assert_eq!(
            out.up_class_exec.len() + out.out_class_exec.len(),
            sliced.len()
        );
        // Classification must agree with the classifier on the actual jobs,
        // not on whatever sat at the id's index in the original trace.
        let classifier = CrossPointScheduler::default();
        let expect_up = sliced
            .iter()
            .filter(|s| classifier.place(s, &ClusterLoads::default()) == Placement::ScaleUp)
            .count();
        assert_eq!(out.up_class_exec.len(), expect_up);
    }

    #[test]
    fn streamed_replay_matches_sliced_replay() {
        let cfg = FacebookTraceConfig {
            jobs: 50,
            window: simcore::SimDuration::from_secs(600),
            ..Default::default()
        };
        let materialized = generate_facebook_trace(&cfg);
        let sliced = run_trace(
            Architecture::Hybrid,
            &CrossPointScheduler::default(),
            &materialized,
        );
        let streamed = run_trace_streaming_with(
            Architecture::Hybrid,
            &CrossPointScheduler::default(),
            workload::facebook::stream(&cfg),
            &DeploymentTuning::default(),
        );
        assert_eq!(streamed.results, sliced.results);
        assert_eq!(streamed.up_class_exec, sliced.up_class_exec);
        assert_eq!(streamed.out_class_exec, sliced.out_class_exec);
        assert_eq!(streamed.makespan, sliced.makespan);
    }

    #[test]
    fn backlog_drain_is_slot_proportional() {
        let tuning = DeploymentTuning::default();
        let (up, out) = backlog_drain_rates(Architecture::Hybrid, &tuning);
        // 2 scale-up machines vs 12 scale-out machines: the out side must
        // drain its backlog strictly faster, and both sides strictly faster
        // than the legacy 1 work-sec/sec.
        assert!(up > 1.0 && out > 1.0);
        assert!(out > up, "out {out} should out-drain up {up}");
        // Single-cluster baselines keep a floor on the side they lack.
        let (up_r, out_r) = backlog_drain_rates(Architecture::RHadoop, &tuning);
        assert!(up_r >= 1.0 && out_r > 1.0);
    }

    #[test]
    fn adaptive_without_exploration_matches_static_replay_exactly() {
        let trace = small_trace(80);
        let static_out = run_trace(
            Architecture::Hybrid,
            &CrossPointScheduler::default(),
            &trace,
        );
        let frozen = AdaptiveScheduler::new(scheduler::AdaptiveConfig {
            exploration: 0.0,
            ..Default::default()
        });
        let adaptive_out = run_trace_adaptive_with(
            Architecture::Hybrid,
            frozen,
            &trace,
            &DeploymentTuning::default(),
        );
        assert_eq!(adaptive_out.results, static_out.results);
        assert_eq!(adaptive_out.up_class_exec, static_out.up_class_exec);
        assert_eq!(adaptive_out.makespan, static_out.makespan);
        assert_eq!(adaptive_out.policy, "adaptive");
        let recovered = adaptive_out.adaptive.expect("adaptive state is recovered");
        assert_eq!(recovered.snapshot(), CrossPointScheduler::default());
        assert!(recovered.recalibrations().is_empty());
        assert_eq!(recovered.completions(), trace.len() as u64);
        assert!(static_out.adaptive.is_none());
    }

    #[test]
    fn adaptive_streaming_matches_sliced_adaptive() {
        let cfg = FacebookTraceConfig {
            jobs: 60,
            window: simcore::SimDuration::from_secs(720),
            ..Default::default()
        };
        let materialized = generate_facebook_trace(&cfg);
        let cfg_a = scheduler::AdaptiveConfig::default();
        let sliced = run_trace_adaptive_with(
            Architecture::Hybrid,
            AdaptiveScheduler::new(cfg_a.clone()),
            &materialized,
            &DeploymentTuning::default(),
        );
        let streamed = run_trace_adaptive_streaming_with(
            Architecture::Hybrid,
            AdaptiveScheduler::new(cfg_a),
            workload::facebook::stream(&cfg),
            &DeploymentTuning::default(),
        );
        assert_eq!(streamed.results, sliced.results);
        assert_eq!(streamed.makespan, sliced.makespan);
        let (a, b) = (sliced.adaptive.unwrap(), streamed.adaptive.unwrap());
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.recalibrations(), b.recalibrations());
    }

    #[test]
    fn adaptive_replay_on_single_cluster_architectures_is_harmless() {
        // No up side: every decision lands on the only cluster and every
        // completion is an out-side sample, so nothing can pair.
        let trace = small_trace(30);
        let out = run_trace_adaptive_with(
            Architecture::THadoop,
            AdaptiveScheduler::default(),
            &trace,
            &DeploymentTuning::default(),
        );
        assert_eq!(out.results.len(), 30);
        let recovered = out.adaptive.unwrap();
        assert!(recovered.recalibrations().is_empty());
    }

    #[test]
    fn observed_replay_annotates_placements_without_changing_results() {
        let trace = small_trace(20);
        let policy = CrossPointScheduler::default();
        let plain = run_trace(Architecture::Hybrid, &policy, &trace);

        let tuning = DeploymentTuning {
            observe: true,
            ..Default::default()
        };
        let observed = run_trace_with(Architecture::Hybrid, &policy, &trace, &tuning);
        assert_eq!(
            observed.results, plain.results,
            "observability must not perturb the replay"
        );
        assert!(plain.recorder.is_none());

        let rec = observed.recorder.as_deref().unwrap();
        let placements: Vec<_> = rec.by_category("placement").collect();
        assert_eq!(placements.len(), trace.len());
        for e in &placements {
            assert!(e.name == "place:scale-up" || e.name == "place:scale-out");
            assert!(e.arg("band").is_some());
            assert!(e.arg("cross_point_bytes").is_some());
            assert!(e.arg("note").is_some());
        }
    }
}
