//! The three in-process replay workloads: `replay-backlog`,
//! `replay-observed` and `tenants-ec-storm`.
//!
//! Every rep replays the same generated inputs, so every rep's outcome
//! must fingerprint to the warm-up rep's. Every workload uses the default
//! sequential replay executor.

use crate::check::{each_job_once, fingerprint, Fnv};
use crate::stats::median;
use crate::{alloc, sample_own_rss, Outcome, Params, DEFAULT_SEED};
use hybrid_core::{
    run_trace_tenants_with, run_trace_with, Architecture, Deployment, DeploymentTuning,
    TenantOutcome, TraceOutcome,
};
use mapreduce::{JobSpec, TaskSchedPolicy};
use scheduler::{
    AdaptiveScheduler, ClusterLoads, CrossPointScheduler, DispatchOutcome, JobPlacement, Placement,
    PlacementDecision, PolicyKind, TenantDispatcher, TenantJob, TenantSchedConfig, TenantTable,
};
use simcore::fault::FaultPlan;
use simcore::{SimDuration, SimTime};
use std::cell::Cell;
use std::time::{Duration, Instant};
use storage::{DfsModel, DurabilityConfig, DurableModel, FileId, RedundancyScheme};
use workload::{FacebookTraceConfig, TenantModelConfig};

/// Fingerprints of the warm-up rep at the default seed. A change to any of
/// them is a change of simulated behaviour, which a performance change must
/// not make.
const BACKLOG_PIN: u64 = 0x2f0f_9e01_b957_1208;
const OBSERVED_PIN: u64 = 0x992c_dd11_980d_caef;
const OBSERVED_EXPORTS_PIN: u64 = 0x069e_cd61_65c8_1870;
const TENANTS_PIN: u64 = 0x0644_f14a_497d_d411;
/// Jobs the tenants workload fails at the default seed: an output of the
/// simulation, pinned like the fingerprint.
const TENANTS_FAILED_PIN: usize = 0;

/// Run the workload's set-up repeatedly and return the last inputs. Each
/// set-up (input generation plus `build`) is one `setup_s` sample; the
/// generation alone is a `workload.gen_ms` sample.
fn setup<T>(
    p: &Params,
    out: &mut Outcome,
    gen_span: &'static str,
    gen: impl Fn() -> T,
    build: impl Fn(&T),
) -> T {
    let mut inputs = None;
    p.repeat_setup(|| {
        let t0 = Instant::now();
        let (x, count) = out.spans.time(gen_span, || alloc::measure(&gen));
        let gen_time = t0.elapsed();
        out.spans
            .time("hybrid_core.Deployment::build_with", || build(&x));
        out.sample("setup_s", t0.elapsed().as_secs_f64());
        out.sample("workload.gen_ms", gen_time.as_secs_f64() * 1e3);
        out.sample("workload.allocs", count.allocs as f64);
        inputs = Some(x);
    });
    inputs.expect("at least one set-up")
}

/// Give the jobs the input sizes and applications of the `reference` jobs,
/// matched by size rank: the smallest job becomes the smallest reference
/// job, and so on.
///
/// Every workload draws its jobs from the seed and then takes their sizes
/// and applications from the default seed's draw. Sizes are heavy-tailed,
/// so otherwise a handful of giant jobs set a trace's total work and the
/// same workload costs ±10 % more or less from one seed to the next. This
/// way every seed runs the same jobs, and the seed decides when each
/// arrives (and, for tenants, whose it is). At the default seed it is the
/// identity.
fn take_jobs<'a>(jobs: impl Iterator<Item = &'a mut JobSpec>, mut reference: Vec<JobSpec>) {
    let mut jobs: Vec<&mut JobSpec> = jobs.collect();
    assert_eq!(jobs.len(), reference.len(), "one reference job per job");
    // Stable sorts: equal sizes keep their order.
    jobs.sort_by_key(|j| j.input_size);
    reference.sort_by_key(|j| j.input_size);
    for (job, r) in jobs.into_iter().zip(reference) {
        job.input_size = r.input_size;
        job.profile = r.profile;
    }
}

/// `jobs` FB-2009 jobs arriving as a Poisson stream over
/// `secs_per_job × jobs` seconds, with the default seed's sizes and
/// applications. The generator's arrival bursts are off: which seed's
/// bursts happened to bunch up the big jobs moved a rep's cost by ±3 %.
fn fb_trace(seed: u64, jobs: usize, secs_per_job: f64) -> Vec<JobSpec> {
    let cfg = |seed| FacebookTraceConfig {
        jobs,
        seed,
        window: SimDuration::from_secs_f64(jobs as f64 * secs_per_job),
        bursts: None,
        ..Default::default()
    };
    let mut trace = workload::generate_facebook_trace(&cfg(seed));
    take_jobs(
        trace.iter_mut(),
        workload::generate_facebook_trace(&cfg(DEFAULT_SEED)),
    );
    trace
}

fn fair() -> DeploymentTuning {
    let mut t = DeploymentTuning::default();
    t.engine_up.task_sched = TaskSchedPolicy::Fair;
    t.engine_out.task_sched = TaskSchedPolicy::Fair;
    t
}

/// A placement policy that counts and times every `place` call made
/// through it.
struct Timed<P> {
    inner: P,
    calls: Cell<u64>,
    total: Cell<Duration>,
}

impl<P> Timed<P> {
    fn new(inner: P) -> Self {
        Timed {
            inner,
            calls: Cell::new(0),
            total: Cell::new(Duration::ZERO),
        }
    }
}

impl<P: JobPlacement> JobPlacement for Timed<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&self, job: &JobSpec, loads: &ClusterLoads) -> Placement {
        let t0 = Instant::now();
        let placement = self.inner.place(job, loads);
        self.total.set(self.total.get() + t0.elapsed());
        self.calls.set(self.calls.get() + 1);
        placement
    }

    fn explain(&self, job: &JobSpec, loads: &ClusterLoads) -> PlacementDecision {
        self.inner.explain(job, loads)
    }
}

/// The checks every replay rep gets: each of `jobs` jobs finished exactly
/// once, and the outcome fingerprints to `want`.
fn check_rep(out: &mut Outcome, what: &str, o: &TraceOutcome, jobs: usize, want: u64) {
    out.checks.check(each_job_once(&o.results, jobs), || {
        format!("{what}: {} results for {jobs} jobs", o.results.len())
    });
    out.checks.eq(what, fingerprint(o), want);
}

/// `replay-backlog`: a 20 k-job FB-2009 replay on the hybrid architecture
/// under the static cross-point scheduler, no sinks. Arrivals are
/// compressed into jobs/2 seconds, so both sub-clusters stay overloaded
/// for the whole replay and Fair task scheduling keeps every queued job in
/// the dispatch path. Nearly all of its time is the engine core.
pub fn backlog(p: &Params, out: &mut Outcome) {
    let jobs = if p.smoke { 300 } else { 20_000 };
    let tuning = fair();
    let policy = CrossPointScheduler::default();
    let trace = setup(
        p,
        out,
        "workload.generate_facebook_trace",
        || fb_trace(p.seed, jobs, 0.5),
        |_| drop(Deployment::build_with(Architecture::Hybrid, &tuning)),
    );
    let reference = run_trace_with(Architecture::Hybrid, &policy, &trace, &tuning);
    let want = fingerprint(&reference);
    check_rep(out, "warm-up replay", &reference, jobs, want);
    if p.pinned() {
        out.checks
            .eq("replay fingerprint at the default seed", want, BACKLOG_PIN);
    }

    let mut plain = Vec::new();
    p.repeat(5, || {
        let t0 = Instant::now();
        let o = run_trace_with(Architecture::Hybrid, &policy, &trace, &tuning);
        let wall = t0.elapsed().as_secs_f64();
        check_rep(out, "replay", &o, jobs, want);
        out.sample("ops_per_s", o.results.len() as f64 / wall);
        plain.push(wall);
        if !p.trace {
            return;
        }

        // The same replay with every placement call timed.
        let timed = Timed::new(CrossPointScheduler::default());
        let rep = out.spans.enter("hhbench.rep");
        let call = out.spans.enter("hybrid_core.run_trace_with");
        let t0 = Instant::now();
        let o = run_trace_with(Architecture::Hybrid, &timed, &trace, &tuning);
        let wall = t0.elapsed();
        let place = timed.total.get();
        out.spans
            .fold("scheduler.place", call, timed.calls.get(), place);
        out.spans.exit(call);
        let check = out.spans.enter("hhbench.check");
        check_rep(out, "timed replay", &o, jobs, want);
        out.spans.exit(check);
        out.spans.exit(rep);
        out.sample("trace.overhead", wall.as_secs_f64() / median(&plain));
        out.sample("scheduler.place_calls", timed.calls.get() as f64);
        out.sample(
            "scheduler.place_pct",
            100.0 * place.as_secs_f64() / wall.as_secs_f64(),
        );
        out.sample(
            "engine.self_pct",
            100.0 * (wall - place).as_secs_f64() / wall.as_secs_f64(),
        );

        engine_replay(out, &trace, &tuning, &reference);
    });
    sample_own_rss(out);
}

/// The replay `run_trace_with` performs, driven through the `Deployment`
/// API so the engine's own counters are readable. Its results must equal
/// the reference replay's bitwise.
fn engine_replay(
    out: &mut Outcome,
    trace: &[JobSpec],
    tuning: &DeploymentTuning,
    reference: &TraceOutcome,
) {
    let rep = out.spans.enter("hhbench.engine_rep");
    let (mut d, built) = out.spans.time("hybrid_core.Deployment::build_with", || {
        alloc::measure(|| Deployment::build_with(Architecture::Hybrid, tuning))
    });
    let policy = CrossPointScheduler::default();
    let ((), submitted) = out.spans.time("hybrid_core.Deployment::submit_placed", || {
        alloc::measure(|| {
            for spec in trace {
                let placement = policy.place(spec, &ClusterLoads::default());
                d.submit_placed(spec.clone(), placement);
            }
        })
    });
    let call = out.spans.enter("mapreduce.Simulation::run");
    let t0 = Instant::now();
    let (same, ran) = alloc::measure(|| d.sim.run() == reference.results.as_slice());
    let run = t0.elapsed();
    out.spans.exit(call);
    out.spans.exit(rep);
    out.checks.check(same, || {
        "Deployment-driven replay differs from run_trace_with".to_string()
    });
    let events = d.sim.events_processed() as f64;
    let allocs = built.allocs + submitted.allocs + ran.allocs;
    out.sample("engine.events", events);
    out.sample("engine.flow_epochs", d.sim.network().generation().0 as f64);
    out.sample("engine.events_per_ms", events / (run.as_secs_f64() * 1e3));
    out.sample("engine.allocs_per_job", allocs as f64 / trace.len() as f64);
}

/// The four export documents of an observed replay.
fn exports(o: &TraceOutcome) -> [String; 4] {
    let rec = o.recorder.as_deref().expect("observed replay records");
    let agg = o.telemetry.as_deref().expect("telemetry was attached");
    let doctor = o.doctor.as_deref().expect("doctor was attached");
    [
        rec.chrome_trace(),
        agg.render_prometheus(),
        agg.render_json(),
        doctor.render_incidents_json(),
    ]
}

fn hash_docs(docs: &[String; 4]) -> u64 {
    let mut h = Fnv::default();
    for d in docs {
        h.u64(Fnv::of(d.as_bytes()));
    }
    h.0
}

/// `replay-observed`: a 3 k-job FB-2009 replay with the recorder, the
/// telemetry aggregator and the doctor attached, followed by the four
/// exports. Arrivals spread over 12 s per job (the golden tests' pace), so
/// queues drain between bursts and the cost follows the data, not one
/// seed's pile-up. About two thirds of its time is `obs`, and the recorder
/// holds every event, so this is also the memory workload.
pub fn observed(p: &Params, out: &mut Outcome) {
    let jobs = if p.smoke { 300 } else { 3_000 };
    let sinks_off = fair();
    let tuning = DeploymentTuning {
        observe: true,
        telemetry: Some(obs::TelemetryConfig::default()),
        doctor: Some(obs::DoctorConfig::default()),
        ..fair()
    };
    let policy = CrossPointScheduler::default();
    let trace = setup(
        p,
        out,
        "workload.generate_facebook_trace",
        || fb_trace(p.seed, jobs, 12.0),
        |_| drop(Deployment::build_with(Architecture::Hybrid, &tuning)),
    );
    // Sinks are passive: the observed replay must equal the plain one.
    let plain = run_trace_with(Architecture::Hybrid, &policy, &trace, &sinks_off);
    let want = fingerprint(&plain);
    drop(plain);
    let first = run_trace_with(Architecture::Hybrid, &policy, &trace, &tuning);
    check_rep(
        out,
        "observed warm-up replay vs sinks off",
        &first,
        jobs,
        want,
    );
    let want_docs = hash_docs(&exports(&first));
    drop(first);
    if p.pinned() {
        out.checks.eq(
            "observed fingerprint at the default seed",
            want,
            OBSERVED_PIN,
        );
        out.checks.eq(
            "export documents at the default seed",
            want_docs,
            OBSERVED_EXPORTS_PIN,
        );
    }

    let mut on = Vec::new();
    p.repeat(20, || {
        let t0 = Instant::now();
        let o = run_trace_with(Architecture::Hybrid, &policy, &trace, &tuning);
        let replay = t0.elapsed().as_secs_f64();
        let docs = exports(&o);
        let wall = t0.elapsed().as_secs_f64();
        check_rep(out, "observed replay", &o, jobs, want);
        out.checks
            .eq("export documents", hash_docs(&docs), want_docs);
        drop((o, docs));
        out.sample("ops_per_s", jobs as f64 / wall);
        on.push(wall);
        if !p.trace {
            return;
        }

        // Sinks on vs off, back to back so drift cancels.
        let t0 = Instant::now();
        let off = run_trace_with(Architecture::Hybrid, &policy, &trace, &sinks_off);
        let off_wall = t0.elapsed().as_secs_f64();
        check_rep(out, "sinks-off replay", &off, jobs, want);
        drop(off);
        out.sample("obs.sink_pct", 100.0 * (replay - off_wall) / off_wall);

        // The traced rep: the replay and each export as its own span.
        let rep = out.spans.enter("hhbench.rep");
        let t0 = Instant::now();
        let (o, replay_allocs) = out.spans.time("hybrid_core.run_trace_with", || {
            alloc::measure(|| run_trace_with(Architecture::Hybrid, &policy, &trace, &tuning))
        });
        let t_exports = Instant::now();
        let rec = o.recorder.as_deref().expect("observed replay records");
        let agg = o.telemetry.as_deref().expect("telemetry was attached");
        let doctor = o.doctor.as_deref().expect("doctor was attached");
        let mut export_allocs = 0;
        let mut bytes = 0;
        let calls: [(&'static str, &dyn Fn() -> String); 4] = [
            ("obs.Recorder::chrome_trace", &|| rec.chrome_trace()),
            ("obs.OnlineAggregator::render_prometheus", &|| {
                agg.render_prometheus()
            }),
            ("obs.OnlineAggregator::render_json", &|| agg.render_json()),
            ("obs.Doctor::render_incidents_json", &|| {
                doctor.render_incidents_json()
            }),
        ];
        for (span, call) in calls {
            let (doc, count) = out.spans.time(span, || alloc::measure(call));
            export_allocs += count.allocs;
            bytes += doc.len();
        }
        let export = t_exports.elapsed().as_secs_f64();
        let wall = t0.elapsed().as_secs_f64();
        out.spans.exit(rep);
        out.sample("trace.overhead", wall / median(&on));
        out.sample("obs.export_pct", 100.0 * export / wall);
        out.sample("obs.export_bytes", bytes as f64);
        out.sample("obs.export_allocs", export_allocs as f64);
        out.sample("obs.events_recorded", rec.len() as f64);
        out.sample("obs.aggregator_events", agg.events_seen() as f64);
        out.sample("obs.doctor_events", doctor.events() as f64);
        out.sample(
            "engine.allocs_per_job",
            replay_allocs.allocs as f64 / jobs as f64,
        );
    });
    sample_own_rss(out);
}

/// Racks per cluster in the storm workload; rack 1 of the scale-out
/// cluster is the one that goes down.
const RACKS: u32 = 4;

/// Four racks per cluster, EC(6+3) local storage (the architecture's
/// default storage when `durable` is off), speculative execution on, and
/// the whole of rack 1 of the scale-out cluster down from `storm` for
/// 1800 s. Inputs are deleted after each job, so the storm hits the data
/// in flight.
fn storm_tuning(storm: SimTime, durable: bool) -> DeploymentTuning {
    let out_nodes = Architecture::Hybrid.cluster_specs()[1].len();
    let rack_one: Vec<(usize, usize)> = (0..out_nodes)
        .filter(|&i| i * RACKS as usize / out_nodes == 1)
        .map(|i| (1, i))
        .collect();
    let mut t = DeploymentTuning {
        durability: durable.then(|| DurabilityConfig {
            scheme: RedundancyScheme::ErasureCoded { k: 6, m: 3 },
            ..Default::default()
        }),
        racks: RACKS,
        fault: FaultPlan::empty().with_outage(storm, SimDuration::from_secs(1800), &rack_one),
        ..Default::default()
    };
    t.engine_up.speculative_execution = true;
    t.engine_out.speculative_execution = true;
    t
}

/// The tenant jobs of `model`, with the default seed's sizes and
/// applications.
fn tenant_jobs(model: &TenantModelConfig) -> Vec<TenantJob> {
    let mut list = workload::tenants::generate(model);
    let reference = workload::tenants::stream(&TenantModelConfig {
        seed: DEFAULT_SEED,
        ..model.clone()
    })
    .map(|j| j.spec)
    .collect();
    take_jobs(list.iter_mut().map(|j| &mut j.spec), reference);
    list
}

/// When the storm starts: a second after the dispatcher releases one of
/// the jobs between the 0.5 % and 1 % size quantiles, so the storm always
/// finds a large input to repair (a minute later, that job may be done and
/// its input deleted). Of those, it takes the one with the least input
/// released in the hour before it, so little else is resident: the repair
/// volume, and with it the rep's cost, is then about the same for every
/// seed. Keyed to one fixed-rank job instead, it swung by up to 8× with
/// whatever giant happened to be running.
fn storm_start(dispatch: &DispatchOutcome) -> SimTime {
    let mut by_time: Vec<(SimTime, u64)> = dispatch
        .released
        .iter()
        .map(|r| (r.spec.submit, r.spec.input_size))
        .collect();
    by_time.sort_unstable();
    let mut released_before = vec![0u64];
    for &(_, size) in &by_time {
        released_before.push(released_before[released_before.len() - 1] + size);
    }
    let hour = SimDuration::from_secs(3600);
    let recent = |at: SimTime| {
        let hi = by_time.partition_point(|&(t, _)| t < at);
        let lo = by_time.partition_point(|&(t, _)| t + hour < at);
        released_before[hi] - released_before[lo]
    };
    let mut by_size = by_time.clone();
    by_size.sort_unstable_by_key(|&(at, size)| (std::cmp::Reverse(size), at));
    let band = &by_size[by_size.len() / 200..(by_size.len() / 100).max(1)];
    band.iter()
        .min_by_key(|&&(at, size)| (recent(at), std::cmp::Reverse(size), at))
        .map_or(SimTime::ZERO, |&(at, _)| at)
        + SimDuration::from_secs(1)
}

/// `tenants-ec-storm`: 40 k multi-tenant jobs through the capacity-queue
/// dispatcher (3/3 slots, preemption on) and the adaptive router, on EC
/// storage through a rack storm. The only workload where storage writes
/// parity and repairs, and where dispatch and recalibration do real work.
/// Arrivals are Poisson (the model's diurnal envelope and bursts are off):
/// with them, where the one storm lands in a seed's daily cycle swings the
/// cost of a rep by ±10 %. The storm's cost still depends on the seed, so
/// the trace is long enough to dilute it.
pub fn tenants(p: &Params, out: &mut Outcome) {
    let jobs = if p.smoke { 300 } else { 40_000 };
    let model = TenantModelConfig {
        jobs,
        seed: p.seed,
        window: SimDuration::from_secs(jobs as u64 * 3),
        shrink_factor: 10.0,
        bursts: None,
        diurnal: None,
        ..Default::default()
    };
    let sched = TenantSchedConfig {
        slots_up: 3,
        slots_out: 3,
        ..Default::default()
    };
    let dispatcher = |table: &TenantTable| {
        TenantDispatcher::new(
            table.clone(),
            sched.clone(),
            PolicyKind::Capacity.build(table),
        )
    };
    // The storm's start does not change what building a deployment costs.
    let (table, list) = setup(
        p,
        out,
        "workload.tenants::generate",
        || (workload::tenant_table(&model), tenant_jobs(&model)),
        |_| {
            let tuning = storm_tuning(SimTime::ZERO, true);
            drop(Deployment::build_with(Architecture::Hybrid, &tuning));
        },
    );
    let storm = out.spans.time("scheduler.TenantDispatcher::run", || {
        storm_start(&dispatcher(&table).run(list.iter().cloned()))
    });
    let tuning = storm_tuning(storm, true);
    let replay = |tuning: &DeploymentTuning| {
        run_trace_tenants_with(
            Architecture::Hybrid,
            table.clone(),
            sched.clone(),
            PolicyKind::Capacity,
            AdaptiveScheduler::default(),
            list.iter().cloned(),
            tuning,
        )
    };
    let reference = replay(&tuning);
    let want = fingerprint(&reference.trace);
    let failed = reference.trace.failures();
    check_tenants(out, &reference, jobs, want, failed);
    if p.pinned() {
        out.checks
            .eq("tenants fingerprint at the default seed", want, TENANTS_PIN);
        out.checks.eq(
            "failed jobs at the default seed",
            failed,
            TENANTS_FAILED_PIN,
        );
    }
    drop(reference);

    let default_storage = storm_tuning(storm, false);
    let mut plain = Vec::new();
    p.repeat(5, || {
        let t0 = Instant::now();
        let o = replay(&tuning);
        let wall = t0.elapsed().as_secs_f64();
        check_tenants(out, &o, jobs, want, failed);
        out.sample("ops_per_s", o.trace.results.len() as f64 / wall);
        plain.push(wall);
        drop(o);
        if !p.trace {
            return;
        }

        // The same inputs on the architecture's default storage, back to
        // back with the EC rep so drift cancels.
        let t0 = Instant::now();
        drop(replay(&default_storage));
        let default_wall = t0.elapsed().as_secs_f64();
        out.sample(
            "storage.ec_premium_pct",
            100.0 * (wall - default_wall) / default_wall,
        );

        let rep = out.spans.enter("hhbench.rep");
        let t0 = Instant::now();
        let (dispatch, count) = out.spans.time("scheduler.TenantDispatcher::run", || {
            alloc::measure(|| dispatcher(&table).run(list.iter().cloned()))
        });
        let dispatch_wall = t0.elapsed().as_secs_f64();
        let (o, replay_allocs) = out.spans.time("hybrid_core.run_trace_tenants_with", || {
            alloc::measure(|| replay(&tuning))
        });
        let traced_wall = t0.elapsed().as_secs_f64() - dispatch_wall;
        out.sample(
            "engine.allocs_per_job",
            replay_allocs.allocs as f64 / jobs as f64,
        );
        let check = out.spans.enter("hhbench.check");
        check_tenants(out, &o, jobs, want, failed);
        out.spans.exit(check);
        snapshot_roundtrip(out, &o);
        out.spans.exit(rep);
        out.sample("trace.overhead", traced_wall / median(&plain));
        out.sample(
            "scheduler.dispatch_pct",
            100.0 * dispatch_wall / traced_wall,
        );
        out.sample("scheduler.dispatch_allocs", count.allocs as f64);
        out.sample("scheduler.preemptions", dispatch.stats.preemptions as f64);
        out.sample("scheduler.rejections", dispatch.stats.rejections as f64);
        let adaptive = o.trace.adaptive.as_deref().expect("adaptive replay");
        out.sample(
            "scheduler.recalibrations",
            adaptive.recalibrations().len() as f64,
        );
        let s = &o.trace.fault_stats;
        out.sample("storage.sim_degraded_reads", s.degraded_reads as f64);
        out.sample("storage.sim_reconstructed_mb", s.reconstructed_bytes / 1e6);
        out.sample("storage.sim_failed_jobs", o.trace.failures() as f64);
    });
    if p.trace {
        storage_plan(out, &list);
    }
    sample_own_rss(out);
}

fn check_tenants(out: &mut Outcome, o: &TenantOutcome, jobs: usize, want: u64, failed: usize) {
    let rejected = o.dispatch.stats.rejections as usize;
    check_rep(out, "tenants replay", &o.trace, jobs - rejected, want);
    out.checks.eq("failed jobs", o.trace.failures(), failed);
    let rebuilt = o.trace.fault_stats.reconstructed_bytes;
    out.checks.check(rebuilt > 0.0, || {
        "the rack storm reconstructed nothing".into()
    });
}

/// Save and restore the scheduler the replay recovered; the restored copy
/// must save to the same bytes.
fn snapshot_roundtrip(out: &mut Outcome, o: &TenantOutcome) {
    let sched = o.trace.adaptive.as_deref().expect("adaptive replay");
    let doc = out.spans.time("scheduler.snapshot::save", || {
        scheduler::snapshot::save(sched)
    });
    let restored = out.spans.time("scheduler.snapshot::restore", || {
        scheduler::snapshot::restore(&doc)
    });
    let same = restored.is_ok_and(|r| scheduler::snapshot::save(&r) == doc);
    out.checks
        .check(same, || "scheduler snapshot does not round-trip".into());
    out.sample("scheduler.snapshot_bytes", doc.len() as f64);
}

/// Namenode-side planning in isolation: place the workload's inputs on
/// the storm deployment's EC storage until it is full, then take rack 1 of
/// the scale-out cluster down and plan the repair.
fn storage_plan(out: &mut Outcome, list: &[TenantJob]) {
    let tuning = storm_tuning(SimTime::ZERO, true);
    let mut net = simcore::FlowNetwork::new();
    let mut first_id = 0u32;
    let mut nodes = Vec::new();
    for mut spec in Architecture::Hybrid.cluster_specs() {
        spec.racks = RACKS;
        let built = spec.build(&mut net, first_id);
        first_id += built.nodes.len() as u32;
        nodes.push(built.nodes);
    }
    let all: Vec<cluster::Node> = nodes.concat();
    let cfg = tuning.durability.expect("EC storage");
    let span = out.spans.enter("hhbench.storage_plan");
    let t0 = Instant::now();
    let ((), count) = alloc::measure(|| {
        let mut fs = DurableModel::new(cfg, &all, cluster::FabricSpec::myrinet());
        let mut created = 0u64;
        for (i, job) in list.iter().enumerate() {
            if fs
                .create_file(FileId(i as u64), job.spec.input_size)
                .is_err()
            {
                break;
            }
            created += 1;
        }
        let create = t0.elapsed();
        out.spans
            .fold("storage.DfsModel::create_file", span, created, create);
        let t1 = Instant::now();
        let rack_one: Vec<_> = nodes[1].iter().filter(|n| n.rack == 1).collect();
        for node in &rack_one {
            std::hint::black_box(fs.on_node_down(node.id));
        }
        out.spans.fold(
            "storage.DfsModel::on_node_down",
            span,
            rack_one.len() as u64,
            t1.elapsed(),
        );
    });
    out.spans.exit(span);
    out.sample("storage.plan_allocs", count.allocs as f64);
}
