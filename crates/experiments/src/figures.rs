//! One function per paper artifact, each returning a Markdown block with
//! the regenerated rows/series. The binaries print these; `run_all`
//! assembles them into EXPERIMENTS.md.

use hybrid_core::{grids, run_trace, series_of, sweep, Architecture};
use mapreduce::{JobProfile, JobResult};
use metrics::table::{fmt_bytes, fmt_secs};
use metrics::{EmpiricalCdf, Series};
use scheduler::{estimate_cross_point, AlwaysOut, CrossPointScheduler, JobPlacement, SweepPoint};
use workload::{apps, generate_facebook_trace, FacebookTraceConfig};

const GB: u64 = 1 << 30;

/// Render one series per architecture as a size-indexed Markdown table
/// (`-` marks failed points, e.g. up-HDFS beyond its disk capacity).
fn series_table(title: &str, sizes: &[u64], series: &[Series]) -> String {
    let mut headers: Vec<String> = vec!["input".into()];
    headers.extend(series.iter().map(|s| s.label.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&sz| {
            let mut row = vec![fmt_bytes(sz)];
            for s in series {
                row.push(match s.y_at(sz as f64) {
                    Some(y) => format!("{y:.3}"),
                    None => "-".into(),
                });
            }
            row
        })
        .collect();
    format!(
        "### {title}\n\n{}\n",
        metrics::table::render(&header_refs, &rows)
    )
}

/// The four per-figure panels (a)–(d) for one application, in the paper's
/// presentation: execution time and map phase normalized by up-OFS,
/// shuffle and reduce phase in seconds.
fn measurement_quad(fig: &str, profile: &JobProfile, sizes: &[u64]) -> String {
    let archs = Architecture::TABLE_I;
    let grouped = sweep(&archs, profile, sizes);
    let exec = series_of(&archs, &grouped, |r| r.execution.as_secs_f64());
    let map = series_of(&archs, &grouped, |r| r.map_phase.as_secs_f64());
    let shuffle = series_of(&archs, &grouped, |r| r.shuffle_phase.as_secs_f64());
    let reduce = series_of(&archs, &grouped, |r| r.reduce_phase.as_secs_f64());
    // up-OFS is the normalization baseline (its own series becomes 1.0).
    // Series may have gaps (up-HDFS fails beyond its disk capacity), so
    // normalize pointwise over the intersection of x grids.
    let normalize = |series: &[Series], base: &Series| -> Vec<Series> {
        series
            .iter()
            .map(|s| {
                let mut n = Series::new(s.label.clone());
                for &(x, y) in &s.points {
                    if let Some(by) = base.y_at(x) {
                        if by > 0.0 {
                            n.push(x, y / by);
                        }
                    }
                }
                n
            })
            .collect()
    };
    let exec_norm = normalize(&exec, &exec[0]);
    let map_norm = normalize(&map, &map[0]);
    let mut out = format!(
        "## {fig} — {} (S/I = {})\n\n",
        profile.name, profile.shuffle_input_ratio
    );
    // Normalized tables only cover points where up-OFS also ran; use the
    // baseline's x grid.
    let base_sizes: Vec<u64> = exec[0].points.iter().map(|&(x, _)| x as u64).collect();
    out += &series_table(
        "(a) execution time, normalized to up-OFS",
        &base_sizes,
        &exec_norm,
    );
    out += &series_table(
        "(b) map phase duration, normalized to up-OFS",
        &base_sizes,
        &map_norm,
    );
    out += &series_table("(c) shuffle phase duration (s)", sizes, &shuffle);
    out += &series_table("(d) reduce phase duration (s)", sizes, &reduce);
    out
}

/// Figure 3: the CDF of input sizes in the synthesized FB-2009 trace.
pub fn fig3() -> String {
    let cfg = FacebookTraceConfig {
        shrink_factor: 1.0,
        ..Default::default()
    };
    let specs = generate_facebook_trace(&cfg);
    let n = specs.len() as f64;
    let small = specs.iter().filter(|s| s.input_size < 1_000_000).count() as f64 / n;
    let large = specs
        .iter()
        .filter(|s| s.input_size > 30_000_000_000)
        .count() as f64
        / n;
    let cdf = EmpiricalCdf::new(specs.iter().map(|s| s.input_size as f64).collect());
    let mut out = String::from("## Figure 3 — CDF of input data size (FB-2009 synthesis)\n\n");
    out += &format!(
        "bands: {:.1}% < 1 MB (paper: 40%), {:.1}% in 1 MB–30 GB (paper: 49%), {:.1}% > 30 GB (paper: 11%)\n\n",
        small * 100.0,
        (1.0 - small - large) * 100.0,
        large * 100.0
    );
    let rows: Vec<Vec<String>> = cdf
        .quantile_sweep(11)
        .into_iter()
        .map(|(q, x)| vec![format!("{:.0}%", q * 100.0), fmt_bytes(x as u64)])
        .collect();
    out += &metrics::table::render(&["CDF", "input size"], &rows);
    out.push('\n');
    out
}

/// Figure 5: Wordcount on the four architectures, plus the observed
/// per-job phase breakdown of [`fig5_observed`].
pub fn fig5() -> String {
    let mut out = measurement_quad("Figure 5", &apps::wordcount(), &grids::shuffle_intensive());
    out += &fig5_breakdown();
    out
}

/// The deterministic observed run backing the fig5 phase-breakdown table and
/// the `--trace-out` Chrome export: a Wordcount batch spanning the paper's
/// 32 GB cross point, replayed on the hybrid architecture with the
/// observability layer on. Staggered arrivals keep the jobs distinguishable
/// on the timeline; the run is a pure function of this fixed spec, so two
/// invocations export byte-identical traces.
pub fn fig5_observed() -> hybrid_core::TraceOutcome {
    fig5_observed_with(false)
}

/// [`fig5_observed`] with an optional streaming [`obs::OnlineAggregator`]
/// attached alongside the recorder (for `--metrics-out`).
pub fn fig5_observed_with(telemetry: bool) -> hybrid_core::TraceOutcome {
    use hybrid_core::{run_trace_with, DeploymentTuning};
    use mapreduce::JobSpec;
    let sizes: [u64; 6] = [GB / 2, 2 * GB, 8 * GB, 16 * GB, 32 * GB, 64 * GB];
    let trace: Vec<JobSpec> = sizes
        .iter()
        .enumerate()
        .map(|(i, &sz)| {
            let mut spec = JobSpec::at_zero(i as u32, apps::wordcount(), sz);
            spec.submit = simcore::SimTime::ZERO + simcore::SimDuration::from_secs(20 * i as u64);
            spec
        })
        .collect();
    let tuning = DeploymentTuning {
        observe: true,
        telemetry: telemetry.then(obs::TelemetryConfig::default),
        ..Default::default()
    };
    run_trace_with(
        Architecture::Hybrid,
        &CrossPointScheduler::default(),
        &trace,
        &tuning,
    )
}

fn fig5_breakdown() -> String {
    let outcome = fig5_observed();
    let rec = outcome
        .recorder
        .as_deref()
        .expect("observed run records a trace");
    let breakdown = obs::breakdown::PhaseBreakdown::from_recorder(rec);
    format!(
        "### (e) observed per-job phase breakdown — Wordcount batch on Hybrid\n\n{}\n{}\n\n\
         Pass `--trace-out <path>` to the `fig5` binary to export this run as a\n\
         Chrome `trace_event` JSON (open in `chrome://tracing` or Perfetto).\n",
        breakdown.render(),
        breakdown.summary()
    )
}

/// Figure 6: Grep on the four architectures.
pub fn fig6() -> String {
    measurement_quad("Figure 6", &apps::grep(), &grids::shuffle_intensive())
}

/// Figure 9: the TestDFSIO write test on the four architectures.
pub fn fig9() -> String {
    measurement_quad(
        "Figure 9",
        &apps::testdfsio_write(),
        &grids::map_intensive(),
    )
}

fn cross_table(profile: &JobProfile, pts: &[SweepPoint]) -> String {
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                fmt_bytes(p.input_size as u64),
                fmt_secs(p.t_up),
                fmt_secs(p.t_out),
                format!("{:.3}", p.normalized_out()),
            ]
        })
        .collect();
    let cross = estimate_cross_point(pts)
        .map(|x| fmt_bytes(x as u64))
        .unwrap_or_else(|| "none".into());
    format!(
        "### {} — estimated cross point: {}\n\n{}\n",
        profile.name,
        cross,
        metrics::table::render(&["input", "up-OFS", "out-OFS", "out/up"], &rows)
    )
}

/// Figure 7: normalized out-OFS/up-OFS execution time for the
/// shuffle-intensive applications; cross points ≈ 32 GB / 16 GB in the paper.
pub fn fig7() -> String {
    let mut out = String::from("## Figure 7 — cross points of Wordcount and Grep\n\n");
    for profile in [apps::wordcount(), apps::grep()] {
        let pts = hybrid_core::cross_point_sweep(&profile, &grids::cross_point());
        out += &cross_table(&profile, &pts);
    }
    out
}

/// Figure 8: the same for TestDFSIO; ≈ 10 GB in the paper ("the cross
/// point is around 10GB for both tests" — write and read).
pub fn fig8() -> String {
    let mut out = String::from("## Figure 8 — cross point of the TestDFSIO tests\n\n");
    let sizes: Vec<u64> = [1u64, 2, 4, 8, 10, 12, 16, 20, 24, 30]
        .map(|g| g * GB)
        .to_vec();
    for profile in [apps::testdfsio_write(), apps::testdfsio_read()] {
        let pts = hybrid_core::cross_point_sweep(&profile, &sizes);
        out += &cross_table(&profile, &pts);
    }
    out
}

fn class_cdf_table(label: &str, cdfs: &[(String, EmpiricalCdf)]) -> String {
    let mut headers: Vec<String> = vec!["quantile".into()];
    headers.extend(cdfs.iter().map(|(n, _)| n.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let qs = [0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.00];
    let rows: Vec<Vec<String>> = qs
        .iter()
        .map(|&q| {
            let mut row = vec![format!("p{:.0}", q * 100.0)];
            for (_, cdf) in cdfs {
                row.push(fmt_secs(cdf.quantile(q).unwrap_or(f64::NAN)));
            }
            row
        })
        .collect();
    format!(
        "### {label}\n\n{}\n",
        metrics::table::render(&header_refs, &rows)
    )
}

/// What Figure 10 keeps of one replay.
struct Fig10Cell {
    up: EmpiricalCdf,
    out: EmpiricalCdf,
    failed: usize,
}

/// Figure 10: trace-driven comparison of Hybrid vs THadoop vs RHadoop.
///
/// One `parsweep` fan-out replays every (architecture, trace seed) cell:
/// the default trace's seed, then four more seeds for the robustness table
/// (c), a rigor upgrade over the paper's single replay. The summary and
/// the CDF tables (a) and (b) read the default-seed cells.
pub fn fig10() -> String {
    let base = FacebookTraceConfig::default();
    let seeds = [base.seed, 1, 2, 3, 4];
    let cells: Vec<(Architecture, u64)> = Architecture::TRACE_CONTENDERS
        .iter()
        .flat_map(|&arch| seeds.map(|seed| (arch, seed)))
        .collect();
    let replays = parsweep::par_map(cells, |(arch, seed)| {
        let trace = generate_facebook_trace(&FacebookTraceConfig {
            seed,
            ..base.clone()
        });
        let policy: Box<dyn JobPlacement> = match arch {
            Architecture::Hybrid => Box::new(CrossPointScheduler::default()),
            _ => Box::new(AlwaysOut),
        };
        let outcome = run_trace(arch, policy.as_ref(), &trace);
        Fig10Cell {
            up: outcome.up_cdf(),
            out: outcome.out_cdf(),
            failed: outcome.failures(),
        }
    });
    let mut up_cdfs = Vec::new();
    let mut out_cdfs = Vec::new();
    let mut summary = Vec::new();
    let mut robustness = Vec::new();
    for (arch, cells) in Architecture::TRACE_CONTENDERS
        .iter()
        .zip(replays.chunks(seeds.len()))
    {
        let headline = &cells[0];
        summary.push(vec![
            arch.name().to_string(),
            headline.up.len().to_string(),
            headline.out.len().to_string(),
            headline.failed.to_string(),
            fmt_secs(headline.up.max().unwrap_or(f64::NAN)),
            fmt_secs(headline.out.max().unwrap_or(f64::NAN)),
        ]);
        up_cdfs.push((arch.name().to_string(), headline.up.clone()));
        out_cdfs.push((arch.name().to_string(), headline.out.clone()));
        // The scale-up class's quantile `q` across the seeds.
        let across_seeds = |q| {
            let mut stats = metrics::OnlineStats::new();
            for v in cells.iter().filter_map(|c| c.up.quantile(q)) {
                stats.push(v);
            }
            stats
        };
        let (p90, max) = (across_seeds(0.90), across_seeds(1.0));
        robustness.push(vec![
            arch.name().to_string(),
            format!("{:.1} ± {:.1}", p90.mean(), p90.stddev()),
            format!("{:.1} ± {:.1}", max.mean(), max.stddev()),
        ]);
    }
    let mut out = String::from("## Figure 10 — FB-2009 trace replay (6000 jobs)\n\n");
    out += &metrics::table::render(
        &[
            "architecture",
            "up-class jobs",
            "out-class jobs",
            "failed",
            "max up-class",
            "max out-class",
        ],
        &summary,
    );
    out.push('\n');
    out += &class_cdf_table("(a) execution-time CDF of scale-up jobs", &up_cdfs);
    out += &class_cdf_table("(b) execution-time CDF of scale-out jobs", &out_cdfs);
    out += &format!(
        "### (c) robustness across {} trace seeds (scale-up class, seconds)\n\n{}\n",
        seeds.len(),
        metrics::table::render(
            &["architecture", "p90 mean ± sd", "max mean ± sd"],
            &robustness
        )
    );
    out
}

/// Table I: the architecture matrix, with the resolved configurations and
/// the cost-parity check the paper's methodology requires.
pub fn table1() -> String {
    let mut rows = Vec::new();
    for arch in Architecture::TABLE_I
        .iter()
        .chain(Architecture::TRACE_CONTENDERS.iter())
    {
        let specs = arch.cluster_specs();
        let machines: u32 = specs.iter().map(|s| s.len() as u32).sum();
        let map_slots: u32 = specs.iter().map(|s| s.total_map_slots()).sum();
        let reduce_slots: u32 = specs.iter().map(|s| s.total_reduce_slots()).sum();
        rows.push(vec![
            arch.name().to_string(),
            arch.storage_name().to_string(),
            machines.to_string(),
            map_slots.to_string(),
            reduce_slots.to_string(),
            format!("${:.0}k", arch.total_price() / 1000.0),
        ]);
    }
    format!(
        "## Table I — measured architectures\n\n{}\n",
        metrics::table::render(
            &[
                "architecture",
                "storage",
                "machines",
                "map slots",
                "reduce slots",
                "price"
            ],
            &rows
        )
    )
}

/// Convenience accessor used by shape tests: (cross point estimate, points)
/// for a profile over the standard grid.
pub fn cross_point_of(profile: &JobProfile) -> Option<f64> {
    let pts = hybrid_core::cross_point_sweep(profile, &grids::cross_point());
    estimate_cross_point(&pts)
}

/// Helper for inspection binaries: one descriptive line per result.
pub fn describe(arch: Architecture, r: &JobResult) -> String {
    crate::common::describe(arch, r)
}

/// Fault sweep: replay an FB-2009 slice under increasing fault intensity on
/// the three §V contenders. The paper measures a fault-free cluster; this
/// experiment asks how the hybrid's availability story holds up when
/// machines actually die — OFS survives compute-node loss (the data is not
/// on the dead machine), while THadoop's HDFS must re-replicate and loses
/// map outputs with each crash.
pub fn fault_sweep() -> String {
    fault_sweep_threads(parsweep::default_threads())
}

/// [`fault_sweep`] with an explicit worker count (the `--threads` flag).
///
/// Grid cells (intensity × architecture) are independent replays, so they
/// fan out through [`parsweep::par_map_threads`]: each cell derives its
/// fault-plan seed from a stable per-cell coordinate hash
/// ([`parsweep::cell_seed`]) and results merge in input order, making the
/// rendered table byte-identical at any thread count.
pub fn fault_sweep_threads(threads: usize) -> String {
    use hybrid_core::DeploymentTuning;
    use simcore::fault::{FaultPlan, FaultRates};

    // A compressed slice keeps the sweep fast while still queueing jobs.
    let jobs = 300;
    let window = simcore::SimDuration::from_secs(3600);
    let trace = generate_facebook_trace(&FacebookTraceConfig {
        jobs,
        window,
        ..Default::default()
    });
    // Faults may stretch the run well past the arrival window.
    let horizon = simcore::SimDuration::from_secs(4 * 3600);
    let plan_seed = 42u64;

    let intensities = [0.0f64, 2.0, 5.0, 10.0];
    let cells: Vec<(usize, f64, usize, Architecture)> = intensities
        .iter()
        .enumerate()
        .flat_map(|(i_idx, &intensity)| {
            Architecture::TRACE_CONTENDERS
                .iter()
                .enumerate()
                .map(move |(a_idx, &arch)| (i_idx, intensity, a_idx, arch))
        })
        .collect();

    let rows = parsweep::par_map_threads(cells, threads, |(i_idx, intensity, a_idx, arch)| {
        let rates = FaultRates::scaled(intensity);
        let nodes: Vec<usize> = arch.cluster_specs().iter().map(|s| s.len()).collect();
        let n_servers = match arch.storage_name() {
            "ofs" => storage::OfsConfig::default().num_servers as usize,
            _ => 0,
        };
        // Each cell draws its fault schedule from its own decorrelated
        // stream, keyed by grid coordinates — never by worker or order of
        // execution.
        let seed = parsweep::cell_seed(plan_seed, &[i_idx as u64, a_idx as u64]);
        let plan = FaultPlan::generate(seed, &rates, horizon, &nodes, n_servers);
        let mut tuning = DeploymentTuning {
            fault: plan,
            ..Default::default()
        };
        tuning.engine_up.speculative_execution = true;
        tuning.engine_out.speculative_execution = true;

        let crosspoint = CrossPointScheduler::default();
        let always_out = AlwaysOut;
        let policy: &dyn JobPlacement = match arch {
            Architecture::Hybrid => &crosspoint,
            _ => &always_out,
        };
        let outcome = hybrid_core::run_trace_with(arch, policy, &trace, &tuning);
        let stats = &outcome.fault_stats;
        let exec = EmpiricalCdf::new(
            outcome
                .results
                .iter()
                .filter(|r| r.succeeded())
                .map(|r| r.execution.as_secs_f64())
                .collect(),
        );
        vec![
            format!("{intensity:.0}"),
            arch.name().to_string(),
            fmt_secs(outcome.makespan.as_secs_f64()),
            fmt_secs(exec.quantile(0.90).unwrap_or(f64::NAN)),
            outcome.failures().to_string(),
            stats.node_crashes.to_string(),
            stats.tasks_killed.to_string(),
            stats.map_outputs_lost.to_string(),
            format!("{:.1}", stats.rereplicated_bytes / (1u64 << 30) as f64),
            stats.straggler_attempts.to_string(),
        ]
    });
    format!(
        "## Fault sweep — FB-2009 slice ({jobs} jobs) under injected faults\n\n{}\n{}\n{}",
        metrics::table::render(
            &[
                "intensity",
                "architecture",
                "makespan",
                "p90 exec",
                "failed jobs",
                "crashes",
                "tasks killed",
                "map outputs lost",
                "re-replicated GB",
                "stragglers",
            ],
            &rows
        ),
        fault_sweep_breakdown(),
        durability_sweep_threads(threads)
    )
}

/// The deterministic faulted run backing the fault-sweep breakdown table:
/// a 20-job FB-2009 slice on Hybrid at fault intensity 5 with speculative
/// execution on, recorded by the buffering recorder (and, when `telemetry`
/// is set, streamed through an [`obs::OnlineAggregator`] for
/// `--metrics-out`; when `doctor` is set, through an [`obs::Doctor`] for
/// `--incidents-out`).
pub fn fault_sweep_observed(telemetry: bool, doctor: bool) -> hybrid_core::TraceOutcome {
    use hybrid_core::DeploymentTuning;
    use simcore::fault::{FaultPlan, FaultRates};

    let trace = generate_facebook_trace(&FacebookTraceConfig {
        jobs: 20,
        window: simcore::SimDuration::from_secs(240),
        ..Default::default()
    });
    let nodes: Vec<usize> = Architecture::Hybrid
        .cluster_specs()
        .iter()
        .map(|s| s.len())
        .collect();
    let n_servers = storage::OfsConfig::default().num_servers as usize;
    let plan = FaultPlan::generate(
        42,
        &FaultRates::scaled(5.0),
        simcore::SimDuration::from_secs(3600),
        &nodes,
        n_servers,
    );
    let mut tuning = DeploymentTuning {
        fault: plan,
        observe: true,
        telemetry: telemetry.then(obs::TelemetryConfig::default),
        doctor: doctor.then(obs::DoctorConfig::default),
        ..Default::default()
    };
    tuning.engine_up.speculative_execution = true;
    tuning.engine_out.speculative_execution = true;
    hybrid_core::run_trace_with(
        Architecture::Hybrid,
        &CrossPointScheduler::default(),
        &trace,
        &tuning,
    )
}

/// Durability sweep: the `{replication factor, erasure code}` ×
/// `{single-node, rack-storm}` scenario grid on the THadoop baseline with
/// the durable storage backend — storage cost vs degraded-read latency vs
/// recovery time under deterministic scheduled outages.
pub fn durability_sweep() -> String {
    durability_sweep_threads(parsweep::default_threads())
}

/// [`durability_sweep`] with an explicit worker count (the `--threads`
/// flag).
///
/// Each scheme × failure cell is an independent replay fanned out through
/// [`parsweep::par_map_threads`]; the outage schedule is fixed (not drawn),
/// and the placement seed derives from the cell coordinates via
/// [`parsweep::cell_seed`], so the rendered table is byte-identical at any
/// thread count.
pub fn durability_sweep_threads(threads: usize) -> String {
    use hybrid_core::DeploymentTuning;
    use simcore::fault::FaultPlan;
    use storage::{DurabilityConfig, RedundancyScheme};

    // A compressed slice (shrunk inputs keep 3x replication of the
    // *retained* dataset within the 24 local disks) with the outage
    // landing mid-arrivals, so jobs placed before the crash read their
    // blocks through it.
    let jobs = 200;
    let window = simcore::SimDuration::from_secs(1200);
    let trace = generate_facebook_trace(&FacebookTraceConfig {
        jobs,
        window,
        shrink_factor: 4.0,
        ..Default::default()
    });
    let racks = 4u32;
    let plan_seed = 42u64;

    // Rack layout of the 24-node baseline under `racks = 4`: contiguous
    // blocks in node order (`ClusterSpec::build`), so rack 1 is nodes 6..12
    // of cluster 0.
    let n = Architecture::THadoop.cluster_specs()[0].len();
    let rack_one: Vec<(usize, usize)> = (0..n)
        .filter(|&i| i * racks as usize / n == 1)
        .map(|i| (0usize, i))
        .collect();
    // Mid-trace outage, long enough that repair finishes inside the run.
    let outage_at = simcore::SimTime::from_secs(600);
    let outage_len = simcore::SimDuration::from_secs(1800);

    let schemes = [
        RedundancyScheme::Replicated { factor: 2 },
        RedundancyScheme::Replicated { factor: 3 },
        RedundancyScheme::ErasureCoded { k: 6, m: 3 },
    ];
    let failures = ["single-node", "rack-storm"];
    let cells: Vec<(usize, RedundancyScheme, usize, &str)> = schemes
        .iter()
        .enumerate()
        .flat_map(|(s_idx, &scheme)| {
            failures
                .iter()
                .enumerate()
                .map(move |(f_idx, &failure)| (s_idx, scheme, f_idx, failure))
        })
        .collect();

    let rows = parsweep::par_map_threads(cells, threads, |(s_idx, scheme, f_idx, failure)| {
        let members: &[(usize, usize)] = match failure {
            "single-node" => &rack_one[1..2],
            _ => &rack_one,
        };
        let plan = FaultPlan::empty().with_outage(outage_at, outage_len, members);
        let seed = parsweep::cell_seed(plan_seed, &[s_idx as u64, f_idx as u64]);
        let mut tuning = DeploymentTuning {
            fault: plan,
            durability: Some(DurabilityConfig {
                scheme,
                seed,
                ..Default::default()
            }),
            racks,
            // Keep every job's input resident: the storm must hit a
            // dataset, not whatever happens to be mid-flight.
            retain_files: true,
            ..Default::default()
        };
        tuning.engine_out.speculative_execution = true;

        let outcome =
            hybrid_core::run_trace_with(Architecture::THadoop, &AlwaysOut, &trace, &tuning);
        let stats = &outcome.fault_stats;
        let exec = EmpiricalCdf::new(
            outcome
                .results
                .iter()
                .filter(|r| r.succeeded())
                .map(|r| r.execution.as_secs_f64())
                .collect(),
        );
        let mean_degraded = if stats.degraded_reads > 0 {
            stats.degraded_read_secs / stats.degraded_reads as f64
        } else {
            0.0
        };
        let repair_gb = (stats.rereplicated_bytes + stats.reconstructed_bytes) / GB as f64;
        let recovery = match (stats.first_crash_s, stats.repair_done_s) {
            (Some(crash), Some(done)) if done >= crash => fmt_secs(done - crash),
            _ => "-".into(),
        };
        vec![
            scheme.label(),
            failure.to_string(),
            format!("{:.2}\u{d7}", scheme.storage_overhead()),
            fmt_secs(outcome.makespan.as_secs_f64()),
            fmt_secs(exec.quantile(0.90).unwrap_or(f64::NAN)),
            stats.degraded_reads.to_string(),
            format!("{mean_degraded:.3}"),
            format!("{repair_gb:.2}"),
            recovery,
            outcome.failures().to_string(),
        ]
    });
    format!(
        "## Durability sweep — redundancy scheme \u{d7} failure mode ({jobs} jobs, THadoop, 4 racks)\n\n\
         One scheduled outage at t=600s (single node, or all six nodes of rack 1)\n\
         lasting 1800s. Repair traffic is throttled below foreground I/O\n\
         (50 MB/s per stream); recovery is first crash \u{2192} last repair flow drained.\n\n{}\n",
        metrics::table::render(
            &[
                "scheme",
                "failure",
                "storage cost",
                "makespan",
                "p90 exec",
                "degraded reads",
                "mean degr-read s",
                "repair GB",
                "recovery",
                "failed jobs",
            ],
            &rows
        )
    )
}

/// The observed rack-storm cell backing the `--storm` flags of the
/// `fault_sweep` binary and the CI storm-smoke job: an EC(6+3) slice on the
/// racked THadoop baseline with all of rack 1 taken out mid-trace, streamed
/// through telemetry and/or the doctor (with a repair-storm threshold low
/// enough that the reconstruction burst trips the detector).
pub fn durability_sweep_observed(telemetry: bool, doctor: bool) -> hybrid_core::TraceOutcome {
    use hybrid_core::DeploymentTuning;
    use simcore::fault::FaultPlan;
    use storage::{DurabilityConfig, RedundancyScheme};

    let racks = 4u32;
    let trace = generate_facebook_trace(&FacebookTraceConfig {
        jobs: 40,
        window: simcore::SimDuration::from_secs(600),
        shrink_factor: 4.0,
        ..Default::default()
    });
    let n = Architecture::THadoop.cluster_specs()[0].len();
    let rack_one: Vec<(usize, usize)> = (0..n)
        .filter(|&i| i * racks as usize / n == 1)
        .map(|i| (0usize, i))
        .collect();
    let plan = FaultPlan::empty().with_outage(
        simcore::SimTime::from_secs(300),
        simcore::SimDuration::from_secs(900),
        &rack_one,
    );
    let mut tuning = DeploymentTuning {
        fault: plan,
        durability: Some(DurabilityConfig {
            scheme: RedundancyScheme::ErasureCoded { k: 6, m: 3 },
            ..Default::default()
        }),
        racks,
        retain_files: true,
        observe: true,
        telemetry: telemetry.then(obs::TelemetryConfig::default),
        // The 40-job slice reconstructs ~0.8 GB in one burst: well above
        // any single-block repair, so a 0.25 GB/window bar cleanly
        // separates storm from background noise at this scale.
        doctor: doctor.then(|| obs::DoctorConfig {
            repair_storm_bytes: 0.25e9,
            ..Default::default()
        }),
        ..Default::default()
    };
    tuning.engine_out.speculative_execution = true;
    hybrid_core::run_trace_with(Architecture::THadoop, &AlwaysOut, &trace, &tuning)
}

/// Observed per-job phase breakdown of a small faulted slice on the hybrid
/// architecture: how injected crashes and stragglers show up as stretched
/// phases and io-wait, job by job.
fn fault_sweep_breakdown() -> String {
    let jobs = 20;
    let outcome = fault_sweep_observed(false, false);
    let rec = outcome
        .recorder
        .as_deref()
        .expect("observed run records a trace");
    let breakdown = obs::breakdown::PhaseBreakdown::from_recorder(rec);
    let fault_events = rec.by_category("fault").count();
    format!(
        "### observed phase breakdown — Hybrid, {jobs} jobs, intensity 5\n\n{}\n{} · {} fault events on the timeline\n",
        breakdown.render(),
        breakdown.summary(),
        fault_events
    )
}
