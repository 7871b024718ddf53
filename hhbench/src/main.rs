//! `hhbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! bash hhbench/run.sh \
//!     [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
//!     [--trace-out PATH] [--report-out PATH] [--smoke]
//! ```
//!
//! Five workloads (see `WORKLOADS` and the package README) each measure for
//! `--seconds`, check every output, and print their metrics by name with
//! unit, median, quartiles and sample count. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`, the latter holding every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`). Without `--workload`, all five run
//! one after another, each in its own child process so peak RSS is per
//! workload, and the final object holds every workload's metrics as
//! `<workload>/<metric>`.
//!
//! All times are host time unless a name says `sim_`.

mod alloc;
mod check;
mod figures;
mod replay;
mod serve;
mod spans;
mod stats;

use bench::profile::{BenchReport, Better};
use check::Checks;
use spans::Spans;
use stats::Summary;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// A workload: its name and the function that runs it.
type Workload = (&'static str, fn(&Params, &mut Outcome));

const WORKLOADS: &[Workload] = &[
    ("replay-backlog", replay::backlog),
    ("replay-observed", replay::observed),
    ("tenants-ec-storm", replay::tenants),
    ("route-serve", serve::run),
    ("paper-figures", figures::run),
];

/// End-to-end metrics: every workload reports every one of them.
const END_TO_END: &[(&str, &str, Better)] = &[
    ("ops_per_s", "1/s", Better::Higher),
    ("peak_rss_mb", "MB", Better::Lower),
    ("setup_s", "s", Better::Lower),
];

/// Per-layer metrics, reported under `--trace 1`. A layer a workload does
/// not exercise reads 0. Layer-specific costs are shares of the rep (`%`)
/// or ratios (`x`); absolute per-call times are in the layer table.
const PER_LAYER: &[(&str, &str, Better)] = &[
    ("trace.overhead", "x", Better::Lower),
    ("workload.gen_ms", "ms", Better::Lower),
    ("workload.allocs", "count", Better::Lower),
    ("scheduler.place_calls", "count", Better::Lower),
    ("scheduler.place_pct", "%", Better::Lower),
    ("scheduler.dispatch_pct", "%", Better::Lower),
    ("scheduler.dispatch_allocs", "count", Better::Lower),
    ("scheduler.preemptions", "count", Better::Lower),
    ("scheduler.rejections", "count", Better::Lower),
    ("scheduler.recalibrations", "count", Better::Lower),
    ("scheduler.snapshot_bytes", "B", Better::Lower),
    ("engine.events", "count", Better::Lower),
    ("engine.flow_epochs", "count", Better::Lower),
    ("engine.events_per_ms", "1/ms", Better::Higher),
    ("engine.allocs_per_job", "count", Better::Lower),
    ("engine.self_pct", "%", Better::Lower),
    ("storage.ec_premium_pct", "%", Better::Lower),
    ("storage.sim_degraded_reads", "count", Better::Lower),
    ("storage.sim_reconstructed_mb", "MB", Better::Lower),
    ("storage.sim_failed_jobs", "count", Better::Lower),
    ("storage.plan_allocs", "count", Better::Lower),
    ("obs.sink_pct", "%", Better::Lower),
    ("obs.export_pct", "%", Better::Lower),
    ("obs.export_bytes", "B", Better::Lower),
    ("obs.export_allocs", "count", Better::Lower),
    ("obs.events_recorded", "count", Better::Lower),
    ("obs.aggregator_events", "count", Better::Lower),
    ("obs.doctor_events", "count", Better::Lower),
    ("serve.closed_ops_per_s", "1/s", Better::Higher),
    ("serve.p99_x", "x", Better::Lower),
    ("serve.load_x", "x", Better::Lower),
    ("serve.late_pct", "%", Better::Lower),
    ("figures.table1_pct", "%", Better::Lower),
    ("figures.fig3_pct", "%", Better::Lower),
    ("figures.fig5_pct", "%", Better::Lower),
    ("figures.fig6_pct", "%", Better::Lower),
    ("figures.fig7_pct", "%", Better::Lower),
    ("figures.fig8_pct", "%", Better::Lower),
    ("figures.fig9_pct", "%", Better::Lower),
    ("figures.fig10_pct", "%", Better::Lower),
];

/// How one workload run is configured.
pub struct Params {
    pub seed: u64,
    /// Measuring budget of the run.
    pub seconds: f64,
    /// Measure per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs and one rep, for the smoke test.
    pub smoke: bool,
}

/// The seed the pinned fingerprints were recorded at.
pub const DEFAULT_SEED: u64 = 2009;

impl Params {
    /// Whether outputs can be compared against the pinned constants.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && !self.smoke
    }

    /// Repeat a set-up so its median is steady: at least five times and
    /// for at least 0.5 s, at most a hundred times (once at smoke size).
    pub fn repeat_setup(&self, mut setup: impl FnMut()) {
        let start = Instant::now();
        for i in 1..=100 {
            setup();
            if self.smoke || (i >= 5 && start.elapsed().as_secs_f64() >= 0.5) {
                break;
            }
        }
    }

    /// Call `rep` at least `min_reps` times (once at smoke size), then
    /// until the budget is spent, never starting a rep that the previous
    /// one says would end past it. The minimum keeps a slow workload's
    /// median from resting on one or two samples.
    pub fn repeat(&self, min_reps: usize, mut rep: impl FnMut()) {
        let start = Instant::now();
        for done in 1.. {
            let t0 = Instant::now();
            rep();
            let last = t0.elapsed().as_secs_f64();
            let spent = start.elapsed().as_secs_f64() + last > self.seconds;
            if self.smoke || (done >= min_reps && spent) {
                break;
            }
        }
    }
}

/// What one workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Samples per metric name; the reported value is their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub checks: Checks,
    pub spans: Spans,
    /// Extra human-readable lines for the report (tails, absolute times).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn sample(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(n, _, _)| *n == name),
            "unknown metric {name}"
        );
        self.samples.entry(name).or_default().push(value);
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Record this process's peak RSS as `peak_rss_mb`.
pub fn sample_own_rss(out: &mut Outcome) {
    let rss = peak_rss_mb(None);
    out.checks
        .check(rss.is_some(), || "VmHWM unreadable".to_string());
    if let Some(mb) = rss {
        out.sample("peak_rss_mb", mb);
    }
}

struct Args {
    workload: Option<String>,
    params: Params,
    trace_out: Option<String>,
    report_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        params: Params {
            seed: DEFAULT_SEED,
            seconds: 15.0,
            trace: false,
            smoke: false,
        },
        trace_out: None,
        report_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.params.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(n, _)| *n == value) {
                    return Err(bad("one of the workload names"));
                }
                args.workload = Some(value);
            }
            "--seed" => args.params.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.params.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                args.params.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--trace-out" => args.trace_out = Some(value),
            "--report-out" => args.report_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hhbench: {e}");
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!(
                "usage: hhbench [--workload {}] [--seed S] [--seconds N] [--trace 0|1] \
                 [--trace-out PATH] [--report-out PATH] [--smoke]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    }
}

/// The metric catalog of the mode.
fn catalog(trace: bool) -> &'static [(&'static str, &'static str, Better)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

fn run_one(name: &str, args: &Args) -> ExitCode {
    let p = &args.params;
    let (_, run) = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("parse_args validated the workload name");
    println!(
        "hhbench {name}: seed {}, {} s budget, {}{}",
        p.seed,
        p.seconds,
        if p.trace { "traced" } else { "untraced" },
        if p.smoke { ", smoke size" } else { "" }
    );
    let mut out = Outcome::default();
    run(p, &mut out);

    let mut report = BenchReport::new(format!("hhbench-{name}"));
    let mut metrics = Vec::new();
    for &(metric, unit, better) in catalog(p.trace) {
        let summary = out.samples.get(metric).and_then(|s| Summary::of(s));
        let value = match summary {
            Some(s) => {
                println!(
                    "  {metric:<30} {:>14.6} {unit:<6} (q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6}, n {}{})",
                    s.median,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    s.n,
                    s.tail
                        .map(|(pct, v)| format!(", p{pct} {v:.6}"))
                        .unwrap_or_default()
                );
                for (suffix, v) in [("", s.median), (".q1", s.q1), (".q3", s.q3)] {
                    report.push(format!("{name}/{metric}{suffix}"), v, unit, better);
                }
                s.median
            }
            None => {
                // An end-to-end metric must be measured by every workload;
                // a per-layer metric of a layer this workload skips is 0.
                out.checks
                    .check(p.trace, || format!("{metric} was not measured"));
                0.0
            }
        };
        out.checks
            .check(value.is_finite(), || format!("{metric} is {value}"));
        metrics.push(format!(
            "\"{metric}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    for line in &out.notes {
        println!("  {line}");
    }
    if p.trace {
        println!("{}", out.spans.table());
    }
    let checked = out.checks.attempted > 0;
    out.checks
        .check(checked, || "no output was checked".to_string());
    let c = &out.checks;
    println!("  checks: {} attempted, {} failed", c.attempted, c.failed);
    for n in &c.notes {
        eprintln!("hhbench {name}: check failed: {n}");
    }
    let written = [
        args.trace_out.as_ref().map(|path| {
            let body = format!("{}{}", spans::TSV_HEADER, out.spans.tsv(name));
            (path, body)
        }),
        args.report_out
            .as_ref()
            .map(|path| (path, report.to_json())),
    ];
    for (path, body) in written.into_iter().flatten() {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("hhbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        result_line(c.attempted, c.failed, &metrics.join(", "))
    );
    ExitCode::SUCCESS
}

/// The JSON object that ends standard output.
fn result_line(attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics}}}}}",
        failed == 0
    )
}

/// A child's [`result_line`]: its correctness, attempted and failed counts,
/// and its metrics with each name prefixed by `workload/`.
fn parse_result(line: &str, workload: &str) -> Option<(bool, u64, u64, String)> {
    let number = |key: &str| -> Option<u64> {
        let rest = &line[line.find(key)? + key.len()..];
        rest[..rest.find(',')?].parse().ok()
    };
    let correct = line.starts_with("{\"correct\": true,");
    let body = line.split_once("\"metrics\": {")?.1.strip_suffix("}}")?;
    // Entries are `"name": {"value": v, "unit": "u"}`, joined by ", ".
    let metrics: Vec<String> = body
        .split("}, ")
        .map(|entry| Some(format!("\"{workload}/{}", entry.strip_prefix('"')?)))
        .collect::<Option<_>>()?;
    Some((
        correct,
        number("\"attempted\": ")?,
        number("\"failed\": ")?,
        metrics.join("}, "),
    ))
}

/// Run every workload in its own child process and merge their reports.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("hhbench: locating own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let p = &args.params;
    let mut merged_report = BenchReport::new(format!(
        "hhbench-{}",
        if p.trace { "traced" } else { "untraced" }
    ));
    let mut merged_tsv = String::from(spans::TSV_HEADER);
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for (name, _) in WORKLOADS {
        let part = |path: &String| format!("{path}.{name}");
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", if p.trace { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if p.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &args.trace_out {
            cmd.args(["--trace-out", &part(path)]);
        }
        if let Some(path) = &args.report_out {
            cmd.args(["--report-out", &part(path)]);
        }
        let output = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("hhbench: running {name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let result = lines.pop().unwrap_or_default();
        for l in lines {
            println!("{l}");
        }
        match parse_result(result, name) {
            Some((correct, a, f, m)) if output.status.success() => {
                println!("  result: {}", if correct { "correct" } else { "FAILED" });
                attempted += a;
                failed += f;
                metrics.push(m);
            }
            _ => {
                println!("  result: no result ({})", output.status);
                attempted += 1;
                failed += 1;
            }
        }
        if let Some(path) = &args.trace_out {
            merged_tsv += std::fs::read_to_string(part(path))
                .unwrap_or_default()
                .strip_prefix(spans::TSV_HEADER)
                .unwrap_or_default();
            let _ = std::fs::remove_file(part(path));
        }
        if let Some(path) = &args.report_out {
            match std::fs::read_to_string(part(path)).map(|s| BenchReport::from_json(&s)) {
                Ok(Ok(r)) => merged_report.entries.extend(r.entries),
                _ => {
                    eprintln!("hhbench: {name} wrote no readable report");
                    attempted += 1;
                    failed += 1;
                }
            }
            let _ = std::fs::remove_file(part(path));
        }
    }
    let written = [
        args.trace_out.as_ref().map(|path| (path, merged_tsv)),
        args.report_out
            .as_ref()
            .map(|path| (path, merged_report.to_json())),
    ];
    for (path, body) in written.into_iter().flatten() {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("hhbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", result_line(attempted, failed, &metrics.join(", ")));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("hhbench: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_result_merges_under_its_workload_name() {
        let line = result_line(
            12,
            1,
            "\"ops_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.1, \"unit\": \"s\"}",
        );
        let (correct, attempted, failed, metrics) = parse_result(&line, "w").unwrap();
        assert_eq!((correct, attempted, failed), (false, 12, 1));
        assert_eq!(
            metrics,
            "\"w/ops_per_s\": {\"value\": 2.5, \"unit\": \"1/s\"}, \
             \"w/setup_s\": {\"value\": 0.1, \"unit\": \"s\"}"
        );
        assert!(parse_result("  result: FAILED", "w").is_none());
    }
}
