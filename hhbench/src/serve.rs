//! `route-serve`: the `route_serve` routing service driven over its
//! stdin/stdout JSON-lines protocol.
//!
//! Each rep starts a fresh service process and sends it one fixed, seeded
//! request sequence in phases:
//! - warm-up: 20 k requests (part of `setup_s`);
//! - saturated: 100 k requests written by one writer thread as fast as the
//!   service answers, at most 4096 in flight, while the main thread reads
//!   the replies in bulk (`ops_per_s` is requests over last reply minus
//!   first write);
//! - open loop at 20 k req/s for 0.5 s, then 100 k req/s for 0.25 s: each
//!   request is written when it is due, whatever the backlog, and its
//!   latency is timed from that due time, so a stall also delays the
//!   requests queued behind it. The report prints these latencies, but
//!   they are no end-to-end metric: their median moved by up to ±15 %
//!   from run to run on a shared 2-vCPU VM, more than a regression bound
//!   can usefully allow;
//! - traced reps only: 2 k requests in a closed loop (one outstanding),
//!   then one timed `snapshot` request.
//!
//! Reps are short and many because on two cores, how the four threads of
//! service and client land on them differs from process to process; the
//! median over reps keeps an unlucky process from moving a run's number.
//!
//! Every reply is checked: one per request, in order, with ids echoed and
//! no error. The replies of the phases every rep runs hash to the same
//! value in every rep. There is no engine here at all: the rep is JSON
//! parsing, Algorithm-1 routing, formatting and the pipe.

use crate::check::{Checks, Fnv};
use crate::stats::{percentile_sorted, Summary};
use crate::{peak_rss_mb, Outcome, Params};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Hash of the reply stream at the default seed. Any change means the
/// service answered differently, which a performance change must not do.
const REPLY_PIN: u64 = 0x7f0e_2686_0d30_4e4a;

/// Jobs per `batch` request.
const BATCH: usize = 32;

/// Sent more than this long after its due time, an open-loop request
/// counts as late.
const LATE: Duration = Duration::from_micros(20);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Route,
    Batch,
    Complete,
    Snapshot,
}

/// One request line and what its reply must echo.
pub struct Request {
    op: Op,
    line: String,
    /// The routed job's id (the first job's, for a batch).
    id: u64,
}

/// Requests per phase.
struct Phases {
    warm: usize,
    saturated: usize,
    /// `(rate in req/s, requests)` of each open-loop phase.
    open: [(f64, usize); 2],
    closed: usize,
}

impl Phases {
    fn new(smoke: bool) -> Phases {
        if smoke {
            Phases {
                warm: 2_000,
                saturated: 5_000,
                open: [(20_000.0, 1_000), (100_000.0, 2_000)],
                closed: 200,
            }
        } else {
            Phases {
                warm: 20_000,
                saturated: 100_000,
                open: [(20_000.0, 10_000), (100_000.0, 25_000)],
                closed: 2_000,
            }
        }
    }

    /// Requests of the phases every rep runs.
    fn common(&self) -> usize {
        self.warm + self.saturated + self.open.iter().map(|o| o.1).sum::<usize>()
    }
}

/// The seeded request mix: 70 % `route`, 25 % `complete`, 5 % `batch` of
/// 32 jobs, and one `snapshot` every 10 k requests, with sizes and ratios
/// drawn from the seed's FB-2009 trace. The last request is a `snapshot`.
pub fn requests(seed: u64, n: usize) -> Vec<Request> {
    let trace = workload::generate_facebook_trace(&workload::FacebookTraceConfig {
        seed,
        ..Default::default()
    });
    let mut rng = simcore::rng::substream(seed, 0x5e7e);
    let mut next_job = 0usize;
    let mut next_id = 0u64;
    let mut job = || {
        let spec = &trace[next_job % trace.len()];
        next_job += 1;
        next_id += 1;
        (next_id, spec.input_size, spec.profile.shuffle_input_ratio)
    };
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let draw = rng.f64();
        let req = if (i + 1) % 10_000 == 0 || i + 1 == n {
            Request {
                op: Op::Snapshot,
                line: "{\"op\":\"snapshot\"}\n".into(),
                id: 0,
            }
        } else if draw < 0.70 {
            let (id, size, ratio) = job();
            Request {
                op: Op::Route,
                line: format!(
                    "{{\"op\":\"route\",\"id\":{id},\"input_size\":{size},\"ratio\":{ratio}}}\n"
                ),
                id,
            }
        } else if draw < 0.95 {
            let (_, size, ratio) = job();
            let ran_up = rng.chance(0.5);
            let gib = size as f64 / (1u64 << 30) as f64;
            let exec_s = if ran_up {
                5.0 + 2.0 * gib * (1.0 + ratio)
            } else {
                15.0 + gib * (1.0 + ratio)
            };
            Request {
                op: Op::Complete,
                line: format!(
                    "{{\"op\":\"complete\",\"input_size\":{size},\"ratio\":{ratio},\
                     \"ran_up\":{ran_up},\"exec_s\":{exec_s:.3}}}\n"
                ),
                id: 0,
            }
        } else {
            let jobs: Vec<(u64, u64, f64)> = (0..BATCH).map(|_| job()).collect();
            let body: Vec<String> = jobs
                .iter()
                .map(|(id, size, ratio)| {
                    format!("{{\"id\":{id},\"input_size\":{size},\"ratio\":{ratio}}}")
                })
                .collect();
            Request {
                op: Op::Batch,
                line: format!("{{\"op\":\"batch\",\"jobs\":[{}]}}\n", body.join(",")),
                id: jobs[0].0,
            }
        };
        out.push(req);
    }
    out
}

/// The integer at the start of `s`, if any.
fn leading_u64(s: &str) -> Option<u64> {
    let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    s[..end].parse().ok()
}

/// Whether `reply` is a well-formed answer to `req`: the right op, the ids
/// echoed in order, and no error.
pub fn reply_ok(req: &Request, reply: &str) -> bool {
    match req.op {
        Op::Route => reply
            .strip_prefix("{\"op\":\"route\",\"id\":")
            .is_some_and(|r| {
                leading_u64(r) == Some(req.id) && r.contains(",\"placement\":\"scale-")
            }),
        Op::Batch => reply
            .strip_prefix("{\"op\":\"batch\",\"decisions\":[")
            .is_some_and(|r| {
                let ids: Vec<Option<u64>> = r.split("{\"id\":").skip(1).map(leading_u64).collect();
                ids.len() == BATCH
                    && ids
                        .iter()
                        .zip(req.id..)
                        .all(|(got, want)| *got == Some(want))
            }),
        Op::Complete => reply.starts_with("{\"op\":\"complete\",\"accepted\":true,"),
        Op::Snapshot => reply.starts_with("{\"op\":\"snapshot\",\"doc\":\"{"),
    }
}

/// Read one reply per request, in order, checking and hashing each and
/// noting when it arrived (and how many have, in `replied`). A missing
/// reply fails its check. With `batched`, the reader naps whenever it has
/// drained the pipe, so replies are read in bulk and the service is not
/// woken into our reader on every reply; arrival times are then coarse.
fn read_replies(
    r: &mut BufReader<impl Read>,
    reqs: &[Request],
    checks: &mut Checks,
    hash: &mut Fnv,
    arrived: &mut Vec<Instant>,
    replied: &AtomicUsize,
    batched: bool,
) {
    let mut line = String::new();
    for (i, req) in reqs.iter().enumerate() {
        line.clear();
        if batched && r.buffer().is_empty() {
            std::thread::sleep(Duration::from_micros(50));
        }
        match r.read_line(&mut line) {
            Ok(n) if n > 0 => {
                arrived.push(Instant::now());
                // Relaxed: a progress count that publishes no other data.
                replied.store(i + 1, Ordering::Relaxed);
                hash.words(line.as_bytes());
                checks.check(reply_ok(req, line.trim_end()), || {
                    let shown: String = line.chars().take(120).collect();
                    format!("reply to {:?} request {i}: {shown}", req.op)
                });
            }
            outcome => {
                let missing = (reqs.len() - i) as u64;
                checks.attempted += missing;
                checks.failed += missing;
                checks
                    .notes
                    .push(format!("{missing} replies missing: {outcome:?}"));
                return;
            }
        }
    }
}

/// A running `route_serve` process; dropping it kills and reaps it.
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["--exploration", "0.05"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout =
            BufReader::with_capacity(1 << 20, child.stdout.take().expect("stdout was piped"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    fn stdin(&mut self) -> &mut ChildStdin {
        self.stdin.as_mut().expect("stdin is open until finish")
    }

    /// Close stdin (the service exits at EOF) and wait for it.
    fn finish(&mut self) -> io::Result<bool> {
        drop(self.stdin.take());
        Ok(self.child.wait()?.success())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Send `reqs` and read their replies concurrently. Paced with
/// `(start, rate)`, request `i` is written at `start + i / rate` and the
/// lateness of each write is returned; unpaced, requests are written in
/// chunks as fast as the service answers, keeping at most [`WINDOW`] in
/// flight so its input queue (and so its memory) stays bounded. Returns
/// the instant writing began, each reply's arrival, and the lateness of
/// each paced write.
fn exchange(
    server: &mut Server,
    reqs: &[Request],
    pace: Option<(Instant, f64)>,
    checks: &mut Checks,
    hash: &mut Fnv,
) -> io::Result<(Instant, Vec<Instant>, Vec<Duration>)> {
    let mut arrived = Vec::with_capacity(reqs.len());
    let replied = AtomicUsize::new(0);
    let reading = AtomicBool::new(true);
    let Server { stdin, stdout, .. } = server;
    let stdin = stdin.as_mut().expect("stdin is open until finish");
    let (first, late) = std::thread::scope(|s| {
        let writer = s.spawn(|| write_requests(stdin, reqs, pace, &replied, &reading));
        read_replies(
            stdout,
            reqs,
            checks,
            hash,
            &mut arrived,
            &replied,
            pace.is_none(),
        );
        // Relaxed: the flag publishes no other data.
        reading.store(false, Ordering::Relaxed);
        writer.join().expect("writer thread panicked")
    })?;
    Ok((first, arrived, late))
}

/// Requests in flight at most while streaming unpaced, and how many are
/// written at once.
const WINDOW: usize = 4096;
const CHUNK: usize = 512;

/// The writer side of [`exchange`]. Unpaced, it waits for replies while
/// the window is full, unless the reader has stopped (the service died).
fn write_requests(
    w: &mut ChildStdin,
    reqs: &[Request],
    pace: Option<(Instant, f64)>,
    replied: &AtomicUsize,
    reading: &AtomicBool,
) -> io::Result<(Instant, Vec<Duration>)> {
    let first = Instant::now();
    let Some((start, rate)) = pace else {
        let mut buf = Vec::new();
        let mut sent = 0;
        for chunk in reqs.chunks(CHUNK) {
            while reading.load(Ordering::Relaxed)
                && sent - replied.load(Ordering::Relaxed) > WINDOW - CHUNK
            {
                std::thread::sleep(Duration::from_micros(50));
            }
            buf.clear();
            for r in chunk {
                buf.extend_from_slice(r.line.as_bytes());
            }
            w.write_all(&buf)?;
            sent += chunk.len();
        }
        return Ok((first, Vec::new()));
    };
    let mut late = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            // Sleep through long gaps; yield through short ones so the
            // service's threads keep the cores.
            if due - now > Duration::from_micros(300) {
                std::thread::sleep(due - now - Duration::from_micros(200));
            } else {
                std::thread::yield_now();
            }
        }
        w.write_all(r.line.as_bytes())?;
        late.push(Instant::now().saturating_duration_since(due));
    }
    Ok((first, late))
}

/// What one rep measured.
struct Rep {
    setup_s: f64,
    ops_per_s: f64,
    /// Open-loop latencies from due time, µs, per phase.
    latency_us: [Vec<f64>; 2],
    late: Vec<Duration>,
    /// Wall time of the phases every rep runs.
    common_s: f64,
    /// Hash of the replies of the phases every rep runs.
    hash: u64,
    rss_mb: Option<f64>,
    /// Traced reps: closed-loop round trips and the snapshot op, µs.
    closed_us: Vec<f64>,
    snapshot_us: Option<f64>,
}

fn serve_rep(
    bin: &Path,
    reqs: &[Request],
    phases: &Phases,
    traced: bool,
    out: &mut Outcome,
) -> io::Result<Rep> {
    let mut hash = Fnv::default();
    let t0 = Instant::now();
    let mut server = Server::spawn(bin)?;
    let span = |out: &mut Outcome, name| traced.then(|| out.spans.enter(name));
    let close = |out: &mut Outcome, id: Option<usize>| {
        if let Some(id) = id {
            out.spans.exit(id);
        }
    };

    let (warm, rest) = reqs.split_at(phases.warm);
    let s = span(out, "route_serve.warm_up");
    exchange(&mut server, warm, None, &mut out.checks, &mut hash)?;
    close(out, s);
    let setup_s = t0.elapsed().as_secs_f64();

    let (saturated, mut rest) = rest.split_at(phases.saturated);
    let s = span(out, "route_serve.saturated");
    let (first, arrived, _) = exchange(&mut server, saturated, None, &mut out.checks, &mut hash)?;
    close(out, s);
    let last = arrived.last().copied().unwrap_or(first);
    let ops_per_s = saturated.len() as f64 / last.duration_since(first).as_secs_f64();

    let mut latency_us: [Vec<f64>; 2] = Default::default();
    let mut late = Vec::new();
    for (k, &(rate, n)) in phases.open.iter().enumerate() {
        let (phase, tail) = rest.split_at(n);
        rest = tail;
        let s = span(out, ["route_serve.open_20k", "route_serve.open_100k"][k]);
        let start = Instant::now() + Duration::from_millis(2);
        let (_, arrived, l) = exchange(
            &mut server,
            phase,
            Some((start, rate)),
            &mut out.checks,
            &mut hash,
        )?;
        close(out, s);
        latency_us[k] = arrived
            .iter()
            .enumerate()
            .map(|(i, at)| {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                at.saturating_duration_since(due).as_secs_f64() * 1e6
            })
            .collect();
        late.extend(l);
    }
    let common_s = t0.elapsed().as_secs_f64() - setup_s;

    let mut closed_us = Vec::new();
    let mut snapshot_us = None;
    if traced {
        let s = span(out, "route_serve.closed_loop");
        let mut ignore = Fnv::default();
        for (i, req) in rest.iter().take(phases.closed + 1).enumerate() {
            let t = Instant::now();
            server.stdin().write_all(req.line.as_bytes())?;
            read_replies(
                &mut server.stdout,
                std::slice::from_ref(req),
                &mut out.checks,
                &mut ignore,
                &mut Vec::new(),
                &AtomicUsize::new(0),
                false,
            );
            let us = t.elapsed().as_secs_f64() * 1e6;
            if i == phases.closed {
                snapshot_us = Some(us);
            } else {
                closed_us.push(us);
            }
        }
        close(out, s);
    }
    let rss_mb = peak_rss_mb(Some(server.child.id()));
    let clean = server.finish()?;
    out.checks
        .check(clean, || "route_serve exited with an error".into());
    Ok(Rep {
        setup_s,
        ops_per_s,
        latency_us,
        late,
        common_s,
        hash: hash.0,
        rss_mb,
        closed_us,
        snapshot_us,
    })
}

/// The `route_serve` this package builds, which sits beside this
/// executable.
fn route_serve_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating hhbench: {e}"))?;
    let bin = exe.with_file_name("route_serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing: build the whole package (bash hhbench/run.sh does)",
            bin.display()
        ))
    }
}

fn micros_line(label: &str, us: &[f64]) -> String {
    match Summary::of(us) {
        Some(s) => format!(
            "{label}: p50 {:.1} µs, {} n {}",
            s.median,
            s.tail
                .map(|(p, v)| format!("p{p} {v:.1} µs,"))
                .unwrap_or_default(),
            s.n
        ),
        None => format!("{label}: no samples"),
    }
}

pub fn run(p: &Params, out: &mut Outcome) {
    let bin = match route_serve_bin() {
        Ok(b) => b,
        Err(e) => {
            out.checks.check(false, || e);
            return;
        }
    };
    let phases = Phases::new(p.smoke);
    let t0 = Instant::now();
    let (reqs, count) = out.spans.time("workload.generate_facebook_trace", || {
        crate::alloc::measure(|| requests(p.seed, phases.common() + phases.closed + 1))
    });
    let gen_s = t0.elapsed().as_secs_f64();
    out.sample("workload.gen_ms", gen_s * 1e3);
    out.sample("workload.allocs", count.allocs as f64);

    let mut want = None;
    let mut reps = 0usize;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut latency_us: [Vec<f64>; 2] = Default::default();
    let (mut late, mut closed_us, mut snapshot_us) = (Vec::new(), Vec::new(), Vec::new());
    p.repeat(5, || {
        // Traced runs alternate plain and traced reps, so the overhead
        // ratio compares neighbours.
        let is_traced = p.trace && reps % 2 == 1;
        reps += 1;
        let rep = match serve_rep(&bin, &reqs, &phases, is_traced, out) {
            Ok(r) => r,
            Err(e) => {
                out.checks.check(false, || format!("route_serve rep: {e}"));
                return;
            }
        };
        let want = *want.get_or_insert(rep.hash);
        out.checks.eq("reply stream", rep.hash, want);
        out.sample("setup_s", gen_s + rep.setup_s);
        out.sample("ops_per_s", rep.ops_per_s);
        out.checks.check(rep.rss_mb.is_some(), || {
            "route_serve VmHWM unreadable".into()
        });
        if let Some(mb) = rep.rss_mb {
            out.sample("peak_rss_mb", mb);
        }
        if is_traced {
            traced.push(rep.common_s);
        } else {
            plain.push(rep.common_s);
        }
        for (all, new) in latency_us.iter_mut().zip(rep.latency_us) {
            all.extend(new);
        }
        late.extend(rep.late);
        closed_us.extend(rep.closed_us);
        snapshot_us.extend(rep.snapshot_us);
    });
    if let (Some(want), true) = (want, p.pinned()) {
        out.checks
            .eq("reply stream at the default seed", want, REPLY_PIN);
    }

    for (k, us) in latency_us.iter().enumerate() {
        let rate = phases.open[k].0 / 1e3;
        out.notes
            .push(micros_line(&format!("open loop {rate} k req/s"), us));
    }
    let late_max = late.iter().max().copied().unwrap_or_default();
    let late_share = late.iter().filter(|l| **l > LATE).count() as f64 / late.len().max(1) as f64;
    out.notes.push(format!(
        "generator lateness: max {:.1} µs, {:.2} % of requests later than {} µs",
        late_max.as_secs_f64() * 1e6,
        100.0 * late_share,
        LATE.as_micros()
    ));
    if !p.trace {
        return;
    }
    out.notes.push(micros_line("closed loop", &closed_us));
    out.notes.push(micros_line("snapshot op", &snapshot_us));
    let median = |xs: &[f64]| Summary::of(xs).map(|s| s.median);
    if let (Some(t), Some(u)) = (median(&traced), median(&plain)) {
        out.sample("trace.overhead", t / u);
    }
    if let Some(rtt) = median(&closed_us) {
        out.sample("serve.closed_ops_per_s", 1e6 / rtt);
    }
    let mut sorted = latency_us.clone();
    for s in &mut sorted {
        s.sort_by(f64::total_cmp);
    }
    if sorted.iter().all(|s| !s.is_empty()) {
        let p50 = percentile_sorted(&sorted[0], 50.0);
        out.sample("serve.p99_x", percentile_sorted(&sorted[0], 99.0) / p50);
        out.sample("serve.load_x", percentile_sorted(&sorted[1], 50.0) / p50);
    }
    out.sample("serve.late_pct", 100.0 * late_share);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn req(op: Op, id: u64) -> Request {
        Request {
            op,
            line: String::new(),
            id,
        }
    }

    fn batch_reply(first: u64) -> String {
        let decisions: Vec<String> = (first..first + BATCH as u64)
            .map(|id| format!("{{\"id\":{id},\"placement\":\"scale-up\",\"note\":\"n\"}}"))
            .collect();
        format!(
            "{{\"op\":\"batch\",\"decisions\":[{}]}}",
            decisions.join(",")
        )
    }

    #[test]
    fn replies_must_echo_ids_in_order_and_carry_no_error() {
        let route = req(Op::Route, 7);
        assert!(reply_ok(
            &route,
            "{\"op\":\"route\",\"id\":7,\"placement\":\"scale-out\",\"band\":\"b\"}"
        ));
        assert!(!reply_ok(
            &route,
            "{\"op\":\"route\",\"id\":70,\"placement\":\"scale-out\"}"
        ));
        assert!(!reply_ok(
            &route,
            "{\"op\":\"error\",\"message\":\"route needs numeric input_size and ratio\"}"
        ));

        let batch = req(Op::Batch, 100);
        assert!(reply_ok(&batch, &batch_reply(100)));
        assert!(!reply_ok(&batch, &batch_reply(101)));
        let short = batch_reply(100).replacen("{\"id\":100,", "{\"idx\":100,", 1);
        assert!(!reply_ok(&batch, &short));

        let complete = req(Op::Complete, 0);
        assert!(reply_ok(
            &complete,
            "{\"op\":\"complete\",\"accepted\":true,\"recalibrated\":null}"
        ));
        assert!(!reply_ok(
            &complete,
            "{\"op\":\"complete\",\"accepted\":false,\"recalibrated\":null}"
        ));
        let snapshot = req(Op::Snapshot, 0);
        assert!(reply_ok(
            &snapshot,
            "{\"op\":\"snapshot\",\"doc\":\"{\\\"schema\\\":1}\"}"
        ));
    }

    #[test]
    fn one_bad_reply_counts_as_one_failed_check() {
        let reqs = [req(Op::Route, 1), req(Op::Route, 2), req(Op::Complete, 0)];
        let stream = "{\"op\":\"route\",\"id\":1,\"placement\":\"scale-up\"}\n\
                      {\"op\":\"route\",\"id\":3,\"placement\":\"scale-up\"}\n\
                      {\"op\":\"complete\",\"accepted\":true,\"recalibrated\":null}\n";
        let mut checks = Checks::default();
        let mut arrived = Vec::new();
        read_replies(
            &mut BufReader::new(Cursor::new(stream)),
            &reqs,
            &mut checks,
            &mut Fnv::default(),
            &mut arrived,
            &AtomicUsize::new(0),
            true,
        );
        assert_eq!((checks.attempted, checks.failed), (3, 1));
        assert_eq!(arrived.len(), 3);

        // A stream that ends early fails every unanswered request.
        let mut checks = Checks::default();
        read_replies(
            &mut BufReader::new(Cursor::new(stream.lines().next().unwrap())),
            &reqs,
            &mut checks,
            &mut Fnv::default(),
            &mut Vec::new(),
            &AtomicUsize::new(0),
            false,
        );
        assert_eq!((checks.attempted, checks.failed), (3, 2));
    }

    #[test]
    fn the_request_mix_is_seeded() {
        let a = requests(1, 2_000);
        let b = requests(1, 2_000);
        let c = requests(2, 2_000);
        let lines = |r: &[Request]| r.iter().map(|q| q.line.clone()).collect::<Vec<_>>();
        assert_eq!(lines(&a), lines(&b));
        assert_ne!(lines(&a), lines(&c));
        let share = |op| a.iter().filter(|r| r.op == op).count() as f64 / a.len() as f64;
        assert!((share(Op::Route) - 0.70).abs() < 0.05);
        assert!((share(Op::Complete) - 0.25).abs() < 0.05);
        assert!(share(Op::Batch) > 0.02);
        assert_eq!(a.last().map(|r| r.op), Some(Op::Snapshot));
    }
}
