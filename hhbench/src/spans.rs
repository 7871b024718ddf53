//! Spans recorded in memory at the benchmark's own call boundaries.
//!
//! The tree is workload → rep → layer call. A span is named
//! `<layer>.<call>`, where the layer is the workspace module whose public
//! function the benchmark called (`hybrid_core.run_trace_with`,
//! `obs.chrome_trace`, ...). High-frequency calls such as
//! `JobPlacement::place` are folded into one child span carrying the call
//! count and total time. Nothing is written while measuring: the layer
//! table and the raw TSV are rendered once at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Calls folded into this span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].dur_ns = self.now_ns() - self.spans[id].start_ns;
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Record `calls` calls totalling `total` as one child of span
    /// `parent`, starting where the parent starts.
    pub fn fold(&mut self, name: &'static str, parent: usize, calls: u64, total: Duration) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            dur_ns: total.as_nanos() as u64,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its children cover. Children of
    /// one span never overlap (they are sequential calls, or folded calls
    /// made between them), so "cover" is their sum.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut by = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.layer()).or_insert(0) += own;
        }
        by
    }

    /// The per-layer table: calls, total and self time per span name,
    /// grouped by layer, with each layer's share of all self time.
    pub fn table(&self) -> String {
        let self_ns = self.self_ns();
        let mut by_name: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&self_ns) {
            let e = by_name.entry((s.layer(), s.name)).or_default();
            e.0 += s.calls;
            e.1 += s.dur_ns;
            e.2 += own;
        }
        let all: u64 = self_ns.iter().sum::<u64>().max(1);
        let layers = self.self_by_layer();
        let mut out = format!(
            "{:<44} {:>10} {:>12} {:>12} {:>7}\n",
            "layer / span", "calls", "total ms", "self ms", "self %"
        );
        let mut last_layer = "";
        for ((layer, name), (calls, total, own)) in by_name {
            if layer != last_layer {
                let l = layers[layer];
                let _ = writeln!(
                    out,
                    "{:<44} {:>10} {:>12} {:>12.3} {:>6.1}%",
                    layer,
                    "",
                    "",
                    l as f64 / 1e6,
                    100.0 * l as f64 / all as f64
                );
                last_layer = layer;
            }
            let _ = writeln!(
                out,
                "  {:<42} {:>10} {:>12.3} {:>12.3} {:>6.1}%",
                name,
                calls,
                total as f64 / 1e6,
                own as f64 / 1e6,
                100.0 * own as f64 / all as f64
            );
        }
        out
    }

    /// Raw spans as TSV rows (no header), each prefixed with `workload`.
    pub fn tsv(&self, workload: &str) -> String {
        let mut out = String::new();
        for ((i, s), own) in self.spans.iter().enumerate().zip(self.self_ns()) {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{workload}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.dur_ns, own, s.calls
            );
        }
        out
    }
}

/// Header line for [`Spans::tsv`] rows.
pub const TSV_HEADER: &str = "workload\tid\tparent\tname\tstart_ns\tdur_ns\tself_ns\tcalls\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_including_folded_calls() {
        let mut s = Spans::default();
        let rep = s.enter("hhbench.rep");
        let call = s.enter("hybrid_core.run_trace_with");
        std::thread::sleep(Duration::from_millis(2));
        s.fold("scheduler.place", call, 1000, Duration::from_micros(500));
        s.exit(call);
        s.exit(rep);
        let own = s.self_ns();
        let spans = s.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(own[2], 500_000);
        assert_eq!(own[1], spans[1].dur_ns - 500_000);
        assert_eq!(own[0], spans[0].dur_ns - spans[1].dur_ns);
        let layers = s.self_by_layer();
        assert_eq!(layers["scheduler"], 500_000);
        assert_eq!(layers.values().sum::<u64>(), spans[0].dur_ns);
        assert!(s.table().contains("scheduler.place"));
        assert_eq!(s.tsv("w").lines().count(), 3);
    }
}
