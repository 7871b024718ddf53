//! `paper-figures`: every table and figure of the paper regenerated in
//! process, the way `run_all` assembles them, and compared byte for byte
//! with the committed `EXPERIMENTS.md`.
//!
//! Thousands of short single-job simulations plus the Figure 10 replays,
//! fanned out by `parsweep` over the machine's cores: the figure-sweep wall
//! time, where per-simulation set-up dominates instead of a long replay.
//! The figures fix their own inputs, so the seed does not apply.

use crate::{sample_own_rss, Outcome, Params};
use std::time::Instant;

/// One section: its span, its per-layer share metric, and its generator.
type Section = (&'static str, &'static str, fn() -> String);

/// The sections in `run_all` order.
const SECTIONS: [Section; 8] = [
    (
        "experiments.figures::table1",
        "figures.table1_pct",
        experiments::figures::table1,
    ),
    (
        "experiments.figures::fig3",
        "figures.fig3_pct",
        experiments::figures::fig3,
    ),
    (
        "experiments.figures::fig5",
        "figures.fig5_pct",
        experiments::figures::fig5,
    ),
    (
        "experiments.figures::fig6",
        "figures.fig6_pct",
        experiments::figures::fig6,
    ),
    (
        "experiments.figures::fig7",
        "figures.fig7_pct",
        experiments::figures::fig7,
    ),
    (
        "experiments.figures::fig8",
        "figures.fig8_pct",
        experiments::figures::fig8,
    ),
    (
        "experiments.figures::fig9",
        "figures.fig9_pct",
        experiments::figures::fig9,
    ),
    (
        "experiments.figures::fig10",
        "figures.fig10_pct",
        experiments::figures::fig10,
    ),
];

const EXPERIMENTS_MD: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md");

/// Whether `blocks` — the regenerated sections, each followed by a blank
/// line as `run_all` writes them — is exactly the part of `expected`
/// between its header and its findings table.
pub fn matches_experiments(expected: &str, blocks: &str) -> bool {
    let Some(start) = expected.find("## Table I") else {
        return false;
    };
    expected[start..]
        .strip_prefix(blocks)
        .is_some_and(|rest| rest.starts_with("## Paper vs. measured"))
}

pub fn run(p: &Params, out: &mut Outcome) {
    // Set-up: read the reference document and generate the FB-2009 trace
    // the suite replays (Figures 3 and 10 regenerate it themselves; this
    // is the suite's input-generation cost on its own).
    let mut expected = None;
    p.repeat_setup(|| {
        let t0 = Instant::now();
        expected = std::fs::read_to_string(EXPERIMENTS_MD).ok();
        let t_gen = Instant::now();
        let (trace, count) = out.spans.time("workload.generate_facebook_trace", || {
            crate::alloc::measure(|| {
                workload::generate_facebook_trace(&workload::FacebookTraceConfig::default())
            })
        });
        let gen = t_gen.elapsed();
        drop(trace);
        out.sample("setup_s", t0.elapsed().as_secs_f64());
        out.sample("workload.gen_ms", gen.as_secs_f64() * 1e3);
        out.sample("workload.allocs", count.allocs as f64);
    });
    let Some(expected) = expected else {
        out.checks
            .check(false, || format!("cannot read {EXPERIMENTS_MD}"));
        return;
    };
    let sections = if p.smoke {
        &SECTIONS[..2]
    } else {
        &SECTIONS[..]
    };

    let mut plain = Vec::new();
    p.repeat(3, || {
        let t0 = Instant::now();
        let mut doc = String::new();
        for (_, _, section) in sections {
            doc += &section();
            doc.push('\n');
        }
        let wall = t0.elapsed().as_secs_f64();
        check_doc(out, p, &expected, &doc);
        out.sample("ops_per_s", sections.len() as f64 / wall);
        plain.push(wall);
        if !p.trace {
            return;
        }

        let rep = out.spans.enter("hhbench.rep");
        let t0 = Instant::now();
        let mut doc = String::new();
        let mut times = Vec::new();
        for &(span, _, section) in sections {
            let t = Instant::now();
            doc += &out.spans.time(span, section);
            doc.push('\n');
            times.push(t.elapsed().as_secs_f64());
        }
        let wall = t0.elapsed().as_secs_f64();
        out.spans.exit(rep);
        check_doc(out, p, &expected, &doc);
        out.sample("trace.overhead", wall / crate::stats::median(&plain));
        for (&(_, metric, _), t) in sections.iter().zip(times) {
            out.sample(metric, 100.0 * t / wall);
        }
    });
    sample_own_rss(out);
}

fn check_doc(out: &mut Outcome, p: &Params, expected: &str, doc: &str) {
    // At smoke size only a prefix of the sections is regenerated.
    let ok = if p.smoke {
        expected.contains(doc)
    } else {
        matches_experiments(expected, doc)
    };
    out.checks.check(ok, || {
        "regenerated figures differ from EXPERIMENTS.md".to_string()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = "# EXPERIMENTS\n\nintro\n\n## Table I — a\n\n| x |\n\n\n\
                       ## Figure 3 — b\n\nrow 1\n\n## Paper vs. measured — summary\n";

    #[test]
    fn the_regenerated_sections_must_fill_the_document_exactly() {
        let blocks = "## Table I — a\n\n| x |\n\n\n## Figure 3 — b\n\nrow 1\n\n";
        assert!(matches_experiments(DOC, blocks));
        // One changed digit, a missing section, or a missing trailing blank
        // line is a mismatch.
        assert!(!matches_experiments(DOC, &blocks.replace("row 1", "row 2")));
        assert!(!matches_experiments(DOC, "## Table I — a\n\n| x |\n\n\n"));
        assert!(!matches_experiments(DOC, blocks.trim_end()));
        assert!(!matches_experiments("no sections here", blocks));
    }

    #[test]
    fn the_committed_document_has_both_anchors() {
        let doc = std::fs::read_to_string(EXPERIMENTS_MD).expect("EXPERIMENTS.md is readable");
        assert!(doc.contains("## Table I"));
        assert!(doc.contains("## Paper vs. measured"));
    }
}
