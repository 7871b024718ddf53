//! Smoke test: the three in-process replays and `route-serve` at smoke size
//! (300 jobs or a few thousand requests, one rep), untraced and traced,
//! must pass every check and emit every metric `BENCHMARK.json` declares,
//! with the unit it declares.

use std::process::Command;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The text after `key` in `s`, up to the next double quote.
fn quoted_after<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let rest = &s[s.find(key)? + key.len()..];
    Some(&rest[..rest.find('"')?])
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json is readable");
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let name = quoted_after(entry, "\"name\": \"").expect("a name");
            let unit = quoted_after(entry, "\"unit\": \"").expect("a unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hhbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("hhbench runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn in_process_workloads_emit_every_metric_and_pass_every_check() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    assert!(per_layer.len() > 10);
    for workload in [
        "replay-backlog",
        "replay-observed",
        "tenants-ec-storm",
        "route-serve",
    ] {
        for (trace, metrics) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,"),
                "{workload} --trace {trace}: {result}"
            );
            for (name, unit) in metrics {
                let emitted = result
                    .split(&format!("\"{name}\": {{\"value\": "))
                    .nth(1)
                    .and_then(|rest| quoted_after(rest, "\"unit\": \""));
                assert_eq!(
                    emitted,
                    Some(unit.as_str()),
                    "{workload} --trace {trace}: {name}"
                );
            }
            let emitted = result.matches("\"value\": ").count();
            assert_eq!(emitted, metrics.len(), "{workload} --trace {trace}");
        }
    }
}
