//! Runs every workload at a tiny size, measured and traced, and checks
//! what the benchmark prints: every named metric with its unit, a result
//! line the harness can read, and `attempted = succeeded + failed`.

use std::process::Command;

/// The named end-to-end metrics each workload reports, with units.
fn named_metrics(workload: &str) -> Vec<(&'static str, &'static str)> {
    let mut metrics = vec![
        ("setup_s", "s"),
        ("failed_ratio", "ratio"),
        ("peak_rss_mb", "MB"),
    ];
    metrics.extend(match workload {
        "vet_hot" => vec![
            ("vet_rps", "1/s"),
            ("vet_p50_us", "us"),
            ("vet_p99_us", "us"),
        ],
        "ingest_deep" => vec![
            ("ingest_rps", "1/s"),
            ("durable_p50_us", "us"),
            ("durable_p99_us", "us"),
        ],
        _ => vec![
            ("why_p50_us", "us"),
            ("why_p99_us", "us"),
            ("counterfactual_p50_us", "us"),
            ("counterfactual_p99_us", "us"),
            ("ingest_rps", "1/s"),
        ],
    });
    metrics
}

/// The metrics `BENCHMARK.json` lists in one section (`end_to_end` or
/// `per_layer`), with their units.
fn listed(section: &str) -> Vec<(String, String)> {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let start = manifest
        .find(&format!("\"{section}\""))
        .expect("section listed");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section ends")];
    body.split("\"name\":")
        .skip(1)
        .map(|entry| {
            let unit = &entry[entry.find("\"unit\":").expect("unit") + 7..];
            (quoted(entry), quoted(unit))
        })
        .collect()
}

/// The first quoted string in `s`.
fn quoted(s: &str) -> String {
    let start = s.find('"').expect("opening quote") + 1;
    let len = s[start..].find('"').expect("closing quote");
    s[start..start + len].to_string()
}

/// The number following `"key": ` in `line`.
fn number(line: &str, key: &str) -> f64 {
    let pattern = format!("\"{key}\": ");
    let start = line
        .find(&pattern)
        .unwrap_or_else(|| panic!("{key} missing in {line}"))
        + pattern.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).expect("number ends");
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("{key}: {e}"))
}

fn has_metric(line: &str, name: &str, unit: &str) -> bool {
    line.contains(&format!("\"{name}\": {{\"value\": "))
        && line[line.find(&format!("\"{name}\":")).unwrap()..]
            .split('}')
            .next()
            .is_some_and(|entry| entry.contains(&format!("\"unit\": \"{unit}\"")))
}

fn run(workload: &str, trace: &str) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = lines.last().expect("a result line").to_string();
    let report = lines
        .iter()
        .find(|l| l.starts_with("{\"report\""))
        .expect("a report line")
        .to_string();
    (report, result)
}

fn check_counts(workload: &str, report: &str, result: &str) {
    let attempted = number(report, "attempted");
    let succeeded = number(report, "succeeded");
    let failed = number(report, "failed");
    assert!(attempted >= 1.0, "{workload}: nothing attempted");
    assert_eq!(
        attempted,
        succeeded + failed,
        "{workload}: attempted = succeeded + failed"
    );
    assert_eq!(number(result, "attempted"), attempted);
    assert_eq!(number(result, "failed"), failed);
    assert_eq!(failed, 0.0, "{workload}: {report}");
    assert!(
        result.starts_with("{\"correct\": true,"),
        "{workload}: {result}"
    );
}

#[test]
fn measured_runs_emit_every_end_to_end_metric() {
    let gated = listed("end_to_end");
    assert!(gated
        .iter()
        .any(|(name, unit)| name == "setup_s" && unit == "s"));
    for workload in ["vet_hot", "ingest_deep", "causal_mix"] {
        let (report, result) = run(workload, "0");
        check_counts(workload, &report, &result);
        for (name, unit) in named_metrics(workload) {
            assert!(
                has_metric(&report, name, unit),
                "{workload}: {name} [{unit}] missing"
            );
        }
        for (name, unit) in &gated {
            assert!(
                has_metric(&result, name, unit),
                "{workload}: {name} [{unit}] missing"
            );
            let value = number(&result[result.find(name.as_str()).unwrap()..], "value");
            assert!(value > 0.0, "{workload}: {name} is {value}");
        }
        assert_eq!(
            result.matches("\"unit\"").count(),
            gated.len(),
            "{workload}: {result}"
        );
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let layers = listed("per_layer");
    assert!(layers.len() >= 30, "per_layer lists every layer metric");
    for workload in ["vet_hot", "ingest_deep", "causal_mix"] {
        let (report, result) = run(workload, "1");
        check_counts(workload, &report, &result);
        for (name, unit) in &layers {
            assert!(
                has_metric(&result, name, unit),
                "{workload}: {name} [{unit}] missing"
            );
        }
        assert_eq!(
            result.matches("\"unit\"").count(),
            layers.len(),
            "{workload}: {result}"
        );
        assert!(
            report.contains("layer sum ratio"),
            "{workload}: no layer-sum verdict"
        );
    }
}
