//! `perfbench` — the piprov end-to-end benchmark.
//!
//! ```text
//! perfbench --workload <vet_hot|ingest_deep|causal_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Each run starts an `AuditServer` in a child process, preloads a
//! seeded history over loopback TCP, drives one workload with
//! `AuditClient`s (at most two threads, two connections) and checks every
//! answer.  `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced breakdown and prints the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod gen;
mod layers;
mod server;
mod stats;
mod workloads;

use gen::Scale;
use stats::Summary;
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Gate, Inputs, Tally, Workload};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <vet_hot|ingest_deep|causal_mix> --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::FULL;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?)
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => scale = Scale::TINY,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--serve") if args.len() == 4 && args[2] == "--trace" => {
            server::serve_main(&args[1], args[3] == "1")
        }
        Some("--echo") if args.len() == 3 => match (args[1].parse(), args[2].parse()) {
            (Ok(request), Ok(response)) => server::echo_main(request, response),
            _ => Err("--echo takes two byte counts".into()),
        },
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|args| bench(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The commit under test, when the working directory is a git checkout.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// The run conditions recorded with every result.
fn conditions(args: &Args, inputs: &Inputs) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (history, spine) = match args.workload {
        Workload::CausalMix => (
            format!("{} deep records", inputs.preload.len()),
            args.scale.spine.to_string(),
        ),
        _ => (format!("{} records", inputs.preload.len()), "1-6".into()),
    };
    let writer = match args.workload {
        Workload::CausalMix => format!(
            "open loop, {} records/s in {}-record batches, no retry on Busy",
            workloads::WRITER_BATCH as u64 * workloads::WRITER_BATCHES_PER_S,
            workloads::WRITER_BATCH
        ),
        Workload::IngestDeep => "closed loop, single-record batches via ingest_blocking".into(),
        Workload::VetHot => "none".into(),
    };
    vec![
        ("workload", args.workload.name().into()),
        ("shape", args.workload.shape().into()),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("seconds", args.seconds.to_string()),
        ("serve_config", format!("{:?}", server::serve_config(args.trace))),
        ("client_config", format!("{:?}", workloads::client_config(args.trace))),
        ("history", history),
        ("spine_depth", spine),
        ("policy", inputs.policy.into()),
        (
            "flush_policy",
            "store syncs only on Flush (an IngestAck means queued); sync_every_append=false".into(),
        ),
        ("writer", writer),
        (
            "episodes",
            format!(
                "{} s of timed phase in episodes of about {} s, each on a freshly set-up server; gated figures are medians over episodes",
                args.seconds,
                workloads::EPISODE_SECONDS
            ),
        ),
        ("git_commit", git_commit()),
    ]
}

fn print_result(tally: &Tally, metrics: &[(String, f64, &str)]) {
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted.max(1),
        tally.failed,
        body
    );
}

/// The report line: conditions, every named metric with its unit and
/// sample count, and the failure tally.
fn print_report(
    conditions: &[(&str, String)],
    named: &[(String, f64, &str, usize)],
    tally: &Tally,
    notes: &[String],
) {
    let conditions = conditions
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let named = named
        .iter()
        .map(|(name, value, unit, n)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit),
                n
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let notes = notes
        .iter()
        .map(|n| json_str(n))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"report\": {{\"conditions\": {{{conditions}}}, \"named\": {{{named}}}, \"attempted\": {}, \"succeeded\": {}, \"failed\": {}, \"notes\": [{notes}]}}}}",
        tally.attempted,
        tally.attempted - tally.failed,
        tally.failed
    );
}

fn bench(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(server::DATA_DIR)
        .map_err(|e| format!("creating {}: {e}", server::DATA_DIR))?;
    let inputs = Inputs::generate(args.workload, args.seed, args.scale);
    let result = if args.trace {
        traced_run(args, &inputs)
    } else {
        measured_run(args, &inputs)
    };
    // Every server removed its own store; drop the then-empty parent.
    let _ = std::fs::remove_dir(server::DATA_DIR);
    result
}

fn measured_run(args: &Args, inputs: &Inputs) -> Result<(), String> {
    let episodes = workloads::episodes(inputs, args.seconds, false, |_| Ok(()))?;
    let gate = Gate::of(&episodes);
    let pooled = workloads::pooled(&episodes);
    let named = workloads::named(args.workload, &episodes, &gate, &pooled);
    for (i, episode) in episodes.iter().enumerate() {
        let s = Summary::of(&episode.phase.primary);
        println!(
            "{:<12} episode {:<2} setup {:.3} s, {:.1}/s, p50 {:.1} us, p99 {:.1} us (n={}), peak rss {:.1} MB",
            args.workload.name(),
            i,
            episode.setup_s,
            episode.phase.throughput,
            s.p50,
            s.p99,
            s.count,
            episode.peak_rss_mb
        );
    }
    for (name, value, unit, n) in &named {
        println!(
            "{:<12} {:<24} {:>14.3} {:<5} n={}",
            args.workload.name(),
            name,
            value,
            unit,
            n
        );
    }
    print_report(
        &conditions(args, inputs),
        &named,
        &pooled.tally,
        &pooled.tally.notes,
    );
    let metrics = vec![
        ("setup_s".to_string(), gate.setup_s, "s"),
        ("throughput_per_s".into(), gate.throughput, "1/s"),
        ("latency_p50_us".into(), gate.p50, "us"),
        ("peak_rss_mb".into(), gate.peak_rss_mb, "MB"),
    ];
    print_result(&pooled.tally, &metrics);
    Ok(())
}

/// Runs traced episodes and reads the last server's trace ring and
/// metrics plane back over the wire.
fn traced_episodes(
    args: &Args,
    inputs: &Inputs,
) -> Result<(Vec<workloads::Episode>, layers::ServerView), String> {
    let mut view = None;
    let episodes = workloads::episodes(inputs, args.seconds / 2.0, true, |server| {
        let mut client = workloads::connect(server, false)?;
        let traces = client
            .traces()
            .map_err(|e| format!("reading traces: {e}"))?;
        let metrics = client
            .metrics()
            .map_err(|e| format!("reading metrics: {e}"))?;
        view = Some(layers::ServerView { traces, metrics });
        Ok(())
    })?;
    Ok((episodes, view.expect("at least one episode")))
}

/// Half the timed phase untraced, half traced (same episode shape), then
/// the layer probes.
fn traced_run(args: &Args, inputs: &Inputs) -> Result<(), String> {
    let untraced_episodes = workloads::episodes(inputs, args.seconds / 2.0, false, |_| Ok(()))?;
    let (traced_episodes, view) = traced_episodes(args, inputs)?;
    let overhead = Gate::of(&traced_episodes).p50 / Gate::of(&untraced_episodes).p50.max(1e-9);
    let untraced = workloads::pooled(&untraced_episodes);
    let traced = workloads::pooled(&traced_episodes);
    let breakdown = layers::breakdown(inputs, overhead, &untraced, &traced, &view)?;

    let mut tally = Tally::default();
    tally.absorb(&untraced.tally);
    tally.absorb(&traced.tally);
    let mut notes = breakdown.notes.clone();
    notes.push(format!(
        "server traces by kind: {:?}",
        layers::trace_counts(&view.traces)
    ));
    notes.extend(tally.notes.iter().cloned());
    let named: Vec<(String, f64, &str, usize)> = layers::LAYER_METRICS
        .iter()
        .map(|m| (m.name.to_string(), breakdown.values[m.name], m.unit, 0))
        .collect();
    for metric in layers::LAYER_METRICS {
        println!(
            "{:<12} {:<46} {:>14.3} {:<6} moves {} on {}",
            args.workload.name(),
            metric.name,
            breakdown.values[metric.name],
            metric.unit,
            metric.moves,
            metric.on
        );
    }
    for note in &breakdown.notes {
        println!("{note}");
    }
    print_report(&conditions(args, inputs), &named, &tally, &notes);
    let metrics: Vec<(String, f64, &str)> = named
        .iter()
        .map(|(n, v, u, _)| (n.clone(), *v, *u))
        .collect();
    print_result(&tally, &metrics);
    Ok(())
}
