//! The traced run: the per-layer breakdown.
//!
//! Spans are recorded by this benchmark's own code around calls into each
//! layer's public functions — nothing inside the library is instrumented —
//! plus the server's own trace ring, read back over the wire with
//! `AuditClient::traces`.  Every metric is emitted on every workload; a
//! layer probe runs on that workload's own generated inputs.

use crate::gen;
use crate::server::{EchoProcess, DATA_DIR};
use crate::stats::{mean, median, quantile};
use crate::workloads::{Inputs, Phase, Workload, FLUSH_GROUP, WRITER_BATCH};
use bytes::Bytes;
use piprov_audit::{
    filtered_view, AuditEngine, AuditResponse, IngestQueue, RequestKind, SpanKind, TraceRecord,
};
use piprov_patterns::{parse_pattern, CompiledPattern, MatchStats};
use piprov_policy::PolicyPack;
use piprov_serve::codec::{decode_request, decode_response, encode_request, encode_response};
use piprov_serve::wire::write_frame;
use piprov_serve::{MetricsReport, WireLimits, WireRequest, WireResponse};
use piprov_store::{ProvenanceRecord, ProvenanceStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A per-layer metric: name, unit, the end-to-end metric it should move
/// and the workload it should move it on.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
    }
}

/// The layer → end-to-end map.  `BENCHMARK.json`'s `per_layer` list names
/// the same metrics; `perfbench/README.md` carries the same table.
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("serve.client.encode_us", "us", "vet_p50_us", "vet_hot"),
    m("serve.codec.request_decode_us", "us", "vet_p50_us", "vet_hot"),
    m("serve.codec.ingest_decode_us_per_record", "us", "ingest_rps, setup_s", "ingest_deep"),
    m("serve.codec.response_encode_us", "us", "why_p50_us", "causal_mix"),
    m("serve.codec.response_bytes", "bytes", "why_p50_us", "causal_mix"),
    m("serve.client.response_decode_us", "us", "why_p50_us", "causal_mix"),
    m("serve.loopback_rtt_us", "us", "vet_p50_us", "vet_hot"),
    m("serve.event_loop.handoff_us", "us", "vet_p50_us, vet_rps", "vet_hot"),
    m("serve.event_loop.write_us", "us", "vet_p50_us", "vet_hot"),
    m("audit.engine.snapshot_load_us", "us", "vet_p50_us", "vet_hot"),
    m("audit.engine.handle_vet_us", "us", "vet_p50_us", "vet_hot"),
    m("audit.engine.memo_hit_ratio", "ratio", "vet_p50_us", "vet_hot"),
    m("audit.engine.handle_why_us", "us", "why_p50_us", "causal_mix"),
    m("audit.engine.handle_counterfactual_us", "us", "counterfactual_p50_us", "causal_mix"),
    m("audit.engine.dag_nodes_per_request", "count", "why_p50_us, counterfactual_p50_us", "causal_mix"),
    m("patterns.nfa.witness_us", "us", "why_p50_us", "causal_mix"),
    m("audit.causal.filtered_view_us", "us", "counterfactual_p50_us", "causal_mix"),
    m("audit.causal.memo_reused_per_counterfactual", "count", "counterfactual_p50_us", "causal_mix"),
    m("audit.engine.ingest_batch_us", "us", "ingest_rps; why_p99_us", "ingest_deep; causal_mix"),
    m("audit.snapshot.publish_us", "us", "ingest_rps", "ingest_deep"),
    m("store.index_extend_us", "us", "ingest_rps", "ingest_deep"),
    m("audit.snapshot.chunks", "count", "ingest_rps, peak_rss_mb", "ingest_deep"),
    m("audit.ingest.queue_wait_us", "us", "durable_p50_us", "ingest_deep"),
    m("audit.ingest.barrier_us", "us", "durable_p50_us", "ingest_deep"),
    m("audit.ingest.busy_ratio", "ratio", "failed_ratio, ingest_rps", "causal_mix"),
    m("store.append_us_per_record", "us", "ingest_rps, durable_p50_us", "ingest_deep"),
    m("store.sync_us", "us", "ingest_rps, durable_p50_us", "ingest_deep"),
    m("store.bytes_per_record", "bytes", "ingest_rps, durable_p50_us", "ingest_deep"),
    m("core.provenance.interner_nodes", "count", "peak_rss_mb", "all"),
    m("loadgen.lateness_p99_us", "us", "validity of causal_mix", "causal_mix"),
    m("trace.overhead_ratio", "ratio", "none", "all"),
    m("trace.layer_sum_ratio", "ratio", "none", "all"),
];

/// The ROADMAP layer budget: the independently measured layers must sum
/// to the traced round trip within ±15%.
pub const LAYER_SUM_GATE: f64 = 0.15;

/// Span samples per layer, in microseconds.
#[derive(Debug, Default)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Times one call into a layer.
    pub fn time<T>(&mut self, layer: &'static str, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = black_box(call());
        self.record(layer, started.elapsed());
        out
    }

    pub fn record(&mut self, layer: &'static str, elapsed: Duration) {
        self.samples
            .entry(layer)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e6);
    }

    pub fn median(&self, layer: &str) -> f64 {
        self.samples.get(layer).map(|s| median(s)).unwrap_or(0.0)
    }
}

/// How many requests each in-process probe times.
const PROBE_REQUESTS: usize = 512;

/// The request kind whose round trip the layer sum decomposes.
fn round_trip_kind(workload: Workload) -> RequestKind {
    match workload {
        Workload::VetHot => RequestKind::Vet,
        Workload::IngestDeep => RequestKind::Ingest,
        Workload::CausalMix => RequestKind::Why,
    }
}

/// The workload's round-trip requests, as the client sends them.
fn round_trip_requests(inputs: &Inputs) -> Vec<WireRequest> {
    let mut rng = gen::Rng::new(inputs.seed, 300);
    (0..PROBE_REQUESTS)
        .map(|i| match inputs.workload {
            Workload::VetHot => WireRequest::Audit(inputs.vet(rng.below(inputs.preload.len()))),
            Workload::IngestDeep => WireRequest::IngestBatch(vec![inputs.write_record(i)]),
            Workload::CausalMix => WireRequest::Audit(inputs.why(rng.below(inputs.preload.len()))),
        })
        .collect()
}

/// Ingest frames the workload ships: its timed-phase writes, or its
/// preload batches when it writes nothing while timed.
fn ingest_frames(inputs: &Inputs) -> Vec<(usize, Bytes)> {
    let records: Vec<Vec<ProvenanceRecord>> = match inputs.workload {
        Workload::VetHot => inputs
            .preload
            .chunks(inputs.preload_batch())
            .map(|c| c.to_vec())
            .collect(),
        Workload::IngestDeep => (0..PROBE_REQUESTS)
            .map(|i| vec![inputs.write_record(i)])
            .collect(),
        Workload::CausalMix => (0..PROBE_REQUESTS / 8)
            .map(|b| {
                (b * WRITER_BATCH..(b + 1) * WRITER_BATCH)
                    .map(|i| inputs.write_record(i))
                    .collect()
            })
            .collect(),
    };
    records
        .into_iter()
        .map(|batch| {
            (
                batch.len(),
                encode_request(&WireRequest::IngestBatch(batch)),
            )
        })
        .collect()
}

fn framed_len(body: &[u8]) -> usize {
    let mut frame = Vec::new();
    write_frame(&mut frame, body).expect("framing into a Vec");
    frame.len()
}

/// Codec probes; returns the framed request and response sizes of the
/// round-trip kind, for the loopback probe.
fn probe_codec(
    inputs: &Inputs,
    engine: &AuditEngine,
    spans: &mut Spans,
    out: &mut BTreeMap<&'static str, f64>,
) -> (usize, usize) {
    let limits = WireLimits::default();
    let requests = round_trip_requests(inputs);
    let mut request_frame = 0;
    let mut response_frame = 0;
    let mut response_bytes = Vec::new();
    for request in &requests {
        let body = spans.time("serve.client.encode_us", || encode_request(request));
        spans.time("serve.codec.request_decode_us", || {
            decode_request(body.clone(), &limits).expect("a request the codec encoded decodes")
        });
        let response = match request {
            WireRequest::Audit(audit) => WireResponse::Audit(engine.handle(audit)),
            _ => WireResponse::IngestAck {
                accepted: 1,
                queue_depth: 0,
            },
        };
        let encoded = spans.time("serve.codec.response_encode_us", || {
            encode_response(&response)
        });
        spans.time("serve.client.response_decode_us", || {
            decode_response(encoded.clone(), &limits).expect("a response the codec encoded decodes")
        });
        response_bytes.push(encoded.len() as f64);
        request_frame = request_frame.max(framed_len(&body));
        response_frame = response_frame.max(framed_len(&encoded));
    }
    out.insert("serve.codec.response_bytes", median(&response_bytes));
    let mut per_record = Vec::new();
    for (records, frame) in ingest_frames(inputs) {
        let started = Instant::now();
        black_box(decode_request(frame, &limits).expect("an ingest frame decodes"));
        per_record.push(started.elapsed().as_secs_f64() * 1e6 / records as f64);
    }
    out.insert(
        "serve.codec.ingest_decode_us_per_record",
        median(&per_record),
    );
    (request_frame, response_frame)
}

/// Bare-TCP ping-pong at the round-trip kind's frame sizes.
fn probe_loopback(
    request_len: usize,
    response_len: usize,
    spans: &mut Spans,
) -> Result<(), String> {
    let echo = EchoProcess::spawn(request_len, response_len)?;
    let mut stream = TcpStream::connect(echo.addr).map_err(|e| format!("echo connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let request = vec![0xa5u8; request_len.max(1)];
    let mut response = vec![0u8; response_len.max(1)];
    for round in 0..4096 {
        let started = Instant::now();
        stream
            .write_all(&request)
            .map_err(|e| format!("echo write: {e}"))?;
        stream
            .read_exact(&mut response)
            .map_err(|e| format!("echo read: {e}"))?;
        if round >= 256 {
            spans.record("serve.loopback_rtt_us", started.elapsed());
        }
    }
    drop(stream);
    drop(echo);
    Ok(())
}

fn probe_engine(
    inputs: &Inputs,
    engine: &AuditEngine,
    spans: &mut Spans,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let mut rng = gen::Rng::new(inputs.seed, 400);
    let picks: Vec<usize> = (0..PROBE_REQUESTS)
        .map(|_| rng.below(inputs.preload.len()))
        .collect();
    for _ in 0..PROBE_REQUESTS {
        spans.time("audit.engine.snapshot_load_us", || engine.snapshot());
    }
    // Memo-warm vets: one untimed pass, then the timed pass.
    for &i in &picks {
        engine.handle(&inputs.vet(i));
    }
    let before = engine
        .pattern_memo_stats(inputs.policy)
        .expect("policy registered");
    let mut primary_nodes = Vec::new();
    for &i in &picks {
        let response = spans.time("audit.engine.handle_vet_us", || {
            engine.handle(&inputs.vet(i))
        });
        if inputs.workload != Workload::CausalMix {
            primary_nodes.push(response.stats.dag_nodes_visited as f64);
        }
    }
    let after = engine
        .pattern_memo_stats(inputs.policy)
        .expect("policy registered");
    let hits = (after.hits - before.hits) as f64;
    let lookups = hits + (after.misses - before.misses) as f64;
    out.insert(
        "audit.engine.memo_hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    let mut reused = Vec::new();
    for &i in &picks {
        let why: AuditResponse = spans.time("audit.engine.handle_why_us", || {
            engine.handle(&inputs.why(i))
        });
        let cf = spans.time("audit.engine.handle_counterfactual_us", || {
            engine.handle(&inputs.counterfactual(i))
        });
        reused.push(cf.stats.memo_reused as f64);
        if inputs.workload == Workload::CausalMix {
            primary_nodes.push(why.stats.dag_nodes_visited as f64);
            primary_nodes.push(cf.stats.dag_nodes_visited as f64);
        }
    }
    out.insert("audit.engine.dag_nodes_per_request", mean(&primary_nodes));
    out.insert("audit.causal.memo_reused_per_counterfactual", mean(&reused));
    let source = match inputs.workload {
        Workload::CausalMix => gen::CAUSAL_SOURCE,
        _ => gen::ORIGIN_SOURCE,
    };
    let compiled = CompiledPattern::compile(&parse_pattern(source).expect("policy parses"));
    let filter = gen::drop_filter();
    for &i in &picks {
        let provenance = &inputs.preload[i].provenance;
        spans.time("patterns.nfa.witness_us", || {
            compiled.witness(provenance, &mut MatchStats::default())
        });
        spans.time("audit.causal.filtered_view_us", || {
            filtered_view(provenance, &filter)
        });
    }
}

/// Records per timed-phase write, and how many writes the probe makes.
fn write_shape(workload: Workload) -> (usize, usize) {
    match workload {
        Workload::CausalMix => (WRITER_BATCH, 64),
        _ => (1, 256),
    }
}

fn probe_ingest(
    inputs: &Inputs,
    engine: &Arc<AuditEngine>,
    store_dir: &Path,
    spans: &mut Spans,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let (batch, writes) = write_shape(inputs.workload);
    let mut next = 0usize;
    let mut take = |n: usize| -> Vec<ProvenanceRecord> {
        let records = (next..next + n).map(|i| inputs.write_record(i)).collect();
        next += n;
        records
    };
    for round in 0..writes {
        let records = take(batch);
        if round % 4 == 0 {
            let snapshot = engine.snapshot();
            spans.time("store.index_extend_us", || {
                snapshot.index().extended(records.iter())
            });
        }
        spans
            .time("audit.engine.ingest_batch_us", || {
                engine.ingest_batch(records)
            })
            .map_err(|e| format!("probe ingest: {e}"))?;
    }
    out.insert(
        "audit.snapshot.chunks",
        engine.snapshot().chunk_count() as f64,
    );
    let queue = IngestQueue::start(Arc::clone(engine), 64);
    for _ in 0..16 {
        for _ in 0..FLUSH_GROUP {
            if !queue.try_submit(take(batch)).is_accepted() {
                return Err("probe queue refused a batch".into());
            }
        }
        spans
            .time("audit.ingest.barrier_us", || {
                queue.barrier(Duration::from_secs(30))
            })
            .map_err(|e| format!("probe barrier: {e}"))?;
    }
    queue.shutdown().map_err(|e| format!("probe queue: {e}"))?;

    let mut store = ProvenanceStore::open(store_dir).map_err(|e| format!("probe store: {e}"))?;
    for record in &inputs.preload {
        store
            .append(record.clone())
            .map_err(|e| format!("probe append: {e}"))?;
    }
    for i in 0..writes * batch {
        let record = inputs.write_record(i);
        spans
            .time("store.append_us_per_record", || store.append(record))
            .map_err(|e| format!("probe append: {e}"))?;
        if (i + 1) % FLUSH_GROUP == 0 {
            spans
                .time("store.sync_us", || store.sync())
                .map_err(|e| format!("probe sync: {e}"))?;
        }
    }
    let stats = store.stats();
    out.insert(
        "store.bytes_per_record",
        stats.bytes as f64 / stats.records.max(1) as f64,
    );
    let publish = spans.median("audit.engine.ingest_batch_us")
        - spans.median("store.append_us_per_record") * batch as f64;
    out.insert("audit.snapshot.publish_us", publish);
    Ok(())
}

/// Builds an in-process engine holding the workload's preload, batched
/// exactly as the wire preload is, with the policy pack installed.
fn probe_engine_with_preload(inputs: &Inputs, dir: &Path) -> Result<Arc<AuditEngine>, String> {
    let engine = Arc::new(AuditEngine::open(dir).map_err(|e| format!("probe engine: {e}"))?);
    let pack =
        PolicyPack::compile(&gen::policy_pack()).map_err(|e| format!("policy pack: {e:?}"))?;
    engine.install_pack(&pack);
    for batch in inputs.preload.chunks(inputs.preload_batch()) {
        engine
            .ingest_batch(batch.to_vec())
            .map_err(|e| format!("probe preload: {e}"))?;
    }
    Ok(engine)
}

/// Server-side spans of the round-trip kind, from the trace ring.
fn span_breakdown(
    traces: &[TraceRecord],
    kind: RequestKind,
    out: &mut BTreeMap<&'static str, f64>,
) -> [f64; 3] {
    let mut handoff = Vec::new();
    let mut decode = Vec::new();
    let mut handle = Vec::new();
    let mut write = Vec::new();
    for trace in traces.iter().filter(|t| t.kind == kind) {
        let span = |k: SpanKind| -> Option<f64> {
            trace
                .spans
                .iter()
                .find(|s| s.kind == k)
                .map(|s| s.duration_ns as f64)
        };
        let (Some(d), Some(h), Some(w)) = (
            span(SpanKind::Decode),
            span(SpanKind::Handle),
            span(SpanKind::Write),
        ) else {
            continue;
        };
        decode.push(d / 1e3);
        handle.push(h / 1e3);
        write.push(w / 1e3);
        handoff.push((trace.total_ns as f64 - d - h - w) / 1e3);
    }
    out.insert("serve.event_loop.handoff_us", median(&handoff));
    out.insert("serve.event_loop.write_us", median(&write));
    [
        median(&decode),
        median(&handle),
        out["serve.event_loop.handoff_us"],
    ]
}

/// What the traced phase read back from the server.
#[derive(Debug)]
pub struct ServerView {
    pub traces: Vec<TraceRecord>,
    pub metrics: MetricsReport,
}

/// The layer breakdown of one workload.
pub struct Breakdown {
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable notes: the layer-sum decomposition and its verdict.
    pub notes: Vec<String>,
}

pub fn breakdown(
    inputs: &Inputs,
    overhead_ratio: f64,
    untraced: &Phase,
    traced: &Phase,
    server: &ServerView,
) -> Result<Breakdown, String> {
    let mut out = BTreeMap::new();
    let mut spans = Spans::default();
    let root = PathBuf::from(DATA_DIR).join(format!("probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = (|| {
        let engine = probe_engine_with_preload(inputs, &root.join("engine"))?;
        let (request_len, response_len) = probe_codec(inputs, &engine, &mut spans, &mut out);
        probe_engine(inputs, &engine, &mut spans, &mut out);
        probe_ingest(inputs, &engine, &root.join("store"), &mut spans, &mut out)?;
        probe_loopback(request_len, response_len, &mut spans)
    })();
    let _ = std::fs::remove_dir_all(&root);
    result?;
    for (&layer, samples) in &spans.samples {
        out.insert(layer, median(samples));
    }

    let kind = round_trip_kind(inputs.workload);
    let [decode, handle, handoff] = span_breakdown(&server.traces, kind, &mut out);
    let snapshot = &server.metrics.snapshot;
    let wait = &snapshot.ingest_queue_wait;
    out.insert(
        "audit.ingest.queue_wait_us",
        if wait.count > 0 {
            wait.sum_ns as f64 / wait.count as f64 / 1e3
        } else {
            0.0
        },
    );
    let engine_stats = snapshot.engine;
    let submitted = engine_stats.ingest_batches + engine_stats.busy_rejections;
    out.insert(
        "audit.ingest.busy_ratio",
        engine_stats.busy_rejections as f64 / submitted.max(1) as f64,
    );
    out.insert(
        "core.provenance.interner_nodes",
        snapshot.interner.interned_nodes as f64,
    );
    out.insert(
        "loadgen.lateness_p99_us",
        quantile(&mut untraced.lateness.clone(), 0.99),
    );
    out.insert("trace.overhead_ratio", overhead_ratio);

    let round_trip = match inputs.workload {
        Workload::VetHot => median(&traced.primary),
        Workload::IngestDeep => median(&traced.ingest_rtt),
        Workload::CausalMix => median(&traced.why),
    };
    let parts = [
        ("client encode", out["serve.client.encode_us"]),
        ("loopback rtt", out["serve.loopback_rtt_us"]),
        ("decode", decode),
        ("handoff", handoff),
        ("handle", handle),
        ("write", out["serve.event_loop.write_us"]),
        ("client decode", out["serve.client.response_decode_us"]),
    ];
    let sum: f64 = parts.iter().map(|(_, v)| v).sum();
    let ratio = sum / round_trip.max(1e-9);
    out.insert("trace.layer_sum_ratio", ratio);
    let mut notes = vec![format!(
        "layer sum over the traced {} round trip ({:.2} us): {}",
        kind.name(),
        round_trip,
        parts
            .iter()
            .map(|(n, v)| format!("{n} {v:.2}"))
            .collect::<Vec<_>>()
            .join(" + ")
    )];
    notes.push(if (ratio - 1.0).abs() <= LAYER_SUM_GATE {
        format!("layer sum ratio {ratio:.3}: within the ±15% layer budget")
    } else {
        format!(
            "layer sum ratio {ratio:.3}: OUTSIDE the ±15% layer budget — {:.2} us of the round trip is {} the measured layers",
            (round_trip - sum).abs(),
            if sum < round_trip { "not covered by" } else { "double-counted across" }
        )
    });
    let missing: Vec<&str> = LAYER_METRICS
        .iter()
        .map(|m| m.name)
        .filter(|name| !out.contains_key(name))
        .collect();
    if !missing.is_empty() {
        return Err(format!("layer metrics not measured: {missing:?}"));
    }
    Ok(Breakdown { values: out, notes })
}

/// Requests of every kind the server traced, by kind name (for the report).
pub fn trace_counts(traces: &[TraceRecord]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for trace in traces {
        *counts.entry(trace.kind.name()).or_insert(0) += 1;
    }
    counts
}
