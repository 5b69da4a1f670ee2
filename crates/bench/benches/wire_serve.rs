//! E13 — the cross-process serving layer.
//!
//! Three questions about the wire boundary's cost:
//!
//! * **`e13_wire/codec`** — encode/decode ns/op of the message codec as
//!   the embedded payload grows (ingest batches of 1/8/64 records, audit
//!   trails of 1/8/64 records): the layer a request pays before any
//!   engine work.
//! * **`e13_wire/vet_throughput`** — loopback end-to-end vet throughput
//!   at 1/2/4 concurrent client connections *while an ingest stream runs*,
//!   with a printed aggregate table: what a remote auditor actually gets
//!   from the worker pool.
//! * **batched-vs-unbatched ingest ablation** — the same record stream
//!   shipped one-per-request vs in 32-record batches, printed as a
//!   records/s table: what fire-and-batch mode (one round trip and one
//!   log-mutex acquisition per batch) buys over the wire.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use piprov_audit::{AuditConfig, AuditEngine, AuditOutcome, AuditRequest};
use piprov_bench::{fmt_ns, quick_criterion};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{GroupExpr, Pattern};
use piprov_serve::codec::{decode_request, decode_response, encode_request, encode_response};
use piprov_serve::{
    AuditClient, AuditServer, ClientConfig, ServeConfig, WireLimits, WireRequest, WireResponse,
};
use piprov_store::{AuditTrail, Operation, ProvenanceRecord, ProvenanceStore};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-e13-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A record whose provenance has realistic sharing (a relayed history).
fn record(i: u64) -> ProvenanceRecord {
    let origin = Principal::new(format!("supplier{}", i % 4));
    let mut k = Provenance::single(Event::output(origin.clone(), Provenance::empty()));
    for hop in 0..3 {
        k = k.prepend(Event::input(
            Principal::new(format!("relay{}", hop)),
            k.clone(),
        ));
    }
    ProvenanceRecord::new(
        i,
        origin,
        Operation::Send,
        "m",
        Value::Channel(Channel::new(format!("item{}", i))),
        k,
    )
}

fn bench_codec(c: &mut Criterion) {
    let limits = WireLimits::default();
    let mut group = c.benchmark_group("e13_wire/codec");
    for size in [1usize, 8, 64] {
        let batch = WireRequest::IngestBatch((0..size as u64).map(record).collect());
        let encoded = encode_request(&batch);
        group.bench_with_input(
            BenchmarkId::new("encode_ingest", size),
            &batch,
            |b, batch| b.iter(|| encode_request(batch)),
        );
        group.bench_with_input(
            BenchmarkId::new("decode_ingest", size),
            &encoded,
            |b, encoded| b.iter(|| decode_request(encoded.clone(), &limits).unwrap()),
        );
        let trail = WireResponse::Audit(piprov_audit::AuditResponse {
            outcome: AuditOutcome::Trail(AuditTrail {
                value: Value::Channel(Channel::new("item0")),
                records: (0..size as u64).map(record).collect(),
                principals: (0..4).map(|i| Principal::new(format!("p{}", i))).collect(),
                channels: vec![Channel::new("m")],
            }),
            stats: piprov_audit::RequestStats::default(),
            watermark: size as u64,
            pack_version: 1,
        });
        let trail_encoded = encode_response(&trail);
        group.bench_with_input(BenchmarkId::new("encode_trail", size), &trail, |b, t| {
            b.iter(|| encode_response(t))
        });
        group.bench_with_input(
            BenchmarkId::new("decode_trail", size),
            &trail_encoded,
            |b, encoded| b.iter(|| decode_response(encoded.clone(), &limits).unwrap()),
        );
    }
    group.finish();
}

/// Builds a served engine pre-loaded with `items` vetted items.
fn loopback_server(dir: &PathBuf, items: u64) -> AuditServer {
    let store = ProvenanceStore::open(dir).expect("open store");
    let engine = Arc::new(AuditEngine::with_config(
        store,
        AuditConfig { memo_bound: 8192 },
    ));
    engine.register_pattern(
        "from-supplier",
        Pattern::originated_at(GroupExpr::any_of([
            "supplier0",
            "supplier1",
            "supplier2",
            "supplier3",
        ])),
    );
    engine
        .ingest_batch((0..items).map(record).collect())
        .expect("seed ingest");
    AuditServer::bind(engine, "127.0.0.1:0", ServeConfig::default()).expect("bind")
}

fn vet_request(i: u64, items: u64) -> AuditRequest {
    AuditRequest::VetValue {
        value: Value::Channel(Channel::new(format!("item{}", i % items))),
        pattern: "from-supplier".into(),
    }
}

/// Loopback vet throughput at 1/2/4 connections with an ingest stream
/// running, printed as an aggregate table.
fn bench_vet_throughput() {
    const ITEMS: u64 = 256;
    const QUERIES_PER_CONN: usize = 2_000;
    println!(
        "\ne13_wire/vet_throughput — loopback, ingest streaming, {} vets per connection",
        QUERIES_PER_CONN
    );
    println!("| connections | wall time | aggregate vets/s |");
    println!("|---|---|---|");
    for connections in [1usize, 2, 4] {
        let dir = temp_dir(&format!("vet-{}", connections));
        let server = loopback_server(&dir, ITEMS);
        let addr = server.local_addr();
        let stop = Arc::new(AtomicBool::new(false));
        // A background writer keeps ingest pressure on the engine's write
        // lock and the worker pool while auditors query.
        let writer = {
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut client = AuditClient::connect(addr).expect("ingest connect");
                let mut i = ITEMS;
                while !stop.load(Ordering::Relaxed) {
                    client
                        .ingest_blocking((i..i + 8).map(record).collect())
                        .expect("ingest");
                    i += 8;
                }
            })
        };
        let started = Instant::now();
        let auditors: Vec<_> = (0..connections)
            .map(|t| {
                thread::spawn(move || {
                    let mut client = AuditClient::connect(addr).expect("connect");
                    let mut passed = 0usize;
                    for q in 0..QUERIES_PER_CONN {
                        let response = client
                            .request(&vet_request((q + t * 7) as u64, ITEMS))
                            .expect("vet");
                        if matches!(response.outcome, AuditOutcome::Vetted { verdict: true, .. }) {
                            passed += 1;
                        }
                    }
                    passed
                })
            })
            .collect();
        let passed: usize = auditors.into_iter().map(|h| h.join().unwrap()).sum();
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        assert_eq!(passed, connections * QUERIES_PER_CONN, "every vet passes");
        let total = (connections * QUERIES_PER_CONN) as f64;
        println!(
            "| {} | {:.2?} | {:.0} |",
            connections,
            elapsed,
            total / elapsed.as_secs_f64()
        );
        server.shutdown().expect("shutdown");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Batched vs unbatched ingest over the wire, printed as a records/s
/// table.
fn bench_ingest_ablation() {
    const RECORDS: u64 = 4_096;
    println!(
        "\ne13_wire/ingest_ablation — {} records over loopback",
        RECORDS
    );
    println!("| mode | wall time | records/s | log-mutex acquisitions |");
    println!("|---|---|---|---|");
    for (label, batch_size) in [
        ("unbatched (1/request)", 1usize),
        ("batched (32/request)", 32),
    ] {
        let dir = temp_dir(&format!("ablation-{}", batch_size));
        let server = loopback_server(&dir, 1);
        let mut client = AuditClient::connect_with(
            server.local_addr(),
            ClientConfig {
                batch_size,
                ..ClientConfig::default()
            },
        )
        .expect("connect");
        let started = Instant::now();
        for i in 0..RECORDS {
            client.buffer(record(1 + i)).expect("buffer");
        }
        client.flush().expect("flush");
        let elapsed = started.elapsed();
        let stats = client.stats().expect("stats");
        assert_eq!(stats.ingested, 1 + RECORDS);
        println!(
            "| {} | {:.2?} | {:.0} | {} |",
            label,
            elapsed,
            RECORDS as f64 / elapsed.as_secs_f64(),
            stats.ingest_batches
        );
        drop(client);
        server.shutdown().expect("shutdown");
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn bench_summary(c: &mut Criterion) {
    bench_codec(c);
    // Mean ns/op of the smallest and largest codec cases for the summary
    // line, measured directly (criterion's reports live above).
    let limits = WireLimits::default();
    let batch = WireRequest::IngestBatch((0..64).map(record).collect());
    let encoded = encode_request(&batch);
    let started = Instant::now();
    let mut n = 0u32;
    while n < 2_000 {
        let _ = decode_request(encoded.clone(), &limits).unwrap();
        n += 1;
    }
    println!(
        "\ne13_wire summary: decode of a 64-record batch ≈ {} per message",
        fmt_ns(started.elapsed().as_nanos() as f64 / n as f64)
    );
    bench_vet_throughput();
    bench_ingest_ablation();
}

criterion_group! {
    name = e13_wire;
    config = quick_criterion();
    targets = bench_summary
}
criterion_main!(e13_wire);
