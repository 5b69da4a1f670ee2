//! The wire codec's integration suite, plus malformed-frame behaviour
//! against a live server.
//!
//! * golden bytes: one fixed instance of every request, audit outcome and
//!   response kind encodes to exactly the bytes pinned below, and those
//!   bytes decode back to the instance, so no codec change can move the
//!   format unnoticed;
//! * `decode(encode(m)) == m` through the public entry points, with and
//!   without a trace field and through the frame layer, including empty
//!   trails and a deterministic near-cap maximum-size batch (the per-type
//!   round-trip and corruption properties live with the codec's unit
//!   tests);
//! * malformed input (truncated frame, bad CRC, hostile length prefix,
//!   unknown tags, any version byte but the current one) is a **typed**
//!   error on the decode side and, against a live [`AuditServer`], a
//!   best-effort `ServerError` frame followed by a clean close — never a
//!   panic, and never a wedged server: fresh connections keep being
//!   served.

use piprov_audit::{
    AuditEngine, AuditOutcome, AuditRequest, AuditResponse, CounterfactualVerdict, EngineStats,
    EventFilter, Exemplar, HistogramSnapshot, MetricsSnapshot, PolicyInfo, PolicyListing,
    PolicySnapshot, RequestKind, RequestStats, Span, SpanKind, TraceContext, TraceRecord, WhyEvent,
    WhySlice,
};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Direction, Event, InternerStats, Provenance, ShardStats};
use piprov_core::value::Value;
use piprov_patterns::MemoStats;
use piprov_policy::{PackDiagnostic, PackFile, PackSource};
use piprov_serve::codec::{
    decode_request, decode_request_traced, decode_response, encode_request, encode_request_traced,
    encode_response,
};
use piprov_serve::wire::{read_frame, write_frame};
use piprov_serve::{
    AuditClient, AuditServer, ClientError, RequestTrace, ServeConfig, WireError, WireLimits,
    WireRequest, WireResponse,
};
use piprov_store::{AuditTrail, Operation, ProvenanceRecord, StoreStats};
use proptest::prelude::*;
use std::sync::Arc;

#[path = "support/arb.rs"]
mod arb;
use arb::*;

proptest! {
    // 64 cases by default; PIPROV_PROPTEST_CASES raises it in CI.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn traced_requests_round_trip(
        request in arb_wire_request(),
        trace in prop_oneof![Just(None), arb_request_trace().prop_map(Some)],
    ) {
        // The trace field survives the round trip for every request shape,
        // and its absence decodes as `None`.
        let limits = WireLimits::default();
        let body = encode_request_traced(&request, trace.as_ref());
        let (decoded, decoded_trace) = decode_request_traced(body, &limits).unwrap();
        prop_assert_eq!(decoded, request);
        prop_assert_eq!(decoded_trace, trace);
    }

    #[test]
    fn framing_is_transparent(response in arb_wire_response()) {
        // Through the actual frame layer (header + CRC), not just the body
        // codec.
        let limits = WireLimits::default();
        let mut out = Vec::new();
        write_frame(&mut out, &encode_response(&response)).unwrap();
        let mut cursor = std::io::Cursor::new(out);
        let frame = read_frame(&mut cursor, limits.max_frame_len).unwrap().unwrap();
        prop_assert_eq!(decode_response(frame, &limits).unwrap(), response);
        prop_assert!(read_frame(&mut cursor, limits.max_frame_len).unwrap().is_none());
    }
}

// ---------------------------------------------------------------------------
// Golden bytes: the encoded body of one fixed instance of every request,
// audit outcome and response kind, as hex.  A change that moves a single
// byte of the format fails here.
// ---------------------------------------------------------------------------

fn golden_record(logical_time: u64) -> ProvenanceRecord {
    // Shared provenance: `a`'s output event is both the channel history of
    // `b`'s input and the tail it is prepended to.
    let sent = Provenance::single(Event::output(Principal::new("a"), Provenance::empty()));
    let received = sent
        .clone()
        .prepend(Event::input(Principal::new("b"), sent));
    ProvenanceRecord::new(
        logical_time,
        "b",
        Operation::Receive,
        "m",
        Value::Channel(Channel::new("v")),
        received,
    )
}

fn golden_why_events() -> Vec<WhyEvent> {
    let channel = Provenance::single(Event::output(Principal::new("a"), Provenance::empty()));
    vec![
        WhyEvent {
            node: 7,
            event: Event::input(Principal::new("b"), channel),
        },
        WhyEvent {
            node: 3,
            event: Event::output(Principal::new("a"), Provenance::empty()),
        },
    ]
}

fn golden_histogram() -> HistogramSnapshot {
    HistogramSnapshot {
        counts: vec![1, 0, 2],
        overflow: 1,
        sum_ns: 9_000,
        count: 4,
        exemplars: vec![
            Some(Exemplar {
                trace_id: (0x0102_0304_0506_0708_u128 << 64) | 0x090a,
                value_ns: 512,
            }),
            None,
            None,
            Some(Exemplar {
                trace_id: 5,
                value_ns: 40_000,
            }),
        ],
    }
}

fn golden_metrics() -> MetricsSnapshot {
    MetricsSnapshot {
        engine: EngineStats {
            requests: 1,
            ingested: 2,
            vets_passed: 3,
            vets_failed: 4,
            index_hits: 5,
            memo_hits: 6,
            ingest_batches: 7,
            busy_rejections: 8,
            queue_depth: 9,
            snapshots_published: 10,
            snapshot_lag: 11,
            watermark: 12,
        },
        store: StoreStats {
            records: 13,
            segments: 14,
            bytes: 15,
        },
        interner: InternerStats {
            interned_nodes: 16,
            hits: 17,
            misses: 18,
            shards: 1,
        },
        interner_shards: vec![ShardStats {
            shard: 0,
            entries: 19,
            hits: 20,
            misses: 21,
        }],
        vets_unknown_pattern: 22,
        frame_decode: golden_histogram(),
        request_service: HistogramSnapshot::default(),
        ingest_queue_wait: HistogramSnapshot {
            counts: vec![3],
            overflow: 0,
            sum_ns: 30,
            count: 3,
            exemplars: Vec::new(),
        },
        uptime_seconds: 23,
        connections_accepted: 24,
        connections_closed: 25,
        open_connections: 26,
        policies: vec![PolicySnapshot {
            policy: "from-a".into(),
            memo: MemoStats {
                entries: 27,
                bound: 28,
                epochs: 29,
                hits: 30,
                misses: 31,
                retained: 32,
            },
            vets_passed: 33,
            vets_failed: 34,
            vets_unknown_value: 35,
            counterfactuals: 36,
            counterfactual_flips: 37,
            latency: golden_histogram(),
        }],
    }
}

/// One fixed instance of every request kind (every audit question, every
/// event filter), the last one traced.
fn golden_requests() -> Vec<(WireRequest, Option<RequestTrace>)> {
    let v = || Value::Channel(Channel::new("v"));
    let audit = |request| (WireRequest::Audit(request), None);
    vec![
        audit(AuditRequest::VetValue {
            value: v(),
            pattern: "from-a".into(),
        }),
        audit(AuditRequest::AuditTrail {
            value: Value::Principal(Principal::new("a")),
        }),
        audit(AuditRequest::WhoTouched {
            principal: Principal::new("b"),
        }),
        audit(AuditRequest::OriginOf { value: v() }),
        audit(AuditRequest::Why {
            value: v(),
            pattern: "from-a".into(),
        }),
        audit(AuditRequest::Counterfactual {
            value: v(),
            pattern: "from-a".into(),
            remove: EventFilter::Principal(Principal::new("a")),
        }),
        audit(AuditRequest::Counterfactual {
            value: v(),
            pattern: "from-a".into(),
            remove: EventFilter::Kind(Direction::Input),
        }),
        audit(AuditRequest::Counterfactual {
            value: v(),
            pattern: "from-a".into(),
            remove: EventFilter::ChannelVia(Principal::new("b")),
        }),
        (
            WireRequest::IngestBatch(vec![golden_record(1), golden_record(2)]),
            None,
        ),
        (WireRequest::Flush, None),
        (WireRequest::Stats, None),
        (WireRequest::Metrics, None),
        (
            WireRequest::Traces {
                min_total_ns: 5_000,
            },
            None,
        ),
        (
            WireRequest::LoadPack(PackSource::new(
                "pk",
                vec![PackFile::new("a.ppol", "policy p = Any\n")],
            )),
            None,
        ),
        (WireRequest::ListPolicies, None),
        (
            WireRequest::Audit(AuditRequest::VetValue {
                value: v(),
                pattern: "from-a".into(),
            }),
            Some(RequestTrace {
                context: TraceContext {
                    trace_id: (0xdead_beef_u128 << 64) | 0x42,
                    sampled: true,
                },
                client_encode_ns: 1_234,
            }),
        ),
    ]
}

/// One fixed instance of every audit outcome and every response kind.
fn golden_responses() -> Vec<WireResponse> {
    let stats = RequestStats {
        index_hits: 1,
        memo_hits: 2,
        dag_nodes_visited: 3,
        memo_reused: 4,
    };
    let audit = |outcome| {
        WireResponse::Audit(AuditResponse {
            outcome,
            stats,
            watermark: 17,
            pack_version: 2,
        })
    };
    vec![
        audit(AuditOutcome::Vetted {
            verdict: true,
            sequence: 9,
        }),
        audit(AuditOutcome::Trail(AuditTrail {
            value: Value::Channel(Channel::new("v")),
            records: vec![golden_record(1)],
            principals: vec![Principal::new("a"), Principal::new("b")],
            channels: vec![Channel::new("m")],
        })),
        audit(AuditOutcome::Touched {
            records: vec![1, 2],
            values: vec![Value::Channel(Channel::new("v"))],
        }),
        audit(AuditOutcome::Origin {
            principal: Some(Principal::new("a")),
        }),
        audit(AuditOutcome::Origin { principal: None }),
        audit(AuditOutcome::UnknownValue),
        audit(AuditOutcome::UnknownPattern {
            known: vec!["from-a".into(), "from-b".into()],
            nearest: Some("from-a".into()),
        }),
        audit(AuditOutcome::Why(WhySlice {
            verdict: false,
            sequence: 5,
            events: golden_why_events(),
            blocked: Some(1),
        })),
        audit(AuditOutcome::Counterfactual(CounterfactualVerdict {
            original: true,
            counterfactual: false,
            sequence: 5,
            removed: golden_why_events(),
        })),
        WireResponse::IngestAck {
            accepted: 2,
            queue_depth: 1,
        },
        WireResponse::Busy { queue_depth: 3 },
        WireResponse::Flushed {
            ingested: 40,
            watermark: 41,
        },
        WireResponse::Stats(golden_metrics().engine),
        WireResponse::Metrics(Box::new(golden_metrics())),
        WireResponse::Traces(vec![TraceRecord {
            trace_id: (7_u128 << 64) | 8,
            kind: RequestKind::Vet,
            total_ns: 1_000,
            spans: vec![
                Span::new(SpanKind::Decode, 100),
                Span {
                    kind: SpanKind::Handle,
                    duration_ns: 800,
                    index_hits: 2,
                    memo_hits: 1,
                },
            ],
        }]),
        WireResponse::PackLoaded {
            version: 3,
            installed: 4,
            reused: 2,
        },
        WireResponse::PackRejected {
            diagnostics: vec![PackDiagnostic::new("a.ppol", 1, 20, "invalid pattern")],
        },
        WireResponse::Policies(PolicyListing {
            version: 3,
            policies: vec![PolicyInfo {
                name: "pk::a::p".into(),
                package: "pk::a".into(),
                source: "Any".into(),
            }],
        }),
        WireResponse::ServerError {
            message: "idle timeout".into(),
        },
    ]
}

const GOLDEN_REQUESTS: [&str; 16] = [
    "06010100000176000666726f6d2d61",
    "06010201000161",
    "060103000162",
    "06010400000176",
    "06010500000176000666726f6d2d61",
    "06010600000176000666726f6d2d6101000161",
    "06010600000176000666726f6d2d610201",
    "06010600000176000666726f6d2d6103000162",
    "0602000000020000003c02000000000000000000000000000000010100016200016d0000017600000002000001610000000000000000010001620000000100000001000000020000003c02000000000000000000000000000000020100016200016d000001760000000200000161000000000000000001000162000000010000000100000002",
    "0603",
    "0604",
    "0605",
    "06060000000000001388",
    "06070002706b000000010006612e70706f6c0000000f706f6c6963792070203d20416e790a",
    "0608",
    "06010100000176000666726f6d2d610100000000deadbeef00000000000000420100000000000004d2",
];

const GOLDEN_RESPONSES: [&str; 19] = [
    "060101010000000000000009000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "06010200000176000000010000003c02000000000000000000000000000000010100016200016d000001760000000200000161000000000000000001000162000000010000000100000002000000020001610001620000000100016d000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "06010300000002000000000000000100000000000000020000000100000176000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "06010401000161000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "06010400000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "060105000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "06010600000002000666726f6d2d61000666726f6d2d6201000666726f6d2d61000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "0601070000000000000000050100000001000000020000000700016201000000010000000000000161000000030001610000000000000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "06010801000000000000000005000000020000000700016201000000010000000000000161000000030001610000000000000000000000000100000000000000020000000000000003000000000000000400000000000000110000000000000002",
    "06020000000200000001",
    "060300000003",
    "060400000000000000280000000000000029",
    "0605000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c",
    "0607000000000000000100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000000b000000000000000c000000000000000d000000000000000e000000000000000f000000000000001000000000000000110000000000000012000000000000000100000001000000000000000000000000000000130000000000000014000000000000001500000000000000160000000300000000000000010000000000000000000000000000000200000000000000010000000000002328000000000000000400000004010102030405060708000000000000090a0000000000000200000001000000000000000000000000000000050000000000009c4000000000000000000000000000000000000000000000000000000000000000000000000100000000000000030000000000000000000000000000001e000000000000000300000000000000000000001700000000000000180000000000000019000000000000001a00000001000666726f6d2d61000000000000001b000000000000001c000000000000001d000000000000001e000000000000001f0000000000000020000000000000002100000000000000220000000000000023000000000000002400000000000000250000000300000000000000010000000000000000000000000000000200000000000000010000000000002328000000000000000400000004010102030405060708000000000000090a0000000000000200000001000000000000000000000000000000050000000000009c40",
    "060800000001000000000000000700000000000000080100000000000003e8020200000000000000640000000000000000000000000000000004000000000000032000000000000000020000000000000001",
    "060900000000000000030000000400000002",
    "060a000000010006612e70706f6c00000000000000010000000000000014000f696e76616c6964207061747465726e",
    "060b0000000000000003000000010008706b3a3a613a3a700005706b3a3a6100000003416e79",
    "0606000c69646c652074696d656f7574",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{:02x}", b)).collect()
}

fn unhex(text: &str) -> bytes::Bytes {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect::<Vec<u8>>()
        .into()
}

#[test]
fn every_message_kind_encodes_to_its_golden_bytes() {
    let limits = WireLimits::default();
    let requests = golden_requests();
    assert_eq!(requests.len(), GOLDEN_REQUESTS.len());
    for ((request, trace), golden) in requests.iter().zip(GOLDEN_REQUESTS) {
        let body = encode_request_traced(request, trace.as_ref());
        assert_eq!(hex(&body), golden, "encoding of {:?}", request);
        let decoded = decode_request_traced(unhex(golden), &limits).unwrap();
        assert_eq!(&decoded, &(request.clone(), *trace));
    }
    let responses = golden_responses();
    assert_eq!(responses.len(), GOLDEN_RESPONSES.len());
    for (response, golden) in responses.iter().zip(GOLDEN_RESPONSES) {
        assert_eq!(
            hex(&encode_response(response)),
            golden,
            "encoding of {:?}",
            response
        );
        assert_eq!(&decode_response(unhex(golden), &limits).unwrap(), response);
    }
}

/// The empty-trail edge the codec must not choke on: a trail with no
/// records, principals, or channels.
#[test]
fn empty_trail_round_trips() {
    let limits = WireLimits::default();
    let response = WireResponse::Audit(AuditResponse {
        outcome: AuditOutcome::Trail(AuditTrail {
            value: Value::Channel(Channel::new("ghost")),
            records: Vec::new(),
            principals: Vec::new(),
            channels: Vec::new(),
        }),
        stats: RequestStats::default(),
        watermark: 0,
        pack_version: 0,
    });
    let decoded = decode_response(encode_response(&response), &limits).unwrap();
    assert_eq!(decoded, response);
}

/// A batch right at the configured record cap round-trips; one past it is
/// rejected before any record is decoded.
#[test]
fn max_size_batch_round_trips_and_the_cap_binds() {
    let limits = WireLimits {
        max_records: 512,
        ..WireLimits::default()
    };
    let record = |i: u64| {
        ProvenanceRecord::new(
            i,
            "p",
            Operation::Send,
            "m",
            Value::Channel(Channel::new(format!("v{}", i))),
            Provenance::single(Event::output(Principal::new("p"), Provenance::empty())),
        )
    };
    let at_cap: Vec<ProvenanceRecord> = (0..512).map(record).collect();
    let request = WireRequest::IngestBatch(at_cap);
    let encoded = encode_request(&request);
    assert_eq!(decode_request(encoded, &limits).unwrap(), request);

    let over_cap: Vec<ProvenanceRecord> = (0..513).map(record).collect();
    let err =
        decode_request(encode_request(&WireRequest::IngestBatch(over_cap)), &limits).unwrap_err();
    assert!(matches!(err, WireError::Malformed(_)), "{:?}", err);
}

// ---------------------------------------------------------------------------
// Malformed frames against a live server: hostile input dies a typed death
// and the server keeps serving.
// ---------------------------------------------------------------------------

fn live_server(name: &str) -> (AuditServer, std::path::PathBuf) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-mal-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    (server, dir)
}

fn expect_server_error_then_close(client: &mut AuditClient, what: &str) {
    // Best effort: the server names the cause in a final frame, then
    // closes; depending on timing the client may only observe the close.
    match client.receive_response() {
        Ok(WireResponse::ServerError { message }) => {
            assert!(!message.is_empty(), "{}: error frame names a cause", what);
            assert!(matches!(
                client.receive_response(),
                Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_))
            ));
        }
        Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_)) => {}
        other => panic!("{}: expected error-then-close, got {:?}", what, other),
    }
}

#[test]
fn hostile_length_prefix_gets_a_typed_error_and_the_server_survives() {
    let (server, dir) = live_server("hostile-len");
    let addr = server.local_addr();
    {
        let mut client = AuditClient::connect(addr).unwrap();
        // A frame header announcing a 4 GiB body.
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes());
        client.send_raw(&frame).unwrap();
        expect_server_error_then_close(&mut client, "hostile length");
    }
    // The server is not wedged: a fresh connection is served normally.
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert_eq!(fresh.stats().unwrap().ingested, 0);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_crc_gets_a_typed_error_and_the_server_survives() {
    let (server, dir) = live_server("bad-crc");
    let addr = server.local_addr();
    {
        let mut client = AuditClient::connect(addr).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &encode_request(&WireRequest::Stats)).unwrap();
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        client.send_raw(&framed).unwrap();
        expect_server_error_then_close(&mut client, "bad crc");
    }
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert!(fresh.stats().is_ok());
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_tags_and_versions_get_typed_errors() {
    let (server, dir) = live_server("bad-body");
    let addr = server.local_addr();
    // (byte offset to clobber, value, scenario): the version byte (every
    // value but the current one, the retired older versions included),
    // then the tag.
    for (offset, bad_byte, what) in [
        (0usize, 3u8, "version 3"),
        (0, 4, "version 4"),
        (0, 5, "version 5"),
        (0, 7, "version 7"),
        (0, 99, "version 99"),
        (1, 77, "bad tag"),
    ] {
        let mut client = AuditClient::connect(addr).unwrap();
        let mut body = encode_request(&WireRequest::Stats).to_vec();
        body[offset] = bad_byte;
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        client.send_raw(&framed).unwrap();
        expect_server_error_then_close(&mut client, what);
    }
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert!(fresh.stats().is_ok());
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_frame_closes_cleanly_without_wedging_the_server() {
    let (server, dir) = live_server("truncated");
    let addr = server.local_addr();
    {
        let mut client = AuditClient::connect(addr).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &encode_request(&WireRequest::Stats)).unwrap();
        // Send only part of the frame, then drop the connection: the
        // server sees a truncated body and must just close its side.
        client.send_raw(&framed[..framed.len() - 3]).unwrap();
    }
    let mut fresh = AuditClient::connect(addr).unwrap();
    assert!(fresh.stats().is_ok());
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
