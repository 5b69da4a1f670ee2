//! Property-test strategies for the wire vocabulary, shared by the codec's
//! unit tests and the `wire_roundtrip` integration suite.  Each includes
//! this file as a module whose parent has `RequestTrace`, `WireRequest`
//! and `WireResponse` in scope.

// Each including target uses a different subset of the strategies.
#![allow(dead_code)]

use super::{RequestTrace, WireRequest, WireResponse};
use piprov_audit::{
    AuditOutcome, AuditRequest, AuditResponse, CounterfactualVerdict, EngineStats, EventFilter,
    Exemplar, HistogramSnapshot, MetricsSnapshot, PolicyInfo, PolicyListing, PolicySnapshot,
    RequestKind, RequestStats, Span, SpanKind, TraceContext, TraceRecord, WhyEvent, WhySlice,
};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Direction, Event, InternerStats, Provenance, ShardStats};
use piprov_core::value::Value;
use piprov_patterns::MemoStats;
use piprov_policy::{PackDiagnostic, PackFile, PackSource};
use piprov_store::{AuditTrail, Operation, ProvenanceRecord};
use proptest::prelude::*;

pub fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0u32..64).prop_map(|i| Value::Channel(Channel::new(format!("v{}", i)))),
        (0u32..64).prop_map(|i| Value::Principal(Principal::new(format!("q{}", i)))),
    ]
}

/// Builds provenance with genuine sharing: each step prepends one event
/// whose channel provenance and tail are drawn from the pool built so far.
pub fn build_provenance(steps: &[(u8, bool, usize, usize)]) -> Provenance {
    let mut pool: Vec<Provenance> = vec![Provenance::empty()];
    for (principal, output, channel_pick, tail_pick) in steps {
        let channel = pool[channel_pick % pool.len()].clone();
        let tail = pool[tail_pick % pool.len()].clone();
        let principal = Principal::new(format!("p{}", principal));
        let event = if *output {
            Event::output(principal, channel)
        } else {
            Event::input(principal, channel)
        };
        pool.push(tail.prepend(event));
    }
    pool.last().expect("pool starts non-empty").clone()
}

pub fn arb_provenance() -> impl Strategy<Value = Provenance> {
    proptest::collection::vec((0u8..5, any::<bool>(), 0usize..16, 0usize..16), 0..12)
        .prop_map(|steps| build_provenance(&steps))
}

pub fn arb_record() -> impl Strategy<Value = ProvenanceRecord> {
    (
        (0u64..1 << 48, 0u64..1 << 32, 0u8..4, 0u32..32),
        arb_value(),
        arb_provenance(),
    )
        .prop_map(
            |((sequence, logical_time, op, chan), value, provenance)| ProvenanceRecord {
                sequence,
                logical_time,
                principal: Principal::new(format!("actor{}", op)),
                operation: Operation::from_tag(op).expect("tag in range"),
                channel: Channel::new(format!("chan{}", chan)),
                value,
                provenance,
            },
        )
}

pub fn arb_event_filter() -> impl Strategy<Value = EventFilter> {
    prop_oneof![
        (0u32..32).prop_map(|p| EventFilter::Principal(Principal::new(format!("p{}", p)))),
        prop_oneof![Just(Direction::Output), Just(Direction::Input)].prop_map(EventFilter::Kind),
        (0u32..32).prop_map(|p| EventFilter::ChannelVia(Principal::new(format!("p{}", p)))),
    ]
}

pub fn arb_audit_request() -> impl Strategy<Value = AuditRequest> {
    prop_oneof![
        (arb_value(), 0u32..16).prop_map(|(value, p)| AuditRequest::VetValue {
            value,
            pattern: format!("pattern{}", p),
        }),
        arb_value().prop_map(|value| AuditRequest::AuditTrail { value }),
        (0u32..32).prop_map(|p| AuditRequest::WhoTouched {
            principal: Principal::new(format!("p{}", p)),
        }),
        arb_value().prop_map(|value| AuditRequest::OriginOf { value }),
        (arb_value(), 0u32..16).prop_map(|(value, p)| AuditRequest::Why {
            value,
            pattern: format!("pattern{}", p),
        }),
        (arb_value(), 0u32..16, arb_event_filter()).prop_map(|(value, p, remove)| {
            AuditRequest::Counterfactual {
                value,
                pattern: format!("pattern{}", p),
                remove,
            }
        }),
    ]
}

pub fn arb_request_stats() -> impl Strategy<Value = RequestStats> {
    (
        0usize..1 << 20,
        0usize..1 << 20,
        0usize..1 << 20,
        0usize..1 << 20,
    )
        .prop_map(
            |(index_hits, memo_hits, dag_nodes_visited, memo_reused)| RequestStats {
                index_hits,
                memo_hits,
                dag_nodes_visited,
                memo_reused,
            },
        )
}

pub fn arb_why_events() -> impl Strategy<Value = Vec<WhyEvent>> {
    proptest::collection::vec(
        (any::<u32>(), 0u8..5, any::<bool>(), arb_provenance()),
        0..5,
    )
    .prop_map(|entries| {
        entries
            .into_iter()
            .map(|(node, principal, output, channel)| {
                let principal = Principal::new(format!("p{}", principal));
                let event = if output {
                    Event::output(principal, channel)
                } else {
                    Event::input(principal, channel)
                };
                WhyEvent { node, event }
            })
            .collect()
    })
}

pub fn arb_why_slice() -> impl Strategy<Value = WhySlice> {
    (
        any::<bool>(),
        0u64..1 << 40,
        arb_why_events(),
        any::<bool>(),
    )
        .prop_map(|(verdict, sequence, events, mark_blocked)| {
            // The codec rejects out-of-range blocked indices, so only mark a
            // blocked frontier when there is an event to point at.
            let blocked = if mark_blocked && !events.is_empty() {
                Some(events.len() as u32 - 1)
            } else {
                None
            };
            WhySlice {
                verdict,
                sequence,
                events,
                blocked,
            }
        })
}

pub fn arb_counterfactual() -> impl Strategy<Value = CounterfactualVerdict> {
    (
        any::<bool>(),
        any::<bool>(),
        0u64..1 << 40,
        arb_why_events(),
    )
        .prop_map(
            |(original, counterfactual, sequence, removed)| CounterfactualVerdict {
                original,
                counterfactual,
                sequence,
                removed,
            },
        )
}

pub fn arb_outcome() -> impl Strategy<Value = AuditOutcome> {
    prop_oneof![
        (any::<bool>(), 0u64..1 << 40)
            .prop_map(|(verdict, sequence)| AuditOutcome::Vetted { verdict, sequence }),
        (
            arb_value(),
            proptest::collection::vec(arb_record(), 0..4),
            proptest::collection::vec(0u32..32, 0..6),
            proptest::collection::vec(0u32..32, 0..6),
        )
            .prop_map(|(value, records, principals, channels)| {
                AuditOutcome::Trail(AuditTrail {
                    value,
                    records,
                    principals: principals
                        .into_iter()
                        .map(|i| Principal::new(format!("p{}", i)))
                        .collect(),
                    channels: channels
                        .into_iter()
                        .map(|i| Channel::new(format!("c{}", i)))
                        .collect(),
                })
            }),
        (
            proptest::collection::vec(0u64..1 << 40, 0..8),
            proptest::collection::vec(arb_value(), 0..8),
        )
            .prop_map(|(records, values)| AuditOutcome::Touched { records, values }),
        prop_oneof![
            Just(None),
            (0u32..32).prop_map(|i| Some(Principal::new(format!("p{}", i)))),
        ]
        .prop_map(|principal| AuditOutcome::Origin { principal }),
        Just(AuditOutcome::UnknownValue),
        (
            proptest::collection::vec(0u32..32, 0..6),
            prop_oneof![
                Just(None),
                (0u32..32).prop_map(|i| Some(format!("pol{}", i))),
            ],
        )
            .prop_map(|(known, nearest)| AuditOutcome::UnknownPattern {
                known: known.into_iter().map(|i| format!("pol{}", i)).collect(),
                nearest,
            }),
        arb_why_slice().prop_map(AuditOutcome::Why),
        arb_counterfactual().prop_map(AuditOutcome::Counterfactual),
    ]
}

pub fn arb_pack_source() -> impl Strategy<Value = PackSource> {
    (0u32..4, proptest::collection::vec((0u32..8, 0u32..4), 0..4)).prop_map(|(root, files)| {
        PackSource::new(
            format!("root{}", root),
            files
                .into_iter()
                .enumerate()
                .map(|(i, (stem, n))| {
                    PackFile::new(
                        format!("f{}_{}.ppol", i, stem),
                        format!("policy p{} = Any\n", n),
                    )
                })
                .collect(),
        )
    })
}

pub fn arb_engine_stats() -> impl Strategy<Value = EngineStats> {
    proptest::collection::vec(0u64..u64::MAX, 12..13).prop_map(|v| EngineStats {
        requests: v[0],
        ingested: v[1],
        vets_passed: v[2],
        vets_failed: v[3],
        index_hits: v[4],
        memo_hits: v[5],
        ingest_batches: v[6],
        busy_rejections: v[7],
        queue_depth: v[8],
        snapshots_published: v[9],
        snapshot_lag: v[10],
        watermark: v[11],
    })
}

pub fn arb_memo_stats() -> impl Strategy<Value = MemoStats> {
    (
        0usize..1 << 20,
        0usize..1 << 20,
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 40,
        0u64..1 << 40,
    )
        .prop_map(
            |(entries, bound, epochs, hits, misses, retained)| MemoStats {
                entries,
                bound,
                epochs,
                hits,
                misses,
                retained,
            },
        )
}

/// A 128-bit trace id out of two 64-bit halves (the vendored proptest
/// shim has no `u128` ranges); the nonzero low half keeps it a real id.
pub fn arb_trace_id() -> impl Strategy<Value = u128> {
    (0u64..u64::MAX, 1u64..u64::MAX).prop_map(|(hi, lo)| ((hi as u128) << 64) | lo as u128)
}

pub fn arb_exemplar() -> impl Strategy<Value = Option<Exemplar>> {
    prop_oneof![
        2 => Just(None),
        1 => (arb_trace_id(), 0u64..1 << 40)
            .prop_map(|(trace_id, value_ns)| Some(Exemplar { trace_id, value_ns })),
    ]
}

pub fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(0u64..1 << 40, 0..20),
        0u64..1 << 40,
        0u64..u64::MAX,
        0u64..1 << 40,
        proptest::collection::vec(arb_exemplar(), 0..18),
    )
        .prop_map(
            |(counts, overflow, sum_ns, count, exemplars)| HistogramSnapshot {
                counts,
                overflow,
                sum_ns,
                count,
                exemplars,
            },
        )
}

pub fn arb_policy_snapshot() -> impl Strategy<Value = PolicySnapshot> {
    (
        (0u32..64).prop_map(|i| format!("policy-{}", i)),
        arb_memo_stats(),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 40),
        (0u64..1 << 40, 0u64..1 << 40),
        arb_histogram(),
    )
        .prop_map(
            |(
                policy,
                memo,
                (vets_passed, vets_failed, vets_unknown_value),
                (counterfactuals, counterfactual_flips),
                latency,
            )| {
                PolicySnapshot {
                    policy,
                    memo,
                    vets_passed,
                    vets_failed,
                    vets_unknown_value,
                    counterfactuals,
                    counterfactual_flips,
                    latency,
                }
            },
        )
}

pub fn arb_metrics_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
    (
        arb_engine_stats(),
        (0usize..1 << 30, 0usize..1 << 10, 0usize..1 << 40),
        (0u64..u64::MAX, 0u64..u64::MAX, 0usize..64, 0usize..1 << 20),
        proptest::collection::vec(
            (0usize..64, 0usize..1 << 20, 0u64..1 << 40, 0u64..1 << 40),
            0..5,
        ),
        (
            (
                0u64..1 << 40,
                arb_histogram(),
                arb_histogram(),
                arb_histogram(),
            ),
            (0u64..1 << 31, 0u64..1 << 40, 0u64..1 << 40, 0u64..1 << 20),
        ),
        proptest::collection::vec(arb_policy_snapshot(), 0..4),
    )
        .prop_map(
            |(
                engine,
                (records, segments, bytes),
                (hits, misses, shards, interned_nodes),
                shard_rows,
                (
                    (vets_unknown_pattern, frame_decode, request_service, ingest_queue_wait),
                    (uptime_seconds, connections_accepted, connections_closed, open_connections),
                ),
                policies,
            )| MetricsSnapshot {
                engine,
                store: piprov_store::StoreStats {
                    records,
                    segments,
                    bytes,
                },
                interner: InternerStats {
                    interned_nodes,
                    hits,
                    misses,
                    shards,
                },
                interner_shards: shard_rows
                    .into_iter()
                    .map(|(shard, entries, hits, misses)| ShardStats {
                        shard,
                        entries,
                        hits,
                        misses,
                    })
                    .collect(),
                vets_unknown_pattern,
                frame_decode,
                request_service,
                ingest_queue_wait,
                uptime_seconds,
                connections_accepted,
                connections_closed,
                open_connections,
                policies,
            },
        )
}

pub fn arb_trace_record() -> impl Strategy<Value = TraceRecord> {
    (
        arb_trace_id(),
        0u8..9,
        0u64..1 << 48,
        proptest::collection::vec((0u8..5, 0u64..1 << 40, 0u64..1 << 20, 0u64..1 << 20), 0..6),
    )
        .prop_map(|(trace_id, kind, total_ns, spans)| TraceRecord {
            trace_id,
            kind: RequestKind::from_u8(kind + 1).expect("kind in range"),
            total_ns,
            spans: spans
                .into_iter()
                .map(|(k, duration_ns, index_hits, memo_hits)| Span {
                    kind: SpanKind::from_u8(k + 1).expect("span kind in range"),
                    duration_ns,
                    index_hits,
                    memo_hits,
                })
                .collect(),
        })
}

pub fn arb_request_trace() -> impl Strategy<Value = RequestTrace> {
    (arb_trace_id(), any::<bool>(), 0u64..1 << 40).prop_map(
        |(trace_id, sampled, client_encode_ns)| RequestTrace {
            context: TraceContext { trace_id, sampled },
            client_encode_ns,
        },
    )
}

pub fn arb_wire_request() -> impl Strategy<Value = WireRequest> {
    prop_oneof![
        4 => arb_audit_request().prop_map(WireRequest::Audit),
        2 => proptest::collection::vec(arb_record(), 0..6).prop_map(WireRequest::IngestBatch),
        1 => Just(WireRequest::Flush),
        1 => Just(WireRequest::Stats),
        1 => Just(WireRequest::Metrics),
        1 => (0u64..1 << 48).prop_map(|min_total_ns| WireRequest::Traces { min_total_ns }),
        1 => arb_pack_source().prop_map(WireRequest::LoadPack),
        1 => Just(WireRequest::ListPolicies),
    ]
}

pub fn arb_wire_response() -> impl Strategy<Value = WireResponse> {
    prop_oneof![
        4 => (arb_outcome(), arb_request_stats(), 0u64..1 << 48, 0u64..1 << 32)
            .prop_map(|(outcome, stats, watermark, pack_version)| {
                WireResponse::Audit(AuditResponse {
                    outcome,
                    stats,
                    watermark,
                    pack_version,
                })
            }),
        1 => (0u32..1 << 16, 0u32..256).prop_map(|(accepted, queue_depth)| {
            WireResponse::IngestAck {
                accepted,
                queue_depth,
            }
        }),
        1 => (0u32..256).prop_map(|queue_depth| WireResponse::Busy { queue_depth }),
        1 => (0u64..u64::MAX, 0u64..u64::MAX).prop_map(|(ingested, watermark)| {
            WireResponse::Flushed {
                ingested,
                watermark,
            }
        }),
        1 => arb_engine_stats().prop_map(WireResponse::Stats),
        1 => arb_metrics_snapshot().prop_map(|m| WireResponse::Metrics(Box::new(m))),
        1 => proptest::collection::vec(arb_trace_record(), 0..5).prop_map(WireResponse::Traces),
        1 => (0u32..64).prop_map(|i| WireResponse::ServerError {
            message: format!("error {}", i),
        }),
        1 => (0u64..1 << 40, 0u32..1 << 16, 0u32..1 << 16).prop_map(
            |(version, installed, reused)| WireResponse::PackLoaded {
                version,
                installed,
                reused,
            }
        ),
        1 => proptest::collection::vec((0u32..8, 0u64..1 << 20, 0u64..1 << 20, 0u32..16), 0..4)
            .prop_map(|diags| WireResponse::PackRejected {
                diagnostics: diags
                    .into_iter()
                    .map(|(p, line, column, m)| PackDiagnostic::new(
                        format!("f{}.ppol", p),
                        line as usize,
                        column as usize,
                        format!("msg {}", m),
                    ))
                    .collect(),
            }),
        1 => (0u64..1 << 40, proptest::collection::vec((0u32..16, 0u32..8), 0..4)).prop_map(
            |(version, infos)| WireResponse::Policies(PolicyListing {
                version,
                policies: infos
                    .into_iter()
                    .map(|(n, p)| PolicyInfo {
                        name: format!("pkg{}::pol{}", p, n),
                        package: format!("pkg{}", p),
                        source: "Any".to_string(),
                    })
                    .collect(),
            })
        ),
    ]
}
