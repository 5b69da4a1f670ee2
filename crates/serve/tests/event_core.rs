//! The event-loop core's connection handling: idle and stalled-input
//! bounds, the plaintext HTTP scrape endpoints on the framed port,
//! hundreds of held connections, pipelined bursts, and the split between
//! vets answered on the loop thread and everything else answered by the
//! dispatch pool: request order, read-your-writes across that split, and
//! loop capacity while every worker is parked.

use piprov_audit::{AuditEngine, AuditOutcome, AuditRequest};
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{GroupExpr, Pattern};
use piprov_serve::codec::encode_request;
use piprov_serve::wire::write_frame;
use piprov_serve::{
    AuditClient, AuditServer, ClientError, IngestOutcome, ServeConfig, WireRequest, WireResponse,
};
use piprov_store::{Operation, ProvenanceRecord};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("piprov-serve-ec-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn value(name: &str) -> Value {
    Value::Channel(Channel::new(name))
}

fn record(i: u64, who: &str) -> ProvenanceRecord {
    let k = Provenance::single(Event::output(Principal::new(who), Provenance::empty()));
    ProvenanceRecord::new(
        i,
        who,
        Operation::Send,
        "m",
        value(&format!("item{}", i)),
        k,
    )
}

#[test]
fn idle_connections_get_a_typed_timeout_frame() {
    let dir = temp_dir("idle");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            idle_timeout: Some(Duration::from_millis(300)),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // An idle client is told why before the close — a typed frame, not
    // a silent EOF.
    let mut idler = AuditClient::connect(server.local_addr()).unwrap();
    match idler.receive_response() {
        Ok(WireResponse::ServerError { message }) => {
            assert!(
                message.contains("idle timeout"),
                "expected an idle-timeout notice, got {:?}",
                message
            );
        }
        other => panic!("expected the idle-timeout frame, got {:?}", other),
    }
    assert!(
        matches!(
            idler.receive_response(),
            Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_))
        ),
        "the notice is followed by the close"
    );

    // A connection that keeps talking (gaps well under the bound)
    // outlives many idle windows.
    let mut active = AuditClient::connect(server.local_addr()).unwrap();
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(100));
        active.stats().unwrap();
    }
    drop(active);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stalled_input_is_answered_and_closed_whatever_the_idle_timeout() {
    for idle_timeout in [None, Some(Duration::from_millis(300))] {
        let dir = temp_dir("stall");
        let engine = Arc::new(AuditEngine::open(&dir).unwrap());
        let server = AuditServer::bind(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServeConfig {
                idle_timeout,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let connect = || {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(4)))
                .unwrap();
            stream
        };

        // An HTTP request head cut off before its blank line, and a frame
        // cut off after five of its bytes; then both peers go quiet.
        let mut http = connect();
        write!(http, "GET /healthz HTTP/1.1\r\nHost: piprov\r\n").unwrap();
        let mut frame = Vec::new();
        write_frame(&mut frame, &encode_request(&WireRequest::Stats)).unwrap();
        let mut framed = connect();
        framed.write_all(&frame[..5]).unwrap();
        let quiet_since = Instant::now();

        // The head is answered from the bytes that arrived, then closed —
        // well inside the client's 4 s read timeout.
        let mut response = String::new();
        http.read_to_string(&mut response).unwrap_or_else(|e| {
            panic!("idle {:?}: stalled GET never answered: {}", idle_timeout, e)
        });
        assert!(
            response.starts_with("HTTP/1.1 200 OK\r\n"),
            "idle {:?}: {}",
            idle_timeout,
            response
        );
        assert_eq!(response.split_once("\r\n\r\n").unwrap().1, "ok\n");

        // The half-sent frame gets a typed error frame, then the close.
        let mut client = AuditClient::from_stream(framed).unwrap();
        match client.receive_response() {
            Ok(WireResponse::ServerError { message }) => {
                assert!(message.contains("stalled"), "{}", message)
            }
            other => panic!(
                "idle {:?}: expected a stalled-frame error, got {:?}",
                idle_timeout, other
            ),
        }
        assert!(matches!(
            client.receive_response(),
            Err(ClientError::ConnectionClosed) | Err(ClientError::Wire(_))
        ));
        // Neither answer came early: both waited out the stall bound, not
        // the idle bound.
        assert!(
            quiet_since.elapsed() >= Duration::from_millis(1_500),
            "idle {:?}: answered after only {:?}",
            idle_timeout,
            quiet_since.elapsed()
        );
        drop(client);
        server.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One raw HTTP GET against the framed port; returns the full response.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {} HTTP/1.1\r\nHost: piprov\r\n\r\n", path).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

#[test]
fn a_plaintext_get_on_the_framed_port_scrapes_the_exposition() {
    let dir = temp_dir("http");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // Put real numbers on the metrics plane first.
    let mut client = AuditClient::connect(addr).unwrap();
    client.ingest_blocking(vec![record(0, "s0")]).unwrap();
    client.flush().unwrap();
    client
        .request(&AuditRequest::VetValue {
            value: value("item0"),
            pattern: "from-s0".into(),
        })
        .unwrap();

    let response = http_get(addr, "/metrics");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &response[..response.len().min(200)]
    );
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    assert!(response.contains("Connection: close"));
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1;
    piprov_audit::validate_exposition(body).unwrap();
    assert!(body.contains("piprov_ingested_total 1\n"));
    assert!(body.contains("piprov_vets_passed_total 1\n"));
    // The serve layer's own histograms observed the framed traffic
    // that just happened.
    assert!(body.contains("# TYPE piprov_frame_decode_seconds histogram"));
    assert!(body.contains("# TYPE piprov_request_service_seconds histogram"));
    assert!(body.contains("# TYPE piprov_ingest_queue_wait_seconds histogram"));
    for family in [
        "piprov_frame_decode_seconds",
        "piprov_request_service_seconds",
        "piprov_ingest_queue_wait_seconds",
    ] {
        let count_line = body
            .lines()
            .find(|l| l.starts_with(&format!("{}_count ", family)))
            .unwrap_or_else(|| panic!("{} has no _count sample", family));
        let count: u64 = count_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(count >= 1, "{} never observed", family);
    }

    // Any other path is a 404, not a hang and not a frame error.
    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));

    // The framed protocol is undisturbed by the HTTP detour.
    assert_eq!(client.stats().unwrap().ingested, 1);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn healthz_and_trace_answer_plaintext_gets() {
    let dir = temp_dir("obsget");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("from-s0", Pattern::originated_at(GroupExpr::single("s0")));
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // The liveness probe needs no traffic first.
    let health = http_get(addr, "/healthz");
    assert!(
        health.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &health[..health.len().min(200)]
    );
    assert_eq!(health.split_once("\r\n\r\n").unwrap().1, "ok\n");

    // Drive traced framed traffic so the ring has something to show.
    let mut client = AuditClient::connect(addr).unwrap();
    client.ingest_blocking(vec![record(0, "s0")]).unwrap();
    client.flush().unwrap();
    client
        .request(&AuditRequest::VetValue {
            value: value("item0"),
            pattern: "from-s0".into(),
        })
        .unwrap();

    let response = http_get(addr, "/trace");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "{}",
        &response[..response.len().min(200)]
    );
    let body = response.split_once("\r\n\r\n").unwrap().1;
    piprov_audit::validate_trace_text(body)
        .unwrap_or_else(|e| panic!("trace body lints clean: {}", e));
    assert!(
        body.contains("kind=vet"),
        "the vet trace is served: {}",
        body
    );
    for stage in ["  client_encode ", "  decode ", "  handle ", "  write "] {
        assert!(
            body.lines().any(|l| l.starts_with(stage)),
            "missing the {} span line:\n{}",
            stage.trim(),
            body
        );
    }

    // `?min_us=` prunes server-side; an impossible floor leaves nothing.
    let filtered = http_get(addr, "/trace?min_us=60000000");
    let filtered_body = filtered.split_once("\r\n\r\n").unwrap().1;
    assert!(
        filtered_body.is_empty(),
        "a 60s floor filters every trace: {}",
        filtered_body
    );

    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_hostile_unterminated_get_is_bounded_and_leaves_the_server_healthy() {
    let dir = temp_dir("hostile");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();

    // A request line that never ends: no blank line, megabytes of
    // header bytes.  The server must cap what it buffers (8 KiB head)
    // and answer-and-close instead of accumulating the flood.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET /healthz HTTP/1.1\r\nX-Flood: ").unwrap();
    let junk = vec![b'a'; 64 * 1024];
    let mut sent = 0usize;
    let severed = loop {
        if sent >= 8 * 1024 * 1024 {
            break false;
        }
        match stream.write(&junk) {
            Ok(n) => sent += n,
            // Reset/EPIPE: the server already answered and closed.
            Err(_) => break true,
        }
    };
    if !severed {
        // The flood drained into kernel buffers before the close
        // landed; the response (or a clean EOF) must still arrive.
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
    }
    drop(stream);

    // The regression proof: the server is still healthy and the flood
    // did not wedge the HTTP path or the framed protocol.
    let health = http_get(addr, "/healthz");
    assert!(
        health.starts_with("HTTP/1.1 200 OK\r\n"),
        "server unhealthy after hostile GET: {}",
        &health[..health.len().min(200)]
    );
    let mut client = AuditClient::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().ingested, 0);
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scrapes_run_concurrently_with_framed_traffic() {
    let dir = temp_dir("scrape-race");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.local_addr();
    {
        let mut seed = AuditClient::connect(addr).unwrap();
        seed.ingest_blocking(vec![record(0, "s0")]).unwrap();
        seed.flush().unwrap();
    }

    // Scrapers hammer /metrics and /trace while a framed client
    // pipelines distinguishable requests on another connection.
    let scrapers: Vec<_> = ["/metrics", "/trace"]
        .into_iter()
        .map(|path| {
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let response = http_get(addr, path);
                    assert!(
                        response.starts_with("HTTP/1.1 200 OK\r\n"),
                        "{}: {}",
                        path,
                        &response[..response.len().min(200)]
                    );
                    let body = response.split_once("\r\n\r\n").unwrap().1;
                    if path == "/metrics" {
                        piprov_audit::validate_exposition(body).unwrap();
                    } else {
                        piprov_audit::validate_trace_text(body).unwrap();
                    }
                }
            })
        })
        .collect();

    let mut client = AuditClient::connect(addr).unwrap();
    for _ in 0..10 {
        let requests: Vec<AuditRequest> = (0..32u64)
            .map(|i| {
                if i % 2 == 0 {
                    AuditRequest::OriginOf {
                        value: value("item0"),
                    }
                } else {
                    AuditRequest::VetValue {
                        value: value("item0"),
                        pattern: "any".into(),
                    }
                }
            })
            .collect();
        let responses = client.pipeline(&requests).unwrap();
        // In order: each slot's outcome shape matches its request.
        for (i, response) in responses.iter().enumerate() {
            if i % 2 == 0 {
                assert!(
                    matches!(response.outcome, AuditOutcome::Origin { .. }),
                    "slot {} got {:?}",
                    i,
                    response.outcome
                );
            } else {
                assert!(
                    matches!(response.outcome, AuditOutcome::Vetted { .. }),
                    "slot {} got {:?}",
                    i,
                    response.outcome
                );
            }
        }
    }
    for scraper in scrapers {
        scraper.join().unwrap();
    }
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// The fd-limit probe lives in the Linux-only `poll` module; off Linux the
// event loop itself is a fallback, so there is nothing to prove.
#[cfg(target_os = "linux")]
#[test]
fn the_event_loop_holds_hundreds_of_idle_connections_while_serving_active_ones() {
    let dir = temp_dir("scale");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // Far more connections than any worker pool has threads; scaled down
    // only if the fd limit is unusually tight (each conn costs two fds:
    // ours and the server's).
    let target = 300usize;
    let idle_count = piprov_serve::poll::max_open_files()
        .map(|limit| target.min((limit as usize).saturating_sub(128) / 2))
        .unwrap_or(target);
    let idle: Vec<TcpStream> = (0..idle_count)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    assert!(idle.len() >= 64, "fd limit too low to prove anything");

    // With all those connections parked, active clients still get served.
    let mut active = AuditClient::connect(addr).unwrap();
    for i in 0..32u64 {
        active.ingest_blocking(vec![record(i, "s0")]).unwrap();
    }
    active.flush().unwrap();
    for i in 0..32u64 {
        let vet = active
            .request(&AuditRequest::VetValue {
                value: value(&format!("item{}", i)),
                pattern: "any".into(),
            })
            .unwrap();
        assert!(matches!(
            vet.outcome,
            AuditOutcome::Vetted { verdict: true, .. }
        ));
    }
    assert_eq!(engine.stats().ingested, 32);

    // The parked connections are not zombies: a sampling of them can
    // still speak the protocol.
    for stream in idle.iter().step_by(idle.len() / 8) {
        let mut probe = AuditClient::from_stream(stream.try_clone().unwrap()).unwrap();
        assert_eq!(probe.stats().unwrap().ingested, 32);
    }
    drop(active);
    drop(idle);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pipelined_burst_through_the_dispatch_pool_answers_in_request_order() {
    let dir = temp_dir("burst");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = AuditClient::connect(server.local_addr()).unwrap();
    for i in 0..16u64 {
        client.ingest_blocking(vec![record(i, "s0")]).unwrap();
    }
    client.flush().unwrap();

    // 256 requests written before any response is read: each answer is
    // distinguishable by its value, so a single transposition fails.
    let requests: Vec<AuditRequest> = (0..256u64)
        .map(|i| AuditRequest::OriginOf {
            value: value(&format!("item{}", i % 16)),
        })
        .collect();
    let responses = client.pipeline(&requests).unwrap();
    assert_eq!(responses.len(), 256);
    for response in &responses {
        assert_eq!(
            response.outcome,
            AuditOutcome::Origin {
                principal: Some(Principal::new("s0"))
            }
        );
    }
    // Interleave a query kind with a different outcome shape and check
    // the answers land on the right slots.
    let mixed: Vec<AuditRequest> = (0..64u64)
        .map(|i| {
            if i % 2 == 0 {
                AuditRequest::OriginOf {
                    value: value(&format!("item{}", i % 16)),
                }
            } else {
                AuditRequest::VetValue {
                    value: value(&format!("item{}", i % 16)),
                    pattern: "any".into(),
                }
            }
        })
        .collect();
    let responses = client.pipeline(&mixed).unwrap();
    for (i, response) in responses.iter().enumerate() {
        if i % 2 == 0 {
            assert!(
                matches!(response.outcome, AuditOutcome::Origin { .. }),
                "slot {} got {:?}",
                i,
                response.outcome
            );
        } else {
            assert!(
                matches!(response.outcome, AuditOutcome::Vetted { .. }),
                "slot {} got {:?}",
                i,
                response.outcome
            );
        }
    }
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// A client whose reads give up after `timeout`, so an answer that never
/// comes fails the test instead of hanging it.
fn connect_with_timeout(addr: SocketAddr, timeout: Duration) -> AuditClient {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(timeout)).unwrap();
    AuditClient::from_stream(stream).unwrap()
}

/// Writes `requests` as frames in one write, reading nothing.
fn send_frames(client: &mut AuditClient, requests: &[WireRequest]) {
    let mut frames = Vec::new();
    for request in requests {
        write_frame(&mut frames, &encode_request(request)).unwrap();
    }
    client.send_raw(&frames).unwrap();
}

fn audit_outcome(response: WireResponse) -> AuditOutcome {
    match response {
        WireResponse::Audit(answer) => answer.outcome,
        other => panic!("expected an audit answer, got {:?}", other),
    }
}

#[test]
fn inline_reads_keep_request_order_and_read_your_writes_across_the_worker_boundary() {
    let dir = temp_dir("inline-order");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server =
        AuditServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default()).unwrap();
    let mut client = connect_with_timeout(server.local_addr(), Duration::from_secs(20));

    // 64 rounds of write, flush, then every read kind on the new value,
    // all written before any answer is read.  A vet is answered on the
    // loop thread when nothing of the connection is pending or in flight;
    // the rest go to a worker.  Each round's frames are split into two
    // writes at a different point, with a pause between, so a round's
    // vet reaches the server both together with its ingest (one worker
    // job) and after it (answered inline once the flush's job is done).
    let rounds = 64u64;
    let round = |k: u64| {
        let item = value(&format!("item{}", k));
        vec![
            WireRequest::IngestBatch(vec![record(k, &format!("s{}", k))]),
            WireRequest::Flush,
            WireRequest::Audit(AuditRequest::VetValue {
                value: item.clone(),
                pattern: "any".into(),
            }),
            WireRequest::Audit(AuditRequest::OriginOf {
                value: item.clone(),
            }),
            WireRequest::Audit(AuditRequest::Why {
                value: item.clone(),
                pattern: "any".into(),
            }),
            WireRequest::Stats,
            WireRequest::Audit(AuditRequest::AuditTrail { value: item }),
        ]
    };
    for k in 0..rounds {
        let requests = round(k);
        let split = k as usize % requests.len();
        send_frames(&mut client, &requests[..split]);
        std::thread::sleep(Duration::from_millis(1));
        send_frames(&mut client, &requests[split..]);
    }

    for k in 0..rounds {
        let who = Principal::new(format!("s{}", k));
        match client.receive_response().unwrap() {
            WireResponse::IngestAck { accepted: 1, .. } => {}
            other => panic!("round {}: ingest slot got {:?}", k, other),
        }
        let watermark = match client.receive_response().unwrap() {
            WireResponse::Flushed {
                ingested,
                watermark,
            } => {
                assert_eq!(ingested, k + 1, "round {}", k);
                watermark
            }
            other => panic!("round {}: flush slot got {:?}", k, other),
        };
        // Read-your-writes: the vet sees the record its flush published.
        match client.receive_response().unwrap() {
            WireResponse::Audit(answer) => {
                assert!(
                    matches!(answer.outcome, AuditOutcome::Vetted { verdict: true, .. }),
                    "round {}: vet slot got {:?}",
                    k,
                    answer.outcome
                );
                assert!(answer.watermark >= watermark, "round {}", k);
            }
            other => panic!("round {}: vet slot got {:?}", k, other),
        }
        assert_eq!(
            audit_outcome(client.receive_response().unwrap()),
            AuditOutcome::Origin {
                principal: Some(who.clone())
            },
            "round {}",
            k
        );
        match audit_outcome(client.receive_response().unwrap()) {
            AuditOutcome::Why(slice) => assert!(slice.verdict, "round {}", k),
            other => panic!("round {}: why slot got {:?}", k, other),
        }
        match client.receive_response().unwrap() {
            WireResponse::Stats(stats) => assert_eq!(stats.ingested, k + 1, "round {}", k),
            other => panic!("round {}: stats slot got {:?}", k, other),
        }
        match audit_outcome(client.receive_response().unwrap()) {
            AuditOutcome::Trail(trail) => {
                assert_eq!(trail.records.len(), 1, "round {}", k);
                assert_eq!(trail.records[0].principal, who, "round {}", k);
            }
            other => panic!("round {}: trail slot got {:?}", k, other),
        }
    }
    drop(client);
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inline_vets_answer_while_the_only_worker_is_parked_in_a_flush() {
    let dir = temp_dir("inline-capacity");
    let engine = Arc::new(AuditEngine::open(&dir).unwrap());
    engine.register_pattern("any", Pattern::Any);
    let server = AuditServer::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            flush_timeout: Duration::from_secs(10),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let mut writer = connect_with_timeout(addr, Duration::from_secs(20));
    writer.ingest_blocking(vec![record(0, "s0")]).unwrap();
    writer.flush().unwrap();

    // With the ingest queue paused, a queued batch never drains, so the
    // writer's flush parks the only worker in its barrier.
    server.ingest_queue().set_paused(true);
    assert!(matches!(
        writer.ingest_batch(vec![record(1, "s0")]).unwrap(),
        IngestOutcome::Acked { .. }
    ));
    // The worker has taken the flush once it has decoded its frame.
    let decoded = || engine.metrics_registry().frame_decode_snapshot().count;
    let before = decoded();
    send_frames(&mut writer, &[WireRequest::Flush]);
    while decoded() == before {
        std::thread::sleep(Duration::from_millis(1));
    }

    // A second connection's vets are answered by the loop thread, well
    // inside a read timeout far shorter than the flush's bound.
    let mut auditor = connect_with_timeout(addr, Duration::from_secs(3));
    for _ in 0..32 {
        let vet = auditor
            .request(&AuditRequest::VetValue {
                value: value("item0"),
                pattern: "any".into(),
            })
            .expect("a vet answered while the only worker is parked");
        assert!(matches!(
            vet.outcome,
            AuditOutcome::Vetted { verdict: true, .. }
        ));
    }

    // Unparking the queue lets the flush finish with both records.
    server.ingest_queue().set_paused(false);
    match writer.receive_response().unwrap() {
        WireResponse::Flushed { ingested, .. } => assert_eq!(ingested, 2),
        other => panic!("expected the parked flush's answer, got {:?}", other),
    }
    drop((writer, auditor));
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
