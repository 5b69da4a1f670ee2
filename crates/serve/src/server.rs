//! The TCP front-end of the audit engine.
//!
//! [`AuditServer::bind`] starts the serving core (the `event_loop`
//! module): one thread owns the listener and every connection on Linux
//! `epoll`.  That thread answers vets (`VetValue`) itself, and a small
//! dispatch worker pool answers everything else.  Both run each frame
//! through one per-frame pipeline — decode, handle against the engine's
//! lock-free MVCC read path, encode.  Thousands of idle connections cost
//! only their registered fds.
//!
//! Within a connection, requests are **pipelined**: frames are answered
//! strictly in arrival order, so a client may write many requests before
//! reading the first response.  Ingest takes the bounded path: an
//! `IngestBatch` frame is submitted to the engine's [`IngestQueue`]; a
//! full queue answers a typed [`WireResponse::Busy`] immediately — the
//! server never buffers a writer's backlog in its own memory — and
//! accepted batches are applied under one log-mutex acquisition each by
//! the queue's drain worker.
//!
//! Malformed input (bad CRC, hostile length prefix, unknown tag, any
//! version byte but [`crate::WIRE_VERSION`]) is a typed error, never a
//! panic: the server sends a best-effort [`WireResponse::ServerError`]
//! frame naming the cause and closes that connection; everyone else keeps
//! being served.  A request whose handler panics anyway is answered with
//! a `ServerError` in its slot; the connection, the thread that served it
//! and every later request carry on.
//!
//! A plaintext `GET` where a frame header would be is answered with one
//! HTTP/1.1 response (the Prometheus exposition on `/metrics`; also
//! `/trace`, `/policies`, `/why` and `/healthz`).  Two bounds hold a
//! connection's resources: a frame or HTTP head that stops arriving
//! mid-way is answered and closed after two seconds without new bytes,
//! and [`ServeConfig::idle_timeout`] expires connections with no request
//! in progress.

use crate::codec::{
    decode_request_traced, encode_response, request_kind, WireRequest, WireResponse,
};
use crate::event_loop::EventLoopHandle;
use crate::wire::{write_frame, WireError, WireLimits};
use bytes::Bytes;
use piprov_audit::{
    render_traces, AuditEngine, AuditOutcome, AuditRequest, BarrierError, ExpositionOptions,
    IngestQueue, PolicyListing, RequestKind, Span, SpanKind, SubmitOutcome, TraceCollector,
    TraceConfig, TraceContext,
};
use piprov_core::name::Channel;
use piprov_core::value::Value;
use piprov_store::StoreError;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of an [`AuditServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// The size of the dispatch worker pool.  Workers answer every frame
    /// the event loop does not answer itself: origin, audit-trail,
    /// who-touched, why and counterfactual queries, ingest, `Flush`
    /// barriers, stats, policy listings, pack loads, metrics, traces and
    /// HTTP scrapes, plus any vet queued behind one of those or past the
    /// loop's per-turn budget.  The loop thread answers the other vets,
    /// so vets keep being answered while every worker is parked in a
    /// `Flush`.  Connections themselves are not bounded by threads; an
    /// idle one costs only its fd.
    pub workers: usize,
    /// Capacity of the bounded ingest queue, in batches; overflow answers
    /// [`WireResponse::Busy`].
    pub queue_capacity: usize,
    /// Decode-side caps applied to every frame and record count.
    pub limits: WireLimits,
    /// Bound on how long a remote `Flush` may park its dispatch worker
    /// waiting for the ingest queue to drain (the wait goes through
    /// [`IngestQueue::barrier`], which never touches the queue's pause
    /// hook).  On expiry the client gets a typed
    /// [`WireResponse::ServerError`] and the worker returns to the pool —
    /// a slow or hostile flusher cannot occupy it forever.
    pub flush_timeout: Duration,
    /// When set, a connection idle (no request in any stage) past this
    /// bound is closed with a best-effort typed `ServerError{"idle
    /// timeout"}` frame, so an idle client cannot hold its fd forever.
    /// `None` (the default) never expires idle connections.  A request
    /// stalled mid-way is bounded separately, whatever this is set to.
    pub idle_timeout: Option<Duration>,
    /// The request-tracing plane: sampling rate, slow threshold, ring
    /// capacity and whether the `/metrics` exposition carries histogram
    /// exemplars.
    pub trace: TraceConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            limits: WireLimits::default(),
            flush_timeout: Duration::from_secs(10),
            idle_timeout: None,
            trace: TraceConfig::default(),
        }
    }
}

/// The message an idle-expired connection is closed with.
pub(crate) const IDLE_TIMEOUT_MESSAGE: &str = "idle timeout";

/// The `ServerError` a request whose handler panicked is answered with.
pub(crate) const REQUEST_PANIC_MESSAGE: &str = "internal error: the request's handler panicked";

/// A vet or why naming this pattern, framed or as `GET /why`, panics in
/// its handler: the unit tests' way to prove a panicking request costs no
/// capacity.
#[cfg(test)]
pub(crate) const PANIC_PATTERN: &str = "test::panic";

#[cfg(test)]
fn panic_if_asked(pattern: &str) {
    if pattern == PANIC_PATTERN {
        panic!("injected panic in a request handler");
    }
}

/// One server's instruments for the unit tests: a gate that parks every
/// request but a vet in its handler, and a count of the frames dispatch
/// workers have served.
#[cfg(test)]
#[derive(Debug, Default)]
pub(crate) struct TestHooks {
    parked: std::sync::Mutex<bool>,
    unparked: std::sync::Condvar,
    pub(crate) dispatched_frames: std::sync::atomic::AtomicUsize,
}

#[cfg(test)]
impl TestHooks {
    pub(crate) fn set_parked(&self, parked: bool) {
        *self.parked.lock().unwrap() = parked;
        self.unparked.notify_all();
    }

    fn wait_while_parked(&self) {
        let parked = self.parked.lock().unwrap();
        drop(self.unparked.wait_while(parked, |p| *p).unwrap());
    }
}

/// What serving a frame needs, shared by the event loop and its dispatch
/// workers.
#[derive(Debug)]
pub(crate) struct Services {
    pub(crate) engine: Arc<AuditEngine>,
    pub(crate) queue: Arc<IngestQueue>,
    pub(crate) collector: Arc<TraceCollector>,
    pub(crate) config: ServeConfig,
    #[cfg(test)]
    pub(crate) hooks: TestHooks,
}

/// A running cross-process audit server.
///
/// Dropping the server (or calling [`AuditServer::shutdown`]) stops the
/// event loop, waits (bounded) for in-flight requests to finish, drains
/// the ingest queue and syncs the store.
#[derive(Debug)]
pub struct AuditServer {
    services: Arc<Services>,
    local_addr: SocketAddr,
    core: EventLoopHandle,
    stopped: bool,
}

impl AuditServer {
    /// Binds `addr` and starts serving.  Use port 0 to let the OS pick a
    /// free port ([`AuditServer::local_addr`] reports it).
    ///
    /// # Errors
    ///
    /// Propagates bind/listen failures and epoll/eventfd setup failures.
    pub fn bind(
        engine: Arc<AuditEngine>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let collector = Arc::new(TraceCollector::new(config.trace));
        let queue = Arc::new(IngestQueue::start_with_trace(
            Arc::clone(&engine),
            config.queue_capacity,
            Some(Arc::clone(&collector)),
        ));
        let services = Arc::new(Services {
            engine,
            queue,
            collector,
            config,
            #[cfg(test)]
            hooks: TestHooks::default(),
        });
        let core = EventLoopHandle::start(listener, Arc::clone(&services))?;
        Ok(AuditServer {
            services,
            local_addr,
            core,
            stopped: false,
        })
    }

    #[cfg(test)]
    pub(crate) fn hooks(&self) -> &TestHooks {
        &self.services.hooks
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine this server fronts.
    pub fn engine(&self) -> &Arc<AuditEngine> {
        &self.services.engine
    }

    /// The bounded ingest queue (exposed for tests and instrumentation —
    /// pausing it makes back-pressure deterministic to observe).
    pub fn ingest_queue(&self) -> &Arc<IngestQueue> {
        &self.services.queue
    }

    /// The trace collector the server deposits per-request span records
    /// into — the store behind `GET /trace` and the `Traces` wire request.
    pub fn trace_collector(&self) -> &Arc<TraceCollector> {
        &self.services.collector
    }

    /// Stops the event loop, joins its threads, drains the ingest queue
    /// and syncs the store.
    ///
    /// # Errors
    ///
    /// Surfaces the first deferred ingest error or a sync failure.
    pub fn shutdown(mut self) -> Result<(), StoreError> {
        self.core.stop();
        self.stopped = true;
        self.services.queue.flush()
    }
}

impl Drop for AuditServer {
    fn drop(&mut self) {
        if !self.stopped {
            self.core.stop();
            let _ = self.services.queue.flush();
        }
    }
}

/// Nanoseconds since `start`, saturating into the histogram's `u64`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A served request whose response waits in a connection's outbound
/// buffer.  Its trace is finished once the bytes reach the socket: the
/// write span covers enqueue → drained.
#[derive(Debug)]
pub(crate) struct PendingTrace {
    /// Stream position (bytes ever enqueued on the connection) at which
    /// this response is fully on the wire.
    pub(crate) end_abs: u64,
    /// When the event loop carved the frame off the connection's read
    /// buffer — the trace's total starts here, so it covers any wait for
    /// a dispatch worker.
    started: Instant,
    /// When the encoded response entered the outbound buffer.
    pub(crate) enqueued: Instant,
    ctx: Option<TraceContext>,
    kind: RequestKind,
    client_encode_ns: u64,
    decode_ns: u64,
    handle: Span,
}

impl PendingTrace {
    /// Closes the write span and hands the trace to the collector.
    pub(crate) fn finish(self, collector: &TraceCollector) {
        // A stack array, not a Vec: finish is on the per-request path.
        let mut spans = [Span::new(SpanKind::Write, 0); 4];
        let mut count = 0;
        if self.client_encode_ns > 0 {
            spans[0] = Span::new(SpanKind::ClientEncode, self.client_encode_ns);
            count = 1;
        }
        spans[count] = Span::new(SpanKind::Decode, self.decode_ns);
        spans[count + 1] = self.handle;
        spans[count + 2] = Span::new(SpanKind::Write, elapsed_ns(self.enqueued));
        collector.finish(
            self.ctx,
            self.kind,
            elapsed_ns(self.started),
            &spans[..count + 3],
        );
    }
}

/// The per-frame pipeline: decode → admit the trace → [`handle_request`]
/// → record the wire histograms → encode the framed response onto `out`.
/// `carved` is when the event loop took the frame off the read buffer.
/// The returned trace is finished once the response reaches the socket.
///
/// # Errors
///
/// A frame that does not decode; the caller answers it with a typed error
/// frame and closes the connection.
pub(crate) fn serve_frame(
    frame: Bytes,
    carved: Instant,
    services: &Services,
    out: &mut Vec<u8>,
) -> Result<PendingTrace, WireError> {
    let registry = services.engine.metrics_registry();
    // Decode time covers bytes → typed request; reading the frame off the
    // socket is readiness-bound, not decode work.
    let decode_started = Instant::now();
    let decoded = decode_request_traced(frame, &services.config.limits);
    let decode_ns = elapsed_ns(decode_started);
    registry.record_frame_decode(decode_ns);
    let (request, wire_trace) = decoded?;
    let ctx = services.collector.admit(wire_trace.map(|t| t.context));
    let kind = request_kind(&request);
    let service_started = Instant::now();
    let (response, index_hits, memo_hits) = handle_request(request, services, ctx);
    let service_ns = elapsed_ns(service_started);
    registry.record_request_service_traced(service_ns, ctx.map(|c| c.trace_id));
    write_frame(out, &encode_response(&response)).expect("vec write");
    Ok(PendingTrace {
        end_abs: out.len() as u64,
        started: carved,
        enqueued: carved,
        ctx,
        kind,
        client_encode_ns: wire_trace.map_or(0, |t| t.client_encode_ns),
        decode_ns,
        handle: Span {
            kind: SpanKind::Handle,
            duration_ns: service_ns,
            index_hits,
            memo_hits,
        },
    })
}

/// Upper bound on a buffered HTTP request head — far beyond any scrape
/// request, small enough that a hostile peer cannot balloon the buffer.
pub(crate) const MAX_HTTP_HEAD: usize = 8 * 1024;

/// Whether `head` already contains the `\r\n\r\n` ending an HTTP request
/// head (a bare `\n\n` is tolerated for hand-typed requests).
pub(crate) fn contains_blank_line(head: &[u8]) -> bool {
    head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n")
}

/// Renders the complete HTTP/1.1 response for a sniffed `GET` request:
/// the Prometheus exposition for `/metrics` (`text/plain; version=0.0.4`,
/// the content type Prometheus scrapers negotiate, with exemplar suffixes
/// when [`TraceConfig::exemplars`] is set), the trace ring for `/trace`
/// (filterable with `?min_us=N`), the policy listing for `/policies`
/// (filterable with `?package=NAME`; an unknown package 404s), the
/// why-provenance debug endpoint `/why?value=V&policy=P`, a liveness
/// probe for `/healthz`, 404 for any other path.  Always
/// `Connection: close` — the scrape path is one-shot, never a persistent
/// peer.
pub(crate) fn http_response_for(
    head: &[u8],
    engine: &AuditEngine,
    collector: &TraceCollector,
) -> Vec<u8> {
    let path = http_request_path(head);
    let (path, query) = match path {
        Some(path) => match path.split_once('?') {
            Some((path, query)) => (Some(path), Some(query)),
            None => (Some(path), None),
        },
        None => (None, None),
    };
    let (status, content_type, body) = match path {
        Some("/metrics") => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            piprov_audit::render_exposition_with(
                &engine.metrics(),
                &ExpositionOptions {
                    exemplars: collector.config().exemplars,
                },
            ),
        ),
        Some("/trace") => (
            "200 OK",
            "text/plain; charset=utf-8",
            render_traces(&collector.snapshot(trace_min_total_ns(query))),
        ),
        Some("/policies") => {
            let (status, body) = policies_response(query, engine);
            (status, "text/plain; charset=utf-8", body)
        }
        Some("/why") => {
            let (status, body) = why_response(query, engine);
            (status, "text/plain; charset=utf-8", body)
        }
        Some("/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
    };
    http_response(status, content_type, &body)
}

/// One complete `Connection: close` HTTP/1.1 response.
pub(crate) fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut response = format!(
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        content_type,
        body.len()
    )
    .into_bytes();
    response.extend_from_slice(body.as_bytes());
    response
}

/// The value of `key=` in an HTTP query string (`a=1&b=2`), if present.
/// Shared by every filterable endpoint (`/trace?min_us=`,
/// `/policies?package=`, `/why?value=&policy=`); the first occurrence
/// wins.  No percent-decoding — the names this surface filters on are
/// plain identifiers.
fn query_param<'a>(query: Option<&'a str>, key: &str) -> Option<&'a str> {
    query
        .into_iter()
        .flat_map(|q| q.split('&'))
        .find_map(|pair| pair.strip_prefix(key).and_then(|v| v.strip_prefix('=')))
}

/// The `min_us=N` filter of a `/trace` query string, in nanoseconds.
/// Anything absent or unparsable means "no filter".
fn trace_min_total_ns(query: Option<&str>) -> u64 {
    query_param(query, "min_us")
        .and_then(|v| v.parse::<u64>().ok())
        .map(|us| us.saturating_mul(1_000))
        .unwrap_or(0)
}

/// The `/policies` body: the full listing, or — with `?package=NAME` —
/// only that package's policies, 404ing when the package matches nothing
/// (an empty listing would be indistinguishable from "no policies loaded
/// yet" to a dashboard).
fn policies_response(query: Option<&str>, engine: &AuditEngine) -> (&'static str, String) {
    let listing = engine.policies();
    match query_param(query, "package") {
        None => ("200 OK", listing.to_string()),
        Some(package) => {
            let PolicyListing { version, policies } = listing;
            let filtered: Vec<_> = policies
                .into_iter()
                .filter(|p| p.package == package)
                .collect();
            if filtered.is_empty() {
                return ("404 Not Found", format!("unknown package {}\n", package));
            }
            (
                "200 OK",
                PolicyListing {
                    version,
                    policies: filtered,
                }
                .to_string(),
            )
        }
    }
}

/// The `/why?value=V&policy=P` body: the rendered witness slice for the
/// named channel value against the named policy.  Missing parameters are
/// a 400; an unknown value or policy is a 404 carrying the engine's
/// diagnostic outcome.
fn why_response(query: Option<&str>, engine: &AuditEngine) -> (&'static str, String) {
    let Some(value) = query_param(query, "value") else {
        return ("400 Bad Request", "missing value= parameter\n".to_string());
    };
    let Some(policy) = query_param(query, "policy") else {
        return ("400 Bad Request", "missing policy= parameter\n".to_string());
    };
    #[cfg(test)]
    panic_if_asked(policy);
    let response = engine.handle(&AuditRequest::Why {
        value: Value::Channel(Channel::new(value)),
        pattern: policy.to_string(),
    });
    match response.outcome {
        AuditOutcome::Why(slice) => ("200 OK", slice.to_string()),
        AuditOutcome::UnknownValue => ("404 Not Found", format!("unknown value {}\n", value)),
        AuditOutcome::UnknownPattern { nearest, .. } => (
            "404 Not Found",
            match nearest {
                Some(nearest) => format!("unknown policy {} (nearest: {})\n", policy, nearest),
                None => format!("unknown policy {}\n", policy),
            },
        ),
        other => ("500 Internal Server Error", format!("{:?}\n", other)),
    }
}

/// The request path of a `GET` request line, if `head` starts with one.
fn http_request_path(head: &[u8]) -> Option<&str> {
    let line_end = head
        .iter()
        .position(|&b| b == b'\r' || b == b'\n')
        .unwrap_or(head.len());
    let line = std::str::from_utf8(&head[..line_end]).ok()?;
    let mut parts = line.split_whitespace();
    if parts.next()? != "GET" {
        return None;
    }
    parts.next()
}

/// Maps one decoded request onto the engine/queue.  Store failures become
/// [`WireResponse::ServerError`]; a panic, should one escape the engine,
/// is caught around [`serve_frame`] and answered the same way.
///
/// Returns the response plus the `(index_hits, memo_hits)` the engine
/// reported, so the caller can stamp them onto the request's `handle`
/// span (zero for everything but audit requests).
fn handle_request(
    request: WireRequest,
    services: &Services,
    ctx: Option<TraceContext>,
) -> (WireResponse, u64, u64) {
    #[cfg(test)]
    if let WireRequest::Audit(
        AuditRequest::VetValue { pattern, .. } | AuditRequest::Why { pattern, .. },
    ) = &request
    {
        panic_if_asked(pattern);
    }
    #[cfg(test)]
    if !matches!(request, WireRequest::Audit(AuditRequest::VetValue { .. })) {
        services.hooks.wait_while_parked();
    }
    let Services {
        engine,
        queue,
        collector,
        config,
        ..
    } = services;
    let response = match request {
        WireRequest::Audit(audit) => {
            let response = engine.handle_with_trace(&audit, ctx.map(|c| c.trace_id));
            let index_hits = response.stats.index_hits as u64;
            let memo_hits = response.stats.memo_hits as u64;
            return (WireResponse::Audit(response), index_hits, memo_hits);
        }
        WireRequest::IngestBatch(records) => {
            let accepted = records.len() as u32;
            // The queue-wait span for this batch is deposited later by the
            // drain worker, under the same trace id.
            match queue.try_submit_traced(records, ctx) {
                SubmitOutcome::Accepted { queue_depth } => WireResponse::IngestAck {
                    accepted,
                    queue_depth: queue_depth as u32,
                },
                SubmitOutcome::Busy { queue_depth } => WireResponse::Busy {
                    queue_depth: queue_depth as u32,
                },
            }
        }
        // The wire-facing barrier, NOT the owner-facing `flush()`: a remote
        // peer must be able to neither un-pause a deliberately paused
        // queue nor park a dispatch worker without bound.
        WireRequest::Flush => match queue.barrier(config.flush_timeout) {
            // The watermark is read after the drain: everything submitted
            // before the flush is visible at (or below) it — the anchor a
            // client's read-your-writes polls against.
            Ok(()) => WireResponse::Flushed {
                ingested: engine.stats().ingested,
                watermark: engine.watermark(),
            },
            Err(e @ BarrierError::TimedOut { .. }) => WireResponse::ServerError {
                message: format!("flush failed: {}", e),
            },
            Err(BarrierError::Store(e)) => WireResponse::ServerError {
                message: format!("flush failed: {}", e),
            },
        },
        WireRequest::Stats => WireResponse::Stats(engine.stats()),
        WireRequest::Metrics => WireResponse::Metrics(Box::new(engine.metrics())),
        WireRequest::Traces { min_total_ns } => {
            WireResponse::Traces(collector.snapshot(min_total_ns))
        }
        // All-or-nothing: compilation happens entirely off to the side,
        // and only a clean pack reaches the engine's atomic publish — a
        // pack with any error changes nothing and reports every problem's
        // file, line, and column.
        WireRequest::LoadPack(source) => match piprov_policy::PolicyPack::compile(&source) {
            Ok(pack) => {
                let install = engine.install_pack(&pack);
                WireResponse::PackLoaded {
                    version: install.version,
                    installed: install.installed as u32,
                    reused: install.reused as u32,
                }
            }
            Err(error) => WireResponse::PackRejected {
                diagnostics: error.diagnostics,
            },
        },
        WireRequest::ListPolicies => WireResponse::Policies(engine.policies()),
    };
    (response, 0, 0)
}
