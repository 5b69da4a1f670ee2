//! Binary codec for the wire vocabulary: the audit crate's typed
//! [`AuditRequest`]/[`AuditResponse`] plus the ingest and control messages
//! the cross-process service adds.
//!
//! Every message body is `version u8 | tag u8 | payload`, and the version
//! is always [`WIRE_VERSION`]: any other version byte is a typed
//! [`WireError::UnsupportedVersion`].  Each type on the wire has exactly one
//! codec definition, an impl of the crate-private `Wire` trait whose `put`
//! and `get` walk the same fields in the same order.  The shapes that
//! repeat share generic impls:
//!
//! * a list is a `u32` count followed by its items;
//! * an `Option` is a strict 0/1 flag byte, then the value when present;
//! * a `bool` is one strict 0/1 byte;
//! * a `u128` (trace ids) is two big-endian `u64`s, high half first;
//! * a plain struct is its fields in order, and a tagged enum is a tag
//!   byte followed by the variant's fields in order.
//!
//! Names and values reuse the store codec's primitive vocabulary
//! ([`piprov_store::codec::put_str`] and friends), and whole
//! [`ProvenanceRecord`]s are embedded in the store's DAG body format: a
//! record crosses the socket in exactly the bytes it would occupy in a
//! segment file, so sharing-heavy provenance stays O(DAG) on the wire too,
//! and the decoder rebuilds it through the interner on the receiving side.
//!
//! Decode-side discipline: every fixed-width read first checks that its
//! bytes are present; a list of records is capped by [`WireLimits`]; and
//! no list pre-allocates more memory than the bytes left to decode, so no
//! hostile count can request unbounded memory before the per-element
//! bounds checks reject it.

use crate::wire::{WireError, WireLimits, WIRE_VERSION};
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
use piprov_store::codec::{decode_body, encode_body, get_str, get_value, put_str, put_value};
use piprov_store::record::{
    direction_from_tag, direction_tag, flatten_provenance, unflatten_provenance,
};
use piprov_store::{AuditTrail, ProvenanceRecord, StoreStats};

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// One typed audit question.
    Audit(AuditRequest),
    /// A batch of records for the bounded ingest queue.
    IngestBatch(Vec<ProvenanceRecord>),
    /// Barrier: drain the ingest queue and sync the store, so everything
    /// submitted before this request is queryable and durable after it.
    /// The server's wait is bounded ([`crate::ServeConfig::flush_timeout`])
    /// and never touches the queue's pause hook; a timeout answers
    /// [`WireResponse::ServerError`].
    Flush,
    /// Snapshot of the engine's lifetime counters.
    Stats,
    /// The full metrics plane: engine/store/interner counters plus every
    /// registered policy's verdict counters and latency histogram (see
    /// [`piprov_audit::MetricsSnapshot`]).
    Metrics,
    /// Recent traces from the server's ring-buffer collector, oldest
    /// first, dropping traces shorter than `min_total_ns` end to end.
    Traces {
        /// Minimum end-to-end duration, nanoseconds (`0` = everything).
        min_total_ns: u64,
    },
    /// A whole policy pack, inline: root package name plus every `.ppol`
    /// file's source text.  The server compiles it off to the side and
    /// either installs it atomically ([`WireResponse::PackLoaded`]) or
    /// rejects it with per-file line/column diagnostics and changes
    /// nothing ([`WireResponse::PackRejected`]).
    LoadPack(PackSource),
    /// The registered policies: every name, source package, and canonical
    /// pattern text, plus the pack version they belong to.
    ListPolicies,
}

/// The trace field a traced request carries after its payload: the
/// propagated [`TraceContext`] plus the client-side encode+send duration,
/// measured by the originator (the server cannot observe it) so the
/// server-side trace covers the full path.  An untraced request carries
/// no field and decodes to `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrace {
    /// The propagated trace identity.
    pub context: TraceContext,
    /// Client-side request encode (and send-buffer) time, nanoseconds.
    pub client_encode_ns: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Answer to [`WireRequest::Audit`].
    Audit(AuditResponse),
    /// The batch was queued.
    IngestAck {
        /// Records accepted (the whole batch; acceptance is atomic).
        accepted: u32,
        /// Ingest-queue depth after queuing, in batches.
        queue_depth: u32,
    },
    /// The bounded ingest queue was full: nothing was buffered, back off
    /// and retry.
    Busy {
        /// Queue depth at the moment of rejection.
        queue_depth: u32,
    },
    /// Answer to [`WireRequest::Flush`].
    Flushed {
        /// Records ingested over the engine's lifetime, after the drain.
        ingested: u64,
        /// The snapshot watermark published by the drain: every record
        /// submitted before the flush is visible at (or below) this
        /// sequence number, so a client can read its own writes by
        /// polling for it.
        watermark: u64,
    },
    /// Answer to [`WireRequest::Stats`].
    Stats(EngineStats),
    /// Answer to [`WireRequest::Metrics`]: the typed snapshot; the client
    /// renders the Prometheus exposition locally from it
    /// ([`piprov_audit::MetricsSnapshot::exposition`] is deterministic, so
    /// client and server render identical text).  Boxed: the snapshot is
    /// by far the largest payload, and boxing it keeps every other
    /// response variant small on the stack.
    Metrics(Box<MetricsSnapshot>),
    /// Answer to [`WireRequest::Traces`]: recent traces from the ring
    /// collector, oldest first, already merged by trace id.
    Traces(Vec<TraceRecord>),
    /// Answer to [`WireRequest::LoadPack`]: the pack compiled cleanly and
    /// was published as the new policy set in one atomic swap.
    PackLoaded {
        /// Registry version the new set was published at.
        version: u64,
        /// Policies in the installed set.
        installed: u32,
        /// Of those, policies carried over unchanged (same name, package,
        /// and canonical source), keeping automaton memo and metric
        /// timeline.
        reused: u32,
    },
    /// Answer to [`WireRequest::LoadPack`]: the pack failed to compile
    /// and **nothing changed** (all-or-nothing), with every problem's
    /// file, line, and column.
    PackRejected {
        /// Per-file diagnostics, sorted by (path, line, column).
        diagnostics: Vec<PackDiagnostic>,
    },
    /// Answer to [`WireRequest::ListPolicies`].
    Policies(PolicyListing),
    /// The server failed to serve an otherwise well-formed request (store
    /// error on flush, for example), or reports why it is closing the
    /// connection.
    ServerError {
        /// Human-readable cause.
        message: String,
    },
}

/// The [`RequestKind`] a wire request traces as.
pub fn request_kind(request: &WireRequest) -> RequestKind {
    match request {
        WireRequest::Audit(AuditRequest::VetValue { .. }) => RequestKind::Vet,
        WireRequest::Audit(AuditRequest::AuditTrail { .. }) => RequestKind::Trail,
        WireRequest::Audit(AuditRequest::WhoTouched { .. }) => RequestKind::Touched,
        WireRequest::Audit(AuditRequest::OriginOf { .. }) => RequestKind::Origin,
        WireRequest::Audit(AuditRequest::Why { .. }) => RequestKind::Why,
        WireRequest::Audit(AuditRequest::Counterfactual { .. }) => RequestKind::Counterfactual,
        WireRequest::IngestBatch(_) => RequestKind::Ingest,
        WireRequest::Flush => RequestKind::Flush,
        WireRequest::Stats => RequestKind::Stats,
        WireRequest::Metrics => RequestKind::Metrics,
        WireRequest::Traces { .. } => RequestKind::Traces,
        WireRequest::LoadPack(_) => RequestKind::LoadPack,
        WireRequest::ListPolicies => RequestKind::ListPolicies,
    }
}

/// Tag of [`WireRequest::IngestBatch`], named because
/// [`encode_ingest_batch`] writes it without building the enum.
const REQ_INGEST: u8 = 2;

// Tags [`is_vet`] reads off an undecoded body.
const REQ_AUDIT: u8 = 1;
const AUDIT_VET: u8 = 1;

/// Whether an encoded request body is a `VetValue`, judged from its
/// header bytes `[version][request tag][audit tag]` alone, without
/// decoding it.  The event loop answers vets on its own thread;
/// everything else, including a body too short or too foreign to
/// classify, goes to a dispatch worker.
pub(crate) fn is_vet(body: &[u8]) -> bool {
    matches!(body, [WIRE_VERSION, REQ_AUDIT, AUDIT_VET, ..])
}

/// Field tag of the optional trace field after a request's payload.
const REQUEST_FIELD_TRACE: u8 = 1;

fn malformed(what: impl Into<String>) -> WireError {
    WireError::Malformed(what.into())
}

/// Maps a store decode error (names, values, embedded records) onto the
/// wire error vocabulary.
fn store_err(e: piprov_store::StoreError) -> WireError {
    malformed(format!("embedded record: {}", e))
}

/// One type's place on the wire: `put` appends its encoding, `get` reads
/// it back, and the two walk the same fields in the same order.
pub(crate) trait Wire: Sized {
    /// Whether a list of this type counts against
    /// [`WireLimits::max_records`].
    const RECORD: bool = false;

    /// Appends the encoding of `self`.
    fn put(&self, buf: &mut BytesMut);

    /// Reads one value, failing with a typed error on truncation or on
    /// bytes no encoder writes.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// The decode cursor: the bytes not yet read, and the caps they are held
/// to.
pub(crate) struct Reader<'a> {
    buf: Bytes,
    limits: &'a WireLimits,
}

impl<'a> Reader<'a> {
    /// Strips and checks the version byte of a message body.
    fn open(mut buf: Bytes, limits: &'a WireLimits) -> Result<Self, WireError> {
        if buf.remaining() < 2 {
            return Err(malformed("message shorter than version + tag"));
        }
        match buf.get_u8() {
            WIRE_VERSION => Ok(Reader { buf, limits }),
            other => Err(WireError::UnsupportedVersion(other)),
        }
    }

    /// Fails unless `bytes` more bytes remain.
    fn need(&self, bytes: usize, what: &str) -> Result<(), WireError> {
        if self.buf.remaining() < bytes {
            return Err(malformed(format!("truncated {}", what)));
        }
        Ok(())
    }

    fn get<T: Wire>(&mut self) -> Result<T, WireError> {
        T::get(self)
    }
}

impl Wire for u8 {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.need(1, "u8")?;
        Ok(r.buf.get_u8())
    }
}

impl Wire for u32 {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u32(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.need(4, "u32")?;
        Ok(r.buf.get_u32())
    }
}

impl Wire for u64 {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u64(*self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.need(8, "u64")?;
        Ok(r.buf.get_u64())
    }
}

/// Counters and sizes travel as `u64`.
impl Wire for usize {
    fn put(&self, buf: &mut BytesMut) {
        (*self as u64).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u64::get(r)? as usize)
    }
}

impl Wire for u128 {
    fn put(&self, buf: &mut BytesMut) {
        ((self >> 64) as u64).put(buf);
        (*self as u64).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let hi = u64::get(r)?;
        Ok(((hi as u128) << 64) | u64::get(r)? as u128)
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(malformed(format!("bad flag byte {}", other))),
        }
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut BytesMut) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(if bool::get(r)? { Some(r.get()?) } else { None })
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut BytesMut) {
        put_list(buf, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = u32::get(r)?;
        if T::RECORD && count > r.limits.max_records {
            return Err(malformed(format!(
                "{} records exceed the {} record cap",
                count, r.limits.max_records
            )));
        }
        // Every item takes at least one byte: pre-allocate no more memory
        // than the bytes left to decode.
        let room = r.buf.remaining() / std::mem::size_of::<T>().max(1);
        let mut items = Vec::with_capacity((count as usize).min(room));
        for _ in 0..count {
            items.push(r.get()?);
        }
        Ok(items)
    }
}

fn put_list<T: Wire>(buf: &mut BytesMut, items: &[T]) {
    (items.len() as u32).put(buf);
    for item in items {
        item.put(buf);
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, buf: &mut BytesMut) {
        (**self).put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Box::new(r.get()?))
    }
}

/// A name: the store codec's `u16`-length-prefixed UTF-8.
impl Wire for String {
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_str(&mut r.buf).map_err(store_err)
    }
}

impl Wire for Principal {
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self.as_str());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Principal::new(String::get(r)?))
    }
}

impl Wire for Channel {
    fn put(&self, buf: &mut BytesMut) {
        put_str(buf, self.as_str());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Channel::new(String::get(r)?))
    }
}

impl Wire for Value {
    fn put(&self, buf: &mut BytesMut) {
        put_value(buf, self);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        get_value(&mut r.buf).map_err(store_err)
    }
}

/// A record: a `u32` length, then the store's DAG body.
impl Wire for ProvenanceRecord {
    const RECORD: bool = true;

    fn put(&self, buf: &mut BytesMut) {
        let body = encode_body(self);
        (body.len() as u32).put(buf);
        buf.put_slice(&body);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::get(r)? as usize;
        r.need(len, "record body")?;
        decode_body(r.buf.copy_to_bytes(len)).map_err(store_err)
    }
}

/// A `u32`-length-prefixed text blob: pack file sources and canonical
/// policy text routinely outgrow the `u16`-prefixed names.
fn put_text(buf: &mut BytesMut, text: &str) {
    (text.len() as u32).put(buf);
    buf.put_slice(text.as_bytes());
}

fn get_text(r: &mut Reader<'_>) -> Result<String, WireError> {
    let len = u32::get(r)? as usize;
    r.need(len, "text body")?;
    String::from_utf8(r.buf.copy_to_bytes(len).to_vec())
        .map_err(|_| malformed("invalid utf-8 in text"))
}

/// One-byte enums, through their own tag functions.
macro_rules! wire_byte_enum {
    ($($ty:ident: |$v:ident| $to:expr, $from:expr;)+) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                let $v = *self;
                buf.put_u8($to);
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let byte = u8::get(r)?;
                $from(byte).ok_or_else(|| malformed(format!("unknown {} {}", stringify!($ty), byte)))
            }
        }
    )+};
}

wire_byte_enum! {
    Direction: |direction| direction_tag(direction), direction_from_tag;
    RequestKind: |kind| kind as u8, RequestKind::from_u8;
    SpanKind: |kind| kind as u8, SpanKind::from_u8;
}

/// Plain structs: the listed fields, in the listed order.  The fields are
/// destructured without `..`, so a field added to one of these types
/// without a place on the wire is a compile error here.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                let $ty { $($field),+ } = self;
                $($field.put(buf);)+
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: r.get()?),+ })
            }
        }
    )+};
}

wire_struct! {
    EngineStats {
        requests, ingested, vets_passed, vets_failed, index_hits, memo_hits, ingest_batches,
        busy_rejections, queue_depth, snapshots_published, snapshot_lag, watermark,
    }
    StoreStats { records, segments, bytes }
    InternerStats { interned_nodes, hits, misses, shards }
    ShardStats { shard, entries, hits, misses }
    MemoStats { entries, bound, epochs, hits, misses, retained }
    RequestStats { index_hits, memo_hits, dag_nodes_visited, memo_reused }
    Exemplar { trace_id, value_ns }
    HistogramSnapshot { counts, overflow, sum_ns, count, exemplars }
    PolicySnapshot {
        policy, memo, vets_passed, vets_failed, vets_unknown_value, counterfactuals,
        counterfactual_flips, latency,
    }
    MetricsSnapshot {
        engine, store, interner, interner_shards, vets_unknown_pattern, frame_decode,
        request_service, ingest_queue_wait, uptime_seconds, connections_accepted,
        connections_closed, open_connections, policies,
    }
    Span { kind, duration_ns, index_hits, memo_hits }
    TraceContext { trace_id, sampled }
    RequestTrace { context, client_encode_ns }
    AuditResponse { outcome, stats, watermark, pack_version }
    AuditTrail { value, records, principals, channels }
    CounterfactualVerdict { original, counterfactual, sequence, removed }
    PolicyListing { version, policies }
    PackDiagnostic { path, line, column, message }
}

/// Tagged enums: a tag byte, then the variant's fields in order.  Each
/// tag is written once, next to its variant.
macro_rules! wire_enum {
    ($ty:ident $what:literal {
        $($tag:tt => $variant:ident $({ $($field:ident),* })? $(( $($elem:ident),* ))?,)+
    }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut BytesMut) {
                match self {$(
                    $ty::$variant $({ $($field),* })? $(( $($elem),* ))? => {
                        buf.put_u8($tag);
                        $($($field.put(buf);)*)?
                        $($($elem.put(buf);)*)?
                    }
                )+}
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match u8::get(r)? {
                    $($tag => $ty::$variant
                        $({ $($field: r.get()?),* })?
                        $(( $({ let _ = stringify!($elem); r.get()? }),* ))?,)+
                    other => return Err(malformed(format!("unknown {} tag {}", $what, other))),
                })
            }
        }
    };
}

wire_enum! {
    WireRequest "request" {
        REQ_AUDIT => Audit(audit),
        REQ_INGEST => IngestBatch(records),
        3 => Flush,
        4 => Stats,
        5 => Metrics,
        6 => Traces { min_total_ns },
        7 => LoadPack(pack),
        8 => ListPolicies,
    }
}

wire_enum! {
    AuditRequest "audit request" {
        AUDIT_VET => VetValue { value, pattern },
        2 => AuditTrail { value },
        3 => WhoTouched { principal },
        4 => OriginOf { value },
        5 => Why { value, pattern },
        6 => Counterfactual { value, pattern, remove },
    }
}

wire_enum! {
    EventFilter "event filter" {
        1 => Principal(principal),
        2 => Kind(direction),
        3 => ChannelVia(principal),
    }
}

wire_enum! {
    WireResponse "response" {
        1 => Audit(audit),
        2 => IngestAck { accepted, queue_depth },
        3 => Busy { queue_depth },
        4 => Flushed { ingested, watermark },
        5 => Stats(stats),
        6 => ServerError { message },
        7 => Metrics(metrics),
        8 => Traces(records),
        9 => PackLoaded { version, installed, reused },
        10 => PackRejected { diagnostics },
        11 => Policies(listing),
    }
}

wire_enum! {
    AuditOutcome "audit outcome" {
        1 => Vetted { verdict, sequence },
        2 => Trail(trail),
        3 => Touched { records, values },
        4 => Origin { principal },
        5 => UnknownValue,
        6 => UnknownPattern { known, nearest },
        7 => Why(slice),
        8 => Counterfactual(verdict),
    }
}

/// The blocked-frontier index comes before the events it points into, and
/// must land inside them.
impl Wire for WhySlice {
    fn put(&self, buf: &mut BytesMut) {
        let WhySlice {
            verdict,
            sequence,
            events,
            blocked,
        } = self;
        verdict.put(buf);
        sequence.put(buf);
        blocked.put(buf);
        events.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (verdict, sequence, blocked) = (r.get()?, r.get()?, r.get::<Option<u32>>()?);
        let events: Vec<WhyEvent> = r.get()?;
        if blocked.is_some_and(|index| index as usize >= events.len()) {
            return Err(malformed("why blocked index out of range"));
        }
        Ok(WhySlice {
            verdict,
            sequence,
            events,
            blocked,
        })
    }
}

/// The DAG node id, the event's principal and direction, then its channel
/// provenance as a flattened preorder `(depth, direction, principal)`
/// list — the shape of the store's legacy record codec, expanded (sharing
/// inside a single channel history is rare, and slices are operator-facing
/// diagnostics).
impl Wire for WhyEvent {
    fn put(&self, buf: &mut BytesMut) {
        self.node.put(buf);
        self.event.principal.put(buf);
        self.event.direction.put(buf);
        let flat = flatten_provenance(&self.event.channel_provenance);
        (flat.len() as u32).put(buf);
        for (depth, nested) in &flat {
            depth.put(buf);
            nested.direction.put(buf);
            nested.principal.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (node, principal, direction) = (r.get()?, r.get()?, r.get()?);
        let mut flat = Vec::new();
        for _ in 0..u32::get(r)? {
            let depth = r.get()?;
            let (direction, principal) = (r.get()?, r.get()?);
            let channel_provenance = Provenance::empty();
            flat.push((
                depth,
                Event {
                    principal,
                    direction,
                    channel_provenance,
                },
            ));
        }
        let channel_provenance = unflatten_provenance(&flat);
        Ok(WhyEvent {
            node,
            event: Event {
                principal,
                direction,
                channel_provenance,
            },
        })
    }
}

/// Spans are counted with one byte: a trace holds a handful of stages.
impl Wire for TraceRecord {
    fn put(&self, buf: &mut BytesMut) {
        let TraceRecord {
            trace_id,
            kind,
            total_ns,
            spans,
        } = self;
        trace_id.put(buf);
        kind.put(buf);
        total_ns.put(buf);
        (spans.len() as u8).put(buf);
        for span in spans {
            span.put(buf);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (trace_id, kind, total_ns) = (r.get()?, r.get()?, r.get()?);
        let spans = (0..u8::get(r)?)
            .map(|_| r.get())
            .collect::<Result<_, _>>()?;
        Ok(TraceRecord {
            trace_id,
            kind,
            total_ns,
            spans,
        })
    }
}

impl Wire for PackFile {
    fn put(&self, buf: &mut BytesMut) {
        self.path.put(buf);
        put_text(buf, &self.source);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let path = String::get(r)?;
        Ok(PackFile::new(path, get_text(r)?))
    }
}

impl Wire for PackSource {
    fn put(&self, buf: &mut BytesMut) {
        self.root.put(buf);
        self.files.put(buf);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let root = String::get(r)?;
        Ok(PackSource::new(root, r.get()?))
    }
}

impl Wire for PolicyInfo {
    fn put(&self, buf: &mut BytesMut) {
        let PolicyInfo {
            name,
            package,
            source,
        } = self;
        name.put(buf);
        package.put(buf);
        put_text(buf, source);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(PolicyInfo {
            name: r.get()?,
            package: r.get()?,
            source: get_text(r)?,
        })
    }
}

/// A message body: the version byte, then the message.
fn message(payload: impl FnOnce(&mut BytesMut)) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    WIRE_VERSION.put(&mut buf);
    payload(&mut buf);
    buf.freeze()
}

/// Encodes an `IngestBatch` request body from a borrowed slice — what the
/// client's batching/splitting path uses to encode once (or re-encode a
/// half) without cloning the records.  Byte-identical to
/// `encode_request(&WireRequest::IngestBatch(..))`.
pub fn encode_ingest_batch(records: &[ProvenanceRecord]) -> Bytes {
    message(|buf| {
        REQ_INGEST.put(buf);
        put_list(buf, records);
    })
}

/// Appends the trace field to an already-encoded request body — how a
/// traced client turns any encoded request (including a pre-encoded
/// ingest batch) into its traced form without re-encoding the payload.
pub fn append_request_trace(body: &Bytes, trace: &RequestTrace) -> Bytes {
    let mut buf = BytesMut::with_capacity(body.len() + 26);
    buf.extend_from_slice(body);
    REQUEST_FIELD_TRACE.put(&mut buf);
    trace.put(&mut buf);
    buf.freeze()
}

/// Encodes one request body with its optional trace field appended.
pub fn encode_request_traced(request: &WireRequest, trace: Option<&RequestTrace>) -> Bytes {
    let body = encode_request(request);
    match trace {
        Some(trace) => append_request_trace(&body, trace),
        None => body,
    }
}

/// Encodes one request body (to be framed by [`crate::wire::write_frame`]).
pub fn encode_request(request: &WireRequest) -> Bytes {
    message(|buf| request.put(buf))
}

/// Decodes one request body, dropping any trace field.
///
/// # Errors
///
/// [`WireError::UnsupportedVersion`] or [`WireError::Malformed`]; record
/// counts above [`WireLimits::max_records`] are rejected before any
/// per-record work.
pub fn decode_request(buf: Bytes, limits: &WireLimits) -> Result<WireRequest, WireError> {
    decode_request_traced(buf, limits).map(|(request, _)| request)
}

/// Decodes one request body together with its optional trace field — the
/// server's entry point.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_request_traced(
    buf: Bytes,
    limits: &WireLimits,
) -> Result<(WireRequest, Option<RequestTrace>), WireError> {
    let mut r = Reader::open(buf, limits)?;
    let request = r.get()?;
    // Fields after the payload; the only one defined is the trace field.
    // An unknown or repeated field tag is malformed, not skipped, so
    // tolerated garbage never becomes a compatibility constraint.
    let mut trace = None;
    while r.buf.has_remaining() {
        match r.buf.get_u8() {
            REQUEST_FIELD_TRACE if trace.is_none() => trace = Some(r.get()?),
            _ => return Err(malformed("trailing bytes after request")),
        }
    }
    Ok((request, trace))
}

/// Encodes one response body (to be framed by
/// [`crate::wire::write_frame`]).
pub fn encode_response(response: &WireResponse) -> Bytes {
    message(|buf| response.put(buf))
}

/// Decodes one response body.
///
/// # Errors
///
/// As [`decode_request`].
pub fn decode_response(buf: Bytes, limits: &WireLimits) -> Result<WireResponse, WireError> {
    let mut r = Reader::open(buf, limits)?;
    let response = r.get()?;
    if r.buf.has_remaining() {
        return Err(malformed("trailing bytes after response"));
    }
    Ok(response)
}

// The property strategies are shared with the integration suite in
// `tests/wire_roundtrip.rs`.
#[cfg(test)]
#[path = "../tests/support/arb.rs"]
mod arb;

#[cfg(test)]
mod tests {
    use super::arb::*;
    use super::*;
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use piprov_store::Operation;
    use proptest::prelude::*;

    fn record(i: u64) -> ProvenanceRecord {
        let who = Principal::new(format!("p{}", i));
        let k = Provenance::single(Event::output(who.clone(), Provenance::empty()));
        ProvenanceRecord::new(
            i,
            who,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(format!("v{}", i))),
            k,
        )
    }

    #[test]
    fn requests_round_trip() {
        let limits = WireLimits::default();
        let requests = vec![
            WireRequest::Audit(AuditRequest::VetValue {
                value: Value::Channel(Channel::new("v")),
                pattern: "from-a".into(),
            }),
            WireRequest::Audit(AuditRequest::AuditTrail {
                value: Value::Principal(Principal::new("b")),
            }),
            WireRequest::Audit(AuditRequest::WhoTouched {
                principal: Principal::new("s"),
            }),
            WireRequest::Audit(AuditRequest::OriginOf {
                value: Value::Channel(Channel::new("x")),
            }),
            WireRequest::IngestBatch(vec![record(1), record(2)]),
            WireRequest::IngestBatch(Vec::new()),
            WireRequest::Flush,
            WireRequest::Stats,
            WireRequest::Metrics,
            WireRequest::LoadPack(PackSource::new(
                "supply_chain",
                vec![
                    PackFile::new("build.ppol", "policy vendor_only = v!Any; Any\n"),
                    PackFile::new(
                        "ship.ppol",
                        "use supply_chain::build::vendor_only\npolicy gate = @vendor_only | eps\n",
                    ),
                ],
            )),
            WireRequest::LoadPack(PackSource::new("empty", Vec::new())),
            WireRequest::ListPolicies,
        ];
        for request in requests {
            let decoded = decode_request(encode_request(&request), &limits).unwrap();
            assert_eq!(decoded, request);
        }
    }

    /// The event loop classifies a frame by its header bytes alone; this
    /// pins that check to what the encoder writes for every request kind,
    /// so a renumbered tag fails here instead of silently inlining a
    /// `Flush`.
    #[test]
    fn the_vet_check_agrees_with_the_encoder_on_every_request_kind() {
        let v = Value::Channel(Channel::new("v"));
        let table = [
            (
                WireRequest::Audit(AuditRequest::VetValue {
                    value: v.clone(),
                    pattern: "p".into(),
                }),
                true,
            ),
            (
                WireRequest::Audit(AuditRequest::OriginOf { value: v.clone() }),
                false,
            ),
            (WireRequest::Stats, false),
            (WireRequest::ListPolicies, false),
            (
                WireRequest::Audit(AuditRequest::AuditTrail { value: v.clone() }),
                false,
            ),
            (
                WireRequest::Audit(AuditRequest::WhoTouched {
                    principal: Principal::new("s"),
                }),
                false,
            ),
            (
                WireRequest::Audit(AuditRequest::Why {
                    value: v.clone(),
                    pattern: "p".into(),
                }),
                false,
            ),
            (
                WireRequest::Audit(AuditRequest::Counterfactual {
                    value: v.clone(),
                    pattern: "p".into(),
                    remove: EventFilter::Principal(Principal::new("s")),
                }),
                false,
            ),
            (WireRequest::IngestBatch(vec![record(1)]), false),
            (WireRequest::Flush, false),
            (WireRequest::Metrics, false),
            (WireRequest::Traces { min_total_ns: 0 }, false),
            (
                WireRequest::LoadPack(PackSource::new("pack", Vec::new())),
                false,
            ),
        ];
        // The table names every request kind there is.
        let covered: Vec<RequestKind> = table.iter().map(|(r, _)| request_kind(r)).collect();
        for kind in (0..=u8::MAX).filter_map(RequestKind::from_u8) {
            assert!(covered.contains(&kind), "{:?} missing from the table", kind);
        }
        let trace = RequestTrace {
            context: TraceContext {
                trace_id: 7,
                sampled: true,
            },
            client_encode_ns: 1,
        };
        for (request, inline) in &table {
            let body = encode_request(request);
            assert_eq!(is_vet(&body), *inline, "{:?}", request);
            let traced = append_request_trace(&body, &trace);
            assert_eq!(is_vet(&traced), *inline, "traced {:?}", request);
        }
        // A foreign version or a body cut short of its tags is never
        // answered inline; the worker's decode names the fault.
        let vet = encode_request(&table[0].0);
        let mut foreign = vet.to_vec();
        foreign[0] = WIRE_VERSION + 1;
        assert!(!is_vet(&foreign));
        assert!(!is_vet(&vet[..2]));
        assert!(!is_vet(&[]));
    }

    #[test]
    fn metrics_snapshots_round_trip() {
        let limits = WireLimits::default();
        let metrics = MetricsSnapshot {
            engine: EngineStats {
                requests: 7,
                ingested: 100,
                vets_passed: 5,
                vets_failed: 2,
                index_hits: 40,
                memo_hits: 3,
                ingest_batches: 9,
                busy_rejections: 1,
                queue_depth: 2,
                snapshots_published: 9,
                snapshot_lag: 3,
                watermark: 100,
            },
            store: StoreStats {
                records: 100,
                segments: 2,
                bytes: 12_345,
            },
            interner: InternerStats {
                interned_nodes: 50,
                hits: 200,
                misses: 50,
                shards: 2,
            },
            interner_shards: vec![
                ShardStats {
                    shard: 0,
                    entries: 30,
                    hits: 120,
                    misses: 30,
                },
                ShardStats {
                    shard: 1,
                    entries: 20,
                    hits: 80,
                    misses: 20,
                },
            ],
            vets_unknown_pattern: 4,
            frame_decode: HistogramSnapshot {
                counts: vec![2; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()],
                overflow: 1,
                sum_ns: 777,
                count: 33,
                exemplars: {
                    // One populated bucket exemplar plus an overflow
                    // exemplar, to exercise the flag-gated wire form.
                    let mut exemplars: Vec<Option<Exemplar>> =
                        vec![None; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len() + 1];
                    exemplars[3] = Some(Exemplar {
                        trace_id: 0xfeed_beef_0123,
                        value_ns: 4_096,
                    });
                    exemplars[piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()] = Some(Exemplar {
                        trace_id: u128::MAX,
                        value_ns: u64::MAX,
                    });
                    exemplars
                },
            },
            request_service: HistogramSnapshot {
                counts: vec![0; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()],
                overflow: 9,
                sum_ns: 888,
                count: 9,
                exemplars: Vec::new(),
            },
            ingest_queue_wait: HistogramSnapshot::default(),
            uptime_seconds: 3_601,
            connections_accepted: 12,
            connections_closed: 9,
            open_connections: 3,
            policies: vec![PolicySnapshot {
                policy: "chain-only".into(),
                memo: MemoStats {
                    entries: 10,
                    bound: 4096,
                    epochs: 0,
                    hits: 6,
                    misses: 10,
                    retained: 0,
                },
                vets_passed: 5,
                vets_failed: 2,
                vets_unknown_value: 1,
                counterfactuals: 7,
                counterfactual_flips: 3,
                latency: HistogramSnapshot {
                    counts: vec![1; piprov_audit::LATENCY_BUCKET_BOUNDS_NS.len()],
                    overflow: 0,
                    sum_ns: 123_456,
                    count: 16,
                    exemplars: Vec::new(),
                },
            }],
        };
        let response = WireResponse::Metrics(Box::new(metrics));
        let decoded = decode_response(encode_response(&response), &limits).unwrap();
        assert_eq!(decoded, response);
        // An empty registry round-trips too.
        let empty = WireResponse::Metrics(Box::new(MetricsSnapshot {
            engine: EngineStats::default(),
            store: StoreStats::default(),
            interner: InternerStats {
                interned_nodes: 0,
                hits: 0,
                misses: 0,
                shards: 0,
            },
            interner_shards: Vec::new(),
            vets_unknown_pattern: 0,
            frame_decode: HistogramSnapshot::default(),
            request_service: HistogramSnapshot::default(),
            ingest_queue_wait: HistogramSnapshot::default(),
            uptime_seconds: 0,
            connections_accepted: 0,
            connections_closed: 0,
            open_connections: 0,
            policies: Vec::new(),
        }));
        let decoded = decode_response(encode_response(&empty), &limits).unwrap();
        assert_eq!(decoded, empty);
    }

    #[test]
    fn truncated_metrics_frames_are_typed_errors_not_panics() {
        let limits = WireLimits::default();
        let response = WireResponse::Metrics(Box::new(MetricsSnapshot {
            engine: EngineStats::default(),
            store: StoreStats::default(),
            interner: InternerStats {
                interned_nodes: 1,
                hits: 2,
                misses: 1,
                shards: 1,
            },
            interner_shards: vec![ShardStats {
                shard: 0,
                entries: 1,
                hits: 2,
                misses: 1,
            }],
            vets_unknown_pattern: 0,
            frame_decode: HistogramSnapshot::default(),
            request_service: HistogramSnapshot::default(),
            ingest_queue_wait: HistogramSnapshot::default(),
            uptime_seconds: 1,
            connections_accepted: 1,
            connections_closed: 0,
            open_connections: 1,
            policies: Vec::new(),
        }));
        let body = encode_response(&response).to_vec();
        for len in 0..body.len() {
            let err = decode_response(Bytes::from(body[..len].to_vec()), &limits);
            assert!(err.is_err(), "prefix of {} bytes decoded", len);
        }
    }

    #[test]
    fn over_cap_batches_are_rejected_before_decoding_records() {
        let limits = WireLimits {
            max_records: 2,
            ..WireLimits::default()
        };
        let request = WireRequest::IngestBatch(vec![record(1), record(2), record(3)]);
        let err = decode_request(encode_request(&request), &limits).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{:?}", err);
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn version_and_tag_errors_are_typed() {
        let limits = WireLimits::default();
        // One wire version: every other version byte, older or newer, is
        // refused on both sides of the wire.
        for version in [3u8, 4, 5, 7, 9] {
            let mut body = encode_request(&WireRequest::Flush).to_vec();
            body[0] = version;
            assert!(matches!(
                decode_request(Bytes::from(body), &limits),
                Err(WireError::UnsupportedVersion(v)) if v == version
            ));
            let mut body = encode_response(&WireResponse::Busy { queue_depth: 1 }).to_vec();
            body[0] = version;
            assert!(matches!(
                decode_response(Bytes::from(body), &limits),
                Err(WireError::UnsupportedVersion(v)) if v == version
            ));
        }
        let mut body = encode_request(&WireRequest::Flush).to_vec();
        body[1] = 99;
        assert!(matches!(
            decode_request(Bytes::from(body), &limits),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_response(Bytes::from(vec![WIRE_VERSION]), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let limits = WireLimits::default();
        let mut body = encode_request(&WireRequest::Stats).to_vec();
        body.push(0);
        assert!(matches!(
            decode_request(Bytes::from(body), &limits),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn traced_requests_round_trip_with_their_context() {
        let limits = WireLimits::default();
        let requests = vec![
            WireRequest::Audit(AuditRequest::VetValue {
                value: Value::Channel(Channel::new("v")),
                pattern: "from-a".into(),
            }),
            WireRequest::IngestBatch(vec![record(1)]),
            WireRequest::Flush,
            WireRequest::Stats,
            WireRequest::Metrics,
            WireRequest::Traces { min_total_ns: 0 },
        ];
        for sampled in [true, false] {
            let trace = RequestTrace {
                context: TraceContext {
                    trace_id: 0xdead_beef_cafe_0042_u128 << 32 | 7,
                    sampled,
                },
                client_encode_ns: 1_234,
            };
            for request in &requests {
                let body = encode_request_traced(request, Some(&trace));
                let (decoded, decoded_trace) = decode_request_traced(body, &limits).unwrap();
                assert_eq!(&decoded, request);
                assert_eq!(decoded_trace, Some(trace));
            }
        }
        // Untraced bodies decode with no context at all.
        let (_, none) =
            decode_request_traced(encode_request(&WireRequest::Stats), &limits).unwrap();
        assert_eq!(none, None);
    }

    #[test]
    fn the_traces_request_and_response_round_trip() {
        let limits = WireLimits::default();
        let request = WireRequest::Traces {
            min_total_ns: 5_000,
        };
        assert_eq!(
            decode_request(encode_request(&request), &limits).unwrap(),
            request
        );
        let response = WireResponse::Traces(vec![
            TraceRecord {
                trace_id: u128::MAX,
                kind: RequestKind::Vet,
                total_ns: 98_765,
                spans: vec![
                    Span::new(SpanKind::ClientEncode, 120),
                    Span::new(SpanKind::Decode, 340),
                    Span {
                        kind: SpanKind::Handle,
                        duration_ns: 56_000,
                        index_hits: 12,
                        memo_hits: 3,
                    },
                    Span::new(SpanKind::Write, 89),
                ],
            },
            TraceRecord {
                trace_id: 1,
                kind: RequestKind::Ingest,
                total_ns: 0,
                spans: vec![Span::new(SpanKind::QueueWait, 77)],
            },
        ]);
        let decoded = decode_response(encode_response(&response), &limits).unwrap();
        assert_eq!(decoded, response);
        let empty = WireResponse::Traces(Vec::new());
        let decoded = decode_response(encode_response(&empty), &limits).unwrap();
        assert_eq!(decoded, empty);
    }

    #[test]
    fn bad_trace_bytes_are_typed_errors_not_panics() {
        let limits = WireLimits::default();
        // A sampled flag that is neither 0 nor 1.
        let trace = RequestTrace {
            context: TraceContext {
                trace_id: 9,
                sampled: true,
            },
            client_encode_ns: 5,
        };
        let body = encode_request_traced(&WireRequest::Stats, Some(&trace)).to_vec();
        let flag_at = body.len() - 9; // u64 encode-ns follows the flag
        let mut bad = body.clone();
        bad[flag_at] = 7;
        assert!(matches!(
            decode_request_traced(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
        // Every truncation inside the trace field is an error; the cut
        // exactly at the untraced payload boundary decodes as untraced.
        let base_len = encode_request(&WireRequest::Stats).len();
        for len in (base_len + 1)..body.len() {
            assert!(
                decode_request_traced(Bytes::from(body[..len].to_vec()), &limits).is_err(),
                "prefix of {} bytes decoded",
                len
            );
        }
        // A traces response with an unknown record or span kind.
        let response = WireResponse::Traces(vec![TraceRecord {
            trace_id: 2,
            kind: RequestKind::Vet,
            total_ns: 10,
            spans: vec![Span::new(SpanKind::Decode, 4)],
        }]);
        let encoded = encode_response(&response).to_vec();
        // version u8 | tag u8 | count u32 | id hi+lo u64s | kind ...
        let record_kind_at = 2 + 4 + 16;
        let mut bad = encoded.clone();
        bad[record_kind_at] = 99;
        assert!(matches!(
            decode_response(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
        let span_kind_at = record_kind_at + 1 + 8 + 1;
        let mut bad = encoded.clone();
        bad[span_kind_at] = 99;
        assert!(matches!(
            decode_response(Bytes::from(bad), &limits),
            Err(WireError::Malformed(_))
        ));
        // And truncations never panic.
        for len in 0..encoded.len() {
            assert!(decode_response(Bytes::from(encoded[..len].to_vec()), &limits).is_err());
        }
    }

    #[test]
    fn policy_plane_responses_round_trip() {
        let limits = WireLimits::default();
        let responses = vec![
            WireResponse::PackLoaded {
                version: 7,
                installed: 12,
                reused: 9,
            },
            WireResponse::PackRejected {
                diagnostics: vec![
                    PackDiagnostic::new("build.ppol", 3, 14, "expected `=` after the policy name"),
                    PackDiagnostic::new(
                        "ship.ppol",
                        1,
                        5,
                        "unknown policy `@vendor_onyl` (did you mean `vendor_only`?)",
                    ),
                ],
            },
            WireResponse::PackRejected {
                diagnostics: Vec::new(),
            },
            WireResponse::Policies(PolicyListing {
                version: 7,
                policies: vec![
                    PolicyInfo {
                        name: "supply_chain::build::vendor_only".into(),
                        package: "supply_chain::build".into(),
                        source: "v!Any; Any".into(),
                    },
                    PolicyInfo {
                        name: "supply_chain::ship::gate".into(),
                        package: "supply_chain::ship".into(),
                        source: "(v!Any; Any) | eps".into(),
                    },
                ],
            }),
            WireResponse::Policies(PolicyListing::default()),
        ];
        for response in responses {
            let decoded = decode_response(encode_response(&response), &limits).unwrap();
            assert_eq!(decoded, response);
            // And every truncation is a typed error, never a panic.
            let body = encode_response(&response).to_vec();
            for len in 0..body.len() {
                assert!(
                    decode_response(Bytes::from(body[..len].to_vec()), &limits).is_err(),
                    "prefix of {} bytes decoded",
                    len
                );
            }
        }
    }

    #[test]
    fn audit_responses_carry_pack_version_and_unknown_pattern_payload() {
        let limits = WireLimits::default();
        let response = WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::UnknownPattern {
                known: vec!["a".into(), "b".into()],
                nearest: Some("b".into()),
            },
            stats: RequestStats::default(),
            watermark: 41,
            pack_version: 6,
        });
        let decoded = decode_response(encode_response(&response), &limits).unwrap();
        assert_eq!(decoded, response);
        let no_hint = WireResponse::Audit(AuditResponse {
            outcome: AuditOutcome::UnknownPattern {
                known: Vec::new(),
                nearest: None,
            },
            stats: RequestStats::default(),
            watermark: 41,
            pack_version: 6,
        });
        let decoded = decode_response(encode_response(&no_hint), &limits).unwrap();
        assert_eq!(decoded, no_hint);
    }

    /// The codec properties every wire type owes: `get` reads back exactly
    /// what `put` wrote, consuming every byte, and a body with any one byte
    /// corrupted decodes to an error or to some value, never a panic or an
    /// over-read.
    fn check_wire<T: Wire + PartialEq + std::fmt::Debug>(value: &T, flip: usize) {
        let limits = WireLimits::default();
        let mut buf = BytesMut::new();
        value.put(&mut buf);
        let body = buf.freeze();
        let mut r = Reader {
            buf: body.clone(),
            limits: &limits,
        };
        assert_eq!(&T::get(&mut r).unwrap(), value);
        assert!(!r.buf.has_remaining(), "decode left bytes unread");
        let mut corrupt = body.to_vec();
        if !corrupt.is_empty() {
            let at = flip % corrupt.len();
            corrupt[at] ^= 0x41;
            let _ = T::get(&mut Reader {
                buf: Bytes::from(corrupt),
                limits: &limits,
            });
        }
    }

    proptest! {
        // 64 cases by default; PIPROV_PROPTEST_CASES raises it in CI.
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn wire_requests_have_the_codec_properties(
            value in arb_wire_request(),
            flip in 0usize..4096,
        ) {
            check_wire(&value, flip);
        }

        #[test]
        fn wire_responses_have_the_codec_properties(
            value in arb_wire_response(),
            flip in 0usize..4096,
        ) {
            check_wire(&value, flip);
        }

        #[test]
        fn metrics_snapshots_have_the_codec_properties(
            value in arb_metrics_snapshot(),
            flip in 0usize..4096,
        ) {
            check_wire(&value, flip);
        }

        #[test]
        fn trace_records_have_the_codec_properties(
            value in arb_trace_record(),
            flip in 0usize..4096,
        ) {
            check_wire(&value, flip);
        }

        #[test]
        fn why_slices_have_the_codec_properties(value in arb_why_slice(), flip in 0usize..4096) {
            check_wire(&value, flip);
        }

        #[test]
        fn audit_outcomes_have_the_codec_properties(
            value in arb_outcome(),
            flip in 0usize..4096,
        ) {
            check_wire(&value, flip);
        }

        #[test]
        fn request_traces_have_the_codec_properties(
            value in arb_request_trace(),
            flip in 0usize..4096,
        ) {
            check_wire(&value, flip);
        }
    }
}
