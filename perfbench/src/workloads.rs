//! The three workloads: their inputs, set-up (spawn, preload, warm) and
//! timed phases, with every answer checked against an oracle.

use crate::gen::{self, Expected, Rng, Scale};
use crate::server::ServerProcess;
use crate::stats::{median, Summary};
use piprov_audit::{AuditOutcome, AuditRequest, AuditResponse};
use piprov_serve::{AuditClient, ClientConfig, FlushAck, IngestOutcome, PackLoadOutcome};
use piprov_store::ProvenanceRecord;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VetHot,
    IngestDeep,
    CausalMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::VetHot, Workload::IngestDeep, Workload::CausalMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VetHot => "vet_hot",
            Workload::IngestDeep => "ingest_deep",
            Workload::CausalMix => "causal_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Load shape, as recorded with every result.
    pub fn shape(self) -> &'static str {
        match self {
            Workload::VetHot => "closed loop, 2 auditor connections",
            Workload::IngestDeep => "closed loop, 1 writer connection, Flush every 16 records",
            Workload::CausalMix => {
                "closed-loop investigator (1 connection) + open-loop writer (1 connection)"
            }
        }
    }
}

/// Records per `causal_mix` writer batch, and batches per second.
pub const WRITER_BATCH: usize = 32;
pub const WRITER_BATCHES_PER_S: u64 = 50;
/// `ingest_deep` flushes after every this many single-record batches.
pub const FLUSH_GROUP: usize = 16;

/// Everything a workload sends, generated from the seed before any
/// server exists.
#[derive(Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub preload: Vec<ProvenanceRecord>,
    pub policy: &'static str,
    /// Per deep value (`causal_mix` only): the from-scratch answer.
    pub expected: Vec<Expected>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let (preload, policy) = match workload {
            Workload::VetHot => (gen::vet_history(seed, scale), gen::ORIGIN_POLICY),
            Workload::IngestDeep => (gen::hot_history(seed, scale), gen::ORIGIN_POLICY),
            Workload::CausalMix => (gen::deep_history(seed, scale), gen::CAUSAL_POLICY),
        };
        let expected = match workload {
            Workload::CausalMix => preload
                .iter()
                .map(|r| gen::expected_answers(&r.provenance, &gen::drop_filter()))
                .collect(),
            _ => Vec::new(),
        };
        Inputs {
            workload,
            seed,
            preload,
            policy,
            expected,
        }
    }

    /// Records per preload batch: deep spines ship in small batches.
    pub fn preload_batch(&self) -> usize {
        match self.workload {
            Workload::CausalMix => 16,
            _ => 512,
        }
    }

    pub fn vet(&self, index: usize) -> AuditRequest {
        AuditRequest::VetValue {
            value: self.preload[index].value.clone(),
            pattern: self.policy.into(),
        }
    }

    pub fn why(&self, index: usize) -> AuditRequest {
        AuditRequest::Why {
            value: self.preload[index].value.clone(),
            pattern: self.policy.into(),
        }
    }

    pub fn counterfactual(&self, index: usize) -> AuditRequest {
        AuditRequest::Counterfactual {
            value: self.preload[index].value.clone(),
            pattern: self.policy.into(),
            remove: gen::drop_filter(),
        }
    }

    /// The `i`-th record the timed phase writes.
    pub fn write_record(&self, i: usize) -> ProvenanceRecord {
        match self.workload {
            Workload::CausalMix => gen::write_record(self.seed, 2, "writer", i),
            _ => gen::write_record(self.seed, 1, "hot", i),
        }
    }

    /// The sequence number the server assigns the `index`-th preloaded
    /// record: the store numbers from 1 in arrival order.
    pub fn sequence_of(index: usize) -> u64 {
        index as u64 + 1
    }
}

/// Operations attempted and failed (errors, refusals and wrong answers),
/// plus the first few failure descriptions for the report.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }

    /// An answer that contradicts the oracle.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.note(what);
    }

    /// An error or a refusal.
    pub fn refused(&mut self, what: String) {
        self.note(what);
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for note in &other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note.clone());
            }
        }
    }
}

/// Per-connection watermark check: watermarks never decrease.
#[derive(Debug, Default)]
struct Watermark(u64);

impl Watermark {
    fn check(&mut self, tally: &mut Tally, response: &AuditResponse) -> bool {
        if response.watermark < self.0 {
            tally.wrong(format!(
                "watermark went back from {} to {}",
                self.0, response.watermark
            ));
            return false;
        }
        self.0 = response.watermark;
        true
    }
}

pub fn client_config(traced: bool) -> ClientConfig {
    ClientConfig {
        trace: traced,
        ..ClientConfig::default()
    }
}

pub fn connect(server: &ServerProcess, traced: bool) -> Result<AuditClient, String> {
    AuditClient::connect_with(server.addr, client_config(traced))
        .map_err(|e| format!("connecting: {e}"))
}

/// Spawns a server, loads the policy pack, preloads the history over the
/// wire, and warms the memo the timed phase relies on.  Returns the
/// server, the set-up time (measured up to the first timed operation) and
/// the tally of the warm-up's answers.
pub fn setup(
    inputs: &Inputs,
    traced: bool,
    instance: usize,
) -> Result<(ServerProcess, Duration, Tally), String> {
    let started = Instant::now();
    let server = ServerProcess::spawn(traced, instance)?;
    let mut client = connect(&server, false)?;
    match client.load_pack(&gen::policy_pack()) {
        Ok(PackLoadOutcome::Loaded { .. }) => {}
        Ok(PackLoadOutcome::Rejected { diagnostics }) => {
            return Err(format!("policy pack rejected: {diagnostics:?}"))
        }
        Err(e) => return Err(format!("loading the policy pack: {e}")),
    }
    for batch in inputs.preload.chunks(inputs.preload_batch()) {
        client
            .ingest_blocking(batch.to_vec())
            .map_err(|e| format!("preload: {e}"))?;
    }
    let ack = client.flush().map_err(|e| format!("preload flush: {e}"))?;
    let n = inputs.preload.len() as u64;
    if ack.ingested != n || ack.watermark != n {
        return Err(format!(
            "preload flush acknowledged {ack:?}, expected {n} records"
        ));
    }
    let warmed = warm(inputs, &mut client)?;
    Ok((server, started.elapsed(), warmed))
}

/// Memo warm-up: `vet_hot` vets every value once, `causal_mix` asks every
/// counterfactual once; `ingest_deep` writes from a cold start.  The
/// answers are checked like any other.
fn warm(inputs: &Inputs, client: &mut AuditClient) -> Result<Tally, String> {
    let requests: Vec<AuditRequest> = match inputs.workload {
        Workload::VetHot => (0..inputs.preload.len()).map(|i| inputs.vet(i)).collect(),
        Workload::CausalMix => (0..inputs.preload.len())
            .map(|i| inputs.counterfactual(i))
            .collect(),
        Workload::IngestDeep => Vec::new(),
    };
    let mut tally = Tally::default();
    for (chunk_index, chunk) in requests.chunks(256).enumerate() {
        let responses = client
            .pipeline(chunk)
            .map_err(|e| format!("warm-up: {e}"))?;
        for (offset, response) in responses.iter().enumerate() {
            let index = chunk_index * 256 + offset;
            tally.attempted += 1;
            match inputs.workload {
                Workload::VetHot => check_vet(inputs, index, response, &mut tally),
                _ => check_counterfactual(inputs, index, response, &mut tally),
            };
        }
    }
    Ok(tally)
}

fn check_vet(inputs: &Inputs, index: usize, response: &AuditResponse, tally: &mut Tally) -> bool {
    match &response.outcome {
        AuditOutcome::Vetted {
            verdict: true,
            sequence,
        } if *sequence == Inputs::sequence_of(index) => true,
        other => {
            tally.wrong(format!(
                "vet of {} answered {other:?}",
                inputs.preload[index].value
            ));
            false
        }
    }
}

/// A why must pass, on the expected record, with exactly the witness
/// trail a from-scratch walk finds.
fn check_why(inputs: &Inputs, index: usize, response: &AuditResponse, tally: &mut Tally) -> bool {
    let expected = &inputs.expected[index].why;
    let ok = match &response.outcome {
        AuditOutcome::Why(slice) => {
            slice.verdict
                && slice.sequence == Inputs::sequence_of(index)
                && !slice.events.is_empty()
                && slice.events.len() == expected.len()
                && slice
                    .events
                    .iter()
                    .zip(expected)
                    .all(|(got, want)| got.event == *want)
        }
        _ => false,
    };
    if !ok {
        tally.wrong(format!(
            "why of {} answered {}, a from-scratch witness walk finds {} events",
            inputs.preload[index].value,
            summarize(&response.outcome),
            expected.len()
        ));
    }
    ok
}

fn check_counterfactual(
    inputs: &Inputs,
    index: usize,
    response: &AuditResponse,
    tally: &mut Tally,
) -> bool {
    let expected = &inputs.expected[index];
    let ok = match &response.outcome {
        AuditOutcome::Counterfactual(verdict) => {
            verdict.original == expected.original
                && verdict.counterfactual == expected.counterfactual
                && verdict.sequence == Inputs::sequence_of(index)
                && verdict.removed.len() == expected.removed.len()
                && verdict
                    .removed
                    .iter()
                    .zip(&expected.removed)
                    .all(|(got, want)| got.event == *want)
        }
        _ => false,
    };
    if !ok {
        tally.wrong(format!(
            "counterfactual of {} answered {}, from-scratch re-vet says {}/{} with {} removed",
            inputs.preload[index].value,
            summarize(&response.outcome),
            expected.original,
            expected.counterfactual,
            expected.removed.len()
        ));
    }
    ok
}

fn summarize(outcome: &AuditOutcome) -> String {
    match outcome {
        AuditOutcome::Why(slice) => format!(
            "why(verdict={}, seq={}, {} events)",
            slice.verdict,
            slice.sequence,
            slice.events.len()
        ),
        AuditOutcome::Counterfactual(v) => format!(
            "counterfactual({}/{}, seq={}, {} removed)",
            v.original,
            v.counterfactual,
            v.sequence,
            v.removed.len()
        ),
        other => format!("{other:?}"),
    }
}

fn check_flush(ack: &Result<FlushAck, String>, expected: u64, tally: &mut Tally) -> bool {
    match ack {
        Ok(ack) if ack.ingested == expected && ack.watermark >= expected => true,
        Ok(ack) => {
            tally.wrong(format!(
                "flush acknowledged {ack:?}, expected {expected} ingested"
            ));
            false
        }
        Err(e) => {
            tally.refused(format!("flush: {e}"));
            false
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One timed phase's outcome.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency samples (µs) of the workload's primary operation: a vet, a
    /// durable 16-record group, or an investigation (why + counterfactual).
    pub primary: Vec<f64>,
    /// Primary operations per second (records per second for ingest).
    pub throughput: f64,
    pub why: Vec<f64>,
    pub counterfactual: Vec<f64>,
    /// `ingest_deep`: round trip (µs) of each single-record ingest.
    pub ingest_rtt: Vec<f64>,
    /// How late the load generator sent each request (µs): the
    /// `causal_mix` writer behind its schedule; a closed-loop connection
    /// after the previous answer arrived.
    pub lateness: Vec<f64>,
    /// `causal_mix` writer: ack latency counted from when each batch was
    /// due.
    pub writer_ack: Vec<f64>,
    /// Records acknowledged and visible per second, to the closing flush.
    pub ingest_rps: f64,
    pub tally: Tally,
}

impl Phase {
    /// Pools another phase's samples and counts into this one.
    fn absorb(&mut self, other: &Phase) {
        self.primary.extend_from_slice(&other.primary);
        self.why.extend_from_slice(&other.why);
        self.counterfactual.extend_from_slice(&other.counterfactual);
        self.ingest_rtt.extend_from_slice(&other.ingest_rtt);
        self.lateness.extend_from_slice(&other.lateness);
        self.writer_ack.extend_from_slice(&other.writer_ack);
        self.tally.absorb(&other.tally);
    }
}

/// A timed phase is cut into episodes of about this length, each on a
/// freshly set-up server, so every episode measures the same history size
/// (writes do not pile up across the run) and a burst of interference
/// from outside the benchmark moves one episode, not the result.
pub const EPISODE_SECONDS: f64 = 2.0;

/// One episode: a fresh server set up, timed, and shut down.
#[derive(Debug)]
pub struct Episode {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub phase: Phase,
}

/// Runs `seconds` of timed phase as episodes, each on its own server;
/// `inspect` sees each server after its timed phase, before shutdown.
pub fn episodes(
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
    mut inspect: impl FnMut(&ServerProcess) -> Result<(), String>,
) -> Result<Vec<Episode>, String> {
    let count = ((seconds / EPISODE_SECONDS).round() as usize).max(1);
    let length = seconds / count as f64;
    (0..count)
        .map(|episode| {
            let (server, setup, warmed) = setup(inputs, traced, episode)?;
            let mut phase = run(inputs, &server, length, traced, episode as u64);
            phase.tally.absorb(&warmed);
            inspect(&server)?;
            let peak_rss_mb = server.finish()? as f64 / 1024.0;
            Ok(Episode {
                setup_s: setup.as_secs_f64(),
                peak_rss_mb,
                phase,
            })
        })
        .collect()
}

/// Every episode's samples pooled into one phase.
pub fn pooled(episodes: &[Episode]) -> Phase {
    let mut pooled = Phase::default();
    for episode in episodes {
        pooled.absorb(&episode.phase);
    }
    pooled
}

/// The end-to-end figures the benchmark gates on: medians over episodes.
/// No tail percentile is gated: on a shared two-core machine the tails of
/// `ingest_deep` (fsync) and `causal_mix` (writer contention) spread by a
/// third between runs of the same code.  The pooled p99s are reported by
/// name instead.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub setup_s: f64,
    pub throughput: f64,
    pub p50: f64,
    pub peak_rss_mb: f64,
}

impl Gate {
    pub fn of(episodes: &[Episode]) -> Gate {
        let over =
            |f: &dyn Fn(&Episode) -> f64| median(&episodes.iter().map(f).collect::<Vec<_>>());
        Gate {
            setup_s: over(&|e| e.setup_s),
            throughput: over(&|e| e.phase.throughput),
            p50: over(&|e| Summary::of(&e.phase.primary).p50),
            peak_rss_mb: over(&|e| e.peak_rss_mb),
        }
    }
}

/// The named end-to-end metrics of a workload, from the gate figures
/// and the pooled samples: `(name, value, unit, sample count)`.
pub fn named(
    workload: Workload,
    episodes: &[Episode],
    gate: &Gate,
    pooled: &Phase,
) -> Vec<(String, f64, &'static str, usize)> {
    let n = episodes.len();
    let mut out = vec![("setup_s".to_string(), gate.setup_s, "s", n)];
    let mut timing = |prefix: &str, samples: &[f64]| {
        let s = Summary::of(samples);
        out.push((format!("{prefix}_p50_us"), s.p50, "us", s.count));
        out.push((format!("{prefix}_p99_us"), s.p99, "us", s.count));
    };
    match workload {
        Workload::VetHot => timing("vet", &pooled.primary),
        Workload::IngestDeep => timing("durable", &pooled.primary),
        Workload::CausalMix => {
            timing("why", &pooled.why);
            timing("counterfactual", &pooled.counterfactual);
            timing("investigation", &pooled.primary);
            // Open loop: each writer batch is timed from when it was due.
            timing("writer_ack", &pooled.writer_ack);
        }
    }
    let ingest_rps = median(
        &episodes
            .iter()
            .map(|e| e.phase.ingest_rps)
            .collect::<Vec<_>>(),
    );
    match workload {
        Workload::VetHot => out.push(("vet_rps".into(), gate.throughput, "1/s", n)),
        Workload::IngestDeep => out.push(("ingest_rps".into(), ingest_rps, "1/s", n)),
        Workload::CausalMix => {
            out.push(("investigation_rps".into(), gate.throughput, "1/s", n));
            out.push(("ingest_rps".into(), ingest_rps, "1/s", n));
        }
    }
    let tally = &pooled.tally;
    out.push((
        "failed_ratio".into(),
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.attempted as usize,
    ));
    out.push(("peak_rss_mb".into(), gate.peak_rss_mb, "MB", n));
    out
}

/// Runs the workload's timed phase against `server` for `seconds`;
/// `episode` varies the request streams between episodes.
pub fn run(
    inputs: &Inputs,
    server: &ServerProcess,
    seconds: f64,
    traced: bool,
    episode: u64,
) -> Phase {
    let duration = Duration::from_secs_f64(seconds);
    let stream = 100 + 10 * episode;
    match inputs.workload {
        Workload::VetHot => vet_hot(inputs, server, duration, traced, stream),
        Workload::IngestDeep => ingest_deep(inputs, server, duration, traced),
        Workload::CausalMix => causal_mix(inputs, server, duration, traced, stream),
    }
}

/// One closed-loop auditor: uniformly chosen memo-warm vets until the
/// deadline.
fn auditor(
    inputs: &Inputs,
    server: &ServerProcess,
    deadline: Instant,
    stream: u64,
    traced: bool,
) -> Phase {
    let mut phase = Phase::default();
    let tally = &mut phase.tally;
    let mut client = match connect(server, traced) {
        Ok(client) => client,
        Err(e) => {
            tally.attempted += 1;
            tally.refused(e);
            return phase;
        }
    };
    let mut rng = Rng::new(inputs.seed, stream);
    let mut watermark = Watermark::default();
    let mut answered = None;
    while Instant::now() < deadline {
        let index = rng.below(inputs.preload.len());
        let request = inputs.vet(index);
        tally.attempted += 1;
        let started = Instant::now();
        if let Some(answered) = answered {
            phase.lateness.push(us(started - answered));
        }
        match client.request(&request) {
            Ok(response) => {
                let done = Instant::now();
                answered = Some(done);
                if check_vet(inputs, index, &response, tally) && watermark.check(tally, &response) {
                    phase.primary.push(us(done - started));
                }
            }
            Err(e) => {
                tally.refused(format!("vet: {e}"));
                break;
            }
        }
    }
    phase
}

fn vet_hot(
    inputs: &Inputs,
    server: &ServerProcess,
    duration: Duration,
    traced: bool,
    stream: u64,
) -> Phase {
    let started = Instant::now();
    let deadline = started + duration;
    let (mut phase, other) = std::thread::scope(|scope| {
        let other = scope.spawn(|| auditor(inputs, server, deadline, stream + 1, traced));
        let mine = auditor(inputs, server, deadline, stream, traced);
        (mine, other.join().expect("auditor thread panicked"))
    });
    phase.absorb(&other);
    phase.throughput = phase.primary.len() as f64 / started.elapsed().as_secs_f64();
    phase
}

fn ingest_deep(inputs: &Inputs, server: &ServerProcess, duration: Duration, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let mut client = match connect(server, traced) {
        Ok(client) => client,
        Err(e) => {
            phase.tally.attempted += 1;
            phase.tally.refused(e);
            return phase;
        }
    };
    let preload = inputs.preload.len() as u64;
    let mut sent = 0usize;
    let started = Instant::now();
    let deadline = started + duration;
    let mut last_ack = started;
    let mut answered = None;
    'groups: while Instant::now() < deadline {
        let group_started = Instant::now();
        for _ in 0..FLUSH_GROUP {
            phase.tally.attempted += 1;
            let record = inputs.write_record(sent);
            let sent_at = Instant::now();
            if let Some(answered) = answered {
                phase.lateness.push(us(sent_at - answered));
            }
            if let Err(e) = client.ingest_blocking(vec![record]) {
                phase.tally.refused(format!("ingest: {e}"));
                break 'groups;
            }
            let acked = Instant::now();
            answered = Some(acked);
            phase.ingest_rtt.push(us(acked - sent_at));
            sent += 1;
        }
        phase.tally.attempted += 1;
        let ack = client.flush().map_err(|e| e.to_string());
        let acked = Instant::now();
        answered = Some(acked);
        if !check_flush(&ack, preload + sent as u64, &mut phase.tally) {
            break;
        }
        last_ack = acked;
        phase.primary.push(us(acked - group_started));
    }
    let elapsed = (last_ack - started).as_secs_f64().max(1e-9);
    phase.ingest_rps = (phase.primary.len() * FLUSH_GROUP) as f64 / elapsed;
    phase.throughput = phase.ingest_rps;
    phase
}

/// The `causal_mix` investigator: alternates why and counterfactual on
/// uniformly chosen deep values.
fn investigator(
    inputs: &Inputs,
    server: &ServerProcess,
    deadline: Instant,
    traced: bool,
    stream: u64,
) -> Phase {
    let mut phase = Phase::default();
    let tally = &mut phase.tally;
    let mut client = match connect(server, traced) {
        Ok(client) => client,
        Err(e) => {
            tally.attempted += 1;
            tally.refused(e);
            return phase;
        }
    };
    let mut rng = Rng::new(inputs.seed, stream);
    let mut watermark = Watermark::default();
    let phase_started = Instant::now();
    while Instant::now() < deadline {
        let index = rng.below(inputs.preload.len());
        tally.attempted += 2;
        let started = Instant::now();
        let why = client.request(&inputs.why(index));
        let between = Instant::now();
        let counterfactual = client.request(&inputs.counterfactual(index));
        let done = Instant::now();
        let (why, counterfactual) = match (why, counterfactual) {
            (Ok(why), Ok(counterfactual)) => (why, counterfactual),
            (why, counterfactual) => {
                for e in [why.err(), counterfactual.err()].into_iter().flatten() {
                    tally.refused(format!("causal query: {e}"));
                }
                break;
            }
        };
        let why_ok = check_why(inputs, index, &why, tally) && watermark.check(tally, &why);
        let cf_ok = check_counterfactual(inputs, index, &counterfactual, tally)
            && watermark.check(tally, &counterfactual);
        if why_ok {
            phase.why.push(us(between - started));
        }
        if cf_ok {
            phase.counterfactual.push(us(done - between));
        }
        if why_ok && cf_ok {
            phase.primary.push(us(done - started));
        }
    }
    phase.throughput = phase.primary.len() as f64 / phase_started.elapsed().as_secs_f64();
    phase
}

/// The `causal_mix` writer: 32-record batches on a fixed schedule, no
/// retry on `Busy`, then one closing flush.
fn writer(inputs: &Inputs, server: &ServerProcess, deadline: Instant, traced: bool) -> Phase {
    let mut phase = Phase::default();
    let mut client = match connect(server, traced) {
        Ok(client) => client,
        Err(e) => {
            phase.tally.attempted += 1;
            phase.tally.refused(e);
            return phase;
        }
    };
    let period = Duration::from_nanos(1_000_000_000 / WRITER_BATCHES_PER_S);
    let started = Instant::now();
    let mut accepted = 0u64;
    let mut next_record = 0usize;
    for k in 0u32.. {
        let due = started + period * k;
        if due >= deadline {
            break;
        }
        let batch: Vec<ProvenanceRecord> = (next_record..next_record + WRITER_BATCH)
            .map(|i| inputs.write_record(i))
            .collect();
        next_record += WRITER_BATCH;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        phase
            .lateness
            .push(us(Instant::now().saturating_duration_since(due)));
        phase.tally.attempted += 1;
        match client.ingest_batch(batch) {
            Ok(IngestOutcome::Acked { accepted: n, .. }) => {
                accepted += u64::from(n);
                phase.writer_ack.push(us(due.elapsed()));
            }
            Ok(IngestOutcome::Busy { queue_depth }) => {
                phase.tally.refused(format!(
                    "writer batch refused: Busy (queue depth {queue_depth})"
                ));
            }
            Err(e) => {
                phase.tally.refused(format!("writer batch: {e}"));
                break;
            }
        }
    }
    phase.tally.attempted += 1;
    let ack = client.flush().map_err(|e| e.to_string());
    let elapsed = started.elapsed().as_secs_f64();
    check_flush(
        &ack,
        inputs.preload.len() as u64 + accepted,
        &mut phase.tally,
    );
    phase.ingest_rps = accepted as f64 / elapsed;
    phase
}

fn causal_mix(
    inputs: &Inputs,
    server: &ServerProcess,
    duration: Duration,
    traced: bool,
    stream: u64,
) -> Phase {
    let deadline = Instant::now() + duration;
    let (mut phase, written) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| writer(inputs, server, deadline, traced));
        let investigated = investigator(inputs, server, deadline, traced, stream);
        (investigated, writer.join().expect("writer thread panicked"))
    });
    phase.ingest_rps = written.ingest_rps;
    phase.absorb(&written);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_audit::{CounterfactualVerdict, RequestStats, WhyEvent, WhySlice};

    fn response(outcome: AuditOutcome, watermark: u64) -> AuditResponse {
        AuditResponse {
            outcome,
            stats: RequestStats::default(),
            watermark,
            pack_version: 1,
        }
    }

    fn removed(events: &[piprov_core::provenance::Event]) -> Vec<WhyEvent> {
        events
            .iter()
            .map(|event| WhyEvent {
                node: 0,
                event: event.clone(),
            })
            .collect()
    }

    #[test]
    fn the_oracle_counts_every_wrong_answer() {
        let inputs = Inputs::generate(Workload::CausalMix, 3, Scale::TINY);
        let expected = &inputs.expected[2];
        let verdict = |original, counterfactual, sequence, events: Vec<WhyEvent>| {
            response(
                AuditOutcome::Counterfactual(CounterfactualVerdict {
                    original,
                    counterfactual,
                    sequence,
                    removed: events,
                }),
                9,
            )
        };
        let right = verdict(true, true, 3, removed(&expected.removed));
        let mut tally = Tally::default();
        assert!(check_counterfactual(&inputs, 2, &right, &mut tally));
        let wrong = [
            verdict(true, false, 3, removed(&expected.removed)),
            verdict(true, true, 4, removed(&expected.removed)),
            verdict(true, true, 3, removed(&expected.removed[1..])),
            response(AuditOutcome::UnknownValue, 9),
        ];
        for answer in &wrong {
            assert!(!check_counterfactual(&inputs, 2, answer, &mut tally));
        }
        let why = |verdict, events: Vec<WhyEvent>| {
            response(
                AuditOutcome::Why(WhySlice {
                    verdict,
                    sequence: 3,
                    events,
                    blocked: None,
                }),
                9,
            )
        };
        let head = inputs.preload[2].provenance.to_vec();
        assert!(check_why(
            &inputs,
            2,
            &why(true, removed(&head)),
            &mut tally
        ));
        assert!(!check_why(
            &inputs,
            2,
            &why(false, removed(&head)),
            &mut tally
        ));
        assert!(!check_why(&inputs, 2, &why(true, Vec::new()), &mut tally));
        let mut watermark = Watermark::default();
        assert!(watermark.check(&mut tally, &right));
        assert!(!watermark.check(&mut tally, &response(AuditOutcome::UnknownValue, 8)));
        let ack = Ok(FlushAck {
            ingested: 17,
            watermark: 17,
        });
        assert!(check_flush(&ack, 17, &mut tally));
        assert!(!check_flush(&ack, 18, &mut tally));
        assert_eq!((tally.wrong, tally.failed), (8, 8));
    }

    #[test]
    fn vets_must_pass_on_the_expected_record() {
        let inputs = Inputs::generate(Workload::VetHot, 3, Scale::TINY);
        let vetted = |verdict, sequence| response(AuditOutcome::Vetted { verdict, sequence }, 1);
        let mut tally = Tally::default();
        assert!(check_vet(&inputs, 4, &vetted(true, 5), &mut tally));
        assert!(!check_vet(&inputs, 4, &vetted(false, 5), &mut tally));
        assert!(!check_vet(&inputs, 4, &vetted(true, 6), &mut tally));
        assert_eq!((tally.wrong, tally.failed), (2, 2));
    }
}
