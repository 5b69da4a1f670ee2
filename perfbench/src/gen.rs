//! Seeded input generation: every history, request stream and write
//! stream a workload sends is a pure function of `(workload, seed, scale)`.

use piprov_audit::EventFilter;
use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_patterns::{parse_pattern, CompiledPattern, WitnessTrail};
use piprov_policy::{PackFile, PackSource};
use piprov_store::{Operation, ProvenanceRecord};

/// The policy pack every server loads over the wire before the preload.
pub const PACK_ROOT: &str = "perfbench";
const PACK_FILE: &str = "policies.ppol";
/// Vetted by `vet_hot` and `ingest_deep`: the oldest event is an output by
/// one of the four sources.
pub const ORIGIN_SOURCE: &str = "Any; (src0 + src1 + src2 + src3)!Any";
/// Asked by `causal_mix`: the newest event is an output by `s0`.
pub const CAUSAL_SOURCE: &str = "s0!Any; Any";
pub const ORIGIN_POLICY: &str = "perfbench::policies::origin";
pub const CAUSAL_POLICY: &str = "perfbench::policies::causal";
/// The principal every `causal_mix` counterfactual removes.
pub const DROPPED: &str = "drop";

pub fn policy_pack() -> PackSource {
    let text = format!(
        "package perfbench::policies\n\npolicy origin = {}\npolicy causal = {}\n",
        ORIGIN_SOURCE, CAUSAL_SOURCE
    );
    PackSource::new(PACK_ROOT, vec![PackFile::new(PACK_FILE, text)])
}

pub fn drop_filter() -> EventFilter {
    EventFilter::Principal(Principal::new(DROPPED))
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Input sizes; `tiny` keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Records preloaded into `vet_hot` and `ingest_deep`.
    pub history: usize,
    /// Deep values preloaded into `causal_mix`.
    pub deep_values: usize,
    /// Events per `causal_mix` spine.
    pub spine: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        history: 16_384,
        deep_values: 256,
        spine: 1024,
    };
    pub const TINY: Scale = Scale {
        history: 256,
        deep_values: 16,
        spine: 64,
    };
}

/// A value name that carries the seed, so two seeds never share inputs.
fn value(prefix: &str, seed: u64, i: usize) -> Value {
    Value::Channel(Channel::new(format!("{}{}-{}", prefix, seed, i)))
}

/// A short history (1–6 events, newest first) whose oldest event is an
/// output by a source, so it passes the origin policy.
fn short_history(rng: &mut Rng) -> Provenance {
    let hops = rng.below(6);
    let mut events = Vec::with_capacity(hops + 1);
    for _ in 0..hops {
        let principal = Principal::new(format!("p{}", rng.below(16)));
        events.push(if rng.below(2) == 0 {
            Event::input(principal, Provenance::empty())
        } else {
            Event::output(principal, Provenance::empty())
        });
    }
    events.push(Event::output(
        Principal::new(format!("src{}", rng.below(4))),
        Provenance::empty(),
    ));
    Provenance::from_events(events)
}

fn record(
    principal: &str,
    rng: &mut Rng,
    value: Value,
    provenance: Provenance,
) -> ProvenanceRecord {
    ProvenanceRecord::new(
        0,
        principal,
        Operation::Send,
        format!("c{}", rng.below(64)).as_str(),
        value,
        provenance,
    )
}

/// `vet_hot`'s history: distinct values, short histories, many principals.
pub fn vet_history(seed: u64, scale: Scale) -> Vec<ProvenanceRecord> {
    let mut rng = Rng::new(seed, 1);
    (0..scale.history)
        .map(|i| {
            let provenance = short_history(&mut rng);
            let principal = format!("p{}", rng.below(16));
            record(&principal, &mut rng, value("v", seed, i), provenance)
        })
        .collect()
}

/// `ingest_deep`'s preload: distinct values, every record by one hot
/// principal, so that principal's posting list grows with the history.
pub fn hot_history(seed: u64, scale: Scale) -> Vec<ProvenanceRecord> {
    let mut rng = Rng::new(seed, 2);
    (0..scale.history)
        .map(|i| {
            let provenance = short_history(&mut rng);
            record("hot", &mut rng, value("d", seed, i), provenance)
        })
        .collect()
}

/// The `i`-th record a writer sends during the timed phase: a fresh value,
/// by `principal`.
pub fn write_record(seed: u64, stream: u64, principal: &str, i: usize) -> ProvenanceRecord {
    let mut rng = Rng::new(
        seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        stream,
    );
    let provenance = short_history(&mut rng);
    let prefix = format!("w{}-", stream);
    record(principal, &mut rng, value(&prefix, seed, i), provenance)
}

/// `causal_mix`'s preload: each value's newest record carries a deep
/// spine headed by an `s0` output, with one to four `drop` events
/// scattered below the head and relay hops everywhere else.
pub fn deep_history(seed: u64, scale: Scale) -> Vec<ProvenanceRecord> {
    let mut rng = Rng::new(seed, 3);
    (0..scale.deep_values)
        .map(|i| {
            let mut events: Vec<Event> = (0..scale.spine - 1)
                .map(|_| {
                    let principal = Principal::new(format!("r{}", rng.below(8)));
                    if rng.below(2) == 0 {
                        Event::input(principal, Provenance::empty())
                    } else {
                        Event::output(principal, Provenance::empty())
                    }
                })
                .collect();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(events.len());
                events[at] = Event::input(Principal::new(DROPPED), Provenance::empty());
            }
            events.insert(0, Event::output(Principal::new("s0"), Provenance::empty()));
            record(
                "relay",
                &mut rng,
                value("k", seed, i),
                Provenance::from_events(events),
            )
        })
        .collect()
}

/// What a from-scratch engine answers for a deep value: the policy
/// compiled afresh; the witness trail of a why; for a counterfactual, the
/// verdicts on the history and on the literally filtered history, plus
/// the removed events in spine order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub why: Vec<Event>,
    pub original: bool,
    pub counterfactual: bool,
    pub removed: Vec<Event>,
}

pub fn expected_answers(provenance: &Provenance, filter: &EventFilter) -> Expected {
    let pattern = parse_pattern(CAUSAL_SOURCE).expect("causal policy parses");
    let why = match CompiledPattern::compile(&pattern).witness(provenance, &mut Default::default())
    {
        WitnessTrail::Accepted { steps } => steps.into_iter().map(|step| step.event).collect(),
        _ => Vec::new(),
    };
    let events = provenance.to_vec();
    let (removed, kept): (Vec<Event>, Vec<Event>) =
        events.into_iter().partition(|event| filter.removes(event));
    Expected {
        why,
        original: CompiledPattern::compile(&pattern).matches(provenance),
        counterfactual: CompiledPattern::compile(&pattern).matches(&Provenance::from_events(kept)),
        removed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_identical_inputs() {
        let scale = Scale::TINY;
        assert_eq!(vet_history(7, scale), vet_history(7, scale));
        assert_eq!(hot_history(7, scale), hot_history(7, scale));
        assert_eq!(deep_history(7, scale), deep_history(7, scale));
        assert_eq!(write_record(7, 1, "w", 3), write_record(7, 1, "w", 3));
        let stream = |seed| {
            let mut rng = Rng::new(seed, 100);
            (0..64).map(|_| rng.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn a_different_seed_generates_different_inputs() {
        let scale = Scale::TINY;
        assert_ne!(vet_history(7, scale), vet_history(8, scale));
        assert_ne!(hot_history(7, scale), hot_history(8, scale));
        assert_ne!(deep_history(7, scale), deep_history(8, scale));
        assert_ne!(write_record(7, 1, "w", 3), write_record(8, 1, "w", 3));
    }

    #[test]
    fn generated_histories_pass_their_policies() {
        let origin = CompiledPattern::compile(&parse_pattern(ORIGIN_SOURCE).unwrap());
        for record in vet_history(3, Scale::TINY)
            .iter()
            .chain(&hot_history(3, Scale::TINY))
        {
            assert!(origin.matches(&record.provenance));
        }
        for record in deep_history(3, Scale::TINY) {
            assert_eq!(record.provenance.len(), Scale::TINY.spine);
            let expected = expected_answers(&record.provenance, &drop_filter());
            assert!(expected.original && expected.counterfactual);
            assert!(!expected.removed.is_empty());
            assert_eq!(expected.why, record.provenance.to_vec());
        }
    }
}
