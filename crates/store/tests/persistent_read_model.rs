//! Differential properties of the persistent read model.
//!
//! Random record streams — repeated keys, replayed records, the sequence
//! gaps a compacted store recovers with, and forks (a second extension of
//! an already-extended version) — are published batch by batch the way
//! the audit engine publishes snapshots.  After every publication, *every*
//! version published so far must answer exactly as a naive oracle built
//! from scratch over that version's prefix: the same postings for every
//! key in every dimension, the same key sets in the same order, the same
//! records by sequence number, and the same sizes.  The in-place path the
//! standalone store uses must end up answering like the extended one.

use piprov_core::name::{Channel, Principal};
use piprov_core::provenance::{Event, Provenance};
use piprov_core::value::Value;
use piprov_store::{Operation, ProvenanceRecord, RecordVec, SequenceNumber, StoreIndex};
use proptest::prelude::*;
use std::collections::BTreeMap;

const PRINCIPALS: u8 = 6;
const CHANNELS: u8 = 3;
const VALUES: u8 = 24;

#[derive(Debug, Clone)]
enum Op {
    /// A fresh record; `gap == 0` skips two sequence numbers first.
    Append {
        principal: u8,
        channel: u8,
        value: u8,
        history: Vec<u8>,
        gap: u8,
    },
    /// The previous record again (a replayed frame).
    Replay,
    /// Publish the pending batch as the next version.
    Publish,
    /// Extend the newest version with a throwaway batch, beside the real
    /// history.
    Fork,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        10 => (
            0u8..4,
            0u8..CHANNELS,
            0u8..VALUES,
            proptest::collection::vec(0u8..PRINCIPALS, 0..4),
            0u8..10,
        )
            .prop_map(|(principal, channel, value, history, gap)| Op::Append {
                principal,
                channel,
                value,
                history,
                gap,
            }),
        1 => Just(Op::Replay),
        3 => Just(Op::Publish),
        1 => Just(Op::Fork),
    ]
}

fn principal(i: u8) -> Principal {
    Principal::new(format!("p{i}"))
}

fn channel(i: u8) -> Channel {
    Channel::new(format!("c{i}"))
}

fn value(i: u8) -> Value {
    Value::Channel(Channel::new(format!("v{i}")))
}

fn record(seq: SequenceNumber, who: u8, on: u8, what: u8, history: &[u8]) -> ProvenanceRecord {
    let events: Vec<Event> = history
        .iter()
        .map(|&p| Event::output(principal(p), Provenance::empty()))
        .collect();
    let mut r = ProvenanceRecord::new(
        seq,
        principal(who),
        Operation::Send,
        channel(on).as_str(),
        value(what),
        Provenance::from_events(events),
    );
    r.sequence = seq;
    r
}

/// One published version, with the oracle prefix it must answer like.
struct Version {
    index: StoreIndex,
    records: RecordVec,
    prefix: Vec<ProvenanceRecord>,
}

impl Version {
    fn extended(&self, batch: &[ProvenanceRecord]) -> Version {
        let index = self.index.extended(batch);
        let mut records = self.records.clone();
        let mut prefix = self.prefix.clone();
        for r in batch {
            records.push(r.clone());
            if prefix.last().is_none_or(|last| r.sequence > last.sequence) {
                prefix.push(r.clone());
            }
        }
        Version {
            index,
            records,
            prefix,
        }
    }
}

/// The oracle: plain maps built from scratch over a record prefix.
#[derive(Default)]
struct Naive {
    by_principal: BTreeMap<Principal, Vec<SequenceNumber>>,
    by_channel: BTreeMap<Channel, Vec<SequenceNumber>>,
    by_value: BTreeMap<Value, Vec<SequenceNumber>>,
    by_involved: BTreeMap<Principal, Vec<SequenceNumber>>,
}

fn post<K: Ord>(map: &mut BTreeMap<K, Vec<SequenceNumber>>, key: K, seq: SequenceNumber) {
    let list = map.entry(key).or_default();
    if !list.contains(&seq) {
        list.push(seq);
    }
}

impl Naive {
    fn of(prefix: &[ProvenanceRecord]) -> Naive {
        let mut naive = Naive::default();
        for r in prefix {
            post(&mut naive.by_principal, r.principal.clone(), r.sequence);
            post(&mut naive.by_channel, r.channel.clone(), r.sequence);
            post(&mut naive.by_value, r.value.clone(), r.sequence);
            for p in r.principals_involved() {
                post(&mut naive.by_involved, p, r.sequence);
            }
        }
        naive
    }
}

fn listed<K: Ord>(map: &BTreeMap<K, Vec<SequenceNumber>>, key: &K) -> Vec<SequenceNumber> {
    map.get(key).cloned().unwrap_or_default()
}

fn sizes<K>(map: &BTreeMap<K, Vec<SequenceNumber>>) -> usize {
    map.values().map(Vec::len).sum()
}

fn longest<K>(map: &BTreeMap<K, Vec<SequenceNumber>>) -> usize {
    map.values().map(Vec::len).max().unwrap_or(0)
}

fn assert_answers_like_oracle(
    index: &StoreIndex,
    records: &RecordVec,
    prefix: &[ProvenanceRecord],
) {
    let naive = Naive::of(prefix);
    for i in 0..PRINCIPALS + 1 {
        let p = principal(i);
        assert_eq!(
            index.by_principal(&p).to_vec(),
            listed(&naive.by_principal, &p)
        );
        assert_eq!(
            index.by_involved_principal(&p).to_vec(),
            listed(&naive.by_involved, &p)
        );
    }
    for i in 0..CHANNELS + 1 {
        let c = channel(i);
        assert_eq!(index.by_channel(&c).to_vec(), listed(&naive.by_channel, &c));
    }
    for i in 0..VALUES + 1 {
        let v = value(i);
        let postings = index.by_value(&v);
        assert_eq!(postings.to_vec(), listed(&naive.by_value, &v));
        assert_eq!(postings.len(), listed(&naive.by_value, &v).len());
        assert_eq!(postings.last(), listed(&naive.by_value, &v).last().copied());
    }
    assert!(index.principals().eq(naive.by_principal.keys()));
    assert!(index.channels().eq(naive.by_channel.keys()));
    assert!(index.values().eq(naive.by_value.keys()));
    assert_eq!(
        index.entry_count(),
        sizes(&naive.by_principal) + sizes(&naive.by_channel) + sizes(&naive.by_value)
    );

    // Records: order, lookups (hits, gap misses, out-of-range misses).
    assert_eq!(records.len(), prefix.len());
    assert!(records.iter().eq(prefix.iter()));
    let top = prefix.last().map_or(0, |r| r.sequence);
    for seq in 0..=top + 2 {
        let expected = prefix.iter().find(|r| r.sequence == seq);
        assert_eq!(records.get(seq), expected, "lookup of {seq}");
    }
    assert_eq!(records.last_sequence(), top);

    // Sizes agree with a from-scratch rebuild.
    let rebuilt = StoreIndex::rebuild(prefix);
    let rebuilt_records: RecordVec = prefix.iter().cloned().collect();
    let stats = index.stats(records);
    assert_eq!(stats, rebuilt.stats(&rebuilt_records));
    assert_eq!(stats.value_keys, naive.by_value.len());
    assert_eq!(stats.involved_principal_keys, naive.by_involved.len());
    let longest = [
        longest(&naive.by_principal),
        longest(&naive.by_involved),
        longest(&naive.by_channel),
        longest(&naive.by_value),
    ];
    assert_eq!(
        stats.longest_posting_list,
        longest.into_iter().max().unwrap_or(0)
    );
    assert_eq!(records.runs(), rebuilt_records.runs());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_version_answers_like_a_from_scratch_rebuild(
        ops in proptest::collection::vec(arb_op(), 1..80),
    ) {
        let mut versions = vec![Version {
            index: StoreIndex::new(),
            records: RecordVec::new(),
            prefix: Vec::new(),
        }];
        let mut forks: Vec<Version> = Vec::new();
        let mut in_place = StoreIndex::new();
        let mut pending: Vec<ProvenanceRecord> = Vec::new();
        let mut next_seq: SequenceNumber = 1;
        let mut last: Option<ProvenanceRecord> = None;
        let publish = |versions: &mut Vec<Version>, pending: &mut Vec<ProvenanceRecord>| {
            let next = versions.last().expect("a version").extended(pending);
            pending.clear();
            versions.push(next);
            for v in versions.iter() {
                assert_answers_like_oracle(&v.index, &v.records, &v.prefix);
            }
        };
        for op in ops {
            match op {
                Op::Append { principal, channel, value, history, gap } => {
                    if gap == 0 {
                        next_seq += 2;
                    }
                    let r = record(next_seq, principal, channel, value, &history);
                    next_seq += 1;
                    in_place.insert(&r);
                    pending.push(r.clone());
                    last = Some(r);
                }
                Op::Replay => {
                    if let Some(r) = &last {
                        in_place.insert(r);
                        pending.push(r.clone());
                    }
                }
                Op::Publish => publish(&mut versions, &mut pending),
                Op::Fork => {
                    // Takes the sequence numbers (and tail slots) the real
                    // history's next batch will take.
                    let throwaway = [
                        record(next_seq, 5, 0, VALUES - 1, &[4]),
                        record(next_seq + 1, 5, 1, 0, &[]),
                    ];
                    let fork = versions.last().expect("a version").extended(&throwaway);
                    assert_answers_like_oracle(&fork.index, &fork.records, &fork.prefix);
                    forks.push(fork);
                }
            }
        }
        publish(&mut versions, &mut pending);
        for fork in &forks {
            assert_answers_like_oracle(&fork.index, &fork.records, &fork.prefix);
        }
        let newest = versions.last().expect("a version");
        assert_answers_like_oracle(&in_place, &newest.records, &newest.prefix);
    }
}

#[test]
fn long_posting_lists_span_trie_levels() {
    // One key with enough postings to need two branch levels, extended
    // one record at a time, with every 97th version kept and re-checked.
    let mut version = Version {
        index: StoreIndex::new(),
        records: RecordVec::new(),
        prefix: Vec::new(),
    };
    let mut kept = Vec::new();
    for seq in 1..=2_200u64 {
        version = version.extended(&[record(seq, 0, 0, (seq % 7) as u8, &[1])]);
        if seq % 97 == 0 {
            kept.push((version.index.clone(), version.records.clone(), seq));
        }
    }
    assert_eq!(version.index.by_principal(&principal(0)).len(), 2_200);
    assert!(version
        .index
        .by_principal(&principal(0))
        .iter()
        .eq(1..=2_200));
    for (index, records, top) in &kept {
        assert!(index.by_principal(&principal(0)).iter().eq(1..=*top));
        assert_eq!(records.len() as u64, *top);
        assert_eq!(records.get(*top).map(|r| r.sequence), Some(*top));
    }
    assert_answers_like_oracle(&version.index, &version.records, &version.prefix);
}
