//! Audit queries over a provenance store.
//!
//! These implement the questions the paper motivates provenance with:
//! *who was involved in getting this value to its current state?* (the
//! auditing example of §2.3.2), *where did it originate?*, *which values
//! did a given principal ever touch?*

use crate::record::{Operation, ProvenanceRecord, SequenceNumber};
use crate::store::ProvenanceStore;
use piprov_core::name::{Channel, Principal};
use piprov_core::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// The reconstructed audit trail of a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditTrail {
    /// The value being audited.
    pub value: Value,
    /// Every record mentioning the value, in sequence order.
    pub records: Vec<ProvenanceRecord>,
    /// Principals involved, in order of first appearance (union of acting
    /// principals and principals in recorded provenance).
    pub principals: Vec<Principal>,
    /// Channels the value travelled on.
    pub channels: Vec<Channel>,
}

impl AuditTrail {
    /// Assembles a trail from the records that mention `value` (in
    /// sequence order), deriving the involved principals (first-appearance
    /// order) and the channels travelled.
    ///
    /// This is the single construction path shared by
    /// [`StoreQuery::audit_trail`] and the audit engine's MVCC snapshots,
    /// so a trail answered from an immutable snapshot is byte-for-byte the
    /// trail the store itself would have produced at that watermark.
    pub fn from_records(value: Value, records: Vec<ProvenanceRecord>) -> Self {
        let mut principals = Vec::new();
        let mut channels = Vec::new();
        for r in &records {
            for p in r.principals_involved() {
                if !principals.contains(&p) {
                    principals.push(p);
                }
            }
            if !channels.contains(&r.channel)
                && matches!(r.operation, Operation::Send | Operation::Receive)
            {
                channels.push(r.channel.clone());
            }
        }
        AuditTrail {
            value,
            records,
            principals,
            channels,
        }
    }

    /// `true` if `principal` appears anywhere in the trail.
    pub fn involves(&self, principal: &Principal) -> bool {
        self.principals.contains(principal)
    }

    /// The principal that originally sent the value: the *oldest* output
    /// event recorded anywhere in the trail.
    ///
    /// Records are scanned oldest-first and each record's provenance
    /// oldest-event-first, so the earliest recorded history wins.  Trusting
    /// the newest record instead would mis-attribute relayed values: a
    /// relay's record can carry a history that starts at the relay (its
    /// receive record was persisted without provenance, or an intermediary
    /// re-tagged the value), and the true origin then only survives in the
    /// older records of the trail.
    pub fn origin(&self) -> Option<Principal> {
        self.records
            .iter()
            .flat_map(|r| {
                let events = r.provenance.to_vec();
                events.into_iter().rev()
            })
            .find(|e| e.is_output())
            .map(|e| e.principal)
    }
}

impl fmt::Display for AuditTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit trail for {}: {} records",
            self.value,
            self.records.len()
        )?;
        for r in &self.records {
            writeln!(f, "  {}", r)?;
        }
        write!(f, "  principals involved: ")?;
        for (i, p) in self.principals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", p)?;
        }
        Ok(())
    }
}

/// Query interface over a [`ProvenanceStore`].
#[derive(Debug)]
pub struct StoreQuery<'a> {
    store: &'a ProvenanceStore,
}

impl<'a> StoreQuery<'a> {
    /// Creates a query handle over a store.
    pub fn new(store: &'a ProvenanceStore) -> Self {
        StoreQuery { store }
    }

    /// Every record in which `principal` acted.
    pub fn records_by_principal(&self, principal: &Principal) -> Vec<&ProvenanceRecord> {
        self.store
            .get_many(self.store.index().by_principal(principal).iter())
            .collect()
    }

    /// Every record on `channel`.
    pub fn records_on_channel(&self, channel: &Channel) -> Vec<&ProvenanceRecord> {
        self.store
            .get_many(self.store.index().by_channel(channel).iter())
            .collect()
    }

    /// Every record exchanging `value`.
    pub fn records_of_value(&self, value: &Value) -> Vec<&ProvenanceRecord> {
        self.store
            .get_many(self.store.index().by_value(value).iter())
            .collect()
    }

    /// Records in a half-open range of sequence numbers.
    pub fn records_in_range(
        &self,
        from: SequenceNumber,
        to: SequenceNumber,
    ) -> Vec<&ProvenanceRecord> {
        self.store
            .iter()
            .filter(|r| r.sequence >= from && r.sequence < to)
            .collect()
    }

    /// Reconstructs the audit trail of a value: all records that exchanged
    /// it, the principals involved and the channels it travelled on.
    pub fn audit_trail(&self, value: &Value) -> AuditTrail {
        let records: Vec<ProvenanceRecord> =
            self.records_of_value(value).into_iter().cloned().collect();
        AuditTrail::from_records(value.clone(), records)
    }

    /// The set of principals that ever handled data which, according to its
    /// provenance, passed through `suspect` — the paper's error-
    /// investigation scenario ("the three principals may be further
    /// investigated").
    pub fn tainted_by(&self, suspect: &Principal) -> BTreeSet<Principal> {
        let mut out = BTreeSet::new();
        for seq in self.store.index().by_involved_principal(suspect) {
            if let Some(record) = self.store.get(seq) {
                out.insert(record.principal.clone());
            }
        }
        out
    }

    /// Values whose recorded provenance claims they originated at
    /// `principal` (oldest event is an output by that principal).
    pub fn values_originating_at(&self, principal: &Principal) -> Vec<Value> {
        let mut out = Vec::new();
        for record in self.store.iter() {
            if record.provenance.originated_at(principal) && !out.contains(&record.value) {
                out.push(record.value.clone());
            }
        }
        out
    }

    /// Total number of send/receive records per principal, a simple
    /// activity summary used by the example applications.
    pub fn activity_summary(&self) -> Vec<(Principal, usize)> {
        let mut out: Vec<(Principal, usize)> = Vec::new();
        for p in self.store.index().principals() {
            let count = self.store.index().by_principal(p).len();
            out.push((p.clone(), count));
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Operation;
    use crate::store::ProvenanceStore;
    use piprov_core::provenance::{Event, Provenance};
    use std::path::PathBuf;

    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("piprov-query-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Builds a store replaying the paper's auditing scenario:
    /// a sends v to s, s (faulty) forwards it to c instead of b.
    fn auditing_store(dir: &PathBuf) -> ProvenanceStore {
        let mut store = ProvenanceStore::open(dir).unwrap();
        let v = Value::Channel(Channel::new("v"));
        let a = Principal::new("a");
        let s = Principal::new("s");
        let c = Principal::new("c");
        let empty = Provenance::empty();
        // a sends v on m.
        let k1 = empty.prepend(Event::output(a.clone(), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                1,
                "a",
                Operation::Send,
                "m",
                v.clone(),
                k1.clone(),
            ))
            .unwrap();
        // s receives it on m.
        let k2 = k1.prepend(Event::input(s.clone(), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                2,
                "s",
                Operation::Receive,
                "m",
                v.clone(),
                k2.clone(),
            ))
            .unwrap();
        // s forwards it on n' (the wrong channel).
        let k3 = k2.prepend(Event::output(s.clone(), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                3,
                "s",
                Operation::Send,
                "nprime",
                v.clone(),
                k3.clone(),
            ))
            .unwrap();
        // c receives it.
        let k4 = k3.prepend(Event::input(c.clone(), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                4,
                "c",
                Operation::Receive,
                "nprime",
                v,
                k4,
            ))
            .unwrap();
        store
    }

    #[test]
    fn audit_trail_reconstructs_the_paper_scenario() {
        let dir = temp_dir("audit");
        let store = auditing_store(&dir);
        let query = StoreQuery::new(&store);
        let v = Value::Channel(Channel::new("v"));
        let trail = query.audit_trail(&v);
        assert_eq!(trail.records.len(), 4);
        assert!(trail.involves(&Principal::new("a")));
        assert!(trail.involves(&Principal::new("s")));
        assert!(trail.involves(&Principal::new("c")));
        assert!(
            !trail.involves(&Principal::new("b")),
            "b never saw the value"
        );
        assert_eq!(trail.origin(), Some(Principal::new("a")));
        assert_eq!(
            trail.channels,
            vec![Channel::new("m"), Channel::new("nprime")]
        );
        assert!(trail.to_string().contains("principals involved"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_dimension_queries() {
        let dir = temp_dir("dims");
        let store = auditing_store(&dir);
        let query = StoreQuery::new(&store);
        assert_eq!(query.records_by_principal(&Principal::new("s")).len(), 2);
        assert_eq!(query.records_on_channel(&Channel::new("m")).len(), 2);
        assert_eq!(query.records_in_range(2, 4).len(), 2);
        let v = Value::Channel(Channel::new("v"));
        assert_eq!(query.records_of_value(&v).len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn origin_prefers_the_oldest_output_over_a_relay_retag() {
        // A relayed value whose newest record carries a history that
        // starts at the relay: a sent v (recorded), then the relay s
        // re-sent it with a provenance that only mentions s — the shape an
        // AuditRecorder produces when the relay's receive was persisted
        // without provenance, or when an intermediary re-tagged the value.
        let dir = temp_dir("relay-origin");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        let v = Value::Channel(Channel::new("v"));
        let a = Principal::new("a");
        let s = Principal::new("s");
        let empty = Provenance::empty();
        let k1 = empty.prepend(Event::output(a.clone(), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                1,
                "a",
                Operation::Send,
                "m",
                v.clone(),
                k1,
            ))
            .unwrap();
        let retag = empty.prepend(Event::output(s.clone(), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                2,
                "s",
                Operation::Send,
                "nprime",
                v.clone(),
                retag,
            ))
            .unwrap();
        let trail = store.query().audit_trail(&v);
        assert_eq!(
            trail.origin(),
            Some(a),
            "the oldest recorded output wins, not the relay's re-tag"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn origin_skips_records_without_an_output_event() {
        let dir = temp_dir("origin-skip");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        let v = Value::Channel(Channel::new("v"));
        let empty = Provenance::empty();
        // Oldest record: a receive persisted with input-only provenance.
        let k_in = empty.prepend(Event::input(Principal::new("c"), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                1,
                "c",
                Operation::Receive,
                "m",
                v.clone(),
                k_in,
            ))
            .unwrap();
        let k_out = empty
            .prepend(Event::output(Principal::new("a"), empty.clone()))
            .prepend(Event::input(Principal::new("c"), empty.clone()));
        store
            .append(ProvenanceRecord::new(
                2,
                "c",
                Operation::Receive,
                "m",
                v.clone(),
                k_out,
            ))
            .unwrap();
        let trail = store.query().audit_trail(&v);
        assert_eq!(trail.origin(), Some(Principal::new("a")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tainted_by_finds_downstream_handlers() {
        let dir = temp_dir("taint");
        let store = auditing_store(&dir);
        let query = StoreQuery::new(&store);
        let tainted = query.tainted_by(&Principal::new("a"));
        // Everyone who handled data that passed through a: a itself, s, c.
        assert!(tainted.contains(&Principal::new("a")));
        assert!(tainted.contains(&Principal::new("s")));
        assert!(tainted.contains(&Principal::new("c")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn origin_queries() {
        let dir = temp_dir("origin");
        let store = auditing_store(&dir);
        let query = StoreQuery::new(&store);
        let originated = query.values_originating_at(&Principal::new("a"));
        assert_eq!(originated, vec![Value::Channel(Channel::new("v"))]);
        assert!(query.values_originating_at(&Principal::new("c")).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn activity_summary_sorts_by_count() {
        let dir = temp_dir("activity");
        let store = auditing_store(&dir);
        let query = StoreQuery::new(&store);
        let summary = query.activity_summary();
        assert_eq!(summary[0].0, Principal::new("s"));
        assert_eq!(summary[0].1, 2);
        assert_eq!(summary.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
