//! MVCC snapshots: the immutable state an audit query reads.
//!
//! An [`EngineSnapshot`] is a frozen, internally consistent view of the
//! engine's record log at one **watermark** (the highest sequence number
//! it contains).  It is the engine's only in-memory copy of the records:
//! the engine itself keeps just the durable [`piprov_store::SegmentLog`].
//! The ingest path builds the next snapshot *off to the side* and
//! publishes it with a single `Arc` swap once the whole batch is appended.
//! Auditors therefore never observe a half-applied batch: every response
//! is explained by exactly one published watermark.
//!
//! A snapshot is the store crate's persistent read model (see
//! [`piprov_store::persistent`]), so extending one costs O(batch · log n)
//! whatever the history length:
//!
//! * **records** live in a [`RecordVec`], an append-only 32-way trie whose
//!   leaf slots are written once — the next snapshot fills the free slots
//!   of the shared tail leaf in place, and no published record is ever
//!   copied;
//! * **indexes** use [`SharedStoreIndex::extended`]: persistent B-trees
//!   that copy only the paths to the keys a batch touches, with a key's
//!   single posting stored inline in its entry.
//!
//! Lookup by sequence number is a direct trie index (a binary search over
//! positions once a compacted store has left sequence gaps).

use piprov_store::{
    AuditTrail, IndexStats, ProvenanceRecord, RecordVec, SequenceNumber, SharedStoreIndex,
};
use std::sync::{Arc, RwLock};

/// An immutable, internally consistent view of the engine's record log at
/// one watermark.
///
/// All four audit request kinds answer entirely from a snapshot: posting
/// lists come from its [`SharedStoreIndex`], records from its
/// [`RecordVec`], and the durable log is never touched.  Snapshots are
/// cheap to hold: pin one (via [`crate::AuditEngine::snapshot`]) and every
/// query served through [`crate::AuditEngine::handle_at`] sees the same
/// frozen state, however much ingest lands in the meantime.
#[derive(Debug, Default)]
pub struct EngineSnapshot {
    records: RecordVec,
    index: SharedStoreIndex,
}

impl EngineSnapshot {
    /// An empty snapshot (watermark 0).
    #[cfg(test)]
    pub(crate) fn empty() -> Self {
        EngineSnapshot::default()
    }

    /// Wraps a recovered read model (used once, at engine construction;
    /// afterwards snapshots only ever grow by [`EngineSnapshot::extended`]).
    pub(crate) fn from_parts(records: RecordVec, index: SharedStoreIndex) -> Self {
        EngineSnapshot { records, index }
    }

    /// Freezes a record log given in ascending sequence order.
    #[cfg(test)]
    pub(crate) fn from_records(records: Vec<ProvenanceRecord>) -> Self {
        EngineSnapshot::default().extended(records)
    }

    /// The next snapshot: `self` plus one appended batch (ascending,
    /// above `self`'s watermark).  Shares every record leaf and every
    /// index node the batch does not touch with `self`.
    pub(crate) fn extended(&self, appended: Vec<ProvenanceRecord>) -> Self {
        let mut index = self.index.clone();
        let mut records = self.records.clone();
        for record in appended {
            debug_assert!(
                record.sequence > records.last_sequence(),
                "watermarks are monotone"
            );
            index.insert(&record);
            records.push(record);
        }
        EngineSnapshot { records, index }
    }

    /// The highest sequence number this snapshot contains (0 when empty).
    ///
    /// Every [`crate::AuditResponse`] carries the watermark of the
    /// snapshot that answered it; watermarks observed through one engine
    /// are monotone.
    pub fn watermark(&self) -> SequenceNumber {
        self.records.last_sequence()
    }

    /// Number of records visible.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no record has been published yet.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of record chunks: maximal runs of consecutive sequence
    /// numbers (1 for a log that was never compacted, plus one per gap a
    /// compaction left).
    pub fn chunk_count(&self) -> usize {
        self.records.runs()
    }

    /// The snapshot's secondary indexes.
    pub fn index(&self) -> &SharedStoreIndex {
        &self.index
    }

    /// Sizes of the snapshot's read model: keys per index dimension, the
    /// longest posting list, record-vector leaves and an estimate of the
    /// resident bytes.  In-process introspection; O(1).
    pub fn index_stats(&self) -> IndexStats {
        self.index.stats(&self.records)
    }

    /// Looks up a record by sequence number.
    pub fn get(&self, sequence: SequenceNumber) -> Option<&ProvenanceRecord> {
        self.records.get(sequence)
    }

    /// Looks up several records by sequence number, skipping unknown ones.
    pub fn get_many<'a>(
        &'a self,
        sequences: impl IntoIterator<Item = SequenceNumber> + 'a,
    ) -> impl Iterator<Item = &'a ProvenanceRecord> + 'a {
        self.records.get_many(sequences)
    }

    /// Reconstructs the audit trail of `value` as of this snapshot's
    /// watermark — the same construction [`piprov_store::StoreQuery`]
    /// uses, so a snapshot trail matches what the store itself would have
    /// answered at that watermark.
    pub fn audit_trail(&self, value: &piprov_core::value::Value) -> AuditTrail {
        let records: Vec<ProvenanceRecord> = self
            .get_many(self.index.by_value(value).iter())
            .cloned()
            .collect();
        AuditTrail::from_records(value.clone(), records)
    }
}

/// The publication point: readers load the current snapshot, the ingest
/// path swaps in the next one.
///
/// Publication is a single `Arc` pointer swap under a reader-writer latch
/// held only for the swap itself (writers) or an `Arc` clone (readers) —
/// nanoseconds either way, and crucially **independent of batch size**:
/// building the next snapshot happens entirely outside the latch, so a
/// reader is never blocked behind a batch being applied, which is exactly
/// the starvation the old design (queries behind the store's reader-writer
/// lock) suffered.
#[derive(Debug)]
pub(crate) struct SnapshotCell {
    current: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(snapshot: EngineSnapshot) -> Self {
        SnapshotCell {
            current: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The currently published snapshot.
    pub(crate) fn load(&self) -> Arc<EngineSnapshot> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Atomically replaces the published snapshot.
    pub(crate) fn publish(&self, snapshot: EngineSnapshot) {
        let next = Arc::new(snapshot);
        match self.current.write() {
            Ok(mut guard) => *guard = next,
            Err(poisoned) => *poisoned.into_inner() = next,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use piprov_store::Operation;

    fn record(seq: u64, who: &str, value: &str) -> ProvenanceRecord {
        let mut r = ProvenanceRecord::new(
            seq,
            who,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(value)),
            Provenance::single(Event::output(Principal::new(who), Provenance::empty())),
        );
        r.sequence = seq;
        r
    }

    #[test]
    fn lookup_spans_chunks_and_misses_cleanly() {
        let base = EngineSnapshot::from_records(vec![record(1, "a", "v"), record(2, "b", "w")]);
        let next = base.extended(vec![record(3, "c", "v")]);
        assert_eq!(next.len(), 3);
        assert_eq!(next.watermark(), 3);
        assert_eq!(next.chunk_count(), 1, "one run of consecutive sequences");
        for seq in 1..=3 {
            assert_eq!(next.get(seq).unwrap().sequence, seq);
        }
        assert!(next.get(0).is_none());
        assert!(next.get(4).is_none());
        assert!(base.get(3).is_none(), "the base snapshot is frozen");
        assert_eq!(base.watermark(), 2);
        let trail = next.audit_trail(&Value::Channel(Channel::new("v")));
        assert_eq!(
            trail.records.iter().map(|r| r.sequence).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn empty_snapshot_answers_nothing() {
        let snapshot = EngineSnapshot::empty();
        assert!(snapshot.is_empty());
        assert_eq!(snapshot.watermark(), 0);
        assert!(snapshot.get(1).is_none());
        assert!(snapshot
            .audit_trail(&Value::Channel(Channel::new("v")))
            .records
            .is_empty());
    }

    #[test]
    fn recovery_of_a_compacted_log_splits_at_the_sequence_gap() {
        // A compacted store can hold non-contiguous sequences; the
        // snapshot must still resolve each one exactly.
        let snapshot = EngineSnapshot::from_records(vec![
            record(1, "a", "v"),
            record(2, "a", "v"),
            record(7, "b", "w"),
            record(8, "b", "w"),
        ]);
        assert_eq!(snapshot.chunk_count(), 2);
        assert_eq!(snapshot.watermark(), 8);
        assert_eq!(snapshot.get(2).unwrap().sequence, 2);
        assert_eq!(snapshot.get(7).unwrap().sequence, 7);
        assert!(snapshot.get(4).is_none(), "the gap stays a miss");
        assert!(snapshot.get(9).is_none());
    }

    #[test]
    fn extending_shares_chunks_with_the_predecessor() {
        let base = EngineSnapshot::from_records(vec![record(1, "a", "v")]);
        let next = base.extended(vec![record(2, "b", "w")]);
        assert!(
            Arc::ptr_eq(base.records.leaf(0).unwrap(), next.records.leaf(0).unwrap()),
            "published chunks are shared, never re-copied"
        );
        assert!(Arc::ptr_eq(
            base.index
                .value_bucket(&Value::Channel(Channel::new("v")))
                .unwrap(),
            next.index
                .value_bucket(&Value::Channel(Channel::new("v")))
                .unwrap()
        ));
    }

    /// An `ingest_deep`-shaped record: one hot principal, a fresh value,
    /// one of a few channels, a two-hop history.
    fn deep_record(seq: u64) -> ProvenanceRecord {
        let history = Provenance::single(Event::output(
            Principal::new(format!("src{}", seq % 4)),
            Provenance::empty(),
        ))
        .prepend(Event::input(
            Principal::new(format!("p{}", seq % 16)),
            Provenance::empty(),
        ));
        let mut r = ProvenanceRecord::new(
            seq,
            "hot",
            Operation::Send,
            format!("c{}", seq % 64).as_str(),
            Value::Channel(Channel::new(format!("d{seq}"))),
            history,
        );
        r.sequence = seq;
        r
    }

    /// The most nodes any of 64 consecutive single-record publishes
    /// allocates or copies on top of a `history`-record snapshot, with the
    /// snapshot's depth.
    fn single_record_publish_cost(history: u64) -> (u64, usize) {
        let mut snapshot = EngineSnapshot::from_records((1..=history).map(deep_record).collect());
        let mut worst = 0;
        for seq in history + 1..=history + 64 {
            let before = piprov_store::persistent::nodes_allocated();
            let next = snapshot.extended(vec![deep_record(seq)]);
            worst = worst.max(piprov_store::persistent::nodes_allocated() - before);
            snapshot = next;
        }
        (worst, snapshot.index_stats().depth)
    }

    #[test]
    fn single_record_publish_cost_is_flat_in_history_length() {
        // Deterministic (a node count, no clock): a publish copies only
        // the tree paths its record touches.  Copy-on-publish of whole
        // maps costs thousands of nodes at these sizes.
        let (small, small_depth) = single_record_publish_cost(1_000);
        let (large, large_depth) = single_record_publish_cost(64_000);
        for (nodes, depth) in [(small, small_depth), (large, large_depth)] {
            assert!(
                nodes <= 12 * depth as u64,
                "{nodes} nodes for one record at depth {depth}"
            );
        }
        assert!(
            large <= small + 6 * (large_depth - small_depth) as u64,
            "64k history: {large} nodes, 1k history: {small} nodes"
        );
    }

    #[test]
    fn cell_publishes_atomically_and_pinned_snapshots_survive() {
        let cell = SnapshotCell::new(EngineSnapshot::from_records(vec![record(1, "a", "v")]));
        let pinned = cell.load();
        cell.publish(pinned.extended(vec![record(2, "b", "w")]));
        assert_eq!(pinned.watermark(), 1, "a pinned snapshot stays frozen");
        assert_eq!(cell.load().watermark(), 2);
    }
}
