//! The in-memory read model: the records and their secondary indexes.
//!
//! The store keeps the authoritative data in its append-only segments; the
//! read model here is rebuilt on recovery by scanning the segments and
//! answers audit queries without a scan.  It has two halves, both
//! persistent (see [`crate::persistent`]):
//!
//! * [`RecordVec`] — the records in sequence order, in an append-only
//!   32-way trie.  Lookup by sequence number is a direct index while the
//!   sequences are contiguous, and a binary search over positions once a
//!   compacted store has left gaps.
//! * [`StoreIndex`] — posting lists by acting principal, channel, value and
//!   involved principal, each dimension a persistent B-tree from key to
//!   [`Postings`].  A key with one posting keeps it inline; longer lists
//!   are append-only vectors.
//!
//! There is one implementation.  The standalone [`crate::ProvenanceStore`]
//! updates its model in place; the audit engine's MVCC snapshots *extend*
//! theirs ([`StoreIndex::extended`]), which copies only the tree paths a
//! batch touches, so publishing a batch costs O(batch · log n) however long
//! the history is, and every earlier snapshot keeps answering unchanged.

use crate::persistent::{counted, PMap, PVec, VecIter, LEAF};
use crate::record::{ProvenanceRecord, SequenceNumber};
use piprov_core::name::{Channel, Principal};
use piprov_core::value::Value;
use std::fmt;
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

/// The sequence numbers of the records that mention one key, ascending and
/// duplicate-free.
#[derive(Clone, Default)]
pub struct Postings(Repr);

#[derive(Clone, Default)]
enum Repr {
    #[default]
    Empty,
    /// The common case of a key seen once (every fresh value): inline, no
    /// allocation of its own.
    One(SequenceNumber),
    Many(Arc<PVec<SequenceNumber>>),
}

static NO_POSTINGS: Postings = Postings(Repr::Empty);

impl Postings {
    /// Number of postings.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Empty => 0,
            Repr::One(_) => 1,
            Repr::Many(list) => list.len(),
        }
    }

    /// `true` when there are none.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The newest posting.
    pub fn last(&self) -> Option<SequenceNumber> {
        match &self.0 {
            Repr::Empty => None,
            Repr::One(seq) => Some(*seq),
            Repr::Many(list) => list.last().copied(),
        }
    }

    /// The postings, oldest first.
    pub fn iter(&self) -> PostingsIter<'_> {
        match &self.0 {
            Repr::Empty => PostingsIter::One(None),
            Repr::One(seq) => PostingsIter::One(Some(*seq)),
            Repr::Many(list) => PostingsIter::Many(list.iter()),
        }
    }

    /// The postings as a vector.
    pub fn to_vec(&self) -> Vec<SequenceNumber> {
        self.iter().collect()
    }

    /// Appends `seq`, which must be newer than every held posting.
    fn push(&mut self, seq: SequenceNumber) {
        debug_assert!(self.last().is_none_or(|last| last < seq));
        match &mut self.0 {
            Repr::Empty => self.0 = Repr::One(seq),
            Repr::One(first) => {
                let mut list = PVec::new();
                list.push(*first);
                list.push(seq);
                self.0 = Repr::Many(counted(list));
            }
            Repr::Many(list) => {
                if Arc::get_mut(list).is_none() {
                    *list = counted(PVec::clone(list));
                }
                Arc::make_mut(list).push(seq);
            }
        }
    }
}

/// Iterator over [`Postings`].
#[derive(Debug)]
pub enum PostingsIter<'a> {
    /// Zero or one posting.
    One(Option<SequenceNumber>),
    /// A list's postings.
    Many(VecIter<'a, SequenceNumber>),
}

impl Iterator for PostingsIter<'_> {
    type Item = SequenceNumber;

    fn next(&mut self) -> Option<SequenceNumber> {
        match self {
            PostingsIter::One(seq) => seq.take(),
            PostingsIter::Many(iter) => iter.next().copied(),
        }
    }
}

impl<'a> IntoIterator for &'a Postings {
    type Item = SequenceNumber;
    type IntoIter = PostingsIter<'a>;

    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Postings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Postings {
    fn eq(&self, other: &Postings) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Postings {}

impl PartialEq<[SequenceNumber]> for Postings {
    fn eq(&self, other: &[SequenceNumber]) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter().copied())
    }
}

impl<const N: usize> PartialEq<[SequenceNumber; N]> for Postings {
    fn eq(&self, other: &[SequenceNumber; N]) -> bool {
        *self == other[..]
    }
}

/// One index dimension: key → postings.
type Dimension<K> = PMap<K, Postings>;

/// Sizes that drive the read model's cost, for introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IndexStats {
    /// Records held.
    pub records: usize,
    /// Leaves of the record vector (32 records each; the last may be
    /// partial).
    pub record_leaves: usize,
    /// Distinct acting principals.
    pub principal_keys: usize,
    /// Distinct channels.
    pub channel_keys: usize,
    /// Distinct values.
    pub value_keys: usize,
    /// Distinct involved principals.
    pub involved_principal_keys: usize,
    /// Postings summed over all four dimensions.
    pub postings: usize,
    /// The longest posting list in any dimension.
    pub longest_posting_list: usize,
    /// The deepest tree in the model (record trie or index B-tree), leaf
    /// level included.
    pub depth: usize,
    /// Estimated bytes held by the model's own structures: record slots,
    /// index entries, posting slots and tree nodes.  The strings and
    /// interned provenance the records point to are shared with the rest
    /// of the process and not counted.
    pub resident_bytes: usize,
}

/// Secondary indexes mapping principals, channels and values to the
/// sequence numbers of the records that mention them.
///
/// Cloning is O(1) and the clone shares every node; [`StoreIndex::insert`]
/// on either copies only the paths it changes.
#[derive(Debug, Clone, Default)]
pub struct StoreIndex {
    by_principal: Dimension<Principal>,
    by_channel: Dimension<Channel>,
    by_value: Dimension<Value>,
    /// Principals that appear anywhere in a record's provenance, not just
    /// as the acting principal.
    by_involved_principal: Dimension<Principal>,
    sizes: Sizes,
}

/// Running totals behind [`StoreIndex::stats`], kept so that it is O(1).
#[derive(Debug, Clone, Copy, Default)]
struct Sizes {
    /// Acting-principal + channel + value postings.
    entries: usize,
    /// Postings of the involved-principal dimension.
    involved_entries: usize,
    /// Slots of the leaves that hold posting lists (a single posting is
    /// stored inline and takes none).
    list_slots: usize,
    longest: usize,
}

/// Adds `seq` to `key`'s postings, copying only the path to them;
/// returns whether it was added.
///
/// Sequence numbers arrive in non-decreasing order (appends are monotone;
/// rebuilds replay in sequence order), so a record that maps to the same
/// key several times — or an insert replayed for a record already indexed
/// — only ever offers a sequence number the list already ends with, and
/// checking the tail keeps the list duplicate-free.
fn post<K: Ord + Clone>(
    dimension: &mut Dimension<K>,
    key: &K,
    seq: SequenceNumber,
    sizes: &mut Sizes,
) -> bool {
    match dimension.get(key) {
        None => {
            dimension.insert(key.clone(), Postings(Repr::One(seq)));
            sizes.longest = sizes.longest.max(1);
        }
        Some(postings) if postings.last().is_some_and(|last| last >= seq) => return false,
        Some(_) => {
            let postings = dimension.get_mut(key).expect("key present");
            postings.push(seq);
            let len = postings.len();
            if len == 2 || len % LEAF == 1 {
                sizes.list_slots += LEAF;
            }
            sizes.longest = sizes.longest.max(len);
        }
    }
    true
}

/// The index the audit engine's snapshots share between versions — the
/// same type as [`StoreIndex`].
pub type SharedStoreIndex = StoreIndex;

impl StoreIndex {
    /// An empty index.
    pub fn new() -> Self {
        StoreIndex::default()
    }

    /// Indexes one record.
    ///
    /// Posting lists are kept duplicate-free: a record whose sequence
    /// number a list already ends with (a record that maps to the same
    /// key several times, or a replayed insert) adds nothing.
    pub fn insert(&mut self, record: &ProvenanceRecord) {
        let seq = record.sequence;
        let sizes = &mut self.sizes;
        sizes.entries += post(&mut self.by_principal, &record.principal, seq, sizes) as usize;
        sizes.entries += post(&mut self.by_channel, &record.channel, seq, sizes) as usize;
        sizes.entries += post(&mut self.by_value, &record.value, seq, sizes) as usize;
        for p in record.principals_involved() {
            sizes.involved_entries +=
                post(&mut self.by_involved_principal, &p, seq, sizes) as usize;
        }
    }

    /// Builds an index from scratch.
    pub fn rebuild<'a>(records: impl IntoIterator<Item = &'a ProvenanceRecord>) -> Self {
        let mut index = StoreIndex::new();
        for r in records {
            index.insert(r);
        }
        index
    }

    /// A new index covering `self`'s records plus `records`.  Shares every
    /// node and posting list the batch does not touch with `self`
    /// (verifiable with [`StoreIndex::value_bucket`] / `Arc::ptr_eq`) and
    /// leaves `self` unchanged.
    pub fn extended<'a>(&self, records: impl IntoIterator<Item = &'a ProvenanceRecord>) -> Self {
        let mut next = self.clone();
        for r in records {
            next.insert(r);
        }
        next
    }

    fn postings<'a, K: Ord>(dimension: &'a Dimension<K>, key: &K) -> &'a Postings {
        dimension.get(key).unwrap_or(&NO_POSTINGS)
    }

    /// Sequence numbers of records where `principal` acted.
    pub fn by_principal(&self, principal: &Principal) -> &Postings {
        Self::postings(&self.by_principal, principal)
    }

    /// Sequence numbers of records on `channel`.
    pub fn by_channel(&self, channel: &Channel) -> &Postings {
        Self::postings(&self.by_channel, channel)
    }

    /// Sequence numbers of records whose exchanged value is `value`.
    pub fn by_value(&self, value: &Value) -> &Postings {
        Self::postings(&self.by_value, value)
    }

    /// Sequence numbers of records whose provenance mentions `principal`
    /// anywhere (acting or historical).
    pub fn by_involved_principal(&self, principal: &Principal) -> &Postings {
        Self::postings(&self.by_involved_principal, principal)
    }

    /// All principals that ever acted, in order.
    pub fn principals(&self) -> impl Iterator<Item = &Principal> {
        self.by_principal.iter().map(|(key, _)| key)
    }

    /// All channels that ever carried a value, in order.
    pub fn channels(&self) -> impl Iterator<Item = &Channel> {
        self.by_channel.iter().map(|(key, _)| key)
    }

    /// All distinct values ever exchanged, in order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.by_value.iter().map(|(key, _)| key)
    }

    /// Number of acting-principal, channel and value postings (for
    /// introspection and tests).
    pub fn entry_count(&self) -> usize {
        self.sizes.entries
    }

    /// The shared postings behind [`StoreIndex::by_value`], exposed so
    /// sharing across extended indexes is checkable (`Arc::ptr_eq`).
    pub fn value_bucket(&self, value: &Value) -> Option<&Arc<Postings>> {
        self.by_value.get_shared(value)
    }

    /// The shared postings behind [`StoreIndex::by_principal`], exposed so
    /// sharing across extended indexes is checkable (`Arc::ptr_eq`).
    pub fn principal_bucket(&self, principal: &Principal) -> Option<&Arc<Postings>> {
        self.by_principal.get_shared(principal)
    }

    /// Sizes of this index together with the records it indexes.
    pub fn stats(&self, records: &RecordVec) -> IndexStats {
        fn keyed<K>(dimension: &Dimension<K>) -> usize {
            // One leaf slot (the key and a pointer) per key, the leaf half
            // full at worst, and one postings allocation with its `Arc`
            // counts.
            dimension.len()
                * (2 * (size_of::<K>() + size_of::<usize>())
                    + size_of::<Postings>()
                    + 2 * size_of::<usize>())
        }
        let record_slot = size_of::<OnceLock<ProvenanceRecord>>();
        let posting_slot = size_of::<OnceLock<SequenceNumber>>();
        let resident = records.leaf_count() * (LEAF * record_slot + 2 * size_of::<usize>())
            + keyed(&self.by_principal)
            + keyed(&self.by_channel)
            + keyed(&self.by_value)
            + keyed(&self.by_involved_principal)
            + self.sizes.list_slots * posting_slot;
        IndexStats {
            records: records.len(),
            record_leaves: records.leaf_count(),
            principal_keys: self.by_principal.len(),
            channel_keys: self.by_channel.len(),
            value_keys: self.by_value.len(),
            involved_principal_keys: self.by_involved_principal.len(),
            postings: self.sizes.entries + self.sizes.involved_entries,
            longest_posting_list: self.sizes.longest,
            depth: [
                records.depth(),
                self.by_principal.depth(),
                self.by_channel.depth(),
                self.by_value.depth(),
                self.by_involved_principal.depth(),
            ]
            .into_iter()
            .max()
            .unwrap_or(0),
            resident_bytes: resident,
        }
    }
}

/// The records of a log in ascending sequence order, as a persistent
/// append-only vector.
///
/// Cloning is O(1); a clone shares every leaf, and appending to either
/// never copies an earlier record.
#[derive(Debug, Clone, Default)]
pub struct RecordVec {
    records: PVec<ProvenanceRecord>,
    /// Maximal runs of consecutive sequence numbers.
    runs: usize,
}

impl RecordVec {
    /// No records.
    pub fn new() -> Self {
        RecordVec::default()
    }

    /// Appends `record`, whose sequence number must exceed every held one;
    /// a record at or below [`RecordVec::last_sequence`] (a replay) is
    /// ignored.  Returns whether the record was appended.
    pub fn push(&mut self, record: ProvenanceRecord) -> bool {
        match self.records.last().map(|r| r.sequence) {
            Some(last) if record.sequence <= last => return false,
            Some(last) if record.sequence == last + 1 => {}
            _ => self.runs += 1,
        }
        self.records.push(record);
        true
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when there are no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The highest sequence number held (0 when empty).
    pub fn last_sequence(&self) -> SequenceNumber {
        self.records.last().map_or(0, |r| r.sequence)
    }

    /// Maximal runs of consecutive sequence numbers: 1 for a log that was
    /// never compacted, one more per gap a compaction left.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Leaves of the underlying vector.
    pub fn leaf_count(&self) -> usize {
        self.records.leaf_count()
    }

    /// The `n`-th leaf's allocation, for `Arc::ptr_eq` sharing checks.
    pub fn leaf(&self, n: usize) -> Option<&Arc<[OnceLock<ProvenanceRecord>]>> {
        self.records.leaf(n)
    }

    /// Levels of the underlying trie, leaf level included.
    pub fn depth(&self) -> usize {
        self.records.depth()
    }

    /// Looks up a record by sequence number.
    pub fn get(&self, sequence: SequenceNumber) -> Option<&ProvenanceRecord> {
        let first = self.records.get(0)?.sequence;
        let offset = usize::try_from(sequence.checked_sub(first)?).ok()?;
        if self.runs == 1 {
            return self.records.get(offset);
        }
        // Record i has a sequence number of at least first + i, so the
        // record sits at or before `offset`.
        let (mut low, mut high) = (0, offset.saturating_add(1).min(self.records.len()));
        while low < high {
            let mid = low + (high - low) / 2;
            let found = self.records.get(mid)?;
            match found.sequence.cmp(&sequence) {
                std::cmp::Ordering::Less => low = mid + 1,
                std::cmp::Ordering::Greater => high = mid,
                std::cmp::Ordering::Equal => return Some(found),
            }
        }
        None
    }

    /// Looks up several records by sequence number, skipping unknown ones.
    pub fn get_many<'a>(
        &'a self,
        sequences: impl IntoIterator<Item = SequenceNumber> + 'a,
    ) -> impl Iterator<Item = &'a ProvenanceRecord> + 'a {
        sequences.into_iter().filter_map(|s| self.get(s))
    }

    /// The records in sequence order.
    pub fn iter(&self) -> VecIter<'_, ProvenanceRecord> {
        self.records.iter()
    }
}

impl FromIterator<ProvenanceRecord> for RecordVec {
    fn from_iter<I: IntoIterator<Item = ProvenanceRecord>>(records: I) -> Self {
        let mut out = RecordVec::new();
        for record in records {
            out.push(record);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Operation;
    use piprov_core::provenance::{Event, Provenance};

    fn record(seq: u64, principal: &str, channel: &str, value: &str) -> ProvenanceRecord {
        ProvenanceRecord {
            sequence: seq,
            logical_time: seq,
            principal: Principal::new(principal),
            operation: Operation::Send,
            channel: Channel::new(channel),
            value: Value::Channel(Channel::new(value)),
            provenance: Provenance::single(Event::output(
                Principal::new("origin"),
                Provenance::empty(),
            )),
        }
    }

    #[test]
    fn indexes_by_all_dimensions() {
        let records = vec![
            record(1, "a", "m", "v"),
            record(2, "b", "m", "w"),
            record(3, "a", "n", "v"),
        ];
        let index = StoreIndex::rebuild(&records);
        assert_eq!(index.by_principal(&Principal::new("a")), &[1, 3]);
        assert_eq!(index.by_principal(&Principal::new("b")), &[2]);
        assert_eq!(index.by_channel(&Channel::new("m")), &[1, 2]);
        assert_eq!(index.by_value(&Value::Channel(Channel::new("v"))), &[1, 3]);
        assert!(index.by_principal(&Principal::new("zz")).is_empty());
        assert_eq!(index.principals().count(), 2);
        assert_eq!(index.channels().count(), 2);
        assert_eq!(index.values().count(), 2);
        assert_eq!(index.entry_count(), 9);
    }

    #[test]
    fn posting_lists_stay_duplicate_free() {
        // A record whose provenance mentions the same value's carriers
        // repeatedly still yields one posting per list, and replaying the
        // same record through insert (as a segment replay that revisits a
        // frame would) cannot double-count it.
        let km = Provenance::single(Event::output(Principal::new("origin"), Provenance::empty()));
        let r = ProvenanceRecord {
            sequence: 7,
            logical_time: 7,
            principal: Principal::new("origin"),
            operation: Operation::Send,
            channel: Channel::new("m"),
            value: Value::Channel(Channel::new("v")),
            // origin appears as actor, as a top-level event and nested in
            // the channel provenance of a later event.
            provenance: Provenance::single(Event::output(Principal::new("origin"), km)),
        };
        let mut index = StoreIndex::new();
        index.insert(&r);
        index.insert(&r);
        assert_eq!(index.by_principal(&Principal::new("origin")), &[7]);
        assert_eq!(index.by_channel(&Channel::new("m")), &[7]);
        assert_eq!(index.by_value(&Value::Channel(Channel::new("v"))), &[7]);
        assert_eq!(index.by_involved_principal(&Principal::new("origin")), &[7]);
        assert_eq!(index.entry_count(), 3);
    }

    #[test]
    fn shared_index_agrees_with_the_plain_index() {
        // One implementation serves both uses: an index updated in place
        // (the store's) and one grown by extension (a snapshot's) agree.
        let records = vec![
            record(1, "a", "m", "v"),
            record(2, "b", "m", "w"),
            record(3, "a", "n", "v"),
        ];
        let plain = StoreIndex::rebuild(&records);
        let shared = records.iter().fold(SharedStoreIndex::new(), |index, r| {
            index.extended(std::iter::once(r))
        });
        for p in ["a", "b", "zz"] {
            assert_eq!(
                plain.by_principal(&Principal::new(p)),
                shared.by_principal(&Principal::new(p))
            );
            assert_eq!(
                plain.by_involved_principal(&Principal::new(p)),
                shared.by_involved_principal(&Principal::new(p))
            );
        }
        assert_eq!(
            plain.by_channel(&Channel::new("m")),
            shared.by_channel(&Channel::new("m"))
        );
        assert_eq!(
            plain.by_value(&Value::Channel(Channel::new("v"))),
            shared.by_value(&Value::Channel(Channel::new("v")))
        );
        assert_eq!(plain.entry_count(), shared.entry_count());
        assert_eq!(shared.principals().count(), 2);
        assert_eq!(shared.values().count(), 2);
    }

    #[test]
    fn extended_shares_untouched_buckets_and_copies_touched_ones() {
        let base = SharedStoreIndex::rebuild(&[record(1, "a", "m", "v"), record(2, "b", "m", "w")]);
        // The batch touches value w (and principal b) but not value v.
        let next = base.extended(&[record(3, "b", "m", "w")]);

        let v = Value::Channel(Channel::new("v"));
        let w = Value::Channel(Channel::new("w"));
        assert!(
            Arc::ptr_eq(
                base.value_bucket(&v).unwrap(),
                next.value_bucket(&v).unwrap()
            ),
            "untouched bucket is shared, not copied"
        );
        assert!(
            !Arc::ptr_eq(
                base.value_bucket(&w).unwrap(),
                next.value_bucket(&w).unwrap()
            ),
            "touched bucket is copied"
        );
        assert!(Arc::ptr_eq(
            base.principal_bucket(&Principal::new("a")).unwrap(),
            next.principal_bucket(&Principal::new("a")).unwrap()
        ));
        // The base index is immutable: extending never mutates it.
        assert_eq!(base.by_value(&w), &[2]);
        assert_eq!(next.by_value(&w), &[2, 3]);
        assert_eq!(next.by_value(&v), &[1]);
        // Extending matches a from-scratch rebuild.
        let rebuilt = SharedStoreIndex::rebuild(&[
            record(1, "a", "m", "v"),
            record(2, "b", "m", "w"),
            record(3, "b", "m", "w"),
        ]);
        assert_eq!(rebuilt.entry_count(), next.entry_count());
        assert_eq!(rebuilt.by_principal(&Principal::new("b")), &[2, 3]);
    }

    #[test]
    fn shared_index_insert_replay_stays_duplicate_free() {
        let base = SharedStoreIndex::rebuild(&[record(7, "a", "m", "v")]);
        let next = base.extended(&[record(7, "a", "m", "v")]);
        assert_eq!(next.by_principal(&Principal::new("a")), &[7]);
        assert_eq!(next.entry_count(), base.entry_count());
    }

    #[test]
    fn involved_principals_include_provenance_history() {
        let records = vec![record(1, "a", "m", "v")];
        let index = StoreIndex::rebuild(&records);
        assert_eq!(
            index.by_involved_principal(&Principal::new("origin")),
            &[1],
            "the historical sender appears via the provenance"
        );
        assert_eq!(index.by_involved_principal(&Principal::new("a")), &[1]);
    }

    #[test]
    fn record_lookup_is_direct_and_survives_gaps() {
        let contiguous: RecordVec = (1..=100).map(|s| record(s, "a", "m", "v")).collect();
        assert_eq!(contiguous.runs(), 1);
        assert_eq!(contiguous.get(57).unwrap().sequence, 57);
        assert!(contiguous.get(0).is_none() && contiguous.get(101).is_none());

        let gapped: RecordVec = [1, 2, 7, 8, 40, 41, 42]
            .into_iter()
            .map(|s| record(s, "a", "m", "v"))
            .collect();
        assert_eq!(gapped.runs(), 3);
        for s in [1, 2, 7, 8, 40, 41, 42] {
            assert_eq!(gapped.get(s).unwrap().sequence, s);
        }
        for s in [0, 3, 6, 9, 39, 43] {
            assert!(gapped.get(s).is_none(), "{s} is a miss");
        }
        let mut replayed = gapped.clone();
        assert!(
            !replayed.push(record(8, "a", "m", "v")),
            "a replay is ignored"
        );
        assert_eq!(replayed.len(), gapped.len());
    }

    #[test]
    fn stats_track_keys_postings_and_leaves() {
        let records: Vec<ProvenanceRecord> = (1..=70)
            .map(|s| record(s, "hot", "m", &format!("v{s}")))
            .collect();
        let index = StoreIndex::rebuild(&records);
        let vec: RecordVec = records.into_iter().collect();
        let stats = index.stats(&vec);
        assert_eq!(stats.records, 70);
        assert_eq!(stats.record_leaves, 3);
        assert_eq!(stats.value_keys, 70);
        assert_eq!(stats.principal_keys, 1);
        assert_eq!(stats.involved_principal_keys, 2);
        assert_eq!(stats.longest_posting_list, 70);
        assert_eq!(stats.postings, 70 * 5);
        assert!(stats.depth >= 2);
        assert!(stats.resident_bytes > 70 * size_of::<ProvenanceRecord>());
    }
}
