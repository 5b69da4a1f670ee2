//! The provenance store: durable, append-only storage of provenance
//! records with an in-memory read model and crash recovery.
//!
//! A [`ProvenanceStore`] is a [`SegmentLog`] (the durable half: segment
//! files, recovery, repair, rotation) plus the read model of
//! [`crate::index`] — a persistent [`RecordVec`] and [`StoreIndex`] — kept
//! in step with every append.  Recovery replays the log into the model.

use crate::error::StoreError;
use crate::index::{RecordVec, StoreIndex};
use crate::log::SegmentLog;
pub use crate::log::{RepairReport, StoreConfig, StoreStats};
use crate::record::{ProvenanceRecord, SequenceNumber};
use std::path::Path;

/// An append-only provenance store backed by segment files.
#[derive(Debug)]
pub struct ProvenanceStore {
    log: SegmentLog,
    records: RecordVec,
    index: StoreIndex,
}

impl ProvenanceStore {
    /// Opens (or creates) a store in `directory`, recovering any existing
    /// segments.
    ///
    /// A torn final append (crash mid-write) is repaired automatically.
    /// Corruption that recovery cannot attribute to a torn append — a bad
    /// frame with decodable frames after it, or any bad frame in a sealed
    /// segment — makes `open` refuse, leaving every byte in place; see
    /// [`ProvenanceStore::repair`] for the explicit, destructive way to
    /// accept the data loss and bring such a store back online.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created, a segment
    /// cannot be read, or a segment holds unrepairable corruption.
    pub fn open(directory: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(directory, StoreConfig::default())
    }

    /// Explicitly repairs a store directory that [`ProvenanceStore::open`]
    /// refuses to open; see [`SegmentLog::repair`].
    ///
    /// # Errors
    ///
    /// Returns an error if the directory or a segment cannot be read, or
    /// the truncation fails.
    pub fn repair(directory: impl AsRef<Path>) -> Result<RepairReport, StoreError> {
        SegmentLog::repair(directory)
    }

    /// Opens a store with an explicit configuration.
    ///
    /// Torn-append repair and the refuse-to-open policy for unrepairable
    /// corruption are as described on [`ProvenanceStore::open`].
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created, a segment
    /// cannot be read, or a segment holds unrepairable corruption (see
    /// [`ProvenanceStore::repair`]).
    pub fn open_with(directory: impl AsRef<Path>, config: StoreConfig) -> Result<Self, StoreError> {
        let (log, recovered) = SegmentLog::open(directory, config)?;
        Ok(ProvenanceStore::from_parts(log, recovered))
    }

    fn from_parts(log: SegmentLog, records: Vec<ProvenanceRecord>) -> Self {
        let index = StoreIndex::rebuild(&records);
        ProvenanceStore {
            log,
            records: records.into_iter().collect(),
            index,
        }
    }

    /// Splits the store into its durable log and its read model — the
    /// audit engine keeps the log and publishes the model as its first
    /// snapshot.
    pub fn into_parts(self) -> (SegmentLog, RecordVec, StoreIndex) {
        (self.log, self.records, self.index)
    }

    /// The directory backing the store.
    pub fn directory(&self) -> &Path {
        self.log.directory()
    }

    /// The configuration in use.
    pub fn config(&self) -> &StoreConfig {
        self.log.config()
    }

    /// Appends a record, assigning and returning its sequence number.
    ///
    /// # Errors
    ///
    /// Returns an error if the write fails.
    pub fn append(&mut self, mut record: ProvenanceRecord) -> Result<SequenceNumber, StoreError> {
        let seq = self.log.append(&mut record)?;
        self.index.insert(&record);
        self.records.push(record);
        Ok(seq)
    }

    /// Appends every record produced by an iterator, returning the sequence
    /// number of the last one appended (if any).
    ///
    /// # Errors
    ///
    /// Returns an error if any write fails.
    pub fn append_all(
        &mut self,
        records: impl IntoIterator<Item = ProvenanceRecord>,
    ) -> Result<Option<SequenceNumber>, StoreError> {
        let mut last = None;
        for record in records {
            last = Some(self.append(record)?);
        }
        Ok(last)
    }

    /// Flushes and syncs the active segment.
    ///
    /// # Errors
    ///
    /// Returns an error if the sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.log.sync()
    }

    /// Seals the active segment and starts a new one.
    ///
    /// # Errors
    ///
    /// Returns an error if the new segment cannot be created.
    pub fn rotate(&mut self) -> Result<(), StoreError> {
        self.log.rotate()
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

    /// Iterates over all records in sequence order.
    pub fn iter(&self) -> impl Iterator<Item = &ProvenanceRecord> {
        self.records.iter()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The secondary indexes.
    pub fn index(&self) -> &StoreIndex {
        &self.index
    }

    /// A query handle over this store.
    ///
    /// Equivalent to `StoreQuery::new(&store)`.
    pub fn query(&self) -> crate::query::StoreQuery<'_> {
        crate::query::StoreQuery::new(self)
    }

    /// Store statistics.
    pub fn stats(&self) -> StoreStats {
        self.log.stats()
    }

    /// Rewrites the store keeping only records accepted by `keep`,
    /// compacting everything into a single fresh segment and dropping the
    /// old ones.  Sequence numbers are preserved.
    ///
    /// # Errors
    ///
    /// Returns an error if rewriting fails; the original segments are left
    /// in place in that case.
    pub fn compact(&mut self, keep: impl Fn(&ProvenanceRecord) -> bool) -> Result<(), StoreError> {
        let kept: Vec<ProvenanceRecord> =
            self.records.iter().filter(|r| keep(r)).cloned().collect();
        self.log.rewrite(&kept)?;
        self.index = StoreIndex::rebuild(&kept);
        self.records = kept.into_iter().collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::existing_segments;
    use crate::record::Operation;
    use crate::segment::DEFAULT_SEGMENT_BUDGET;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;
    use std::fs;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn record(t: u64, principal: &str, value: &str) -> ProvenanceRecord {
        ProvenanceRecord::new(
            t,
            principal,
            Operation::Send,
            "m",
            Value::Channel(Channel::new(value)),
            Provenance::single(Event::output(
                Principal::new(principal),
                Provenance::empty(),
            )),
        )
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("piprov-store-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_assigns_monotone_sequence_numbers() {
        let dir = temp_dir("seq");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let s1 = store.append(record(1, "a", "v")).unwrap();
        let s2 = store.append(record(2, "b", "w")).unwrap();
        assert!(s2 > s1);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(s1).unwrap().principal, Principal::new("a"));
        assert!(store.get(999).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_restores_records_and_indexes() {
        let dir = temp_dir("recovery");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..20 {
                store
                    .append(record(i, if i % 2 == 0 { "a" } else { "b" }, "v"))
                    .unwrap();
            }
            store.sync().unwrap();
        }
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 20);
        assert_eq!(store.index().by_principal(&Principal::new("a")).len(), 10);
        assert_eq!(store.stats().segments, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequence_numbers_continue_after_recovery() {
        let dir = temp_dir("resume");
        let last = {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            store.append(record(1, "a", "v")).unwrap();
            store.append(record(2, "a", "w")).unwrap()
        };
        let mut store = ProvenanceStore::open(&dir).unwrap();
        let next = store.append(record(3, "a", "u")).unwrap();
        assert_eq!(next, last + 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_creates_new_segments() {
        let dir = temp_dir("rotate");
        let config = StoreConfig {
            segment_budget: 256,
            sync_every_append: false,
        };
        let mut store = ProvenanceStore::open_with(&dir, config).unwrap();
        for i in 0..50 {
            store.append(record(i, "a", "v")).unwrap();
        }
        assert!(store.stats().segments > 1, "{}", store.stats());
        // All records still readable after reopening.
        drop(store);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 50);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_all_returns_last_sequence() {
        let dir = temp_dir("append-all");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        let last = store
            .append_all((0..5).map(|i| record(i, "a", "v")))
            .unwrap();
        assert_eq!(last, Some(5));
        assert_eq!(store.append_all(std::iter::empty()).unwrap(), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_keeps_only_selected_records() {
        let dir = temp_dir("compact");
        let mut store = ProvenanceStore::open_with(
            &dir,
            StoreConfig {
                segment_budget: 256,
                sync_every_append: false,
            },
        )
        .unwrap();
        for i in 0..40 {
            store
                .append(record(i, if i % 4 == 0 { "keep" } else { "drop" }, "v"))
                .unwrap();
        }
        store
            .compact(|r| r.principal == Principal::new("keep"))
            .unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(store.stats().segments, 1);
        // Recovery after compaction sees only the kept records.
        drop(store);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        assert!(store.iter().all(|r| r.principal == Principal::new("keep")));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_display() {
        let dir = temp_dir("stats");
        let mut store = ProvenanceStore::open(&dir).unwrap();
        store.append(record(1, "a", "v")).unwrap();
        let shown = store.stats().to_string();
        assert!(shown.contains("1 records"));
        fs::remove_dir_all(&dir).ok();
    }

    /// Truncates the highest-numbered segment file by `cut` bytes,
    /// simulating a crash that tore the last append mid-record.
    fn tear_last_segment(dir: &Path, cut: u64) {
        let mut segments = existing_segments(dir).unwrap();
        segments.sort();
        let last = segments.last().expect("store has at least one segment");
        let file = OpenOptions::new().write(true).open(last).unwrap();
        let len = file.metadata().unwrap().len();
        assert!(cut < len, "tear must leave a partial frame behind");
        file.set_len(len - cut).unwrap();
    }

    #[test]
    fn torn_write_recovery_drops_only_the_torn_record() {
        let dir = temp_dir("torn-write");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..10 {
                store.append(record(i, "a", &format!("v{}", i))).unwrap();
            }
            store.sync().unwrap();
        }
        // Cut 3 bytes off the tail: the final record's frame is torn, every
        // earlier record is untouched.
        tear_last_segment(&dir, 3);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 9, "exactly the torn record is dropped");
        for (seq, i) in (1..=9u64).zip(0..) {
            let recovered = store.get(seq).unwrap();
            assert_eq!(recovered.logical_time, i);
            assert_eq!(
                recovered.value,
                Value::Channel(Channel::new(format!("v{}", i)))
            );
        }
        assert!(store.get(10).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_in_last_segment_leaves_sealed_segments_whole() {
        let dir = temp_dir("torn-multi");
        let written = {
            let mut store = ProvenanceStore::open_with(
                &dir,
                StoreConfig {
                    segment_budget: 256,
                    sync_every_append: false,
                },
            )
            .unwrap();
            for i in 0..50 {
                store.append(record(i, "a", "v")).unwrap();
            }
            // An append can land exactly on a rotation boundary, leaving a
            // fresh empty active segment; keep appending until the newest
            // segment holds a record so the tear hits a partial frame.
            let mut extra = 50;
            loop {
                store.sync().unwrap();
                let mut segments = existing_segments(&dir).unwrap();
                segments.sort();
                let last_len = fs::metadata(segments.last().unwrap()).unwrap().len();
                if last_len > 2 {
                    break;
                }
                store.append(record(extra, "a", "v")).unwrap();
                extra += 1;
            }
            assert!(store.stats().segments > 1, "test needs several segments");
            store.len()
        };
        tear_last_segment(&dir, 2);
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(
            store.len(),
            written - 1,
            "only the torn tail record is lost"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_refuses_to_open_and_preserves_the_file() {
        let dir = temp_dir("midfile-corrupt");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        // Flip a byte inside the FIRST record's body (well past the 8-byte
        // frame header, so both length prefixes stay intact): the CRC
        // breaks while four complete, valid frames follow.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let path = segments.last().unwrap().clone();
        let mut contents = fs::read(&path).unwrap();
        let len_before = contents.len();
        contents[12] ^= 0xFF;
        fs::write(&path, &contents).unwrap();

        let result = ProvenanceStore::open(&dir);
        assert!(
            result.is_err(),
            "mid-file corruption must refuse to open, not truncate"
        );
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            len_before,
            "the corrupt file is preserved as evidence"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_length_prefix_midfile_refuses_to_open() {
        let dir = temp_dir("midfile-badlen");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        // Inflate the second frame's length prefix: the bad frame claims
        // to run past end-of-file, but three durable records follow it and
        // must not be truncated away.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let path = segments.last().unwrap().clone();
        let mut contents = fs::read(&path).unwrap();
        let len_before = contents.len();
        let first_frame_len = {
            // The first record the store persisted: logical time 0, and
            // append assigned it sequence 1.
            let mut first = record(0, "a", "v");
            first.sequence = 1;
            crate::codec::encode_framed(&first).len()
        };
        contents[first_frame_len] = 0xFF;
        fs::write(&path, &contents).unwrap();

        assert!(ProvenanceStore::open(&dir).is_err());
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            len_before,
            "no byte of the suspect file is destroyed"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_hole_in_unsynced_tail_refuses_then_repairs() {
        let dir = temp_dir("crash-hole");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..3 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        // Simulate a crash where the OS flushed a LATER page of the
        // unsynced tail but not an earlier one: garbage where frame A
        // would be, followed by a fully valid frame C.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let path = segments.last().unwrap().clone();
        let mut contents = fs::read(&path).unwrap();
        let synced_len = contents.len();
        let mut unflushed = record(7, "a", "v");
        unflushed.sequence = 4;
        let valid_frame = crate::codec::encode_framed(&unflushed);
        contents.extend_from_slice(&vec![0u8; valid_frame.len()]); // the hole
        contents.extend_from_slice(&valid_frame);
        fs::write(&path, &contents).unwrap();

        // File contents alone cannot distinguish this from bitrot, so open
        // refuses rather than destroying data…
        assert!(ProvenanceStore::open(&dir).is_err());
        // …and the operator's explicit repair truncates the unsynced tail
        // and brings the store back.
        let report = ProvenanceStore::repair(&dir).unwrap();
        assert_eq!(report.truncated_bytes, 2 * valid_frame.len());
        assert!(report.corrupt_sealed_segments.is_empty());
        assert_eq!(
            fs::metadata(&path).unwrap().len() as usize,
            synced_len,
            "repair keeps exactly the synced prefix"
        );
        let mut store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        store.append(record(9, "b", "w")).unwrap();
        store.sync().unwrap();
        drop(store);
        assert_eq!(ProvenanceStore::open(&dir).unwrap().len(), 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_on_a_clean_store_is_a_no_op() {
        let dir = temp_dir("repair-clean");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            store.append(record(1, "a", "v")).unwrap();
            store.sync().unwrap();
        }
        let report = ProvenanceStore::repair(&dir).unwrap();
        assert_eq!(report, RepairReport::default());
        assert_eq!(ProvenanceStore::open(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_in_a_sealed_segment_refuses_to_open() {
        let dir = temp_dir("sealed-corrupt");
        {
            let mut store = ProvenanceStore::open_with(
                &dir,
                StoreConfig {
                    segment_budget: 256,
                    sync_every_append: false,
                },
            )
            .unwrap();
            for i in 0..50 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
            assert!(store.stats().segments > 1, "test needs a sealed segment");
        }
        // Flip a byte inside the FIRST (sealed) segment's first record
        // body: sealed segments are never legitimately torn, so recovery
        // must refuse rather than silently serve a partial store.
        let mut segments = existing_segments(&dir).unwrap();
        segments.sort();
        let sealed = segments.first().unwrap().clone();
        let mut contents = fs::read(&sealed).unwrap();
        contents[12] ^= 0xFF;
        fs::write(&sealed, &contents).unwrap();

        assert!(ProvenanceStore::open(&dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_torn_tail_so_appends_survive_the_next_reopen() {
        let dir = temp_dir("torn-resume");
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            for i in 0..5 {
                store.append(record(i, "a", "v")).unwrap();
            }
            store.sync().unwrap();
        }
        tear_last_segment(&dir, 4);
        {
            let mut store = ProvenanceStore::open(&dir).unwrap();
            assert_eq!(store.len(), 4);
            // Appending after recovery must land where the torn frame was
            // truncated, not after leftover garbage.
            store.append(record(99, "b", "w")).unwrap();
            store.sync().unwrap();
        }
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 5, "post-recovery append survives a reopen");
        assert_eq!(
            store
                .iter()
                .filter(|r| r.principal == Principal::new("b"))
                .count(),
            1
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_rotation_appends_nothing_and_keeps_the_model_in_step() {
        let dir = temp_dir("rotate-fails");
        let config = StoreConfig {
            segment_budget: 1,
            sync_every_append: false,
        };
        let mut store = ProvenanceStore::open_with(&dir, config.clone()).unwrap();
        assert_eq!(store.append(record(1, "a", "v")).unwrap(), 1);
        // The active segment is full, so the next append rotates first;
        // a directory squatting on the next segment's name makes that fail.
        let blocker = dir.join("seg-000002.plog");
        fs::create_dir(&blocker).unwrap();
        assert!(store.append(record(2, "b", "w")).is_err());
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().records, store.len());
        assert_eq!(store.stats().segments, 1);
        assert!(store.get(2).is_none());
        assert!(store.index().by_principal(&Principal::new("b")).is_empty());
        // Once the rotation can succeed the store carries on without a
        // sequence gap, and the failed record never reached the disk.
        fs::remove_dir(&blocker).unwrap();
        assert_eq!(store.append(record(3, "c", "u")).unwrap(), 2);
        assert_eq!(store.stats().segments, 2);
        assert_eq!(store.stats().records, store.len());
        store.sync().unwrap();
        drop(store);
        let store = ProvenanceStore::open_with(&dir, config).unwrap();
        assert_eq!(
            store
                .iter()
                .map(|r| (r.sequence, r.logical_time))
                .collect::<Vec<_>>(),
            vec![(1, 1), (2, 3)]
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sync_every_append_is_durable_without_explicit_sync() {
        let dir = temp_dir("durable");
        {
            let mut store = ProvenanceStore::open_with(
                &dir,
                StoreConfig {
                    segment_budget: DEFAULT_SEGMENT_BUDGET,
                    sync_every_append: true,
                },
            )
            .unwrap();
            store.append(record(1, "a", "v")).unwrap();
            // No explicit sync; drop without flushing the BufWriter would
            // normally lose the record, but sync_every_append persisted it.
        }
        let store = ProvenanceStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
