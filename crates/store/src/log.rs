//! The durable segment log: the write half of the store, with no
//! in-memory copy of the records.
//!
//! Layout on disk: a directory containing numbered segment files
//! `seg-000001.plog`, `seg-000002.plog`, ….  Records are appended to the
//! highest-numbered (active) segment; once it exceeds the size budget the
//! next append starts a new segment.  Recovery scans the segments in order, keeps every
//! cleanly decodable prefix, hands the recovered records to the caller and
//! resumes appending.
//!
//! [`crate::ProvenanceStore`] pairs a log with its own read model; the
//! audit engine holds a bare log and keeps its records only in its
//! published snapshots.

use crate::error::StoreError;
use crate::record::{ProvenanceRecord, SequenceNumber};
use crate::segment::{scan_segment, Segment, DEFAULT_SEGMENT_BUDGET};
use std::fmt;
use std::fs;
use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

/// Configuration of a [`SegmentLog`] (and so of a
/// [`crate::ProvenanceStore`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreConfig {
    /// Size budget of a segment before rotation, in bytes.
    pub segment_budget: usize,
    /// Whether every append is synced to stable storage (slow, durable) or
    /// only flushed on [`SegmentLog::sync`] and rotation.
    pub sync_every_append: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_budget: DEFAULT_SEGMENT_BUDGET,
            sync_every_append: false,
        }
    }
}

/// Summary statistics of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of records held.
    pub records: usize,
    /// Number of segment files (including the active one).
    pub segments: usize,
    /// Approximate bytes on disk.
    pub bytes: usize,
}

impl fmt::Display for StoreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} records in {} segments (~{} bytes)",
            self.records, self.segments, self.bytes
        )
    }
}

/// What [`SegmentLog::repair`] did to a store directory.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Bytes cut off the newest segment (0 when it was clean).
    pub truncated_bytes: usize,
    /// Sealed segments that still contain undecodable frames; repair never
    /// rewrites sealed files, so these need manual attention (or
    /// [`crate::ProvenanceStore::compact`] from a restored copy).
    pub corrupt_sealed_segments: Vec<PathBuf>,
}

/// An append-only log of provenance records in segment files.
#[derive(Debug)]
pub struct SegmentLog {
    directory: PathBuf,
    config: StoreConfig,
    active: Segment,
    active_id: u64,
    sealed: Vec<PathBuf>,
    next_sequence: SequenceNumber,
    records: usize,
    bytes_on_disk: usize,
}

impl SegmentLog {
    /// Opens (or creates) a log in `directory` with an explicit
    /// configuration, returning it with the recovered records in ascending
    /// sequence order.
    ///
    /// A torn final append (crash mid-write) is repaired automatically.
    /// Corruption that recovery cannot attribute to a torn append — a bad
    /// frame with decodable frames after it, or any bad frame in a sealed
    /// segment — makes `open` refuse, leaving every byte in place; see
    /// [`SegmentLog::repair`] for the explicit, destructive way to accept
    /// the data loss and bring such a log back online.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created, a segment
    /// cannot be read, or a segment holds unrepairable corruption.
    pub fn open(
        directory: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<(Self, Vec<ProvenanceRecord>), StoreError> {
        let directory = directory.as_ref().to_path_buf();
        fs::create_dir_all(&directory)?;
        if !directory.is_dir() {
            return Err(StoreError::InvalidDirectory(
                directory.display().to_string(),
            ));
        }
        let mut segment_paths = existing_segments(&directory)?;
        segment_paths.sort();
        let mut records = Vec::new();
        let mut bytes_on_disk = 0usize;
        for (position, path) in segment_paths.iter().enumerate() {
            let scan = scan_segment(path)?;
            let disk_len = fs::metadata(path).map(|m| m.len() as usize).unwrap_or(0);
            let is_last = position == segment_paths.len() - 1;
            match scan.error {
                // A torn tail of the newest segment is an append
                // interrupted by a crash: keep the valid prefix and
                // truncate the partial frame away, so that new appends
                // cannot land after unreadable bytes and be lost on the
                // next recovery.
                Some(_) if is_last && scan.torn_tail => {
                    let file = OpenOptions::new().write(true).open(path)?;
                    file.set_len(scan.valid_len as u64)?;
                    file.sync_data()?;
                    bytes_on_disk += scan.valid_len;
                }
                // Anything else is corruption that recovery cannot repair:
                // a bad frame with valid frames after it (bitrot, partial
                // sector rewrite) in the newest segment, or any decode
                // error in a sealed segment, which is never written again
                // and so can never have a legitimately torn tail.  Refuse
                // to open rather than silently serving a partial store:
                // the file is left untouched as evidence for repair.
                Some(error) => return Err(error),
                None => bytes_on_disk += disk_len,
            }
            records.extend(scan.records);
        }
        let records = in_sequence_order(records);
        let next_sequence = records.last().map(|r| r.sequence + 1).unwrap_or(1);
        let (active_id, active, sealed) = match segment_paths.last() {
            Some(last) => {
                let id = segment_id(last).unwrap_or(segment_paths.len() as u64);
                (
                    id,
                    Segment::open_append(last)?,
                    segment_paths[..segment_paths.len() - 1].to_vec(),
                )
            }
            None => {
                let id = 1;
                let path = segment_path(&directory, id);
                (id, Segment::create(&path)?, Vec::new())
            }
        };
        let log = SegmentLog {
            directory,
            config,
            active,
            active_id,
            sealed,
            next_sequence,
            records: records.len(),
            bytes_on_disk,
        };
        Ok((log, records))
    }

    /// Explicitly repairs a store directory that [`SegmentLog::open`]
    /// refuses to open: truncates the newest segment to its cleanly
    /// decodable prefix — discarding everything after the first bad frame,
    /// including any later frames that individually decode — and reports
    /// sealed segments that still hold corruption (those are never
    /// modified).
    ///
    /// This is the operator's decision, not recovery's: a crash can leave
    /// a hole in the unsynced tail (a later page flushed, an earlier one
    /// not), which is indistinguishable from mid-file bitrot by file
    /// contents alone.  Nothing after the last `sync` was durable, so
    /// truncating the tail is sound for the crash case; calling this on a
    /// genuinely bitrotten store destroys whatever followed the rot.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory or a segment cannot be read, or
    /// the truncation fails.
    pub fn repair(directory: impl AsRef<Path>) -> Result<RepairReport, StoreError> {
        let directory = directory.as_ref();
        let mut segment_paths = existing_segments(directory)?;
        segment_paths.sort();
        let mut report = RepairReport::default();
        let Some((newest, sealed)) = segment_paths.split_last() else {
            return Ok(report);
        };
        for path in sealed {
            if !scan_segment(path)?.is_clean() {
                report.corrupt_sealed_segments.push(path.clone());
            }
        }
        let scan = scan_segment(newest)?;
        if !scan.is_clean() {
            let disk_len = fs::metadata(newest)?.len() as usize;
            let file = OpenOptions::new().write(true).open(newest)?;
            file.set_len(scan.valid_len as u64)?;
            file.sync_data()?;
            report.truncated_bytes = disk_len - scan.valid_len;
        }
        Ok(report)
    }

    /// The directory backing the log.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// The configuration in use.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Assigns `record` the next sequence number and appends it, returning
    /// the number.  A full active segment is rotated *before* the write, so
    /// an `Ok` is the only outcome that leaves the record in the log and
    /// counted in [`SegmentLog::stats`].
    ///
    /// # Errors
    ///
    /// Returns an error if the rotation or the write fails.  A failed
    /// rotation writes nothing and spends no sequence number; a failed
    /// write spends its number, and the next append leaves a gap.
    pub fn append(&mut self, record: &mut ProvenanceRecord) -> Result<SequenceNumber, StoreError> {
        if self.active.is_full(self.config.segment_budget) {
            self.rotate()?;
        }
        record.sequence = self.next_sequence;
        self.next_sequence += 1;
        let written = self.active.append(record)?;
        self.bytes_on_disk += written;
        if self.config.sync_every_append {
            self.active.sync()?;
        }
        self.records += 1;
        Ok(record.sequence)
    }

    /// Flushes and syncs the active segment.
    ///
    /// # Errors
    ///
    /// Returns an error if the sync fails.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.active.sync()
    }

    /// Seals the active segment and starts a new one.
    ///
    /// # Errors
    ///
    /// Returns an error if the new segment cannot be created; the active
    /// segment then stays active.
    pub fn rotate(&mut self) -> Result<(), StoreError> {
        self.active.sync()?;
        let fresh = Segment::create(segment_path(&self.directory, self.active_id + 1))?;
        let sealed = std::mem::replace(&mut self.active, fresh);
        self.sealed.push(sealed.path().to_path_buf());
        self.active_id += 1;
        Ok(())
    }

    /// Log statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            records: self.records,
            segments: self.sealed.len() + 1,
            bytes: self.bytes_on_disk,
        }
    }

    /// Replaces every segment with one fresh segment holding exactly
    /// `kept` (sequence numbers preserved).
    ///
    /// # Errors
    ///
    /// Returns an error if rewriting fails; the original segments are left
    /// in place in that case.
    pub(crate) fn rewrite(&mut self, kept: &[ProvenanceRecord]) -> Result<(), StoreError> {
        self.active_id += 1;
        let path = segment_path(&self.directory, self.active_id);
        let mut fresh = Segment::create(&path)?;
        let mut bytes = 0usize;
        for record in kept {
            bytes += fresh.append(record)?;
        }
        fresh.sync()?;
        // Swap in the new state, then remove the old files.
        let old_paths: Vec<PathBuf> = self
            .sealed
            .drain(..)
            .chain(std::iter::once(self.active.path().to_path_buf()))
            .collect();
        self.active = fresh;
        self.records = kept.len();
        self.bytes_on_disk = bytes;
        for path in old_paths {
            let _ = fs::remove_file(path);
        }
        Ok(())
    }
}

/// Sorts recovered records by sequence number, keeping the last-read copy
/// of a sequence number read twice.  Segments written by this log are
/// already in order, so the common case is one linear check.
fn in_sequence_order(mut records: Vec<ProvenanceRecord>) -> Vec<ProvenanceRecord> {
    if records.windows(2).all(|w| w[0].sequence < w[1].sequence) {
        return records;
    }
    records.reverse();
    records.sort_by_key(|r| r.sequence);
    records.dedup_by_key(|r| r.sequence);
    records
}

fn segment_path(directory: &Path, id: u64) -> PathBuf {
    directory.join(format!("seg-{:06}.plog", id))
}

fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_stem()?.to_str()?;
    name.strip_prefix("seg-")?.parse().ok()
}

pub(crate) fn existing_segments(directory: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(directory)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().map(|e| e == "plog").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Operation;
    use piprov_core::name::{Channel, Principal};
    use piprov_core::provenance::{Event, Provenance};
    use piprov_core::value::Value;

    fn record(t: u64) -> ProvenanceRecord {
        ProvenanceRecord::new(
            t,
            "a",
            Operation::Send,
            "m",
            Value::Channel(Channel::new("v")),
            Provenance::single(Event::output(Principal::new("a"), Provenance::empty())),
        )
    }

    #[test]
    fn the_log_keeps_no_records_and_recovers_them_in_order() {
        let dir = std::env::temp_dir().join(format!("piprov-log-{}-order", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let (mut log, recovered) = SegmentLog::open(&dir, StoreConfig::default()).unwrap();
            assert!(recovered.is_empty());
            for t in 0..5 {
                let mut r = record(t);
                assert_eq!(log.append(&mut r).unwrap(), t + 1);
                assert_eq!(r.sequence, t + 1, "the caller's record carries its number");
            }
            log.sync().unwrap();
            assert_eq!(log.stats().records, 5);
        }
        let (log, recovered) = SegmentLog::open(&dir, StoreConfig::default()).unwrap();
        assert_eq!(
            recovered.iter().map(|r| r.sequence).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5]
        );
        assert_eq!(log.stats().records, 5);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_order_recovery_is_sorted_and_deduplicated() {
        let at = |seq: u64, t: u64| {
            let mut r = record(t);
            r.sequence = seq;
            r
        };
        let sorted = in_sequence_order(vec![at(3, 0), at(1, 0), at(3, 9), at(2, 0)]);
        assert_eq!(
            sorted
                .iter()
                .map(|r| (r.sequence, r.logical_time))
                .collect::<Vec<_>>(),
            vec![(1, 0), (2, 0), (3, 9)],
            "the copy read last wins"
        );
    }
}
