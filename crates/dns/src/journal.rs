//! The crash-safe ingest journal (`SIBJRNL`) — write-ahead durability
//! for live delta ingestion.
//!
//! A resident daemon accepting [`SnapshotDelta`]s must not lose an
//! accepted delta to a crash, so each one is appended here **before** it
//! is applied to the in-memory window. At startup the journal is
//! replayed to recover every durably-accepted delta; once a month is
//! compacted into the snapshot store the journal is reset to empty.
//!
//! # Format
//!
//! ```text
//! header (24 bytes):  "SIBJRNL\0" | version u32 | endian tag u32 | base seq u64
//! record:             len u32 | fnv1a-64(payload) u64 | payload
//! payload:            from u32 | to u32 | change count u32
//!                     per change: domain u32 | flags u32
//!                       flags bit0: old side present, bit1: new side
//!                       per present side: n4 u32, n4×u32, n6 u32, n6×u128
//! ```
//!
//! The first 16 header bytes are the shared [`crate::sealed`] preamble.
//! Integers are native-endian, months use the shared date encoding, and
//! each record carries its own FNV-1a 64 checksum.
//! Records are not aligned — the journal is decoded by sequential copy,
//! never cast.
//!
//! # Sequence numbers
//!
//! Every record carries an implicit **sequence number**: the count of
//! deltas ever accepted by this journal, starting at 1. The header's
//! `base seq` is the sequence number of the last record dropped by a
//! compaction [`IngestJournal::reset`], so the `i`-th record in the file
//! (0-based) has sequence `base seq + i + 1` and
//! [`IngestJournal::next_seq`] is stable across both restarts and
//! compactions. The serving layer derives its published epoch from it
//! (`epoch = 1 + seq`), which is what makes a replication feed cursor
//! exact across primary crashes. `reset` advances `base seq` by
//! publishing a fresh header with the shared atomic write, so the header
//! itself can never be torn by a crashed compaction.
//!
//! # Durability and torn tails
//!
//! `append` follows the store's discipline: write, then `fsync` the
//! file (the directory is synced once, when the journal is created).
//! A crash mid-append leaves a **torn tail** — a record whose length
//! field, payload, or checksum is incomplete. Replay detects the first
//! such record, discards it *and everything after it* (past a torn
//! boundary there is no trustworthy framing), and truncates the file
//! back to the last good record, reporting how many bytes were dropped.
//! Torn tails are an expected crash artifact, never a panic; genuinely
//! foreign or version-mismatched files are rejected with the same typed
//! [`StoreError`]s the snapshot store uses.
//!
//! Failpoint sites (`--features failpoints`): `journal::append` (torn
//! or failed record writes), `journal::sync` (failed fsync — the
//! not-yet-durable record is chopped back off), `journal::replay`
//! (short reads at recovery), and `journal-reset::{write,sync,rename}`
//! (the header publish behind `reset` and a fresh create).

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use crate::delta::{DomainChange, SnapshotDelta};
use crate::name::DomainId;
use crate::sealed::{self, put_u32, put_u64, read_u32, read_u64, Format};
use crate::snapshot::ResolvedAddrs;
use crate::store::StoreError;

const HEADER_LEN: usize = 24;
/// Record framing: length (u32) + payload checksum (u64).
const RECORD_HEADER: usize = 12;

/// Header publishes get their own failpoint family, `journal-reset`:
/// `journal::sync` is the fsync after an append.
const FORMAT: Format = Format {
    magic: *b"SIBJRNL\0",
    version: 2,
    header_len: HEADER_LEN,
    seal_at: None,
    family: "journal-reset",
};

fn header_bytes(base_seq: u64) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    FORMAT.put_preamble(&mut header);
    put_u64(&mut header, 16, base_seq);
    header
}

fn push_u32(buf: &mut Vec<u8>, value: u32) {
    buf.extend_from_slice(&value.to_ne_bytes());
}

fn push_addrs(buf: &mut Vec<u8>, addrs: &ResolvedAddrs) {
    push_u32(buf, addrs.v4.len() as u32);
    for a in &addrs.v4 {
        buf.extend_from_slice(&a.to_ne_bytes());
    }
    push_u32(buf, addrs.v6.len() as u32);
    for a in &addrs.v6 {
        buf.extend_from_slice(&a.to_ne_bytes());
    }
}

/// Encodes one delta as a record payload (module docs). Also the wire
/// form the serving layer's `ingest` verb carries (hex-armored), so the
/// journal and the protocol cannot drift apart.
pub fn encode_delta(delta: &SnapshotDelta) -> Vec<u8> {
    let mut buf = Vec::new();
    push_u32(&mut buf, sealed::encode_date(delta.from_date()));
    push_u32(&mut buf, sealed::encode_date(delta.to_date()));
    push_u32(&mut buf, delta.changes().len() as u32);
    for change in delta.changes() {
        push_u32(&mut buf, change.domain.0);
        let flags = change.old.is_some() as u32 | (change.new.is_some() as u32) << 1;
        push_u32(&mut buf, flags);
        if let Some(addrs) = &change.old {
            push_addrs(&mut buf, addrs);
        }
        if let Some(addrs) = &change.new {
            push_addrs(&mut buf, addrs);
        }
    }
    buf
}

/// A bounds-checked sequential reader over a record payload. Every read
/// failure means the (checksum-valid) payload disagrees with its own
/// counts — a writer bug or format break, reported as [`StoreError::Corrupt`].
struct PayloadReader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> PayloadReader<'a> {
    fn take_u32(&mut self) -> Result<u32, StoreError> {
        if self.bytes.len() - self.at < 4 {
            return Err(StoreError::Corrupt("journal payload shorter than counts"));
        }
        let v = read_u32(self.bytes, self.at);
        self.at += 4;
        Ok(v)
    }

    fn take_addrs(&mut self) -> Result<ResolvedAddrs, StoreError> {
        let n4 = self.take_u32()? as usize;
        if (self.bytes.len() - self.at) / 4 < n4 {
            return Err(StoreError::Corrupt("journal payload shorter than counts"));
        }
        let v4: Vec<u32> = (0..n4)
            .map(|i| read_u32(self.bytes, self.at + i * 4))
            .collect();
        self.at += n4 * 4;
        let n6 = self.take_u32()? as usize;
        if (self.bytes.len() - self.at) / 16 < n6 {
            return Err(StoreError::Corrupt("journal payload shorter than counts"));
        }
        let v6: Vec<u128> = (0..n6)
            .map(|i| {
                u128::from_ne_bytes(
                    self.bytes[self.at + i * 16..self.at + (i + 1) * 16]
                        .try_into()
                        .expect("bounds checked"),
                )
            })
            .collect();
        self.at += n6 * 16;
        Ok(ResolvedAddrs { v4, v6 })
    }
}

/// Decodes one checksum-valid record payload back into a delta — the
/// inverse of [`encode_delta`], shared with the serving layer's wire
/// format.
pub fn decode_delta(payload: &[u8]) -> Result<SnapshotDelta, StoreError> {
    let mut r = PayloadReader {
        bytes: payload,
        at: 0,
    };
    let from = sealed::decode_date(r.take_u32()?)
        .ok_or(StoreError::Corrupt("journal record date out of range"))?;
    let to = sealed::decode_date(r.take_u32()?)
        .ok_or(StoreError::Corrupt("journal record date out of range"))?;
    let count = r.take_u32()? as usize;
    let mut changes = Vec::with_capacity(count.min(payload.len() / 8));
    for _ in 0..count {
        let domain = DomainId(r.take_u32()?);
        let flags = r.take_u32()?;
        if flags & !0b11 != 0 || flags == 0 {
            return Err(StoreError::Corrupt("journal change flags invalid"));
        }
        let old = (flags & 0b01 != 0).then(|| r.take_addrs()).transpose()?;
        let new = (flags & 0b10 != 0).then(|| r.take_addrs()).transpose()?;
        changes.push(DomainChange { domain, old, new });
    }
    if r.at != payload.len() {
        return Err(StoreError::Corrupt("journal payload longer than counts"));
    }
    Ok(SnapshotDelta::from_changes(from, to, changes))
}

/// What replaying the journal at open recovered.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Every durably-recorded delta, in append order.
    pub deltas: Vec<SnapshotDelta>,
    /// Bytes of torn/corrupt tail discarded (0 on a clean open). The
    /// file was truncated back to the last good record.
    pub discarded_bytes: u64,
    /// Sequence number of the last record a compaction dropped; the
    /// first delta in `deltas` has sequence `base_seq + 1`.
    pub base_seq: u64,
}

/// The append-only ingest journal (module docs).
#[derive(Debug)]
pub struct IngestJournal {
    path: PathBuf,
    file: File,
    /// End offset of the last durably committed record — where the next
    /// append writes.
    end: u64,
    /// Sequence number of the last record dropped by a compaction reset
    /// (from the header): the file's records continue the count from
    /// here.
    base_seq: u64,
    /// Durably committed records currently in the file.
    records: u64,
    /// Set when a failed append could not be chopped back off: the tail
    /// is torn and in-process appends would frame garbage. Recovery is
    /// a reopen (replay discards the torn tail).
    poisoned: bool,
}

impl IngestJournal {
    /// Opens (or creates) the journal at `path` and replays it.
    ///
    /// A missing file is created with a fresh header, published
    /// atomically. A torn tail is truncated away and reported. A file
    /// that is not a journal — wrong magic, foreign endianness,
    /// unsupported version — is a typed error; the caller decides
    /// whether to quarantine.
    pub fn open(path: &Path) -> Result<(Self, ReplayReport), StoreError> {
        // A failed header publish leaves only its temp file behind.
        let name = path.file_name().and_then(|name| name.to_str());
        sealed::sweep(sealed::parent_dir(path), |tmp_of| Some(tmp_of) == name)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // Short-read injection for recovery tests: only the first N
        // bytes of the journal are visible to replay.
        if let Some(visible) = sibling_failpoint::io_point("journal::replay")? {
            bytes.truncate(visible);
        }

        if bytes.len() < HEADER_LEN {
            // Empty (fresh create) or a torn header. Neither can hold
            // records, so a fresh header loses nothing — but only if the
            // fragment is actually ours. Fresh headers are always written
            // with base sequence 0; nonzero bases only ever land whole.
            if !header_bytes(0).starts_with(&bytes) {
                return Err(StoreError::BadMagic);
            }
            bytes = header_bytes(0).to_vec();
            file = FORMAT.write(path, &bytes)?;
        }
        FORMAT.check_header(&bytes)?;

        let mut report = ReplayReport {
            base_seq: read_u64(&bytes, 16),
            ..ReplayReport::default()
        };
        let mut at = HEADER_LEN;
        loop {
            let remaining = bytes.len() - at;
            if remaining == 0 {
                break;
            }
            if remaining < RECORD_HEADER {
                break; // torn record header
            }
            let len = read_u32(&bytes, at) as usize;
            let want = read_u64(&bytes, at + 4);
            let Some(payload) = bytes.get(at + RECORD_HEADER..at + RECORD_HEADER + len) else {
                break; // torn payload
            };
            if sealed::fnv1a_continue(sealed::FNV_OFFSET, payload) != want {
                break; // torn or bit-flipped payload
            }
            // A checksum-valid record that fails structural decode is
            // not a torn tail — it is a format violation, and silently
            // discarding it would drop durable data.
            report.deltas.push(decode_delta(payload)?);
            at += RECORD_HEADER + len;
        }
        if at < bytes.len() {
            report.discarded_bytes = (bytes.len() - at) as u64;
            file.set_len(at as u64)?;
            file.sync_all()?;
        }
        let records = report.deltas.len() as u64;
        Ok((
            Self {
                path: path.to_path_buf(),
                file,
                end: at as u64,
                base_seq: report.base_seq,
                records,
                poisoned: false,
            },
            report,
        ))
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of bytes of committed records (excluding the header) —
    /// what a compaction reset will drop.
    pub fn record_bytes(&self) -> u64 {
        self.end - HEADER_LEN as u64
    }

    /// Number of durably committed records currently in the file.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Sequence number of the last record dropped by a compaction
    /// reset; the file's records continue the count from here.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// Sequence number of the last durably accepted delta — the count
    /// of deltas this journal has ever committed, stable across both
    /// restarts and compaction resets (module docs).
    pub fn last_seq(&self) -> u64 {
        self.base_seq + self.records
    }

    /// Appends one delta durably: record written, file fsync'd. Only
    /// after `append` returns `Ok` may the delta be applied to the
    /// window — that order is the crash-safety argument.
    ///
    /// On failure the partial record is chopped back off so the journal
    /// stays appendable; if even that fails the journal is poisoned and
    /// every further append errors until a reopen replays around the
    /// torn tail.
    pub fn append(&mut self, delta: &SnapshotDelta) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Corrupt("journal tail torn by a failed append"));
        }
        let payload = encode_delta(delta);
        let mut record = vec![0u8; RECORD_HEADER];
        put_u32(&mut record, 0, payload.len() as u32);
        put_u64(
            &mut record,
            4,
            sealed::fnv1a_continue(sealed::FNV_OFFSET, &payload),
        );
        record.extend_from_slice(&payload);
        match self.write_record(&record) {
            Ok(()) => {
                self.end += record.len() as u64;
                self.records += 1;
                Ok(())
            }
            Err(err) => {
                if self.file.set_len(self.end).is_err() {
                    self.poisoned = true;
                }
                Err(err.into())
            }
        }
    }

    fn write_record(&mut self, record: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(self.end))?;
        sealed::write_synced(&mut self.file, record, "journal", "append")
    }

    /// Drops every record (after a compaction has persisted their
    /// effects elsewhere): the journal shrinks back to a bare header
    /// whose base sequence has advanced past the dropped records, so
    /// [`IngestJournal::last_seq`] is unchanged.
    ///
    /// The new header is published atomically — written to a temp file,
    /// fsync'd, renamed over the journal — because truncating and
    /// rewriting in place could tear the base sequence and silently
    /// rewind the epoch count on the next recovery.
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.file = FORMAT.write(&self.path, &header_bytes(self.last_seq()))?;
        self.end = HEADER_LEN as u64;
        self.base_seq += self.records;
        self.records = 0;
        self.poisoned = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::DnsSnapshot;
    use sibling_net_types::MonthDate;
    use std::io::Write;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sibling-journal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ingest.sibjrnl")
    }

    fn snap(date: MonthDate, entries: &[(u32, u32, u128)]) -> DnsSnapshot {
        let mut s = DnsSnapshot::new(date);
        for (id, v4, v6) in entries {
            s.merge(DomainId(*id), vec![*v4], vec![*v6]);
        }
        s
    }

    fn sample_deltas() -> Vec<SnapshotDelta> {
        let m = |k| MonthDate::new(2024, k);
        let s1 = snap(m(1), &[(1, 10, 100), (2, 20, 200)]);
        let s2 = snap(m(2), &[(1, 11, 100), (3, 30, 300)]);
        let s3 = snap(m(3), &[(3, 30, 300)]);
        vec![SnapshotDelta::diff(&s1, &s2), SnapshotDelta::diff(&s2, &s3)]
    }

    #[test]
    fn append_replay_round_trips() {
        let path = scratch("roundtrip");
        let deltas = sample_deltas();
        {
            let (mut journal, report) = IngestJournal::open(&path).unwrap();
            assert!(report.deltas.is_empty());
            assert_eq!(report.discarded_bytes, 0);
            for delta in &deltas {
                journal.append(delta).unwrap();
            }
            assert!(journal.record_bytes() > 0);
        }
        let (journal, report) = IngestJournal::open(&path).unwrap();
        assert_eq!(report.discarded_bytes, 0);
        assert_eq!(report.deltas, deltas);
        assert!(journal.record_bytes() > 0);
    }

    #[test]
    fn empty_delta_and_empty_families_round_trip() {
        let path = scratch("empty");
        let m = |k| MonthDate::new(2024, k);
        // An empty delta (date move only) and single-family entries.
        let a = snap(m(1), &[(1, 10, 100)]);
        let b = a.redated(m(2));
        let mut c = DnsSnapshot::new(m(3));
        c.merge(DomainId(1), vec![10], vec![]);
        c.merge(DomainId(2), vec![], vec![7]);
        let deltas = vec![SnapshotDelta::diff(&a, &b), SnapshotDelta::diff(&b, &c)];
        let (mut journal, _) = IngestJournal::open(&path).unwrap();
        for delta in &deltas {
            journal.append(delta).unwrap();
        }
        drop(journal);
        let (_, report) = IngestJournal::open(&path).unwrap();
        assert_eq!(report.deltas, deltas);
        // Applying the replayed chain reproduces the final snapshot.
        let mut cur = a;
        for delta in &report.deltas {
            cur = delta.apply(&cur);
        }
        assert_eq!(cur, c);
    }

    #[test]
    fn torn_tail_is_discarded_and_truncated() {
        let path = scratch("torn");
        let deltas = sample_deltas();
        {
            let (mut journal, _) = IngestJournal::open(&path).unwrap();
            for delta in &deltas {
                journal.append(delta).unwrap();
            }
        }
        // Crash artifact: garbage after the last record.
        let clean_len = std::fs::metadata(&path).unwrap().len();
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        file.write_all(&[0xAA; 23]).unwrap();
        drop(file);

        let (_, report) = IngestJournal::open(&path).unwrap();
        assert_eq!(report.deltas, deltas);
        assert_eq!(report.discarded_bytes, 23);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), clean_len);
        // The reopen after truncation is clean.
        let (_, report) = IngestJournal::open(&path).unwrap();
        assert_eq!(report.deltas, deltas);
        assert_eq!(report.discarded_bytes, 0);
    }

    #[test]
    fn bitflip_in_last_record_discards_only_it() {
        let path = scratch("bitflip");
        let deltas = sample_deltas();
        {
            let (mut journal, _) = IngestJournal::open(&path).unwrap();
            for delta in &deltas {
                journal.append(delta).unwrap();
            }
        }
        // Flip one payload byte of the *last* record.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, report) = IngestJournal::open(&path).unwrap();
        assert_eq!(report.deltas, deltas[..1]);
        assert!(report.discarded_bytes > 0);
    }

    #[test]
    fn foreign_files_are_rejected_not_truncated() {
        let path = scratch("foreign");
        std::fs::write(&path, b"definitely not a journal, much longer").unwrap();
        assert!(matches!(
            IngestJournal::open(&path).unwrap_err(),
            StoreError::BadMagic
        ));
        // Short fragment that is not a header prefix: also rejected.
        std::fs::write(&path, b"SIBSNAP\0").unwrap();
        assert!(matches!(
            IngestJournal::open(&path).unwrap_err(),
            StoreError::BadMagic
        ));
        // A torn fragment of our own header is rewritten cleanly.
        std::fs::write(&path, &header_bytes(0)[..7]).unwrap();
        let (_, report) = IngestJournal::open(&path).unwrap();
        assert!(report.deltas.is_empty());
    }

    #[test]
    fn reset_drops_all_records() {
        let path = scratch("reset");
        let deltas = sample_deltas();
        let (mut journal, _) = IngestJournal::open(&path).unwrap();
        for delta in &deltas {
            journal.append(delta).unwrap();
        }
        journal.reset().unwrap();
        assert_eq!(journal.record_bytes(), 0);
        assert_eq!(journal.record_count(), 0);
        // Appends after reset still frame correctly.
        journal.append(&deltas[1]).unwrap();
        drop(journal);
        let (_, report) = IngestJournal::open(&path).unwrap();
        assert_eq!(report.deltas, deltas[1..]);
    }

    #[test]
    fn sequence_numbers_survive_reset_and_reopen() {
        let path = scratch("sequence");
        let deltas = sample_deltas();
        let (mut journal, report) = IngestJournal::open(&path).unwrap();
        assert_eq!((report.base_seq, journal.last_seq()), (0, 0));
        for delta in &deltas {
            journal.append(delta).unwrap();
        }
        assert_eq!(journal.last_seq(), 2);

        // Compaction: the records go, the count does not.
        journal.reset().unwrap();
        assert_eq!(journal.base_seq(), 2);
        assert_eq!(journal.last_seq(), 2);
        journal.append(&deltas[1]).unwrap();
        assert_eq!(journal.last_seq(), 3);
        drop(journal);

        // Restart: the header's base sequence restores the count.
        let (journal, report) = IngestJournal::open(&path).unwrap();
        assert_eq!(report.base_seq, 2);
        assert_eq!(report.deltas, deltas[1..]);
        assert_eq!(journal.record_count(), 1);
        assert_eq!(journal.last_seq(), 3);
        // No reset-tmp residue is left behind.
        assert!(!sealed::temp_path(&path).exists());
    }

    #[test]
    fn version_bump_is_typed() {
        let path = scratch("version");
        let mut header = header_bytes(0);
        put_u32(&mut header, 8, 9);
        std::fs::write(&path, header).unwrap();
        assert!(matches!(
            IngestJournal::open(&path).unwrap_err(),
            StoreError::BadVersion(9)
        ));
    }

    /// Satellite coverage for replay accounting: truncate a journal of
    /// `n` records at every interesting byte boundary and assert the
    /// replay recovers exactly the durable prefix, truncates the torn
    /// tail, and a second open reports zero repairs (idempotence).
    #[test]
    fn replay_counts_exactly_the_durable_prefix_at_any_truncation() {
        use proptest::prelude::*;

        let path = scratch("truncation");
        let deltas = sample_deltas();
        // Record the byte offset after the header and after each record
        // by appending one delta at a time.
        let mut boundaries = Vec::new();
        {
            let (mut journal, _) = IngestJournal::open(&path).unwrap();
            boundaries.push(HEADER_LEN as u64);
            for delta in deltas.iter().chain(deltas.iter()) {
                journal.append(delta).unwrap();
                boundaries.push(journal.record_bytes() + HEADER_LEN as u64);
            }
        }
        let clean = std::fs::read(&path).unwrap();
        assert_eq!(*boundaries.last().unwrap(), clean.len() as u64);

        let mut runner = proptest::test_runner::TestRunner::default();
        runner
            .run(&(HEADER_LEN..=clean.len()), |cut| {
                std::fs::write(&path, &clean[..cut]).unwrap();
                let cut = cut as u64;
                let (journal, report) = IngestJournal::open(&path).unwrap();
                // The durable prefix: every record wholly below the
                // cut, and nothing above it.
                let durable = boundaries.iter().filter(|b| **b <= cut).count() - 1;
                prop_assert_eq!(report.deltas.len(), durable);
                let full: Vec<_> = deltas.iter().chain(deltas.iter()).collect();
                for (got, want) in report.deltas.iter().zip(&full) {
                    prop_assert_eq!(got, *want);
                }
                prop_assert_eq!(journal.record_count(), durable as u64);
                // The torn tail was exactly the bytes past the last
                // whole record, and it is gone from disk.
                prop_assert_eq!(report.discarded_bytes, cut - boundaries[durable]);
                prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), boundaries[durable]);
                // Idempotence: the truncation repaired everything — a
                // reopen reports zero discarded bytes.
                let (_, again) = IngestJournal::open(&path).unwrap();
                prop_assert_eq!(again.deltas.len(), durable);
                prop_assert_eq!(again.discarded_bytes, 0);
                Ok(())
            })
            .unwrap();
    }
}
