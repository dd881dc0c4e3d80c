//! The sealed-file container shared by the snapshot store (`SIBSNAP`),
//! the world store (`SIBWORLD`, in `sibling-store`) and the ingest journal
//! (`SIBJRNL`), with the byte codec they are written in. Each format is
//! one [`Format`] constant; its section layout and structural checks stay
//! with the format.
//!
//! Every file starts with a 16-byte preamble: the magic, the version at
//! offset 8 and the [`ENDIAN_TAG`] at offset 12. The store formats also
//! seal the whole file with an FNV-1a 64 checksum over every other byte
//! and the file length, so a torn or corrupted file, header included, is
//! a typed error. Failpoint sites are `<family>::{write,sync,rename,open}`.

use std::fs::{self, File};
use std::io::{self, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use mapfile::MapFile;
use sibling_net_types::MonthDate;

use crate::store::{LoadMode, StoreError};

/// The endianness tag at offset 12 of every preamble. A file written on
/// a foreign-endian host shows the byte-swapped value and is rejected
/// before any zero-copy cast.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Section alignment (bytes): every section starts on a 16-byte boundary
/// so `u32`/`u128` arrays can be reinterpreted in place.
pub const ALIGN: u64 = 16;

/// The FNV-1a 64 offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64 continuation — cheap, deterministic, dependency-free.
pub fn fnv1a_continue(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Rounds `offset` up to the next section boundary.
pub fn align16(offset: u64) -> u64 {
    offset.div_ceil(ALIGN) * ALIGN
}

/// Encodes a month as months-since-year-0 (`year*12 + month-1`).
pub fn encode_date(date: MonthDate) -> u32 {
    date.year() as u32 * 12 + (date.month() as u32 - 1)
}

/// Decodes [`encode_date`]'s representation; `None` if the year exceeds
/// the representable range (a corrupt header must not panic).
pub fn decode_date(raw: u32) -> Option<MonthDate> {
    let year = raw / 12;
    if year > u16::MAX as u32 {
        return None;
    }
    Some(MonthDate::new(year as u16, (raw % 12 + 1) as u8))
}

/// Writes a native-endian `u32` at `at`.
pub fn put_u32(buf: &mut [u8], at: usize, value: u32) {
    buf[at..at + 4].copy_from_slice(&value.to_ne_bytes());
}

/// Writes a native-endian `u64` at `at`.
pub fn put_u64(buf: &mut [u8], at: usize, value: u64) {
    buf[at..at + 8].copy_from_slice(&value.to_ne_bytes());
}

/// Reads a native-endian `u32` at `at` (caller bounds-checks).
pub fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(bytes[at..at + 4].try_into().expect("header bounds checked"))
}

/// Reads a native-endian `u64` at `at` (caller bounds-checks).
pub fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().expect("header bounds checked"))
}

/// One sealed-file format: its preamble, its seal and its failpoints.
pub struct Format {
    /// The magic at offset 0.
    pub magic: [u8; 8],
    /// The version at offset 8.
    pub version: u32,
    /// Length of the fixed header; a shorter file is truncated.
    pub header_len: usize,
    /// Header offset of the seal (checksum, then file length), if any.
    pub seal_at: Option<usize>,
    /// The failpoint family the format's sites are named after.
    pub family: &'static str,
}

/// The seal's checksum: FNV-1a 64 over `bytes` with the `skip` range
/// (the checksum's own field) excluded.
fn checksum_skipping(bytes: &[u8], skip: Range<usize>) -> u64 {
    let hash = fnv1a_continue(FNV_OFFSET, &bytes[..skip.start]);
    fnv1a_continue(hash, &bytes[skip.end..])
}

/// Evaluates the failpoint site `<family>::<step>`: `Some(N)` is a
/// `truncate(N)`. Free, and allocation-free, without failpoints compiled in.
fn fire(family: &str, step: &str) -> io::Result<Option<usize>> {
    if !sibling_failpoint::active() {
        return Ok(None);
    }
    sibling_failpoint::io_point(&format!("{family}::{step}"))
}

fn injected(family: &str, step: &str) -> io::Error {
    sibling_failpoint::injected(&format!("{family}::{step}"))
}

/// Writes `bytes` at `file`'s cursor and fsyncs it, with the failpoints
/// `<family>::<step>` (`truncate(N)`: only N bytes land, durably, then
/// the write fails) and `<family>::sync` (the fsync fails).
pub(crate) fn write_synced(
    file: &mut File,
    bytes: &[u8],
    family: &str,
    step: &str,
) -> io::Result<()> {
    match fire(family, step)? {
        None => file.write_all(bytes)?,
        Some(n) => {
            file.write_all(&bytes[..n.min(bytes.len())])?;
            file.sync_all()?;
            return Err(injected(family, step));
        }
    }
    fire(family, "sync")?;
    file.sync_all()
}

impl Format {
    /// Writes the 16-byte preamble into the start of `header`.
    pub fn put_preamble(&self, header: &mut [u8]) {
        header[..8].copy_from_slice(&self.magic);
        put_u32(header, 8, self.version);
        put_u32(header, 12, ENDIAN_TAG);
    }

    /// Seals a finished image in place: its length, then the checksum.
    pub fn seal(&self, image: &mut [u8]) {
        let at = self.seal_at.expect("only a sealed format seals images");
        put_u64(image, at + 8, image.len() as u64);
        put_u64(image, at, checksum_skipping(image, at..at + 8));
    }

    /// Checks the fixed header's length, magic, endianness tag, version
    /// and, if sealed, the file length it records, in that order. The
    /// format's own header checks follow, then [`Format::check_checksum`].
    pub fn check_header(&self, bytes: &[u8]) -> Result<(), StoreError> {
        let got = bytes.len() as u64;
        if bytes.len() < self.header_len {
            return Err(StoreError::Truncated {
                expected: self.header_len as u64,
                got,
            });
        }
        if bytes[..8] != self.magic {
            return Err(StoreError::BadMagic);
        }
        if read_u32(bytes, 12) != ENDIAN_TAG {
            return Err(StoreError::BadEndian);
        }
        let version = read_u32(bytes, 8);
        if version != self.version {
            return Err(StoreError::BadVersion(version));
        }
        match self.seal_at.map(|at| read_u64(bytes, at + 8)) {
            Some(expected) if expected != got => Err(StoreError::Truncated { expected, got }),
            _ => Ok(()),
        }
    }

    /// Checks the checksum of an image that passed [`Format::check_header`].
    pub fn check_checksum(&self, bytes: &[u8]) -> Result<(), StoreError> {
        match self.seal_at {
            Some(at) if checksum_skipping(bytes, at..at + 8) != read_u64(bytes, at) => {
                Err(StoreError::ChecksumMismatch)
            }
            _ => Ok(()),
        }
    }

    /// Maps (or reads, per `mode`) the file at `path` for the caller to
    /// validate. A `truncate(N)` at `<family>::open` is a short read.
    pub fn open(&self, path: &Path, mode: LoadMode) -> Result<MapFile, StoreError> {
        let map = match mode {
            LoadMode::Mmap => MapFile::open(path)?,
            LoadMode::Read => MapFile::read(path)?,
        };
        match fire(self.family, "open")? {
            Some(n) if n < map.len() => Err(StoreError::Truncated {
                expected: map.len() as u64,
                got: n as u64,
            }),
            _ => Ok(map),
        }
    }

    /// Replaces the file at `path` with `bytes` atomically: a hidden
    /// `.NAME.tmp` sibling is written, fsync'd and renamed over `path`,
    /// then the directory is fsync'd. Returns the new file, open for
    /// writing. A failure leaves the temp file for the next [`sweep`].
    pub fn write(&self, path: &Path, bytes: &[u8]) -> Result<File, StoreError> {
        let tmp = temp_path(path);
        let mut file = File::create(&tmp)?;
        write_synced(&mut file, bytes, self.family, "write")?;
        if fire(self.family, "rename")?.is_some() {
            return Err(injected(self.family, "rename").into());
        }
        fs::rename(&tmp, path)?;
        sync_parent(path)?;
        Ok(file)
    }
}

/// The hidden temp file an atomic write of `path` goes through.
pub(crate) fn temp_path(path: &Path) -> PathBuf {
    let mut name = std::ffi::OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    name.push(".tmp");
    path.with_file_name(name)
}

/// The directory holding `path`. A bare file name lives in `.`: its
/// `Path::parent` is empty, which no directory call accepts.
pub(crate) fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Flushes the directory holding `path`, so a rename to `path` is
/// durable. Skipped where directories cannot be opened (non-unix).
fn sync_parent(path: &Path) -> io::Result<()> {
    if cfg!(unix) {
        File::open(parent_dir(path))?.sync_all()?;
    }
    Ok(())
}

/// Removes from `dir` the temp files of failed writes whose final name
/// `ours` accepts. Each format sweeps only its own names, because
/// formats share directories.
pub fn sweep(dir: &Path, ours: impl Fn(&str) -> bool) -> Result<(), StoreError> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let target = name
            .to_str()
            .and_then(|n| n.strip_prefix('.')?.strip_suffix(".tmp"));
        if target.is_some_and(&ours) {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Passes `opened` through, except that a file at `path` which failed
/// validation ([`StoreError::is_corruption`]) is renamed to
/// `path.corrupt`, kept for forensics, and reported as
/// [`StoreError::Quarantined`], so the caller can regenerate the slot.
pub fn quarantine<T>(path: &Path, opened: Result<T, StoreError>) -> Result<T, StoreError> {
    let reason = match opened {
        Err(reason) if reason.is_corruption() => Box::new(reason),
        other => return other,
    };
    let mut aside = path.as_os_str().to_owned();
    aside.push(".corrupt");
    // Best-effort: if the rename fails, the caller's regeneration still
    // lands atomically over the bad file.
    let _ = fs::rename(path, &aside);
    let path = PathBuf::from(aside);
    Err(StoreError::Quarantined { path, reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_file_name_syncs_the_current_directory() {
        assert_eq!(parent_dir(Path::new("j1")), Path::new("."));
        assert_eq!(parent_dir(Path::new("dir/j1")), Path::new("dir"));
        sync_parent(Path::new("j1")).unwrap();
    }

    #[test]
    fn date_round_trips() {
        for date in [
            MonthDate::new(0, 1),
            MonthDate::new(2024, 9),
            MonthDate::new(u16::MAX, 12),
        ] {
            assert_eq!(decode_date(encode_date(date)), Some(date));
        }
        assert_eq!(decode_date(u32::MAX), None);
    }

    #[test]
    fn checksum_skips_only_its_field() {
        let mut bytes = vec![7u8; 64];
        let base = checksum_skipping(&bytes, 40..48);
        bytes[44] = 99; // inside the skipped field: no change
        assert_eq!(checksum_skipping(&bytes, 40..48), base);
        bytes[39] = 99; // outside: detected
        assert_ne!(checksum_skipping(&bytes, 40..48), base);
    }

    #[test]
    fn alignment_rounds_up() {
        assert_eq!(align16(0), 0);
        assert_eq!(align16(1), 16);
        assert_eq!(align16(16), 16);
        assert_eq!(align16(17), 32);
    }
}
