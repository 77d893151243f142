//! Framed, checksummed write-ahead log.
//!
//! One WAL record is a self-describing frame:
//!
//! ```text
//! [magic: u32 LE][payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Appends go through a [`LogFile`], so the log runs over the real
//! filesystem, memory, or the crash-injecting wrapper
//! ([`crate::vfs`]). Durability is governed by the [`FsyncPolicy`]
//! knob; [`Wal::open`] replays the frames back and **truncates the torn
//! tail** — any trailing bytes that do not form a complete, CRC-valid
//! frame (the residue of a crash mid-append). Because a fatal crash
//! tears at most the last in-flight append, every synced prefix is a
//! run of valid frames; mid-log corruption therefore also stops the
//! replay at the first bad frame, which is the conservative (prefix
//! only) reading of the log.

use crate::crc::crc32;
use crate::pagestore::StorageError;
use crate::vfs::LogFile;

/// Frame magic: `b"GIWL"` little-endian.
const WAL_MAGIC: u32 = u32::from_le_bytes(*b"GIWL");

/// Frame header bytes (magic + len + crc).
pub const WAL_HEADER: usize = 12;

/// When appended WAL bytes are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record: zero committed batches lost on crash,
    /// one device flush per append.
    Always,
    /// fsync after every `n` records: amortised flushes, at most `n-1`
    /// committed-but-unsynced records lost on a real power failure.
    EveryN(u64),
    /// Never fsync from the WAL (the OS flushes when it pleases):
    /// fastest, loss window unbounded. Appropriate for tests, benches,
    /// and replicated setups whose redundancy is elsewhere.
    Never,
}

/// What [`Wal::open`] found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Complete, CRC-valid records replayed.
    pub records: u64,
    /// Torn-tail bytes dropped (0 for a cleanly closed log).
    pub truncated_bytes: u64,
}

/// An open write-ahead log.
pub struct Wal {
    file: Box<dyn LogFile>,
    policy: FsyncPolicy,
    unsynced: u64,
    records: u64,
    bytes: u64,
}

/// Scans `raw` as a run of WAL frames: returns the CRC-valid payloads
/// in append order and the byte offset where the valid prefix ends
/// (everything past it is a torn tail or mid-log corruption).
fn scan_frames(raw: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut payloads = Vec::new();
    let mut off = 0usize;
    loop {
        let rest = &raw[off..];
        if rest.len() < WAL_HEADER {
            break;
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if magic != WAL_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[8..12].try_into().unwrap());
        let Some(payload) = rest.get(WAL_HEADER..WAL_HEADER + len) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        off += WAL_HEADER + len;
    }
    (payloads, off)
}

impl Wal {
    /// Wraps a freshly created (empty) log file.
    pub fn create(file: Box<dyn LogFile>, policy: FsyncPolicy) -> Wal {
        Wal {
            file,
            policy,
            unsynced: 0,
            records: 0,
            bytes: 0,
        }
    }

    /// Opens an existing log: scans the frames, validates each CRC,
    /// truncates the torn tail, and returns the log positioned for
    /// appending plus the valid payloads in append order.
    pub fn open(
        mut file: Box<dyn LogFile>,
        policy: FsyncPolicy,
    ) -> Result<(Wal, Vec<Vec<u8>>, WalOpenReport), StorageError> {
        let raw = file.read_all()?;
        let (payloads, off) = scan_frames(&raw);
        let truncated = (raw.len() - off) as u64;
        if truncated > 0 {
            file.truncate(off as u64)?;
            tracing::event!("wal_truncated", bytes = truncated);
        }
        let report = WalOpenReport {
            records: payloads.len() as u64,
            truncated_bytes: truncated,
        };
        let wal = Wal {
            file,
            policy,
            unsynced: 0,
            records: report.records,
            bytes: off as u64,
        };
        Ok((wal, payloads, report))
    }

    /// Appends one record and applies the fsync policy. On error the
    /// log must be considered torn: the caller degrades to read-only
    /// and the next open truncates whatever partial frame landed.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        let mut frame = Vec::with_capacity(WAL_HEADER + payload.len());
        frame.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.append(&frame)?;
        self.records += 1;
        self.bytes += frame.len() as u64;
        tracing::event!("wal_append", bytes = frame.len() as u64);
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Forces appended records to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file.sync()?;
        self.unsynced = 0;
        tracing::event!("wal_fsync");
        Ok(())
    }

    /// Records currently in the log.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Log length in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{LogDir, MemDir};

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.create("wal").unwrap(), FsyncPolicy::EveryN(2));
        for i in 0..5u8 {
            wal.append(&[i; 3]).unwrap();
        }
        assert_eq!(wal.records(), 5);

        let (wal, payloads, report) =
            Wal::open(dir.open("wal").unwrap(), FsyncPolicy::Never).unwrap();
        assert_eq!(
            report,
            WalOpenReport {
                records: 5,
                truncated_bytes: 0
            }
        );
        assert_eq!(wal.records(), 5);
        assert_eq!(payloads, (0..5u8).map(|i| vec![i; 3]).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        // Build a 3-record log, then cut it at every possible byte
        // length: open must recover exactly the records whose frames
        // survive whole, and drop the rest.
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.create("wal").unwrap(), FsyncPolicy::Never);
        let frames = [vec![1u8; 7], vec![2u8; 1], vec![3u8; 19]];
        let mut boundaries = vec![0u64];
        for p in &frames {
            wal.append(p).unwrap();
            boundaries.push(wal.len_bytes());
        }
        let full = dir.open("wal").unwrap().read_all().unwrap();
        for cut in 0..=full.len() {
            let dir2 = MemDir::new();
            dir2.create("wal").unwrap().append(&full[..cut]).unwrap();
            let (_, payloads, report) =
                Wal::open(dir2.open("wal").unwrap(), FsyncPolicy::Never).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(payloads.len(), whole, "cut at {cut}");
            assert_eq!(payloads, frames[..whole].to_vec(), "cut at {cut}");
            assert_eq!(
                report.truncated_bytes,
                cut as u64 - boundaries[whole],
                "cut at {cut}"
            );
            // The truncation is persisted: a second open sees a clean log.
            let (_, _, again) = Wal::open(dir2.open("wal").unwrap(), FsyncPolicy::Never).unwrap();
            assert_eq!(again.truncated_bytes, 0, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_frame_stops_replay_at_the_valid_prefix() {
        let dir = MemDir::new();
        let mut wal = Wal::create(dir.create("wal").unwrap(), FsyncPolicy::Always);
        wal.append(b"good").unwrap();
        wal.append(b"evil").unwrap();
        // Flip one payload bit of the second frame.
        let mut raw = dir.open("wal").unwrap().read_all().unwrap();
        let second_payload = WAL_HEADER + 4 + WAL_HEADER;
        raw[second_payload] ^= 0x40;
        let dir2 = MemDir::new();
        dir2.create("wal").unwrap().append(&raw).unwrap();
        let (_, payloads, report) =
            Wal::open(dir2.open("wal").unwrap(), FsyncPolicy::Never).unwrap();
        assert_eq!(payloads, vec![b"good".to_vec()]);
        assert_eq!(report.records, 1);
        assert!(report.truncated_bytes > 0);
    }
}
