//! Page store implementations.

use crate::iostats::{IoStats, IoStatsSnapshot};
use crate::page::{PageBuf, PAGE_SIZE};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Identifier of a page within a store.
pub type PageId = u64;

/// Errors surfaced by page stores.
#[derive(Debug)]
pub enum StorageError {
    /// The page id has never been allocated/written.
    NoSuchPage(PageId),
    /// Underlying file I/O failure.
    Io(std::io::Error),
    /// Stored bytes failed validation (checksum mismatch, torn write,
    /// bad frame): the data on disk cannot be trusted. Unlike
    /// [`StorageError::Io`] this is not transient — retrying the read
    /// returns the same corrupt bytes.
    Corrupt(String),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::NoSuchPage(id) => write!(f, "no such page: {id}"),
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(why) => write!(f, "corrupt storage: {why}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Abstraction over paged storage with logical I/O accounting.
///
/// All methods take `&self`; implementations use interior mutability so
/// index traversals can share the store.
pub trait PageStore: Send + Sync {
    /// Allocates a fresh page id (contents initially zeroed).
    fn allocate(&self) -> PageId;

    /// Reads a page image; counts one logical read.
    fn read_page(&self, id: PageId) -> Result<Bytes, StorageError>;

    /// Writes a page image; counts one logical write.
    fn write_page(&self, id: PageId, page: PageBuf) -> Result<(), StorageError>;

    /// Current counter values.
    fn stats(&self) -> IoStatsSnapshot;

    /// Zeroes the counters (between benchmark phases).
    fn reset_stats(&self);

    /// Number of allocated pages.
    fn num_pages(&self) -> u64;
}

/// In-memory page store. This is both the paper's memory-resident
/// scenario and the default benchmark substrate (logical reads are still
/// counted, so I/O *cost* can be modelled without touching a device).
pub struct MemPageStore {
    // RwLock: concurrent query traversals only read; bulk load and
    // insertion paths take the write lock.
    pages: RwLock<Vec<Option<Bytes>>>,
    stats: IoStats,
}

impl MemPageStore {
    /// Creates an empty store. `page_size` must equal [`PAGE_SIZE`]
    /// (the argument documents intent at call sites).
    pub fn new(page_size: usize) -> Self {
        assert_eq!(page_size, PAGE_SIZE, "only 4 KiB pages are supported");
        MemPageStore {
            pages: RwLock::new(Vec::new()),
            stats: IoStats::new(),
        }
    }
}

impl Default for MemPageStore {
    fn default() -> Self {
        Self::new(PAGE_SIZE)
    }
}

impl PageStore for MemPageStore {
    fn allocate(&self) -> PageId {
        let mut pages = self.pages.write().unwrap_or_else(PoisonError::into_inner);
        pages.push(None);
        (pages.len() - 1) as PageId
    }

    fn read_page(&self, id: PageId) -> Result<Bytes, StorageError> {
        let pages = self.pages.read().unwrap_or_else(PoisonError::into_inner);
        let slot = pages.get(id as usize).ok_or(StorageError::NoSuchPage(id))?;
        self.stats.record_read();
        match slot {
            Some(b) => Ok(b.clone()),
            None => Ok(Bytes::from(vec![0u8; PAGE_SIZE])),
        }
    }

    fn write_page(&self, id: PageId, page: PageBuf) -> Result<(), StorageError> {
        let mut pages = self.pages.write().unwrap_or_else(PoisonError::into_inner);
        let slot = pages
            .get_mut(id as usize)
            .ok_or(StorageError::NoSuchPage(id))?;
        self.stats.record_write();
        *slot = Some(page.freeze());
        Ok(())
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset()
    }

    fn num_pages(&self) -> u64 {
        self.pages
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len() as u64
    }
}

/// File-backed page store (true disk-resident runs).
///
/// On-disk layout: one fixed-size **slot** per page id —
///
/// ```text
/// [magic: u32 LE][crc32(payload): u32 LE][payload: PAGE_SIZE bytes]
/// ```
///
/// The 8-byte trailer-style header lets [`FilePageStore::read_page`]
/// detect torn or bit-rotted pages ([`StorageError::Corrupt`]) instead
/// of silently returning garbage, and lets [`FilePageStore::open`]
/// restore `next_id` from the file length alone. An all-zero slot is an
/// allocated-but-never-written page and reads back as zeros (holes left
/// by sparse writes have the same image, so the two cases are
/// deliberately indistinguishable).
pub struct FilePageStore {
    file: Mutex<File>,
    next_id: AtomicU64,
    stats: IoStats,
}

/// Slot magic: `b"GIPG"` little-endian.
const PAGE_MAGIC: u32 = u32::from_le_bytes(*b"GIPG");
/// Slot header bytes (magic + crc).
const SLOT_HEADER: usize = 8;
/// Bytes per on-disk slot.
const SLOT_SIZE: usize = SLOT_HEADER + PAGE_SIZE;

impl FilePageStore {
    /// Creates (**truncating**) a store file at `path`. Destroys any
    /// existing store — use [`FilePageStore::open`] to resume one.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FilePageStore {
            file: Mutex::new(file),
            next_id: AtomicU64::new(0),
            stats: IoStats::new(),
        })
    }

    /// Reopens an existing store file, restoring the allocation
    /// high-water mark from the file length: a trailing partial slot
    /// (a write torn by a crash) still claims its id, so the page reads
    /// as [`StorageError::Corrupt`] until rewritten rather than being
    /// silently re-issued.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        let next_id = len.div_ceil(SLOT_SIZE as u64);
        Ok(FilePageStore {
            file: Mutex::new(file),
            next_id: AtomicU64::new(next_id),
            stats: IoStats::new(),
        })
    }
}

impl PageStore for FilePageStore {
    fn allocate(&self) -> PageId {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn read_page(&self, id: PageId) -> Result<Bytes, StorageError> {
        if id >= self.next_id.load(Ordering::Relaxed) {
            return Err(StorageError::NoSuchPage(id));
        }
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        let mut buf = vec![0u8; SLOT_SIZE];
        file.seek(SeekFrom::Start(id * SLOT_SIZE as u64))?;
        // The file may end short of the slot (allocated-but-unwritten
        // tail pages, or a torn final write): read what exists.
        let mut got = 0usize;
        while got < SLOT_SIZE {
            match file.read(&mut buf[got..])? {
                0 => break,
                n => got += n,
            }
        }
        self.stats.record_read();
        if buf[..got].iter().all(|&b| b == 0) {
            // Unwritten page (or a hole): reads back zeroed, like
            // MemPageStore's unwritten slots.
            return Ok(Bytes::from(vec![0u8; PAGE_SIZE]));
        }
        if got < SLOT_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page {id}: torn write ({got} of {SLOT_SIZE} bytes)"
            )));
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != PAGE_MAGIC {
            return Err(StorageError::Corrupt(format!("page {id}: bad slot magic")));
        }
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        buf.drain(..SLOT_HEADER);
        if crate::crc::crc32(&buf) != crc {
            return Err(StorageError::Corrupt(format!(
                "page {id}: checksum mismatch"
            )));
        }
        Ok(Bytes::from(buf))
    }

    fn write_page(&self, id: PageId, page: PageBuf) -> Result<(), StorageError> {
        if id >= self.next_id.load(Ordering::Relaxed) {
            return Err(StorageError::NoSuchPage(id));
        }
        // One contiguous write of header + payload: a torn slot is a
        // prefix, which read_page flags via the short-read / CRC path.
        let mut slot = Vec::with_capacity(SLOT_SIZE);
        slot.extend_from_slice(&PAGE_MAGIC.to_le_bytes());
        slot.extend_from_slice(&crate::crc::crc32(page.as_slice()).to_le_bytes());
        slot.extend_from_slice(page.as_slice());
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.seek(SeekFrom::Start(id * SLOT_SIZE as u64))?;
        file.write_all(&slot)?;
        self.stats.record_write();
        Ok(())
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.stats.reset()
    }

    fn num_pages(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(store: &dyn PageStore) {
        let a = store.allocate();
        let b = store.allocate();
        assert_ne!(a, b);

        let mut pa = PageBuf::zeroed();
        pa.as_mut_slice()[0] = 0xAA;
        store.write_page(a, pa).unwrap();

        let got = store.read_page(a).unwrap();
        assert_eq!(got[0], 0xAA);
        // Unwritten page reads back zeroed.
        let zeroed = store.read_page(b).unwrap();
        assert!(zeroed.iter().all(|&x| x == 0));

        let s = store.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        store.reset_stats();
        assert_eq!(store.stats().reads, 0);
        assert_eq!(store.num_pages(), 2);
    }

    #[test]
    fn mem_store_roundtrip() {
        let store = MemPageStore::new(PAGE_SIZE);
        roundtrip(&store);
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join("gir-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("pages-{}.db", std::process::id()));
        let store = FilePageStore::create(&path).unwrap();
        roundtrip(&store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_page_errors() {
        let store = MemPageStore::new(PAGE_SIZE);
        assert!(matches!(
            store.read_page(3),
            Err(StorageError::NoSuchPage(3))
        ));
        assert!(matches!(
            store.write_page(0, PageBuf::zeroed()),
            Err(StorageError::NoSuchPage(0))
        ));
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("gir-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}-{}.db", std::process::id()))
    }

    #[test]
    fn open_restores_next_id_and_contents() {
        let path = temp_path("reopen");
        {
            let store = FilePageStore::create(&path).unwrap();
            for i in 0..7u8 {
                let id = store.allocate();
                let mut p = PageBuf::zeroed();
                p.as_mut_slice()[0] = i + 1;
                store.write_page(id, p).unwrap();
            }
        }
        // Reopen: the high-water mark comes back from the file length,
        // so fresh allocations never clobber existing pages.
        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.num_pages(), 7);
        for i in 0..7u8 {
            assert_eq!(store.read_page(i as PageId).unwrap()[0], i + 1);
        }
        let fresh = store.allocate();
        assert_eq!(fresh, 7);
        let mut p = PageBuf::zeroed();
        p.as_mut_slice()[0] = 0xFF;
        store.write_page(fresh, p).unwrap();
        for i in 0..7u8 {
            assert_eq!(store.read_page(i as PageId).unwrap()[0], i + 1);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let path = temp_path("never-created");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            FilePageStore::open(&path),
            Err(StorageError::Io(_))
        ));
    }

    #[test]
    fn torn_page_write_reads_as_corrupt() {
        let path = temp_path("torn");
        let store = FilePageStore::create(&path).unwrap();
        let id = store.allocate();
        let mut p = PageBuf::zeroed();
        p.as_mut_slice().fill(0x5A);
        store.write_page(id, p).unwrap();
        drop(store);

        // Tear the slot: keep only the first 100 bytes (header + a
        // sliver of payload), as a crash mid-write would.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..100]).unwrap();
        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.num_pages(), 1, "the torn slot still owns its id");
        assert!(matches!(store.read_page(id), Err(StorageError::Corrupt(_))));

        // Rewriting the page heals it.
        let mut p = PageBuf::zeroed();
        p.as_mut_slice().fill(0x7B);
        store.write_page(id, p).unwrap();
        assert_eq!(store.read_page(id).unwrap()[0], 0x7B);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_bit_reads_as_corrupt_not_garbage() {
        let path = temp_path("bitrot");
        let store = FilePageStore::create(&path).unwrap();
        let a = store.allocate();
        let b = store.allocate();
        for id in [a, b] {
            let mut p = PageBuf::zeroed();
            p.as_mut_slice().fill(id as u8 + 1);
            store.write_page(id, p).unwrap();
        }
        drop(store);

        // Flip one payload byte inside page b's slot.
        let mut raw = std::fs::read(&path).unwrap();
        let off = SLOT_SIZE + SLOT_HEADER + 1000;
        raw[off] ^= 0x10;
        std::fs::write(&path, &raw).unwrap();

        let store = FilePageStore::open(&path).unwrap();
        assert_eq!(store.read_page(a).unwrap()[0], 1, "page a is untouched");
        assert!(matches!(store.read_page(b), Err(StorageError::Corrupt(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_persists_across_pages() {
        let dir = std::env::temp_dir().join("gir-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("pages2-{}.db", std::process::id()));
        let store = FilePageStore::create(&path).unwrap();
        let ids: Vec<PageId> = (0..10).map(|_| store.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            let mut p = PageBuf::zeroed();
            p.as_mut_slice()[0] = i as u8;
            store.write_page(id, p).unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(store.read_page(id).unwrap()[0], i as u8);
        }
        std::fs::remove_file(&path).ok();
    }
}
