//! A minimal virtual filesystem for append-only log and snapshot files.
//!
//! The durability tier (WAL + snapshots, `wal`/`snapshot` modules) does
//! all its I/O through the [`LogDir`]/[`LogFile`] traits so the same
//! recovery code runs over three backings:
//!
//! * [`FsDir`] — the real filesystem (production),
//! * [`MemDir`] — an in-memory directory (unit tests, benches; also the
//!   surviving "disk image" a crash test recovers from),
//! * [`CrashDir`] — wraps a [`MemDir`] and kills I/O at an injected
//!   operation index, modelling a process crash: the fatal *append*
//!   persists a torn prefix of its payload (a partial sector write) and
//!   every subsequent mutating operation fails. The underlying
//!   [`MemDir`] is exactly the bytes a real disk would hold at the
//!   moment of death, so recovery runs against it directly.
//!
//! The surface is deliberately tiny — append, sync, read-all, truncate,
//! plus create/open/rename/remove/list on the directory — because that
//! is all a WAL and a write-new-then-rename snapshot protocol need.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One append-only log (or snapshot) file.
///
/// `len` is fallible (it may stat the filesystem), so there is no
/// paired `is_empty`.
#[allow(clippy::len_without_is_empty)]
pub trait LogFile: Send {
    /// Appends `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Forces appended bytes to stable storage (fsync).
    fn sync(&mut self) -> io::Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> io::Result<u64>;

    /// Reads the whole file.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;

    /// Truncates the file to `len` bytes (recovery drops torn tails).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// A flat directory of [`LogFile`]s.
pub trait LogDir: Send + Sync {
    /// Creates (or truncates) a file.
    fn create(&self, name: &str) -> io::Result<Box<dyn LogFile>>;

    /// Opens an existing file (read + append).
    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>>;

    /// True when `name` exists.
    fn exists(&self, name: &str) -> io::Result<bool>;

    /// Atomically renames `from` to `to` (snapshot commit point).
    fn rename(&self, from: &str, to: &str) -> io::Result<()>;

    /// Removes a file.
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Lists file names (unordered).
    fn list(&self) -> io::Result<Vec<String>>;
}

// ---------------------------------------------------------------- FsDir

/// Real-filesystem [`LogDir`] rooted at one directory.
pub struct FsDir {
    root: PathBuf,
}

impl FsDir {
    /// Opens (creating if needed) the directory at `root`.
    pub fn new(root: impl Into<PathBuf>) -> io::Result<FsDir> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FsDir { root })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

struct FsLogFile {
    file: File,
}

impl LogFile for FsLogFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

impl LogDir for FsDir {
    fn create(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.path(name))?;
        Ok(Box::new(FsLogFile { file }))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.path(name))?;
        Ok(Box::new(FsLogFile { file }))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        Ok(self.path(name).exists())
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.path(from), self.path(to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.path(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        Ok(names)
    }
}

// --------------------------------------------------------------- MemDir

type MemFiles = Arc<Mutex<BTreeMap<String, Arc<Mutex<Vec<u8>>>>>>;

/// A poisoned lock still guards consistent bytes: every critical section
/// here is a single `Vec`/map operation.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-memory [`LogDir`]. `Clone` shares the same directory, so a test
/// can keep a handle to the "disk image" while a [`CrashDir`] wrapper
/// dies, then recover from the surviving bytes.
#[derive(Clone, Default)]
pub struct MemDir {
    files: MemFiles,
}

impl MemDir {
    /// An empty in-memory directory.
    pub fn new() -> MemDir {
        MemDir::default()
    }

    fn get(&self, name: &str) -> Option<Arc<Mutex<Vec<u8>>>> {
        lock(&self.files).get(name).cloned()
    }
}

struct MemLogFile {
    data: Arc<Mutex<Vec<u8>>>,
}

impl LogFile for MemLogFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        lock(&self.data).extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&self) -> io::Result<u64> {
        Ok(lock(&self.data).len() as u64)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(lock(&self.data).clone())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        let mut data = lock(&self.data);
        if (len as usize) < data.len() {
            data.truncate(len as usize);
        }
        Ok(())
    }
}

impl LogDir for MemDir {
    fn create(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        let data = Arc::new(Mutex::new(Vec::new()));
        lock(&self.files).insert(name.to_string(), data.clone());
        Ok(Box::new(MemLogFile { data }))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        let data = self
            .get(name)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {name}")))?;
        Ok(Box::new(MemLogFile { data }))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        Ok(lock(&self.files).contains_key(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        let mut files = lock(&self.files);
        let data = files
            .remove(from)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {from}")))?;
        files.insert(to.to_string(), data);
        Ok(())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        lock(&self.files)
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no file {name}")))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(lock(&self.files).keys().cloned().collect())
    }
}

// ------------------------------------------------------------- CrashDir

/// Shared crash clock: a countdown of mutating I/O operations. When it
/// reaches zero the "process" is dead — the in-flight operation fails
/// (an append first persists a torn prefix) and every later mutating
/// operation fails too, until [`CrashClock::disarm`] models the reboot.
pub struct CrashClock {
    remaining: AtomicI64,
    torn: AtomicU64,
}

impl CrashClock {
    /// A clock that kills the `budget + 1`-th mutating operation.
    /// `torn_seed` drives the deterministic choice of how many bytes of
    /// the fatal append survive.
    pub fn new(budget: u64, torn_seed: u64) -> Arc<CrashClock> {
        Arc::new(CrashClock {
            remaining: AtomicI64::new(budget.min(i64::MAX as u64) as i64),
            torn: AtomicU64::new(torn_seed | 1),
        })
    }

    /// True when the crash point has been reached.
    pub fn dead(&self) -> bool {
        self.remaining.load(Ordering::Relaxed) <= 0
    }

    /// Revives I/O (the reboot): recovery code may then reuse the same
    /// wrapper, though tests usually recover from the inner [`MemDir`].
    pub fn disarm(&self) {
        self.remaining.store(i64::MAX, Ordering::Relaxed);
    }

    /// Re-arms the clock: the `budget + 1`-th mutating operation from
    /// now dies. Lets tests run setup I/O for free before the fault
    /// window opens.
    pub fn arm(&self, budget: u64) {
        self.remaining
            .store(budget.min(i64::MAX as u64) as i64, Ordering::Relaxed);
    }

    /// Spends one operation; false once the budget is exhausted.
    fn tick(&self) -> bool {
        self.remaining.fetch_sub(1, Ordering::Relaxed) > 0
    }

    /// Deterministic torn-prefix length in `0..=max` for the fatal append.
    fn torn_len(&self, max: usize) -> usize {
        // LCG step (MMIX constants): deterministic across platforms.
        let s = self
            .torn
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(
                    s.wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407),
                )
            })
            .unwrap();
        ((s >> 33) as usize) % (max + 1)
    }
}

fn crashed() -> io::Error {
    io::Error::other("injected crash: process died")
}

/// A [`LogDir`] wrapper that injects a crash at an operation index.
///
/// Mutating operations (create / append / sync / truncate / rename /
/// remove) each spend one unit of the shared [`CrashClock`] budget;
/// read-only operations are free (a dead process performs none, and
/// recovery reads from the inner [`MemDir`] anyway). The fatal append
/// writes a deterministic torn prefix of its payload before failing —
/// exactly the partial-sector state a power loss leaves behind.
pub struct CrashDir {
    inner: MemDir,
    clock: Arc<CrashClock>,
}

impl CrashDir {
    /// Wraps `inner`, sharing `clock` across every file handle.
    pub fn new(inner: MemDir, clock: Arc<CrashClock>) -> CrashDir {
        CrashDir { inner, clock }
    }
}

struct CrashFile {
    inner: Box<dyn LogFile>,
    clock: Arc<CrashClock>,
}

impl LogFile for CrashFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        if !self.clock.tick() {
            // The torn tail: a prefix of the payload reaches the disk.
            let keep = self.clock.torn_len(data.len());
            let _ = self.inner.append(&data[..keep]);
            return Err(crashed());
        }
        self.inner.append(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        if !self.clock.tick() {
            return Err(crashed());
        }
        self.inner.sync()
    }

    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if !self.clock.tick() {
            return Err(crashed());
        }
        self.inner.truncate(len)
    }
}

impl LogDir for CrashDir {
    fn create(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        if !self.clock.tick() {
            return Err(crashed());
        }
        let inner = self.inner.create(name)?;
        Ok(Box::new(CrashFile {
            inner,
            clock: self.clock.clone(),
        }))
    }

    fn open(&self, name: &str) -> io::Result<Box<dyn LogFile>> {
        if self.clock.dead() {
            return Err(crashed());
        }
        let inner = self.inner.open(name)?;
        Ok(Box::new(CrashFile {
            inner,
            clock: self.clock.clone(),
        }))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        self.inner.exists(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        if !self.clock.tick() {
            return Err(crashed());
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        if !self.clock.tick() {
            return Err(crashed());
        }
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(dir: &dyn LogDir) {
        let mut f = dir.create("a.log").unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        f.sync().unwrap();
        assert_eq!(f.len().unwrap(), 11);
        assert_eq!(f.read_all().unwrap(), b"hello world");
        f.truncate(5).unwrap();
        assert_eq!(dir.open("a.log").unwrap().read_all().unwrap(), b"hello");

        dir.rename("a.log", "b.log").unwrap();
        assert!(!dir.exists("a.log").unwrap());
        assert!(dir.exists("b.log").unwrap());
        assert!(dir.list().unwrap().contains(&"b.log".to_string()));
        dir.remove("b.log").unwrap();
        assert!(dir.open("b.log").is_err());
    }

    #[test]
    fn mem_dir_roundtrip() {
        roundtrip(&MemDir::new());
    }

    #[test]
    fn fs_dir_roundtrip() {
        let root = std::env::temp_dir().join(format!("gir-vfs-test-{}", std::process::id()));
        roundtrip(&FsDir::new(&root).unwrap());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn crash_dir_kills_io_and_leaves_a_torn_prefix() {
        let mem = MemDir::new();
        // Budget 2: create + first append succeed, second append dies.
        let clock = CrashClock::new(2, 0x5EED);
        let dir = CrashDir::new(mem.clone(), clock.clone());
        let mut f = dir.create("w.log").unwrap();
        f.append(b"AAAA").unwrap();
        let err = f.append(b"BBBBBBBB").unwrap_err();
        assert!(err.to_string().contains("injected crash"));
        assert!(clock.dead());
        // Everything after the crash fails too.
        assert!(f.append(b"C").is_err());
        assert!(f.sync().is_err());
        assert!(dir.create("x.log").is_err());
        assert!(dir.rename("w.log", "y.log").is_err());
        // The surviving image: the full first append plus a torn prefix
        // (possibly empty, never the whole payload plus more).
        let bytes = mem.open("w.log").unwrap().read_all().unwrap();
        assert!(bytes.starts_with(b"AAAA"));
        assert!(bytes.len() <= 4 + 8);
        assert!(bytes[4..].iter().all(|&b| b == b'B'));
    }
}
