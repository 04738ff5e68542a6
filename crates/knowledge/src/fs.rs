//! Filesystem seam for the durable knowledge store.
//!
//! Everything the journal and snapshot machinery does to disk goes
//! through the [`StoreFs`] trait, so the same code can run against the
//! real filesystem ([`RealFs`]), an in-memory filesystem with an explicit
//! crash/durability model ([`MemFs`]), or either of those wrapped in a
//! deterministic fault injector ([`FaultyFs`]).
//!
//! [`FaultyFs`] mirrors `genedit_llm::fault`: its schedule is a pure
//! function of `(seed, operation counter)`, independent of operation
//! content, so two runs with the same seed inject byte-identical faults.
//! It models the storage failure modes the recovery path must survive —
//! short writes that error after persisting a prefix, torn writes that
//! silently truncate at an arbitrary byte offset, single-bit flips,
//! failed fsyncs, failed renames, and whole-process crash points.

use crate::lock;
use genedit_telemetry::hash::{hash01, hash_u64};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A filesystem operation that failed: which one, on which file, and
/// why. The crate's one I/O error — `JournalError`, `StoreError` and
/// `TenantStoreError` each carry it as their `Io` variant.
#[derive(Debug)]
pub struct IoFailure {
    /// The operation that failed (`append`, `fsync`, `truncate`, …).
    pub op: &'static str,
    /// The file involved.
    pub path: PathBuf,
    /// Underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for IoFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let IoFailure { op, path, source } = self;
        write!(f, "{op} failed on {}: {source}", path.display())
    }
}

impl std::error::Error for IoFailure {}

/// `map_err` adapter: names the operation and the file an `io::Error`
/// came from.
pub fn io_failure<'p>(
    op: &'static str,
    path: &'p Path,
) -> impl FnOnce(io::Error) -> IoFailure + 'p {
    move |source| IoFailure {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// The filesystem operations the durable store needs. All methods are
/// `&self`; implementations handle their own locking so a store and its
/// tests can share one filesystem through an `Arc`.
pub trait StoreFs: Send + Sync {
    /// Read the whole file. Missing files are an `io::ErrorKind::NotFound`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create-or-truncate the file and write `data` in full.
    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Append `data` to the file, creating it if missing.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Force file contents to durable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to` (replacing `to` if present).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove the file. Missing files are an error.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Whether the path currently exists.
    fn exists(&self, path: &Path) -> bool;
    /// Current length of the file in bytes.
    fn len(&self, path: &Path) -> io::Result<u64>;
    /// Truncate the file to `len` bytes (no-op if already shorter).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Read exactly `len` bytes starting at `offset`. Reads that run past
    /// the end of the file are an `io::ErrorKind::UnexpectedEof`. The
    /// default implementation slices a whole-file [`StoreFs::read`];
    /// backends override it with positioned I/O.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let data = self.read(path)?;
        let start = offset as usize;
        let end = start.saturating_add(len);
        if end > data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "read_at {}..{} past end of {} ({} bytes)",
                    start,
                    end,
                    path.display(),
                    data.len()
                ),
            ));
        }
        Ok(data[start..end].to_vec())
    }

    /// Write `data` at `offset`, extending the file with zeros if the
    /// offset is past the current end. Creates the file if missing. The
    /// default implementation rewrites the whole file; backends override
    /// it with positioned I/O.
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut contents = if self.exists(path) {
            self.read(path)?
        } else {
            Vec::new()
        };
        let start = offset as usize;
        let end = start + data.len();
        if contents.len() < end {
            contents.resize(end, 0);
        }
        contents[start..end].copy_from_slice(data);
        self.write_file(path, &contents)
    }
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// [`StoreFs`] backed by `std::fs`.
#[derive(Debug, Default)]
pub struct RealFs;

impl RealFs {
    /// The real-filesystem backend.
    pub fn new() -> RealFs {
        RealFs
    }
}

impl StoreFs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        fs::write(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(data)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        fs::OpenOptions::new().write(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        Ok(fs::metadata(path)?.len())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut file = fs::File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        use std::io::{Seek, SeekFrom};
        // Positioned write into an existing (or new) file: never truncate.
        let mut file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        file.write_all(data)
    }
}

// ---------------------------------------------------------------------
// In-memory filesystem with a crash/durability model
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct MemFile {
    /// Current contents — what a reader sees.
    data: Vec<u8>,
    /// Contents as of the last fsync — what survives a crash.
    durable: Vec<u8>,
}

/// In-memory [`StoreFs`] that distinguishes written from durable bytes:
/// writes land in a volatile view, `fsync` promotes the volatile view to
/// durable, and [`MemFs::crash`] discards everything volatile — exactly
/// the window a real power loss erases. Renames and truncates are treated
/// as durable metadata operations (the common journaling-filesystem
/// behaviour the snapshot rename protocol relies on).
#[derive(Default)]
pub struct MemFs {
    files: Mutex<BTreeMap<PathBuf, MemFile>>,
}

impl MemFs {
    /// An empty in-memory filesystem.
    pub fn new() -> MemFs {
        MemFs::default()
    }

    /// Simulate a power loss: every file reverts to its last-fsynced
    /// contents. Files that were never fsynced revert to empty.
    pub fn crash(&self) {
        for file in lock(&self.files).values_mut() {
            file.data = file.durable.clone();
        }
    }

    /// Paths currently present, for test assertions.
    pub fn paths(&self) -> Vec<PathBuf> {
        lock(&self.files).keys().cloned().collect()
    }

    fn not_found(path: &Path) -> io::Error {
        io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
    }
}

impl StoreFs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        lock(&self.files)
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| Self::not_found(path))
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        lock(&self.files)
            .entry(path.to_path_buf())
            .or_default()
            .data = data.to_vec();
        Ok(())
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        lock(&self.files)
            .entry(path.to_path_buf())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let mut files = lock(&self.files);
        let file = files.get_mut(path).ok_or_else(|| Self::not_found(path))?;
        file.durable = file.data.clone();
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = lock(&self.files);
        let file = files.remove(from).ok_or_else(|| Self::not_found(from))?;
        files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        lock(&self.files)
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| Self::not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        lock(&self.files).contains_key(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        lock(&self.files)
            .get(path)
            .map(|f| f.data.len() as u64)
            .ok_or_else(|| Self::not_found(path))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut files = lock(&self.files);
        let file = files.get_mut(path).ok_or_else(|| Self::not_found(path))?;
        let len = len as usize;
        if file.data.len() > len {
            file.data.truncate(len);
        }
        if file.durable.len() > len {
            file.durable.truncate(len);
        }
        Ok(())
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let files = lock(&self.files);
        let file = files.get(path).ok_or_else(|| Self::not_found(path))?;
        let start = offset as usize;
        let end = start.saturating_add(len);
        if end > file.data.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("read_at past end of {}", path.display()),
            ));
        }
        Ok(file.data[start..end].to_vec())
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut files = lock(&self.files);
        let file = files.entry(path.to_path_buf()).or_default();
        let start = offset as usize;
        let end = start + data.len();
        // Volatile until the next fsync, like append/write_file.
        if file.data.len() < end {
            file.data.resize(end, 0);
        }
        file.data[start..end].copy_from_slice(data);
        Ok(())
    }
}

/// [`MemFs`] with switches that make one kind of operation fail while
/// set: `len` of a file that exists, `fsync`, and `write_at`. Where
/// [`FaultyFs`] fails by seeded schedule, a test sets a switch to fail
/// exactly the operation it is about.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct ArmedFs {
    pub(crate) inner: Arc<MemFs>,
    pub(crate) len: AtomicBool,
    pub(crate) fsync: AtomicBool,
    pub(crate) write_at: AtomicBool,
}

#[cfg(test)]
impl ArmedFs {
    pub(crate) fn over(inner: &Arc<MemFs>) -> ArmedFs {
        ArmedFs {
            inner: Arc::clone(inner),
            ..ArmedFs::default()
        }
    }

    fn check(switch: &AtomicBool, op: &str) -> io::Result<()> {
        match switch.load(Ordering::SeqCst) {
            true => Err(io::Error::other(format!("{op} fails while armed"))),
            false => Ok(()),
        }
    }
}

#[cfg(test)]
impl StoreFs for ArmedFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.write_file(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        ArmedFs::check(&self.fsync, "fsync")?;
        self.inner.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        if self.inner.exists(path) {
            ArmedFs::check(&self.len, "len")?;
        }
        self.inner.len(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.inner.read_at(path, offset, len)
    }
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        ArmedFs::check(&self.write_at, "write_at")?;
        self.inner.write_at(path, offset, data)
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/// Per-category injection rates, each an independent probability in
/// `[0, 1]` evaluated per operation, plus an optional hard crash point.
/// The first matching fault wins for an operation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IoFaultConfig {
    /// `append` persists a seeded prefix of the bytes, then errors.
    pub short_write: f64,
    /// `append` silently persists only a seeded prefix — the on-disk tail
    /// is truncated at an arbitrary byte offset with no error reported.
    pub torn_write: f64,
    /// `append` flips one seeded bit in the bytes before persisting them.
    pub bit_flip: f64,
    /// `fsync` fails without promoting anything to durable storage.
    pub fsync_fail: f64,
    /// `rename` fails, leaving both paths untouched.
    pub rename_fail: f64,
    /// After this many operations, every further operation fails with a
    /// simulated crash — the driver then crashes the backing [`MemFs`]
    /// and re-opens the store to exercise recovery.
    pub crash_after_ops: Option<u64>,
}

impl IoFaultConfig {
    /// Every probabilistic category at the same rate, no crash point.
    pub fn uniform(rate: f64) -> IoFaultConfig {
        IoFaultConfig {
            short_write: rate,
            torn_write: rate,
            bit_flip: rate,
            fsync_fail: rate,
            rename_fail: rate,
            crash_after_ops: None,
        }
    }

    /// Only a deterministic crash point, no probabilistic faults.
    pub fn crash_at(ops: u64) -> IoFaultConfig {
        IoFaultConfig {
            crash_after_ops: Some(ops),
            ..IoFaultConfig::default()
        }
    }
}

/// Counts of injected faults, by category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoFaultLog {
    /// Operations that passed through the wrapper (faulted or not).
    pub ops: u64,
    /// Writes cut short mid-buffer.
    pub short_writes: u64,
    /// Appends torn at a frame-unaligned offset.
    pub torn_writes: u64,
    /// Single-bit payload corruptions.
    pub bit_flips: u64,
    /// fsync calls failed artificially.
    pub fsync_failures: u64,
    /// Renames failed artificially.
    pub rename_failures: u64,
    /// Operations refused because the crash point had been reached.
    pub refused_after_crash: u64,
}

impl IoFaultLog {
    /// Total injected faults (excluding post-crash refusals).
    pub fn total(&self) -> u64 {
        self.short_writes
            + self.torn_writes
            + self.bit_flips
            + self.fsync_failures
            + self.rename_failures
    }
}

/// Wraps a [`StoreFs`] and injects storage faults on a deterministic
/// per-seed schedule — the storage-layer sibling of
/// `genedit_llm::fault::FaultInjector`.
pub struct FaultyFs {
    inner: Arc<dyn StoreFs>,
    config: IoFaultConfig,
    seed: u64,
    counter: Mutex<u64>,
    log: Mutex<IoFaultLog>,
    crashed: AtomicBool,
}

impl FaultyFs {
    /// Wrap `inner` with a fault schedule derived purely from `seed`.
    pub fn new(inner: Arc<dyn StoreFs>, config: IoFaultConfig, seed: u64) -> FaultyFs {
        FaultyFs {
            inner,
            config,
            seed,
            counter: Mutex::new(0),
            log: Mutex::new(IoFaultLog::default()),
            crashed: AtomicBool::new(false),
        }
    }

    /// Snapshot of the injected-fault counters.
    pub fn log(&self) -> IoFaultLog {
        *lock(&self.log)
    }

    /// Whether the crash point has been reached.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Advance the operation counter; `Err` once the crash point is hit.
    fn next_op(&self) -> io::Result<u64> {
        let n = {
            let mut counter = lock(&self.counter);
            *counter += 1;
            *counter
        };
        lock(&self.log).ops += 1;
        let past_crash_point = self
            .config
            .crash_after_ops
            .map(|limit| n > limit)
            .unwrap_or(false);
        if past_crash_point || self.crashed() {
            self.crashed.store(true, Ordering::SeqCst);
            lock(&self.log).refused_after_crash += 1;
            return Err(io::Error::other(format!("simulated crash at op #{n}")));
        }
        Ok(n)
    }

    /// Probability draw for slot `n`, category `category` — a pure
    /// function of (seed, n, category), independent of operation content.
    fn roll(&self, n: u64, category: &str) -> f64 {
        hash01(&["iofault", category, &n.to_string()], self.seed)
    }

    /// Seeded cut point in `1..len` for prefix-persisting faults.
    fn cut(&self, n: u64, len: usize) -> usize {
        if len <= 1 {
            return 0;
        }
        1 + (hash_u64(&["iocut", &n.to_string()], self.seed) as usize) % (len - 1)
    }
}

impl StoreFs for FaultyFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.next_op()?;
        self.inner.read(path)
    }

    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.next_op()?;
        self.inner.write_file(path, data)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let n = self.next_op()?;
        if self.roll(n, "short-write") < self.config.short_write {
            lock(&self.log).short_writes += 1;
            let cut = self.cut(n, data.len());
            self.inner.append(path, &data[..cut])?;
            return Err(io::Error::other(format!(
                "injected short write #{n}: {cut}/{} bytes",
                data.len()
            )));
        }
        if self.roll(n, "torn-write") < self.config.torn_write {
            lock(&self.log).torn_writes += 1;
            let cut = self.cut(n, data.len());
            return self.inner.append(path, &data[..cut]);
        }
        if self.roll(n, "bit-flip") < self.config.bit_flip && !data.is_empty() {
            lock(&self.log).bit_flips += 1;
            let mut corrupted = data.to_vec();
            let byte = (hash_u64(&["ioflip", &n.to_string()], self.seed) as usize) % data.len();
            let bit = (hash_u64(&["iobit", &n.to_string()], self.seed) % 8) as u8;
            corrupted[byte] ^= 1 << bit;
            return self.inner.append(path, &corrupted);
        }
        self.inner.append(path, data)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        let n = self.next_op()?;
        if self.roll(n, "fsync-fail") < self.config.fsync_fail {
            lock(&self.log).fsync_failures += 1;
            return Err(io::Error::other(format!("injected fsync failure #{n}")));
        }
        self.inner.fsync(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let n = self.next_op()?;
        if self.roll(n, "rename-fail") < self.config.rename_fail {
            lock(&self.log).rename_failures += 1;
            return Err(io::Error::other(format!("injected rename failure #{n}")));
        }
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.next_op()?;
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.next_op()?;
        self.inner.len(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.next_op()?;
        self.inner.truncate(path, len)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.next_op()?;
        self.inner.read_at(path, offset, len)
    }

    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        let n = self.next_op()?;
        if self.roll(n, "short-write") < self.config.short_write {
            lock(&self.log).short_writes += 1;
            let cut = self.cut(n, data.len());
            self.inner.write_at(path, offset, &data[..cut])?;
            return Err(io::Error::other(format!(
                "injected short page write #{n}: {cut}/{} bytes",
                data.len()
            )));
        }
        if self.roll(n, "torn-write") < self.config.torn_write {
            // A torn page: only a prefix of the page image lands, silently.
            lock(&self.log).torn_writes += 1;
            let cut = self.cut(n, data.len());
            return self.inner.write_at(path, offset, &data[..cut]);
        }
        if self.roll(n, "bit-flip") < self.config.bit_flip && !data.is_empty() {
            lock(&self.log).bit_flips += 1;
            let mut corrupted = data.to_vec();
            let byte = (hash_u64(&["ioflip", &n.to_string()], self.seed) as usize) % data.len();
            let bit = (hash_u64(&["iobit", &n.to_string()], self.seed) % 8) as u8;
            corrupted[byte] ^= 1 << bit;
            return self.inner.write_at(path, offset, &corrupted);
        }
        self.inner.write_at(path, offset, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn io_failure_reads_the_same_under_every_error_that_carries_it() {
        let fail = || io_failure("fsync", &p("/kb/t/knowledge.wal"))(io::Error::other("disk gone"));
        let text = "fsync failed on /kb/t/knowledge.wal: disk gone";
        assert_eq!(fail().to_string(), text);
        let journal = crate::journal::JournalError::from(fail());
        assert_eq!(journal.to_string(), format!("journal {text}"));
        let store = crate::store::StoreError::from(fail());
        assert_eq!(store.to_string(), format!("store {text}"));
        let tenant = crate::tenants::TenantStoreError::from(fail());
        assert_eq!(tenant.to_string(), format!("tenant {text}"));
    }

    #[test]
    fn memfs_round_trips_and_tracks_durability() {
        let fs = MemFs::new();
        fs.append(&p("a"), b"hello").unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"hello");
        // Not yet fsynced: a crash loses it.
        fs.crash();
        assert_eq!(fs.read(&p("a")).unwrap(), b"");
        fs.append(&p("a"), b"hi").unwrap();
        fs.fsync(&p("a")).unwrap();
        fs.append(&p("a"), b"-volatile").unwrap();
        fs.crash();
        assert_eq!(fs.read(&p("a")).unwrap(), b"hi");
    }

    #[test]
    fn memfs_rename_truncate_remove() {
        let fs = MemFs::new();
        fs.write_file(&p("x"), b"abcdef").unwrap();
        fs.truncate(&p("x"), 3).unwrap();
        assert_eq!(fs.read(&p("x")).unwrap(), b"abc");
        fs.rename(&p("x"), &p("y")).unwrap();
        assert!(!fs.exists(&p("x")));
        assert_eq!(fs.len(&p("y")).unwrap(), 3);
        fs.remove(&p("y")).unwrap();
        assert!(fs.read(&p("y")).is_err());
    }

    #[test]
    fn faulty_fs_same_seed_same_schedule() {
        let run = |seed: u64| -> (Vec<bool>, IoFaultLog) {
            let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
            let faulty = FaultyFs::new(mem, IoFaultConfig::uniform(0.3), seed);
            let outcomes = (0..100)
                .map(|i| faulty.append(&p("f"), format!("rec{i}").as_bytes()).is_ok())
                .collect();
            (outcomes, faulty.log())
        };
        let (a, log_a) = run(7);
        let (b, log_b) = run(7);
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        assert!(log_a.total() > 0, "30% uniform must inject something");
        let (c, _) = run(8);
        assert_ne!(a, c);
    }

    #[test]
    fn crash_point_refuses_every_later_op() {
        let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let faulty = FaultyFs::new(Arc::clone(&mem), IoFaultConfig::crash_at(3), 1);
        assert!(faulty.append(&p("f"), b"1").is_ok());
        assert!(faulty.append(&p("f"), b"2").is_ok());
        assert!(faulty.fsync(&p("f")).is_ok());
        assert!(faulty.append(&p("f"), b"3").is_err());
        assert!(faulty.fsync(&p("f")).is_err());
        assert!(faulty.crashed());
        // The durable prefix survives on the shared backing fs.
        mem.as_ref().fsync(&p("f")).ok();
        assert_eq!(mem.read(&p("f")).unwrap(), b"12");
    }

    #[test]
    fn short_write_persists_a_strict_prefix() {
        let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let config = IoFaultConfig {
            short_write: 1.0,
            ..IoFaultConfig::default()
        };
        let faulty = FaultyFs::new(Arc::clone(&mem), config, 11);
        let data = b"0123456789abcdef";
        assert!(faulty.append(&p("f"), data).is_err());
        let on_disk = mem.read(&p("f")).unwrap();
        assert!(!on_disk.is_empty() && on_disk.len() < data.len());
        assert_eq!(&data[..on_disk.len()], &on_disk[..]);
        assert_eq!(faulty.log().short_writes, 1);
    }

    #[test]
    fn memfs_positioned_io_round_trips_and_stays_volatile() {
        let fs = MemFs::new();
        fs.write_at(&p("pages"), 8, b"PAGE").unwrap();
        assert_eq!(fs.len(&p("pages")).unwrap(), 12);
        assert_eq!(fs.read_at(&p("pages"), 0, 8).unwrap(), vec![0u8; 8]);
        assert_eq!(fs.read_at(&p("pages"), 8, 4).unwrap(), b"PAGE");
        assert!(fs.read_at(&p("pages"), 10, 4).is_err());
        // write_at is volatile until fsync, like append.
        fs.crash();
        assert!(fs.read(&p("pages")).unwrap().is_empty());
        fs.write_at(&p("pages"), 0, b"durable!").unwrap();
        fs.fsync(&p("pages")).unwrap();
        fs.write_at(&p("pages"), 0, b"volatile").unwrap();
        fs.crash();
        assert_eq!(fs.read(&p("pages")).unwrap(), b"durable!");
    }

    #[test]
    fn faulty_write_at_tears_pages_deterministically() {
        let run = |seed: u64| {
            let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
            let config = IoFaultConfig {
                torn_write: 1.0,
                ..IoFaultConfig::default()
            };
            let faulty = FaultyFs::new(Arc::clone(&mem), config, seed);
            faulty.write_at(&p("pages"), 0, &[0xAA; 64]).unwrap();
            mem.read(&p("pages")).unwrap()
        };
        let a = run(3);
        assert!(!a.is_empty() && a.len() < 64, "page must be torn");
        assert!(a.iter().all(|&b| b == 0xAA));
        assert_eq!(a, run(3), "same seed, same tear point");
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let config = IoFaultConfig {
            bit_flip: 1.0,
            ..IoFaultConfig::default()
        };
        let faulty = FaultyFs::new(Arc::clone(&mem), config, 5);
        let data = vec![0u8; 64];
        faulty.append(&p("f"), &data).unwrap();
        let on_disk = mem.read(&p("f")).unwrap();
        assert_eq!(on_disk.len(), data.len());
        let flipped: u32 = on_disk
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
        assert_eq!(faulty.log().bit_flips, 1);
    }
}
