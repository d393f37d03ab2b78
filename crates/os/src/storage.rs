//! Stable storage: per-node RAM disks and the shared remote file system.
//!
//! The REE testbed (paper §2) set aside 1–2 MB of RAM per node to emulate
//! local non-volatile memory (checkpoints go here — §3.4 "the local RAM
//! disk on each node serves as stable storage"), plus a remote file system
//! on a Sun workstation holding program executables, application input and
//! output data.
//!
//! Both stores share their contents copy-on-write between snapshot forks:
//! cloning a store bumps one refcount, and the first write after a fork
//! clones only the entry table (path boxes plus per-file refcount bumps),
//! never the stored bytes — file contents are immutable chunks replaced
//! wholesale on write. Entries are kept sorted by path, so enumeration
//! order is deterministic regardless of insert order (the previous
//! `HashMap` representation leaked its arbitrary iteration order, the
//! same class of bug as the process-table `find_by_name` fix).

use std::sync::Arc;

/// Sorted path → contents table shared copy-on-write between forks.
#[derive(Debug, Clone, Default)]
struct FileMap {
    /// Sorted by path; contents are immutable once stored.
    entries: Vec<(Box<str>, Arc<Vec<u8>>)>,
}

impl FileMap {
    fn idx(&self, path: &str) -> Result<usize, usize> {
        self.entries.binary_search_by(|(p, _)| p.as_ref().cmp(path))
    }

    fn get(&self, path: &str) -> Option<&Arc<Vec<u8>>> {
        self.idx(path).ok().map(|i| &self.entries[i].1)
    }

    /// Inserts or replaces; returns the previous contents if any.
    fn insert(&mut self, path: &str, data: Arc<Vec<u8>>) -> Option<Arc<Vec<u8>>> {
        self.insert_at(self.idx(path), path, data)
    }

    /// [`FileMap::insert`] at a position [`FileMap::idx`] already found
    /// for `path` (in this table or the fork it was just unshared from).
    fn insert_at(
        &mut self,
        at: Result<usize, usize>,
        path: &str,
        data: Arc<Vec<u8>>,
    ) -> Option<Arc<Vec<u8>>> {
        match at {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, data)),
            Err(i) => {
                self.entries.insert(i, (path.into(), data));
                None
            }
        }
    }

    fn remove(&mut self, path: &str) -> Option<Arc<Vec<u8>>> {
        self.idx(path).ok().map(|i| self.entries.remove(i).1)
    }

    /// Every `(path, contents)` pair in sorted path order.
    fn iter(&self) -> impl ExactSizeIterator<Item = (&str, &[u8])> {
        self.entries.iter().map(|(p, d)| (p.as_ref(), d.as_slice()))
    }
}

/// Recovers owned bytes from a possibly-shared chunk without copying when
/// this store held the only reference.
fn unwrap_bytes(chunk: Arc<Vec<u8>>) -> Vec<u8> {
    Arc::try_unwrap(chunk).unwrap_or_else(|shared| (*shared).clone())
}

/// A node-local RAM disk emulating non-volatile memory.
///
/// Contents survive *process* failures (the recovering ARMOR reads its
/// checkpoint back) but, mirroring the testbed, are lost if the node
/// itself is wiped — tolerating node failures requires checkpoints in
/// centralized storage (paper §3.4).
///
/// Cloning is O(1): forks share the file table until one of them writes.
///
/// # Examples
///
/// ```
/// use ree_os::RamDisk;
/// let mut disk = RamDisk::with_capacity(1 << 20);
/// disk.write("ckpt/ftm", b"state".to_vec()).unwrap();
/// assert_eq!(disk.read("ckpt/ftm"), Some(&b"state"[..]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RamDisk {
    files: Arc<FileMap>,
    capacity: usize,
    used: usize,
    writes: u64,
    bytes_written: u64,
}

/// Error writing to a [`RamDisk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The write would exceed the configured capacity.
    Full {
        /// Bytes requested by the write.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::Full { requested, available } => {
                write!(f, "ram disk full: requested {requested} bytes, {available} available")
            }
        }
    }
}

impl std::error::Error for DiskError {}

impl RamDisk {
    /// Creates a RAM disk with the REE default capacity (2 MB).
    pub fn new() -> Self {
        Self::with_capacity(2 << 20)
    }

    /// Creates a RAM disk with an explicit byte capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        RamDisk {
            files: Arc::new(FileMap::default()),
            capacity,
            used: 0,
            writes: 0,
            bytes_written: 0,
        }
    }

    /// Writes (creating or replacing) a file. An already-shared chunk
    /// (`Arc<Vec<u8>>`) is stored as is — the checkpoint commit path
    /// hands over the image its buffer keeps, so a commit copies nothing;
    /// a plain `Vec<u8>` is wrapped.
    ///
    /// # Errors
    ///
    /// Returns [`DiskError::Full`] if the write would exceed capacity; the
    /// previous contents of the file are preserved in that case.
    pub fn write(&mut self, path: &str, data: impl Into<Arc<Vec<u8>>>) -> Result<(), DiskError> {
        let data = data.into();
        // One search serves the capacity check and the store: this is
        // the checkpoint commit path, taken on every ARMOR transmission.
        let at = self.files.idx(path);
        let existing = at.map_or(0, |i| self.files.entries[i].1.len());
        let new_used = self.used - existing + data.len();
        if new_used > self.capacity {
            return Err(DiskError::Full {
                requested: data.len(),
                available: self.capacity - (self.used - existing),
            });
        }
        self.writes += 1;
        self.bytes_written += data.len() as u64;
        self.used = new_used;
        Arc::make_mut(&mut self.files).insert_at(at, path, data);
        Ok(())
    }

    /// Reads a file's contents, if present.
    pub fn read(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|d| d.as_slice())
    }

    /// Removes a file; returns its contents if it existed.
    pub fn remove(&mut self, path: &str) -> Option<Vec<u8>> {
        // Probe before `make_mut` so removing a missing path never
        // unshares a forked table.
        self.files.get(path)?;
        let data = Arc::make_mut(&mut self.files).remove(path)?;
        self.used -= data.len();
        Some(unwrap_bytes(data))
    }

    /// True if the file exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.get(path).is_some()
    }

    /// Erases everything (models a node wipe / power loss on volatile
    /// portions). Forks sharing the old contents are unaffected.
    pub(crate) fn wipe(&mut self) {
        self.files = Arc::new(FileMap::default());
        self.used = 0;
    }

    /// Bytes currently stored.
    pub fn used(&self) -> usize {
        self.used
    }

    /// Total writes performed (checkpoint-commit accounting).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Total bytes written over the disk's lifetime.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Iterates over stored paths in sorted order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|(p, _)| p)
    }

    /// Iterates over `(path, contents)` in sorted path order — one pass
    /// where `paths()` plus a `read` per path would binary-search each.
    pub(crate) fn entries(&self) -> impl ExactSizeIterator<Item = (&str, &[u8])> {
        self.files.iter()
    }
}

/// The shared remote file system (the Sun workstation in Figure 2).
///
/// Visible to every node; holds executables, input images, application
/// status files, and output products. Unlike [`RamDisk`] it has no
/// capacity limit and survives any cluster failure. Cloning is O(1) —
/// forks share the file table copy-on-write.
#[derive(Debug, Clone, Default)]
pub struct RemoteFs {
    files: Arc<FileMap>,
    reads: u64,
    writes: u64,
    version: u64,
}

impl RemoteFs {
    /// Creates an empty remote file system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Content-mutation counter: bumped on every write and successful
    /// remove, never by reads. Pollers (e.g. a per-event completion
    /// predicate) can memoise a lookup against this and re-probe only
    /// when the table actually changed.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Writes (creating or replacing) a file. As with [`RamDisk::write`],
    /// an already-shared chunk is stored as is — every run of a campaign
    /// stores the same encoded input image without copying it — and a
    /// plain `Vec<u8>` is wrapped.
    pub fn write(&mut self, path: &str, data: impl Into<Arc<Vec<u8>>>) {
        self.writes += 1;
        self.version += 1;
        Arc::make_mut(&mut self.files).insert(path, data.into());
    }

    /// Reads a file's contents, if present.
    pub fn read(&mut self, path: &str) -> Option<&[u8]> {
        self.reads += 1;
        self.files.get(path).map(|d| d.as_slice())
    }

    /// Reads without bumping access counters (for assertions in tests).
    pub fn peek(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|d| d.as_slice())
    }

    /// Removes a file; returns its contents if it existed.
    pub fn remove(&mut self, path: &str) -> Option<Vec<u8>> {
        // Probe before `make_mut` so removing a missing path never
        // unshares a forked table.
        self.files.get(path)?;
        self.version += 1;
        Arc::make_mut(&mut self.files).remove(path).map(unwrap_bytes)
    }

    /// Number of read operations served.
    pub(crate) fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write operations served.
    pub(crate) fn writes(&self) -> u64 {
        self.writes
    }

    /// Iterates over stored paths in sorted order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|(p, _)| p)
    }

    /// Iterates over `(path, contents)` in sorted path order, without
    /// bumping the read counter (as [`RemoteFs::peek`]).
    pub(crate) fn entries(&self) -> impl ExactSizeIterator<Item = (&str, &[u8])> {
        self.files.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RemoteFs {
        /// True if the file exists.
        fn exists(&self, path: &str) -> bool {
            self.files.get(path).is_some()
        }
    }

    #[test]
    fn ramdisk_roundtrip_and_remove() {
        let mut d = RamDisk::new();
        d.write("a", vec![1, 2, 3]).unwrap();
        assert_eq!(d.read("a"), Some(&[1u8, 2, 3][..]));
        assert!(d.exists("a"));
        assert_eq!(d.remove("a"), Some(vec![1, 2, 3]));
        assert!(!d.exists("a"));
        assert_eq!(d.used(), 0);
    }

    #[test]
    fn ramdisk_replacement_accounts_for_freed_space() {
        let mut d = RamDisk::with_capacity(10);
        d.write("a", vec![0; 8]).unwrap();
        // Replacing an 8-byte file with a 10-byte file fits exactly.
        d.write("a", vec![0; 10]).unwrap();
        assert_eq!(d.used(), 10);
    }

    #[test]
    fn ramdisk_rejects_overflow_and_preserves_old_contents() {
        let mut d = RamDisk::with_capacity(4);
        d.write("a", vec![7; 4]).unwrap();
        let err = d.write("a", vec![0; 5]).unwrap_err();
        assert!(matches!(err, DiskError::Full { requested: 5, .. }));
        assert_eq!(d.read("a"), Some(&[7u8; 4][..]));
    }

    #[test]
    fn ramdisk_wipe_clears_all() {
        let mut d = RamDisk::new();
        d.write("x", vec![1]).unwrap();
        d.write("y", vec![2]).unwrap();
        d.wipe();
        assert_eq!(d.used(), 0);
        assert!(!d.exists("x"));
        // Write counters persist across a wipe (they are lifetime stats).
        assert_eq!(d.writes(), 2);
    }

    #[test]
    fn remote_fs_roundtrip() {
        let mut fs = RemoteFs::new();
        fs.write("images/mars_001.img", vec![9; 16]);
        assert_eq!(fs.read("images/mars_001.img"), Some(&[9u8; 16][..]));
        assert_eq!(fs.reads(), 1);
        assert_eq!(fs.writes(), 1);
        assert!(fs.exists("images/mars_001.img"));
        assert_eq!(fs.peek("missing"), None);
    }

    #[test]
    fn disk_error_displays() {
        let e = DiskError::Full { requested: 5, available: 2 };
        assert!(e.to_string().contains("5 bytes"));
    }

    #[test]
    fn enumeration_order_is_sorted_regardless_of_insert_order() {
        let mut a = RamDisk::new();
        for p in ["ckpt/ftm", "app/out", "zeta", "app/in"] {
            a.write(p, vec![1]).unwrap();
        }
        let mut b = RamDisk::new();
        for p in ["zeta", "app/in", "app/out", "ckpt/ftm"] {
            b.write(p, vec![1]).unwrap();
        }
        let pa: Vec<&str> = a.paths().collect();
        let pb: Vec<&str> = b.paths().collect();
        assert_eq!(pa, pb);
        assert_eq!(pa, vec!["app/in", "app/out", "ckpt/ftm", "zeta"]);

        let mut fs1 = RemoteFs::new();
        let mut fs2 = RemoteFs::new();
        for p in ["b", "a", "c"] {
            fs1.write(p, vec![]);
        }
        for p in ["c", "b", "a"] {
            fs2.write(p, vec![]);
        }
        assert_eq!(fs1.paths().collect::<Vec<_>>(), fs2.paths().collect::<Vec<_>>());
    }

    #[test]
    fn cow_write_after_fork_leaves_parent_untouched() {
        let mut parent = RamDisk::new();
        parent.write("ckpt/ftm", vec![1, 2, 3]).unwrap();
        parent.write("ckpt/hb", vec![4]).unwrap();

        let mut fork = parent.clone();
        fork.write("ckpt/ftm", vec![9, 9]).unwrap();
        fork.remove("ckpt/hb");
        fork.write("new", vec![7]).unwrap();

        assert_eq!(parent.read("ckpt/ftm"), Some(&[1u8, 2, 3][..]));
        assert_eq!(parent.read("ckpt/hb"), Some(&[4u8][..]));
        assert!(!parent.exists("new"));
        assert_eq!(parent.used(), 4);
        assert_eq!(fork.read("ckpt/ftm"), Some(&[9u8, 9][..]));
        assert!(!fork.exists("ckpt/hb"));
    }

    #[test]
    fn cow_fork_of_fork_is_independent() {
        let mut root = RemoteFs::new();
        root.write("a", vec![1]);
        let mut child = root.clone();
        child.write("a", vec![2]);
        let mut grandchild = child.clone();
        grandchild.write("a", vec![3]);
        grandchild.write("b", vec![4]);

        assert_eq!(root.peek("a"), Some(&[1u8][..]));
        assert_eq!(child.peek("a"), Some(&[2u8][..]));
        assert_eq!(grandchild.peek("a"), Some(&[3u8][..]));
        assert!(!child.exists("b"));
    }
}
