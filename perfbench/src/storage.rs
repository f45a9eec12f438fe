//! The journal layer's probe: a [`StorageBackend`] that hands every call to
//! [`RealFs`] and counts and times it. The job queue takes it through
//! `QueueConfig::storage`, so the journal is measured without changing the
//! bytes it writes.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use malsim::chaosfs::{RealFs, StorageBackend, StorageFile};

/// What the journal did through a [`TimingFs`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IoStats {
    /// `append` calls.
    pub appends: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// Newlines appended (journal lines).
    pub lines: u64,
    /// Milliseconds of each `fsync`.
    pub fsync_ms: Vec<f64>,
    /// Milliseconds spent in whole-file reads.
    pub read_ms: f64,
}

/// A counting, timing passthrough to the real filesystem.
#[derive(Debug, Clone, Default)]
pub struct TimingFs {
    stats: Arc<Mutex<IoStats>>,
}

impl TimingFs {
    /// Returns the statistics gathered so far and starts afresh.
    pub fn take(&self) -> IoStats {
        std::mem::take(&mut *self.stats.lock().expect("stats lock is never held across a panic"))
    }

    fn wrap(&self, inner: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(TimedFile { inner, stats: Arc::clone(&self.stats) })
    }
}

#[derive(Debug)]
struct TimedFile {
    inner: Box<dyn StorageFile>,
    stats: Arc<Mutex<IoStats>>,
}

impl StorageFile for TimedFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.append(buf)?;
        let mut st = self.stats.lock().expect("stats lock is never held across a panic");
        st.appends += 1;
        st.bytes += n as u64;
        st.lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn fsync(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let out = self.inner.fsync();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.stats.lock().expect("stats lock is never held across a panic").fsync_ms.push(ms);
        out
    }
}

impl StorageBackend for TimingFs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        RealFs.create(path).map(|f| self.wrap(f))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        RealFs.open_append(path).map(|f| self.wrap(f))
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let started = Instant::now();
        let out = RealFs.read_to_string(path);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.stats.lock().expect("stats lock is never held across a panic").read_ms += ms;
        out
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }
}
