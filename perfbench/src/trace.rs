//! Layer spans recorded from the benchmark's own code.
//!
//! [`span`] times one call into a layer on the calling thread: host
//! nanoseconds from [`Instant`] and simulated nanoseconds from the
//! thread's own simulated clock ([`SimClock::thread_time_ns`]).  Spans
//! nest; each records its *self* time, its duration minus the part its
//! child spans cover, so `apps.put` excludes the `vfs.appendv` it calls.
//! Spans live in a thread-local table and are read out with [`take`] when
//! the measured phase ends.  Tracing is off unless [`enable`] was called
//! on the thread, and then a span costs one flag check.
//!
//! [`LayerFs`] wraps the file system handed to the store and the workloads
//! and opens one `vfs.<op>` span around every call.  It forwards every
//! trait method unchanged, provided methods included, so the wrapped file
//! system does exactly the same simulated work as the bare one.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pmem::{PmemDevice, SimClock};
use vfs::{
    ConsistencyClass, Fd, FileStat, FileSystem, FsResult, IoVec, OpenFlags, ReadView, SeekFrom,
};

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Host nanoseconds spent in the span itself (children excluded).
    pub host_self_ns: f64,
    /// Simulated nanoseconds charged in the span itself (children excluded).
    pub sim_self_ns: f64,
}

/// One open span: the time its finished children took.
#[derive(Default)]
struct Frame {
    child_host_ns: f64,
    child_sim_ns: f64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static TOTALS: RefCell<BTreeMap<&'static str, SpanTotals>> =
        const { RefCell::new(BTreeMap::new()) };
}

/// Turns span recording on for the calling thread and clears its table.
pub fn enable() {
    TOTALS.with(|t| t.borrow_mut().clear());
    ENABLED.with(|e| e.set(true));
}

/// Turns span recording off and returns the calling thread's table.
pub fn take() -> BTreeMap<&'static str, SpanTotals> {
    ENABLED.with(|e| e.set(false));
    TOTALS.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

/// Runs `f` inside a span named `name` (a no-op wrapper while tracing is
/// off on this thread).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    STACK.with(|s| s.borrow_mut().push(Frame::default()));
    let host_start = Instant::now();
    let sim_start = SimClock::thread_time_ns();
    let out = f();
    let sim_ns = SimClock::thread_time_ns() - sim_start;
    let host_ns = host_start.elapsed().as_nanos() as f64;
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let frame = stack
            .pop()
            .expect("span frames are pushed and popped in pairs");
        if let Some(parent) = stack.last_mut() {
            parent.child_host_ns += host_ns;
            parent.child_sim_ns += sim_ns;
        }
        TOTALS.with(|t| {
            let mut totals = t.borrow_mut();
            let entry = totals.entry(name).or_default();
            entry.calls += 1;
            entry.host_self_ns += (host_ns - frame.child_host_ns).max(0.0);
            entry.sim_self_ns += (sim_ns - frame.child_sim_ns).max(0.0);
        });
    });
    out
}

/// A [`FileSystem`] that records a `vfs.<op>` span around every call.
pub struct LayerFs {
    inner: Arc<dyn FileSystem>,
}

impl LayerFs {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn FileSystem>) -> Self {
        Self { inner }
    }
}

impl FileSystem for LayerFs {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn consistency(&self) -> ConsistencyClass {
        self.inner.consistency()
    }

    fn device(&self) -> &Arc<PmemDevice> {
        self.inner.device()
    }

    fn open(&self, path: &str, flags: OpenFlags) -> FsResult<Fd> {
        span("vfs.open", || self.inner.open(path, flags))
    }

    fn close(&self, fd: Fd) -> FsResult<()> {
        span("vfs.close", || self.inner.close(fd))
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> FsResult<usize> {
        span("vfs.read_at", || self.inner.read_at(fd, offset, buf))
    }

    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> FsResult<usize> {
        span("vfs.write_at", || self.inner.write_at(fd, offset, data))
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        span("vfs.read", || self.inner.read(fd, buf))
    }

    fn write(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        span("vfs.write", || self.inner.write(fd, data))
    }

    fn lseek(&self, fd: Fd, pos: SeekFrom) -> FsResult<u64> {
        span("vfs.lseek", || self.inner.lseek(fd, pos))
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        span("vfs.fsync", || self.inner.fsync(fd))
    }

    fn ftruncate(&self, fd: Fd, size: u64) -> FsResult<()> {
        span("vfs.ftruncate", || self.inner.ftruncate(fd, size))
    }

    fn fstat(&self, fd: Fd) -> FsResult<FileStat> {
        span("vfs.fstat", || self.inner.fstat(fd))
    }

    fn stat(&self, path: &str) -> FsResult<FileStat> {
        span("vfs.stat", || self.inner.stat(path))
    }

    fn unlink(&self, path: &str) -> FsResult<()> {
        span("vfs.unlink", || self.inner.unlink(path))
    }

    fn rename(&self, old: &str, new: &str) -> FsResult<()> {
        span("vfs.rename", || self.inner.rename(old, new))
    }

    fn mkdir(&self, path: &str) -> FsResult<()> {
        span("vfs.mkdir", || self.inner.mkdir(path))
    }

    fn rmdir(&self, path: &str) -> FsResult<()> {
        span("vfs.rmdir", || self.inner.rmdir(path))
    }

    fn readdir(&self, path: &str) -> FsResult<Vec<String>> {
        span("vfs.readdir", || self.inner.readdir(path))
    }

    fn sync(&self) -> FsResult<()> {
        span("vfs.sync", || self.inner.sync())
    }

    fn read_view(&self, fd: Fd, offset: u64, len: usize) -> FsResult<ReadView<'_>> {
        span("vfs.read_view", || self.inner.read_view(fd, offset, len))
    }

    fn writev_at(&self, fd: Fd, offset: u64, iov: &[IoVec<'_>]) -> FsResult<usize> {
        span("vfs.writev_at", || self.inner.writev_at(fd, offset, iov))
    }

    fn appendv(&self, fd: Fd, iov: &[IoVec<'_>]) -> FsResult<usize> {
        span("vfs.appendv", || self.inner.appendv(fd, iov))
    }

    fn fsync_many(&self, fds: &[Fd]) -> FsResult<()> {
        span("vfs.fsync_many", || self.inner.fsync_many(fds))
    }

    fn fdatasync(&self, fd: Fd) -> FsResult<()> {
        span("vfs.fdatasync", || self.inner.fdatasync(fd))
    }

    fn exists(&self, path: &str) -> bool {
        span("vfs.exists", || self.inner.exists(path))
    }

    fn append(&self, fd: Fd, data: &[u8]) -> FsResult<usize> {
        span("vfs.append", || self.inner.append(fd, data))
    }

    fn read_file(&self, path: &str) -> FsResult<Vec<u8>> {
        span("vfs.read_file", || self.inner.read_file(path))
    }

    fn write_file(&self, path: &str, data: &[u8]) -> FsResult<()> {
        span("vfs.write_file", || self.inner.write_file(path, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_self_time() {
        enable();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = take();
        assert_eq!(totals["outer"].calls, 1);
        assert_eq!(totals["inner"].calls, 1);
        assert!(totals["inner"].host_self_ns >= 2e6);
        assert!(totals["outer"].host_self_ns < totals["inner"].host_self_ns);
        // Off again: nothing further is recorded.
        span("outer", || ());
        assert!(take().is_empty());
    }
}
