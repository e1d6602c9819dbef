//! The three workloads, each one closed-loop client on SplitFS-strict.
//!
//! A workload owns its model of what the file system must hold.  `op`
//! runs one operation, times only the calls into the system under test
//! (payload generation and checking are the benchmark's own work), and
//! reports every error or read-back mismatch to a [`Tally`].  After the
//! run, `shutdown` closes the workload cleanly and `reverify` checks
//! every acknowledged write again on the remounted file system.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use apps::lsm::{LsmConfig, LsmStore};
use pmem::SimClock;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use vfs::{Fd, FileSystem, FsResult, OpenFlags};
use workloads::ycsb::Zipfian;

use crate::model::{self, Verdict};
use crate::trace::span;

/// The workloads the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// YCSB-A on the LSM store.
    YcsbA,
    /// 4 KiB appends into rotating 16 MiB log segments.
    LogAppend,
    /// Filebench-Varmail-like create/append/fsync/read/unlink churn.
    Varmail,
}

impl Kind {
    /// Parses a workload name as `--workload` spells it.
    pub fn parse(name: &str) -> Option<Self> {
        [Kind::YcsbA, Kind::LogAppend, Kind::Varmail]
            .into_iter()
            .find(|k| k.name() == name)
    }

    /// The workload's name as `--workload` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Kind::YcsbA => "ycsb-a",
            Kind::LogAppend => "log-append",
            Kind::Varmail => "varmail",
        }
    }

    /// Operations a run makes per second of `--seconds`.  A run measures
    /// a fixed number of operations, not a fixed time, so that two runs
    /// of one seed attempt, and fail, the same operations.  The rates are
    /// what one client sustains on a 2-vCPU x86-64 host, so a run there
    /// measures for about `--seconds`.
    pub fn ops_per_second(self) -> u64 {
        match self {
            Kind::YcsbA => 140_000,
            Kind::LogAppend => 80_000,
            // Fewer than the host sustains: the known inode defect ends
            // a Varmail run after 32 760 iterations anyway.
            Kind::Varmail => 9_000,
        }
    }

    /// Builds the workload on `fs`, including its set-up phase (the YCSB
    /// load).
    pub fn build(self, fs: Arc<dyn FileSystem>, seed: u64) -> FsResult<Box<dyn Workload>> {
        Ok(match self {
            Kind::YcsbA => Box::new(YcsbA::load(fs, seed)?),
            Kind::LogAppend => Box::new(LogAppend::new(fs, seed)?),
            Kind::Varmail => Box::new(Varmail::new(fs, seed)?),
        })
    }
}

/// Failures seen so far, by cause.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations that failed.
    pub failed: u64,
    /// Failures per cause.
    pub by_class: BTreeMap<String, u64>,
    /// The first few failure messages, for the report.
    pub first: Vec<String>,
}

impl Tally {
    /// Counts `verdict` if it is a failure.
    pub fn note(&mut self, verdict: Verdict) {
        let Some(class) = verdict.class() else {
            return;
        };
        self.failed += 1;
        *self.by_class.entry(class).or_default() += 1;
        if self.first.len() < 5 {
            self.first.push(format!("{verdict:?}"));
        }
    }
}

/// Host and simulated time one operation spent inside the system.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpTime {
    /// Host nanoseconds.
    pub host_ns: f64,
    /// Simulated nanoseconds on the client thread's clock.
    pub sim_ns: f64,
}

impl OpTime {
    /// Runs `f`, adding its host and simulated time to `self`.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let host = Instant::now();
        let sim = SimClock::thread_time_ns();
        let out = f();
        self.sim_ns += SimClock::thread_time_ns() - sim;
        self.host_ns += host.elapsed().as_nanos() as f64;
        out
    }
}

/// One workload: a closed-loop client plus its model.
pub trait Workload {
    /// Runs one operation.
    fn op(&mut self, tally: &mut Tally) -> OpTime;
    /// Bytes of user data the operations so far wrote successfully.
    fn user_bytes(&self) -> u64;
    /// Memtable flushes and compactions of the workload's store so far
    /// (none for workloads without one).
    fn store_counts(&self) -> [u64; 2] {
        [0, 0]
    }
    /// Shuts the workload down cleanly and releases every handle on the
    /// file system, keeping the model.
    fn shutdown(&mut self) -> FsResult<()>;
    /// Checks every acknowledged write on a remounted file system,
    /// noting each lost or wrong one in `tally` (data that cannot be read
    /// at all is lost, write by write).  Returns the number of checks.
    fn reverify(&self, fs: &Arc<dyn FileSystem>, tally: &mut Tally) -> u64;
}

// ---------------------------------------------------------------------------
// ycsb-a
// ---------------------------------------------------------------------------

/// Records loaded before the run.
pub const YCSB_RECORDS: u64 = 20_000;
/// Value size of every record.
pub const YCSB_VALUE: usize = 1024;

/// YCSB-A: 50% reads, 50% updates, zipfian keys, 1 KiB values.
pub struct YcsbA {
    store: Option<LsmStore>,
    config: LsmConfig,
    seed: u64,
    rng: StdRng,
    zipf: Zipfian,
    /// Model: the version each key holds; `None` after a failed put,
    /// when either version may be stored.
    versions: Vec<Option<u32>>,
    user_bytes: u64,
}

fn ycsb_key(k: u64) -> Vec<u8> {
    format!("user{k:012}").into_bytes()
}

fn ycsb_tag(k: u64, version: u32) -> u64 {
    (k << 32) | u64::from(version)
}

impl YcsbA {
    /// Opens the store and loads every record (the set-up phase).
    pub fn load(fs: Arc<dyn FileSystem>, seed: u64) -> FsResult<Self> {
        let config = LsmConfig::default();
        let mut store = LsmStore::open(fs, config.clone())?;
        let mut value = vec![0u8; YCSB_VALUE];
        for k in 0..YCSB_RECORDS {
            model::fill(seed, ycsb_tag(k, 0), &mut value);
            store.put(&ycsb_key(k), &value)?;
        }
        Ok(Self {
            store: Some(store),
            config,
            seed,
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipfian::new(YCSB_RECORDS),
            versions: vec![Some(0); YCSB_RECORDS as usize],
            user_bytes: 0,
        })
    }

    fn check_get(&self, k: u64, got: FsResult<Option<Vec<u8>>>) -> Verdict {
        let Some(version) = self.versions[k as usize] else {
            return Verdict::Ok;
        };
        match got {
            Err(e) => e.into(),
            Ok(None) => Verdict::Mismatch(format!("key {k}: missing")),
            Ok(Some(v)) => model::check(
                self.seed,
                ycsb_tag(k, version),
                YCSB_VALUE,
                &v,
                &format!("key {k} v{version}"),
            ),
        }
    }
}

impl Workload for YcsbA {
    fn op(&mut self, tally: &mut Tally) -> OpTime {
        let mut t = OpTime::default();
        let k = self.zipf.next(&mut self.rng);
        let key = ycsb_key(k);
        let store = self
            .store
            .as_mut()
            .expect("the store is open until shutdown");
        if self.rng.random::<f64>() < 0.5 {
            let got = t.time(|| span("apps.get", || store.get(&key)));
            tally.note(self.check_get(k, got));
        } else {
            let version = self.versions[k as usize].map_or(0, |v| v + 1);
            let value = model::payload(self.seed, ycsb_tag(k, version), YCSB_VALUE);
            let put = t.time(|| span("apps.put", || store.put(&key, &value)));
            match put {
                Ok(()) => {
                    self.versions[k as usize] = Some(version);
                    self.user_bytes += (key.len() + value.len()) as u64;
                }
                Err(e) => {
                    self.versions[k as usize] = None;
                    tally.note(e.into());
                }
            }
        }
        t
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    fn store_counts(&self) -> [u64; 2] {
        self.store.as_ref().map_or([0, 0], |store| {
            [store.flush_count(), store.compaction_count()]
        })
    }

    fn shutdown(&mut self) -> FsResult<()> {
        match self.store.take() {
            Some(mut store) => store.shutdown(),
            None => Ok(()),
        }
    }

    fn reverify(&self, fs: &Arc<dyn FileSystem>, tally: &mut Tally) -> u64 {
        let store = LsmStore::open(Arc::clone(fs), self.config.clone());
        for k in 0..YCSB_RECORDS {
            let got = match &store {
                Ok(store) => store.get(&ycsb_key(k)),
                Err(e) => Err(e.clone()),
            };
            tally.note(self.check_get(k, got));
        }
        YCSB_RECORDS
    }
}

// ---------------------------------------------------------------------------
// log-append
// ---------------------------------------------------------------------------

/// Size of one log record.
pub const LOG_RECORD: usize = 4096;
/// Records per 16 MiB segment.
pub const LOG_SEGMENT_RECORDS: u64 = 4096;
/// An `fsync` follows every this many records.
pub const LOG_FSYNC_EVERY: u64 = 10;
/// Segments are read back in chunks of this size.
const LOG_READ_CHUNK: usize = 1 << 20;
const LOG_DIR: &str = "/log";

/// 4 KiB appends into 16 MiB segments; each full segment is read back,
/// closed and unlinked.
pub struct LogAppend {
    fs: Option<Arc<dyn FileSystem>>,
    seed: u64,
    /// Segment number of the open segment.
    segment: u64,
    fd: Fd,
    /// Records appended to the open segment.
    in_segment: u64,
    /// Records acknowledged by an `fsync` in the open segment.
    synced: u64,
    /// Global number of the open segment's first record (the payload tag).
    first_record: u64,
    record: Vec<u8>,
    readback: Vec<u8>,
}

fn segment_name(segment: u64) -> String {
    format!("segment-{segment:08}.log")
}

fn segment_path(segment: u64) -> String {
    format!("{LOG_DIR}/{}", segment_name(segment))
}

impl LogAppend {
    /// Creates the log directory and the first segment.
    pub fn new(fs: Arc<dyn FileSystem>, seed: u64) -> FsResult<Self> {
        fs.mkdir(LOG_DIR)?;
        let fd = fs.open(&segment_path(0), OpenFlags::create())?;
        Ok(Self {
            fs: Some(fs),
            seed,
            segment: 0,
            fd,
            in_segment: 0,
            synced: 0,
            first_record: 0,
            record: vec![0u8; LOG_RECORD],
            readback: vec![0u8; LOG_RECORD * LOG_SEGMENT_RECORDS as usize],
        })
    }

    /// Checks `records` records of the segment starting at record
    /// `first` against the model, one verdict per bad record.
    fn check_records(seed: u64, first: u64, data: &[u8], records: u64, tally: &mut Tally) {
        for i in 0..records {
            let at = i as usize * LOG_RECORD;
            let got = data.get(at..at + LOG_RECORD).unwrap_or(&[]);
            tally.note(model::check(
                seed,
                first + i,
                LOG_RECORD,
                got,
                &format!("record {}", first + i),
            ));
        }
    }

    /// Reads `len` bytes of `fd` from offset 0 into `buf`.
    fn read_back(fs: &dyn FileSystem, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let mut done = 0;
        while done < buf.len() {
            let end = (done + LOG_READ_CHUNK).min(buf.len());
            let n = fs.read_at(fd, done as u64, &mut buf[done..end])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        Ok(done)
    }

    /// Fsyncs the full segment, reads it back, closes and unlinks it and
    /// opens the next one.
    fn rotate(&mut self, fs: &dyn FileSystem, t: &mut OpTime) -> FsResult<usize> {
        let path = segment_path(self.segment);
        let next = segment_path(self.segment + 1);
        let (fd, buf) = (self.fd, &mut self.readback);
        let (read, new_fd) = t.time(|| -> FsResult<(usize, Fd)> {
            fs.fsync(fd)?;
            let read = Self::read_back(fs, fd, buf)?;
            fs.close(fd)?;
            fs.unlink(&path)?;
            Ok((read, fs.open(&next, OpenFlags::create())?))
        })?;
        self.segment += 1;
        self.fd = new_fd;
        Ok(read)
    }
}

impl Workload for LogAppend {
    fn op(&mut self, tally: &mut Tally) -> OpTime {
        let mut t = OpTime::default();
        let fs = Arc::clone(self.fs.as_ref().expect("the log is open until shutdown"));
        if self.in_segment == LOG_SEGMENT_RECORDS {
            match self.rotate(fs.as_ref(), &mut t) {
                Ok(read) => {
                    Self::check_records(
                        self.seed,
                        self.first_record,
                        &self.readback[..read],
                        LOG_SEGMENT_RECORDS,
                        tally,
                    );
                    self.first_record += LOG_SEGMENT_RECORDS;
                    self.in_segment = 0;
                    self.synced = 0;
                }
                // The segment cannot be rotated: nothing further can be
                // appended to it, so the failure repeats on every op.
                Err(e) => tally.note(e.into()),
            }
            return t;
        }
        let n = self.first_record + self.in_segment;
        model::fill(self.seed, n, &mut self.record);
        let sync = (self.in_segment + 1).is_multiple_of(LOG_FSYNC_EVERY);
        let (fd, record) = (self.fd, &self.record);
        let done = t.time(|| -> FsResult<()> {
            fs.append(fd, record)?;
            if sync {
                fs.fsync(fd)?;
            }
            Ok(())
        });
        match done {
            Ok(()) => {
                self.in_segment += 1;
                if sync {
                    self.synced = self.in_segment;
                }
            }
            Err(e) => tally.note(e.into()),
        }
        t
    }

    fn user_bytes(&self) -> u64 {
        (self.first_record + self.in_segment) * LOG_RECORD as u64
    }

    fn shutdown(&mut self) -> FsResult<()> {
        let Some(fs) = self.fs.take() else {
            return Ok(());
        };
        fs.fsync(self.fd)?;
        self.synced = self.in_segment;
        fs.close(self.fd)
    }

    fn reverify(&self, fs: &Arc<dyn FileSystem>, tally: &mut Tally) -> u64 {
        tally.note(match fs.readdir(LOG_DIR) {
            Ok(names) if names == [segment_name(self.segment)] => Verdict::Ok,
            Ok(names) => Verdict::Mismatch(format!(
                "{LOG_DIR} holds {names:?}, the model has only {}",
                segment_name(self.segment)
            )),
            Err(e) => e.into(),
        });
        match fs.read_file(&segment_path(self.segment)) {
            Ok(data) => {
                Self::check_records(self.seed, self.first_record, &data, self.synced, tally)
            }
            Err(e) => (0..self.synced).for_each(|_| tally.note(e.clone().into())),
        }
        1 + self.synced
    }
}

// ---------------------------------------------------------------------------
// varmail
// ---------------------------------------------------------------------------

/// Appends per mail file, each followed by an `fsync`.
pub const MAIL_APPENDS: usize = 4;
/// Size of each append.
pub const MAIL_CHUNK: usize = 4096;
/// The one directory all mail files live in, as in Filebench's Varmail.
const MAIL_DIR: &str = "/mail";

/// Varmail-like churn: each op is one file's whole life.
pub struct Varmail {
    fs: Option<Arc<dyn FileSystem>>,
    seed: u64,
    /// Files created so far (the payload tag and name of the next one).
    next: u64,
    /// Bytes of acknowledged mail so far.
    user_bytes: u64,
    /// Files an op left behind when it failed, with their payload tags
    /// and the number of chunks an `fsync` acknowledged.
    live: BTreeMap<String, (u64, usize)>,
    body: Vec<u8>,
    readback: Vec<u8>,
}

fn mail_path(tag: u64) -> String {
    format!("{MAIL_DIR}/m{tag:010}")
}

impl Varmail {
    /// Creates the mail directory.
    pub fn new(fs: Arc<dyn FileSystem>, seed: u64) -> FsResult<Self> {
        fs.mkdir(MAIL_DIR)?;
        Ok(Self {
            fs: Some(fs),
            seed,
            next: 0,
            user_bytes: 0,
            live: BTreeMap::new(),
            body: vec![0u8; MAIL_APPENDS * MAIL_CHUNK],
            readback: vec![0u8; MAIL_APPENDS * MAIL_CHUNK],
        })
    }

    /// Checks what the remounted file system holds at `path` against a
    /// file that had `acked` chunks of the payload `tag` acknowledged:
    /// at least those, and otherwise only a prefix of the payload.
    fn check_left(&self, fs: &dyn FileSystem, path: &str, tag: u64, acked: usize) -> Verdict {
        let data = match fs.read_file(path) {
            Ok(data) => data,
            Err(e) => return e.into(),
        };
        if data.len() < acked * MAIL_CHUNK || data.len() > self.body.len() {
            return Verdict::Mismatch(format!(
                "{path}: holds {} bytes, {acked} chunks were acknowledged",
                data.len()
            ));
        }
        model::check(self.seed, tag, data.len(), &data, path)
    }
}

impl Workload for Varmail {
    fn op(&mut self, tally: &mut Tally) -> OpTime {
        let mut t = OpTime::default();
        let fs = Arc::clone(
            self.fs
                .as_ref()
                .expect("the mail store is open until shutdown"),
        );
        let tag = self.next;
        self.next += 1;
        let path = mail_path(tag);
        model::fill(self.seed, tag, &mut self.body);
        let (body, buf) = (&self.body, &mut self.readback);
        // What the file system holds under `path` if the op stops here:
        // whether the file exists, and how many chunks were fsynced.
        let (mut exists, mut acked) = (false, 0);
        let life = t.time(|| -> FsResult<usize> {
            let fd = fs.open(&path, OpenFlags::create_new())?;
            exists = true;
            for (i, chunk) in body.chunks(MAIL_CHUNK).enumerate() {
                fs.append(fd, chunk)?;
                fs.fsync(fd)?;
                acked = i + 1;
            }
            fs.close(fd)?;
            let fd = fs.open(&path, OpenFlags::read_only())?;
            let read = fs.read_at(fd, 0, buf)?;
            fs.close(fd)?;
            fs.unlink(&path)?;
            exists = false;
            Ok(read)
        });
        self.user_bytes += (acked * MAIL_CHUNK) as u64;
        match life {
            Ok(read) => tally.note(model::check(
                self.seed,
                tag,
                self.body.len(),
                &self.readback[..read],
                &path,
            )),
            Err(e) => {
                // Whatever the failed file left behind stays in the model
                // and is checked after the remount.
                if exists {
                    self.live.insert(path, (tag, acked));
                }
                tally.note(e.into());
            }
        }
        t
    }

    fn user_bytes(&self) -> u64 {
        self.user_bytes
    }

    fn shutdown(&mut self) -> FsResult<()> {
        self.fs = None;
        Ok(())
    }

    fn reverify(&self, fs: &Arc<dyn FileSystem>, tally: &mut Tally) -> u64 {
        let found: BTreeSet<String> = match fs.readdir(MAIL_DIR) {
            Ok(names) => names
                .into_iter()
                .map(|n| format!("{MAIL_DIR}/{n}"))
                .collect(),
            Err(e) => {
                tally.note(e.into());
                BTreeSet::new()
            }
        };
        let every: BTreeSet<&String> = found.iter().chain(self.live.keys()).collect();
        for path in &every {
            let verdict = match (self.live.get(*path), found.contains(*path)) {
                (None, _) => {
                    Verdict::Mismatch(format!("{path}: exists, the model has it unlinked"))
                }
                // Created but nothing acknowledged: it may be gone.
                (Some(&(_, 0)), false) => Verdict::Ok,
                (Some(&(_, acked)), false) => Verdict::Mismatch(format!(
                    "{path}: {acked} chunks acknowledged, but the file is missing"
                )),
                (Some(&(tag, acked)), true) => self.check_left(fs.as_ref(), path, tag, acked),
            };
            tally.note(verdict);
        }
        1 + every.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernelfs::Ext4Dax;
    use pmem::PmemBuilder;

    fn fs() -> Arc<dyn FileSystem> {
        let device = PmemBuilder::new(128 << 20).track_persistence(false).build();
        Ext4Dax::mkfs(device).unwrap()
    }

    #[test]
    fn ycsb_checker_trips_on_a_doctored_read_back_and_a_doctored_model() {
        let fs = fs();
        let mut w = YcsbA::load(Arc::clone(&fs), 11).unwrap();
        let got = w.store.as_ref().unwrap().get(&ycsb_key(9));
        assert_eq!(w.check_get(9, got), Verdict::Ok);

        // Doctored read-back: the store holds a value the model never wrote.
        let store = w.store.as_mut().unwrap();
        store.put(&ycsb_key(5), &[0xAB; YCSB_VALUE]).unwrap();
        let got = store.get(&ycsb_key(5));
        assert!(matches!(w.check_get(5, got), Verdict::Mismatch(_)));
        // Doctored model: the model expects a version never written.
        w.versions[7] = Some(3);
        let got = w.store.as_ref().unwrap().get(&ycsb_key(7));
        assert!(matches!(w.check_get(7, got), Verdict::Mismatch(_)));

        // Both also fail the post-run re-verification, and nothing else does.
        w.shutdown().unwrap();
        let mut tally = Tally::default();
        assert_eq!(w.reverify(&fs, &mut tally), YCSB_RECORDS);
        assert_eq!(tally.failed, 2, "{:?}", tally.first);
    }

    #[test]
    fn log_checker_trips_on_a_doctored_read_back_and_a_doctored_model() {
        let fs = fs();
        let mut w = LogAppend::new(Arc::clone(&fs), 5).unwrap();
        let mut tally = Tally::default();
        for _ in 0..25 {
            w.op(&mut tally);
        }
        w.shutdown().unwrap();
        assert_eq!(w.reverify(&fs, &mut tally), 26);
        assert_eq!(tally.failed, 0, "{:?}", tally.first);

        // Doctored read-back: one byte of record 3 changes on the device.
        let fd = fs.open(&segment_path(0), OpenFlags::read_write()).unwrap();
        fs.write_at(fd, 3 * LOG_RECORD as u64 + 100, &[0]).unwrap();
        fs.close(fd).unwrap();
        w.reverify(&fs, &mut tally);
        assert_eq!(tally.failed, 1, "{:?}", tally.first);

        // Doctored model: the model expects the records of another offset.
        w.first_record += 1;
        let mut tally = Tally::default();
        w.reverify(&fs, &mut tally);
        assert_eq!(tally.failed, 25);
    }

    #[test]
    fn varmail_ops_check_their_read_back_and_leave_nothing_behind() {
        let fs = fs();
        let mut w = Varmail::new(Arc::clone(&fs), 3).unwrap();
        let mut tally = Tally::default();
        for _ in 0..20 {
            w.op(&mut tally);
        }
        assert_eq!(tally.failed, 0, "{:?}", tally.first);
        w.shutdown().unwrap();
        assert_eq!(w.reverify(&fs, &mut tally), 1);
        assert_eq!(tally.failed, 0, "{:?}", tally.first);

        // A file the model has unlinked but the file system still holds.
        fs.write_file("/mail/stray", b"x").unwrap();
        w.reverify(&fs, &mut tally);
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn varmail_checker_holds_a_failed_op_to_its_acknowledged_chunks() {
        let fs = fs();
        let mut w = Varmail::new(Arc::clone(&fs), 3).unwrap();
        w.shutdown().unwrap();
        // A file whose op failed after two of its chunks were fsynced.
        let (tag, path) = (100, mail_path(100));
        fs.write_file(&path, &model::payload(3, tag, 2 * MAIL_CHUNK))
            .unwrap();
        w.live.insert(path.clone(), (tag, 2));
        let mut tally = Tally::default();
        assert_eq!(w.reverify(&fs, &mut tally), 2);
        assert_eq!(tally.failed, 0, "{:?}", tally.first);

        // Doctored model: a third chunk acknowledged that the file lacks.
        w.live.insert(path.clone(), (tag, 3));
        w.reverify(&fs, &mut tally);
        assert_eq!(tally.failed, 1);
        // Doctored read-back: one byte of the second chunk changes.
        w.live.insert(path.clone(), (tag, 2));
        let fd = fs.open(&path, OpenFlags::read_write()).unwrap();
        fs.write_at(fd, MAIL_CHUNK as u64 + 7, &[0]).unwrap();
        fs.close(fd).unwrap();
        w.reverify(&fs, &mut tally);
        assert_eq!(tally.failed, 2);
        // An acknowledged file that is gone.
        fs.unlink(&path).unwrap();
        w.reverify(&fs, &mut tally);
        assert_eq!(tally.failed, 3);
        // With nothing acknowledged, a missing file is fine.
        w.live.insert(path, (tag, 0));
        w.reverify(&fs, &mut tally);
        assert_eq!(tally.failed, 3, "{:?}", tally.first);
    }
}
