//! The system under test: a fresh emulated device with SplitFS-strict
//! mounted on it, one workload driving it, and the measured phase.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use kernelfs::Ext4Dax;
use pmem::{PmemBuilder, PmemDevice, Stats, StatsSnapshot};
use splitfs::{Mode, SplitConfig, SplitFs};
use vfs::FileSystem;

use crate::metrics::Hist;
use crate::trace::LayerFs;
use crate::workloads::{Kind, Tally, Workload};

/// A run ends early once this many operations in a row have failed: the
/// system has stopped serving the workload, and timing how fast it
/// refuses would swamp every other number.
pub const GIVE_UP_AFTER: u64 = 1000;

/// Size of the emulated PM device: room for the YCSB store with its
/// compaction output, and for a full log segment beside the staging pool.
pub const DEVICE_BYTES: usize = 512 << 20;

/// The configuration a workload runs with: what users run (strict mode,
/// default staging pool and op log, maintenance daemon on), except that
/// `ycsb-a` runs without the daemon.  With the daemon, which of the
/// store's reads meet the known relink defect depends on when the daemon
/// relinks and checkpoints, so two runs of one seed fail different
/// numbers of operations; without it they fail the same ones.  On the
/// other workloads the failures do not depend on the daemon.
pub fn config(kind: Kind) -> SplitConfig {
    let config = SplitConfig::new(Mode::Strict);
    match kind {
        Kind::YcsbA => config.without_daemon(),
        Kind::LogAppend | Kind::Varmail => config,
    }
}

/// A mounted SplitFS instance with its workload loaded.
pub struct Rig {
    device: Arc<PmemDevice>,
    split: Arc<SplitFs>,
    config: SplitConfig,
    workload: Box<dyn Workload>,
}

/// What the post-run remount found.
#[derive(Debug, Default)]
pub struct Remount {
    /// Structural problems: the clean shutdown, the remount, orphan
    /// recovery or the namespace check failed.  Any makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Acknowledged writes re-verified.
    pub checks: u64,
    /// Re-verified writes that were lost or wrong.
    pub tally: Tally,
}

/// What one measured phase observed.
pub struct Measurement {
    /// Operations attempted.
    pub ops: u64,
    /// Failures by cause.
    pub tally: Tally,
    /// Host nanoseconds per operation.
    pub host: Hist,
    /// Simulated nanoseconds per operation (client thread clock).
    pub sim: Hist,
    /// Simulated picoseconds of each operation, in order; kept only when
    /// asked for, as the per-operation list grows with the run.
    pub sim_ps_each: Vec<u64>,
    /// Device counters over the phase (every thread, the daemon too).
    pub stats: StatsSnapshot,
    /// Simulated nanoseconds the client thread charged, per
    /// [`pmem::TimeCategory`].
    pub client_category_ns: [f64; 5],
    /// User bytes the operations wrote successfully.
    pub user_bytes: u64,
    /// Memtable flushes and compactions over the phase.
    pub store_counts: [u64; 2],
    /// U-Split's DRAM footprint at the end of the phase.
    pub dram_bytes: usize,
}

impl Rig {
    /// Formats a fresh device, mounts SplitFS with `config` on it and
    /// runs the workload's set-up.  With `traced`, the workload sees the
    /// file system through a [`LayerFs`].
    pub fn build(kind: Kind, seed: u64, traced: bool, config: SplitConfig) -> Result<Self, String> {
        let device = PmemBuilder::new(DEVICE_BYTES)
            .track_persistence(false)
            .build();
        let kernel = Ext4Dax::mkfs(Arc::clone(&device)).map_err(|e| format!("mkfs: {e}"))?;
        let split = SplitFs::new(kernel, config.clone()).map_err(|e| format!("mount: {e}"))?;
        let fs: Arc<dyn FileSystem> = if traced {
            Arc::new(LayerFs::new(Arc::clone(&split) as Arc<dyn FileSystem>))
        } else {
            Arc::clone(&split) as Arc<dyn FileSystem>
        };
        let workload = kind
            .build(fs, seed)
            .map_err(|e| format!("workload set-up: {e}"))?;
        Ok(Self {
            device,
            split,
            config,
            workload,
        })
    }

    /// Runs the closed loop for `limit` operations (or until
    /// [`GIVE_UP_AFTER`] operations in a row fail), bumping `progress`
    /// after every operation.  With `each`, the measurement also lists
    /// every operation's simulated time.
    pub fn measure(&mut self, limit: u64, each: bool, progress: &AtomicU64) -> Measurement {
        let stats_before = self.device.stats().snapshot();
        let category_before = Stats::thread_category_time_ns();
        let user_before = self.workload.user_bytes();
        let store_before = self.workload.store_counts();
        let mut tally = Tally::default();
        let (mut host, mut sim) = (Hist::default(), Hist::default());
        let mut sim_ps_each = Vec::new();
        let mut ops = 0u64;
        let mut failing = 0;
        while ops < limit && failing < GIVE_UP_AFTER {
            let failed_before = tally.failed;
            let t = self.workload.op(&mut tally);
            failing = if tally.failed > failed_before {
                failing + 1
            } else {
                0
            };
            host.record(t.host_ns);
            sim.record(t.sim_ns);
            if each {
                // Whole picoseconds, the clock's own resolution.
                sim_ps_each.push((t.sim_ns * 1e3).round() as u64);
            }
            ops += 1;
            progress.fetch_add(1, Ordering::Relaxed);
        }
        let category_after = Stats::thread_category_time_ns();
        let store_after = self.workload.store_counts();
        Measurement {
            ops,
            tally,
            host,
            sim,
            sim_ps_each,
            stats: self.device.stats().snapshot().delta(&stats_before),
            client_category_ns: std::array::from_fn(|i| category_after[i] - category_before[i]),
            user_bytes: self.workload.user_bytes() - user_before,
            store_counts: std::array::from_fn(|i| store_after[i] - store_before[i]),
            dram_bytes: self.split.memory_usage().approx_bytes,
        }
    }

    /// Shuts the workload and SplitFS down cleanly, remounts the device
    /// (`Ext4Dax::mount` plus orphan recovery), checks the namespace and
    /// re-verifies every acknowledged write.
    pub fn remount_and_verify(self) -> Remount {
        let Rig {
            device,
            split,
            config,
            mut workload,
        } = self;
        let mut out = Remount::default();
        let problems = &mut out.problems;
        if let Err(e) = workload.shutdown() {
            problems.push(format!("clean shutdown: {e}"));
        }
        // A daemon worker may hold the last reference for a moment and run
        // the instance's teardown itself; wait until the kernel handle the
        // instance owned is gone, so its lease is released.
        let kernel: Weak<Ext4Dax> = Arc::downgrade(split.kernel());
        drop(split);
        let deadline = Instant::now() + Duration::from_secs(30);
        while kernel.strong_count() > 0 {
            if Instant::now() > deadline {
                problems.push("SplitFS instance still referenced after shutdown".to_string());
                return out;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let kernel = match Ext4Dax::mount(Arc::clone(&device)) {
            Ok(kernel) => kernel,
            Err(e) => {
                problems.push(format!("remount: {e}"));
                return out;
            }
        };
        if let Err(e) = splitfs::recover_orphans(&kernel, &config) {
            problems.push(format!("orphan recovery: {e}"));
        }
        problems.extend(
            kernel
                .check_namespace()
                .into_iter()
                .map(|v| format!("namespace: {v}")),
        );
        out.checks = workload.reverify(&(kernel as Arc<dyn FileSystem>), &mut out.tally);
        out
    }
}
