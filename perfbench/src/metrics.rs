//! Turning measurements into named metrics, and the result line.

use std::collections::BTreeMap;

use pmem::TimeCategory;

use crate::rig::{Measurement, Remount};
use crate::trace::SpanTotals;

/// Every metric of one run plus its verdict.
pub struct Report {
    /// Operations attempted in the reported phase.
    pub attempted: u64,
    /// Operations that failed in the reported phase.
    pub failed: u64,
    /// Failures by cause.
    pub failures: BTreeMap<String, u64>,
    /// First failure messages.
    pub first_failures: Vec<String>,
    /// Problems the post-run remount check found; any makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// `(name, value, unit)`, in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Metrics printed for the reader but left out of the result line.
    pub printed_only: Vec<(String, f64, &'static str)>,
}

/// Width of a [`Hist`] bucket: the top 7 mantissa bits of an `f64`, so
/// 128 buckets per octave, each under 0.8% wide.
const BUCKET_SHIFT: u32 = 52 - 7;

/// Distribution of per-operation times in memory that does not grow
/// with the operation count: log-linear buckets, each with its count and
/// sum.  Quantiles and partial means take a bucket's samples at the
/// bucket's mean, which is exact when they are all equal (as simulated
/// times of one kind of operation are) and within the bucket's width
/// otherwise.  Peak RSS, a gated metric, thus measures the system under
/// test and not the benchmark's samples.
#[derive(Debug, Default)]
pub struct Hist {
    buckets: BTreeMap<u64, (u64, f64)>,
    count: u64,
    sum: f64,
}

impl Hist {
    /// Adds one sample (negative and NaN samples count as 0).
    pub fn record(&mut self, v: f64) {
        let v = if v > 0.0 { v } else { 0.0 };
        // The bits of a non-negative float order like the float.
        let (n, sum) = self.buckets.entry(v.to_bits() >> BUCKET_SHIFT).or_default();
        *n += 1;
        *sum += v;
        self.count += 1;
        self.sum += v;
    }

    /// Mean of the samples of sorted ranks `lo..hi`.
    fn rank_mean(&self, lo: u64, hi: u64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let mut start = 0;
        let mut total = 0.0;
        for &(n, sum) in self.buckets.values() {
            let end = start + n;
            let take = end.min(hi).saturating_sub(start.max(lo));
            total += sum * take as f64 / n as f64;
            if end >= hi {
                break;
            }
            start = end;
        }
        total / (hi - lo) as f64
    }

    /// Value at quantile `q` (nearest rank).
    fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        self.rank_mean(rank - 1, rank)
    }

    /// Mean of the middle half (25th to 75th percentile).
    fn iqm(&self) -> f64 {
        self.rank_mean(self.count / 4, self.count - self.count / 4)
    }

    /// Mean of the largest `share` of the samples (at least one).
    fn tail_mean(&self, share: f64) -> f64 {
        let n = ((share * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        self.rank_mean(self.count.saturating_sub(n), self.count)
    }

    /// Operations per millisecond of recorded nanoseconds: kop/s.
    fn kops(&self) -> f64 {
        self.count as f64 / self.sum.max(1.0) * 1e6
    }
}

/// Median of a few samples.
fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// End-to-end numbers no gate can use, named with `prefix`.
///
/// Host wall-clock times move by 20% and more between runs of the same
/// work on a shared two-core machine, more than any bound a gate may
/// use.  The cost model charges every operation of one kind the same
/// simulated time, so simulated percentiles sit on a few exact values:
/// the same for every seed, or jumping between two operation kinds
/// when the percentile falls between them (YCSB's reads and updates).
fn ungated(m: &Measurement, prefix: &str) -> Vec<(String, f64, &'static str)> {
    let (sim, host) = (&m.sim, &m.host);
    vec![
        (format!("{prefix}sim_p50_us"), sim.quantile(0.5) / 1e3, "us"),
        (
            format!("{prefix}sim_p99_us"),
            sim.quantile(0.99) / 1e3,
            "us",
        ),
        (format!("{prefix}host_kops"), host.kops(), "kop/s"),
        (format!("{prefix}host_iqm_us"), host.iqm() / 1e3, "us"),
        (
            format!("{prefix}host_p50_us"),
            host.quantile(0.5) / 1e3,
            "us",
        ),
        (
            format!("{prefix}host_p99_us"),
            host.quantile(0.99) / 1e3,
            "us",
        ),
    ]
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

impl Report {
    /// Failures of the run and of the post-run re-verification, which
    /// count alike: an acknowledged write that reads back wrong after
    /// the remount is a failed operation too.
    fn new(m: &Measurement, remount: &Remount) -> Self {
        let mut failures = m.tally.by_class.clone();
        for (class, n) in &remount.tally.by_class {
            *failures
                .entry(format!("{class} after remount"))
                .or_default() += n;
        }
        Self {
            attempted: (m.ops + remount.checks).max(1),
            failed: m.tally.failed + remount.tally.failed,
            failures,
            first_failures: m
                .tally
                .first
                .iter()
                .chain(&remount.tally.first)
                .cloned()
                .collect(),
            problems: remount.problems.clone(),
            metrics: Vec::new(),
            printed_only: Vec::new(),
        }
    }

    /// Share of attempted operations that succeeded.
    fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted as f64
    }

    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The end-to-end metrics of an untraced run.
    pub fn end_to_end(m: &Measurement, remount: &Remount, setup_s: &[f64]) -> Self {
        let mut r = Self::new(m, remount);
        r.push("sim_kops", m.sim.kops(), "kop/s");
        r.push("sim_tail1_us", m.sim.tail_mean(0.01) / 1e3, "us");
        r.push(
            "write_amp",
            m.stats.total_bytes_written() as f64 / m.user_bytes.max(1) as f64,
            "x",
        );
        r.push("ok_op_frac", r.ok_frac(), "fraction");
        r.push("setup_s", median(setup_s), "s");
        r.push("peak_rss_mib", peak_rss_mib(), "MiB");
        r.printed_only = ungated(m, "");
        r.printed_only
            .push(("failed_op_frac".into(), 1.0 - r.ok_frac(), "fraction"));
        r
    }

    /// The per-layer metrics of a traced replay of `plain`'s operation
    /// count, plus the untraced run's ungated end-to-end numbers.
    pub fn per_layer(
        plain: &Measurement,
        traced: &Measurement,
        remount: &Remount,
        spans: &BTreeMap<&'static str, SpanTotals>,
    ) -> Self {
        let mut r = Self::new(traced, remount);
        let ops = traced.ops.max(1) as f64;
        let per_kop = ops / 1e3;

        for name in ["apps.put", "apps.get"]
            .into_iter()
            .chain(VFS_OPS.iter().copied())
        {
            let s = spans.get(name).copied().unwrap_or_default();
            let calls = s.calls.max(1) as f64;
            r.push(format!("{name}.calls_per_op"), s.calls as f64 / ops, "1/op");
            r.push(format!("{name}.host_ns"), s.host_self_ns / calls, "ns");
            r.push(format!("{name}.sim_ns"), s.sim_self_ns / calls, "ns");
        }
        let [flushes, compactions] = traced.store_counts;
        r.push("apps.flushes_per_kop", flushes as f64 / per_kop, "1/kop");
        r.push(
            "apps.compactions_per_kop",
            compactions as f64 / per_kop,
            "1/kop",
        );

        let st = &traced.stats;
        let cat = |c: TimeCategory| traced.client_category_ns[c.index_in_all()] / ops;
        r.push(
            "splitfs.oplog_group_commits_per_op",
            st.oplog_group_commits as f64 / ops,
            "1/op",
        );
        r.push(
            "splitfs.oplog_epoch_swaps_per_kop",
            st.oplog_epoch_swaps as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "splitfs.staging_inline_creates_per_kop",
            st.staging_inline_creates as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "splitfs.staging_recycles_per_kop",
            st.staging_recycles as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "splitfs.relink_batches_per_kop",
            st.batched_relinks as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "splitfs.relink_extents_per_batch",
            st.relink_batch_ops as f64 / st.batched_relinks.max(1) as f64,
            "1/batch",
        );
        r.push(
            "splitfs.zero_copy_read_kib_per_op",
            st.zero_copy_read_bytes as f64 / 1024.0 / ops,
            "KiB/op",
        );
        r.push("splitfs.dram_kib", traced.dram_bytes as f64 / 1024.0, "KiB");
        r.push(
            "splitfs.oplog_sim_ns_per_op",
            cat(TimeCategory::OpLog),
            "ns/op",
        );

        let resolves = (st.path_cache_hits + st.path_cache_misses).max(1) as f64;
        r.push(
            "kernelfs.traps_per_op",
            st.kernel_traps as f64 / ops,
            "1/op",
        );
        r.push(
            "kernelfs.journal_txns_per_op",
            st.journal_txns as f64 / ops,
            "1/op",
        );
        r.push(
            "kernelfs.path_cache_hit_rate",
            st.path_cache_hits as f64 / resolves,
            "fraction",
        );
        r.push(
            "kernelfs.metadata_sim_ns_per_op",
            cat(TimeCategory::Metadata),
            "ns/op",
        );
        r.push(
            "kernelfs.journal_sim_ns_per_op",
            cat(TimeCategory::Journal),
            "ns/op",
        );

        r.push("pmem.fences_per_op", st.fences as f64 / ops, "1/op");
        r.push("pmem.flushes_per_op", st.flushes as f64 / ops, "1/op");
        for c in [
            TimeCategory::UserData,
            TimeCategory::Metadata,
            TimeCategory::Journal,
            TimeCategory::OpLog,
        ] {
            r.push(
                format!("pmem.written_{}_b_per_op", c.label().replace('-', "_")),
                st.written(c) as f64 / ops,
                "B/op",
            );
        }
        r.push(
            "pmem.page_faults_4k_per_kop",
            st.page_faults as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "pmem.page_faults_2m_per_kop",
            st.huge_page_faults as f64 / per_kop,
            "1/kop",
        );

        r.push(
            "daemon.bg_checkpoints_per_kop",
            st.daemon_checkpoints as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "daemon.bg_staging_creates_per_kop",
            st.staging_bg_creates as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "daemon.checkpoint_stalls_per_kop",
            st.checkpoint_stalls as f64 / per_kop,
            "1/kop",
        );
        r.push(
            "daemon.checkpoint_stall_ns_per_op",
            st.checkpoint_stall_ns / ops,
            "ns/op",
        );

        r.metrics.extend(ungated(plain, "untraced."));
        // Tracing overhead.
        r.push(
            "trace.host_kops_ratio",
            traced.host.kops() / plain.host.kops(),
            "ratio",
        );
        r
    }

    /// Prints every metric by name and unit, the failure breakdown, and
    /// the JSON result as the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<44} {value:>16.6} {unit}");
        }
        for (name, value, unit) in &self.printed_only {
            println!("{name:<44} {value:>16.6} {unit} (not in the result line)");
        }
        println!("ops attempted {}, failed {}", self.attempted, self.failed);
        for (class, n) in &self.failures {
            println!("  failed: {n} x {class}");
        }
        for f in &self.first_failures {
            println!("  e.g. {f}");
        }
        for p in self.problems.iter().take(20) {
            println!("problem: {p}");
        }
        if self.problems.len() > 20 {
            println!("problem: ... {} in all", self.problems.len());
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The file-system calls the per-layer trace reports.
const VFS_OPS: [&str; 9] = [
    "vfs.appendv",
    "vfs.append",
    "vfs.read_at",
    "vfs.read_view",
    "vfs.write",
    "vfs.fsync",
    "vfs.open",
    "vfs.close",
    "vfs.unlink",
];

/// A finite number as JSON (non-finite values, which no metric should
/// produce, print as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_statistics_are_exact_for_repeated_values_and_close_otherwise() {
        let mut h = Hist::default();
        for v in [10.0, 10.0, 10.0, 20.0, 20.0, 30.0, 40.0, 1000.0] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.quantile(0.5), 20.0);
        assert_eq!(h.quantile(0.99), 1000.0);
        assert_eq!(h.tail_mean(0.01), 1000.0);
        assert_eq!(h.tail_mean(0.25), 520.0);
        assert_eq!(h.iqm(), 20.0);
        assert!((h.kops() - 8.0 / 1140.0 * 1e6).abs() < 1e-9);

        let mut h = Hist::default();
        (1..=1000).for_each(|v| h.record(f64::from(v)));
        assert!((h.quantile(0.5) / 500.0 - 1.0).abs() < 0.01);
        assert!((h.tail_mean(0.1) / 950.5 - 1.0).abs() < 0.01);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
