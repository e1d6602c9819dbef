//! SplitFS-strict benchmark: one closed-loop client per workload, every
//! read checked against a model replayed from the seed.
//!
//! ```text
//! perfbench --workload <ycsb-a|log-append|varmail> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets SplitFS-strict up on a fresh emulated device
//! [`SETUPS`] times, each in a fresh process (reporting the median as
//! `setup_s`), drives the last one with the workload's closed-loop
//! client for `--seconds` times the workload's
//! [`Kind::ops_per_second`] operations, shuts it down cleanly, remounts
//! the device and checks every acknowledged write again.  With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it also replays the same number of operations through the
//! layer spans of [`trace`] on a fresh device and prints the per-layer
//! metrics.
//!
//! An operation that returns an error, or reads back bytes the model does
//! not predict, counts as failed; so does an acknowledged write that reads
//! back wrong after the remount.  The run is *incorrect* when the clean
//! shutdown, the remount, orphan recovery or the namespace check fails,
//! or when tracing changes simulated time.  The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod metrics;
mod model;
mod rig;
mod trace;
mod workloads;

use std::io::Read;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use metrics::Report;
use rig::Rig;
use workloads::Kind;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// First argument of the child process that times one set-up:
/// `perfbench time-setup <workload> <seed>` prints the set-up's seconds.
const TIME_SETUP: &str = "time-setup";
/// No run may take longer than this, whatever its arguments.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// Time a run may spend outside its measured phases: set-ups, the
/// remount check and the daemon-off identity replays.
const SETUP_ALLOWANCE: Duration = Duration::from_secs(20);
/// With `--trace 1`, a run measures `--seconds` untraced and then
/// replays as many operations traced, which tracing makes slower.
const TRACE_FACTOR: f64 = 2.5;
/// A run measures a fixed number of operations; on a host this many
/// times slower than the one the rates were set on, it still finishes.
const SLOW_HOST: f64 = 2.0;
/// A run whose client completes no set-up or operation for this long is
/// stopped.
const STALL_BUDGET: Duration = Duration::from_secs(30);

/// How long a run with these arguments may take before it is stopped.
fn run_budget(seconds: u64, trace: bool) -> Duration {
    let factor = if trace { TRACE_FACTOR } else { 1.0 };
    SETUP_ALLOWANCE + Duration::from_secs(seconds).mul_f64(factor * SLOW_HOST)
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    let trace = trace.ok_or("--trace is required")?;
    if seconds == 0 || run_budget(seconds, trace) > RUN_LIMIT {
        let most = (1..)
            .take_while(|&s| run_budget(s, trace) <= RUN_LIMIT)
            .last();
        return Err(format!(
            "--seconds must be 1..={} with --trace {}, not {seconds}",
            most.unwrap_or(0),
            u8::from(trace)
        ));
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Stops the process, as a failed run, when it overruns its budget or
/// its client stops making progress (a hang or livelock in the system
/// under test).  Progress counts set-ups and operations.
struct Watchdog {
    progress: Arc<AtomicU64>,
    done: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn start(budget: Duration) -> Self {
        let progress = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));
        let (p, d) = (Arc::clone(&progress), Arc::clone(&done));
        let thread = std::thread::spawn(move || {
            let start = Instant::now();
            let mut last = (0, Instant::now());
            while !d.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let seen = p.load(Ordering::Relaxed);
                if seen != last.0 {
                    last = (seen, Instant::now());
                }
                let why = if start.elapsed() > budget {
                    format!("run exceeded its {budget:?} budget")
                } else if last.1.elapsed() > STALL_BUDGET {
                    format!("no progress for {STALL_BUDGET:?}")
                } else {
                    continue;
                };
                eprintln!("watchdog: {why} after {seen} set-ups and operations; stopping the run");
                if let Some(mut child) = CHILD.lock().expect("CHILD is never poisoned").take() {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                eprint!("{}", obs::flight::dump());
                println!(
                    "{{\"correct\": false, \"attempted\": {}, \"failed\": 1, \"metrics\": {{}}}}",
                    seen + 1
                );
                std::process::exit(3);
            }
        });
        Self {
            progress,
            done,
            thread,
        }
    }

    fn stop(self) {
        self.done.store(true, Ordering::SeqCst);
        self.thread
            .join()
            .expect("the watchdog thread does not panic");
    }
}

/// The set-up process running now, if any, for the watchdog to stop.
static CHILD: Mutex<Option<Child>> = Mutex::new(None);

/// Times one set-up in a fresh process, as a user's set-up runs.  A
/// second set-up in the same process is up to three times slower and
/// depends on what ran before: the allocator then serves the new
/// device's memory from the heap the old one freed and must clear it.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args([TIME_SETUP, args.kind.name(), &args.seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("set-up process: {e}"))?;
    let mut stdout = child.stdout.take().expect("the child's stdout is piped");
    *CHILD.lock().expect("CHILD is never poisoned") = Some(child);
    // Ends when the child exits (or the watchdog stops it).
    let mut out = String::new();
    let read = stdout.read_to_string(&mut out);
    let child = CHILD.lock().expect("CHILD is never poisoned").take();
    let status = child
        .ok_or("set-up process stopped")?
        .wait()
        .map_err(|e| format!("set-up process: {e}"))?;
    if !status.success() {
        return Err(format!("set-up process: {status}"));
    }
    read.map_err(|e| format!("set-up process output: {e}"))?;
    out.trim()
        .parse()
        .map_err(|_| format!("set-up process printed {out:?}"))
}

/// The child side of [`setup_in_child`].
fn time_setup(args: &[String]) -> ExitCode {
    let (Some(kind), Some(seed)) = (
        args.first().and_then(|w| Kind::parse(w)),
        args.get(1).and_then(|s| s.parse().ok()),
    ) else {
        eprintln!("usage: perfbench {TIME_SETUP} <workload> <seed>");
        return ExitCode::from(2);
    };
    let start = Instant::now();
    match Rig::build(kind, seed, false, rig::config(kind)) {
        Ok(_rig) => {
            println!("{}", start.elapsed().as_secs_f64());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, progress: &AtomicU64) -> Result<Report, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setup_s.push(setup_in_child(args)?);
        progress.fetch_add(1, Ordering::Relaxed);
    }
    let start = Instant::now();
    let mut rig = Rig::build(args.kind, args.seed, false, rig::config(args.kind))?;
    setup_s.push(start.elapsed().as_secs_f64());
    progress.fetch_add(1, Ordering::Relaxed);
    let plain = rig.measure(args.kind.ops_per_second() * args.seconds, false, progress);
    let remount = rig.remount_and_verify();
    if !args.trace {
        return Ok(Report::end_to_end(&plain, &remount, &setup_s));
    }
    let mut rig = Rig::build(args.kind, args.seed, true, rig::config(args.kind))?;
    progress.fetch_add(1, Ordering::Relaxed);
    trace::enable();
    let traced = rig.measure(plain.ops, false, progress);
    let spans = trace::take();
    let mut report = Report::per_layer(&plain, &traced, &rig.remount_and_verify(), &spans);
    report.problems.extend(
        remount
            .problems
            .iter()
            .map(|p| format!("untraced run: {p}")),
    );
    report.problems.extend(tracing_changes_sim(
        args,
        plain.ops.min(IDENTITY_OPS),
        progress,
    )?);
    Ok(report)
}

/// Operations replayed to check that tracing changes no simulated time.
const IDENTITY_OPS: u64 = 50_000;

/// Replays `ops` operations untraced and then traced, with the
/// maintenance daemon off, and compares every operation's simulated
/// time.  With the daemon on, a client's simulated time includes waits
/// for locks the daemon holds, which depend on host scheduling, so only
/// the daemon-free replay is deterministic enough to show that the
/// spans themselves charge nothing.
fn tracing_changes_sim(
    args: &Args,
    ops: u64,
    progress: &AtomicU64,
) -> Result<Option<String>, String> {
    let replay = |traced: bool| -> Result<Vec<u64>, String> {
        let config = rig::config(args.kind).without_daemon();
        let mut rig = Rig::build(args.kind, args.seed, traced, config)?;
        progress.fetch_add(1, Ordering::Relaxed);
        if traced {
            trace::enable();
        }
        let m = rig.measure(ops, true, progress);
        trace::take();
        Ok(m.sim_ps_each)
    };
    let (untraced, traced) = (replay(false)?, replay(true)?);
    let differ = untraced.iter().zip(&traced).filter(|(a, b)| a != b).count();
    Ok((differ > 0 || untraced.len() != traced.len()).then(|| {
        format!(
            "tracing changed the simulated time of {differ} of {} operations (daemon off)",
            untraced.len()
        )
    }))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(TIME_SETUP) {
        return time_setup(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ycsb-a|log-append|varmail> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    obs::install_panic_hook();
    let watchdog = Watchdog::start(run_budget(args.seconds, args.trace));
    let result = run(&args, &watchdog.progress);
    watchdog.stop();
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
