//! What every workload shares: the run configuration, seed derivation,
//! the pinned-digest oracle, timed set-up, the measuring loop, scratch
//! directories and the host record.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mwc_core::{Characterization, StudySpec};
use mwc_profiler::capture::PAPER_RUNS;
use mwc_soc::config::SocConfig;

use crate::stats;

/// The digest of the seed-2024 single-run study on the default platform,
/// as pinned by the repository's columnar reference test.
pub const PINNED_DIGEST: u64 = 0xe58b_2946_ff34_a629;

/// Each run repeats its set-up at least this many times, and until
/// [`SETUP_MIN_SECONDS`] have passed; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;
/// Cheap set-ups repeat until this much time is spent, for a steadier median.
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Upper bound on set-up repeats.
const SETUP_MAX_REPEATS: usize = 50;

/// A run may overrun `--seconds` by at most this factor while it gathers
/// the samples its tail percentile needs.
const MAX_OVERRUN: u32 = 3;

/// One run's settings.
#[derive(Debug)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Study fan-out, server workers and client connections (`nproc`).
    pub threads: usize,
    /// The expected digest of the pinned study.
    pub pinned: u64,
    pub scratch: Scratch,
}

/// A row of the report: one measured figure with its sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Row {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Row {
            name: name.to_owned(),
            value,
            unit,
            samples,
        }
    }
}

/// What a workload run hands back to the printer.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Rows printed for people, named as the workload's own figures.
    pub rows: Vec<Row>,
    /// Rows printed in the result line (end-to-end or per-layer names).
    pub metrics: Vec<Row>,
    /// Spans written out at the end of a traced run.
    pub trace_jsonl: Option<String>,
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The study seed of item `index` of stream `stream`, derived from the
/// workload seed alone.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_add(index))
}

/// The paper's default study (18 units × 3 runs, Snapdragon 888) on `seed`.
pub fn paper_spec(seed: u64, threads: usize) -> StudySpec {
    StudySpec::new(SocConfig::snapdragon_888(), seed, PAPER_RUNS).with_threads(threads)
}

/// Run the seed-2024 single-run study and compare it with the pinned digest.
pub fn check_pinned(expected: u64, threads: usize) -> Result<(), String> {
    let spec = StudySpec::new(SocConfig::snapdragon_888(), 2024, 1).with_threads(threads);
    let study = Characterization::try_run_spec(&spec).map_err(|e| format!("pinned study: {e}"))?;
    let digest = study.digest();
    if digest != expected {
        return Err(format!(
            "pinned study digest {digest:016x} does not match the expected {expected:016x}"
        ));
    }
    Ok(())
}

/// Run `setup` repeatedly (see [`SETUP_REPEATS`]), timing each, and keep
/// the last state; every earlier state goes to `teardown`.
pub fn timed_setups<S>(
    mut setup: impl FnMut() -> Result<S, String>,
    mut teardown: impl FnMut(S),
) -> Result<(Vec<f64>, S), String> {
    let mut times: Vec<f64> = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    while times.len() < SETUP_REPEATS
        || (times.iter().sum::<f64>() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let started = Instant::now();
        let state = setup()?;
        times.push(started.elapsed().as_secs_f64());
        last = Some(state);
    }
    Ok((times, last.expect("at least one set-up ran")))
}

/// Call `op(i)` for i = 0, 1, … until `seconds` have passed and at least
/// `min_ops` ops ran (overrunning by at most [`MAX_OVERRUN`]×). Returns
/// the op count and the wall time.
pub fn run_for(seconds: f64, min_ops: u64, mut op: impl FnMut(u64)) -> (u64, Duration) {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut ops = 0;
    loop {
        let elapsed = started.elapsed();
        if elapsed >= budget && (ops >= min_ops || elapsed >= budget * MAX_OVERRUN) {
            return (ops, elapsed);
        }
        op(ops);
        ops += 1;
    }
}

/// Percentile `p` of `samples`, or an error naming the figure when the run
/// gathered too few samples to report it.
pub fn pct(samples: &[f64], p: usize, what: &str) -> Result<f64, String> {
    stats::percentile(samples, p)
        .ok_or_else(|| format!("{what}: {} samples are too few for p{p}", samples.len()))
}

/// The end-to-end metrics every workload prints, from its headline
/// latencies. Tail percentiles and throughput are printed by each workload
/// with its own figures but are not result metrics: on a shared host they
/// move between runs by more than any bound could allow.
pub fn end_to_end(setups: &[f64], latencies_ms: &[f64]) -> Result<Vec<Row>, String> {
    Ok(vec![
        Row::new(
            "latency_ms.p50",
            pct(latencies_ms, 50, "latency_ms")?,
            "ms",
            latencies_ms.len(),
        ),
        Row::new("peak_rss_mib", peak_rss_mib()?, "MiB", 1),
        Row::new(
            "setup_s",
            stats::median(setups).expect("set-up ran"),
            "s",
            setups.len(),
        ),
    ])
}

/// Rows `<name>.p<pct>` in ms for each percentile the samples support; one
/// without ten samples beyond it is left out.
pub fn percentile_rows(name: &str, samples: &[f64], pcts: &[usize]) -> Vec<Row> {
    pcts.iter()
        .filter_map(|&p| {
            let v = stats::percentile(samples, p)?;
            Some(Row::new(&format!("{name}.p{p}"), v, "ms", samples.len()))
        })
        .collect()
}

/// One row per per-layer metric: the median of its per-op values.
pub fn median_rows(per: BTreeMap<&str, Vec<f64>>) -> Vec<Row> {
    per.into_iter()
        .map(|(name, v)| {
            let median = stats::median(&v).unwrap_or(0.0);
            Row::new(name, median, crate::layer_unit(name), v.len())
        })
        .collect()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Benchmark-owned scratch space under `.perfbench/tmp` of the working
/// directory, removed when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    pub fn new() -> io::Result<Self> {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let root = Path::new(".perfbench")
            .join("tmp")
            .join(format!("{}-{nonce}", std::process::id()));
        fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// A new, empty directory.
    pub fn fresh_dir(&self) -> Result<PathBuf, String> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("d{n}"));
        fs::create_dir(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Leave `.perfbench/tmp` behind only if another run still uses it.
        let _ = self.root.parent().map(fs::remove_dir);
    }
}

/// Remove a scratch directory (best effort: the scratch root goes anyway).
pub fn remove_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The commit of the working directory, read from `.git` without running
/// git; `unknown` outside a git checkout.
pub fn commit() -> String {
    let read = |p: &str| fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_owned();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|hash| hash.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
        let seeds: std::collections::BTreeSet<u64> =
            (0..1000).map(|i| derive_seed(7, 1, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive_seed(7, 1, 0), derive_seed(7, 2, 0));
        assert_ne!(derive_seed(7, 1, 0), derive_seed(8, 1, 0));
    }

    #[test]
    fn run_for_honours_the_minimum_op_count_up_to_the_overrun_cap() {
        let slow = |_| std::thread::sleep(Duration::from_millis(4));
        let (ops, _) = run_for(0.005, 3, slow);
        assert!(ops >= 3, "{ops}");
        let (ops, wall) = run_for(0.005, 1_000_000, slow);
        assert!(ops <= 5, "{ops}");
        assert!(wall >= Duration::from_millis(15));
    }
}
