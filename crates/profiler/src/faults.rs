//! Deterministic fault injection for capture sessions.
//!
//! Real Snapdragon-Profiler captures on live hardware are flaky: rows get
//! dropped when the sampling daemon falls behind, counters jitter and
//! occasionally wrap, app crashes truncate captures, and whole runs fail —
//! which is why the paper averages three runs per benchmark. This module
//! models those pathologies as a seeded [`FaultPlan`] derived from the same
//! `(study_seed, unit, run)` stream chain the engine uses, so a faulty
//! study is exactly as reproducible as a clean one.
//!
//! With [`FaultConfig::default`] every rate is zero and the capture path is
//! bit-identical to the fault-free profiler (asserted by test).

use std::fmt;

use mwc_soc::counters::{Counter, Trace};
use mwc_soc::digest::Fnv1a;
use mwc_soc::engine::stream_seed;

/// Salt mixed into the stream chain for retry attempts, so attempt `a > 0`
/// of a run draws a noise stream distinct from every canonical run stream.
const ATTEMPT_SALT: u64 = 0xFA17_0000;

/// Salt separating the fault plan's randomness from the engine's noise
/// stream for the same `(unit, run)` coordinates.
const PLAN_SALT: u64 = 0xFA17_0001;

/// Counter wrap modulus: a 32-bit instruction counter overflowing once.
const WRAP_32: f64 = 4_294_967_296.0;

/// SplitMix64 — the same generator family the engine's stream chain uses;
/// local copy so the profiler stays dependency-light.
#[derive(Debug, Clone)]
struct PlanRng {
    state: u64,
}

impl PlanRng {
    fn new(seed: u64) -> Self {
        PlanRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    fn next_signed(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

/// Fault rates and retry policy for a capture session. All rates default
/// to zero (faults off), which is guaranteed bit-identical to the
/// fault-free capture path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault stream; independent of the engine's noise seed.
    pub seed: u64,
    /// Probability that any individual tick's sample is lost, in `[0, 1]`.
    pub dropout_rate: f64,
    /// Relative amplitude of multiplicative measurement noise on counters
    /// (0.02 ≈ ±2% jitter), `>= 0`.
    pub jitter_amplitude: f64,
    /// Probability per tick that the instruction counter wraps (32-bit
    /// overflow), in `[0, 1]`.
    pub overflow_rate: f64,
    /// Probability that a run is truncated partway (simulated app crash),
    /// in `[0, 1]`.
    pub truncation_rate: f64,
    /// Probability that a run fails outright and yields no capture,
    /// in `[0, 1]`.
    pub run_failure_rate: f64,
    /// Maximum capture attempts per run (>= 1); attempts beyond the first
    /// use fresh derived seeds.
    pub max_attempts: usize,
    /// Minimum fraction of captured ticks for a run to be accepted without
    /// retrying, in `[0, 1]`.
    pub min_completeness: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            dropout_rate: 0.0,
            jitter_amplitude: 0.0,
            overflow_rate: 0.0,
            truncation_rate: 0.0,
            run_failure_rate: 0.0,
            max_attempts: 3,
            min_completeness: 0.5,
        }
    }
}

impl FaultConfig {
    /// Whether any fault mechanism is active. When false, the capture path
    /// must be bit-identical to the fault-free profiler.
    pub fn enabled(&self) -> bool {
        self.dropout_rate > 0.0
            || self.jitter_amplitude > 0.0
            || self.overflow_rate > 0.0
            || self.truncation_rate > 0.0
            || self.run_failure_rate > 0.0
    }

    /// Validate rates and the retry budget.
    pub fn validate(&self) -> Result<(), CaptureError> {
        let rates = [
            ("dropout_rate", self.dropout_rate),
            ("overflow_rate", self.overflow_rate),
            ("truncation_rate", self.truncation_rate),
            ("run_failure_rate", self.run_failure_rate),
            ("min_completeness", self.min_completeness),
        ];
        for (name, v) in rates {
            if !(0.0..=1.0).contains(&v) {
                return Err(CaptureError::InvalidFaultConfig(format!(
                    "{name} must be in [0, 1], got {v}"
                )));
            }
        }
        if !self.jitter_amplitude.is_finite() || self.jitter_amplitude < 0.0 {
            return Err(CaptureError::InvalidFaultConfig(format!(
                "jitter_amplitude must be finite and >= 0, got {}",
                self.jitter_amplitude
            )));
        }
        if self.max_attempts == 0 {
            return Err(CaptureError::InvalidFaultConfig(
                "max_attempts must be at least 1".to_owned(),
            ));
        }
        Ok(())
    }

    /// A stable fingerprint of the fault model for content-addressed
    /// result caching: FNV-1a over every knob — integers as they are and
    /// rates by their bits. The struct is destructured without `..`, so a
    /// knob added later does not compile until it is hashed here. A
    /// disabled config digests to one fixed sentinel regardless of seed,
    /// retry budget or completeness floor — none of those can influence a
    /// fault-free capture, so they must not fragment the cache key space.
    pub fn content_digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        if !self.enabled() {
            h.write_str("FaultConfig(disabled)");
            return h.finish();
        }
        let FaultConfig {
            seed,
            dropout_rate,
            jitter_amplitude,
            overflow_rate,
            truncation_rate,
            run_failure_rate,
            max_attempts,
            min_completeness,
        } = self;
        h.write_u64(*seed);
        for rate in [
            dropout_rate,
            jitter_amplitude,
            overflow_rate,
            truncation_rate,
            run_failure_rate,
        ] {
            h.write_f64(*rate);
        }
        h.write_usize(*max_attempts);
        h.write_f64(*min_completeness);
        h.finish()
    }
}

/// What one application of a fault plan did to a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionSummary {
    /// Ticks whose samples were lost (dropout plus truncated tail plus
    /// wrap repairs).
    pub dropped: usize,
    /// Counter-overflow wraps detected and repaired.
    pub wraps: usize,
    /// Whether the capture was truncated by a simulated app crash.
    pub truncated: bool,
}

/// The concrete faults one capture attempt will experience, fully
/// determined by `(fault seed, unit, run, attempt)`.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: PlanRng,
    fails: bool,
    /// Fraction of the run that survives if truncated, in `[0.2, 0.95)`.
    truncate_at: Option<f64>,
}

impl FaultPlan {
    /// Derive the plan for one capture attempt.
    pub fn new(cfg: &FaultConfig, unit: u64, run: u64, attempt: u64) -> Self {
        let base = stream_seed(cfg.seed ^ PLAN_SALT, unit, run);
        let mut rng = PlanRng::new(stream_seed(base, attempt, PLAN_SALT));
        let fails = rng.next_f64() < cfg.run_failure_rate;
        let truncate_at = if rng.next_f64() < cfg.truncation_rate {
            Some(0.2 + 0.75 * rng.next_f64())
        } else {
            None
        };
        FaultPlan {
            cfg: cfg.clone(),
            rng,
            fails,
            truncate_at,
        }
    }

    /// Whether this attempt fails outright (no trace is produced).
    pub fn run_fails(&self) -> bool {
        self.fails
    }

    /// Inject the planned faults into a captured trace, in order: jitter,
    /// overflow wraps, per-tick dropout, then tail truncation. A repair
    /// pass invalidates samples whose counters went negative or non-finite
    /// (the visible symptom of a wrap) and counts them.
    ///
    /// Truncated ticks are invalidated rather than removed so the trace
    /// keeps its uniform tick grid and run averaging stays well-defined.
    ///
    /// The trace is stored by column, but every kept tick still takes its
    /// draws in the same order: four jitter factors (instructions, cycles,
    /// cache misses, branch misses), then the overflow draw, then the
    /// dropout draw.
    pub fn apply(&mut self, trace: &mut Trace) -> InjectionSummary {
        let mut summary = InjectionSummary::default();
        let samples = &mut trace.samples;
        let n = samples.len();
        // An empty trace has nothing to truncate — and `clamp(1, 0)` would
        // panic with `min > max`.
        let cut = if n == 0 {
            None
        } else {
            self.truncate_at
                .map(|frac| ((n as f64 * frac) as usize).clamp(1, n))
        };

        for t in 0..n {
            if samples.is_dropped(t) {
                continue;
            }
            if self.cfg.jitter_amplitude > 0.0 {
                for counter in [
                    Counter::Instructions,
                    Counter::Cycles,
                    Counter::CacheMisses,
                    Counter::BranchMisses,
                ] {
                    samples[counter][t] *= 1.0 + self.cfg.jitter_amplitude * self.rng.next_signed();
                }
            }
            if self.cfg.overflow_rate > 0.0 && self.rng.next_f64() < self.cfg.overflow_rate {
                // A 32-bit counter register wrapped once mid-tick: the
                // delta read by the profiler comes out negative.
                samples[Counter::Instructions][t] -= WRAP_32;
            }
            if self.cfg.dropout_rate > 0.0 && self.rng.next_f64() < self.cfg.dropout_rate {
                samples.invalidate(t);
                summary.dropped += 1;
            }
        }

        // Repair pass: negative or non-finite counters can only come from
        // a wrap — mark the sample lost instead of poisoning aggregates.
        for t in 0..n {
            let instructions = samples[Counter::Instructions][t];
            if !instructions.is_nan() && (instructions < 0.0 || !instructions.is_finite()) {
                samples.invalidate(t);
                summary.wraps += 1;
                summary.dropped += 1;
            }
        }

        if let Some(cut) = cut {
            // Only report a truncation that actually invalidated a tick:
            // a cut at (or past) the last live sample dropped nothing.
            let mut cut_drops = 0usize;
            for t in cut..n {
                if !samples.is_dropped(t) {
                    samples.invalidate(t);
                    cut_drops += 1;
                }
            }
            summary.dropped += cut_drops;
            summary.truncated = cut_drops > 0;
        }
        summary
    }
}

/// Seed for retry attempt `attempt > 0` of `(base_seed, unit, run)`;
/// attempt 0 uses the canonical engine stream so fault-free behaviour is
/// unchanged.
pub fn attempt_seed(base_seed: u64, unit: u64, run: u64, attempt: u64) -> u64 {
    stream_seed(stream_seed(base_seed, unit, run), attempt, ATTEMPT_SALT)
}

/// Per-unit capture health: what the retry/quorum machinery had to do to
/// produce this unit's profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CaptureHealth {
    /// Runs the protocol asked for.
    pub runs_requested: usize,
    /// Runs that produced an accepted capture.
    pub runs_used: usize,
    /// Total capture attempts across all runs.
    pub attempts: usize,
    /// Attempts beyond the first, summed across runs.
    pub retries: usize,
    /// Attempts that failed outright (no trace).
    pub failed_runs: usize,
    /// Accepted runs that were truncated by a simulated crash.
    pub truncated_runs: usize,
    /// Tick samples lost across the accepted captures.
    pub dropped_samples: usize,
    /// Counter-overflow wraps repaired across the accepted captures.
    pub overflow_wraps: usize,
    /// Per-metric outliers rejected by the MAD quorum merge.
    pub outliers_rejected: usize,
}

impl CaptureHealth {
    /// Health of a perfectly clean capture of `runs` runs.
    pub fn clean(runs: usize) -> Self {
        CaptureHealth {
            runs_requested: runs,
            runs_used: runs,
            attempts: runs,
            ..CaptureHealth::default()
        }
    }

    /// Whether the capture needed no intervention at all.
    pub fn is_clean(&self) -> bool {
        self.runs_used == self.runs_requested
            && self.retries == 0
            && self.failed_runs == 0
            && self.truncated_runs == 0
            && self.dropped_samples == 0
            && self.overflow_wraps == 0
            && self.outliers_rejected == 0
    }

    /// Feed this health record into the `mwc-obs` metrics registry
    /// (`capture.*` counters). A no-op when observability collection is
    /// disabled; never mutates the health record itself, so traced and
    /// untraced studies stay bit-identical.
    pub fn record_metrics(&self) {
        use mwc_obs::metrics::counter_add;
        counter_add("capture.runs_requested", self.runs_requested as u64);
        counter_add("capture.runs_used", self.runs_used as u64);
        counter_add("capture.attempts", self.attempts as u64);
        counter_add("capture.retries", self.retries as u64);
        counter_add("capture.failed_runs", self.failed_runs as u64);
        counter_add("capture.truncated_runs", self.truncated_runs as u64);
        counter_add("capture.dropped_samples", self.dropped_samples as u64);
        counter_add("capture.overflow_wraps", self.overflow_wraps as u64);
        counter_add("capture.outliers_rejected", self.outliers_rejected as u64);
    }

    /// Mean completeness of the accepted captures: fraction of requested
    /// runs used, discounted by dropped samples (1.0 when clean).
    pub fn completeness(&self, total_samples: usize) -> f64 {
        if self.runs_requested == 0 {
            return 1.0;
        }
        let run_fraction = self.runs_used as f64 / self.runs_requested as f64;
        if total_samples == 0 {
            return run_fraction;
        }
        let sample_fraction = 1.0 - self.dropped_samples as f64 / total_samples as f64;
        run_fraction * sample_fraction.max(0.0)
    }

    /// One-line human summary for reports.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return format!("{}/{} runs clean", self.runs_used, self.runs_requested);
        }
        format!(
            "{}/{} runs ({} attempts, {} retries, {} failed, {} truncated, {} dropped samples, {} wraps, {} outliers rejected)",
            self.runs_used,
            self.runs_requested,
            self.attempts,
            self.retries,
            self.failed_runs,
            self.truncated_runs,
            self.dropped_samples,
            self.overflow_wraps,
            self.outliers_rejected
        )
    }
}

/// Errors from the resilient capture path.
#[derive(Debug)]
pub enum CaptureError {
    /// A fault rate or retry budget was out of range.
    InvalidFaultConfig(String),
    /// Every attempt of every run of a unit failed outright.
    UnitExhausted {
        /// Name of the workload whose capture was exhausted.
        workload: String,
        /// Runs that were requested.
        runs: usize,
        /// Attempts that were made in total.
        attempts: usize,
    },
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::InvalidFaultConfig(msg) => write!(f, "invalid fault config: {msg}"),
            CaptureError::UnitExhausted {
                workload,
                runs,
                attempts,
            } => write!(
                f,
                "capture of '{workload}' exhausted: all {runs} runs failed after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for CaptureError {}

/// Median of a slice, ignoring non-finite values (0 if none are finite).
pub fn finite_median(values: &[f64]) -> f64 {
    let mut finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return 0.0;
    }
    finite.sort_by(f64::total_cmp);
    let n = finite.len();
    if n % 2 == 1 {
        finite[n / 2]
    } else {
        (finite[n / 2 - 1] + finite[n / 2]) / 2.0
    }
}

/// Median-of-N with MAD-based outlier rejection: values whose modified
/// z-score `|x - med| / (1.4826 * MAD)` exceeds 3.5 are rejected, and the
/// median of the survivors is returned along with the rejection count.
/// With fewer than three finite values nothing is rejected.
pub fn robust_merge(values: &[f64]) -> (f64, usize) {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.len() < 3 {
        return (finite_median(&finite), 0);
    }
    let med = finite_median(&finite);
    let deviations: Vec<f64> = finite.iter().map(|v| (v - med).abs()).collect();
    let mad = finite_median(&deviations);
    if mad <= 0.0 {
        // All values identical (or half are): nothing to reject.
        return (med, 0);
    }
    let scale = 1.4826 * mad;
    let survivors: Vec<f64> = finite
        .iter()
        .copied()
        .filter(|v| ((v - med).abs() / scale) <= 3.5)
        .collect();
    let rejected = finite.len() - survivors.len();
    (finite_median(&survivors), rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_soc::config::SocConfig;
    use mwc_soc::cpu::CpuDemand;
    use mwc_soc::engine::Engine;
    use mwc_soc::workload::{ConstantWorkload, Demand};

    fn trace_of(seconds: f64) -> Trace {
        let mut engine = Engine::new(SocConfig::snapdragon_888(), 0).expect("valid preset");
        engine.reset_for(100, 0, 0);
        let mut d = Demand::idle();
        d.cpu = CpuDemand::single_thread(0.8);
        engine.run(&ConstantWorkload::new("t", seconds, d))
    }

    fn trace() -> Trace {
        trace_of(20.0)
    }

    #[test]
    fn default_config_is_disabled_and_valid() {
        let cfg = FaultConfig::default();
        assert!(!cfg.enabled());
        cfg.validate().expect("default config is valid");
    }

    #[test]
    fn disabled_plan_leaves_trace_untouched() {
        let cfg = FaultConfig::default();
        let mut t = trace();
        let orig = t.clone();
        let summary = FaultPlan::new(&cfg, 0, 0, 0).apply(&mut t);
        assert_eq!(t, orig);
        assert_eq!(summary, InjectionSummary::default());
    }

    #[test]
    fn plans_are_deterministic() {
        let cfg = FaultConfig {
            seed: 42,
            dropout_rate: 0.1,
            jitter_amplitude: 0.02,
            ..FaultConfig::default()
        };
        let mut a = trace();
        let mut b = a.clone();
        FaultPlan::new(&cfg, 3, 1, 0).apply(&mut a);
        FaultPlan::new(&cfg, 3, 1, 0).apply(&mut b);
        // NaN != NaN, so compare bit patterns sample by sample.
        let bits = |t: &Trace| -> Vec<u64> {
            let instructions = &t.samples[Counter::Instructions];
            instructions.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.dropped_samples(), b.dropped_samples());
    }

    #[test]
    fn distinct_attempts_draw_distinct_faults() {
        let cfg = FaultConfig {
            seed: 42,
            dropout_rate: 0.2,
            ..FaultConfig::default()
        };
        let mut a = trace();
        let mut b = a.clone();
        FaultPlan::new(&cfg, 3, 1, 0).apply(&mut a);
        FaultPlan::new(&cfg, 3, 1, 1).apply(&mut b);
        let dropped = |t: &Trace| -> Vec<usize> {
            (0..t.samples.len())
                .filter(|&i| t.samples.is_dropped(i))
                .collect()
        };
        assert_ne!(dropped(&a), dropped(&b), "attempts share a dropout plan");
    }

    #[test]
    fn dropout_rate_is_roughly_honoured() {
        let cfg = FaultConfig {
            seed: 7,
            dropout_rate: 0.1,
            ..FaultConfig::default()
        };
        let mut t = trace();
        let n = t.samples.len();
        let summary = FaultPlan::new(&cfg, 0, 0, 0).apply(&mut t);
        let rate = summary.dropped as f64 / n as f64;
        assert!(rate > 0.03 && rate < 0.25, "got dropout rate {rate}");
        assert_eq!(t.dropped_samples(), summary.dropped);
    }

    #[test]
    fn truncation_invalidates_the_tail() {
        let cfg = FaultConfig {
            seed: 1,
            truncation_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut t = trace();
        let n = t.samples.len();
        let summary = FaultPlan::new(&cfg, 0, 0, 0).apply(&mut t);
        assert!(summary.truncated);
        assert!(summary.dropped > 0);
        assert_eq!(t.samples.len(), n, "truncation keeps the tick grid");
        assert!(t.samples.is_dropped(n - 1));
        assert!(!t.samples.is_dropped(0));
    }

    #[test]
    fn truncation_on_empty_trace_is_a_noop() {
        // Regression: `((0 as f64 * frac) as usize).clamp(1, 0)` used to
        // panic with `min > max` on a zero-sample trace.
        let cfg = FaultConfig {
            seed: 1,
            truncation_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut t = trace_of(0.0);
        assert!(t.samples.is_empty());
        let summary = FaultPlan::new(&cfg, 0, 0, 0).apply(&mut t);
        assert!(!summary.truncated, "nothing was dropped");
        assert_eq!(summary.dropped, 0);
        assert!(t.samples.is_empty());
    }

    #[test]
    fn truncation_on_single_sample_trace_drops_nothing() {
        // With one sample the cut clamps to 1 == n, so the tail is empty:
        // the summary must not claim a truncation that dropped nothing.
        let cfg = FaultConfig {
            seed: 1,
            truncation_rate: 1.0,
            ..FaultConfig::default()
        };
        let mut t = trace_of(0.1);
        assert_eq!(t.samples.len(), 1);
        let summary = FaultPlan::new(&cfg, 0, 0, 0).apply(&mut t);
        assert!(!summary.truncated);
        assert_eq!(summary.dropped, 0);
        assert!(!t.samples.is_dropped(0));
    }

    #[test]
    fn content_digest_ignores_inert_knobs_when_disabled() {
        let a = FaultConfig::default();
        let b = FaultConfig {
            seed: 99,
            max_attempts: 7,
            min_completeness: 0.9,
            ..FaultConfig::default()
        };
        assert_eq!(a.content_digest(), b.content_digest());
        let enabled = FaultConfig {
            dropout_rate: 0.05,
            ..FaultConfig::default()
        };
        assert_ne!(a.content_digest(), enabled.content_digest());
        let enabled_other_seed = FaultConfig {
            seed: 1,
            dropout_rate: 0.05,
            ..FaultConfig::default()
        };
        assert_ne!(
            enabled.content_digest(),
            enabled_other_seed.content_digest()
        );
    }

    #[test]
    fn every_knob_of_an_enabled_config_reaches_the_content_digest() {
        let base = FaultConfig {
            seed: 7,
            dropout_rate: 0.05,
            jitter_amplitude: 0.01,
            overflow_rate: 0.001,
            truncation_rate: 0.1,
            run_failure_rate: 0.1,
            max_attempts: 3,
            min_completeness: 0.5,
        };
        type Edit = (&'static str, fn(&mut FaultConfig));
        let edits: [Edit; 8] = [
            ("seed", |f| f.seed += 1),
            ("dropout_rate", |f| f.dropout_rate += 0.01),
            ("jitter_amplitude", |f| f.jitter_amplitude += 0.01),
            ("overflow_rate", |f| f.overflow_rate += 0.01),
            ("truncation_rate", |f| f.truncation_rate += 0.01),
            ("run_failure_rate", |f| f.run_failure_rate += 0.01),
            ("max_attempts", |f| f.max_attempts += 1),
            ("min_completeness", |f| f.min_completeness += 0.01),
        ];
        let mut seen = std::collections::HashSet::from([base.content_digest()]);
        for (knob, edit) in edits {
            let mut f = base.clone();
            edit(&mut f);
            assert!(f.enabled());
            assert!(
                seen.insert(f.content_digest()),
                "changing {knob} left the digest on one already seen"
            );
        }
    }

    #[test]
    fn overflow_wraps_are_repaired_and_counted() {
        let cfg = FaultConfig {
            seed: 5,
            overflow_rate: 0.05,
            ..FaultConfig::default()
        };
        let mut t = trace();
        let summary = FaultPlan::new(&cfg, 0, 0, 0).apply(&mut t);
        assert!(
            summary.wraps > 0,
            "5% over 200 ticks should wrap at least once"
        );
        assert!(t.samples[Counter::Instructions]
            .iter()
            .all(|&v| v.is_nan() || v >= 0.0));
    }

    #[test]
    fn run_failure_rate_one_always_fails() {
        let cfg = FaultConfig {
            seed: 9,
            run_failure_rate: 1.0,
            ..FaultConfig::default()
        };
        assert!(FaultPlan::new(&cfg, 0, 0, 0).run_fails());
        assert!(FaultPlan::new(&cfg, 17, 2, 3).run_fails());
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let bad_rate = FaultConfig {
            dropout_rate: 1.5,
            ..FaultConfig::default()
        };
        assert!(bad_rate.validate().is_err());
        let bad_attempts = FaultConfig {
            max_attempts: 0,
            ..FaultConfig::default()
        };
        assert!(bad_attempts.validate().is_err());
    }

    #[test]
    fn robust_merge_rejects_outlier() {
        let (merged, rejected) = robust_merge(&[10.0, 10.1, 9.9, 10.05, 500.0]);
        assert_eq!(rejected, 1);
        assert!((merged - 10.05).abs() < 0.2);
    }

    #[test]
    fn robust_merge_identical_values() {
        let (merged, rejected) = robust_merge(&[3.0, 3.0, 3.0]);
        assert_eq!(merged, 3.0);
        assert_eq!(rejected, 0);
    }

    #[test]
    fn robust_merge_ignores_nan() {
        let (merged, rejected) = robust_merge(&[1.0, f64::NAN, 3.0]);
        assert_eq!(rejected, 0);
        assert!((merged - 2.0).abs() < 1e-12);
    }

    #[test]
    fn finite_median_handles_edge_cases() {
        assert_eq!(finite_median(&[]), 0.0);
        assert_eq!(finite_median(&[f64::NAN]), 0.0);
        assert_eq!(finite_median(&[2.0, 1.0, 3.0]), 2.0);
        assert_eq!(finite_median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn health_clean_and_summary() {
        let h = CaptureHealth::clean(3);
        assert!(h.is_clean());
        assert_eq!(h.completeness(600), 1.0);
        assert_eq!(h.summary(), "3/3 runs clean");
        let degraded = CaptureHealth {
            runs_requested: 3,
            runs_used: 2,
            attempts: 5,
            retries: 2,
            failed_runs: 2,
            truncated_runs: 1,
            dropped_samples: 30,
            overflow_wraps: 1,
            outliers_rejected: 2,
        };
        assert!(!degraded.is_clean());
        assert!(degraded.completeness(600) < 0.67);
        assert!(degraded.summary().contains("2/3 runs"));
    }

    #[test]
    fn attempt_seed_differs_from_canonical() {
        assert_ne!(attempt_seed(100, 0, 0, 1), attempt_seed(100, 0, 0, 2));
        assert_ne!(attempt_seed(100, 0, 0, 1), attempt_seed(100, 0, 1, 1));
    }
}
