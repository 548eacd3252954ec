//! Dynamic voltage and frequency scaling (DVFS).
//!
//! Each cluster (and the GPU/AIE) owns an operating-performance-point (OPP)
//! table and a `schedutil`-style governor: the target frequency is
//! proportional to utilization with 25% headroom, snapped up to the next
//! OPP, with bounded per-tick ramping to model governor latency.
//!
//! CPU Load in the paper is *frequency × utilization* precisely because
//! high utilization at a low frequency is not high load (§V-B); this module
//! is what makes that distinction meaningful in the simulator.

/// An operating-performance-point table: the discrete frequencies (MHz) a
/// domain can run at, ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct OppTable {
    points: Vec<f64>,
}

impl OppTable {
    /// Build a table with `steps` evenly spaced OPPs covering
    /// `[min_mhz, max_mhz]`. `steps` is clamped to at least 2.
    pub fn linear(min_mhz: f64, max_mhz: f64, steps: usize) -> Self {
        let steps = steps.max(2);
        let span = max_mhz - min_mhz;
        let points = (0..steps)
            .map(|i| min_mhz + span * (i as f64) / ((steps - 1) as f64))
            .collect();
        OppTable { points }
    }

    /// The discrete points, ascending.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// Lowest OPP.
    pub fn min(&self) -> f64 {
        self.points[0]
    }

    /// Highest OPP. [`OppTable::linear`] guarantees at least two points,
    /// so the fallback is unreachable; it exists to keep this panic-free.
    pub fn max(&self) -> f64 {
        self.points.last().copied().unwrap_or(0.0)
    }

    /// Snap a requested frequency up to the next available OPP (clamped to
    /// the table range).
    pub fn snap_up(&self, freq_mhz: f64) -> f64 {
        for &p in &self.points {
            if p >= freq_mhz {
                return p;
            }
        }
        self.max()
    }
}

/// Frequency-scaling policy: which Linux cpufreq governor the platform
/// runs. The paper's platform uses the stock (schedutil) governor; the
/// alternatives support design-space ablations (see the `ablation` binary
/// of `mwc-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GovernorPolicy {
    /// Track utilization with 25% headroom and smoothed ramping (default).
    #[default]
    Schedutil,
    /// Pin the domain at its maximum OPP.
    Performance,
    /// Pin the domain at its minimum OPP.
    Powersave,
    /// Like schedutil but with a slow ramp (half the gap per tick is left
    /// unclosed twice as long) — a `conservative`-style governor.
    Conservative,
}

impl GovernorPolicy {
    /// Human-readable name matching the Linux cpufreq governors.
    pub fn name(self) -> &'static str {
        match self {
            GovernorPolicy::Schedutil => "schedutil",
            GovernorPolicy::Performance => "performance",
            GovernorPolicy::Powersave => "powersave",
            GovernorPolicy::Conservative => "conservative",
        }
    }
}

/// A frequency governor over an OPP table with ramp smoothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Governor {
    opps: OppTable,
    current_mhz: f64,
    /// Fraction of the remaining frequency gap closed per tick.
    ramp: f64,
    policy: GovernorPolicy,
}

/// Headroom factor used by `schedutil`: `target = 1.25 · util · max`.
const HEADROOM: f64 = 1.25;

impl Governor {
    /// Create a schedutil governor over the given OPP table, starting at
    /// the lowest OPP.
    pub fn new(opps: OppTable) -> Self {
        Governor::with_policy(opps, GovernorPolicy::Schedutil)
    }

    /// Create a governor with an explicit policy.
    pub fn with_policy(opps: OppTable, policy: GovernorPolicy) -> Self {
        let current_mhz = match policy {
            GovernorPolicy::Performance => opps.max(),
            _ => opps.min(),
        };
        let ramp = match policy {
            GovernorPolicy::Conservative => 0.33,
            _ => 0.65,
        };
        Governor {
            opps,
            current_mhz,
            ramp,
            policy,
        }
    }

    /// Convenience constructor: linear 8-point OPP table over the range.
    pub fn for_range(min_mhz: f64, max_mhz: f64) -> Self {
        Governor::new(OppTable::linear(min_mhz, max_mhz, 8))
    }

    /// The active policy.
    pub fn policy(&self) -> GovernorPolicy {
        self.policy
    }

    /// Replace the policy (takes effect from the next tick; frequency is
    /// re-pinned immediately for the fixed policies).
    pub fn set_policy(&mut self, policy: GovernorPolicy) {
        self.policy = policy;
        self.ramp = match policy {
            GovernorPolicy::Conservative => 0.33,
            _ => 0.65,
        };
        match policy {
            GovernorPolicy::Performance => self.current_mhz = self.opps.max(),
            GovernorPolicy::Powersave => self.current_mhz = self.opps.min(),
            _ => {}
        }
    }

    /// Current operating frequency in MHz.
    pub fn frequency_mhz(&self) -> f64 {
        self.current_mhz
    }

    /// The frequency one [`Governor::tick`] at the given utilization would
    /// move to, without mutating any state. `tick` is defined in terms of
    /// this, so the prediction is exact to the bit.
    pub fn next_frequency(&self, utilization: f64) -> f64 {
        match self.policy {
            GovernorPolicy::Performance => return self.opps.max(),
            GovernorPolicy::Powersave => return self.opps.min(),
            GovernorPolicy::Schedutil | GovernorPolicy::Conservative => {}
        }
        let util = utilization.clamp(0.0, 1.0);
        let raw_target =
            (HEADROOM * util * self.opps.max()).clamp(self.opps.min(), self.opps.max());
        let target = self.opps.snap_up(raw_target);
        // Governors react within a few scheduling periods; close most of
        // the gap each tick rather than jumping instantly.
        self.current_mhz + (target - self.current_mhz) * self.ramp
    }

    /// Advance one tick with the observed utilization in `[0, 1]`; returns
    /// the new operating frequency in MHz.
    pub fn tick(&mut self, utilization: f64) -> f64 {
        self.current_mhz = self.next_frequency(utilization);
        self.current_mhz
    }

    /// Reset to the policy's idle frequency (e.g. between benchmark runs).
    pub fn reset(&mut self) {
        self.current_mhz = match self.policy {
            GovernorPolicy::Performance => self.opps.max(),
            _ => self.opps.min(),
        };
    }

    /// The governor's OPP table.
    pub fn opps(&self) -> &OppTable {
        &self.opps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_table_covers_range() {
        let t = OppTable::linear(300.0, 3000.0, 8);
        assert_eq!(t.points().len(), 8);
        assert_eq!(t.min(), 300.0);
        assert_eq!(t.max(), 3000.0);
    }

    #[test]
    fn snap_up_picks_next_point() {
        let t = OppTable::linear(1000.0, 2000.0, 3); // 1000, 1500, 2000
        assert_eq!(t.snap_up(900.0), 1000.0);
        assert_eq!(t.snap_up(1000.0), 1000.0);
        assert_eq!(t.snap_up(1001.0), 1500.0);
        assert_eq!(t.snap_up(1700.0), 2000.0);
        assert_eq!(t.snap_up(9999.0), 2000.0);
    }

    #[test]
    fn steps_clamped_to_two() {
        let t = OppTable::linear(500.0, 1000.0, 0);
        assert_eq!(t.points().len(), 2);
    }

    #[test]
    fn governor_starts_low() {
        let g = Governor::for_range(300.0, 1800.0);
        assert_eq!(g.frequency_mhz(), 300.0);
    }

    #[test]
    fn full_load_converges_to_max() {
        let mut g = Governor::for_range(300.0, 1800.0);
        for _ in 0..50 {
            g.tick(1.0);
        }
        assert!((g.frequency_mhz() - 1800.0).abs() < 1.0);
    }

    #[test]
    fn idle_converges_to_min() {
        let mut g = Governor::for_range(300.0, 1800.0);
        for _ in 0..50 {
            g.tick(1.0);
        }
        for _ in 0..80 {
            g.tick(0.0);
        }
        assert!((g.frequency_mhz() - 300.0).abs() < 1.0);
    }

    #[test]
    fn moderate_load_runs_mid_table() {
        let mut g = Governor::for_range(300.0, 3000.0);
        for _ in 0..60 {
            g.tick(0.5);
        }
        let f = g.frequency_mhz();
        // 1.25 * 0.5 * 3000 = 1875, snapped up within the table.
        assert!(f > 1500.0 && f < 2500.0, "got {f}");
    }

    #[test]
    fn ramping_is_gradual() {
        let mut g = Governor::for_range(300.0, 3000.0);
        let f1 = g.tick(1.0);
        assert!(f1 < 3000.0, "first tick must not jump straight to max");
        let f2 = g.tick(1.0);
        assert!(f2 > f1);
    }

    #[test]
    fn reset_returns_to_min() {
        let mut g = Governor::for_range(300.0, 3000.0);
        for _ in 0..30 {
            g.tick(1.0);
        }
        g.reset();
        assert_eq!(g.frequency_mhz(), 300.0);
    }

    #[test]
    fn performance_policy_pins_max() {
        let mut g = Governor::with_policy(
            OppTable::linear(300.0, 3000.0, 8),
            GovernorPolicy::Performance,
        );
        assert_eq!(g.tick(0.0), 3000.0);
        assert_eq!(g.tick(1.0), 3000.0);
        g.reset();
        assert_eq!(g.frequency_mhz(), 3000.0);
    }

    #[test]
    fn powersave_policy_pins_min() {
        let mut g = Governor::with_policy(
            OppTable::linear(300.0, 3000.0, 8),
            GovernorPolicy::Powersave,
        );
        assert_eq!(g.tick(1.0), 300.0);
    }

    #[test]
    fn conservative_ramps_slower_than_schedutil() {
        let opps = OppTable::linear(300.0, 3000.0, 8);
        let mut fast = Governor::with_policy(opps.clone(), GovernorPolicy::Schedutil);
        let mut slow = Governor::with_policy(opps, GovernorPolicy::Conservative);
        for _ in 0..3 {
            fast.tick(1.0);
            slow.tick(1.0);
        }
        assert!(fast.frequency_mhz() > slow.frequency_mhz());
    }

    #[test]
    fn set_policy_repins_fixed_policies() {
        let mut g = Governor::for_range(300.0, 3000.0);
        g.set_policy(GovernorPolicy::Performance);
        assert_eq!(g.frequency_mhz(), 3000.0);
        assert_eq!(g.policy(), GovernorPolicy::Performance);
        assert_eq!(GovernorPolicy::Performance.name(), "performance");
    }

    #[test]
    fn next_frequency_predicts_tick_exactly() {
        let mut g = Governor::for_range(300.0, 3000.0);
        for (i, util) in [0.9, 0.9, 0.4, 0.0, 0.0, 0.7, 1.0, 0.2].iter().enumerate() {
            let predicted = g.next_frequency(*util);
            let actual = g.tick(*util);
            assert_eq!(
                predicted.to_bits(),
                actual.to_bits(),
                "prediction diverged at step {i}"
            );
        }
    }

    #[test]
    fn governor_settles_to_an_exact_fixpoint_at_idle() {
        let mut g = Governor::for_range(300.0, 3000.0);
        for _ in 0..30 {
            g.tick(1.0);
        }
        for _ in 0..200 {
            g.tick(0.0);
        }
        let before = g.frequency_mhz();
        assert_eq!(g.tick(0.0).to_bits(), before.to_bits());
    }

    #[test]
    fn freshly_reset_governor_holds_its_floor_at_idle() {
        let mut g = Governor::for_range(300.0, 3000.0);
        // At the minimum OPP with zero utilization the target is the
        // minimum OPP: the gap is exactly zero.
        let floor = g.frequency_mhz();
        assert_eq!(g.tick(0.0).to_bits(), floor.to_bits());
    }

    #[test]
    fn utilization_clamped() {
        let mut g = Governor::for_range(300.0, 3000.0);
        for _ in 0..60 {
            g.tick(5.0);
        }
        assert!(g.frequency_mhz() <= 3000.0);
    }
}
