//! The simulation clock: tick counts, wall-clock times and normalized
//! times for a fixed-duration run, plus the tick at which a held demand
//! expires ([`SimClock::boundary_tick`]).
//!
//! Both engine cores take all of their time arithmetic from here, so they
//! cannot disagree about tick counts or normalized times. The module is
//! named for the event queue it held until the tick-skipping path that
//! used it was removed (see `DESIGN.md` §15).

use crate::TICK_SECONDS;

/// The largest normalized time the engine ever samples a workload at:
/// the greatest `f64` strictly below 1.0, keeping every sampled time
/// inside the documented `t_norm ∈ [0, 1)` domain of
/// [`crate::workload::Workload::demand_at`] even when the tick count was
/// rounded up.
pub const MAX_T_NORM: f64 = 1.0 - f64::EPSILON / 2.0;

/// A tick-granular simulation clock over a fixed-duration run.
///
/// Both engine cores derive tick counts, wall-clock times and normalized
/// times from here, so they share one definition of time — including the
/// two domain guarantees:
///
/// * any *positive* duration executes at least one tick, even when it is
///   shorter than half a tick (the naive `round()` would yield zero and
///   silently contradict the "non-positive duration ⇒ empty trace"
///   contract);
/// * every sampled normalized time stays strictly below 1.0
///   ([`MAX_T_NORM`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimClock {
    duration_seconds: f64,
    ticks: u64,
}

impl SimClock {
    /// Build a clock for a run of the given duration. Non-positive (or
    /// NaN) durations yield a zero-tick clock; positive durations yield
    /// `round(duration / TICK_SECONDS)` ticks, floored at one.
    pub fn for_duration(duration_seconds: f64) -> Self {
        let ticks = if duration_seconds > 0.0 {
            ((duration_seconds / TICK_SECONDS).round() as u64).max(1)
        } else {
            0
        };
        SimClock {
            duration_seconds,
            ticks,
        }
    }

    /// Number of ticks the run executes.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The run duration this clock was built for, in seconds.
    pub fn duration_seconds(&self) -> f64 {
        self.duration_seconds
    }

    /// Wall-clock time of a tick, in seconds.
    pub fn time_s(&self, tick: u64) -> f64 {
        tick as f64 * TICK_SECONDS
    }

    /// Normalized time of a tick, clamped into the `[0, 1)` domain of
    /// [`crate::workload::Workload::demand_at`].
    pub fn t_norm(&self, tick: u64) -> f64 {
        (self.time_s(tick) / self.duration_seconds).min(MAX_T_NORM)
    }

    /// The first tick after `after` whose normalized time falls outside
    /// the constant-demand interval ending (exclusively) at `hold_norm` —
    /// i.e. where the event core must re-sample the workload. Clamped
    /// to `[after + 1, ticks]`; a hold that does not extend past `after`
    /// (including NaN) degenerates to `after + 1`, which is the dense
    /// re-sample-every-tick behaviour.
    ///
    /// The arithmetic first estimates the boundary in closed form, then
    /// adjusts against the authoritative per-tick predicate
    /// (`t_norm(tick) < hold_norm`) so floating-point error in the
    /// estimate can never make the event core hold a demand one tick
    /// longer (or shorter) than the dense core would observe it.
    pub fn boundary_tick(&self, after: u64, hold_norm: f64) -> u64 {
        // `partial_cmp` so a NaN hold (incomparable) also degenerates.
        if hold_norm.partial_cmp(&self.t_norm(after)) != Some(std::cmp::Ordering::Greater) {
            return (after + 1).min(self.ticks);
        }
        if hold_norm >= 1.0 {
            return self.ticks;
        }
        let estimate = ((hold_norm * self.duration_seconds) / TICK_SECONDS).ceil();
        let mut b = if estimate.is_finite() && estimate > 0.0 {
            (estimate as u64).clamp(after + 1, self.ticks)
        } else {
            after + 1
        };
        while b > after + 1 && self.t_norm(b - 1) >= hold_norm {
            b -= 1;
        }
        while b < self.ticks && self.t_norm(b) < hold_norm {
            b += 1;
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positive_duration_executes_at_least_one_tick() {
        // Shorter than half a tick: round() alone would yield zero.
        let c = SimClock::for_duration(TICK_SECONDS / 4.0);
        assert_eq!(c.ticks(), 1);
        let c = SimClock::for_duration(1e-9);
        assert_eq!(c.ticks(), 1);
    }

    #[test]
    fn non_positive_duration_has_no_ticks() {
        assert_eq!(SimClock::for_duration(0.0).ticks(), 0);
        assert_eq!(SimClock::for_duration(-3.0).ticks(), 0);
        assert_eq!(SimClock::for_duration(f64::NAN).ticks(), 0);
    }

    #[test]
    fn ordinary_durations_round_to_nearest_tick() {
        assert_eq!(SimClock::for_duration(5.0).ticks(), 50);
        assert_eq!(SimClock::for_duration(5.04).ticks(), 50);
        assert_eq!(SimClock::for_duration(5.06).ticks(), 51);
    }

    #[test]
    fn t_norm_stays_in_domain() {
        for duration in [1e-6, 0.04, 0.06, 0.14999, 1.0, 3.337, 120.0] {
            let c = SimClock::for_duration(duration);
            assert!(c.ticks() >= 1);
            for tick in 0..c.ticks() {
                let tn = c.t_norm(tick);
                assert!(
                    (0.0..1.0).contains(&tn),
                    "t_norm {tn} out of [0, 1) for duration {duration}, tick {tick}"
                );
            }
        }
    }

    #[test]
    fn max_t_norm_is_strictly_below_one() {
        let max = MAX_T_NORM;
        assert!(max < 1.0);
        // The very next representable value is 1.0: the clamp loses the
        // least resolution possible.
        assert_eq!(f64::from_bits(max.to_bits() + 1), 1.0);
    }

    #[test]
    fn boundary_tick_matches_the_per_tick_predicate() {
        let c = SimClock::for_duration(10.0);
        for hold in [0.0, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.749999, 0.99, 1.0] {
            for after in [0u64, 1, 13, 49, 99] {
                let b = c.boundary_tick(after, hold);
                assert!(b > after && b <= c.ticks());
                // Everything strictly inside (after, b) still holds…
                for t in (after + 1)..b {
                    assert!(c.t_norm(t) < hold, "tick {t} escaped hold {hold}");
                }
                // …and b itself does not (unless the run ended first).
                if b < c.ticks() {
                    assert!(c.t_norm(b) >= hold, "tick {b} still held at {hold}");
                }
            }
        }
    }

    #[test]
    fn boundary_tick_degenerates_to_next_tick_without_a_hold() {
        let c = SimClock::for_duration(10.0);
        assert_eq!(c.boundary_tick(7, c.t_norm(7)), 8);
        assert_eq!(c.boundary_tick(7, 0.0), 8);
        assert_eq!(c.boundary_tick(7, f64::NAN), 8);
    }

    #[test]
    fn full_hold_runs_to_the_end() {
        let c = SimClock::for_duration(10.0);
        assert_eq!(c.boundary_tick(0, 1.0), c.ticks());
        assert_eq!(c.boundary_tick(42, 2.0), c.ticks());
    }
}
