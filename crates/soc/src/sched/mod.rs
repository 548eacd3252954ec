//! Energy-aware (EAS-style) thread placement over heterogeneous clusters.
//!
//! Android's scheduler places tasks to minimize energy while meeting
//! performance demand: light and medium background work packs onto the
//! little cores, a demanding foreground thread is promoted to the prime
//! core, and only genuinely parallel workloads spill onto the mid cluster.
//! This policy is what produces the paper's heterogeneity findings:
//!
//! * Observation #7 — the big core sees high load more often than the mids
//!   (single hot threads are promoted straight to it);
//! * Observation #8 — GPU tests, whose CPU side is light, run entirely on
//!   the energy-efficient little cores;
//! * Observation #9 — only explicitly multi-core workloads load all three
//!   clusters concurrently.

use crate::config::{ClusterKind, SocConfig};
use crate::cpu::CpuDemand;

/// Intensity at or above which a thread is considered "heavy" and promoted
/// to the biggest available core.
pub const HEAVY_THRESHOLD: f64 = 0.70;

/// Intensity below which a thread is "light" and always packed onto the
/// little cluster.
pub const LIGHT_THRESHOLD: f64 = 0.30;

/// The per-cluster thread assignment produced by the scheduler, indexed
/// like `SocConfig::clusters`. A caller keeps one and lets
/// [`Scheduler::place`] refill it every tick, so placement reuses its
/// buffers instead of allocating.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// `assignments[i]` holds the indices, into the placed
    /// `CpuDemand::threads`, of the threads on `clusters[i]`, in placement
    /// order (descending intensity, stable).
    pub assignments: Vec<Vec<usize>>,
    /// Runnable thread indices in placement order (scratch).
    order: Vec<usize>,
}

impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        self.assignments == other.assignments
    }
}

impl Placement {
    /// Indices of the threads assigned to the cluster of the given kind
    /// (empty if the platform has no such cluster).
    pub fn for_kind<'a>(&'a self, soc: &SocConfig, kind: ClusterKind) -> &'a [usize] {
        soc.clusters
            .iter()
            .position(|c| c.kind == kind)
            .map(|i| self.assignments[i].as_slice())
            .unwrap_or(&[])
    }

    /// Total number of placed threads.
    pub fn thread_count(&self) -> usize {
        self.assignments.iter().map(Vec::len).sum()
    }
}

/// Thread-placement policy. The paper's platform runs Android's
/// energy-aware scheduler; the alternatives support design-space
/// ablations (see the `ablation` binary of `mwc-bench`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementPolicy {
    /// Android EAS behaviour: light/medium work packs on the littles,
    /// heavy threads are promoted big-first (default).
    #[default]
    EnergyAware,
    /// Race-to-idle: every thread prefers the fastest free core
    /// (big → mid → little), regardless of intensity.
    PerformanceFirst,
    /// Strict packing: everything goes to the little cluster and
    /// time-shares there; big/mid stay dark.
    LittleOnly,
}

impl PlacementPolicy {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::EnergyAware => "energy-aware",
            PlacementPolicy::PerformanceFirst => "performance-first",
            PlacementPolicy::LittleOnly => "little-only",
        }
    }
}

/// Scheduler over a fixed cluster topology.
#[derive(Debug, Clone)]
pub struct Scheduler {
    /// (kind, cores) per cluster, in `SocConfig::clusters` order.
    clusters: Vec<(ClusterKind, usize)>,
    policy: PlacementPolicy,
}

impl Scheduler {
    /// Build an energy-aware scheduler for the given platform.
    pub fn new(soc: &SocConfig) -> Self {
        Scheduler::with_policy(soc, PlacementPolicy::EnergyAware)
    }

    /// Build a scheduler with an explicit placement policy.
    pub fn with_policy(soc: &SocConfig, policy: PlacementPolicy) -> Self {
        Scheduler {
            clusters: soc.clusters.iter().map(|c| (c.kind, c.cores)).collect(),
            policy,
        }
    }

    /// The active placement policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    fn index_of(&self, kind: ClusterKind) -> Option<usize> {
        self.clusters.iter().position(|&(k, _)| k == kind)
    }

    /// Place the runnable threads onto clusters for one tick, overwriting
    /// `placement`.
    ///
    /// Placement is deterministic: threads are considered in descending
    /// intensity order; a cluster has one slot per core, and when every
    /// preferred cluster is full the thread time-shares on the last
    /// preference (the cluster model handles oversubscription).
    pub fn place(&self, demand: &CpuDemand, placement: &mut Placement) {
        let Placement { assignments, order } = placement;
        assignments.resize_with(self.clusters.len(), Vec::new);
        for assigned in assignments.iter_mut() {
            assigned.clear();
        }
        order.clear();
        order.extend((0..demand.threads.len()).filter(|&i| demand.threads[i].intensity > 0.0));
        order.sort_by(|&a, &b| {
            demand.threads[b]
                .intensity
                .total_cmp(&demand.threads[a].intensity)
        });

        for &i in order.iter() {
            let intensity = demand.threads[i].intensity;
            let preference: &[ClusterKind] = match self.policy {
                PlacementPolicy::EnergyAware => {
                    if intensity >= HEAVY_THRESHOLD {
                        &[ClusterKind::Big, ClusterKind::Mid, ClusterKind::Little]
                    } else if intensity >= LIGHT_THRESHOLD {
                        &[ClusterKind::Little, ClusterKind::Mid, ClusterKind::Big]
                    } else {
                        &[ClusterKind::Little]
                    }
                }
                PlacementPolicy::PerformanceFirst => {
                    &[ClusterKind::Big, ClusterKind::Mid, ClusterKind::Little]
                }
                PlacementPolicy::LittleOnly => &[ClusterKind::Little],
            };

            // A cluster has a free slot while it holds fewer threads than
            // it has cores.
            let has_free = |c: usize| assignments[c].len() < self.clusters[c].1;
            let chosen = preference
                .iter()
                .filter_map(|&kind| self.index_of(kind))
                .find(|&c| has_free(c));
            // Everything full (or the preferred kinds do not exist on this
            // platform): time-share on the last existing preference, or on
            // cluster 0 as the final fallback.
            let idx = chosen
                .or_else(|| preference.iter().rev().find_map(|&k| self.index_of(k)))
                .unwrap_or(0);
            assignments[idx].push(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::ThreadDemand;

    fn sched() -> (Scheduler, SocConfig) {
        let soc = SocConfig::snapdragon_888();
        (Scheduler::new(&soc), soc)
    }

    /// Place `demand` into a fresh placement.
    fn place(s: &Scheduler, demand: &CpuDemand) -> Placement {
        let mut p = Placement::default();
        s.place(demand, &mut p);
        p
    }

    #[test]
    fn heavy_thread_goes_to_big() {
        let (s, soc) = sched();
        let p = place(&s, &CpuDemand::single_thread(0.95));
        assert_eq!(p.for_kind(&soc, ClusterKind::Big).len(), 1);
        assert!(p.for_kind(&soc, ClusterKind::Mid).is_empty());
        assert!(p.for_kind(&soc, ClusterKind::Little).is_empty());
    }

    #[test]
    fn light_threads_pack_on_little() {
        let (s, soc) = sched();
        let p = place(&s, &CpuDemand::multi_thread(6, 0.2));
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 6);
        assert!(p.for_kind(&soc, ClusterKind::Big).is_empty());
        assert!(p.for_kind(&soc, ClusterKind::Mid).is_empty());
    }

    #[test]
    fn medium_threads_spill_little_then_mid() {
        let (s, soc) = sched();
        let p = place(&s, &CpuDemand::multi_thread(6, 0.5));
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 4);
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 2);
    }

    #[test]
    fn multicore_burst_loads_all_clusters() {
        let (s, soc) = sched();
        let p = place(&s, &CpuDemand::multi_thread(8, 0.9));
        assert_eq!(p.for_kind(&soc, ClusterKind::Big).len(), 1);
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 3);
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 4);
    }

    #[test]
    fn oversubscribed_heavy_threads_timeshare_on_little() {
        let (s, soc) = sched();
        let p = place(&s, &CpuDemand::multi_thread(12, 0.9));
        assert_eq!(p.thread_count(), 12);
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 8);
    }

    #[test]
    fn zero_intensity_threads_are_dropped() {
        let (s, _) = sched();
        let p = place(&s, &CpuDemand::multi_thread(4, 0.0));
        assert_eq!(p.thread_count(), 0);
    }

    #[test]
    fn heaviest_thread_wins_the_big_core() {
        let (s, soc) = sched();
        let mut demand = CpuDemand::default();
        demand.threads.push(ThreadDemand::new(0.8));
        demand.threads.push(ThreadDemand::new(0.99));
        let p = place(&s, &demand);
        let big = p.for_kind(&soc, ClusterKind::Big);
        assert_eq!(big.len(), 1);
        assert!((demand.threads[big[0]].intensity - 0.99).abs() < 1e-12);
        // The other heavy thread spills to mid.
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 1);
    }

    #[test]
    fn single_cluster_platform_takes_everything() {
        let soc = SocConfig::builder("mono")
            .cluster(crate::config::ClusterConfig {
                model: "OnlyCore".into(),
                kind: ClusterKind::Little,
                cores: 2,
                max_freq_mhz: 2000.0,
                min_freq_mhz: 500.0,
                l1i_kib: 32,
                l1d_kib: 32,
                l2_kib: 256,
                issue_width: 2.0,
                branch_predictor_quality: 0.9,
            })
            .build()
            .unwrap();
        let s = Scheduler::new(&soc);
        let p = place(&s, &CpuDemand::multi_thread(5, 0.9));
        assert_eq!(p.assignments[0].len(), 5);
    }

    #[test]
    fn performance_first_races_to_the_big_core() {
        let soc = SocConfig::snapdragon_888();
        let s = Scheduler::with_policy(&soc, PlacementPolicy::PerformanceFirst);
        let p = place(&s, &CpuDemand::multi_thread(2, 0.2));
        assert_eq!(p.for_kind(&soc, ClusterKind::Big).len(), 1);
        assert_eq!(p.for_kind(&soc, ClusterKind::Mid).len(), 1);
        assert!(p.for_kind(&soc, ClusterKind::Little).is_empty());
    }

    #[test]
    fn little_only_keeps_big_and_mid_dark() {
        let soc = SocConfig::snapdragon_888();
        let s = Scheduler::with_policy(&soc, PlacementPolicy::LittleOnly);
        let p = place(&s, &CpuDemand::multi_thread(8, 0.95));
        assert_eq!(p.for_kind(&soc, ClusterKind::Little).len(), 8);
        assert!(p.for_kind(&soc, ClusterKind::Big).is_empty());
        assert!(p.for_kind(&soc, ClusterKind::Mid).is_empty());
        assert_eq!(PlacementPolicy::LittleOnly.name(), "little-only");
    }

    #[test]
    fn placement_is_deterministic() {
        let (s, _) = sched();
        let d = CpuDemand::multi_thread(7, 0.6);
        assert_eq!(place(&s, &d), place(&s, &d));
    }

    #[test]
    fn refilling_a_placement_overwrites_the_previous_tick() {
        let (s, _) = sched();
        let mut reused = Placement::default();
        s.place(&CpuDemand::multi_thread(12, 0.9), &mut reused);
        s.place(&CpuDemand::multi_thread(3, 0.5), &mut reused);
        assert_eq!(reused, place(&s, &CpuDemand::multi_thread(3, 0.5)));
        // An empty demand and one with no runnable thread both leave every
        // cluster empty.
        s.place(&CpuDemand::default(), &mut reused);
        assert_eq!(reused.assignments.len(), s.clusters.len());
        assert_eq!(reused.thread_count(), 0);
        assert_eq!(reused, place(&s, &CpuDemand::multi_thread(3, 0.0)));
    }
}
