//! Runtime model of one CPU core cluster.
//!
//! The paper observes that *"the load values for cores belonging to the
//! same cluster are almost identical"* (§V-C) and therefore reports
//! per-cluster loads; the simulator models each cluster as a unit with
//! `cores` execution slots sharing one DVFS domain, one pipeline model and
//! one branch predictor, exactly as the analysis consumes it.

use crate::cache::{CacheConfig, CacheHierarchy};
use crate::config::ClusterConfig;
use crate::cpu::{BranchPredictor, CoreTick, PipelineModel, ThreadDemand};
use crate::freq::Governor;

/// Per-tick output of one cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterTickResult {
    /// Mean core utilization across the cluster, in `[0, 1]`.
    pub utilization: f64,
    /// Operating frequency for the tick, in MHz.
    pub frequency_mhz: f64,
    /// Execution counters accumulated over all cores of the cluster.
    pub counters: CoreTick,
}

impl ClusterTickResult {
    /// An idle tick at the given floor frequency.
    pub fn idle(frequency_mhz: f64) -> Self {
        ClusterTickResult {
            utilization: 0.0,
            frequency_mhz,
            counters: CoreTick::default(),
        }
    }

    /// The paper's CPU Load metric for this cluster: frequency ×
    /// utilization, normalized by the given maximum frequency so the result
    /// is in `[0, 1]`.
    pub fn load(&self, max_freq_mhz: f64) -> f64 {
        if max_freq_mhz <= 0.0 {
            return 0.0;
        }
        (self.frequency_mhz * self.utilization / max_freq_mhz).clamp(0.0, 1.0)
    }
}

/// The per-thread figures a tick derives from the CPI stack.
#[derive(Debug, Clone, Copy)]
struct ThreadCost {
    cpi: f64,
    total_mpki: f64,
    dram_apki: f64,
    branch_mpki: f64,
}

/// The exact bits of every input of a [`ThreadCost`]: the thread's mix
/// fractions that the cache, branch and pipeline models read (FP, SIMD,
/// load/store, branches), its working set, locality, ILP and branch
/// predictability, and the cluster's L3 and SLC contention. Everything
/// else the models read is fixed when the cluster is built, so equal keys
/// mean bit-identical costs. A model change that reads another input must
/// add it here; the dense core, which never memoizes, is the check.
type MemoKey = [u64; 10];

/// log2 of the number of slots in a cluster's CPI memo. At 128 slots
/// (15 KiB) the paper study misses only on the first use of each key: 65
/// misses in 548,526 lookups on one worker, where 64 slots add ~35
/// collision misses.
const MEMO_BITS: u32 = 7;

/// A bounded, direct-mapped memo of per-thread costs. A lookup hashes the
/// key to one slot and compares one key; a miss overwrites the slot.
#[derive(Debug, Clone)]
struct CpiMemo {
    slots: Vec<Option<(MemoKey, ThreadCost)>>,
    hits: u64,
    misses: u64,
}

impl CpiMemo {
    fn new() -> Self {
        CpiMemo {
            slots: vec![None; 1 << MEMO_BITS],
            hits: 0,
            misses: 0,
        }
    }

    fn slot(key: &MemoKey) -> usize {
        let h = key.iter().fold(0u64, |h, &w| {
            (h.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95)
        });
        (h >> (64 - MEMO_BITS)) as usize
    }

    /// The cost stored under `key`, or `compute()` stored in its slot.
    fn get_or_insert(&mut self, key: MemoKey, compute: impl FnOnce() -> ThreadCost) -> ThreadCost {
        let slot = &mut self.slots[CpiMemo::slot(&key)];
        match slot {
            Some((k, cost)) if *k == key => {
                self.hits += 1;
                *cost
            }
            _ => {
                self.misses += 1;
                let cost = compute();
                *slot = Some((key, cost));
                cost
            }
        }
    }
}

/// One CPU core cluster: `cores` identical cores sharing a frequency
/// domain, cache hierarchy model and branch predictor.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
    pipeline: PipelineModel,
    predictor: BranchPredictor,
    hierarchy: CacheHierarchy,
    governor: Governor,
    memo: CpiMemo,
}

impl Cluster {
    /// Build the runtime model from a validated configuration and the
    /// platform's shared caches.
    pub fn new(config: ClusterConfig, l3: CacheConfig, slc: CacheConfig) -> Self {
        let pipeline = PipelineModel::for_cluster(config.kind, config.issue_width);
        let predictor = BranchPredictor::new(config.branch_predictor_quality);
        let hierarchy = CacheHierarchy::new(config.l1d_kib, config.l2_kib, l3, slc);
        let governor = Governor::for_range(config.min_freq_mhz, config.max_freq_mhz);
        Cluster {
            config,
            pipeline,
            predictor,
            hierarchy,
            governor,
            memo: CpiMemo::new(),
        }
    }

    /// The cluster's static configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Switch the cluster's DVFS policy (ablation hook).
    pub fn set_governor_policy(&mut self, policy: crate::freq::GovernorPolicy) {
        self.governor.set_policy(policy);
    }

    /// Propagate shared-cache contention (KiB in L3, KiB in SLC) for the
    /// upcoming tick.
    pub fn set_shared_contention(&mut self, l3_kib: f64, slc_kib: f64) {
        self.hierarchy.set_shared_contention(l3_kib, slc_kib);
    }

    /// Execute the threads assigned to this cluster for one tick of
    /// `tick_seconds` and return utilization, frequency and counters.
    ///
    /// If the combined intensity exceeds the cluster's core count the
    /// threads time-share: each thread's share is scaled down
    /// proportionally (run-queue saturation).
    ///
    /// With `memoize` set, each thread's CPI stack comes from the
    /// cluster's memo, keyed on the exact bits of its inputs, and is
    /// computed only on a miss; the counters are bit-identical either way.
    /// The dense engine core passes `false` and stays the reference the
    /// memoized event core is checked against.
    pub fn tick<'a, I>(
        &mut self,
        assigned: I,
        tick_seconds: f64,
        memoize: bool,
    ) -> ClusterTickResult
    where
        I: IntoIterator<Item = &'a ThreadDemand>,
        I::IntoIter: Clone,
    {
        let assigned = assigned.into_iter();
        let cores = self.config.cores as f64;
        let total_intensity: f64 = assigned.clone().map(|t| t.intensity).sum();
        let utilization = (total_intensity / cores).clamp(0.0, 1.0);
        let freq = self.governor.tick(utilization);
        // Oversubscription: threads share the available core-time.
        let scale = if total_intensity > cores {
            cores / total_intensity
        } else {
            1.0
        };

        let mut counters = CoreTick::default();
        for thread in assigned {
            let share = thread.intensity * scale;
            if share <= 0.0 {
                continue;
            }
            let cost = if memoize {
                let key = self.memo_key(thread);
                self.memo.get_or_insert(key, || {
                    thread_cost(&self.hierarchy, &self.predictor, &self.pipeline, thread)
                })
            } else {
                thread_cost(&self.hierarchy, &self.predictor, &self.pipeline, thread)
            };
            let cycles = share * freq * 1.0e6 * tick_seconds;
            let instructions = cycles / cost.cpi;
            counters.add(&CoreTick {
                instructions,
                cycles,
                cache_misses: instructions / 1000.0 * cost.total_mpki,
                dram_accesses: instructions / 1000.0 * cost.dram_apki,
                branches: instructions * thread.mix.branches,
                branch_misses: instructions / 1000.0 * cost.branch_mpki,
            });
        }

        ClusterTickResult {
            utilization,
            frequency_mhz: freq,
            counters,
        }
    }

    fn memo_key(&self, thread: &ThreadDemand) -> MemoKey {
        [
            thread.mix.fp_ops.to_bits(),
            thread.mix.simd_ops.to_bits(),
            thread.mix.load_store.to_bits(),
            thread.mix.branches.to_bits(),
            thread.working_set_kib.to_bits(),
            thread.locality.to_bits(),
            thread.ilp.to_bits(),
            thread.branch_predictability.to_bits(),
            self.hierarchy.l3().contention_kib().to_bits(),
            self.hierarchy.slc().contention_kib().to_bits(),
        ]
    }

    /// Memo hits and misses since the last call, which resets both.
    pub(crate) fn take_memo_counts(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.memo.hits),
            std::mem::take(&mut self.memo.misses),
        )
    }

    /// Reset DVFS state between benchmark runs. The CPI memo is kept: an
    /// entry is a pure function of its key, so it stays exact.
    pub fn reset(&mut self) {
        self.governor.reset();
        self.hierarchy.set_shared_contention(0.0, 0.0);
    }
}

/// A thread's CPI stack on a cluster, computed from the models.
fn thread_cost(
    hierarchy: &CacheHierarchy,
    predictor: &BranchPredictor,
    pipeline: &PipelineModel,
    thread: &ThreadDemand,
) -> ThreadCost {
    let misses = hierarchy.misses(&thread.memory_profile());
    let branch_mpki = predictor.branch_mpki(
        thread.mix.branches_per_kilo_instr(),
        thread.branch_predictability,
    );
    ThreadCost {
        cpi: pipeline.total_cpi(&thread.mix, thread.ilp, &misses, branch_mpki),
        total_mpki: misses.total_mpki(),
        dram_apki: misses.dram_apki(),
        branch_mpki,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocConfig;

    fn big_cluster() -> Cluster {
        let soc = SocConfig::snapdragon_888();
        let cfg = soc
            .cluster(crate::config::ClusterKind::Big)
            .unwrap()
            .clone();
        Cluster::new(cfg, soc.l3.clone(), soc.slc.clone())
    }

    fn little_cluster() -> Cluster {
        let soc = SocConfig::snapdragon_888();
        let cfg = soc
            .cluster(crate::config::ClusterKind::Little)
            .unwrap()
            .clone();
        Cluster::new(cfg, soc.l3.clone(), soc.slc.clone())
    }

    #[test]
    fn idle_tick_produces_no_instructions() {
        let mut c = big_cluster();
        let r = c.tick(&[], 0.1, false);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.counters.instructions, 0.0);
    }

    #[test]
    fn busy_tick_produces_instructions() {
        let mut c = big_cluster();
        let t = ThreadDemand::new(1.0);
        let mut r = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r = c.tick(std::slice::from_ref(&t), 0.1, false);
        }
        assert_eq!(r.utilization, 1.0);
        assert!(
            r.counters.instructions > 1.0e8 * 0.1,
            "got {}",
            r.counters.instructions
        );
        assert!(r.counters.ipc() > 0.5);
    }

    #[test]
    fn oversubscription_caps_utilization_and_timeshares() {
        let mut c = little_cluster(); // 4 cores
        let threads = vec![ThreadDemand::new(1.0); 8];
        let mut r = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r = c.tick(&threads, 0.1, false);
        }
        assert_eq!(r.utilization, 1.0);
        // 8 threads on 4 cores produce the same cycles as 4 threads.
        let mut c2 = little_cluster();
        let four = vec![ThreadDemand::new(1.0); 4];
        let mut r2 = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r2 = c2.tick(&four, 0.1, false);
        }
        assert!((r.counters.cycles - r2.counters.cycles).abs() / r2.counters.cycles < 1e-9);
    }

    #[test]
    fn load_combines_frequency_and_utilization() {
        let r = ClusterTickResult {
            utilization: 0.5,
            frequency_mhz: 1500.0,
            counters: CoreTick::default(),
        };
        assert!((r.load(3000.0) - 0.25).abs() < 1e-12);
        assert_eq!(r.load(0.0), 0.0);
    }

    #[test]
    fn dvfs_raises_frequency_under_load() {
        let mut c = big_cluster();
        let t = ThreadDemand::new(1.0);
        let first = c.tick(std::slice::from_ref(&t), 0.1, false);
        let mut last = first;
        for _ in 0..30 {
            last = c.tick(std::slice::from_ref(&t), 0.1, false);
        }
        assert!(last.frequency_mhz > first.frequency_mhz);
        assert!((last.frequency_mhz - 3000.0).abs() < 1.0);
    }

    #[test]
    fn contention_reduces_ipc() {
        let mut t = ThreadDemand::new(1.0);
        t.working_set_kib = 5000.0;
        let mut clean = big_cluster();
        let mut contended = big_cluster();
        contended.set_shared_contention(3000.0, 2000.0);
        let mut r_clean = ClusterTickResult::idle(0.0);
        let mut r_cont = ClusterTickResult::idle(0.0);
        for _ in 0..20 {
            r_clean = clean.tick(std::slice::from_ref(&t), 0.1, false);
            r_cont = contended.tick(std::slice::from_ref(&t), 0.1, false);
        }
        assert!(r_cont.counters.ipc() < r_clean.counters.ipc());
        assert!(r_cont.counters.cache_mpki() > r_clean.counters.cache_mpki());
    }

    #[test]
    fn memo_rekeys_on_shared_contention() {
        let mut t = ThreadDemand::new(1.0);
        t.working_set_kib = 5000.0;
        let t = std::slice::from_ref(&t);
        let mut memoized = big_cluster();
        let mut direct = big_cluster();
        let contention = [
            (0.0, 0.0),
            (3000.0, 0.0),
            (3000.0, 2000.0),
            (3000.0, 2000.0),
        ];
        for (k, &(l3, slc)) in contention.iter().enumerate() {
            if k > 0 && contention[k - 1] != (l3, slc) {
                // A stale entry would return what the previous tick's
                // contention gives: it must differ from the fresh result.
                let (mut stale, mut fresh) = (direct.clone(), direct.clone());
                stale.set_shared_contention(contention[k - 1].0, contention[k - 1].1);
                fresh.set_shared_contention(l3, slc);
                assert_ne!(
                    stale.tick(t, 0.1, false),
                    fresh.tick(t, 0.1, false),
                    "tick {k}"
                );
            }
            memoized.set_shared_contention(l3, slc);
            direct.set_shared_contention(l3, slc);
            assert_eq!(
                memoized.tick(t, 0.1, true),
                direct.tick(t, 0.1, false),
                "tick {k}"
            );
        }
        assert_eq!(memoized.take_memo_counts(), (1, 3), "(hits, misses)");
        assert_eq!(memoized.take_memo_counts(), (0, 0), "taking resets");
    }

    #[test]
    fn idle_ticks_at_the_fixpoint_repeat() {
        let mut c = big_cluster();
        let t = ThreadDemand::new(1.0);
        c.tick(std::slice::from_ref(&t), 0.1, false);
        // Ramp back down to the idle fixpoint.
        for _ in 0..200 {
            c.tick(&[], 0.1, false);
        }
        let before = c.tick(&[], 0.1, false);
        let after = c.tick(&[], 0.1, false);
        assert_eq!(before, after, "idle ticks at the fixpoint are no-ops");
    }

    #[test]
    fn reset_restores_floor_frequency() {
        let mut c = big_cluster();
        let t = ThreadDemand::new(1.0);
        for _ in 0..30 {
            c.tick(std::slice::from_ref(&t), 0.1, false);
        }
        c.reset();
        let r = c.tick(&[], 0.1, false);
        assert!(r.frequency_mhz < 1000.0);
    }
}
