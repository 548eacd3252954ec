//! The typed study specification — the root input of the staged pipeline.
//!
//! A [`StudySpec`] names everything that can influence a study's result:
//! the platform, the `(seed, runs)` protocol, the baseline fault model,
//! optional per-unit fault overrides, and which registry units to profile.
//! Worker-thread count rides along for scheduling but is excluded from
//! every content key, because results are bit-identical at any
//! parallelism (see `mwc_parallel`).
//!
//! The spec is also where the stage graph's artifact keys are computed:
//!
//! * [`StudySpec::unit_key`] — the per-unit capture/derive artifact key.
//!   It digests only the inputs that reach that unit's simulation (seed,
//!   runs, platform, registry identity, the unit's *effective* fault
//!   config), so changing one unit's fault override invalidates exactly
//!   one artifact.
//! * [`StudySpec::study_key`] — the whole-study memo key: every input
//!   that reaches any selected unit's simulation.

use mwc_profiler::faults::FaultConfig;
use mwc_soc::config::SocConfig;
use mwc_soc::digest::Fnv1a;
use mwc_workloads::registry::{all_units, BenchmarkUnit};

use crate::cache::CACHE_SCHEMA_VERSION;
use crate::error::PipelineError;

/// Which registry units a study profiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitSelection {
    /// Every unit in the registry (the paper's 18).
    All,
    /// A named subset. The selection is a *set*: units always run in
    /// canonical registry order whatever order the names are given in,
    /// which keeps artifact keys stable under permutation.
    Named(Vec<String>),
}

/// A complete, self-describing study request.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySpec {
    /// The simulated platform.
    pub config: SocConfig,
    /// Base seed of the noise stream chain.
    pub seed: u64,
    /// Runs per unit (the paper's protocol is 3).
    pub runs: usize,
    /// Baseline fault model applied to every unit without an override.
    pub faults: FaultConfig,
    /// Per-unit fault overrides, kept sorted by unit name (last write per
    /// name wins). Overrides for units outside the selection are inert.
    unit_faults: Vec<(String, FaultConfig)>,
    /// Which units to profile.
    pub units: UnitSelection,
    /// Worker threads for the capture fan-out. Scheduling only — never
    /// part of any content key.
    pub threads: usize,
}

impl StudySpec {
    /// A fault-free spec over the full registry with the default worker
    /// count.
    pub fn new(config: SocConfig, seed: u64, runs: usize) -> Self {
        StudySpec {
            config,
            seed,
            runs,
            faults: FaultConfig::default(),
            unit_faults: Vec::new(),
            units: UnitSelection::All,
            threads: mwc_parallel::configured_threads(),
        }
    }

    /// The paper's default protocol: Snapdragon 888, seed 2024, 3 runs.
    pub fn paper_default() -> Self {
        StudySpec::new(
            SocConfig::snapdragon_888(),
            2024,
            mwc_profiler::capture::PAPER_RUNS,
        )
    }

    /// Replace the baseline fault model.
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Override the fault model for one unit (by registry name). Repeated
    /// overrides for the same name replace each other; insertion order is
    /// irrelevant to every key.
    pub fn with_unit_faults(mut self, name: impl Into<String>, faults: FaultConfig) -> Self {
        let name = name.into();
        match self
            .unit_faults
            .binary_search_by(|(n, _)| n.as_str().cmp(name.as_str()))
        {
            Ok(i) => self.unit_faults[i].1 = faults,
            Err(i) => self.unit_faults.insert(i, (name, faults)),
        }
        self
    }

    /// Restrict the study to the named units.
    pub fn with_units<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.units = UnitSelection::Named(names.into_iter().map(Into::into).collect());
        self
    }

    /// Set the worker-thread count (scheduling only; keys are unaffected).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The fault model unit `name` captures under: its override if one is
    /// set, else the baseline.
    pub fn effective_faults(&self, name: &str) -> &FaultConfig {
        self.unit_faults
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f)
            .unwrap_or(&self.faults)
    }

    /// The per-unit fault overrides, sorted by unit name.
    pub fn unit_faults(&self) -> &[(String, FaultConfig)] {
        &self.unit_faults
    }

    /// Validate the spec: the run count, every fault config (baseline and
    /// overrides) and the unit selection. Platform validation happens at
    /// engine construction inside the pipeline's validate stage.
    pub fn validate(&self) -> Result<(), PipelineError> {
        if self.runs == 0 {
            return Err(PipelineError::InvalidSpec("runs must be at least 1"));
        }
        self.faults.validate()?;
        for (_, f) in &self.unit_faults {
            f.validate()?;
        }
        self.selected()?;
        Ok(())
    }

    /// The selected units as `(registry_index, unit)` pairs in canonical
    /// registry order. The registry index — not the position within the
    /// selection — seeds each unit's noise streams, so a subset study
    /// reproduces exactly the per-unit results of the full study.
    pub fn selected(&self) -> Result<Vec<(usize, &'static BenchmarkUnit)>, PipelineError> {
        let units = all_units();
        match &self.units {
            UnitSelection::All => Ok(units.iter().enumerate().collect()),
            UnitSelection::Named(names) => {
                for n in names {
                    if !units.iter().any(|u| u.name == n) {
                        return Err(PipelineError::UnknownUnit(n.clone()));
                    }
                }
                Ok(units
                    .iter()
                    .enumerate()
                    .filter(|(_, u)| names.iter().any(|n| n == u.name))
                    .collect())
            }
        }
    }

    /// The content-addressed key of one unit's capture/derive artifact:
    /// a digest of exactly the inputs that reach this unit's simulation.
    /// Threads, other units' overrides and the selection itself are all
    /// excluded — so the same unit under the same conditions shares one
    /// artifact across full and subset studies.
    pub fn unit_key(&self, index: usize, unit: &BenchmarkUnit) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str("mwc-stage-unit");
        h.write_u64(u64::from(CACHE_SCHEMA_VERSION));
        h.write_str(env!("CARGO_PKG_VERSION"));
        h.write_u64(self.seed);
        h.write_usize(self.runs);
        h.write_u64(self.config.content_digest());
        h.write_usize(index);
        h.write_str(unit.name);
        h.write_str(unit.suite.name());
        h.write_str(unit.label.name());
        h.write_u64(self.effective_faults(unit.name).content_digest());
        h.finish()
    }

    /// The whole-study memo key: the protocol, platform and baseline fault
    /// model, the selected units, and a `(name, digest)` pair in registry
    /// order for each selected unit whose effective fault config differs
    /// from the baseline.
    pub fn study_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str("mwc-study");
        h.write_u64(u64::from(CACHE_SCHEMA_VERSION));
        h.write_str(env!("CARGO_PKG_VERSION"));
        h.write_u64(self.seed);
        h.write_usize(self.runs);
        h.write_u64(self.config.content_digest());
        let baseline = self.faults.content_digest();
        h.write_u64(baseline);
        // An invalid selection hashes over the resolvable subset; the spec
        // fails validation before any cached entry could be consulted.
        let selected = self.selected().unwrap_or_default();
        h.write_usize(selected.len());
        for (_, u) in &selected {
            h.write_str(u.name);
            h.write_str(u.suite.name());
            h.write_str(u.label.name());
        }
        for (_, u) in &selected {
            let d = self.effective_faults(u.name).content_digest();
            if d != baseline {
                h.write_str(u.name);
                h.write_u64(d);
            }
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> StudySpec {
        StudySpec::new(SocConfig::snapdragon_888(), 2024, 3)
    }

    fn active_faults() -> FaultConfig {
        FaultConfig {
            seed: 7,
            dropout_rate: 0.05,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn threads_never_change_any_key() {
        let a = base().with_threads(1);
        let b = base().with_threads(16);
        assert_eq!(a.study_key(), b.study_key());
        for (i, u) in a.selected().expect("full selection") {
            assert_eq!(a.unit_key(i, u), b.unit_key(i, u));
        }
    }

    #[test]
    fn override_invalidates_exactly_one_unit_key() {
        let plain = base();
        let patched = base().with_unit_faults("Antutu CPU", active_faults());
        assert_ne!(plain.study_key(), patched.study_key());
        let mut changed = 0;
        for (i, u) in plain.selected().expect("full selection") {
            if plain.unit_key(i, u) != patched.unit_key(i, u) {
                changed += 1;
                assert_eq!(u.name, "Antutu CPU");
            }
        }
        assert_eq!(changed, 1, "exactly one unit artifact invalidated");
    }

    #[test]
    fn override_equal_to_baseline_is_inert() {
        let plain = base();
        let redundant = base().with_unit_faults("Antutu CPU", FaultConfig::default());
        assert_eq!(plain.study_key(), redundant.study_key());
    }

    #[test]
    fn selection_is_canonicalized_to_registry_order() {
        let a = base().with_units(["Geekbench 5 CPU", "Antutu CPU"]);
        let b = base().with_units(["Antutu CPU", "Geekbench 5 CPU"]);
        assert_eq!(a.study_key(), b.study_key());
        let names: Vec<&str> = a
            .selected()
            .expect("known names")
            .iter()
            .map(|(_, u)| u.name)
            .collect();
        assert_eq!(names, ["Antutu CPU", "Geekbench 5 CPU"]);
    }

    #[test]
    fn subset_units_keep_registry_indices_and_keys() {
        let full = base();
        let sub = base().with_units(["Geekbench 5 CPU"]);
        let (full_idx, full_unit) = full
            .selected()
            .expect("full")
            .into_iter()
            .find(|(_, u)| u.name == "Geekbench 5 CPU")
            .expect("registry unit");
        let (sub_idx, sub_unit) = sub.selected().expect("subset").remove(0);
        assert_eq!(full_idx, sub_idx, "registry index survives subsetting");
        assert_eq!(
            full.unit_key(full_idx, full_unit),
            sub.unit_key(sub_idx, sub_unit),
            "the same unit shares one artifact across full and subset studies"
        );
    }

    #[test]
    fn unknown_unit_is_a_typed_error() {
        let spec = base().with_units(["No Such Benchmark"]);
        let err = spec.validate().expect_err("unknown unit must fail");
        assert!(matches!(err, PipelineError::UnknownUnit(_)));
        assert!(err.to_string().contains("No Such Benchmark"));
    }

    #[test]
    fn zero_runs_is_a_typed_error() {
        let spec =
            crate::from_wire("mwc-spec v1\nconfig = snapdragon_888\nseed = 2024\nruns = 0\n")
                .expect("the grammar accepts any run count");
        assert!(matches!(
            spec.validate(),
            Err(PipelineError::InvalidSpec(_))
        ));
        let err = crate::pipeline::Characterization::try_run_spec(&spec)
            .expect_err("a zero-run study must fail typed, not panic");
        assert!(err.to_string().contains("runs"), "{err}");
    }

    #[test]
    fn override_outside_selection_is_inert() {
        let a = base().with_units(["Antutu CPU"]);
        let b = base()
            .with_units(["Antutu CPU"])
            .with_unit_faults("Geekbench 5 CPU", active_faults());
        assert_eq!(a.study_key(), b.study_key());
    }

    #[test]
    fn last_override_per_unit_wins() {
        let a = base()
            .with_unit_faults("Antutu CPU", FaultConfig::default())
            .with_unit_faults("Antutu CPU", active_faults());
        let b = base().with_unit_faults("Antutu CPU", active_faults());
        assert_eq!(a.study_key(), b.study_key());
        assert_eq!(a.unit_faults().len(), 1);
    }
}
