//! The staged execution graph behind every study.
//!
//! A study is an explicit pipeline of typed stages:
//!
//! ```text
//! StudySpec ─▶ validate ─▶ per-unit { capture ─▶ derive } ─▶ collect
//!                               │                               │
//!                          unit artifacts                 Characterization
//!                       (content-addressed,                     │
//!                        keyed by unit_key)              featurize ─▶ analyze
//! ```
//!
//! [`execute`] runs the graph in-process: the per-unit stage fans out
//! over the `mwc_parallel` worker pool, which is bit-identical at any
//! thread count. When handed a [`StudyCache`], each unit's
//! capture+derive work is memoized as a content-addressed *unit
//! artifact* keyed by [`StudySpec::unit_key`] — so changing one unit's
//! fault config re-simulates exactly that unit, and the other artifacts
//! are replayed from cache. Failed captures are cached too (as their
//! rendered error), which keeps a warm degraded study bit-identical to
//! its cold run.
//!
//! Without a cache the executor is the plain pipeline: bit-identical to
//! the pre-stage-graph implementation (the digest tests are the
//! oracle).

use std::sync::Arc;

use mwc_profiler::capture::Profiler;
use mwc_soc::engine::Engine;
use mwc_soc::workload::Workload;
use mwc_workloads::registry::BenchmarkUnit;

use crate::cache::StudyCache;
use crate::error::PipelineError;
use crate::pipeline::{
    capture_stage, derive_stage, stage, DegradationReport, FailedUnit, UnitProfile,
};
use crate::spec::StudySpec;

/// The cached outcome of one unit's capture+derive stages. Failures are
/// first-class artifacts: a warm replay of a degraded study must
/// rebuild the same `DegradationReport` without re-simulating.
#[derive(Debug, Clone)]
pub(crate) enum UnitArtifact {
    /// The unit produced a usable profile.
    Profiled(Arc<UnitProfile>),
    /// Every capture attempt failed; the rendered error.
    Failed(String),
}

/// One unit's artifact plus whether it was computed in this study run
/// (vs. replayed from a cache layer) — the collect stage only records
/// capture-health metrics for work actually done.
#[derive(Debug)]
pub(crate) struct UnitOutcome {
    /// The unit's registry name.
    pub(crate) name: String,
    /// The capture+derive result.
    pub(crate) artifact: UnitArtifact,
    /// `true` if the artifact was computed, not replayed from cache.
    pub(crate) computed: bool,
    /// The key and frame check of the unit's cache entry, if this process
    /// stored or loaded one.
    pub(crate) entry: Option<(u64, u64)>,
}

/// A study as the collect stage assembles it: the profiles in unit order,
/// the report naming the units that failed, each unit's entry key and
/// check if every unit has an entry, and whether every unit was replayed.
pub(crate) struct Collected {
    pub(crate) profiles: Vec<UnitProfile>,
    pub(crate) report: DegradationReport,
    pub(crate) entries: Option<Vec<(u64, u64)>>,
    pub(crate) replayed: bool,
}

/// Run the stage graph for `spec`. With `cache` set, per-unit artifacts
/// are consulted and stored; without it every stage computes.
pub(crate) fn execute(
    spec: &StudySpec,
    cache: Option<&StudyCache>,
) -> Result<Collected, PipelineError> {
    let mut study_span = mwc_obs::span("pipeline.study");
    study_span.field("seed", spec.seed);
    study_span.field("runs", spec.runs);
    study_span.field("threads", spec.threads);
    mwc_obs::metrics::gauge_set("pipeline.threads", spec.threads as f64);

    let selected = stage("pipeline.validate", || {
        spec.validate()?;
        // Validate the platform once up front so the common path never
        // pays per-unit engine failures (see `run_units_local`).
        Engine::new(spec.config.clone(), spec.seed)?;
        spec.selected()
    })?;
    study_span.field("units", selected.len());

    let outcomes = stage("pipeline.capture", || {
        run_units_local(spec, &selected, cache)
    });
    collect(outcomes)
}

/// The collect stage: the profiles of `units` in order, a report naming
/// the ones that failed, and their cache entries. The cache also lists
/// stored studies through it.
pub(crate) fn collect(units: Vec<UnitOutcome>) -> Result<Collected, PipelineError> {
    stage("pipeline.collect", || {
        let units_requested = units.len();
        let entries = units.iter().map(|u| u.entry).collect();
        let replayed = units.iter().all(|u| !u.computed);
        let mut profiles = Vec::with_capacity(units_requested);
        let mut failed_units = Vec::new();
        for unit in units {
            match unit.artifact {
                UnitArtifact::Profiled(p) => {
                    // Capture-health counters describe work *done* this
                    // study run; artifacts replayed from cache did none.
                    if unit.computed {
                        p.health.record_metrics();
                    }
                    profiles.push(Arc::unwrap_or_clone(p));
                }
                UnitArtifact::Failed(error) => {
                    mwc_obs::metrics::counter_add("pipeline.failed_units", 1);
                    failed_units.push(FailedUnit {
                        name: unit.name,
                        error,
                    });
                }
            }
        }
        if profiles.is_empty() {
            return Err(PipelineError::StudyEmpty {
                requested: units_requested,
            });
        }
        mwc_obs::metrics::counter_add("pipeline.units_profiled", profiles.len() as u64);
        let report = DegradationReport {
            units_requested,
            failed_units,
        };
        Ok(Collected {
            profiles,
            report,
            entries,
            replayed,
        })
    })
}

/// The positions in `selected` in the order the fan-out starts them:
/// longest workload first, ties in unit order.
fn longest_first(selected: &[(usize, &BenchmarkUnit)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..selected.len()).collect();
    order.sort_by(|&a, &b| {
        let duration = |i: usize| selected[i].1.workload.duration_seconds();
        duration(b)
            .total_cmp(&duration(a))
            .then(selected[a].0.cmp(&selected[b].0))
    });
    order
}

/// The per-unit fan-out: the `mwc_parallel` worker pool, artifact-cache
/// first. Units start longest first ([`longest_first`]), so the fan-out
/// ends on short units instead of leaving one worker alone with a long
/// one. Each profile depends only on `(seed, unit, run)`, and each
/// outcome goes back to its unit's slot, so the order moves no result.
fn run_units_local(
    spec: &StudySpec,
    selected: &[(usize, &BenchmarkUnit)],
    cache: Option<&StudyCache>,
) -> Vec<UnitOutcome> {
    let order = longest_first(selected);
    let outcomes = mwc_parallel::ordered_map_with(
        &order,
        spec.threads,
        || {
            // `execute` validates engine construction before the
            // fan-out, but `Engine::new` is fallible per worker: surface
            // a mismatch as typed per-unit failures, not a panic.
            Engine::new(spec.config.clone(), spec.seed)
                .map(|engine| Profiler::new(engine, spec.seed))
                .map_err(|e| PipelineError::from(e).to_string())
        },
        |worker, &slot, _| match (worker, selected[slot]) {
            (Ok(profiler), (unit_index, unit)) => {
                unit_task(profiler, unit_index, unit, spec, cache)
            }
            (Err(error), (_, unit)) => {
                mwc_obs::metrics::counter_add("pipeline.engine_failures", 1);
                // Environmental failure, not unit content: never cached.
                UnitOutcome {
                    name: unit.name.to_owned(),
                    artifact: UnitArtifact::Failed(error.clone()),
                    computed: true,
                    entry: None,
                }
            }
        },
    );
    let mut placed: Vec<(usize, UnitOutcome)> = order.into_iter().zip(outcomes).collect();
    placed.sort_unstable_by_key(|&(slot, _)| slot);
    placed.into_iter().map(|(_, outcome)| outcome).collect()
}

/// One unit through the capture → derive stages, artifact-cache first.
fn unit_task(
    profiler: &mut Profiler,
    unit_index: usize,
    unit: &BenchmarkUnit,
    spec: &StudySpec,
    cache: Option<&StudyCache>,
) -> UnitOutcome {
    let mut unit_span = mwc_obs::span("pipeline.unit");
    unit_span.field("name", unit.name);
    unit_span.field("index", unit_index);
    let key = spec.unit_key(unit_index, unit);
    if let Some(replayed) = cache.and_then(|c| c.unit_artifact(key, unit.name)) {
        unit_span.field("cached", 1u64);
        return replayed;
    }
    let faults = spec.effective_faults(unit.name);
    let artifact = match capture_stage(profiler, unit, unit_index, spec.runs, faults) {
        Ok((maps, health)) => {
            UnitArtifact::Profiled(Arc::new(derive_stage(unit, &maps, health, faults)))
        }
        Err(e) => UnitArtifact::Failed(e.to_string()),
    };
    let check = cache.and_then(|c| c.store_unit_artifact(key, &artifact));
    UnitOutcome {
        name: unit.name.to_owned(),
        artifact,
        computed: true,
        entry: check.map(|check| (key, check)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwc_soc::config::SocConfig;

    #[test]
    fn engine_mismatch_fails_units_with_a_typed_error() {
        // An invalid platform reaching the per-unit fan-out must surface
        // as typed per-unit failures, not a panic.
        let mut config = SocConfig::snapdragon_888();
        config.clusters.clear();
        let spec = StudySpec::new(config, 7, 1).with_units(["Aitutu"]);
        let selected = spec.selected().unwrap();
        let outcomes = run_units_local(&spec, &selected, None);
        assert_eq!(outcomes.len(), 1);
        match &outcomes[0].artifact {
            UnitArtifact::Failed(msg) => {
                assert!(msg.contains("platform error"), "typed rendering: {msg}");
            }
            other => panic!("expected a failed artifact, got {other:?}"),
        }
        assert!(outcomes[0].computed);
    }

    #[test]
    fn units_start_longest_first_and_come_back_in_unit_order() {
        let spec = StudySpec::paper_default();
        let selected = spec.selected().unwrap();
        let order = longest_first(&selected);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..selected.len()).collect::<Vec<_>>());
        for pair in order.windows(2) {
            let (a, b) = (&selected[pair[0]], &selected[pair[1]]);
            let (da, db) = (
                a.1.workload.duration_seconds(),
                b.1.workload.duration_seconds(),
            );
            assert!(
                da > db || (da == db && a.0 < b.0),
                "{} before {}",
                a.1.name,
                b.1.name
            );
        }
        assert_ne!(order, sorted, "the paper's units are not in duration order");

        let spec = StudySpec::new(SocConfig::snapdragon_888(), 7, 1)
            .with_units(["Aitutu", "PCMark Storage", "Antutu CPU"])
            .with_threads(2);
        let selected = spec.selected().unwrap();
        assert_ne!(
            longest_first(&selected),
            [0, 1, 2],
            "the subset is reordered"
        );
        let names: Vec<String> = run_units_local(&spec, &selected, None)
            .into_iter()
            .map(|o| o.name)
            .collect();
        let want: Vec<&str> = selected.iter().map(|(_, u)| u.name).collect();
        assert_eq!(names, want);
    }
}
