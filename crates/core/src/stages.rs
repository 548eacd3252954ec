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
//! [`execute`] runs the graph. The per-unit stage is fanned out through
//! the process-wide [`crate::exec::Exec`] backend — the in-process pool
//! by default, subprocess shards under `MWC_EXEC=subprocess` — and
//! every backend is bit-identical by contract. When handed a
//! [`StudyCache`], each unit's capture+derive work is memoized as a
//! content-addressed *unit artifact* keyed by [`StudySpec::unit_key`] —
//! so changing one unit's fault config re-simulates exactly that unit,
//! and the other artifacts are replayed from cache. Failed captures are
//! cached too (as their rendered error), which keeps a warm degraded
//! study bit-identical to its cold run.
//!
//! Completed studies are additionally persisted into the append-only
//! study database when `MWC_STUDY_DB` is set (see [`crate::studydb`]).
//!
//! Without a cache the executor is the plain pipeline: bit-identical to
//! the pre-stage-graph implementation (the digest tests are the
//! oracle).

use std::sync::Arc;
use std::time::Instant;

use mwc_profiler::capture::Profiler;
use mwc_soc::engine::Engine;
use mwc_workloads::registry::BenchmarkUnit;

use crate::cache::StudyCache;
use crate::error::PipelineError;
use crate::exec::{Exec, UnitArtifact, UnitOutcome};
use crate::pipeline::{
    capture_stage, derive_stage, stage, Characterization, DegradationReport, FailedUnit,
};
use crate::spec::StudySpec;

/// Run the stage graph for `spec` through the process-wide execution
/// backend. With `cache` set, per-unit artifacts are consulted and
/// stored; without it every stage computes.
pub(crate) fn execute(
    spec: &StudySpec,
    cache: Option<&StudyCache>,
) -> Result<Characterization, PipelineError> {
    execute_with(crate::exec::global(), spec, cache)
}

/// [`execute`] with an explicit execution backend.
pub(crate) fn execute_with(
    exec: &dyn Exec,
    spec: &StudySpec,
    cache: Option<&StudyCache>,
) -> Result<Characterization, PipelineError> {
    let started = Instant::now();
    let mut study_span = mwc_obs::span("pipeline.study");
    study_span.field("seed", spec.seed);
    study_span.field("runs", spec.runs);
    study_span.field("threads", spec.threads);
    mwc_obs::metrics::gauge_set("pipeline.threads", spec.threads as f64);

    let selected = stage("pipeline.validate", || {
        spec.validate()?;
        // Validate the platform once up front so the common path never
        // pays per-unit engine failures; a mismatch that still reaches
        // a shard worker degrades to per-unit Failed artifacts (see
        // `run_units_local`).
        Engine::new(spec.config.clone(), spec.seed)?;
        spec.selected()
    })?;
    study_span.field("units", selected.len());

    let outcomes = stage("pipeline.capture", || {
        exec.run_units(spec, &selected, cache)
    })?;

    let study = stage("pipeline.collect", || {
        let units_requested = selected.len();
        let mut profiles = Vec::with_capacity(units_requested);
        let mut failed_units = Vec::new();
        for ((_, unit), outcome) in selected.iter().zip(outcomes) {
            match outcome.artifact {
                UnitArtifact::Profiled(p) => {
                    // Capture-health counters describe work *done* this
                    // study run; artifacts replayed from cache did none.
                    if outcome.computed {
                        p.health.record_metrics();
                    }
                    profiles.push((*p).clone());
                }
                UnitArtifact::Failed(error) => {
                    mwc_obs::metrics::counter_add("pipeline.failed_units", 1);
                    failed_units.push(FailedUnit {
                        name: unit.name.to_owned(),
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
        Ok(Characterization::new(
            profiles,
            DegradationReport {
                units_requested,
                failed_units,
            },
        ))
    })?;

    crate::studydb::record_completed(spec, &study, &exec.describe(), started.elapsed());
    Ok(study)
}

/// The in-process per-unit fan-out: the `mwc_parallel` worker pool,
/// artifact-cache first. This is both the [`crate::exec::LocalExec`]
/// backend and the compute path inside every subprocess worker.
pub(crate) fn run_units_local(
    spec: &StudySpec,
    selected: &[(usize, BenchmarkUnit)],
    cache: Option<&StudyCache>,
) -> Vec<UnitOutcome> {
    mwc_parallel::ordered_map_with(
        selected,
        spec.threads,
        || {
            // Engine construction is validated before the fan-out on
            // the coordinator path, but a shard worker builds engines
            // from a shipped spec: surface a mismatch as typed per-unit
            // failures, not a worker abort.
            Engine::new(spec.config.clone(), spec.seed)
                .map(|engine| Profiler::new(engine, spec.seed))
                .map_err(|e| PipelineError::from(e).to_string())
        },
        |worker, (unit_index, unit), _| match worker {
            Ok(profiler) => unit_task(profiler, *unit_index, unit, spec, cache),
            Err(error) => {
                mwc_obs::metrics::counter_add("pipeline.engine_failures", 1);
                // Environmental failure, not unit content: never cached.
                UnitOutcome {
                    artifact: UnitArtifact::Failed(error.clone()),
                    computed: true,
                }
            }
        },
    )
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
    if let Some(cache) = cache {
        if let Some(artifact) = cache.unit_artifact(key) {
            unit_span.field("cached", 1u64);
            return UnitOutcome {
                artifact,
                computed: false,
            };
        }
    }
    let faults = spec.effective_faults(unit.name);
    let artifact = match capture_stage(profiler, unit, unit_index, spec.runs, faults) {
        Ok((maps, health)) => {
            UnitArtifact::Profiled(Arc::new(derive_stage(unit, &maps, health, faults)))
        }
        Err(e) => UnitArtifact::Failed(e.to_string()),
    };
    if let Some(cache) = cache {
        cache.store_unit_artifact(key, &artifact);
    }
    UnitOutcome {
        artifact,
        computed: true,
    }
}
