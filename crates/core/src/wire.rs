//! The textual wire format for [`StudySpec`] — what `mwc-server` accepts
//! in a `POST /study` body and what clients (the `wrkr` load generator,
//! shell scripts, tests) submit.
//!
//! The format is a line-based `key = value` document with a versioned
//! header, chosen over JSON so hand-written request bodies stay trivial
//! and the parser stays small and total (every malformed input is a typed
//! [`WireError`], never a panic):
//!
//! ```text
//! mwc-spec v1
//! config = snapdragon_888
//! seed = 2024
//! runs = 3
//! units = Antutu CPU, Geekbench 5 CPU      # omitted => all 18
//! fault.seed = 7                           # baseline fault block
//! fault.dropout = 0.05
//! fault[Antutu CPU].jitter = 0.01          # per-unit override
//! ```
//!
//! `#` starts a comment (full-line or trailing); blank lines are ignored.
//! Keys may appear in any order; the last write per key wins, matching
//! [`StudySpec::with_unit_faults`] semantics. The platform is named by
//! preset (`snapdragon_888` is the only one) because an arbitrary
//! [`SocConfig`](mwc_soc::config::SocConfig) has no stable textual form —
//! an unknown preset is a [`WireError::UnknownConfig`], not a fallback.
//!
//! [`to_wire`] and [`from_wire`] round-trip: for any spec whose config is
//! a known preset, `from_wire(&to_wire(spec))` rebuilds a spec with the
//! same [`StudySpec::study_key`] and per-unit keys. Floats are rendered
//! with Rust's shortest-exact formatting, so rates survive the round trip
//! bit-for-bit. The worker-thread count is accepted (`threads = N`) but
//! never serialized — it is scheduling advice, not study content.
//! `profile --spec-file` takes the advice; `mwc-server` does not, and runs
//! every study on the process's worker count
//! ([`configured_threads`](crate::configured_threads)).

use std::fmt;

use mwc_profiler::faults::FaultConfig;
use mwc_soc::config::SocConfig;

use crate::spec::{StudySpec, UnitSelection};

/// First line of every wire document; bump the version when the grammar
/// changes incompatibly.
pub const WIRE_HEADER: &str = "mwc-spec v1";

/// A defect in a wire document. Each variant renders a one-line message
/// suitable for a 400 response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The document does not start with [`WIRE_HEADER`].
    BadHeader(String),
    /// A non-comment line has no `=` separator.
    BadLine(String),
    /// A key outside the grammar.
    UnknownKey(String),
    /// A value that does not parse for its key.
    BadValue {
        /// The key whose value failed to parse.
        key: String,
        /// The offending value text.
        value: String,
    },
    /// A `config =` preset this build does not know.
    UnknownConfig(String),
    /// A required key is absent.
    MissingKey(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadHeader(line) => {
                write!(f, "bad header {line:?}: expected {WIRE_HEADER:?}")
            }
            WireError::BadLine(line) => write!(f, "bad line {line:?}: expected `key = value`"),
            WireError::UnknownKey(key) => write!(f, "unknown key {key:?}"),
            WireError::BadValue { key, value } => {
                write!(f, "bad value {value:?} for key {key:?}")
            }
            WireError::UnknownConfig(name) => {
                write!(f, "unknown config preset {name:?} (try \"snapdragon_888\")")
            }
            WireError::MissingKey(key) => write!(f, "missing required key {key:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The preset names [`from_wire`] resolves, with their constructors.
fn preset(name: &str) -> Option<SocConfig> {
    match name {
        "snapdragon_888" => Some(SocConfig::snapdragon_888()),
        _ => None,
    }
}

/// The preset name of `config`, if it is byte-identical to one the wire
/// format can name.
fn preset_name(config: &SocConfig) -> Option<&'static str> {
    (config == &SocConfig::snapdragon_888()).then_some("snapdragon_888")
}

/// One fault knob inside a `fault.<knob>` / `fault[unit].<knob>` key.
fn apply_knob(f: &mut FaultConfig, knob: &str, key: &str, value: &str) -> Result<(), WireError> {
    let bad = || WireError::BadValue {
        key: key.to_owned(),
        value: value.to_owned(),
    };
    match knob {
        "seed" => f.seed = value.parse().map_err(|_| bad())?,
        "dropout" => f.dropout_rate = value.parse().map_err(|_| bad())?,
        "jitter" => f.jitter_amplitude = value.parse().map_err(|_| bad())?,
        "overflow" => f.overflow_rate = value.parse().map_err(|_| bad())?,
        "truncation" => f.truncation_rate = value.parse().map_err(|_| bad())?,
        "run_failure" => f.run_failure_rate = value.parse().map_err(|_| bad())?,
        "attempts" => f.max_attempts = value.parse().map_err(|_| bad())?,
        "min_completeness" => f.min_completeness = value.parse().map_err(|_| bad())?,
        _ => return Err(WireError::UnknownKey(key.to_owned())),
    }
    Ok(())
}

/// Render every knob of one fault block under `prefix`.
fn render_faults(out: &mut String, prefix: &str, f: &FaultConfig) {
    use fmt::Write as _;
    let _ = writeln!(out, "{prefix}.seed = {}", f.seed);
    let _ = writeln!(out, "{prefix}.dropout = {}", f.dropout_rate);
    let _ = writeln!(out, "{prefix}.jitter = {}", f.jitter_amplitude);
    let _ = writeln!(out, "{prefix}.overflow = {}", f.overflow_rate);
    let _ = writeln!(out, "{prefix}.truncation = {}", f.truncation_rate);
    let _ = writeln!(out, "{prefix}.run_failure = {}", f.run_failure_rate);
    let _ = writeln!(out, "{prefix}.attempts = {}", f.max_attempts);
    let _ = writeln!(out, "{prefix}.min_completeness = {}", f.min_completeness);
}

/// Serialize `spec` as a wire document.
///
/// The config must be a known preset — otherwise
/// [`WireError::UnknownConfig`] is returned, because a config the wire
/// format cannot name cannot be reproduced on the other end. Default
/// fault blocks are omitted; non-default blocks render every knob so the
/// document is self-contained under future default changes.
pub fn to_wire(spec: &StudySpec) -> Result<String, WireError> {
    use fmt::Write as _;
    let config = preset_name(&spec.config)
        .ok_or_else(|| WireError::UnknownConfig(spec.config.name.clone()))?;
    let mut out = String::new();
    let _ = writeln!(out, "{WIRE_HEADER}");
    let _ = writeln!(out, "config = {config}");
    let _ = writeln!(out, "seed = {}", spec.seed);
    let _ = writeln!(out, "runs = {}", spec.runs);
    if let UnitSelection::Named(names) = &spec.units {
        let _ = writeln!(out, "units = {}", names.join(", "));
    }
    if spec.faults != FaultConfig::default() {
        render_faults(&mut out, "fault", &spec.faults);
    }
    for (name, f) in spec.unit_faults() {
        render_faults(&mut out, &format!("fault[{name}]"), f);
    }
    Ok(out)
}

/// Parse a wire document into a [`StudySpec`].
///
/// The result is *not* validated beyond the grammar — callers run
/// [`StudySpec::validate`] next, so an unknown unit name or an
/// out-of-range fault rate is reported through the pipeline's existing
/// typed errors rather than duplicated here.
pub fn from_wire(text: &str) -> Result<StudySpec, WireError> {
    let mut lines = text
        .lines()
        .map(|l| match l.find('#') {
            Some(i) => &l[..i],
            None => l,
        })
        .map(str::trim)
        .filter(|l| !l.is_empty());
    match lines.next() {
        Some(l) if l == WIRE_HEADER => {}
        other => return Err(WireError::BadHeader(other.unwrap_or("").to_owned())),
    }

    let mut config: Option<SocConfig> = None;
    let mut seed: Option<u64> = None;
    let mut runs: Option<usize> = None;
    let mut units: Option<Vec<String>> = None;
    let mut threads: Option<usize> = None;
    let mut faults = FaultConfig::default();
    let mut unit_faults: Vec<(String, FaultConfig)> = Vec::new();

    for line in lines {
        let Some((key, value)) = line.split_once('=') else {
            return Err(WireError::BadLine(line.to_owned()));
        };
        let (key, value) = (key.trim(), value.trim());
        let bad = || WireError::BadValue {
            key: key.to_owned(),
            value: value.to_owned(),
        };
        match key {
            "config" => {
                config =
                    Some(preset(value).ok_or_else(|| WireError::UnknownConfig(value.to_owned()))?);
            }
            "seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "runs" => runs = Some(value.parse().map_err(|_| bad())?),
            "threads" => threads = Some(value.parse().map_err(|_| bad())?),
            "units" => {
                units = Some(
                    value
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect(),
                );
            }
            _ if key.starts_with("fault[") => {
                // fault[<unit>].<knob>
                let rest = &key["fault[".len()..];
                let Some((unit, knob)) = rest.split_once("].") else {
                    return Err(WireError::UnknownKey(key.to_owned()));
                };
                let unit = unit.trim();
                if unit.is_empty() {
                    return Err(WireError::UnknownKey(key.to_owned()));
                }
                let slot = match unit_faults.iter_mut().find(|(n, _)| n == unit) {
                    Some((_, f)) => f,
                    None => {
                        unit_faults.push((unit.to_owned(), FaultConfig::default()));
                        &mut unit_faults.last_mut().expect("just pushed").1
                    }
                };
                apply_knob(slot, knob, key, value)?;
            }
            _ if key.starts_with("fault.") => {
                apply_knob(&mut faults, &key["fault.".len()..], key, value)?;
            }
            _ => return Err(WireError::UnknownKey(key.to_owned())),
        }
    }

    let config = config.ok_or(WireError::MissingKey("config"))?;
    let seed = seed.ok_or(WireError::MissingKey("seed"))?;
    let runs = runs.ok_or(WireError::MissingKey("runs"))?;
    let mut spec = StudySpec::new(config, seed, runs).with_faults(faults);
    if let Some(names) = units {
        spec = spec.with_units(names);
    }
    if let Some(threads) = threads {
        spec = spec.with_threads(threads);
    }
    for (name, f) in unit_faults {
        spec = spec.with_unit_faults(name, f);
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn active() -> FaultConfig {
        FaultConfig {
            seed: 7,
            dropout_rate: 0.05,
            jitter_amplitude: 0.012_345_678_9,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn default_spec_round_trips() {
        let spec = StudySpec::paper_default();
        let text = to_wire(&spec).expect("preset config serializes");
        let back = from_wire(&text).expect("parses");
        assert_eq!(back.study_key(), spec.study_key());
        for (i, u) in spec.selected().expect("full selection") {
            assert_eq!(back.unit_key(i, u), spec.unit_key(i, u));
        }
    }

    #[test]
    fn faulted_subset_spec_round_trips_bit_exactly() {
        let spec = StudySpec::paper_default()
            .with_faults(active())
            .with_units(["Antutu CPU", "Geekbench 5 CPU"])
            .with_unit_faults(
                "Antutu CPU",
                FaultConfig {
                    truncation_rate: 0.055,
                    ..active()
                },
            );
        let text = to_wire(&spec).expect("serializes");
        let back = from_wire(&text).expect("parses");
        assert_eq!(back.study_key(), spec.study_key());
        assert_eq!(back.unit_faults(), spec.unit_faults());
        assert_eq!(back.faults, spec.faults);
    }

    #[test]
    fn comments_blanks_and_order_are_tolerated() {
        let text = "\n# a request\nmwc-spec v1\nruns = 3   # trailing\n\nseed = 2024\nconfig = snapdragon_888\n";
        let spec = from_wire(text).expect("parses");
        assert_eq!(spec.seed, 2024);
        assert_eq!(spec.runs, 3);
        assert_eq!(spec.study_key(), StudySpec::paper_default().study_key());
    }

    #[test]
    fn threads_are_accepted_but_not_serialized() {
        let spec =
            from_wire("mwc-spec v1\nconfig = snapdragon_888\nseed = 1\nruns = 1\nthreads = 3\n")
                .expect("parses");
        assert_eq!(spec.threads, 3);
        let text = to_wire(&spec).expect("serializes");
        assert!(!text.contains("threads"));
    }

    #[test]
    fn every_defect_is_a_typed_error() {
        let cases: &[(&str, WireError)] = &[
            ("", WireError::BadHeader(String::new())),
            (
                "mwc-spec v2\nseed = 1",
                WireError::BadHeader("mwc-spec v2".to_owned()),
            ),
            (
                "mwc-spec v1\nnot a kv line",
                WireError::BadLine("not a kv line".to_owned()),
            ),
            (
                "mwc-spec v1\nwhat = 1",
                WireError::UnknownKey("what".to_owned()),
            ),
            (
                "mwc-spec v1\nseed = many",
                WireError::BadValue {
                    key: "seed".to_owned(),
                    value: "many".to_owned(),
                },
            ),
            (
                "mwc-spec v1\nconfig = dimensity_9000",
                WireError::UnknownConfig("dimensity_9000".to_owned()),
            ),
            (
                "mwc-spec v1\nfault[].seed = 1",
                WireError::UnknownKey("fault[].seed".to_owned()),
            ),
            (
                "mwc-spec v1\nfault.warp = 1",
                WireError::UnknownKey("fault.warp".to_owned()),
            ),
            (
                "mwc-spec v1\nconfig = snapdragon_888\nseed = 1",
                WireError::MissingKey("runs"),
            ),
        ];
        for (text, want) in cases {
            let got = from_wire(text).expect_err("must fail");
            assert_eq!(&got, want, "for input {text:?}");
            assert!(!got.to_string().is_empty());
        }
    }

    #[test]
    fn last_write_wins_per_key() {
        let text = "mwc-spec v1\nconfig = snapdragon_888\nseed = 1\nseed = 2\nruns = 3\n";
        assert_eq!(from_wire(text).expect("parses").seed, 2);
    }

    proptest! {
        #[test]
        fn from_wire_never_panics_on_hostile_bytes(
            noise in prop::collection::vec(any::<u8>(), 0..256),
            at: usize,
            byte: u8,
        ) {
            let spec = StudySpec::paper_default()
                .with_faults(active())
                .with_units(["Antutu CPU", "Geekbench 5 CPU"])
                .with_unit_faults("Antutu CPU", FaultConfig { truncation_rate: 0.055, ..active() });
            let clean = to_wire(&spec).expect("serializes");
            prop_assert_eq!(
                from_wire(&clean).expect("parses").study_key(),
                spec.study_key()
            );

            let clean = clean.into_bytes();
            let at = at % (clean.len() + 1);
            let mut flipped = clean.clone();
            if let Some(b) = flipped.get_mut(at) {
                *b ^= byte;
            }
            let mut inserted = clean.clone();
            inserted.insert(at, byte);
            for bytes in [noise, clean[..at].to_vec(), flipped, inserted] {
                match from_wire(&String::from_utf8_lossy(&bytes)) {
                    Err(e) => prop_assert!(!e.to_string().is_empty()),
                    // A document the grammar accepts either fails
                    // validation typed or is a study spec that survives
                    // the round trip.
                    Ok(parsed) => {
                        if parsed.validate().is_ok() {
                            let text = to_wire(&parsed).expect("a parsed config is a preset");
                            let back = from_wire(&text).expect("re-parses");
                            prop_assert_eq!(back.study_key(), parsed.study_key());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn non_preset_config_cannot_serialize() {
        let mut config = SocConfig::snapdragon_888();
        config.memory.capacity_mib += 1.0;
        let spec = StudySpec::new(config, 1, 1);
        assert!(matches!(to_wire(&spec), Err(WireError::UnknownConfig(_))));
    }
}
