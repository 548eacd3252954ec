//! Typed errors for the capture → derive → pipeline hot path.
//!
//! Extends the style of [`mwc_soc::error::SocError`]: small enums with
//! `Display` diagnostics, so binaries can exit with a clean message
//! instead of a panic backtrace.

use std::fmt;

use mwc_analysis::error::AnalysisError;
use mwc_profiler::faults::CaptureError;
use mwc_soc::error::SocError;

/// Any failure of the characterization pipeline or the analyses and
/// exports layered on top of it.
#[derive(Debug)]
pub enum PipelineError {
    /// Platform configuration or engine construction failed.
    Soc(SocError),
    /// A unit's capture was exhausted or the fault config was invalid.
    Capture(CaptureError),
    /// A downstream statistical analysis failed.
    Analysis(AnalysisError),
    /// Every unit failed to capture — there is no study to analyse.
    StudyEmpty {
        /// Number of units the study requested.
        requested: usize,
    },
    /// A study spec selected a unit name absent from the registry.
    UnknownUnit(String),
    /// A study spec's protocol cannot produce a study (e.g. zero runs).
    InvalidSpec(&'static str),
    /// Writing results to disk failed.
    Io(std::io::Error),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Soc(e) => write!(f, "platform error: {e}"),
            PipelineError::Capture(e) => write!(f, "capture error: {e}"),
            PipelineError::Analysis(e) => write!(f, "analysis error: {e}"),
            PipelineError::StudyEmpty { requested } => {
                write!(f, "study empty: all {requested} units failed to capture")
            }
            PipelineError::UnknownUnit(name) => {
                write!(f, "unknown unit: {name:?} is not in the registry")
            }
            PipelineError::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
            PipelineError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Soc(e) => Some(e),
            PipelineError::Capture(e) => Some(e),
            PipelineError::Analysis(e) => Some(e),
            PipelineError::StudyEmpty { .. } => None,
            PipelineError::UnknownUnit(_) | PipelineError::InvalidSpec(_) => None,
            PipelineError::Io(e) => Some(e),
        }
    }
}

impl From<SocError> for PipelineError {
    fn from(e: SocError) -> Self {
        PipelineError::Soc(e)
    }
}

impl From<CaptureError> for PipelineError {
    fn from(e: CaptureError) -> Self {
        PipelineError::Capture(e)
    }
}

impl From<AnalysisError> for PipelineError {
    fn from(e: AnalysisError) -> Self {
        PipelineError::Analysis(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_prefixed_by_layer() {
        let e = PipelineError::StudyEmpty { requested: 18 };
        assert!(e.to_string().contains("all 18 units"));
        let e: PipelineError = AnalysisError::EmptyInput("matrix".into()).into();
        assert!(e.to_string().starts_with("analysis error"));
    }

    #[test]
    fn sources_are_preserved() {
        use std::error::Error;
        let e: PipelineError =
            CaptureError::InvalidFaultConfig("dropout_rate must be in [0, 1]".into()).into();
        assert!(e.source().is_some());
        assert!(PipelineError::StudyEmpty { requested: 1 }
            .source()
            .is_none());
    }
}
