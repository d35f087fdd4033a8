//! Typed errors for trace construction and persistence.

use std::fmt;
use vbr_stats::error::NumericError;

/// Why a [`crate::Trace`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceError {
    /// An invalid geometry parameter (`slices_per_frame`, `fps`).
    Numeric(NumericError),
    /// The slice count does not divide evenly into frames.
    RaggedSlices {
        /// Number of slices supplied.
        len: usize,
        /// Slices per frame requested.
        spf: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceError::Numeric(e) => e.fmt(f),
            TraceError::RaggedSlices { len, spf } => {
                write!(f, "slice count {len} is not a multiple of slices_per_frame {spf}")
            }
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Numeric(e) => Some(e),
            TraceError::RaggedSlices { .. } => None,
        }
    }
}

impl From<NumericError> for TraceError {
    fn from(e: NumericError) -> Self {
        TraceError::Numeric(e)
    }
}
