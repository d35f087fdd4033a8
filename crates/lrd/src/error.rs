//! Typed errors for the Hurst estimators.

use std::fmt;
use vbr_stats::error::{DataError, NumericError};

/// Why a Hurst estimator could not produce an answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrdError {
    /// The input series cannot support the estimator.
    Data(DataError),
    /// A parameter/optimisation failure (e.g. the Whittle search ended on
    /// its boundary).
    Numeric(NumericError),
    /// The lag/block grid degenerated: fewer usable fit points than the
    /// regression needs.
    GridTooSmall {
        /// Fit points available.
        got: usize,
        /// Fit points required.
        needed: usize,
    },
}

impl fmt::Display for LrdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LrdError::Data(e) => e.fmt(f),
            LrdError::Numeric(e) => e.fmt(f),
            LrdError::GridTooSmall { got, needed } => {
                write!(f, "lag grid too small: {got} usable fit points, need {needed}")
            }
        }
    }
}

impl std::error::Error for LrdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LrdError::Data(e) => Some(e),
            LrdError::Numeric(e) => Some(e),
            LrdError::GridTooSmall { .. } => None,
        }
    }
}

impl From<DataError> for LrdError {
    fn from(e: DataError) -> Self {
        LrdError::Data(e)
    }
}

impl From<NumericError> for LrdError {
    fn from(e: NumericError) -> Self {
        LrdError::Numeric(e)
    }
}
