//! # vbr-stats
//!
//! Statistics substrate for the VBR-video workspace: special functions,
//! the distribution family compared in the paper (Normal, Gamma, Pareto,
//! Lognormal and the hybrid Gamma/Pareto marginal model of §4.2),
//! descriptive statistics (Table 2), empirical distributions (Figs 3–6),
//! autocorrelation (Fig 7), the periodogram (Fig 8), moving averages
//! (Fig 2) and i.i.d.-vs-LRD confidence intervals (Fig 9).
//!
//! ```
//! use vbr_stats::dist::{ContinuousDist, GammaPareto};
//!
//! // The paper's marginal model needs just three parameters.
//! let marginal = GammaPareto::from_params(27_791.0, 6_254.0, 9.0);
//! assert!(marginal.tail_fraction() < 0.1); // ~3% of mass in the Pareto tail
//! let x99 = marginal.quantile(0.99);
//! assert!(x99 > marginal.mean());
//! ```

#![warn(missing_docs)]

pub mod acf;
pub mod ci;
pub mod descriptive;
pub mod dist;
pub mod error;
pub mod gof;
pub mod histogram;
pub mod moving_average;
pub mod obs;
pub mod par;
pub mod periodogram;
pub mod regression;
pub mod rng;
pub mod simd;
pub mod snapshot;
pub mod special;

pub use acf::{autocorrelation, autocovariance};
pub use ci::{mean_ci_iid, mean_ci_lrd, ConfidenceInterval};
pub use descriptive::{quantile, Moments, TraceSummary};
pub use error::{DataError, NumericError, StatsError};
pub use gof::{chi_square, ks_p_value, ks_statistic, ks_two_sample, ks_two_sample_p_value};
pub use histogram::{Ecdf, Histogram};
pub use moving_average::{downsample, moving_average, trailing_average};
pub use par::{num_threads, par_map, par_map_with, with_threads};
pub use periodogram::Periodogram;
pub use regression::{fit_line, fit_line_weighted, fit_loglog, LineFit};
pub use rng::Xoshiro256;
pub use snapshot::{ParamHasher, SnapshotError, SnapshotReader, SnapshotWriter};
pub use special::{
    digamma, erf, erfc, gamma_p, gamma_q, ln_gamma, norm_cdf, norm_pdf, norm_quantile,
    norm_quantile_slice, trigamma,
};
