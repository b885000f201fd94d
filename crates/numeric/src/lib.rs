//! Numerical substrate for the soft-error analysis workspace.
//!
//! The paper's analysis needs a handful of numerical tools that we implement
//! from scratch rather than pulling in a scientific-computing dependency:
//!
//! * compensated ([`KahanSum`]) summation — Monte-Carlo averages over millions
//!   of trials must not lose precision;
//! * adaptive Simpson and composite Gauss–Legendre quadrature
//!   ([`quad`]) — Section 3.2.2 computes the MTTF of a min-of-N system by
//!   numerical integration ("we solve it numerically using a software
//!   package");
//! * the error function ([`special::erf`]) — the CDF of the paper's
//!   near-exponential density `f(x) = 2/√π · e^{−x²}` is `erf(x)`;
//! * streaming statistics with confidence intervals ([`stats`]) — to report
//!   Monte-Carlo MTTF estimates with error bars;
//! * empirical CDFs and Kolmogorov–Smirnov distances ([`ecdf`]) — to test the
//!   exponentiality assumption behind the SOFR step and Theorem 1's
//!   uniformity claim.
//!
//! # Example
//!
//! ```
//! use serr_numeric::quad::integrate_to_infinity;
//! use serr_numeric::special::SQRT_PI;
//!
//! // E(X) for the paper's Section 3.2.2 density f(x) = 2/√π e^{-x²} is 1/√π.
//! let mean = integrate_to_infinity(|x| x * 2.0 / SQRT_PI * (-x * x).exp(), 1e-12).unwrap();
//! assert!((mean - 1.0 / SQRT_PI).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ecdf;
pub mod quad;
pub mod special;
pub mod stats;
pub mod vecmath;

mod kahan;

pub use kahan::{kahan_sum, KahanSum};
