//! # pedsim-stats — the statistical analysis substrate
//!
//! The paper's Figure 6b analysis fits a **binomial generalized linear
//! model** (R's `glm`) of crossing probability against population size and
//! a CPU/GPU indicator, then tests the indicator's significance
//! (p = 0.6145 → "the throughput performance generated by the GPU is
//! similar to the one by the CPU"). This crate provides that analysis from
//! scratch — no external statistics dependency exists in the approved
//! crate set, and the substrate is small:
//!
//! * [`special`] — `ln Γ`, regularised incomplete beta, `erf` (the bricks
//!   p-values are made of);
//! * [`describe`] — descriptive statistics;
//! * [`ttest`] — Welch's and paired t-tests;
//! * [`glm`] — binomial GLM with logit link, fitted by iteratively
//!   reweighted least squares, with Wald tests on coefficients;
//! * [`linalg`] — the small dense solver backing the GLM.

#![warn(missing_docs)]

pub mod describe;
pub mod glm;
pub mod linalg;
pub mod special;
pub mod ttest;

pub use describe::Summary;
pub use glm::{BinomialGlm, GlmFit};
pub use ttest::{paired_t_test, welch_t_test, TTestResult};
