//! SLO machinery for the mzd server: is the analytic guarantee still
//! holding *right now*?
//!
//! The paper's admission control promises a glitch budget (§3.1's
//! `p_late ≤ δ`, §3.3's per-stream `ε`); PR 1's telemetry records what
//! actually happened. This crate closes the loop with three always-on
//! interpreters of those raw observations:
//!
//! * [`BurnRateEngine`] — SRE-style multi-window burn-rate alerting on
//!   the admitted glitch budget: the observed per-stream-round glitch
//!   rate divided by the budget, over fast (64-round) and slow
//!   (512-round) sliding windows, with hysteresis so alerts cannot
//!   flap. The server freezes cache-aware over-admission while a
//!   fast-burn alert is active.
//! * [`ConformanceChecker`] — online model-conformance monitoring via
//!   the probability integral transform: each observed round service
//!   time is pushed through the analytic predicted CDF (`mzd-core`'s
//!   exact Gil–Pelaez inversion); if the model is right the transformed
//!   values are uniform on `[0, 1]`. The checker keeps a binned PIT
//!   histogram, a KS-style max deviation, and raises a *drift* signal
//!   on one-sided upper-tail exceedance — the direction that actually
//!   voids the guarantee (the model is deliberately conservative below
//!   the mean, so two-sided uniformity testing would false-alarm).
//! * [`Tracer`] — per-stream causal spans (admission → queueing →
//!   cache lookup / delayed-hit coalescing → batch / SCAN sweep →
//!   transfer → delivery) exportable as Chrome trace-event JSON,
//!   loadable in Perfetto. Timestamps are *logical* (round index ×
//!   round length): the rest of the workspace deliberately records no
//!   wall-clock time so seeded replays stay byte-identical.
//!
//! The HTML run report (`mzd report`) lives in the CLI crate; this
//! crate only interprets observations.
//!
//! Like `mzd-telemetry` and `mzd-cache`, this crate depends on nothing
//! outside the workspace (only the telemetry crate, for the JSON
//! writer/parser and the span-context type).

#![warn(missing_docs)]

pub mod burn;
pub mod conformance;
pub mod trace;

pub use burn::{AlertTransition, BurnConfig, BurnRateEngine};
pub use conformance::{ConformanceChecker, ConformanceConfig, DriftTransition};
pub use trace::{render_chrome_json, TraceEvent, Tracer};

/// Errors from SLO configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum SloError {
    /// A configuration parameter was invalid.
    Invalid(String),
}

impl std::fmt::Display for SloError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloError::Invalid(msg) => write!(f, "invalid SLO parameters: {msg}"),
        }
    }
}

impl std::error::Error for SloError {}

/// Conservative lower confidence bound on a rate measured as
/// `successes` out of `trials`: the Wilson score interval's lower
/// endpoint at ~95% (z = 2). Returns 0 for empty samples.
///
/// Shared by the drift detector (tail-exceedance rate must *provably*
/// exceed its tolerance before an alarm) — the same
/// evidence-before-action posture as the cache-aware admission bound.
#[must_use]
pub fn wilson_lower_bound(successes: u64, trials: u64) -> f64 {
    if trials == 0 || successes == 0 {
        return 0.0;
    }
    let n = trials as f64;
    let p = (successes.min(trials)) as f64 / n;
    let z2 = 4.0; // z = 2 ≈ 95.45% two-sided
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let margin = (z2 * (p * (1.0 - p) + z2 / (4.0 * n)) / n).sqrt();
    ((center - margin) / denom).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_bound_edges() {
        assert_eq!(wilson_lower_bound(0, 0), 0.0);
        assert_eq!(wilson_lower_bound(0, 50), 0.0);
        let all = wilson_lower_bound(50, 50);
        assert!(all > 0.8 && all < 1.0, "all-hits bound {all}");
        // Monotone in evidence.
        assert!(wilson_lower_bound(500, 500) > all);
        // Below the point estimate.
        assert!(wilson_lower_bound(10, 100) < 0.1);
    }
}
