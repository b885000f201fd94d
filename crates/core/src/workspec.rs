//! Textual workload specifications, shared by the CLI and the estimation
//! service.
//!
//! Both front ends accept the same `--workload` / `"workload"` strings and
//! must materialize **the same trace** for them — the service's bit-parity
//! contract with the batch CLI rests on there being exactly one spec
//! grammar and one trace-construction path. That path lives here, next to
//! the experiment generators it delegates to.

use std::sync::Arc;

use serr_obs::Obs;
use serr_trace::VulnerabilityTrace;
use serr_types::{Seconds, SerrError};

use crate::design::Workload;
use crate::experiments::{self, ExperimentConfig};

/// Which workload a command or request targets.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// The 24-hour half-busy loop.
    Day,
    /// The 7-day business-week loop.
    Week,
    /// The gzip+swim 24-hour combined loop.
    Combined,
    /// A simulated SPEC-like benchmark by name.
    Spec(String),
    /// `duty:<period_seconds>:<busy_fraction>`.
    Duty {
        /// Loop period in seconds.
        period_s: f64,
        /// Fraction of the period that is busy.
        busy: f64,
    },
}

impl WorkloadSpec {
    /// Parses the `--workload` argument value.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::UnknownWorkload`] for unrecognized syntax.
    pub fn parse(s: &str) -> Result<Self, SerrError> {
        match s {
            "day" => return Ok(WorkloadSpec::Day),
            "week" => return Ok(WorkloadSpec::Week),
            "combined" => return Ok(WorkloadSpec::Combined),
            _ => {}
        }
        if let Some(name) = s.strip_prefix("spec:") {
            return Ok(WorkloadSpec::Spec(name.to_owned()));
        }
        if let Some(rest) = s.strip_prefix("duty:") {
            let mut it = rest.split(':');
            let period = it.next().and_then(|v| v.parse::<f64>().ok());
            let busy = it.next().and_then(|v| v.parse::<f64>().ok());
            if let (Some(period_s), Some(busy), None) = (period, busy, it.next()) {
                // Catch bad numerics at parse time with a message naming the
                // flag, instead of a trace-construction error much later.
                if !(period_s.is_finite() && period_s > 0.0) {
                    return Err(SerrError::invalid_config(format!(
                        "duty: period must be a positive finite number of seconds, \
                         got {period_s}"
                    )));
                }
                if !(busy > 0.0 && busy <= 1.0) {
                    return Err(SerrError::invalid_config(format!(
                        "duty: busy fraction must lie in (0, 1], got {busy}"
                    )));
                }
                return Ok(WorkloadSpec::Duty { period_s, busy });
            }
        }
        Err(SerrError::UnknownWorkload { name: s.to_owned() })
    }

    /// The canonical spelling of this spec: parses back to an equal value,
    /// and two equal specs always render identically. Used as a cache /
    /// journal fingerprint component, where `duty:1e3:0.5` and
    /// `duty:1000:0.5` must collide.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            WorkloadSpec::Day => "day".to_owned(),
            WorkloadSpec::Week => "week".to_owned(),
            WorkloadSpec::Combined => "combined".to_owned(),
            WorkloadSpec::Spec(name) => format!("spec:{name}"),
            // `{:?}` is shortest-round-trip: exact and canonical per value.
            WorkloadSpec::Duty { period_s, busy } => format!("duty:{period_s:?}:{busy:?}"),
        }
    }

    /// Materializes the workload's vulnerability trace.
    ///
    /// # Errors
    ///
    /// Propagates workload construction and simulation errors.
    pub fn trace(&self, cfg: &ExperimentConfig) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
        self.trace_with(cfg, None)
    }

    /// [`WorkloadSpec::trace`] recording any timing simulation or
    /// trace-cache access on `obs` (the process-wide observer when `None`).
    ///
    /// # Errors
    ///
    /// As [`WorkloadSpec::trace`].
    pub fn trace_with(
        &self,
        cfg: &ExperimentConfig,
        obs: Option<&Obs>,
    ) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
        let synthesized = |w| experiments::synthesized_trace_with(w, cfg, obs);
        match self {
            WorkloadSpec::Day => synthesized(Workload::Day),
            WorkloadSpec::Week => synthesized(Workload::Week),
            WorkloadSpec::Combined => synthesized(Workload::Combined),
            WorkloadSpec::Spec(name) => experiments::spec_processor_trace_with(name, cfg, obs),
            WorkloadSpec::Duty { period_s, busy } => {
                let t = serr_workload::synthesized::duty_cycle(
                    Seconds::new(*period_s),
                    *busy,
                    cfg.frequency,
                )?;
                Ok(Arc::new(t))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_parse() {
        assert_eq!(WorkloadSpec::parse("day").unwrap(), WorkloadSpec::Day);
        assert_eq!(WorkloadSpec::parse("week").unwrap(), WorkloadSpec::Week);
        assert_eq!(WorkloadSpec::parse("combined").unwrap(), WorkloadSpec::Combined);
        assert_eq!(WorkloadSpec::parse("spec:mcf").unwrap(), WorkloadSpec::Spec("mcf".into()));
        assert_eq!(
            WorkloadSpec::parse("duty:3600:0.25").unwrap(),
            WorkloadSpec::Duty { period_s: 3600.0, busy: 0.25 }
        );
        assert!(WorkloadSpec::parse("quake").is_err());
        assert!(WorkloadSpec::parse("duty:1:2:3").is_err());
        assert!(WorkloadSpec::parse("duty:x:0.5").is_err());
        assert!(WorkloadSpec::parse("duty:0:0.5").is_err());
        assert!(WorkloadSpec::parse("duty:3600:1.5").is_err());
    }

    #[test]
    fn canonical_roundtrips_and_collapses_spellings() {
        for s in ["day", "week", "combined", "spec:gzip", "duty:3600.0:0.25"] {
            let spec = WorkloadSpec::parse(s).unwrap();
            assert_eq!(WorkloadSpec::parse(&spec.canonical()).unwrap(), spec);
        }
        // Different spellings of the same value share one canonical form.
        let a = WorkloadSpec::parse("duty:1e3:0.5").unwrap();
        let b = WorkloadSpec::parse("duty:1000:0.5").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn duty_trace_has_requested_period_and_avf() {
        let cfg = ExperimentConfig::quick();
        let t = WorkloadSpec::parse("duty:0.002:0.5").unwrap().trace(&cfg).unwrap();
        let period_s = t.period_cycles() as f64 / cfg.frequency.hz();
        assert!((period_s - 0.002).abs() / 0.002 < 1e-9, "period {period_s}");
        assert!((t.avf() - 0.5).abs() < 1e-9);
    }
}
