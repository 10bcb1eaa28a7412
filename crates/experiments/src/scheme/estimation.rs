//! The `mu=` and `zfilter=` values of a `nimbus(…)` spec: the learned-µ and
//! notch option tables, with the printers and parsers that read them.

use super::call_form;
use crate::grammar::{self, num_opt, positive, Opt, ParseError};
use nimbus_core::{ElasticityConfig, LearnedMuConfig, MuSpec, ProbingConfig, ZFilterConfig};

pub(super) fn mu_hint() -> String {
    format!(
        "configured|learned|learned({})",
        grammar::expected(MU_LEARNED)
    )
}

pub(super) fn zfilter_hint() -> String {
    format!("none|notch({})|adaptive", grammar::expected(NOTCH))
}

/// The `mu=learned(…)` options of a probing estimate, over the
/// [`ProbingConfig`] they fill in; `probe` is mandatory, and without any
/// option µ is the plain max filter.
pub(super) const MU_LEARNED: &[Opt<ProbingConfig>] = &[
    num_opt!("probe", "probe", "<s>", probe_interval_s, required),
    num_opt!("gain", "g", "<x>", probe_gain),
    num_opt!("quiesce", "q", "<frac>", quiesce_uncertainty_floor),
];

/// The canonical `mu=` value (`learned`, `learned(probe=3)`, …).
pub(super) fn show_mu(mu: &MuSpec) -> Option<String> {
    match mu {
        MuSpec::Configured => None,
        MuSpec::Learned(LearnedMuConfig::MaxFilter) => Some("learned".to_string()),
        MuSpec::Learned(LearnedMuConfig::Probing(p)) => {
            Some(call_form("learned", grammar::show_opts(MU_LEARNED, p, ",")))
        }
    }
}

/// Parse the value of `mu=`: `configured`, `learned`, or a probing
/// `learned(…)` over the [`MU_LEARNED`] keys.
pub(super) fn parse_mu(value: &str) -> Result<MuSpec, ParseError> {
    match grammar::split_call(value)? {
        ("configured", None) => Ok(MuSpec::Configured),
        ("learned" | "estimated", None) => Ok(MuSpec::learned()),
        ("learned" | "estimated", Some(args)) => {
            let mut cfg = ProbingConfig::default();
            let seen = grammar::set_opts("mu=learned", MU_LEARNED, &mut cfg, args)?;
            if seen.is_empty() {
                return Ok(MuSpec::learned());
            }
            if !seen.contains(&"probe") {
                let probing_only: Vec<&str> = MU_LEARNED[1..].iter().map(|o| o.key).collect();
                return Err(ParseError(format!(
                    "mu=learned probing parameters ({}) require probe=<interval>",
                    probing_only.join("/")
                )));
            }
            cfg.check().map_err(ParseError)?;
            Ok(MuSpec::Learned(LearnedMuConfig::Probing(cfg)))
        }
        (v, _) => Err(ParseError(format!(
            "unknown mu mode `{v}` (expected {})",
            mu_hint()
        ))),
    }
}

/// The `zfilter=notch(…)` option, over the notch frequency (NaN until given).
pub(super) const NOTCH: &[Opt<f64>] = &[Opt {
    key: "freq",
    hint: || "<hz>".to_string(),
    slug: "",
    show: |freq_hz| Some(freq_hz.to_string()),
    set: |freq_hz, v| {
        *freq_hz = positive("notch frequency", v)?;
        // ẑ is sampled once per report, so nothing at or above half the
        // report rate exists to notch (and `Biquad::notch` rejects it).
        let sample_rate_hz = ElasticityConfig::default().sample_rate_hz();
        if *freq_hz >= sample_rate_hz / 2.0 {
            return Err(ParseError(format!(
                "notch frequency `{v}` must be below {} Hz, the Nyquist rate of the {} ms \
                 report cadence",
                sample_rate_hz / 2.0,
                1e3 / sample_rate_hz
            )));
        }
        Ok(())
    },
}];

/// The canonical `zfilter=` value (`notch(freq=0.1)`, `adaptive`, …).
pub(super) fn show_zfilter(zf: &ZFilterConfig) -> Option<String> {
    match zf {
        ZFilterConfig::None => None,
        ZFilterConfig::Notch { freq_hz } => {
            Some(call_form("notch", grammar::show_opts(NOTCH, freq_hz, ",")))
        }
        ZFilterConfig::Adaptive => Some("adaptive".to_string()),
    }
}

/// Parse the value of `zfilter=`: `none`, `notch(freq=…)` or `adaptive`.
pub(super) fn parse_zfilter(value: &str) -> Result<ZFilterConfig, ParseError> {
    match grammar::split_call(value)? {
        ("none", None) => Ok(ZFilterConfig::None),
        ("adaptive", None) => Ok(ZFilterConfig::Adaptive),
        ("notch", args) => {
            let mut freq_hz = f64::NAN;
            grammar::set_opts("zfilter=notch", NOTCH, &mut freq_hz, args.unwrap_or(""))?;
            if freq_hz.is_nan() {
                return Err(ParseError(
                    "zfilter=notch requires the link-variation frequency: notch(freq=<hz>)"
                        .to_string(),
                ));
            }
            Ok(ZFilterConfig::Notch { freq_hz })
        }
        _ => Err(ParseError(format!(
            "unknown zfilter `{value}` (expected {})",
            zfilter_hint()
        ))),
    }
}
