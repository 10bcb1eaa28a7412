//! The `mu=` and `zfilter=` values of a `nimbus(…)` spec: the learned-µ and
//! ẑ-filter option tables, with the printers and parsers that read them.

use super::{call_form, MuSpec};
use crate::grammar::{self, num_opt, Opt, ParseError};
use nimbus_core::{LearnedMuConfig, ProbingConfig, ZFilterConfig};

pub(super) fn mu_hint() -> String {
    format!(
        "configured|learned|learned({})",
        grammar::expected(MU_LEARNED)
    )
}

pub(super) fn zfilter_hint() -> String {
    format!(
        "none|notch({})|adaptive|adaptive({})",
        grammar::expected(NOTCH),
        grammar::expected(ADAPTIVE)
    )
}

/// The `mu=learned(…)` options, over the [`ProbingConfig`] they fill in.
/// `probe` is mandatory for a probing strategy; a plain max filter is the
/// `window` row alone ([`probing_view`]) — both strategies default their
/// window to `DEFAULT_MU_WINDOW_S`.
const MU_LEARNED: &[Opt<ProbingConfig>] = &[
    num_opt!("probe", "probe", "<s>", probe_interval_s, required),
    num_opt!("gain", "g", "<x>", probe_gain),
    num_opt!("dur", "d", "<s>", probe_duration_s),
    num_opt!("window", "w", "<s>", window_s),
    num_opt!("loss", "l", "<frac>", loss_backoff),
    num_opt!("lossint", "li", "<s>", backoff_interval_s),
    num_opt!("recent", "r", "<s>", recent_window_s),
    num_opt!("cap", "c", "<x>", cap_margin),
    num_opt!("quiesce", "q", "<frac>", quiesce_uncertainty_floor),
];

/// A learned-µ strategy as the [`ProbingConfig`] the option table reads,
/// plus the rows of [`MU_LEARNED`] that apply to it.
pub(super) fn probing_view(
    lc: &LearnedMuConfig,
) -> (
    ProbingConfig,
    impl Iterator<Item = &'static Opt<ProbingConfig>>,
) {
    let (p, probing) = match *lc {
        LearnedMuConfig::Probing(p) => (p, true),
        LearnedMuConfig::MaxFilter { window_s } => (
            ProbingConfig {
                window_s,
                ..ProbingConfig::default()
            },
            false,
        ),
    };
    let rows = MU_LEARNED
        .iter()
        .filter(move |o| probing || o.key == "window");
    (p, rows)
}

/// The canonical `mu=` value (`learned`, `learned(probe=3)`, …).
pub(super) fn show_mu(mu: &MuSpec) -> Option<String> {
    let MuSpec::Learned(lc) = mu else {
        return None;
    };
    let (p, rows) = probing_view(lc);
    Some(call_form("learned", grammar::show_opts(rows, &p, ",")))
}

/// Parse the value of `mu=`: `configured`, `learned`, or a parameterised
/// `learned(…)` strategy over the [`MU_LEARNED`] keys.
pub(super) fn parse_mu(value: &str) -> Result<MuSpec, ParseError> {
    match grammar::split_call(value)? {
        ("configured", None) => Ok(MuSpec::Configured),
        ("learned" | "estimated", None) => Ok(MuSpec::learned()),
        ("learned" | "estimated", Some(args)) => {
            let mut cfg = ProbingConfig::default();
            let seen = grammar::set_opts("mu=learned", MU_LEARNED, &mut cfg, args)?;
            if !seen.contains(&"probe") {
                if seen.iter().any(|&k| k != "window") {
                    let probing_only: Vec<&str> = MU_LEARNED
                        .iter()
                        .map(|o| o.key)
                        .filter(|&k| k != "probe" && k != "window")
                        .collect();
                    return Err(ParseError(format!(
                        "mu=learned probing parameters ({}) require probe=<interval>",
                        probing_only.join("/")
                    )));
                }
                return Ok(MuSpec::Learned(LearnedMuConfig::MaxFilter {
                    window_s: cfg.window_s,
                }));
            }
            if 2.0 * cfg.probe_duration_s >= cfg.probe_interval_s {
                return Err(ParseError(format!(
                    "probe duration {} s plus its equal-length drain (during which \
                     ẑ is held) must be shorter than the probe interval {} s — \
                     use dur < probe/2",
                    cfg.probe_duration_s, cfg.probe_interval_s
                )));
            }
            if cfg.probe_gain <= 1.0 {
                return Err(ParseError(format!(
                    "probe gain {} must exceed 1 (a probe paces *above* the base rate)",
                    cfg.probe_gain
                )));
            }
            if cfg.loss_backoff >= 1.0 {
                return Err(ParseError(format!(
                    "loss backoff {} must be a decay factor below 1",
                    cfg.loss_backoff
                )));
            }
            if cfg.quiesce_uncertainty_floor >= 1.0 {
                return Err(ParseError(format!(
                    "quiesce floor {} is compared against the µ̂ uncertainty in \
                     [0, 1) — 1 or above would quiesce probing unconditionally",
                    cfg.quiesce_uncertainty_floor
                )));
            }
            Ok(MuSpec::Learned(LearnedMuConfig::Probing(cfg)))
        }
        (v, _) => Err(ParseError(format!(
            "unknown mu mode `{v}` (expected {})",
            mu_hint()
        ))),
    }
}

/// The arguments of `zfilter=notch(…)`; the default is
/// [`ZFilterConfig::notch`]'s `q` with the frequency still to be given (NaN).
pub(super) struct NotchArgs {
    pub(super) freq_hz: f64,
    pub(super) q: f64,
}

impl Default for NotchArgs {
    fn default() -> Self {
        let ZFilterConfig::Notch { q, .. } = ZFilterConfig::notch(f64::NAN) else {
            unreachable!("notch() builds a Notch")
        };
        NotchArgs {
            freq_hz: f64::NAN,
            q,
        }
    }
}

/// The `zfilter=notch(…)` options.
pub(super) const NOTCH: &[Opt<NotchArgs>] = &[
    num_opt!("freq", "", "<hz>", freq_hz, required),
    num_opt!("q", "q", "<q>", q),
];

/// The arguments of `zfilter=adaptive(…)`, defaulting to
/// [`ZFilterConfig::adaptive`]'s gain.
pub(super) struct AdaptiveArgs {
    pub(super) k: f64,
}

impl Default for AdaptiveArgs {
    fn default() -> Self {
        let ZFilterConfig::Adaptive { k } = ZFilterConfig::adaptive() else {
            unreachable!("adaptive() builds an Adaptive")
        };
        AdaptiveArgs { k }
    }
}

/// The `zfilter=adaptive(…)` options.
pub(super) const ADAPTIVE: &[Opt<AdaptiveArgs>] = &[num_opt!("k", "", "<gain>", k)];

/// The canonical `zfilter=` value (`notch(freq=0.1)`, `adaptive`, …).
pub(super) fn show_zfilter(zf: &ZFilterConfig) -> Option<String> {
    match *zf {
        ZFilterConfig::None => None,
        ZFilterConfig::Notch { freq_hz, q } => Some(call_form(
            "notch",
            grammar::show_opts(NOTCH, &NotchArgs { freq_hz, q }, ","),
        )),
        ZFilterConfig::Adaptive { k } => Some(call_form(
            "adaptive",
            grammar::show_opts(ADAPTIVE, &AdaptiveArgs { k }, ","),
        )),
    }
}

/// Parse the value of `zfilter=`: `none`, `notch(freq=…[,q=…])`, or
/// `adaptive[(k=…)]`.
pub(super) fn parse_zfilter(value: &str) -> Result<ZFilterConfig, ParseError> {
    match grammar::split_call(value)? {
        ("none", None) => Ok(ZFilterConfig::None),
        ("adaptive", args) => {
            let mut a = AdaptiveArgs::default();
            grammar::set_opts("zfilter=adaptive", ADAPTIVE, &mut a, args.unwrap_or(""))?;
            Ok(ZFilterConfig::Adaptive { k: a.k })
        }
        ("notch", args) => {
            let mut a = NotchArgs::default();
            grammar::set_opts("zfilter=notch", NOTCH, &mut a, args.unwrap_or(""))?;
            if a.freq_hz.is_nan() {
                return Err(ParseError(
                    "zfilter=notch requires the link-variation frequency: notch(freq=<hz>)"
                        .to_string(),
                ));
            }
            Ok(ZFilterConfig::Notch {
                freq_hz: a.freq_hz,
                q: a.q,
            })
        }
        (v, _) => Err(ParseError(format!(
            "unknown zfilter `{v}` (expected {})",
            zfilter_hint()
        ))),
    }
}
