//! The compositional scheme algebra: what congestion control runs on a flow.
//!
//! # Architecture
//!
//! The paper's central claim is that elasticity detection is a *building
//! block*: Nimbus is not one congestion-control algorithm but a **wrapper**
//! that layers the pulser/detector machinery over two inner controllers — an
//! arbitrary TCP-competitive scheme and an arbitrary delay-mode scheme — and
//! switches between them (§4).  The public API here mirrors that directly:
//!
//! * [`SchemeSpec::Bare`] — a standalone CCA ([`CcKind`]): `cubic`, `reno`,
//!   `vegas`, `copa`, `bbr`, `vivace`, `compound` or `dctcp`.
//! * [`SchemeSpec::Nimbus`] — the wrapper, parameterized by nimbus-core's
//!   [`NimbusSpec`]: which competitive scheme, which delay scheme, whether µ
//!   is configured or learned at runtime (§4.2), and whether mode switching
//!   is enabled at all (the paper's "Nimbus delay" baseline disables it).
//!   The spec *is* the controller's configuration: [`SchemeSpec::nimbus_config`]
//!   only adds the link rate and the seed.
//!
//! Every spec is **string-parseable** ([`std::str::FromStr`]) and prints
//! back to its canonical form ([`std::fmt::Display`]), so CLI flags, sweep
//! axes and per-flow scenario entries all take the same grammar:
//!
//! ```text
//! cubic                                   a bare CCA
//! nimbus                                  the paper's default wrapper
//! nimbus(competitive=reno)                wrap NewReno instead of Cubic
//! nimbus(competitive=dctcp)               DCTCP competitive mode (L4S paths)
//! nimbus(delay=copa,mu=learned)           Copa delay mode, runtime-learned µ
//! nimbus(mu=learned(probe=3))             learned µ with probe-up epochs
//! nimbus(mu=learned(probe=3,gain=4))      ... pacing at 4x during probes
//! nimbus(mu=learned,zfilter=adaptive)     µ-error-aware detection thresholds
//! nimbus(zfilter=notch(freq=0.1))         notch ẑ at the link frequency
//! nimbus(switch=never)                    delay mode only ("Nimbus delay")
//! ```
//!
//! The `mu=`/`zfilter=` axes select where µ comes from and a ẑ-conditioning
//! stage ([`nimbus_core::estimator`]); see that module for a worked "which
//! estimator when" table.
//!
//! Result labels ([`SchemeSpec::label`]) are derived from the spec.  The
//! tokenizer, the number parsers and the error type are the shared
//! [`grammar`] module's; every option list below (the bare CCA names,
//! `nimbus(…)`, `mu=learned(…)`, `zfilter=notch(…)`) is one table that
//! `Display`, `FromStr`, `label()` and the error text all read.

use crate::grammar::{self, choice_opt, non_default, Opt, ParseError};
use crate::runner::NimbusTrace;
use nimbus_core::{
    DelayScheme, LearnedMuConfig, MuSpec, MultiflowConfig, NimbusConfig, NimbusSpec, SwitchSpec,
    TcpScheme, ZFilterConfig,
};
use nimbus_transport::{CcKind, CongestionControl, PathInfo, MSS};
use std::fmt;
use std::str::FromStr;

mod estimation;

use estimation::{
    mu_hint, parse_mu, parse_zfilter, show_mu, show_zfilter, zfilter_hint, MU_LEARNED, NOTCH,
};

/// A congestion-control scheme specification: either a bare CCA or the
/// Nimbus wrapper composed over inner CCAs.  See the [module docs](self)
/// for the grammar and the architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemeSpec {
    /// The Nimbus wrapper (§4) around inner competitive/delay schemes.
    Nimbus(NimbusSpec),
    /// A standalone CCA with no elasticity detection.
    Bare(CcKind),
}

impl SchemeSpec {
    // ---- constructors ---------------------------------------------------

    /// The paper's default Nimbus: Cubic-competitive + BasicDelay,
    /// configured µ, detector-driven switching.
    pub fn nimbus() -> Self {
        SchemeSpec::Nimbus(NimbusSpec::default())
    }

    /// Nimbus with Copa's default mode as the delay scheme (`nimbus-copa`).
    pub fn nimbus_copa() -> Self {
        SchemeSpec::Nimbus(NimbusSpec {
            delay: DelayScheme::CopaDefault,
            ..NimbusSpec::default()
        })
    }

    /// Nimbus with Vegas as the delay scheme (`nimbus-vegas`).
    pub fn nimbus_vegas() -> Self {
        SchemeSpec::Nimbus(NimbusSpec {
            delay: DelayScheme::Vegas,
            ..NimbusSpec::default()
        })
    }

    /// Nimbus's delay controller alone, mode switching disabled
    /// (`nimbus-delay`).
    pub fn nimbus_delay_only() -> Self {
        SchemeSpec::Nimbus(NimbusSpec {
            switch: SwitchSpec::Never,
            ..NimbusSpec::default()
        })
    }

    /// Nimbus learning µ at runtime from the max receive rate
    /// (`nimbus-estmu`, §4.2).
    pub fn nimbus_estmu() -> Self {
        SchemeSpec::Nimbus(NimbusSpec {
            mu: MuSpec::learned(),
            ..NimbusSpec::default()
        })
    }

    /// Bare TCP Cubic.
    pub fn cubic() -> Self {
        SchemeSpec::Bare(CcKind::Cubic)
    }

    /// Bare TCP NewReno.
    pub fn newreno() -> Self {
        SchemeSpec::Bare(CcKind::NewReno)
    }

    /// Bare TCP Vegas.
    pub fn vegas() -> Self {
        SchemeSpec::Bare(CcKind::Vegas)
    }

    /// Bare Copa (its own mode switching).
    pub fn copa() -> Self {
        SchemeSpec::Bare(CcKind::Copa)
    }

    /// Bare BBR.
    pub fn bbr() -> Self {
        SchemeSpec::Bare(CcKind::Bbr)
    }

    /// Bare PCC-Vivace.
    pub fn vivace() -> Self {
        SchemeSpec::Bare(CcKind::Vivace)
    }

    /// Bare Compound TCP.
    pub fn compound() -> Self {
        SchemeSpec::Bare(CcKind::Compound)
    }

    /// Bare DCTCP (ECN mark-fraction reaction; negotiates ECN).
    pub fn dctcp() -> Self {
        SchemeSpec::Bare(CcKind::Dctcp)
    }

    // ---- inspection -----------------------------------------------------

    /// All schemes plotted in Fig. 8/9.
    pub fn headline_set() -> Vec<SchemeSpec> {
        vec![
            Self::nimbus(),
            Self::cubic(),
            Self::bbr(),
            Self::vegas(),
            Self::copa(),
            Self::vivace(),
        ]
    }

    /// Whether this spec is a Nimbus wrapper (whose controller exposes a
    /// mode log / detector).
    pub fn is_nimbus(&self) -> bool {
        matches!(self, SchemeSpec::Nimbus(_))
    }

    /// Whether flows running this spec negotiate ECN (set ECT on their data
    /// packets so marking queues mark them instead of dropping): bare DCTCP,
    /// and Nimbus wrappers whose competitive scheme is DCTCP.  Other flows
    /// can still be forced onto ECN by the scenario's `ecn=` axis.
    pub fn uses_ecn(&self) -> bool {
        match self {
            SchemeSpec::Bare(kind) => matches!(kind, CcKind::Dctcp),
            SchemeSpec::Nimbus(n) => n.competitive == TcpScheme::Dctcp,
        }
    }

    /// A short label for result tables and recorder flow names, derived
    /// from the spec.  The paper's combinations keep their historical
    /// labels (`nimbus`, `nimbus-copa`, `nimbus-estmu`, `cubic`,
    /// `pcc-vivace`, …); novel combinations compose suffixes
    /// (`nimbus-reno-copa-estmu`), and every non-default strategy parameter
    /// gets a slug, so two specs that differ in any knob never share a flow
    /// or result name.
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::Bare(kind) => kind.name().to_string(),
            SchemeSpec::Nimbus(n) => {
                let mut label = String::from("nimbus");
                if n.switch == SwitchSpec::Never {
                    label.push_str("-delay");
                }
                let inner = [
                    non_default(COMPETITIVE, &n.competitive),
                    non_default(DELAY, &n.delay),
                ];
                for name in inner.into_iter().flatten() {
                    label.push('-');
                    label.push_str(&name);
                }
                // The plain max filter keeps the historical bare `-estmu`.
                match &n.mu {
                    MuSpec::Configured => {}
                    MuSpec::Learned(LearnedMuConfig::MaxFilter) => label.push_str("-estmu"),
                    MuSpec::Learned(LearnedMuConfig::Probing(p)) => {
                        label.push_str("-estmu-");
                        label.push_str(&grammar::slugs(MU_LEARNED, p));
                    }
                }
                match &n.zfilter {
                    ZFilterConfig::None => {}
                    ZFilterConfig::Notch { freq_hz } => {
                        label.push_str("-notch");
                        label.push_str(&grammar::slugs(NOTCH, freq_hz));
                    }
                    ZFilterConfig::Adaptive => label.push_str("-zadapt"),
                }
                label
            }
        }
    }

    // ---- building the sender stack --------------------------------------

    /// Build a Nimbus configuration for this spec on a link of `mu_bps`
    /// (`None` for bare specs).
    pub fn nimbus_config(&self, mu_bps: f64, seed: u64) -> Option<NimbusConfig> {
        let SchemeSpec::Nimbus(spec) = *self else {
            return None;
        };
        Some(NimbusConfig {
            spec,
            ..NimbusConfig::default_for_link(mu_bps).with_seed(seed)
        })
    }

    /// Build just the congestion controller for this spec (the piece a
    /// [`Sender`](nimbus_transport::Sender) is generic over).  A Nimbus
    /// controller comes with a [`NimbusTrace`] installed.
    pub fn build_cc(
        &self,
        mu_bps: f64,
        seed: u64,
        multiflow: Option<MultiflowConfig>,
    ) -> Box<dyn CongestionControl> {
        match self {
            SchemeSpec::Nimbus(_) => {
                let mut cfg = self.nimbus_config(mu_bps, seed).expect("nimbus spec");
                if let Some(mf) = multiflow {
                    cfg = cfg.with_multiflow(mf);
                }
                Box::new(NimbusTrace::install(cfg))
            }
            SchemeSpec::Bare(kind) => kind.build(&PathInfo::new(MSS)),
        }
    }
}

// ---- canonical text form -------------------------------------------------

/// Every bare CCA name.  A kind's first entry is its canonical spelling,
/// which `Display` prints and error text lists; later entries are aliases.
const BARE: &[(&str, CcKind)] = &[
    ("cubic", CcKind::Cubic),
    ("newreno", CcKind::NewReno),
    ("vegas", CcKind::Vegas),
    ("copa", CcKind::Copa),
    ("bbr", CcKind::Bbr),
    ("vivace", CcKind::Vivace),
    ("compound", CcKind::Compound),
    ("dctcp", CcKind::Dctcp),
    ("reno", CcKind::NewReno),
    ("pcc-vivace", CcKind::Vivace),
];

/// The canonical spelling of `kind`.
fn bare_name(kind: CcKind) -> &'static str {
    let entry = BARE.iter().find(|&&(_, k)| k == kind);
    entry.expect("every kind has a bare name").0
}

/// The bare CCAs the grammar accepts, for error text and `--help`.
pub fn bare_schemes() -> String {
    let canonical = BARE.iter().filter(|&&(name, kind)| bare_name(kind) == name);
    let names: Vec<&str> = canonical.map(|&(name, _)| name).collect();
    names.join(", ")
}

const COMPETITIVE: &[(&str, TcpScheme)] = &[
    ("cubic", TcpScheme::Cubic),
    ("reno", TcpScheme::NewReno),
    ("newreno", TcpScheme::NewReno),
    ("dctcp", TcpScheme::Dctcp),
];

const DELAY: &[(&str, DelayScheme)] = &[
    ("basic", DelayScheme::BasicDelay),
    ("basicdelay", DelayScheme::BasicDelay),
    ("copa", DelayScheme::CopaDefault),
    ("vegas", DelayScheme::Vegas),
];

const SWITCH: &[(&str, SwitchSpec)] = &[
    ("auto", SwitchSpec::Auto),
    ("never", SwitchSpec::Never),
    ("off", SwitchSpec::Never),
];

/// The `nimbus(…)` options.
pub(crate) const NIMBUS: &[Opt<NimbusSpec>] = &[
    choice_opt!(
        "competitive",
        "competitive scheme",
        COMPETITIVE,
        competitive
    ),
    choice_opt!("delay", "delay scheme", DELAY, delay),
    Opt {
        key: "mu",
        hint: mu_hint,
        slug: "",
        show: |n| show_mu(&n.mu),
        set: |n, v| {
            n.mu = parse_mu(v)?;
            Ok(())
        },
    },
    Opt {
        key: "zfilter",
        hint: zfilter_hint,
        slug: "",
        show: |n| show_zfilter(&n.zfilter),
        set: |n, v| {
            n.zfilter = parse_zfilter(v)?;
            Ok(())
        },
    },
    choice_opt!("switch", "switch mode", SWITCH, switch),
];

/// `head` or `head(args)`, the latter only when there are args to show.
fn call_form(head: &str, args: String) -> String {
    if args.is_empty() {
        head.to_string()
    } else {
        format!("{head}({args})")
    }
}

impl fmt::Display for SchemeSpec {
    /// The canonical, re-parseable spec string: bare names for bare CCAs,
    /// `nimbus` for the default wrapper, `nimbus(key=value,...)` with only
    /// the non-default keys otherwise.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeSpec::Bare(kind) => f.write_str(bare_name(*kind)),
            SchemeSpec::Nimbus(n) => {
                f.write_str(&call_form("nimbus", grammar::show_opts(NIMBUS, n, ",")))
            }
        }
    }
}

impl FromStr for SchemeSpec {
    type Err = ParseError;

    /// Parse a spec string (case-insensitively): a name from the `BARE`
    /// table, or `nimbus[(…)]` over the `NIMBUS` options.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        let unknown = || {
            ParseError(format!(
                "unknown scheme `{}` (expected a bare CCA — {} — or a wrapper spec such as \
                 nimbus(competitive=reno,delay=copa,mu=learned))",
                s.trim(),
                bare_schemes()
            ))
        };
        match grammar::split_call(&lower)? {
            ("nimbus", args) => {
                let mut spec = NimbusSpec::default();
                grammar::set_opts("nimbus", NIMBUS, &mut spec, args.unwrap_or(""))?;
                Ok(SchemeSpec::Nimbus(spec))
            }
            (name, None) => match BARE.iter().find(|&&(bare, _)| bare == name) {
                Some(&(_, kind)) => Ok(SchemeSpec::Bare(kind)),
                None => Err(unknown()),
            },
            _ => Err(unknown()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_kinds_round_trip_through_the_table() {
        for kind in [
            CcKind::NewReno,
            CcKind::Cubic,
            CcKind::Vegas,
            CcKind::Copa,
            CcKind::Bbr,
            CcKind::Vivace,
            CcKind::Compound,
            CcKind::Dctcp,
        ] {
            let spec = SchemeSpec::Bare(kind);
            let text = spec.to_string();
            assert_eq!(text.parse::<SchemeSpec>().unwrap(), spec, "via `{text}`");
        }
        let parse = |s: &str| s.parse::<SchemeSpec>().unwrap();
        assert_eq!(parse("reno"), SchemeSpec::newreno());
        assert_eq!(parse("pcc-vivace"), SchemeSpec::vivace());
        assert!("quic".parse::<SchemeSpec>().is_err());
    }

    #[test]
    fn novel_combinations_compose_labels() {
        let label = |s: &str| s.parse::<SchemeSpec>().unwrap().label();
        assert_eq!(label("nimbus(competitive=reno)"), "nimbus-reno");
        assert_eq!(label("nimbus(competitive=dctcp)"), "nimbus-dctcp");
        assert_eq!(SchemeSpec::dctcp().label(), "dctcp");
        assert_eq!(label("nimbus(delay=copa,mu=learned)"), "nimbus-copa-estmu");
        assert_eq!(
            label("nimbus(delay=vegas,switch=never)"),
            "nimbus-delay-vegas"
        );
        // Probing parameters: only the non-default ones, in table order.
        assert_eq!(
            label("nimbus(mu=learned(probe=2,gain=4,quiesce=0.4))"),
            "nimbus-estmu-probe2g4q0.4"
        );
        assert_eq!(label("nimbus(zfilter=notch(freq=0.1))"), "nimbus-notch0.1");
        assert_eq!(label("nimbus(zfilter=adaptive)"), "nimbus-zadapt");
    }

    #[test]
    fn canonical_strings_and_tolerant_parsing() {
        assert_eq!(SchemeSpec::nimbus().to_string(), "nimbus");
        assert_eq!(SchemeSpec::nimbus_copa().to_string(), "nimbus(delay=copa)");
        assert_eq!(
            SchemeSpec::nimbus_delay_only().to_string(),
            "nimbus(switch=never)"
        );
        // Whitespace and case tolerance.
        assert_eq!(
            " Nimbus( Competitive = Reno , Mu = Learned ) "
                .parse::<SchemeSpec>()
                .unwrap(),
            SchemeSpec::Nimbus(NimbusSpec {
                competitive: TcpScheme::NewReno,
                mu: MuSpec::learned(),
                ..NimbusSpec::default()
            })
        );
        // The ECN family.
        let prague = SchemeSpec::Nimbus(NimbusSpec {
            competitive: TcpScheme::Dctcp,
            ..NimbusSpec::default()
        });
        assert_eq!(prague.to_string(), "nimbus(competitive=dctcp)");
        assert!(prague.uses_ecn());
        assert!(SchemeSpec::dctcp().uses_ecn());
        assert!(!SchemeSpec::nimbus().uses_ecn());
        assert!(!SchemeSpec::cubic().uses_ecn());
    }

    #[test]
    fn nimbus_configs_only_for_nimbus_specs() {
        assert!(SchemeSpec::nimbus().nimbus_config(96e6, 1).is_some());
        assert!(SchemeSpec::cubic().nimbus_config(96e6, 1).is_none());
        assert!(SchemeSpec::nimbus().is_nimbus());
        assert!(!SchemeSpec::bbr().is_nimbus());
        // The spec is the config's, beside the link rate and the seed.
        let spec: SchemeSpec = "nimbus(competitive=reno,mu=learned,switch=never)"
            .parse()
            .unwrap();
        let cfg = spec.nimbus_config(96e6, 7).unwrap();
        assert_eq!(SchemeSpec::Nimbus(cfg.spec), spec);
        assert_eq!((cfg.mu_bps, cfg.seed), (96e6, 7));
    }

    #[test]
    fn headline_set_covers_the_paper_baselines() {
        let set = SchemeSpec::headline_set();
        assert!(set.contains(&SchemeSpec::cubic()));
        assert!(set.contains(&SchemeSpec::bbr()));
        assert!(set.contains(&SchemeSpec::copa()));
        assert!(set.contains(&SchemeSpec::vivace()));
    }
}
