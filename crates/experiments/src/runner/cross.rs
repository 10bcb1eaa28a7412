//! One static cross-traffic flow: its string form, its label and its
//! lowering onto a simulator flow.

use crate::grammar::{
    self, duration, field_opt, fmt_duration, instant, integer, positive, split_top_level, Opt,
    ParseError,
};
use crate::scheme::SchemeSpec;
use nimbus_netsim::{FlowConfig, FlowEndpoint, Time};
use nimbus_transport::{
    format_rate_bps, BackloggedSource, CcKind, PathInfo, PoissonSource, ScriptedSource, Sender,
    SenderConfig, Source,
};
use std::fmt;
use std::str::FromStr;

/// One static cross-traffic flow sharing the path with the monitored flow.
/// A scenario carries a list of these
/// ([`ScenarioSpec::cross`](super::ScenarioSpec::cross)): empty is "alone",
/// several entries are heterogeneous competition on one bottleneck (e.g.
/// nimbus vs. standalone Copa vs. Cubic).  By default a flow has a 50 ms
/// RTT, crosses the whole path and runs for the whole scenario; `rtt=`,
/// `@hop<enter>-<exit>`, `start=` and `stop=` change that, and `seed=` fixes
/// the seed its Poisson source or Nimbus controller draws from (CBR and bare
/// CCAs draw nothing, so take no seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossSpec {
    /// What the flow sends.
    pub source: CrossSource,
    /// Confine the flow to hops `[enter, exit]` of a multi-hop path
    /// (`None` = the whole path).
    pub hops: Option<(usize, usize)>,
    /// Propagation RTT, seconds (`rtt=`).
    pub rtt_s: f64,
    /// When the flow starts, seconds (`start=`).
    pub start_s: f64,
    /// When the flow stops, seconds (`stop=`; `None` = at the end of the run).
    pub stop_s: Option<f64>,
    /// The seed of its Poisson source or Nimbus controller (`seed=`);
    /// `None` derives one from the scenario seed.
    pub seed: Option<u64>,
}

/// What a cross flow sends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossSource {
    /// Constant-bit-rate (inelastic) traffic.
    Cbr(CrossRate),
    /// Poisson (inelastic) traffic at this mean rate.
    Poisson(CrossRate),
    /// One backlogged competitor running any scheme the algebra can express
    /// — a bare CCA, a paced `constant(<rate>)`, or another Nimbus wrapper.
    Scheme(SchemeSpec),
}

/// The offered rate of an inelastic cross flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossRate {
    /// A fraction of the base rate of the hop the flow enters at (`cbr@0.5`).
    OfMu(f64),
    /// An absolute rate, bits/s (`cbr@24M`).
    Bps(f64),
}

impl CrossRate {
    /// Parse `<fraction of µ>` or `<rate>` with a `k|M|G` unit.
    fn parse(value: &str) -> Result<Self, ParseError> {
        if !value.ends_with(['k', 'K', 'm', 'M', 'g', 'G']) {
            let what = "cross rate (a fraction of µ, or a rate with a k|M|G unit)";
            return positive(what, value).map(CrossRate::OfMu);
        }
        let bps = grammar::rate(value)?;
        // Printed without a unit, the rate would read back as a fraction.
        if !format_rate_bps(bps).ends_with(char::is_alphabetic) {
            return Err(ParseError(format!(
                "cross rate `{value}` has no exact k|M|G form of at least 1k"
            )));
        }
        Ok(CrossRate::Bps(bps))
    }

    /// The rate in bits/s on a flow entering at a hop of base rate `hop_bps`.
    fn bps(self, hop_bps: f64) -> f64 {
        match self {
            CrossRate::OfMu(fraction) => fraction * hop_bps,
            CrossRate::Bps(bps) => bps,
        }
    }

    /// `83` (percent of µ) or `-24M`.
    fn slug(self) -> String {
        match self {
            CrossRate::OfMu(fraction) => format!("{:.0}", fraction * 100.0),
            CrossRate::Bps(bps) => format!("-{}", format_rate_bps(bps)),
        }
    }
}

impl fmt::Display for CrossRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossRate::OfMu(fraction) => write!(f, "{fraction}"),
            CrossRate::Bps(bps) => {
                let rate = format_rate_bps(*bps);
                // Only `parse` checks this: a hand-built rate printed bare
                // would read back as a fraction of µ.
                debug_assert!(
                    rate.ends_with(char::is_alphabetic),
                    "cross rate {bps} bit/s has no exact k|M|G form"
                );
                f.write_str(&rate)
            }
        }
    }
}

/// A cross flow's RTT unless `rtt=` says otherwise, seconds.
const RTT_S: f64 = 0.05;

/// The `@key=value,…` options of a cross entry.
pub(super) const CROSS: &[Opt<CrossSpec>] = &[
    field_opt!("rtt", "-rtt", "<dur>", duration, fmt_duration, rtt_s, RTT_S),
    field_opt!("start", "-at", "<dur>", instant, fmt_duration, start_s, 0.0),
    Opt {
        key: "stop",
        hint: || "<dur>".to_string(),
        slug: "-to",
        show: |cross| cross.stop_s.as_ref().map(fmt_duration),
        set: |cross, v| {
            cross.stop_s = Some(instant("stop", v)?);
            Ok(())
        },
    },
    Opt {
        key: "seed",
        hint: || "<n>".to_string(),
        slug: "-seed",
        show: |cross| cross.seed.map(|seed| seed.to_string()),
        set: |cross, v| {
            cross.seed = Some(integer("seed", v)?);
            Ok(())
        },
    },
];

impl CrossSpec {
    /// A flow sending `source` over the whole path for the whole run, with
    /// a 50 ms RTT and a seed derived from the scenario's.
    pub(crate) fn new(source: CrossSource) -> Self {
        CrossSpec {
            source,
            hops: None,
            rtt_s: RTT_S,
            start_s: 0.0,
            stop_s: None,
            seed: None,
        }
    }

    /// A short slug for cell names (`cbr83`, `poisson-24M`, `cubic`,
    /// `cubic-hop0`, `newreno-rtt0.2s`).
    pub fn label(&self) -> String {
        let mut label = match self.source {
            CrossSource::Cbr(rate) => format!("cbr{}", rate.slug()),
            CrossSource::Poisson(rate) => format!("poisson{}", rate.slug()),
            CrossSource::Scheme(spec) => spec.label(),
        };
        if let Some((enter, _)) = self.hops {
            label += &format!("-hop{enter}");
        }
        label + &grammar::slugs(CROSS, self)
    }

    /// Lower this entry onto the flow `label`.  A fraction-of-µ rate scales
    /// `hop_bps`, the base rate of the hop the flow enters at; a scheme is
    /// handed `mu_bps` as its nominal µ; the source or controller draws from
    /// `seed` unless the entry fixes its own.  The flow negotiates ECN when
    /// its scheme is ECN-native (`dctcp`, `nimbus(competitive=dctcp)`).
    pub(crate) fn flow(
        &self,
        label: &str,
        hop_bps: f64,
        mu_bps: f64,
        seed: u64,
    ) -> (FlowConfig, Box<dyn FlowEndpoint>) {
        let seed = self.seed.unwrap_or(seed);
        let stop = self.stop_s.map(Time::from_secs_f64);
        let unlimited = || CcKind::Unlimited.build(&PathInfo::new(1500));
        let (cc, source, elastic, ecn): (_, Box<dyn Source>, _, _) = match self.source {
            CrossSource::Cbr(rate) => {
                let mut cbr = ScriptedSource::constant(rate.bps(hop_bps));
                if let Some(stop) = stop {
                    cbr = cbr.until(stop);
                }
                (unlimited(), Box::new(cbr), false, false)
            }
            CrossSource::Poisson(rate) => {
                let mut poisson = PoissonSource::new(rate.bps(hop_bps), 1500, seed);
                if let Some(stop) = stop {
                    poisson = poisson.until(stop);
                }
                (unlimited(), Box::new(poisson), false, false)
            }
            CrossSource::Scheme(spec) => (
                spec.build_cc(mu_bps, seed, None),
                Box::new(BackloggedSource),
                spec.is_elastic(),
                spec.uses_ecn(),
            ),
        };
        let sender = SenderConfig {
            stop_at: stop,
            ..SenderConfig::labelled(label)
        };
        let mut cfg = FlowConfig::cross(label, Time::from_secs_f64(self.rtt_s), elastic)
            .with_ecn(ecn)
            .starting_at(Time::from_secs_f64(self.start_s));
        if let Some((enter, exit)) = self.hops {
            cfg = cfg.entering_at(enter).exiting_at(exit);
        }
        (cfg, Box::new(Sender::new(sender, cc, source)))
    }
}

impl fmt::Display for CrossSpec {
    /// `cbr@<rate>`, `poisson@<rate>` or `<scheme>`, then the hop span and
    /// the non-default options: `poisson@24M@hop1-1@start=5s,seed=3`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.source {
            CrossSource::Cbr(rate) => write!(f, "cbr@{rate}")?,
            CrossSource::Poisson(rate) => write!(f, "poisson@{rate}")?,
            CrossSource::Scheme(spec) => write!(f, "{spec}")?,
        }
        if let Some((enter, exit)) = self.hops {
            write!(f, "@hop{enter}-{exit}")?;
        }
        match grammar::show_opts(CROSS, self, ",") {
            opts if opts.is_empty() => Ok(()),
            opts => write!(f, "@{opts}"),
        }
    }
}

impl FromStr for CrossSpec {
    type Err = ParseError;

    /// `<head>` then `@`-separated parts: a rate, a `hop<enter>-<exit>` span
    /// and `key=value,…` options, each at most once.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |why: String| Err(ParseError(format!("cross flow `{s}`: {why}")));
        let mut parts = split_top_level(s, '@').into_iter().map(str::trim);
        let head = parts.next().unwrap_or_default();
        let mut cross = CrossSpec::new(CrossSource::Scheme(SchemeSpec::cubic()));
        let mut rate = None;
        for part in parts {
            let hop = |h: &str| h.parse::<usize>().ok();
            let twice = if part.contains('=') {
                grammar::set_opts("cross", CROSS, &mut cross, part)?;
                false
            } else if let Some(span) = part.strip_prefix("hop") {
                let Some(hops) = span
                    .split_once('-')
                    .and_then(|(enter, exit)| Some((hop(enter)?, hop(exit)?)))
                    .filter(|(enter, exit)| enter <= exit)
                else {
                    return err(format!(
                        "invalid hop span `@{part}` (expected @hop<enter>-<exit>, e.g. @hop0-0)"
                    ));
                };
                cross.hops.replace(hops).is_some()
            } else {
                rate.replace(CrossRate::parse(part)?).is_some()
            };
            if twice {
                return err(format!("it gives `@{part}` twice"));
            }
        }
        cross.source = match (head, rate) {
            ("cbr", Some(rate)) => CrossSource::Cbr(rate),
            ("poisson", Some(rate)) => CrossSource::Poisson(rate),
            ("cbr" | "poisson", None) => {
                return err(format!(
                    "`{head}` needs its rate as a fraction of µ or a rate: {head}@0.5 or {head}@24M"
                ))
            }
            (_, None) => CrossSource::Scheme(head.parse()?),
            (_, Some(rate)) => return err(format!("`{head}` sets its own rate, not `@{rate}`")),
        };
        if cross.stop_s.is_some_and(|stop| stop <= cross.start_s) {
            return err("it must stop after it starts".to_string());
        }
        let draws_nothing = matches!(
            cross.source,
            CrossSource::Cbr(_) | CrossSource::Scheme(SchemeSpec::Bare(_))
        );
        if cross.seed.is_some() && draws_nothing {
            return err(format!("`{head}` draws nothing random, so takes no seed="));
        }
        Ok(cross)
    }
}
