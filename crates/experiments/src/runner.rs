//! The one scenario description ([`ScenarioSpec`] and its sub-specs, each
//! with its canonical string form), network construction, and post-run metric
//! extraction shared by every figure.
//!
//! # Scenario grammar
//!
//! Every spec type here prints ([`std::fmt::Display`]) and parses
//! ([`std::str::FromStr`]) one canonical string through the shared
//! [`grammar`] tokenizer; [`grammar_reference`] renders the
//! whole grammar from the option tables.

use crate::figures::{cbr_cross_flow, poisson_cross_flow, scheme_cross_flow};
use crate::grammar::{
    self, choice_opt, duration, field_opt, fmt_duration, fmt_size, instant, key_value, parsed,
    positive, split_call, split_top_level, Opt, ParseError,
};
use crate::scheme::{SchemeSpec, BARE_SCHEMES, NIMBUS};
use nimbus_core::{Mode, NimbusController};
use nimbus_netsim::{
    EcnMarking, FlowConfig, FlowEndpoint, FlowHandle, LinkConfig, LossModel, Network, QueueKind,
    RateSchedule, Recorder, SimConfig, Time,
};
use nimbus_traffic::fleet::{
    ArrivalProcess, CcKindSerde, FleetSpawner, FleetWorkloadConfig, DEFAULT_BURSTY_ALPHA,
};
use nimbus_traffic::FlowSizeDistribution;
use nimbus_transport::{format_rate_bps, Sender};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// How the bottleneck rate moves over a scenario, expressed relative to the
/// scenario's base `link_rate_bps` so the same shape can be swept across
/// link rates.  Converted to a concrete [`RateSchedule`] at network-build
/// time.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkScheduleSpec {
    /// The classic fixed-rate link.
    Constant,
    /// One step to `factor·base` at `at_s` seconds.
    Step {
        /// When the step happens, seconds.
        at_s: f64,
        /// New rate as a fraction of the base rate.
        factor: f64,
    },
    /// An arbitrary staircase: at each `(t_s, factor)` the rate becomes
    /// `factor·base`.
    Steps {
        /// `(time_s, factor_of_base)` transitions, times strictly increasing.
        steps: Vec<(f64, f64)>,
    },
    /// `µ(t) = base·(1 + amplitude_frac·sin(2π·t/period_s))`.
    Sinusoid {
        /// Peak deviation as a fraction of the base rate.
        amplitude_frac: f64,
        /// Oscillation period, seconds.
        period_s: f64,
    },
    /// A trace of rate factors applied every `interval_s`, repeating.
    Trace {
        /// Duration of each trace sample, seconds.
        interval_s: f64,
        /// Per-interval rates as fractions of the base rate.
        factors: Vec<f64>,
    },
    /// One of the curated built-in traces shipped with the simulator
    /// ([`RateSchedule::builtin_trace`]): `cellular`, `wifi`, `step-outage`.
    NamedTrace {
        /// The built-in trace's name.
        name: String,
    },
    /// An external Mahimahi-format packet-delivery trace loaded from disk
    /// ([`RateSchedule::from_mahimahi_file`]).  Unlike every other family
    /// the trace carries *absolute* rates — the scenario's base rate does
    /// not scale it (it still sizes delay-specified buffers and is handed
    /// to configured-µ schemes as the nominal rate).
    TraceFile {
        /// Path to the trace file (one millisecond timestamp per line).
        path: String,
    },
}

impl LinkScheduleSpec {
    /// Materialize the schedule against a concrete base rate.
    ///
    /// # Panics
    /// Panics on an unknown built-in trace name or an unloadable trace
    /// file, and (debug builds) on staircase step times out of order; a
    /// parsed spec ([`FromStr`]) has been checked for all three.
    pub fn to_schedule(&self, base_bps: f64) -> RateSchedule {
        match self {
            LinkScheduleSpec::Constant => RateSchedule::constant(base_bps),
            LinkScheduleSpec::Step { at_s, factor } => {
                RateSchedule::step(base_bps, Time::from_secs_f64(*at_s), factor * base_bps)
            }
            LinkScheduleSpec::Steps { steps } => {
                debug_assert!(
                    steps.windows(2).all(|w| w[0].0 < w[1].0),
                    "staircase step times must strictly increase: {steps:?}"
                );
                RateSchedule::Steps {
                    initial_bps: base_bps,
                    steps: steps
                        .iter()
                        .map(|&(t_s, f)| (Time::from_secs_f64(t_s), f * base_bps))
                        .collect(),
                }
            }
            LinkScheduleSpec::Sinusoid {
                amplitude_frac,
                period_s,
            } => RateSchedule::sinusoid(base_bps, *amplitude_frac, Time::from_secs_f64(*period_s)),
            LinkScheduleSpec::Trace {
                interval_s,
                factors,
            } => RateSchedule::trace(
                Time::from_secs_f64(*interval_s),
                factors.iter().map(|f| f * base_bps).collect(),
                true,
            ),
            LinkScheduleSpec::NamedTrace { name } => RateSchedule::builtin_trace(name, base_bps)
                .unwrap_or_else(|| panic!("{}", unknown_trace(name))),
            LinkScheduleSpec::TraceFile { path } => RateSchedule::from_mahimahi_file(path)
                .unwrap_or_else(|e| panic!("cannot load mahimahi trace: {e}")),
        }
    }

    /// A short slug for cell/result names (`const`, `step50@15`, `sin25p10`, …).
    pub fn label(&self) -> String {
        match self {
            LinkScheduleSpec::Constant => "const".to_string(),
            LinkScheduleSpec::Step { at_s, factor } => {
                format!("step{:.0}@{at_s:.0}", factor * 100.0)
            }
            LinkScheduleSpec::Steps { steps } => format!("steps{}", steps.len()),
            LinkScheduleSpec::Sinusoid {
                amplitude_frac,
                period_s,
            } => format!("sin{:.0}p{period_s:.0}", amplitude_frac * 100.0),
            LinkScheduleSpec::Trace { factors, .. } => format!("trace{}", factors.len()),
            LinkScheduleSpec::NamedTrace { name } => format!("trace-{name}"),
            LinkScheduleSpec::TraceFile { path } => {
                let stem = std::path::Path::new(path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "file".to_string());
                format!("mm-{stem}")
            }
        }
    }
}

fn unknown_trace(name: &str) -> String {
    format!(
        "unknown built-in trace `{name}` (available: {})",
        RateSchedule::builtin_trace_names().join(", ")
    )
}

/// The schedule forms, for error text and [`grammar_reference`].
const SCHEDULE_FORMS: &str = "const | step(<at>,<factor>) | steps(<at>=<factor>,…) \
    | sin(<amplitude>,<period>) | trace(<interval>,<factor>,…) | trace-<name> | mm(<path>)";

impl fmt::Display for LinkScheduleSpec {
    /// The canonical re-parseable form; factors and amplitudes are fractions
    /// of the base rate (unlike the rounded percentages of [`Self::label`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let join = |items: Vec<String>| items.join(",");
        match self {
            LinkScheduleSpec::Constant => write!(f, "const"),
            LinkScheduleSpec::Step { at_s, factor } => {
                write!(f, "step({},{factor})", fmt_duration(at_s))
            }
            LinkScheduleSpec::Steps { steps } => {
                let steps = steps
                    .iter()
                    .map(|(t, factor)| format!("{}={factor}", fmt_duration(t)));
                write!(f, "steps({})", join(steps.collect()))
            }
            LinkScheduleSpec::Sinusoid {
                amplitude_frac,
                period_s,
            } => write!(f, "sin({amplitude_frac},{})", fmt_duration(period_s)),
            LinkScheduleSpec::Trace {
                interval_s,
                factors,
            } => {
                let factors = factors.iter().map(f64::to_string);
                write!(
                    f,
                    "trace({},{})",
                    fmt_duration(interval_s),
                    join(factors.collect())
                )
            }
            LinkScheduleSpec::NamedTrace { name } => write!(f, "trace-{name}"),
            LinkScheduleSpec::TraceFile { path } => write!(f, "mm({path})"),
        }
    }
}

impl FromStr for LinkScheduleSpec {
    type Err = ParseError;

    /// Parse a schedule.  Named traces are checked against the built-in
    /// catalogue and trace files are loaded once here, so a parsed spec
    /// cannot reach [`LinkScheduleSpec::to_schedule`]'s panics.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(name) = s.strip_prefix("trace-") {
            if !RateSchedule::builtin_trace_names().contains(&name) {
                return Err(ParseError(unknown_trace(name)));
            }
            return Ok(LinkScheduleSpec::NamedTrace {
                name: name.to_string(),
            });
        }
        let (head, inner) = split_call(s)?;
        if let ("mm", Some(path)) = (head, inner) {
            RateSchedule::from_mahimahi_file(path)
                .map_err(|e| ParseError(format!("cannot load mahimahi trace: {e}")))?;
            return Ok(LinkScheduleSpec::TraceFile {
                path: path.to_string(),
            });
        }
        let args = inner.map_or_else(Vec::new, |i| split_top_level(i, ','));
        match (head, args.as_slice()) {
            ("const", []) => Ok(LinkScheduleSpec::Constant),
            ("step", [at, factor]) => Ok(LinkScheduleSpec::Step {
                at_s: instant("step time", at)?,
                factor: positive("step factor", factor)?,
            }),
            ("steps", [_, ..]) => {
                let step = |pair: &&str| {
                    let (at, factor) = key_value(pair).ok_or_else(|| {
                        ParseError(format!("staircase step `{pair}` is not <at>=<factor>"))
                    })?;
                    Ok((instant("step time", at)?, positive("step factor", factor)?))
                };
                let steps: Vec<(f64, f64)> = args.iter().map(step).collect::<Result<_, _>>()?;
                // The schedule applies steps in list order, so an earlier
                // time after a later one would silently never take effect.
                if let Some(w) = steps.windows(2).find(|w| w[1].0 <= w[0].0) {
                    return Err(ParseError(format!(
                        "staircase step times must strictly increase: {} follows {} \
                         (list the steps in time order)",
                        fmt_duration(&w[1].0),
                        fmt_duration(&w[0].0)
                    )));
                }
                Ok(LinkScheduleSpec::Steps { steps })
            }
            ("sin", [amplitude, period]) => Ok(LinkScheduleSpec::Sinusoid {
                amplitude_frac: positive("sinusoid amplitude", amplitude)?,
                period_s: duration("sinusoid period", period)?,
            }),
            ("trace", [interval, factors @ ..]) if !factors.is_empty() => {
                let factors = factors.iter().map(|f| positive("trace factor", f));
                Ok(LinkScheduleSpec::Trace {
                    interval_s: duration("trace interval", interval)?,
                    factors: factors.collect::<Result<_, _>>()?,
                })
            }
            _ => Err(ParseError(format!(
                "unknown schedule `{s}` (expected {SCHEDULE_FORMS})"
            ))),
        }
    }
}

/// The `ecn=` axis of the scenario grammar: whether — and how — a hop marks
/// ECT packets instead of dropping them.
///
/// ```text
/// ecn=off            no marking (the default; ECN-capable flows are inert)
/// ecn=classic        RFC 3168-style marking at the AQM's drop points
/// ecn=l4s            L4S step marking at a 1 ms sojourn threshold (RFC 9331)
/// ecn=step(5ms)      step marking at an explicit sojourn threshold
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EcnSpec {
    /// No marking; ECT packets are treated exactly like NotEct ones.
    #[default]
    Off,
    /// Classic ECN: mark ECT packets where the queue would have dropped.
    Classic,
    /// L4S-style step marking at a sojourn-time threshold (seconds).
    Step {
        /// Queue sojourn above which every ECT packet is marked, seconds.
        threshold_s: f64,
    },
}

/// The named `ecn=` modes (canonical name first); `step(<dur>)` is the one
/// parameterised form beside them.
const ECN_MODES: &[(&str, EcnSpec)] = &[
    ("off", EcnSpec::Off),
    ("none", EcnSpec::Off),
    ("classic", EcnSpec::Classic),
    ("ecn", EcnSpec::Classic),
    ("l4s", EcnSpec::Step { threshold_s: 0.001 }),
];

fn ecn_hint() -> String {
    format!("{}|step(<dur>)", grammar::choices(ECN_MODES))
}

impl EcnSpec {
    /// The L4S profile: step marking at the RFC 9331-recommended 1 ms.
    pub fn l4s() -> Self {
        EcnSpec::Step { threshold_s: 0.001 }
    }

    /// Whether any marking is configured.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, EcnSpec::Off)
    }

    /// The netsim queue-level marking profile this spec materializes to.
    pub fn to_marking(&self) -> EcnMarking {
        match *self {
            EcnSpec::Off => EcnMarking::None,
            EcnSpec::Classic => EcnMarking::Classic,
            EcnSpec::Step { threshold_s } => EcnMarking::Step { threshold_s },
        }
    }

    /// A short slug for cell names: empty when off, `-ecn`, `-l4s`, or
    /// `-step<ms>ms`.
    pub fn label(&self) -> String {
        match *self {
            EcnSpec::Off => String::new(),
            EcnSpec::Classic => "-ecn".to_string(),
            EcnSpec::Step { threshold_s: 0.001 } => "-l4s".to_string(),
            EcnSpec::Step { threshold_s } => format!("-step{}ms", threshold_s * 1000.0),
        }
    }
}

impl fmt::Display for EcnSpec {
    /// Canonical re-parseable form: `off`, `classic`, `l4s` (the 1 ms step),
    /// or `step(<dur>)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (ECN_MODES.iter().find(|(_, mode)| mode == self), self) {
            (Some((name, _)), _) => write!(f, "{name}"),
            (None, EcnSpec::Step { threshold_s }) => {
                write!(f, "step({})", fmt_duration(threshold_s))
            }
            (None, _) => unreachable!("every unparameterised mode is in ECN_MODES"),
        }
    }
}

impl FromStr for EcnSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let t = s.trim().to_ascii_lowercase();
        if let Some(&(_, mode)) = ECN_MODES.iter().find(|&&(name, _)| name == t) {
            return Ok(mode);
        }
        match split_call(&t)? {
            ("step", Some(threshold)) => Ok(EcnSpec::Step {
                threshold_s: duration("step threshold", threshold)?,
            }),
            _ => Err(ParseError(format!(
                "unknown ecn mode `{s}` (expected {})",
                ecn_hint()
            ))),
        }
    }
}

/// One additional hop appended after the scenario's primary (hop-0)
/// bottleneck, described relative to the scenario's base `link_rate_bps` so
/// the same path shape can be swept across link rates.
#[derive(Debug, Clone, PartialEq)]
pub struct HopSpec {
    /// The hop's base rate as a fraction of the scenario's `link_rate_bps`
    /// (< 1.0 makes this hop the path's bottleneck).
    pub rate_factor: f64,
    /// How the hop's rate moves over the run, materialized against
    /// `rate_factor·link_rate_bps`.
    pub schedule: LinkScheduleSpec,
    /// Buffer size in seconds of this hop's line rate (drop-tail).
    pub buffer_s: f64,
    /// Propagation delay from the previous hop's output to this hop, seconds.
    pub prop_delay_s: f64,
    /// Whether this hop marks ECT packets instead of dropping (`ecn=` axis).
    pub ecn: EcnSpec,
}

/// The options after the rate factor in `hop(<factor>,…)`.
const HOP: &[Opt<HopSpec>] = &[
    field_opt!(
        "sched",
        "",
        "<schedule>",
        parsed,
        LinkScheduleSpec::to_string,
        schedule,
        LinkScheduleSpec::Constant
    ),
    field_opt!("buffer", "", "<dur>", duration, fmt_duration, buffer_s, 0.1),
    field_opt!(
        "delay",
        "",
        "<dur>",
        duration,
        fmt_duration,
        prop_delay_s,
        0.01
    ),
    field_opt!(
        "ecn",
        "",
        ecn_hint(),
        parsed,
        EcnSpec::to_string,
        ecn,
        EcnSpec::Off
    ),
];

impl HopSpec {
    /// A constant-rate drop-tail hop at `rate_factor·base` with 100 ms of
    /// buffering and 10 ms of upstream propagation.
    pub fn constant(rate_factor: f64) -> Self {
        HopSpec {
            rate_factor,
            schedule: LinkScheduleSpec::Constant,
            buffer_s: 0.1,
            prop_delay_s: 0.01,
            ecn: EcnSpec::Off,
        }
    }
}

impl fmt::Display for HopSpec {
    /// `hop(<factor>)`, followed by the non-default `HOP` options.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hop({}", self.rate_factor)?;
        match grammar::show_opts(HOP, self, ",") {
            opts if opts.is_empty() => write!(f, ")"),
            opts => write!(f, ",{opts})"),
        }
    }
}

impl FromStr for HopSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let ("hop", Some(inner)) = split_call(s)? else {
            return Err(ParseError(format!(
                "`{s}` is not a hop: expected hop(<factor>[,{}])",
                grammar::expected(HOP)
            )));
        };
        let factor = split_top_level(inner, ',')[0];
        let mut hop = HopSpec::constant(positive("hop rate factor", factor)?);
        let opts = inner[factor.len()..].trim_start_matches(',');
        grammar::set_opts("hop", HOP, &mut hop, opts)?;
        Ok(hop)
    }
}

/// The shape of the forward path beyond the primary bottleneck: a (possibly
/// empty) chain of extra hops the packets traverse after hop 0.  The default
/// — no extra hops — is the paper's single-bottleneck dumbbell, and every
/// pre-path scenario is exactly a `PathSpec::single()` path.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PathSpec {
    /// Hops appended after the primary bottleneck, in path order.
    pub extra_hops: Vec<HopSpec>,
}

impl PathSpec {
    /// The classic single-bottleneck path.
    pub fn single() -> Self {
        PathSpec::default()
    }

    /// A two-hop path with a constant secondary bottleneck at
    /// `rate_factor·link_rate_bps` downstream of the primary hop.
    pub fn with_secondary(rate_factor: f64) -> Self {
        PathSpec {
            extra_hops: vec![HopSpec::constant(rate_factor)],
        }
    }

    /// A two-hop *moving-bottleneck* path: at `swap_at_s` the primary hop
    /// steps down to `low_factor·base` while the secondary hop — which
    /// started at `low_factor·base` — steps up to full rate.  The path's
    /// minimum rate is `low_factor·base` throughout, but the hop imposing it
    /// changes, which is exactly the regime a single-link simulator cannot
    /// express.
    pub fn moving_bottleneck(low_factor: f64, swap_at_s: f64) -> Self {
        PathSpec {
            extra_hops: vec![HopSpec {
                schedule: LinkScheduleSpec::Step {
                    at_s: swap_at_s,
                    factor: 1.0 / low_factor,
                },
                ..HopSpec::constant(low_factor)
            }],
        }
    }

    /// Total number of hops including the primary bottleneck.
    pub fn hop_count(&self) -> usize {
        1 + self.extra_hops.len()
    }

    /// The nominal bottleneck rate seen by a flow traversing hops
    /// `[enter, exit]` of this path (inclusive; `None` = the path's tail):
    /// the minimum base rate over exactly those hops.  Hop 0 is the primary
    /// bottleneck at `link_rate_bps`.
    pub fn nominal_mu_over_hops(
        &self,
        link_rate_bps: f64,
        enter: usize,
        exit: Option<usize>,
    ) -> f64 {
        let last = exit
            .unwrap_or(self.extra_hops.len())
            .min(self.extra_hops.len());
        let mut mu = f64::INFINITY;
        for hop in enter..=last {
            let rate = if hop == 0 {
                link_rate_bps
            } else {
                self.extra_hops[hop - 1].rate_factor * link_rate_bps
            };
            mu = mu.min(rate);
        }
        if mu.is_finite() {
            mu
        } else {
            link_rate_bps
        }
    }

    /// A short slug for cell/result names: empty for a single hop, otherwise
    /// e.g. `-2hop60` (two hops, tightest extra hop at 60% of base).
    pub fn label(&self) -> String {
        if self.extra_hops.is_empty() {
            return String::new();
        }
        let tightest = self
            .extra_hops
            .iter()
            .map(|h| h.rate_factor)
            .fold(f64::INFINITY, f64::min);
        let moving = self
            .extra_hops
            .iter()
            .any(|h| h.schedule != LinkScheduleSpec::Constant);
        format!(
            "-{}hop{:.0}{}",
            self.hop_count(),
            tightest * 100.0,
            if moving { "mv" } else { "" }
        )
    }
}

impl fmt::Display for PathSpec {
    /// The extra hops as space-separated `hop(…)` tokens (empty for the
    /// single-bottleneck path).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let hops: Vec<String> = self.extra_hops.iter().map(HopSpec::to_string).collect();
        write!(f, "{}", hops.join(" "))
    }
}

impl FromStr for PathSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hops = grammar::tokens(s)?.into_iter().map(str::parse);
        Ok(PathSpec {
            extra_hops: hops.collect::<Result<_, _>>()?,
        })
    }
}

/// One static cross-traffic flow sharing the path with the monitored flow.
/// A scenario carries a list of these ([`ScenarioSpec::cross`]): empty is
/// "alone", several entries are heterogeneous competition on one bottleneck
/// (e.g. nimbus vs. standalone Copa vs. Cubic).  Rates of the inelastic
/// families are fractions of the *hop-0 base* rate; all cross flows have a
/// 50 ms RTT and run for the whole scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CrossSpec {
    /// Constant-bit-rate (inelastic) traffic at this fraction of µ.
    Cbr {
        /// Offered CBR rate as a fraction of the bottleneck rate.
        fraction_of_mu: f64,
    },
    /// Poisson (inelastic) traffic at this fraction of µ.
    Poisson {
        /// Mean offered rate as a fraction of the bottleneck rate.
        fraction_of_mu: f64,
    },
    /// One backlogged competitor running any scheme the algebra can express
    /// — a bare CCA, a paced `constant(<rate>)`, or another Nimbus wrapper.
    Scheme {
        /// The competitor's scheme.
        spec: SchemeSpec,
        /// Confine the flow to hops `[enter, exit]` of a multi-hop path
        /// (`None` = the whole path).
        hops: Option<(usize, usize)>,
    },
}

impl CrossSpec {
    /// The classic single backlogged Cubic competitor on the whole path.
    pub fn cubic() -> Self {
        CrossSpec::Scheme {
            spec: SchemeSpec::cubic(),
            hops: None,
        }
    }

    /// A short slug for cell names (`cbr83`, `poisson50`, `cubic`,
    /// `cubic-hop0`).
    pub fn label(&self) -> String {
        match self {
            CrossSpec::Cbr { fraction_of_mu } => format!("cbr{:.0}", fraction_of_mu * 100.0),
            CrossSpec::Poisson { fraction_of_mu } => {
                format!("poisson{:.0}", fraction_of_mu * 100.0)
            }
            CrossSpec::Scheme { spec, hops: None } => spec.label(),
            CrossSpec::Scheme {
                spec,
                hops: Some((enter, _)),
            } => format!("{}-hop{enter}", spec.label()),
        }
    }
}

impl fmt::Display for CrossSpec {
    /// `cbr@<fraction>`, `poisson@<fraction>`, `<scheme>` or
    /// `<scheme>@hop<enter>-<exit>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossSpec::Cbr { fraction_of_mu } => write!(f, "cbr@{fraction_of_mu}"),
            CrossSpec::Poisson { fraction_of_mu } => write!(f, "poisson@{fraction_of_mu}"),
            CrossSpec::Scheme { spec, hops: None } => write!(f, "{spec}"),
            CrossSpec::Scheme {
                spec,
                hops: Some((enter, exit)),
            } => write!(f, "{spec}@hop{enter}-{exit}"),
        }
    }
}

impl FromStr for CrossSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (head, at) = match split_top_level(s, '@').as_slice() {
            [head] => (head.trim(), None),
            [head, at] => (head.trim(), Some(at.trim())),
            _ => {
                return Err(ParseError(format!(
                    "cross flow `{s}` has more than one `@`"
                )))
            }
        };
        let fraction = |family: &str| {
            let at = at.ok_or_else(|| {
                ParseError(format!(
                    "`{family}` cross traffic needs its rate as a fraction of µ: {family}@0.5"
                ))
            })?;
            positive("fraction of µ", at)
        };
        match head {
            "cbr" => Ok(CrossSpec::Cbr {
                fraction_of_mu: fraction("cbr")?,
            }),
            "poisson" => Ok(CrossSpec::Poisson {
                fraction_of_mu: fraction("poisson")?,
            }),
            _ => {
                let hops = at.map(|at| {
                    let hop = |h: &str| h.parse::<usize>().ok();
                    at.strip_prefix("hop")
                        .and_then(|range| range.split_once('-'))
                        .and_then(|(enter, exit)| Some((hop(enter)?, hop(exit)?)))
                        .filter(|(enter, exit)| enter <= exit)
                        .ok_or_else(|| {
                            ParseError(format!(
                                "invalid hop span `@{at}` (expected @hop<enter>-<exit>, e.g. @hop0-0)"
                            ))
                        })
                });
                Ok(CrossSpec::Scheme {
                    spec: head.parse()?,
                    hops: hops.transpose()?,
                })
            }
        }
    }
}

/// An open-loop fleet workload riding on a scenario: a churning population
/// of finite flows (Poisson or bursty arrivals × heavy-tailed sizes) offered
/// at a fraction of the base link rate.  This is the `arrivals=`/`load=`
/// axis of the scenario grammar:
///
/// ```text
/// fleet(arrivals=poisson,load=0.5)
/// fleet(arrivals=bursty(alpha=1.5),load=0.3,mean=50k,cc=reno)
/// ```
///
/// Materialized into a [`FleetSpawner`] at network-build time; flows spawn
/// at their arrival instants and retire on completion, so the run only pays
/// for the concurrently active population.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Interarrival process (`arrivals=poisson|bursty|bursty(alpha=…)`).
    pub arrivals: ArrivalProcess,
    /// Offered load as a fraction of the scenario's base link rate (`load=`).
    pub load: f64,
    /// Override the size distribution's mean flow size in bytes (`mean=`);
    /// `None` keeps the default CAIDA-like mixture (~100 kB mean).
    pub mean_flow_bytes: Option<f64>,
    /// Congestion control run by the fleet flows (`cc=cubic|reno`).
    pub cc: CcKindSerde,
}

fn parse_arrivals(v: &str) -> Result<ArrivalProcess, ParseError> {
    let alpha = match split_call(v)? {
        ("poisson", None) => return Ok(ArrivalProcess::Poisson),
        ("bursty", None) => DEFAULT_BURSTY_ALPHA,
        ("bursty", Some(arg)) if arg.starts_with("alpha=") => {
            positive("bursty alpha", &arg["alpha=".len()..])?
        }
        _ => {
            return Err(ParseError(format!(
                "unknown arrivals `{v}` (expected poisson, bursty or bursty(alpha=…))"
            )))
        }
    };
    if alpha <= 1.0 {
        return Err(ParseError(format!(
            "bursty alpha must exceed 1 (finite mean), got `{alpha}`"
        )));
    }
    Ok(ArrivalProcess::Bursty { alpha })
}

const FLEET_CC: &[(&str, CcKindSerde)] = &[
    ("cubic", CcKindSerde::Cubic),
    ("reno", CcKindSerde::NewReno),
    ("newreno", CcKindSerde::NewReno),
];

/// The `fleet(…)` options.
const FLEET: &[Opt<FleetSpec>] = &[
    Opt {
        key: "arrivals",
        hint: || "poisson|bursty|bursty(alpha=<a>)".to_string(),
        slug: "",
        show: |fleet| {
            Some(match fleet.arrivals {
                ArrivalProcess::Poisson => "poisson".to_string(),
                ArrivalProcess::Bursty { alpha } => format!("bursty(alpha={alpha})"),
            })
        },
        set: |fleet, v| {
            fleet.arrivals = parse_arrivals(v)?;
            Ok(())
        },
    },
    Opt {
        key: "load",
        hint: || "<fraction of the link rate, in (0, 2]>".to_string(),
        slug: "",
        show: |fleet| Some(fleet.load.to_string()),
        set: |fleet, v| {
            fleet.load = positive("load", v)?;
            if fleet.load > 2.0 {
                return Err(ParseError(format!(
                    "load `{v}` out of range (0, 2]: it is a fraction of link rate"
                )));
            }
            Ok(())
        },
    },
    Opt {
        key: "mean",
        hint: || "<bytes>[k|M]".to_string(),
        slug: "",
        show: |fleet| fleet.mean_flow_bytes.as_ref().map(fmt_size),
        set: |fleet, v| {
            fleet.mean_flow_bytes = Some(grammar::size("mean flow size", v)?);
            Ok(())
        },
    },
    choice_opt!("cc", "fleet cc", FLEET_CC, cc),
];

impl FleetSpec {
    /// A Poisson fleet at the given offered-load fraction, default sizes,
    /// Cubic flows.
    pub fn poisson(load: f64) -> Self {
        FleetSpec {
            arrivals: ArrivalProcess::Poisson,
            load,
            mean_flow_bytes: None,
            cc: CcKindSerde::Cubic,
        }
    }

    /// The size distribution this fleet samples from: the default mixture,
    /// linearly rescaled when `mean_flow_bytes` overrides the mean.
    pub fn size_distribution(&self) -> FlowSizeDistribution {
        let mut sizes = FlowSizeDistribution::default();
        if let Some(target_mean) = self.mean_flow_bytes {
            // Scaling every byte-dimensioned parameter by the same factor
            // scales the analytic mean exactly linearly.
            let factor = target_mean / sizes.mean_bytes();
            sizes.body_median_bytes *= factor;
            sizes.tail_min_bytes *= factor;
            sizes.max_bytes *= factor;
        }
        sizes
    }

    /// A short slug for cell names: `fleet-poisson-l50`, `fleet-bursty-l30-reno`.
    pub fn label(&self) -> String {
        let arrivals = match self.arrivals {
            ArrivalProcess::Poisson => "poisson",
            ArrivalProcess::Bursty { .. } => "bursty",
        };
        let mut s = format!("fleet-{arrivals}-l{:.0}", self.load * 100.0);
        if let Some(mean) = self.mean_flow_bytes {
            s.push_str(&format!("-m{:.0}k", mean / 1000.0));
        }
        if self.cc == CcKindSerde::NewReno {
            s.push_str("-reno");
        }
        s
    }

    /// Materialize the fleet against a scenario: arrivals over the whole run,
    /// offered load relative to `link_rate_bps`, workload seed derived from
    /// the scenario seed (distinct from the cross-flow controller seeds).
    pub fn build_spawner(&self, link_rate_bps: f64, duration_s: f64, seed: u64) -> FleetSpawner {
        FleetSpawner::new(FleetWorkloadConfig {
            offered_load_bps: self.load * link_rate_bps,
            arrivals: self.arrivals,
            sizes: self.size_distribution(),
            start_s: 0.0,
            stop_s: duration_s,
            base_rtt_s: 0.05,
            jitter_rtt: true,
            cc: self.cc,
            seed: seed.wrapping_mul(131).wrapping_add(29),
            elastic_threshold_bytes: 15_000,
        })
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fleet({})", grammar::show_opts(FLEET, self, ","))
    }
}

impl FromStr for FleetSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let ("fleet", Some(inner)) = split_call(s)? else {
            return Err(ParseError(format!(
                "`{s}` is not a fleet spec: expected fleet({})",
                grammar::expected(FLEET)
            )));
        };
        let mut spec = FleetSpec::poisson(0.5);
        grammar::set_opts("fleet", FLEET, &mut spec, inner)?;
        Ok(spec)
    }
}

/// The one description of a scenario: bottleneck, path, cross traffic, seed
/// and duration.  Its canonical string form (see [`grammar_reference`]) is
///
/// ```text
/// 48M sin(0.1,10s) hop(0.6) vs cubic+fleet(arrivals=poisson,load=0.5) ecn=l4s seed=61 dur=40s
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Base link rate µ of the primary bottleneck (hop 0), bits/s.
    pub link_rate_bps: f64,
    /// How the primary hop's rate moves over the run (constant unless overridden).
    pub schedule: LinkScheduleSpec,
    /// Buffer size in seconds of line rate (drop-tail unless `pie_target_s` set).
    pub buffer_s: f64,
    /// Propagation RTT of the monitored flow(s), seconds.
    pub prop_rtt_s: f64,
    /// Experiment duration, seconds.
    pub duration_s: f64,
    /// Random seed.
    pub seed: u64,
    /// Optional PIE AQM target delay (seconds) on the primary hop;
    /// drop-tail when `None`.
    pub pie_target_s: Option<f64>,
    /// Random loss probability on the primary hop (0 = none).
    pub loss_probability: f64,
    /// Extra hops after the primary bottleneck (empty = single-link dumbbell).
    pub path: PathSpec,
    /// Static cross-traffic flows, added to the network after the monitored
    /// flow (and after any imperatively built cross traffic) in list order.
    pub cross: Vec<CrossSpec>,
    /// Optional open-loop fleet workload churning alongside the monitored
    /// flow (installed as a spawner after every static flow).
    pub fleet: Option<FleetSpec>,
    /// ECN marking on the primary (hop-0) bottleneck (`ecn=` axis).  When
    /// enabled, every flow in the scenario negotiates ECN.
    pub ecn: EcnSpec,
}

/// The scenario's `key=value` options (`dur` is mandatory).
const SCENARIO: &[Opt<ScenarioSpec>] = &[
    field_opt!(
        "ecn",
        "",
        ecn_hint(),
        parsed,
        EcnSpec::to_string,
        ecn,
        EcnSpec::Off
    ),
    field_opt!("buffer", "", "<dur>", duration, fmt_duration, buffer_s, 0.1),
    field_opt!("rtt", "", "<dur>", duration, fmt_duration, prop_rtt_s, 0.05),
    Opt {
        key: "pie",
        hint: || "<dur>".to_string(),
        slug: "",
        show: |spec| spec.pie_target_s.as_ref().map(fmt_duration),
        set: |spec, v| {
            spec.pie_target_s = Some(duration("pie", v)?);
            Ok(())
        },
    },
    field_opt!(
        "loss",
        "",
        "<prob>",
        positive,
        f64::to_string,
        loss_probability,
        0.0
    ),
    Opt {
        key: "seed",
        hint: || "<n>".to_string(),
        slug: "",
        show: |spec| Some(spec.seed.to_string()),
        set: |spec, v| {
            spec.seed = v
                .parse()
                .map_err(|_| ParseError(format!("invalid seed `{v}`: not an integer")))?;
            Ok(())
        },
    },
    field_opt!(
        "dur",
        "",
        "<dur>",
        duration,
        fmt_duration,
        duration_s,
        required
    ),
];

impl ScenarioSpec {
    /// The paper's default evaluation link: 96 Mbit/s, 50 ms RTT, 100 ms buffer.
    pub fn default_96mbps(duration_s: f64) -> Self {
        ScenarioSpec {
            link_rate_bps: 96e6,
            schedule: LinkScheduleSpec::Constant,
            buffer_s: 0.1,
            prop_rtt_s: 0.05,
            duration_s,
            seed: 1,
            pie_target_s: None,
            loss_probability: 0.0,
            path: PathSpec::single(),
            cross: Vec::new(),
            fleet: None,
            ecn: EcnSpec::Off,
        }
    }

    /// The Fig. 1 link: 48 Mbit/s, 50 ms RTT, 100 ms buffer.
    pub fn fig1_48mbps(duration_s: f64) -> Self {
        ScenarioSpec {
            link_rate_bps: 48e6,
            ..Self::default_96mbps(duration_s)
        }
    }

    /// Scale the duration down for quick runs.
    pub fn quick(mut self, quick: bool, factor: f64) -> Self {
        if quick {
            self.duration_s = (self.duration_s * factor).max(12.0);
        }
        self
    }

    /// The nominal bottleneck rate a configured-µ scheme should be handed:
    /// the minimum base rate over every hop of the path.  Equal to
    /// `link_rate_bps` for single-hop scenarios.
    pub fn nominal_mu_bps(&self) -> f64 {
        self.path.nominal_mu_over_hops(self.link_rate_bps, 0, None)
    }

    /// Build the simulator network for this spec.
    pub fn build_network(&self) -> Network {
        let mut cfg = SimConfig::new(self.link_rate_bps, self.buffer_s, self.duration_s);
        cfg.seed = self.seed;
        cfg.path[0].schedule = self.schedule.to_schedule(self.link_rate_bps);
        if let Some(target) = self.pie_target_s {
            cfg.path[0].queue = QueueKind::Pie {
                target_delay_s: target,
                buffer_s: self.buffer_s,
            };
        }
        if self.loss_probability > 0.0 {
            cfg.path[0].loss = LossModel::Bernoulli {
                p: self.loss_probability,
            };
        }
        cfg.path[0].ecn = self.ecn.to_marking();
        for hop in &self.path.extra_hops {
            let base = hop.rate_factor * self.link_rate_bps;
            let link = LinkConfig::drop_tail(base, hop.buffer_s)
                .with_schedule(hop.schedule.to_schedule(base))
                .with_prop_delay(Time::from_secs_f64(hop.prop_delay_s))
                .with_ecn(hop.ecn.to_marking());
            cfg.path.push(link);
        }
        Network::new(cfg)
    }

    /// The `-vs-<…>` part of a cell name: `alone`, or the cross flows' (and
    /// the fleet's) labels joined by `+`.
    pub fn cross_label(&self) -> String {
        let labels = self.cross.iter().map(CrossSpec::label);
        cross_list(labels.chain(self.fleet.iter().map(FleetSpec::label)))
    }

    /// Lower the spec-described cross traffic onto the imperative
    /// `figures` helpers.  The conventions the pinned recorder fingerprints
    /// depend on live here: CBR → `cbr-cross`; Poisson → `poisson-cross`,
    /// source seed `seed·31+7`; scheme → `<label>[-hop<enter>]-cross`, cc
    /// seed `seed·67+11`, µ = the minimum over the hops it traverses; with
    /// more than one entry the label and the seed take the entry's index
    /// (`-cross<i>`, `+i`).
    fn cross_flows(&self) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
        let lower = |(i, cross): (usize, &CrossSpec)| {
            let tag = if self.cross.len() == 1 {
                "cross".to_string()
            } else {
                format!("cross{i}")
            };
            let seed =
                |mul: u64, add: u64| self.seed.wrapping_mul(mul).wrapping_add(add + i as u64);
            match *cross {
                CrossSpec::Cbr { fraction_of_mu } => cbr_cross_flow(
                    &format!("cbr-{tag}"),
                    fraction_of_mu * self.link_rate_bps,
                    0.05,
                    0.0,
                    None,
                ),
                CrossSpec::Poisson { fraction_of_mu } => poisson_cross_flow(
                    &format!("poisson-{tag}"),
                    fraction_of_mu * self.link_rate_bps,
                    0.05,
                    seed(31, 7),
                    0.0,
                    None,
                ),
                CrossSpec::Scheme { spec, hops } => {
                    let (enter, exit) = hops.map_or((0, None), |(a, b)| (a, Some(b)));
                    let (cfg, ep) = scheme_cross_flow(
                        &format!("{}-{tag}", cross.label()),
                        &spec,
                        self.path
                            .nominal_mu_over_hops(self.link_rate_bps, enter, exit),
                        seed(67, 11),
                        0.05,
                        0.0,
                        None,
                    );
                    match hops {
                        Some((enter, exit)) => (cfg.entering_at(enter).exiting_at(exit), ep),
                        None => (cfg, ep),
                    }
                }
            }
        };
        self.cross.iter().enumerate().map(lower).collect()
    }

    /// Parse the whitespace-separated tokens after the link rate.
    fn set_tokens(&mut self, tokens: &[&str]) -> Result<(), ParseError> {
        let mut seen = Vec::new();
        let mut tokens = tokens.iter();
        while let Some(&token) = tokens.next() {
            if token == "vs" {
                let cross = tokens
                    .next()
                    .ok_or_else(|| ParseError("`vs` must be followed by cross traffic".into()))?;
                for entry in split_top_level(cross, '+').into_iter().map(str::trim) {
                    if !entry.starts_with("fleet(") {
                        if entry != "alone" {
                            self.cross.push(entry.parse()?);
                        }
                    } else if self.fleet.replace(entry.parse()?).is_some() {
                        return Err(ParseError(
                            "a scenario carries at most one fleet".to_string(),
                        ));
                    }
                }
            } else if key_value(token).is_some() {
                seen.extend(grammar::set_opts("scenario", SCENARIO, self, token)?);
            } else if token.starts_with("hop(") {
                self.path.extra_hops.push(token.parse()?);
            } else if self.schedule == LinkScheduleSpec::Constant {
                self.schedule = token.parse()?;
            } else {
                return Err(ParseError(format!(
                    "`{token}`: the scenario already has the schedule `{}`",
                    self.schedule
                )));
            }
        }
        if !seen.contains(&"dur") {
            return Err(ParseError(
                "a scenario needs its duration: dur=<dur>".to_string(),
            ));
        }
        for cross in &self.cross {
            if let CrossSpec::Scheme {
                hops: Some((_, exit)),
                ..
            } = cross
            {
                if *exit >= self.path.hop_count() {
                    return Err(ParseError(format!(
                        "cross flow `{cross}` exits at hop {exit} but the path has {} hop(s)",
                        self.path.hop_count()
                    )));
                }
            }
        }
        Ok(())
    }
}

/// `alone`, or the entries joined by `+`.
fn cross_list(entries: impl Iterator<Item = String>) -> String {
    let entries: Vec<String> = entries.collect();
    if entries.is_empty() {
        "alone".to_string()
    } else {
        entries.join("+")
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_rate_bps(self.link_rate_bps))?;
        if self.schedule != LinkScheduleSpec::Constant {
            write!(f, " {}", self.schedule)?;
        }
        for hop in &self.path.extra_hops {
            write!(f, " {hop}")?;
        }
        let cross = self.cross.iter().map(CrossSpec::to_string);
        write!(
            f,
            " vs {} {}",
            cross_list(cross.chain(self.fleet.iter().map(FleetSpec::to_string))),
            grammar::show_opts(SCENARIO, self, " ")
        )
    }
}

impl FromStr for ScenarioSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let tokens = grammar::tokens(s)?;
        let (rate, rest) = tokens
            .split_first()
            .ok_or_else(|| ParseError("empty scenario: expected <rate> …".to_string()))?;
        let mut spec = ScenarioSpec {
            link_rate_bps: grammar::rate(rate)?,
            ..ScenarioSpec::default_96mbps(f64::NAN)
        };
        spec.set_tokens(rest)?;
        Ok(spec)
    }
}

/// The whole spec grammar as text, every option list rendered from the table
/// the parsers read — printed by `nimbus-experiments --help` and embedded in
/// the README, which this doctest holds to it:
///
/// ```
/// let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
/// assert!(readme.contains(&nimbus_experiments::runner::grammar_reference()));
/// ```
pub fn grammar_reference() -> String {
    format!(
        "\
cell      := <scheme>@<scenario> steady=<dur>
scenario  := <rate> [<schedule>] {{<hop>}} vs <cross> {{<key>=<value>}}
             keys: {scenario}
schedule  := {SCHEDULE_FORMS}
             names: {traces}
hop       := hop(<factor>[,<key>=<value>…])
             keys: {hop}
cross     := alone | <entry>{{+<entry>}}
entry     := cbr@<fraction of µ> | poisson@<fraction of µ>
           | <scheme>[@hop<enter>-<exit>] | fleet(<key>=<value>,…)
             keys: {fleet}
scheme    := {BARE_SCHEMES}
           | nimbus | nimbus(<key>=<value>,…)
             keys: {nimbus}
units     := <rate> 48M (k|M|G bit/s), <dur> 5ms | 40s, <bytes> 50k (k|M)",
        scenario = grammar::expected(SCENARIO),
        traces = RateSchedule::builtin_trace_names().join(", "),
        hop = grammar::expected(HOP),
        fleet = grammar::expected(FLEET),
        nimbus = grammar::expected(NIMBUS),
    )
}

/// Summary metrics for one monitored flow after a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SingleFlowMetrics {
    /// Scheme label.
    pub label: String,
    /// Mean throughput over the steady-state window, Mbit/s.
    pub mean_throughput_mbps: f64,
    /// Mean RTT over the steady-state window, ms.
    pub mean_rtt_ms: f64,
    /// Median RTT, ms.
    pub median_rtt_ms: f64,
    /// Mean per-packet bottleneck queueing delay, ms.
    pub mean_queue_delay_ms: f64,
    /// Median per-packet queueing delay, ms.
    pub median_queue_delay_ms: f64,
    /// Throughput time series (s, Mbit/s).
    pub throughput_series: Vec<(f64, f64)>,
    /// Queueing-delay time series (s, ms).
    pub queue_delay_series: Vec<(f64, f64)>,
    /// RTT time series (s, ms).
    pub rtt_series: Vec<(f64, f64)>,
    /// Raw per-packet RTT-like samples for CDFs (ms).
    pub rtt_samples_ms: Vec<f64>,
    /// Per-interval throughput samples for CDFs (Mbit/s).
    pub throughput_samples_mbps: Vec<f64>,
    /// Fraction of time a Nimbus flow spent in delay mode (1.0 for non-Nimbus).
    pub delay_mode_fraction: f64,
    /// Nimbus mode log (empty for non-Nimbus schemes).
    pub mode_log: Vec<(f64, String)>,
    /// Elasticity metric time series (empty for non-Nimbus schemes).
    pub eta_series: Vec<(f64, f64)>,
    /// Learned-µ series `(t_s, µ̂_bps)` for Nimbus flows estimating the link
    /// rate at runtime (empty otherwise).
    pub mu_series: Vec<(f64, f64)>,
    /// Mean relative error `|µ̂(t) − µ(t)|/µ(t)` over the steady-state window
    /// against the scenario's true rate schedule.  NaN when µ was configured
    /// (nothing learned) or no estimates fell in the window.
    pub mu_tracking_error: f64,
}

/// Everything a figure needs after a run.
pub struct RunOutput {
    /// The recorder moved out of the network.
    pub recorder: Recorder,
    /// Metrics for each monitored flow, in the order they were added.
    pub flows: Vec<SingleFlowMetrics>,
    /// Total engine events processed (for sweep benchmarking).
    pub events_processed: u64,
    /// Simulated duration actually covered, seconds.
    pub duration_s: f64,
}

/// Extract a time series as `(t, v)` pairs, skipping NaN values.
fn series_of(ts: &nimbus_netsim::TimeSeries) -> Vec<(f64, f64)> {
    ts.t.iter()
        .zip(ts.v.iter())
        .filter(|(_, v)| v.is_finite())
        .map(|(t, v)| (*t, *v))
        .collect()
}

/// Pull the Nimbus controller out of a boxed endpoint, if that is what it is.
pub fn nimbus_of(endpoint: &dyn FlowEndpoint) -> Option<&NimbusController> {
    let sender = endpoint.as_any()?.downcast_ref::<Sender>()?;
    sender
        .congestion_control()
        .as_any()?
        .downcast_ref::<NimbusController>()
}

/// Run a prepared network and extract per-monitored-flow metrics.
///
/// `steady_start_s` excludes the start-up transient from the scalar summaries
/// (series always cover the whole run).
pub fn run_and_collect(
    mut net: Network,
    handles: &[(FlowHandle, SchemeSpec)],
    steady_start_s: f64,
) -> RunOutput {
    net.run();
    let duration_s = net.now().as_secs_f64();
    let events_processed = net.events_processed();
    // The true µ(t) a flow can sustain is the minimum over every hop's
    // schedule — on a single-hop path this is just the bottleneck schedule.
    let schedules: Vec<RateSchedule> = net.hop_schedules().into_iter().cloned().collect();
    let (recorder, endpoints) = net.finish();
    let mut flows = Vec::new();
    for (handle, scheme) in handles {
        let slot = recorder
            .monitored_slot(handle.0)
            .expect("monitored flow expected");
        let tput = &recorder.throughput_mbps[slot];
        let rtt = &recorder.rtt_ms[slot];
        let qd = &recorder.queue_delay_ms[slot];
        let window = (steady_start_s, duration_s);

        let mut metrics = SingleFlowMetrics {
            label: scheme.label(),
            mean_throughput_mbps: tput.mean_in_range(window.0, window.1),
            mean_rtt_ms: rtt.mean_in_range(window.0, window.1),
            median_rtt_ms: nimbus_dsp::percentile(
                &rtt.values()
                    .iter()
                    .copied()
                    .filter(|v| v.is_finite())
                    .collect::<Vec<_>>(),
                50.0,
            ),
            mean_queue_delay_ms: qd.mean_in_range(window.0, window.1),
            median_queue_delay_ms: nimbus_dsp::percentile(
                &recorder.packet_delay_samples_ms[slot],
                50.0,
            ),
            throughput_series: series_of(tput),
            queue_delay_series: series_of(qd),
            rtt_series: series_of(rtt),
            rtt_samples_ms: rtt
                .values()
                .iter()
                .copied()
                .filter(|v| v.is_finite())
                .collect(),
            throughput_samples_mbps: tput.values().to_vec(),
            delay_mode_fraction: 1.0,
            mode_log: Vec::new(),
            eta_series: Vec::new(),
            mu_series: Vec::new(),
            mu_tracking_error: f64::NAN,
        };

        if let Some(nimbus) = nimbus_of(endpoints[handle.0].as_ref()) {
            metrics.delay_mode_fraction = nimbus.delay_mode_fraction(steady_start_s, duration_s);
            metrics.mode_log = nimbus
                .mode_log()
                .iter()
                .map(|(t, m)| {
                    (
                        *t,
                        match m {
                            Mode::Delay => "delay".to_string(),
                            Mode::Competitive => "competitive".to_string(),
                        },
                    )
                })
                .collect();
            metrics.eta_series = nimbus
                .detector()
                .verdicts()
                .iter()
                .map(|v| (v.t_s, v.eta.min(1e3)))
                .collect();
            metrics.mu_series = nimbus.estimator().mu_series().to_vec();
            let errors: Vec<f64> = metrics
                .mu_series
                .iter()
                .filter(|(t, _)| *t >= steady_start_s && *t <= duration_s)
                .map(|&(t, mu_hat)| {
                    let at = Time::from_secs_f64(t);
                    let mu_true = schedules
                        .iter()
                        .map(|s| s.rate_at(at))
                        .fold(f64::INFINITY, f64::min);
                    (mu_hat - mu_true).abs() / mu_true
                })
                .collect();
            if !errors.is_empty() {
                metrics.mu_tracking_error = errors.iter().sum::<f64>() / errors.len() as f64;
            }
        }
        flows.push(metrics);
    }
    RunOutput {
        recorder,
        flows,
        events_processed,
        duration_s,
    }
}

/// Convenience: run a single monitored scheme against an arbitrary set of
/// cross-traffic flows on the given scenario.  The scenario's own
/// spec-described cross traffic ([`ScenarioSpec::cross`]) is added after the
/// imperative `cross` set, the fleet spawner last.
pub fn run_scheme_vs_cross(
    spec: &ScenarioSpec,
    scheme: SchemeSpec,
    mut cross: Vec<(FlowConfig, Box<dyn FlowEndpoint>)>,
    steady_start_s: f64,
) -> RunOutput {
    let mut net = spec.build_network();
    let endpoint = scheme.build_endpoint(spec.nominal_mu_bps(), spec.seed);
    // The primary flow is ECN-capable when its scheme wants marks or the
    // scenario enables marking on the path (ECT on a non-marking queue is
    // harmless: no marks ever arrive, so every reaction path stays inert).
    let primary_ecn = scheme.uses_ecn() || spec.ecn.is_enabled();
    let handle = net.add_flow(
        FlowConfig::primary(&scheme.label(), Time::from_secs_f64(spec.prop_rtt_s))
            .with_ecn(primary_ecn),
        endpoint,
    );
    cross.extend(spec.cross_flows());
    for (mut cfg, ep) in cross {
        // Scenario-wide ECN makes every competitor ECT too: a non-ECT
        // competitor on a classic-ECN queue would fill the buffer to the
        // drop point while ECT flows back off at the (lower) marking
        // threshold, starving them — a queue-configuration artifact, not a
        // scheme property.
        if spec.ecn.is_enabled() {
            cfg = cfg.with_ecn(true);
        }
        net.add_flow(cfg, ep);
    }
    if let Some(fleet) = &spec.fleet {
        net.add_spawner(Box::new(fleet.build_spawner(
            spec.link_rate_bps,
            spec.duration_s,
            spec.seed,
        )));
    }
    run_and_collect(net, &[(handle, scheme)], steady_start_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimbus_transport::{CcKind, FixedSizeSource, PathInfo, SenderConfig};

    #[test]
    fn spec_builders_and_quick_scaling() {
        let spec = ScenarioSpec::default_96mbps(180.0);
        assert_eq!(spec.link_rate_bps, 96e6);
        assert_eq!(spec.schedule, LinkScheduleSpec::Constant);
        let quick = spec.clone().quick(true, 0.2);
        assert!((quick.duration_s - 36.0).abs() < 1e-9);
        let not_quick = spec.quick(false, 0.2);
        assert_eq!(not_quick.duration_s, 180.0);
    }

    #[test]
    fn schedule_specs_materialize_against_the_base_rate() {
        use nimbus_netsim::Time;
        let step = LinkScheduleSpec::Step {
            at_s: 10.0,
            factor: 0.5,
        };
        let s = step.to_schedule(96e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(5.0)), 96e6);
        assert_eq!(s.rate_at(Time::from_secs_f64(15.0)), 48e6);
        assert_eq!(step.label(), "step50@10");

        let sin = LinkScheduleSpec::Sinusoid {
            amplitude_frac: 0.25,
            period_s: 8.0,
        };
        let s = sin.to_schedule(48e6);
        assert_eq!(s.max_rate_bps(), 60e6);
        assert_eq!(s.min_rate_bps(), 36e6);
        assert_eq!(sin.label(), "sin25p8");

        let trace = LinkScheduleSpec::Trace {
            interval_s: 0.5,
            factors: vec![1.0, 0.25],
        };
        let s = trace.to_schedule(40e6);
        assert_eq!(s.rate_at(Time::from_millis(250)), 40e6);
        assert_eq!(s.rate_at(Time::from_millis(750)), 10e6);
        // Repeats.
        assert_eq!(s.rate_at(Time::from_millis(1250)), 40e6);
        assert_eq!(trace.label(), "trace2");
        assert_eq!(LinkScheduleSpec::Constant.label(), "const");
    }

    #[test]
    fn run_scheme_vs_cross_produces_metrics() {
        let spec = ScenarioSpec {
            duration_s: 15.0,
            ..ScenarioSpec::fig1_48mbps(15.0)
        };
        let cross: Vec<(FlowConfig, Box<dyn FlowEndpoint>)> = vec![(
            FlowConfig::cross("short", Time::from_millis(50), true).with_size(2_000_000),
            Box::new(Sender::new(
                SenderConfig::labelled("short"),
                CcKind::Cubic.build(&PathInfo::new(1500)),
                Box::new(FixedSizeSource::new(2_000_000)),
            )),
        )];
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), cross, 3.0);
        assert_eq!(out.flows.len(), 1);
        let m = &out.flows[0];
        assert_eq!(m.label, "cubic");
        assert!(m.mean_throughput_mbps > 20.0, "{}", m.mean_throughput_mbps);
        assert!(!m.throughput_series.is_empty());
        assert!(m.mean_rtt_ms > 40.0);
        // Non-Nimbus flows report a full delay-mode fraction and empty logs.
        assert_eq!(m.delay_mode_fraction, 1.0);
        assert!(m.mode_log.is_empty());
    }

    #[test]
    fn trace_file_schedules_load_and_label() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../traces/sample-cellular.mahimahi"
        );
        let spec = LinkScheduleSpec::TraceFile {
            path: path.to_string(),
        };
        let s = spec.to_schedule(48e6);
        // Absolute rates from the file: the 48 Mbit/s base does not scale them.
        assert!(s.max_rate_bps() < 20e6, "max {}", s.max_rate_bps());
        assert!(!s.is_constant());
        assert_eq!(spec.label(), "mm-sample-cellular");
    }

    #[test]
    #[should_panic(expected = "cannot load mahimahi trace")]
    fn missing_trace_file_panics_with_the_path() {
        LinkScheduleSpec::TraceFile {
            path: "/nonexistent/x.trace".to_string(),
        }
        .to_schedule(48e6);
    }

    #[test]
    fn named_trace_schedules_materialize_and_label() {
        let spec = LinkScheduleSpec::NamedTrace {
            name: "cellular".to_string(),
        };
        let s = spec.to_schedule(48e6);
        assert_eq!(s.rate_at(Time::ZERO), 48e6);
        assert!(!s.is_constant());
        assert_eq!(spec.label(), "trace-cellular");
    }

    #[test]
    #[should_panic(expected = "unknown built-in trace")]
    fn unknown_named_trace_panics_with_the_catalogue() {
        LinkScheduleSpec::NamedTrace {
            name: "bogus".to_string(),
        }
        .to_schedule(48e6);
    }

    #[test]
    fn spec_described_cross_flows_compete() {
        // A declarative heterogeneous scenario: monitored Cubic vs a paced
        // CBR scheme carried entirely by `ScenarioSpec::cross`.
        let spec: ScenarioSpec = "48M vs constant(24M) dur=15s".parse().unwrap();
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 5.0);
        let m = &out.flows[0];
        // The CBR flow holds its half, so Cubic lands near the other half.
        assert!(
            m.mean_throughput_mbps > 14.0 && m.mean_throughput_mbps < 30.0,
            "cubic got {} Mbit/s against a 24 Mbit/s CBR competitor",
            m.mean_throughput_mbps
        );
    }

    #[test]
    fn fleet_spec_labels_and_scaled_sizes() {
        let fleet = |s: &str| s.parse::<FleetSpec>().unwrap();
        assert_eq!(FleetSpec::poisson(0.5).label(), "fleet-poisson-l50");
        assert_eq!(
            fleet("fleet(arrivals=bursty,load=0.3,mean=50k,cc=reno)").label(),
            "fleet-bursty-l30-m50k-reno"
        );
        let sizes = fleet("fleet(load=0.5,mean=50k)").size_distribution();
        assert!(
            (sizes.mean_bytes() - 50_000.0).abs() < 1.0,
            "rescaled mean {}",
            sizes.mean_bytes()
        );
    }

    #[test]
    fn scenario_with_fleet_churns_and_retires() {
        let spec = ScenarioSpec {
            duration_s: 15.0,
            fleet: Some(FleetSpec::poisson(0.3)),
            ..ScenarioSpec::fig1_48mbps(15.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 5.0);
        // The fleet actually ran: many finite flows completed...
        let fcts = out.recorder.fct_stream();
        assert!(fcts.len() > 30, "only {} fleet completions", fcts.len());
        // ...and the monitored flow still got a usable share.
        let m = &out.flows[0];
        assert!(
            m.mean_throughput_mbps > 10.0,
            "cubic got {} Mbit/s under 30% churn",
            m.mean_throughput_mbps
        );
        let summary = out.recorder.fct_summary();
        assert_eq!(summary.all.count as usize, fcts.len());
        assert!(summary.mice.count > 0, "churn must include mice");
        assert!(summary.all.p50_s > 0.0);
    }

    #[test]
    fn l4s_scenario_marks_instead_of_dropping_for_dctcp() {
        let spec = ScenarioSpec {
            duration_s: 12.0,
            ecn: EcnSpec::l4s(),
            ..ScenarioSpec::fig1_48mbps(12.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::dctcp(), Vec::new(), 3.0);
        let marks: u64 = out.recorder.hop_marked_packets.iter().sum();
        let drops: u64 = out.recorder.hop_dropped_packets.iter().sum();
        assert!(marks > 100, "a 1 ms step marker should mark often: {marks}");
        assert_eq!(
            drops, 0,
            "DCTCP on an L4S queue should see marks, not drops"
        );
        let m = &out.flows[0];
        assert!(
            m.mean_throughput_mbps > 35.0,
            "dctcp should fill the 48 Mbit/s link, got {}",
            m.mean_throughput_mbps
        );
    }

    #[test]
    fn ecn_off_scenario_is_mark_free_for_every_flow() {
        let spec = ScenarioSpec {
            duration_s: 10.0,
            ..ScenarioSpec::fig1_48mbps(10.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::cubic(), Vec::new(), 3.0);
        assert!(out.recorder.hop_marked_packets.iter().all(|&m| m == 0));
    }

    #[test]
    fn nimbus_metrics_include_mode_log() {
        let spec = ScenarioSpec {
            duration_s: 12.0,
            ..ScenarioSpec::fig1_48mbps(12.0)
        };
        let out = run_scheme_vs_cross(&spec, SchemeSpec::nimbus(), Vec::new(), 3.0);
        let m = &out.flows[0];
        assert_eq!(m.label, "nimbus");
        assert!(!m.mode_log.is_empty());
        assert!(
            m.delay_mode_fraction > 0.5,
            "alone on the link Nimbus should stay in delay mode"
        );
    }
}
