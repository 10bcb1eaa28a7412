//! The path a scenario's packets cross: the rate schedule, ECN marking and
//! the hops after the primary bottleneck.

use crate::grammar::{
    self, duration, field_opt, fmt_duration, instant, key_value, parsed, positive, split_call,
    split_top_level, Opt, ParseError,
};
use nimbus_netsim::schedule::MIN_SEGMENT;
use nimbus_netsim::{EcnMarking, RateSchedule, Time};
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
        /// `(time_s, factor_of_base)` transitions, times strictly increasing
        /// (the parser checks; the schedule is a sorted table).
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
    /// One of the curated built-in traces shipped with the simulator.
    NamedTrace(BuiltinTrace),
    /// An external Mahimahi-format packet-delivery trace.  Unlike every
    /// other family the trace carries *absolute* rates — the scenario's base
    /// rate does not scale it (it still sizes delay-specified buffers and is
    /// handed to configured-µ schemes as the nominal rate).
    TraceFile(LoadedTrace),
}

/// The curated built-in traces, `(name, interval_s, factors-of-base)`:
/// `trace-<name>` applies each factor of the base rate for `interval_s`,
/// repeating.
///
/// * `cellular` — LTE-like: large swings (0.15–1.5× base) with deep fades,
///   500 ms granularity, repeating every 16 s.
/// * `wifi` — moderate variation (0.55–1.2× base) with occasional dips from
///   contention, 200 ms granularity, repeating every 4.8 s.
/// * `step-outage` — nominal rate with a 2-second near-outage (0.02×) and a
///   staged recovery, 1 s granularity, repeating every 16 s.
pub const BUILTIN_TRACES: &[(&str, f64, &[f64])] = &[
    (
        "cellular",
        0.5,
        &[
            1.0, 1.2, 0.9, 0.5, 0.3, 0.15, 0.4, 0.8, 1.1, 1.5, 1.3, 0.7, 0.45, 0.25, 0.6, 1.0, 1.4,
            1.1, 0.8, 0.35, 0.2, 0.55, 0.9, 1.2, 1.0, 0.65, 0.4, 0.85, 1.3, 1.5, 1.1, 0.75,
        ],
    ),
    (
        "wifi",
        0.2,
        &[
            1.0, 1.1, 1.2, 1.0, 0.9, 1.1, 0.7, 0.6, 1.0, 1.2, 1.1, 0.95, 0.8, 0.55, 0.9, 1.15,
            1.05, 1.0, 0.85, 0.7, 1.1, 1.2, 0.95, 0.65,
        ],
    ),
    (
        "step-outage",
        1.0,
        &[
            1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.02, 0.02, 0.3, 0.6, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
        ],
    ),
];

/// The names in [`BUILTIN_TRACES`], for error text and [`grammar_reference`].
///
/// [`grammar_reference`]: super::grammar_reference
pub(super) fn builtin_trace_names() -> String {
    let names: Vec<&str> = BUILTIN_TRACES.iter().map(|&(name, ..)| name).collect();
    names.join(", ")
}

/// A trace of [`BUILTIN_TRACES`]; only [`BuiltinTrace::named`] makes one.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltinTrace {
    name: &'static str,
    interval_s: f64,
    factors: &'static [f64],
}

impl BuiltinTrace {
    /// The built-in trace called `name`, or an error listing the catalogue.
    pub fn named(name: &str) -> Result<Self, ParseError> {
        let &(name, interval_s, factors) = BUILTIN_TRACES
            .iter()
            .find(|&&(known, ..)| known == name)
            .ok_or_else(|| {
                ParseError(format!(
                    "unknown built-in trace `{name}` (available: {})",
                    builtin_trace_names()
                ))
            })?;
        Ok(BuiltinTrace {
            name,
            interval_s,
            factors,
        })
    }
}

/// A Mahimahi trace file, read and parsed once when the spec is made: only
/// [`LoadedTrace::load`] makes one.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedTrace {
    path: String,
    schedule: RateSchedule,
}

impl LoadedTrace {
    /// Read and parse the trace file at `path`.
    pub fn load(path: &str) -> Result<Self, ParseError> {
        let schedule = RateSchedule::from_mahimahi_file(path)
            .map_err(|e| ParseError(format!("cannot load mahimahi trace: {e}")))?;
        Ok(LoadedTrace {
            path: path.to_string(),
            schedule,
        })
    }
}

impl LinkScheduleSpec {
    /// Materialize the schedule against a concrete base rate.
    pub fn to_schedule(&self, base_bps: f64) -> RateSchedule {
        let trace = |interval_s: f64, factors: &[f64]| {
            let rates = factors.iter().map(|f| f * base_bps).collect();
            RateSchedule::trace(Time::from_secs_f64(interval_s), rates)
        };
        match self {
            LinkScheduleSpec::Constant => RateSchedule::constant(base_bps),
            LinkScheduleSpec::Step { at_s, factor } => {
                RateSchedule::step(base_bps, Time::from_secs_f64(*at_s), factor * base_bps)
            }
            LinkScheduleSpec::Steps { steps } => RateSchedule::steps(
                base_bps,
                steps
                    .iter()
                    .map(|&(t_s, f)| (Time::from_secs_f64(t_s), f * base_bps))
                    .collect(),
            ),
            LinkScheduleSpec::Sinusoid {
                amplitude_frac,
                period_s,
            } => RateSchedule::sinusoid(base_bps, *amplitude_frac, Time::from_secs_f64(*period_s)),
            LinkScheduleSpec::Trace {
                interval_s,
                factors,
            } => trace(*interval_s, factors),
            LinkScheduleSpec::NamedTrace(named) => trace(named.interval_s, named.factors),
            LinkScheduleSpec::TraceFile(file) => file.schedule.clone(),
        }
    }
}

/// The schedule forms, for error text and [`grammar_reference`].
pub(super) const SCHEDULE_FORMS: &str = "const | step(<at>,<factor>) | steps(<at>=<factor>,…) \
    | sin(<amplitude>,<period>) | trace(<interval>,<factor>,…) | trace-<name> | mm(<path>)";

impl fmt::Display for LinkScheduleSpec {
    /// The canonical re-parseable form; factors and amplitudes are fractions
    /// of the base rate.
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
            LinkScheduleSpec::NamedTrace(trace) => write!(f, "trace-{}", trace.name),
            LinkScheduleSpec::TraceFile(trace) => write!(f, "mm({})", trace.path),
        }
    }
}

impl FromStr for LinkScheduleSpec {
    type Err = ParseError;

    /// Parse a schedule.  Named traces are looked up in the built-in
    /// catalogue and trace files are loaded here, once.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some(name) = s.strip_prefix("trace-") {
            return BuiltinTrace::named(name).map(LinkScheduleSpec::NamedTrace);
        }
        let (head, inner) = split_call(s)?;
        if let ("mm", Some(path)) = (head, inner) {
            return LoadedTrace::load(path).map(LinkScheduleSpec::TraceFile);
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
                // The schedule is a table sorted by time, and of two steps
                // at one time only the later would ever take effect.
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
                let interval_s = duration("trace interval", interval)?;
                if Time::from_secs_f64(interval_s) < MIN_SEGMENT {
                    return Err(ParseError(format!(
                        "trace interval `{interval}` is below the shortest schedule \
                         segment, {}",
                        fmt_duration(&MIN_SEGMENT.as_secs_f64())
                    )));
                }
                let factors = factors.iter().map(|f| positive("trace factor", f));
                Ok(LinkScheduleSpec::Trace {
                    interval_s,
                    factors: factors.collect::<Result<_, _>>()?,
                })
            }
            _ => Err(ParseError(format!(
                "unknown schedule `{s}` (expected {SCHEDULE_FORMS})"
            ))),
        }
    }
}

/// The `ecn=` axis of the scenario grammar: whether — and how — the primary
/// bottleneck marks ECT packets instead of dropping them.
///
/// ```text
/// ecn=off            no marking (the default; ECN-capable flows are inert)
/// ecn=classic        RFC 3168-style marking at the AQM's drop points
/// ecn=l4s            L4S step marking at a 1 ms sojourn threshold (RFC 9331)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EcnSpec {
    /// No marking; ECT packets are treated exactly like NotEct ones.
    #[default]
    Off,
    /// Classic ECN: mark ECT packets where the queue would have dropped.
    Classic,
    /// L4S step marking at a 1 ms sojourn threshold.
    L4s,
}

/// The `ecn=` modes, canonical name first.
pub(super) const ECN_MODES: &[(&str, EcnSpec)] = &[
    ("off", EcnSpec::Off),
    ("none", EcnSpec::Off),
    ("classic", EcnSpec::Classic),
    ("ecn", EcnSpec::Classic),
    ("l4s", EcnSpec::L4s),
];

impl EcnSpec {
    /// Whether any marking is configured.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, EcnSpec::Off)
    }

    /// The netsim queue-level marking profile this spec materializes to.
    pub fn to_marking(&self) -> EcnMarking {
        match self {
            EcnSpec::Off => EcnMarking::None,
            EcnSpec::Classic => EcnMarking::Classic,
            EcnSpec::L4s => EcnMarking::Step,
        }
    }
}

impl fmt::Display for EcnSpec {
    /// Canonical re-parseable form: `off`, `classic` or `l4s`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, _) = ECN_MODES
            .iter()
            .find(|(_, mode)| mode == self)
            .expect("every mode is in ECN_MODES");
        f.write_str(name)
    }
}

impl FromStr for EcnSpec {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        grammar::choice("ecn mode", ECN_MODES, &s.trim().to_ascii_lowercase())
    }
}

/// One additional hop appended after the scenario's primary (hop-0)
/// bottleneck, described relative to the scenario's base `link_rate_bps` so
/// the same path shape can be swept across link rates.  Every extra hop is a
/// drop-tail queue without ECN marking, 100 ms of buffering and 10 ms of
/// upstream propagation
/// ([`ScenarioSpec::build_network`](crate::runner::ScenarioSpec::build_network)).
#[derive(Debug, Clone, PartialEq)]
pub struct HopSpec {
    /// The hop's base rate as a fraction of the scenario's `link_rate_bps`
    /// (< 1.0 makes this hop the path's bottleneck).
    pub rate_factor: f64,
    /// How the hop's rate moves over the run, materialized against
    /// `rate_factor·link_rate_bps`.
    pub schedule: LinkScheduleSpec,
}

/// The options after the rate factor in `hop(<factor>,…)`.
pub(super) const HOP: &[Opt<HopSpec>] = &[field_opt!(
    "sched",
    "",
    "<schedule>",
    parsed,
    LinkScheduleSpec::to_string,
    schedule,
    LinkScheduleSpec::Constant
)];

impl HopSpec {
    /// A constant-rate hop at `rate_factor·base`.
    pub fn constant(rate_factor: f64) -> Self {
        HopSpec {
            rate_factor,
            schedule: LinkScheduleSpec::Constant,
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
