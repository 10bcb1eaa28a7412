//! The path a scenario's packets cross: the rate schedule, ECN marking and
//! the hops after the primary bottleneck.

use crate::grammar::{
    self, duration, field_opt, fmt_duration, instant, key_value, parsed, positive, split_call,
    split_top_level, Opt, ParseError,
};
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
        /// (the parser checks; a step listed after a later one never applies).
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

/// A built-in trace that exists ([`RateSchedule::builtin_trace_factors`]);
/// only [`BuiltinTrace::named`] makes one.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltinTrace {
    name: String,
    interval_s: f64,
    factors: &'static [f64],
}

impl BuiltinTrace {
    /// The built-in trace called `name`, or an error listing the catalogue.
    pub fn named(name: &str) -> Result<Self, ParseError> {
        let (interval_s, factors) = RateSchedule::builtin_trace_factors(name).ok_or_else(|| {
            ParseError(format!(
                "unknown built-in trace `{name}` (available: {})",
                RateSchedule::builtin_trace_names().join(", ")
            ))
        })?;
        Ok(BuiltinTrace {
            name: name.to_string(),
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
            RateSchedule::trace(Time::from_secs_f64(interval_s), rates, true)
        };
        match self {
            LinkScheduleSpec::Constant => RateSchedule::constant(base_bps),
            LinkScheduleSpec::Step { at_s, factor } => {
                RateSchedule::step(base_bps, Time::from_secs_f64(*at_s), factor * base_bps)
            }
            LinkScheduleSpec::Steps { steps } => RateSchedule::Steps {
                initial_bps: base_bps,
                steps: steps
                    .iter()
                    .map(|&(t_s, f)| (Time::from_secs_f64(t_s), f * base_bps))
                    .collect(),
            },
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
            LinkScheduleSpec::NamedTrace(trace) => format!("trace-{}", trace.name),
            LinkScheduleSpec::TraceFile(trace) => {
                let stem = std::path::Path::new(&trace.path)
                    .file_stem()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_else(|| "file".to_string());
                format!("mm-{stem}")
            }
        }
    }
}

/// The schedule forms, for error text and [`grammar_reference`].
pub(super) const SCHEDULE_FORMS: &str = "const | step(<at>,<factor>) | steps(<at>=<factor>,…) \
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

/// The L4S step-marking threshold: the queue sojourn above which every ECT
/// packet is marked, seconds (RFC 9331's recommended 1 ms).
const L4S_STEP_THRESHOLD_S: f64 = 0.001;

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
            EcnSpec::L4s => EcnMarking::Step {
                threshold_s: L4S_STEP_THRESHOLD_S,
            },
        }
    }

    /// A short slug for cell names: empty when off, `-ecn` or `-l4s`.
    pub fn label(&self) -> String {
        match self {
            EcnSpec::Off => String::new(),
            EcnSpec::Classic => "-ecn".to_string(),
            EcnSpec::L4s => "-l4s".to_string(),
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
