//! The scenario itself — its cross traffic and fleet, its string form — and
//! the grammar reference.

use super::cross::{CrossSource, CrossSpec, CROSS, VIDEO};
use super::path::{
    builtin_trace_names, EcnSpec, HopSpec, LinkScheduleSpec, ECN_MODES, HOP, SCHEDULE_FORMS,
};
use crate::grammar::{
    self, duration, field_opt, fmt_duration, fmt_size, integer, key_value, parsed, positive,
    probability, split_call, split_top_level, Opt, ParseError,
};
use crate::scheme::{bare_schemes, NIMBUS};
use nimbus_netsim::{FlowConfig, FlowEndpoint, LinkConfig, Network, QueueKind, SimConfig, Time};
use nimbus_traffic::fleet::{ArrivalProcess, FleetSpawner, FleetWorkloadConfig};
use nimbus_traffic::FlowSizeDistribution;
use nimbus_transport::{format_rate_bps, MSS};
use std::fmt;
use std::str::FromStr;

/// An open-loop fleet workload riding on a scenario: a churning population
/// of finite Cubic flows (Poisson or bursty arrivals × heavy-tailed sizes)
/// offered at a fraction of the base link rate.  This is the
/// `arrivals=`/`load=` axis of the scenario grammar:
///
/// ```text
/// fleet(arrivals=poisson,load=0.5)
/// fleet(arrivals=bursty,load=0.3,mean=50k)
/// ```
///
/// Materialized into a [`FleetSpawner`] at network-build time; flows spawn
/// at their arrival instants and retire on completion, so the run only pays
/// for the concurrently active population.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Interarrival process (`arrivals=poisson|bursty`).
    pub arrivals: ArrivalProcess,
    /// Offered load as a fraction of the scenario's base link rate (`load=`).
    pub load: f64,
    /// Override the size distribution's mean flow size in bytes (`mean=`);
    /// `None` keeps the default CAIDA-like mixture (~100 kB mean).
    pub mean_flow_bytes: Option<f64>,
}

const ARRIVALS: &[(&str, ArrivalProcess)] = &[
    ("poisson", ArrivalProcess::Poisson),
    ("bursty", ArrivalProcess::Bursty),
];

/// The `fleet(…)` options.
const FLEET: &[Opt<FleetSpec>] = &[
    Opt {
        key: "arrivals",
        hint: || grammar::choices(ARRIVALS),
        slug: "",
        show: |fleet| {
            let (name, _) = ARRIVALS.iter().find(|(_, a)| *a == fleet.arrivals)?;
            Some(name.to_string())
        },
        set: |fleet, v| {
            fleet.arrivals = grammar::choice("arrivals", ARRIVALS, v)?;
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
        hint: || format!("<bytes, ≥ {MSS}>[k|M]"),
        slug: "",
        show: |fleet| fleet.mean_flow_bytes.as_ref().map(fmt_size),
        set: |fleet, v| {
            let mean = grammar::size("mean flow size", v)?;
            if mean < MSS as f64 {
                return Err(ParseError(format!(
                    "mean flow size `{v}` is below one segment ({MSS} B, the \
                     sender's MSS): the fleet would start load·µ/mean flows per second, each \
                     with its own sender; use mean=1.5k or more"
                )));
            }
            fleet.mean_flow_bytes = Some(mean);
            Ok(())
        },
    },
];

impl FleetSpec {
    /// A Poisson fleet at the given offered-load fraction, default sizes.
    pub fn poisson(load: f64) -> Self {
        FleetSpec {
            arrivals: ArrivalProcess::Poisson,
            load,
            mean_flow_bytes: None,
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

    /// Materialize the fleet against a scenario: arrivals over the whole run,
    /// offered load relative to `link_rate_bps`, workload seed derived from
    /// the scenario seed (distinct from the cross-flow controller seeds).
    pub fn build_spawner(&self, link_rate_bps: f64, duration_s: f64, seed: u64) -> FleetSpawner {
        FleetSpawner::new(FleetWorkloadConfig {
            offered_load_bps: self.load * link_rate_bps,
            arrivals: self.arrivals,
            sizes: self.size_distribution(),
            stop_s: duration_s,
            seed: seed.wrapping_mul(131).wrapping_add(29),
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
    /// Hops appended after the primary bottleneck, in path order (empty =
    /// the paper's single-bottleneck dumbbell).
    pub hops: Vec<HopSpec>,
    /// Static cross-traffic flows, added to the network after the monitored
    /// flows in list order.
    pub cross: Vec<CrossSpec>,
    /// Optional open-loop fleet workload churning alongside the monitored
    /// flow (installed as a spawner after every static flow).
    pub fleet: Option<FleetSpec>,
    /// ECN marking on the primary (hop-0) bottleneck (`ecn=` axis).  When
    /// enabled, every flow in the scenario negotiates ECN.
    pub ecn: EcnSpec,
}

/// An extra hop's buffer, seconds of its line rate.
const HOP_BUFFER_S: f64 = 0.1;

/// Propagation delay from the previous hop's output into an extra hop,
/// seconds.
const HOP_PROP_DELAY_S: f64 = 0.01;

/// The scenario's `key=value` options (`dur` is mandatory).
const SCENARIO: &[Opt<ScenarioSpec>] = &[
    field_opt!(
        "ecn",
        "",
        grammar::choices(ECN_MODES),
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
        probability,
        f64::to_string,
        loss_probability,
        0.0
    ),
    field_opt!("seed", "", "<n>", integer, u64::to_string, seed, required),
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
            hops: Vec::new(),
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

    /// The nominal bottleneck rate a configured-µ scheme should be handed:
    /// the minimum base rate over every hop of the path.  Equal to
    /// `link_rate_bps` for single-hop scenarios.
    pub fn nominal_mu_bps(&self) -> f64 {
        self.nominal_mu_over_hops(0, None)
    }

    /// The nominal bottleneck rate seen by a flow traversing hops
    /// `[enter, exit]` of the path (inclusive; `None` = the path's tail): the
    /// minimum base rate over exactly those hops.  Hop 0 is the primary
    /// bottleneck at `link_rate_bps`.
    pub fn nominal_mu_over_hops(&self, enter: usize, exit: Option<usize>) -> f64 {
        let last = exit.unwrap_or(self.hops.len()).min(self.hops.len());
        let mut mu = f64::INFINITY;
        for hop in enter..=last {
            let rate = if hop == 0 {
                self.link_rate_bps
            } else {
                self.hops[hop - 1].rate_factor * self.link_rate_bps
            };
            mu = mu.min(rate);
        }
        if mu.is_finite() {
            mu
        } else {
            self.link_rate_bps
        }
    }

    /// Build the simulator network for this spec.  Each extra hop is a
    /// drop-tail queue with `HOP_BUFFER_S` of buffering, `HOP_PROP_DELAY_S`
    /// downstream of the previous hop, and no ECN marking.
    pub fn build_network(&self) -> Network {
        let mut cfg = SimConfig::new(self.link_rate_bps, self.buffer_s, self.duration_s);
        cfg.seed = self.seed;
        cfg.path[0].schedule = self.schedule.to_schedule(self.link_rate_bps);
        if let Some(target) = self.pie_target_s {
            cfg.path[0].queue = QueueKind::Pie {
                target_delay_s: target,
            };
        }
        cfg.path[0].loss = self.loss_probability;
        cfg.path[0].ecn = self.ecn.to_marking();
        for hop in &self.hops {
            let base = hop.rate_factor * self.link_rate_bps;
            let link = LinkConfig::drop_tail(base, HOP_BUFFER_S)
                .with_schedule(hop.schedule.to_schedule(base))
                .with_prop_delay(Time::from_secs_f64(HOP_PROP_DELAY_S));
            cfg.path.push(link);
        }
        Network::new(cfg)
    }

    /// Lower the spec-described cross traffic, the one lowering of every
    /// [`CrossSpec`].  The conventions the pinned recorder fingerprints
    /// depend on live here: a flow is named `cbr-cross`, `poisson-cross` or
    /// `<label>-cross` (`-cross<i>` with more than one entry); a Poisson
    /// source draws from `seed·31+7+i` and a scheme's controller from
    /// `seed·67+11+i` unless the entry fixes its seed; a fraction-of-µ rate
    /// scales the base rate of the hop the flow enters at, and a scheme's µ
    /// is the minimum over the hops it traverses.
    pub(super) fn cross_flows(&self) -> Vec<(FlowConfig, Box<dyn FlowEndpoint>)> {
        let lower = |(i, cross): (usize, &CrossSpec)| {
            let tag = if self.cross.len() == 1 {
                "cross".to_string()
            } else {
                format!("cross{i}")
            };
            let seed =
                |mul: u64, add: u64| self.seed.wrapping_mul(mul).wrapping_add(add + i as u64);
            let (name, seed) = match cross.source {
                CrossSource::Cbr(_) => ("cbr".to_string(), 0),
                CrossSource::Poisson(_) => ("poisson".to_string(), seed(31, 7)),
                CrossSource::Video(_) => (cross.label(), 0),
                CrossSource::Scheme(_) => (cross.label(), seed(67, 11)),
            };
            let (enter, exit) = cross.hops.map_or((0, None), |(a, b)| (a, Some(b)));
            let mu = |exit| self.nominal_mu_over_hops(enter, exit);
            let label = format!("{name}-{tag}");
            cross.flow(&label, mu(Some(enter)), mu(exit), seed, self.duration_s)
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
                self.hops.push(token.parse()?);
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
            if let Some((_, exit)) = cross.hops {
                if exit > self.hops.len() {
                    return Err(ParseError(format!(
                        "cross flow `{cross}` exits at hop {exit} but the path has {} hop(s)",
                        1 + self.hops.len()
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
        for hop in &self.hops {
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
entry     := <flow>[@hop<enter>-<exit>][@<key>=<value>,…] | fleet(<key>=<value>,…)
             keys: {cross}
             fleet keys: {fleet}
flow      := cbr@<load> | poisson@<load> | video({video}) | <scheme>
load      := <fraction of the entry hop's µ> | <rate>
scheme    := {bare}
           | nimbus | nimbus(<key>=<value>,…)
             keys: {nimbus}
units     := <rate> 48M (k|M|G bit/s), <dur> 5ms | 40s, <bytes> 50k (k|M)",
        scenario = grammar::expected(SCENARIO),
        traces = builtin_trace_names(),
        hop = grammar::expected(HOP),
        cross = grammar::expected(CROSS),
        fleet = grammar::expected(FLEET),
        video = grammar::choices(VIDEO),
        nimbus = grammar::expected(NIMBUS),
        bare = bare_schemes(),
    )
}
