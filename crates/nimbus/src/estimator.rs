//! Cross-traffic rate estimation (Eq. 1 of the paper) and the µ estimate it
//! rests on.
//!
//! # The estimate
//!
//! With a known bottleneck rate `µ`, a busy bottleneck queue and FIFO
//! service, the share of the link a flow receives equals its share of the
//! arriving traffic, so
//!
//! ```text
//! R/µ = S / (S + z)        ⇒        ẑ = µ·S/R − S
//! ```
//!
//! where `S` and `R` are the flow's send and receive rates measured over the
//! *same* window of packets (Eq. 2; the sender machinery provides them via
//! the CCP-style [`Report`]).  The estimator also keeps the last window of
//! `(t, ẑ)` samples behind the controller's window means and offline
//! analysis; the elasticity detector keeps its own window, fed one
//! conditioned sample per report.  Nothing here grows with the connection's
//! lifetime: a learned µ̂ leaves as one sample per report
//! ([`CrossTrafficEstimator::mu_sample`], published to the host through
//! [`crate::Publisher::on_mu_sample`]), and a host that wants the series
//! records it.
//!
//! # Where µ comes from
//!
//! Everything above is only as good as the µ estimate.  §4.2 of the paper
//! sketches *one* way to obtain µ when it is not configured — a BBR-style
//! windowed max filter over the receive rate — but that has known failure
//! modes (see below), so [`MuSpec`] selects one of three sources,
//! all held by the one [`CrossTrafficEstimator`]:
//!
//! | source | spec grammar | behaviour |
//! |---|---|---|
//! | configured | `mu=configured` | trust the provisioned link rate |
//! | max filter | `mu=learned` | §4.2 windowed max of `R` over 10 s, each input capped at 25% growth |
//! | probing | `mu=learned(probe=…)` | the max filter plus periodic probe-up epochs (optionally auto-quiesced via `quiesce=`), a loss-informed µ̂ floor and a delivery-informed pace cap |
//!
//! **Which estimator when?**
//!
//! * `configured` — the link rate is known and stable (the paper's main
//!   evaluation).  Exact ẑ, no failure modes; wrong µ by ±25% degrades the
//!   detector gracefully (§4.2, Fig. 21).
//! * `learned` — unknown but *stable* links.  On strongly-varying links the
//!   filter rides the upper envelope of µ(t), and the µ̂ error feeds the
//!   flow's own pulse back into ẑ (pair it with a [`ZFilterConfig`]); after
//!   a deep rate fade the filter can deadlock at the pacing floor (µ̂ ≈
//!   recv rate ≈ pace, nothing ever probes above it).
//! * `learned(probe=…)` — unknown *and* varying links (cellular).  The probe
//!   epochs break the µ̂/pace/recv-rate fixed point the way BBR's
//!   PROBE_BW cycle does, and the loss floor keeps µ̂ from collapsing when a
//!   fade empties the max-filter window.
//!
//! The ẑ-conditioning stage ([`ZFilterConfig`]) is the estimation layer's
//! other half: it filters or re-thresholds the ẑ series the detector
//! consumes, compensating for *known* µ̂ error structure (a notch at the
//! link's variation frequency, or an uncertainty-scaled η threshold).

use crate::ccp::Report;
use nimbus_dsp::{Biquad, WindowedMax, WindowedMin};
use std::collections::VecDeque;

/// Per-report growth cap on the learned-µ filter input.  A cumulative-ACK
/// jump after loss recovery can report a one-tick receive rate several times
/// the true link rate; feeding that raw into the 10-second max filter poisons
/// µ̂ for a full window.  Capping each update at 25% above the current
/// estimate rejects such one-report artifacts while a genuine rate increase
/// still converges exponentially (10× in ~10 reports, i.e. ~100 ms at the
/// CCP tick).
const MU_GROWTH_CAP: f64 = 1.25;

/// Length of the learned-µ max-filter window, seconds (§4.2).
const MU_WINDOW_S: f64 = 10.0;

/// Length of each probe-up epoch, seconds.  A quarter second every second
/// recovers ~14 Mbit/s on the cellular deep-fade trace, where 3-second
/// epochs leave half of every fade's aftermath unprobed.
const PROBE_DURATION_S: f64 = 0.25;

/// Multiplicative decay applied to the loss floor while losses are
/// reported (at most once per [`BACKOFF_INTERVAL_S`]).
const LOSS_BACKOFF: f64 = 0.7;

/// Minimum spacing between loss-floor decays, seconds (a single loss
/// episode spans many 10 ms report ticks; decaying per tick would erase the
/// floor in under a second).
const BACKOFF_INTERVAL_S: f64 = 0.5;

/// Window of the short delivery filter behind the pace cap, seconds.
const RECENT_WINDOW_S: f64 = 1.5;

/// Cruise pace cap as a multiple of the recent delivery rate: outside probe
/// epochs the controller may not pace further above what the link recently
/// delivered (BBR's cruise/probe separation).
const CAP_MARGIN: f64 = 1.25;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// The settable parameters of `mu=learned(probe=…)`: the §4.2 max filter
/// augmented with BBR-style probe-up epochs and a loss-informed µ̂ floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbingConfig {
    /// Seconds between probe-up epochs.
    pub probe_interval_s: f64,
    /// Pacing-rate multiplier applied during a probe epoch (> 1).
    pub probe_gain: f64,
    /// Probe auto-quiesce: skip probe-up epochs (and their ẑ
    /// sample-and-hold) while [`CrossTrafficEstimator::mu_uncertainty`]
    /// sits below this floor.  On a stable link the max filter converges
    /// and every probe after that point only perturbs ẑ for nothing;
    /// quiescing hands the detector an uninterrupted signal until the
    /// uncertainty rises again (a fade re-widens the filter spread and
    /// probing resumes).  `0.0` — the default — disables quiescing: probes
    /// run on schedule forever.
    pub quiesce_uncertainty_floor: f64,
}

impl Default for ProbingConfig {
    /// Probe every second at 2× pace, never quiesced.
    fn default() -> Self {
        ProbingConfig {
            probe_interval_s: 1.0,
            probe_gain: 2.0,
            quiesce_uncertainty_floor: 0.0,
        }
    }
}

impl ProbingConfig {
    /// Why this configuration cannot run, if it cannot: the spec parser's
    /// error text and the estimator's panic message.
    pub fn check(&self) -> Result<(), String> {
        if !(self.probe_interval_s.is_finite() && self.probe_gain.is_finite()) {
            Err(format!(
                "probe interval {} s and probe gain {} must be finite numbers",
                self.probe_interval_s, self.probe_gain
            ))
        } else if self.probe_interval_s <= 2.0 * PROBE_DURATION_S {
            Err(format!(
                "probe interval {} s must exceed {} s: each {PROBE_DURATION_S} s probe epoch \
                 and its equal-length drain (during which ẑ is held) must fit inside it, \
                 or the hold never releases and the detector's input freezes",
                self.probe_interval_s,
                2.0 * PROBE_DURATION_S
            ))
        } else if self.probe_gain <= 1.0 {
            Err(format!(
                "probe gain {} must exceed 1 (a probe paces *above* the base rate)",
                self.probe_gain
            ))
        } else if !(0.0..1.0).contains(&self.quiesce_uncertainty_floor) {
            Err(format!(
                "quiesce floor {} is compared against the µ̂ uncertainty in [0, 1) — \
                 1 or above would quiesce probing unconditionally",
                self.quiesce_uncertainty_floor
            ))
        } else {
            Ok(())
        }
    }
}

/// How µ is *learned* when it is not configured: the `mu=learned(...)`
/// axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LearnedMuConfig {
    /// The §4.2 windowed max filter over the receive rate (`mu=learned`).
    #[default]
    MaxFilter,
    /// Max filter + probe-up epochs + loss floor (`mu=learned(probe=…)`).
    Probing(ProbingConfig),
}

/// Where the bottleneck rate µ comes from: configured up front (the rate is
/// `NimbusConfig::mu_bps`), or learned at runtime (§4.2 and beyond).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MuSpec {
    /// µ is provisioned up front (`mu=configured`, the paper's default).
    #[default]
    Configured,
    /// µ is learned at runtime (`mu=learned`, `mu=learned(probe=…)`).
    Learned(LearnedMuConfig),
}

impl MuSpec {
    /// The classic §4.2 max-filter learned µ (`mu=learned`).
    pub fn learned() -> Self {
        MuSpec::Learned(LearnedMuConfig::default())
    }

    /// Whether µ is learned at runtime.
    pub fn is_learned(&self) -> bool {
        matches!(self, MuSpec::Learned(_))
    }
}

/// ẑ conditioning between the estimator and the detector: compensates for
/// *known* structure in the µ̂ error instead of letting it masquerade as
/// cross traffic.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ZFilterConfig {
    /// Hand the raw ẑ series to the detector (the paper's pipeline).
    #[default]
    None,
    /// Notch-filter ẑ at the link's known rate-variation frequency before
    /// the FFT, removing the µ̂-error swing (and its spectral leakage) that a
    /// time-varying bottleneck injects.
    Notch {
        /// Centre frequency of the notch — the link's variation frequency, Hz.
        freq_hz: f64,
    },
    /// Scale the detector's η threshold and minimum-peak guard with the
    /// estimator's relative µ̂ uncertainty: when µ̂ is shaky, the flow's own
    /// pulse leaks into ẑ with amplitude proportional to the µ̂ error, and
    /// the detection bar must rise with it.
    Adaptive,
}

// ---------------------------------------------------------------------------
// The estimator
// ---------------------------------------------------------------------------

/// Where µ̂ comes from, with the state behind it.
#[derive(Debug, Clone)]
enum MuSource {
    /// The provisioned link rate, bits/s.
    Configured(f64),
    /// The §4.2 windowed max over the capped receive rate.
    Learned {
        filter: WindowedMax,
        /// Windowed min over the same capped inputs; feeds
        /// [`CrossTrafficEstimator::mu_uncertainty`] only and never touches
        /// µ̂ itself.
        min_tracker: WindowedMin,
        /// The probe-up epochs, loss floor and pace cap of
        /// `mu=learned(probe=…)`.
        probing: Option<Probing>,
    },
}

/// `mu=learned(probe=…)` on top of the max filter: two mechanisms from the
/// BBR/loss-fallback playbook, for the cellular deep-fade failure.
///
/// * **Probe-up epochs** — every `probe_interval_s` the controller (via
///   [`CrossTrafficEstimator::pace_gain`]) paces at `probe_gain`× for
///   [`PROBE_DURATION_S`].  A pure max filter can never observe a rate above
///   what the pacer already sends, so after µ̂ collapses the system sits at a
///   fixed point (µ̂ ≈ recv rate ≈ pace); the epoch breaks it exactly the
///   way BBR's PROBE_BW up-phase does.
/// * **Loss-informed µ̂ floor** — the highest receive rate observed on a
///   loss-free report, decayed by [`LOSS_BACKOFF`] (at most once per
///   [`BACKOFF_INTERVAL_S`]) while losses are being reported.  A deep fade
///   empties the 10-second max window of every pre-fade sample; the floor
///   remembers what the link recently sustained *without* loss so µ̂
///   re-expands from megabits, not from the pacing floor.
#[derive(Debug, Clone)]
struct Probing {
    cfg: ProbingConfig,
    /// Short-window max over the raw receive rate: the "what did the link
    /// deliver lately" evidence behind [`CrossTrafficEstimator::pace_cap_bps`].
    recent: WindowedMax,
    /// Highest loss-free receive rate, decayed on loss (bits/s).
    loss_floor_bps: f64,
    /// Time of the last loss-floor decay, seconds.
    last_backoff_s: f64,
}

impl Probing {
    fn new(cfg: ProbingConfig) -> Self {
        if let Err(e) = cfg.check() {
            panic!("{e}");
        }
        Probing {
            cfg,
            recent: WindowedMax::new(RECENT_WINDOW_S),
            loss_floor_bps: 0.0,
            last_backoff_s: f64::NEG_INFINITY,
        }
    }

    /// Whether a probe-up epoch is active at `now_s`.  The schedule is a
    /// deterministic function of simulation time: the first epoch starts at
    /// `probe_interval_s` (never in the FFT warm-up) and one runs every
    /// interval after that.
    fn probing_at(&self, now_s: f64) -> bool {
        now_s >= self.cfg.probe_interval_s && now_s % self.cfg.probe_interval_s < PROBE_DURATION_S
    }

    /// Whether `now_s` falls in a probe epoch *or* its drain interval (one
    /// extra epoch length for the queue the probe built to empty).
    fn settling_at(&self, now_s: f64) -> bool {
        now_s >= self.cfg.probe_interval_s
            && now_s % self.cfg.probe_interval_s < 2.0 * PROBE_DURATION_S
    }

    /// React to a report that carries losses.
    fn on_loss(&mut self, report: &Report) {
        if report.now_s - self.last_backoff_s >= BACKOFF_INTERVAL_S {
            self.loss_floor_bps *= LOSS_BACKOFF;
            self.last_backoff_s = report.now_s;
        }
        // Losses mean the link stopped carrying what it recently did: drop
        // the delivery evidence behind the pace cap on the spot, so the
        // cruise rate falls to *current* delivery within a report instead of
        // riding crest samples up to `RECENT_WINDOW_S` old into the fade
        // (the overshoot that drops whole flights and wedges the transport
        // in RTO backoff).  The max filter and the loss floor keep their
        // slow dynamics — only the cap reacts instantly.  Re-seeding with
        // this report's delivery keeps the filter non-empty: an *empty*
        // filter would return no cap at all, un-capping the pace at the
        // exact moment the link is faltering.
        self.recent.reset();
        self.recent
            .update(report.now_s, report.recv_rate_bps.max(0.0));
    }
}

/// The capped filter input for this report: the receive rate clamped to 25%
/// above the current estimate (or above the send rate when no estimate
/// exists yet — over the same packet window R can only exceed S through
/// bounded queue-drain compression, so a first sample several times S is
/// the same ACK-compression artifact the growth cap rejects).
fn capped_input(current: f64, report: &Report) -> f64 {
    let cap = if current > 0.0 {
        current * MU_GROWTH_CAP
    } else if report.send_rate_bps > 0.0 {
        report.send_rate_bps * MU_GROWTH_CAP
    } else {
        f64::INFINITY
    };
    report.recv_rate_bps.min(cap)
}

/// Cross-traffic rate estimator: Eq. 1 evaluated on every report against
/// the µ̂ of its [`MuSpec`], plus the optional streaming ẑ pre-filter of
/// [`ZFilterConfig::Notch`].  Its memory is bounded: the ẑ samples of the
/// last `history_window_s` and the µ filters' windows, no per-report log.
#[derive(Debug, Clone)]
pub struct CrossTrafficEstimator {
    /// Where µ̂ comes from.
    mu: MuSource,
    /// `(t_s, ẑ)` history, oldest first, bounded to `history_window_s`.
    samples: VecDeque<(f64, f64)>,
    history_window_s: f64,
    /// Whether the latest report fed the learned µ (see [`Self::mu_sample`]).
    mu_sampled: bool,
    /// Streaming notch over the ẑ samples (None = raw ẑ to the detector).
    z_prefilter: Option<Biquad>,
    /// `(t_s, filtered ẑ)` history, maintained only when a pre-filter is set.
    filtered: VecDeque<(f64, f64)>,
    /// Whether the probe epochs are actually being paced right now (the
    /// controller pauses probing outside delay mode).  Gates the ẑ
    /// sample-and-hold: holding samples for epochs that never ran would
    /// blank half the detector's input for nothing.
    probing_paced: bool,
}

impl CrossTrafficEstimator {
    /// An estimator with a known (configured) bottleneck rate.
    ///
    /// # Panics
    /// Panics if `mu_bps` is not positive.
    pub fn with_known_mu(mu_bps: f64, history_window_s: f64) -> Self {
        assert!(mu_bps > 0.0, "µ must be positive");
        Self::from_source(MuSource::Configured(mu_bps), history_window_s)
    }

    /// An estimator that learns µ as `learned` says.
    ///
    /// # Panics
    /// Panics on a probing configuration that fails [`ProbingConfig::check`].
    pub fn learning(learned: LearnedMuConfig, history_window_s: f64) -> Self {
        let source = MuSource::Learned {
            filter: WindowedMax::new(MU_WINDOW_S),
            min_tracker: WindowedMin::new(MU_WINDOW_S),
            probing: match learned {
                LearnedMuConfig::MaxFilter => None,
                LearnedMuConfig::Probing(p) => Some(Probing::new(p)),
            },
        };
        Self::from_source(source, history_window_s)
    }

    fn from_source(mu: MuSource, history_window_s: f64) -> Self {
        CrossTrafficEstimator {
            mu,
            samples: VecDeque::new(),
            history_window_s,
            mu_sampled: false,
            z_prefilter: None,
            filtered: VecDeque::new(),
            probing_paced: true,
        }
    }

    /// Install (or remove) the streaming ẑ pre-filter consulted by the
    /// detector.  Must be set before samples arrive: the filter's state is
    /// continuous across the whole run.
    pub fn set_z_prefilter(&mut self, filter: Option<Biquad>) {
        self.z_prefilter = filter;
        self.filtered.clear();
    }

    /// The bottleneck rate currently in use (`0.0` until a learned µ has
    /// seen a report).
    pub fn mu_bps(&self) -> f64 {
        match &self.mu {
            MuSource::Configured(mu_bps) => *mu_bps,
            MuSource::Learned {
                filter, probing, ..
            } => {
                let max = filter.max().unwrap_or(0.0);
                match probing {
                    Some(p) => max.max(p.loss_floor_bps),
                    None => max,
                }
            }
        }
    }

    /// Relative uncertainty of µ̂ in `[0, 1]`: roughly "by what fraction has
    /// the observed receive rate strayed below µ̂ over the filter window".
    /// `0.0` when µ is configured.  Consumed by [`ZFilterConfig::Adaptive`]
    /// and the probing quiesce floor.
    pub fn mu_uncertainty(&self) -> f64 {
        let MuSource::Learned { min_tracker, .. } = &self.mu else {
            return 0.0;
        };
        let mu = self.mu_bps();
        match min_tracker.min() {
            Some(min) if mu > 0.0 => ((mu - min) / mu).clamp(0.0, 1.0),
            _ => 0.0,
        }
    }

    /// The probing state, unless µ is not probed or probing is auto-quiesced
    /// right now: a non-zero floor is configured and the current µ̂
    /// uncertainty sits below it.  Evaluated fresh on every call, so probing
    /// resumes by itself the moment the filter spread re-widens (e.g. after
    /// a fade).
    fn active_probing(&self) -> Option<&Probing> {
        let MuSource::Learned {
            probing: Some(p), ..
        } = &self.mu
        else {
            return None;
        };
        let floor = p.cfg.quiesce_uncertainty_floor;
        let quiesced = floor > 0.0 && self.mu_uncertainty() < floor;
        (!quiesced).then_some(p)
    }

    /// Pacing-rate multiplier the controller should apply at `now_s`: > 1
    /// during a probe-up epoch, 1 otherwise.  This is the estimator's lever
    /// for breaking µ̂/pace/recv-rate fixed points: a max filter can only
    /// ever confirm the rate the pacer already allows.
    pub fn pace_gain(&self, now_s: f64) -> f64 {
        match self.active_probing() {
            Some(p) if p.probing_at(now_s) => p.cfg.probe_gain,
            _ => 1.0,
        }
    }

    /// An upper bound on the cruise pacing rate, bits/s (`None` unless µ is
    /// probed).  A rate-based delay controller driven by a stale or nominal
    /// µ paces straight into a rate fade, melts the queue down and wedges
    /// the transport in RTO backoff; a delivery-informed cap bounds the
    /// overdrive to what the link recently proved it can carry, leaving the
    /// probe epochs as the one sanctioned way to pace above it.
    pub fn pace_cap_bps(&self) -> Option<f64> {
        match &self.mu {
            MuSource::Learned {
                probing: Some(p), ..
            } => p.recent.max().map(|r| r * CAP_MARGIN),
            _ => None,
        }
    }

    /// Tell the estimator whether the probe epochs are actually reaching the
    /// pacer (the controller pauses probing outside delay mode).  While
    /// paused, ẑ samples are recorded normally — there is no self-inflicted
    /// burst to blank out.
    pub fn set_probing_paced(&mut self, paced: bool) {
        self.probing_paced = paced;
    }

    /// Estimate ẑ from send and receive rates (Eq. 1), clamped to `[0, µ]`.
    pub fn estimate(&self, send_rate_bps: f64, recv_rate_bps: f64) -> Option<f64> {
        let mu = self.mu_bps();
        if mu <= 0.0 || send_rate_bps <= 0.0 || recv_rate_bps <= 0.0 {
            return None;
        }
        let z = mu * send_rate_bps / recv_rate_bps - send_rate_bps;
        Some(z.clamp(0.0, mu))
    }

    /// Feed one report to the learned µ, if µ is learned.  Returns whether
    /// µ̂ took a sample: µ is learned and the report has a receive rate.
    fn learn_mu(&mut self, report: &Report) -> bool {
        let MuSource::Learned {
            filter,
            min_tracker,
            probing,
        } = &mut self.mu
        else {
            return false;
        };
        if report.lost_packets > 0 {
            if let Some(p) = probing.as_mut() {
                p.on_loss(report);
            }
        }
        if report.recv_rate_bps <= 0.0 {
            return false;
        }
        let current = filter.max().unwrap_or(0.0);
        let input = capped_input(current, report);
        filter.update(report.now_s, input);
        min_tracker.update(report.now_s, input);
        if let Some(p) = probing {
            p.recent.update(report.now_s, report.recv_rate_bps);
            if report.lost_packets == 0 {
                p.loss_floor_bps = p.loss_floor_bps.max(input);
            }
        }
        true
    }

    /// Ingest a measurement report; returns the new ẑ sample, bits/s, if one
    /// was produced.  The returned sample is the *raw* Eq. 1 estimate (what
    /// a rate controller consuming ẑ should see); the stored history that
    /// the detector reads is sample-and-held through probe epochs (the
    /// epoch's pacing burst is self-inflicted, not cross traffic, and its
    /// square edge floods the detector's comparison band).
    pub fn on_report(&mut self, report: &Report) -> Option<f64> {
        self.mu_sampled = self.learn_mu(report);
        let raw_z = self.estimate(report.send_rate_bps, report.recv_rate_bps)?;
        // A quiesced epoch never paced above 1x, so there is nothing to hold
        // ẑ over — holding anyway would blank the detector's input on the
        // exact schedule quiescing exists to protect.
        let held = self.probing_paced
            && self
                .active_probing()
                .is_some_and(|p| p.settling_at(report.now_s));
        let held_z = match self.samples.back() {
            Some(&(_, last_z)) if held => last_z,
            _ => raw_z,
        };
        let window_s = self.history_window_s;
        push_windowed(&mut self.samples, (report.now_s, held_z), window_s);
        if let Some(filter) = &mut self.z_prefilter {
            let filtered_z = filter.process(held_z);
            push_windowed(&mut self.filtered, (report.now_s, filtered_z), window_s);
        }
        Some(raw_z)
    }

    /// µ̂ after the latest report, if that report fed the learned µ: µ is
    /// learned and the report carried a positive receive rate.  `None` when
    /// µ is configured.  One such sample per report is the µ-tracking series;
    /// the estimator keeps none of them (a host records them from
    /// [`crate::Publisher::on_mu_sample`]).
    pub fn mu_sample(&self) -> Option<f64> {
        self.mu_sampled.then(|| self.mu_bps())
    }

    /// The ẑ series (bits/s) covering at most the last `window_s` seconds,
    /// oldest first — the input to the detector's batch path.
    pub fn z_series(&self, window_s: f64) -> Vec<f64> {
        let Some(&(latest, _)) = self.samples.back() else {
            return Vec::new();
        };
        self.samples
            .iter()
            .filter(|(t, _)| latest - t <= window_s)
            .map(|&(_, z)| z)
            .collect()
    }

    /// The `(t_s, ẑ)` history the detector consumes: notch-filtered when a
    /// [`ZFilterConfig::Notch`] stage is installed, the stored one otherwise.
    fn conditioned(&self) -> &VecDeque<(f64, f64)> {
        match &self.z_prefilter {
            Some(_) => &self.filtered,
            None => &self.samples,
        }
    }

    /// The ẑ sample the *detector* should consume for the latest report: the
    /// stored one — sample-and-held through probe epochs, and notch-filtered
    /// when a [`ZFilterConfig::Notch`] stage is installed — not the raw
    /// estimate [`Self::on_report`] returns.
    pub fn latest_conditioned_z(&self) -> Option<f64> {
        self.conditioned().back().map(|&(_, z)| z)
    }

    /// Mean of the conditioned ẑ samples within `window_s` of the latest one
    /// (`None` before the first sample), summed in place, oldest first.
    pub fn mean_conditioned_z(&self, window_s: f64) -> Option<f64> {
        let history = self.conditioned();
        let &(latest, _) = history.back()?;
        let mut count = 0usize;
        let sum: f64 = history
            .iter()
            .filter(|(t, _)| latest - t <= window_s)
            .map(|&(_, z)| z)
            .inspect(|_| count += 1)
            .sum();
        Some(sum / count as f64)
    }
}

/// Append `sample` to a `(t_s, value)` history and drop the samples more
/// than `window_s` older than it.
fn push_windowed(history: &mut VecDeque<(f64, f64)>, sample: (f64, f64), window_s: f64) {
    history.push_back(sample);
    while history
        .front()
        .is_some_and(|&(t, _)| sample.0 - t > window_s)
    {
        history.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(now_s: f64, s_bps: f64, r_bps: f64) -> Report {
        Report {
            now_s,
            send_rate_bps: s_bps,
            recv_rate_bps: r_bps,
            acked_bytes: 0,
            lost_packets: 0,
            rtt_s: 0.05,
            min_rtt_s: 0.05,
            window_acks: 50,
            marked_packets: 0,
            marked_bytes: 0,
        }
    }

    fn lossy_report(now_s: f64, s_bps: f64, r_bps: f64, lost: u64) -> Report {
        Report {
            lost_packets: lost,
            ..report(now_s, s_bps, r_bps)
        }
    }

    #[test]
    fn estimate_matches_equation_one() {
        let est = CrossTrafficEstimator::with_known_mu(96e6, 5.0);
        // S = 40, R = 40*96/(40+z). With z = 24: R = 40*96/64 = 60.
        let z = est.estimate(40e6, 60e6).unwrap();
        assert!((z - 24e6).abs() < 1.0, "z {z}");
        // No cross traffic: R == S-ish when S == µ... with S=R the estimate is µ−S.
        let z = est.estimate(96e6, 96e6).unwrap();
        assert!(z.abs() < 1.0);
    }

    #[test]
    fn estimate_is_clamped_to_physical_range() {
        let est = CrossTrafficEstimator::with_known_mu(96e6, 5.0);
        // R > µ (measurement noise) would give negative z: clamp to 0.
        assert_eq!(est.estimate(40e6, 100e6).unwrap(), 0.0);
        // Tiny R gives enormous z: clamp to µ.
        assert_eq!(est.estimate(40e6, 1e5).unwrap(), 96e6);
        // Degenerate inputs give None.
        assert!(est.estimate(0.0, 10e6).is_none());
        assert!(est.estimate(10e6, 0.0).is_none());
    }

    #[test]
    fn relative_error_is_small_across_operating_points() {
        // §3.1 reports median relative error ~1.3%; in a noiseless setting the
        // estimator should be essentially exact for any (S, z) combination.
        let mu: f64 = 96e6;
        let est = CrossTrafficEstimator::with_known_mu(mu, 5.0);
        for &s in &[6e6, 12e6, 24e6, 48e6, 72e6] {
            for &z in &[0.0, 8e6, 24e6, 48e6, 80e6] {
                // Only meaningful when the link is saturated (queue busy).
                if s + z < mu {
                    continue;
                }
                let r = mu * s / (s + z);
                let zhat = est.estimate(s, r).unwrap();
                assert!((zhat - z).abs() <= 1.0, "S={s} z={z} -> zhat={zhat}");
            }
        }
    }

    #[test]
    fn history_is_windowed_and_ordered() {
        let mut est = CrossTrafficEstimator::with_known_mu(96e6, 5.0);
        for i in 0..1000 {
            let t = i as f64 * 0.01;
            est.on_report(&report(t, 48e6, 64e6));
        }
        let kept = est.z_series(f64::INFINITY).len();
        assert!(kept <= 502, "history length {kept}");
        let series = est.z_series(5.0);
        assert!(!series.is_empty());
        // All values equal the analytic z = 96*48/64 - 48 = 24 Mbit/s.
        assert!(series.iter().all(|&z| (z - 24e6).abs() < 1.0));
        let shorter = est.z_series(1.0);
        assert!(shorter.len() < series.len());
    }

    #[test]
    fn mu_is_learned_from_max_receive_rate_when_not_configured() {
        let mut est = CrossTrafficEstimator::learning(LearnedMuConfig::MaxFilter, 5.0);
        assert_eq!(est.mu_bps(), 0.0);
        // Ramp up gently (within the per-report growth cap).
        let mut r = 40e6;
        let mut t = 0.0;
        while r < 88e6 {
            est.on_report(&report(t, r * 0.9, r));
            t += 0.01;
            r *= 1.2;
        }
        est.on_report(&report(t, 80e6, 88e6));
        assert!((est.mu_bps() - 88e6).abs() < 1.0);
        // With µ learned, estimates become available.
        let z = est.on_report(&report(t + 0.1, 44e6, 44e6)).unwrap();
        assert!((z - 44e6).abs() < 1e3);
        // Every report with a receive rate was a µ̂ sample...
        assert_eq!(est.mu_sample(), Some(est.mu_bps()));
        // ...and one without is not; a configured µ never samples.
        est.on_report(&report(t + 0.2, 44e6, 0.0));
        assert_eq!(est.mu_sample(), None);
        let mut known = CrossTrafficEstimator::with_known_mu(96e6, 5.0);
        known.on_report(&report(0.0, 40e6, 60e6));
        assert_eq!(known.mu_sample(), None);
    }

    #[test]
    fn mu_filter_rejects_one_report_rate_spikes() {
        // Regression: a cumulative-ACK artifact reporting a one-tick receive
        // rate of several times the link rate used to poison the max filter
        // for a whole window.
        let mut est = CrossTrafficEstimator::learning(LearnedMuConfig::MaxFilter, 5.0);
        for i in 0..100 {
            est.on_report(&report(i as f64 * 0.01, 44e6, 48e6));
        }
        assert!((est.mu_bps() - 48e6).abs() < 1.0);
        // A 5x spike is capped to 25% growth...
        est.on_report(&report(1.0, 44e6, 250e6));
        assert!(est.mu_bps() <= 48e6 * 1.25 + 1.0, "µ {}", est.mu_bps());
        // ...even as the very first sample (capped against the send rate).
        let mut fresh = CrossTrafficEstimator::learning(LearnedMuConfig::MaxFilter, 5.0);
        fresh.on_report(&report(0.0, 44e6, 250e6));
        assert!(fresh.mu_bps() <= 44e6 * 1.25 + 1.0, "µ {}", fresh.mu_bps());
        // ...and a *sustained* genuine rate increase still converges quickly.
        for i in 0..40 {
            est.on_report(&report(1.01 + i as f64 * 0.01, 90e6, 96e6));
        }
        assert!((est.mu_bps() - 96e6).abs() < 1.0, "µ {}", est.mu_bps());
    }

    // ---- µ sources ----------------------------------------------------------

    fn learned(learned: LearnedMuConfig) -> CrossTrafficEstimator {
        CrossTrafficEstimator::learning(learned, 5.0)
    }

    fn probing(cfg: ProbingConfig) -> CrossTrafficEstimator {
        learned(LearnedMuConfig::Probing(cfg))
    }

    fn probing_state(est: &CrossTrafficEstimator) -> &Probing {
        match &est.mu {
            MuSource::Learned {
                probing: Some(p), ..
            } => p,
            _ => panic!("µ is not probed"),
        }
    }

    /// Whether the stored ẑ is held at `now_s` (probe epochs being paced).
    fn holds_z_at(est: &CrossTrafficEstimator, now_s: f64) -> bool {
        est.active_probing().is_some_and(|p| p.settling_at(now_s))
    }

    #[test]
    fn config_builds_the_matching_source() {
        assert!(!MuSpec::Configured.is_learned());
        assert!(MuSpec::learned().is_learned());
        let configured = CrossTrafficEstimator::with_known_mu(48e6, 5.0);
        assert_eq!(configured.mu_bps(), 48e6);
        // Probing is the only source with a non-unit pace gain or a cap.
        let max_filter = learned(LearnedMuConfig::MaxFilter);
        let probed = probing(ProbingConfig::default());
        assert_eq!(configured.pace_gain(3.1), 1.0);
        assert_eq!(max_filter.pace_gain(3.1), 1.0);
        assert!(probed.pace_gain(3.1) > 1.0);
        assert_eq!(max_filter.pace_cap_bps(), None);
    }

    #[test]
    #[should_panic(expected = "must exceed 0.5 s")]
    fn probe_epochs_must_fit_their_interval() {
        probing(ProbingConfig {
            probe_interval_s: 0.5,
            ..ProbingConfig::default()
        });
    }

    #[test]
    fn non_finite_probe_settings_are_rejected() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        for (probe_interval_s, probe_gain) in [(nan, 2.0), (inf, 2.0), (1.0, nan), (1.0, inf)] {
            let cfg = ProbingConfig {
                probe_interval_s,
                probe_gain,
                ..ProbingConfig::default()
            };
            let err = cfg.check().expect_err("a non-finite setting must not run");
            assert!(err.contains("must be finite numbers"), "{err}");
            let panicked = std::panic::catch_unwind(|| probing(cfg)).is_err();
            assert!(panicked, "{cfg:?}");
        }
    }

    #[test]
    fn probing_schedule_is_deterministic_and_shaped() {
        let est = probing(ProbingConfig::default());
        let p = probing_state(&est);
        // No probe before the first interval.
        assert!(!p.probing_at(0.0));
        assert!(!p.probing_at(0.9));
        // Epochs of `PROBE_DURATION_S` every `probe_interval_s` (1 s).
        assert!(p.probing_at(1.0));
        assert!(p.probing_at(1.24));
        assert!(!p.probing_at(1.26));
        assert!(p.probing_at(2.2));
        assert_eq!(est.pace_gain(1.1), ProbingConfig::default().probe_gain);
        assert_eq!(est.pace_gain(1.5), 1.0);
        // ẑ is held for the epoch plus one drain interval.
        assert!(p.settling_at(1.4));
        assert!(!p.settling_at(1.6));
    }

    #[test]
    fn probing_quiesces_below_the_uncertainty_floor_and_resumes_on_spread() {
        let mut est = probing(ProbingConfig {
            quiesce_uncertainty_floor: 0.3,
            ..ProbingConfig::default()
        });
        // No samples yet: uncertainty is 0, so a configured floor quiesces
        // immediately (nothing to probe above until the filter has content).
        assert!(est.active_probing().is_none());
        // A steady link: min ≈ max in the window, uncertainty ≈ 0 → probes
        // stay off and ẑ is never held.
        for i in 0..200 {
            est.on_report(&report(i as f64 * 0.01, 44e6, 46e6));
        }
        assert!(est.active_probing().is_none());
        assert_eq!(est.pace_gain(1.1), 1.0, "probe epoch must be skipped");
        assert!(!holds_z_at(&est, 1.1), "no probe ran, nothing to hold over");
        // A fade re-widens the filter spread (min drops while the 10 s max
        // window still holds pre-fade samples) → probing resumes by itself.
        for i in 0..100 {
            est.on_report(&report(2.0 + i as f64 * 0.01, 10e6, 10e6));
        }
        assert!(
            est.mu_uncertainty() > 0.3,
            "fade must raise the uncertainty"
        );
        assert!(est.active_probing().is_some());
        assert_eq!(est.pace_gain(4.1), ProbingConfig::default().probe_gain);
        assert!(holds_z_at(&est, 4.1));
    }

    #[test]
    fn zero_floor_disables_quiescing_entirely() {
        // The default floor of 0 leaves the schedule intact: uncertainty 0
        // on a steady link, probes still run.
        let mut est = probing(ProbingConfig::default());
        for i in 0..200 {
            est.on_report(&report(i as f64 * 0.01, 44e6, 46e6));
        }
        assert!(est.active_probing().is_some());
        assert_eq!(est.pace_gain(1.1), ProbingConfig::default().probe_gain);
        assert!(holds_z_at(&est, 1.1));
    }

    #[test]
    fn probing_floor_remembers_loss_free_rate_and_decays_on_loss() {
        let mut est = probing(ProbingConfig::default());
        for i in 0..100 {
            est.on_report(&report(i as f64 * 0.01, 44e6, 46e6));
        }
        let mu_before = est.mu_bps();
        assert!((probing_state(&est).loss_floor_bps - 46e6).abs() < 1e3);
        // A fade: tiny receive rate with losses.  The max filter's window
        // (10 s) still holds the old samples, but the floor starts decaying
        // (at most once per backoff interval).
        for i in 0..200 {
            est.on_report(&lossy_report(1.0 + i as f64 * 0.01, 2e6, 1e6, 3));
        }
        // 2 s of losses at 0.5 s backoff interval = 4 decays of 0.7.
        let expect = 46e6 * 0.7f64.powi(4);
        let floor = probing_state(&est).loss_floor_bps;
        assert!(
            (floor - expect).abs() / expect < 0.05,
            "floor {floor} vs {expect}"
        );
        assert!(est.mu_bps() <= mu_before);
        // The pace cap dropped to the current delivery on the first loss.
        assert_eq!(est.pace_cap_bps(), Some(1e6 * CAP_MARGIN));
        // Long after the fade the max-filter window is empty of pre-fade
        // samples; the floor (not the pacing floor) is what µ̂ rests on.
        for i in 0..100 {
            est.on_report(&report(20.0 + i as f64 * 0.01, 1e6, 1e6));
        }
        assert!(
            est.mu_bps() >= expect * 0.99,
            "µ̂ {} collapsed below the loss floor {expect}",
            est.mu_bps()
        );
    }

    #[test]
    fn uncertainty_tracks_the_spread_of_the_filter_inputs() {
        let mut est = learned(LearnedMuConfig::MaxFilter);
        assert_eq!(est.mu_uncertainty(), 0.0);
        for i in 0..100 {
            est.on_report(&report(i as f64 * 0.01, 44e6, 48e6));
        }
        // Steady input: no spread.
        assert!(est.mu_uncertainty() < 0.01, "{}", est.mu_uncertainty());
        // A dip to half rate: uncertainty rises toward 0.5.
        for i in 0..100 {
            est.on_report(&report(1.0 + i as f64 * 0.01, 24e6, 24e6));
        }
        assert!(
            est.mu_uncertainty() > 0.4,
            "uncertainty {} after a 50% dip",
            est.mu_uncertainty()
        );
        // Configured µ is always certain.
        let c = CrossTrafficEstimator::with_known_mu(48e6, 5.0);
        assert_eq!(c.mu_uncertainty(), 0.0);
    }

    #[test]
    fn notch_prefilter_conditions_the_detector_series_only() {
        use std::f64::consts::TAU;
        let mut est = CrossTrafficEstimator::with_known_mu(96e6, 20.0);
        est.set_z_prefilter(Some(Biquad::notch(0.5, 0.7, 100.0)));
        // ẑ oscillating at 0.5 Hz (a link-variation artifact): S constant,
        // R modulated so the Eq. 1 output swings.
        let mut conditioned = Vec::new();
        for i in 0..4000 {
            let t = i as f64 * 0.01;
            let z_true = 30e6 + 20e6 * (TAU * 0.5 * t).sin();
            let s = 40e6;
            let r = 96e6 * s / (s + z_true);
            est.on_report(&report(t, s, r));
            conditioned.push(est.latest_conditioned_z().unwrap());
        }
        let raw = est.z_series(5.0);
        let conditioned = &conditioned[conditioned.len() - raw.len()..];
        let swing = |xs: &[f64]| {
            xs.iter().cloned().fold(f64::MIN, f64::max)
                - xs.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(
            swing(conditioned) < 0.2 * swing(&raw),
            "notch left swing {} of {}",
            swing(conditioned),
            swing(&raw)
        );
        // The window mean is over exactly those samples, oldest first.
        let mean = conditioned.iter().sum::<f64>() / conditioned.len() as f64;
        assert_eq!(est.mean_conditioned_z(5.0), Some(mean));
        // Without a pre-filter the conditioned sample IS the stored raw one.
        let mut plain = CrossTrafficEstimator::with_known_mu(96e6, 20.0);
        assert_eq!(plain.latest_conditioned_z(), None);
        assert_eq!(plain.mean_conditioned_z(5.0), None);
        plain.on_report(&report(0.0, 40e6, 60e6));
        assert_eq!(plain.latest_conditioned_z(), Some(plain.z_series(5.0)[0]));
        assert_eq!(plain.mean_conditioned_z(5.0), plain.latest_conditioned_z());
    }
}
