//! The untraced run: one workload, one seed, the end-to-end metrics.
//!
//! A **rep** builds everything from the seed (set-up, timed on its own) and
//! then runs the timed region (run + metric extraction).  The run repeats
//! identical reps for the time box.  Because the simulator and the mock host
//! are deterministic, every rep does bit-identical work: timings report a
//! floor over reps, heap counts must repeat exactly.  The timed region is
//! split at lap marks (`laps`) into segments, and every wall clock the
//! benchmark reports — here and in the traced run's ledger — is the sum of
//! the per-segment floors ([`wall_floor_s`]): the host's noise comes in
//! bursts that no whole rep of a second escapes in a slow phase, but every
//! segment escapes in some rep.
//!
//! Rep 0 is a warm-up and never enters a timing sample.  For the simulator
//! workloads it doubles as the conservation probe: it runs the network with
//! `Network::run` directly, so the engine's byte counters are still
//! reachable afterwards (`run_and_collect` consumes the network), and its
//! event count must equal that of every timed rep.

use crate::embed::{self, Host};
use crate::report::{Metric, RunReport, Workload, END_TO_END};
use crate::sim::{conservation_violation, Anchors, Scenario};
use crate::stats::{floor, segment_floor, Summary};
use crate::{alloc, laps};
use serde::Value;
use std::time::{Duration, Instant};

/// Fewest timed reps a run accepts, however short the time box.
pub(crate) const MIN_REPS: usize = 10;

/// Reps attempted so far and the checks they failed.  A rep that violates a
/// check is counted, never dropped.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failures: Vec<(u64, String)>,
}

impl Tally {
    /// Account for one more rep and whatever it violated.
    pub(crate) fn rep(&mut self, violations: Vec<String>) {
        let index = self.attempted;
        self.attempted += 1;
        self.failures
            .extend(violations.into_iter().map(|reason| (index, reason)));
    }
}

/// What one untraced rep measured.
pub(crate) struct Rep {
    pub(crate) setup_s: f64,
    /// The timed region, split at the lap marks.
    pub(crate) segments_s: Vec<f64>,
    /// Allocation events in the timed region.
    pub(crate) allocs: u64,
    /// Peak live heap over set-up + timed region, above the rep's start.
    pub(crate) peak_bytes: i64,
    pub(crate) anchors: Value,
    /// Engine events dispatched (0 on the mock host).
    pub(crate) events: u64,
    pub(crate) violations: Vec<String>,
}

pub(crate) fn sim_rep(sc: &Scenario) -> Rep {
    alloc::reset_peak();
    let h0 = alloc::snapshot();
    let t0 = Instant::now();
    let built = sc.build(false);
    let setup_s = t0.elapsed().as_secs_f64();
    let primary = built.primary;
    let ((out, anchors, h1, h2), segments_s) = laps::timed(|| {
        let h1 = alloc::snapshot();
        let out = built.run_and_collect();
        let anchors = Anchors::of(&out, primary, sc.spec.link_rate_bps);
        (out, anchors, h1, alloc::snapshot())
    });
    Rep {
        setup_s,
        segments_s,
        allocs: h2.allocs - h1.allocs,
        peak_bytes: h2.peak_bytes - h0.live_bytes,
        events: anchors.events,
        violations: sc.check(&anchors, &out),
        anchors: anchors.to_value(),
    }
}

pub(crate) fn embed_rep(seed: u64) -> Rep {
    alloc::reset_peak();
    let h0 = alloc::snapshot();
    let t0 = Instant::now();
    let mut host = Host::build(seed, false);
    let setup_s = t0.elapsed().as_secs_f64();
    let ((anchors, h1, h2), segments_s) = laps::timed(|| {
        let h1 = alloc::snapshot();
        host.run();
        (host.anchors(), h1, alloc::snapshot())
    });
    Rep {
        setup_s,
        segments_s,
        allocs: h2.allocs - h1.allocs,
        peak_bytes: h2.peak_bytes - h0.live_bytes,
        events: 0,
        violations: anchors.check(),
        anchors: anchors.to_value(),
    }
}

/// `Network::run` alone on a freshly built network, with the engine's
/// conservation law checked on the run network.
pub(crate) struct RunOnly {
    pub(crate) segments_s: Vec<f64>,
    pub(crate) events: u64,
    pub(crate) violations: Vec<String>,
}

pub(crate) fn run_only_rep(sc: &Scenario) -> RunOnly {
    let mut net = sc.build(false).net;
    let ((), segments_s) = laps::timed(|| net.run());
    RunOnly {
        segments_s,
        events: net.events_processed(),
        violations: conservation_violation(&net).into_iter().collect(),
    }
}

/// Add one more timed rep to `reps` and account for it in `tally`.  A
/// deterministic program repeats itself exactly, so the rep is first held
/// against the first timed rep (simulated results, heap counts) and, on a
/// simulator workload, against the conservation probe's event count.
pub(crate) fn admit(
    mut rep: Rep,
    probe_events: Option<u64>,
    reps: &mut Vec<Rep>,
    tally: &mut Tally,
) {
    if let Some(first) = reps.first() {
        if rep.anchors != first.anchors {
            rep.violations
                .push("anchors differ from the first timed rep".into());
        }
        if (rep.allocs, rep.peak_bytes) != (first.allocs, first.peak_bytes) {
            rep.violations.push(format!(
                "heap counts differ from the first timed rep: {} allocs / {} peak bytes vs {} / {}",
                rep.allocs, rep.peak_bytes, first.allocs, first.peak_bytes
            ));
        }
    }
    if let Some(events) = probe_events.filter(|&e| e != rep.events) {
        rep.violations.push(format!(
            "{} events, the conservation probe dispatched {events}",
            rep.events
        ));
    }
    tally.rep(std::mem::take(&mut rep.violations));
    reps.push(rep);
}

pub(crate) fn samples(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The wall clock of identical reps, each given as its segments: the sum
/// over segments of the fastest any rep took.
pub(crate) fn wall_floor_s<'a>(reps: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let reps: Vec<&[f64]> = reps.into_iter().map(Vec::as_slice).collect();
    segment_floor(&reps)
}

/// The untraced run: end-to-end metrics over `seconds` of identical reps.
pub fn untraced(workload: Workload, seed: u64, seconds: f64) -> RunReport {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let scenario = workload.sim().map(|w| w.scenario(seed));
    let sim_s = scenario.as_ref().map_or(embed::SIM_S, Scenario::sim_s);
    let mut tally = Tally::default();

    let mut probe_events = None;
    match &scenario {
        Some(sc) => {
            let probe = run_only_rep(sc);
            probe_events = Some(probe.events);
            tally.rep(probe.violations);
        }
        None => tally.rep(embed_rep(seed).violations),
    }

    let mut reps: Vec<Rep> = Vec::new();
    while reps.len() < MIN_REPS || Instant::now() < deadline {
        let rep = match &scenario {
            Some(sc) => sim_rep(sc),
            None => embed_rep(seed),
        };
        admit(rep, probe_events, &mut reps, &mut tally);
    }

    let timing = |(name, unit): (&'static str, &'static str), samples: Vec<f64>| Metric {
        name,
        unit,
        value: floor(&samples),
        summary: Summary::of(&samples),
    };
    let count = |(name, unit): (&'static str, &'static str), value: f64| Metric {
        name,
        unit,
        value,
        summary: None,
    };
    let [wall, peak, allocs, setup] = END_TO_END;
    // The summary is of the rep totals; the value is the segment floor.
    let mut wall = timing(
        wall,
        samples(&reps, |r| r.segments_s.iter().sum::<f64>() * 1e3 / sim_s),
    );
    wall.value = wall_floor_s(reps.iter().map(|r| &r.segments_s)) * 1e3 / sim_s;
    RunReport {
        workload,
        seed,
        traced: false,
        seconds,
        attempted: tally.attempted,
        failures: tally.failures,
        anchors: reps[0].anchors.clone(),
        metrics: vec![
            wall,
            count(peak, reps[0].peak_bytes as f64 / 1e6),
            count(allocs, reps[0].allocs as f64 / sim_s),
            timing(setup, samples(&reps, |r| r.setup_s)),
        ],
        detail: Vec::new(),
        text: format!(
            "  wall_ms_per_sim_s sums the floors of {} segments over {} reps\n",
            reps[0].segments_s.len(),
            reps.len()
        ),
    }
}
