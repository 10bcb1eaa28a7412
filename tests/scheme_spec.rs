//! The spec grammar's contract tests.
//!
//! 1. **Behaviour preservation**: every variant of the pre-redesign closed
//!    `Scheme` enum, written as a canonical spec string, reproduces its row
//!    of the fingerprint ledger (`tests/ledger/mod.rs`), captured on the enum
//!    path — alone on the link for all 12 variants and against an elastic
//!    Cubic competitor for the five Nimbus flavours.
//! 2. **Canonical strings**: aliases, structs and strings agree, and the
//!    `mu=learned(...)` / `zfilter=...` forms print and parse as documented.
//! 3. **Round-trips**: `Display` → `FromStr` is the identity over randomly
//!    generated whole cells — every scheme/µ/zfilter/schedule/path/ecn/
//!    cross/fleet family in one proptest — and mutated valid strings error
//!    or round-trip, never panic.
//! 4. **Rejection**: one table of malformed strings for the whole grammar,
//!    each with the needle its message must contain.

mod ledger;

use nimbus_repro::experiments::testkit::{run_matrix, Cell};
use nimbus_repro::experiments::SchemeSpec;
use nimbus_repro::nimbus::{
    DelayScheme, LearnedMuConfig, MuSpec, NimbusSpec, ProbingConfig, TcpScheme, ZFilterConfig,
};
use proptest::prelude::*;

/// The cells assert no invariant, so their one possible violation is the
/// event budget `Cell::run` checks.
#[test]
fn every_pre_redesign_variant_reproduces_its_fingerprint() {
    let outcomes = run_matrix(&ledger::cells(ledger::PRE_REDESIGN));
    for o in &outcomes {
        assert!(o.violations.is_empty(), "{}: {:?}", o.name, o.violations);
    }
    ledger::assert_pinned(&outcomes);
}

#[test]
fn builder_alias_and_string_paths_agree() {
    // Three routes to the same spec — the `cbr(…)`/`reno` spelling aliases
    // of the scheme grammar's tables, the canonical string, and the
    // constructor or the `NimbusSpec` the grammar fills in — are the same
    // value.
    let from_alias: SchemeSpec = "cbr(24M)".parse().unwrap();
    let from_string: SchemeSpec = "constant(24M)".parse().unwrap();
    assert_eq!(from_alias, from_string);
    assert_eq!(from_string, SchemeSpec::constant(24e6));
    let from_alias: SchemeSpec = "nimbus(competitive=newreno,delay=copa)".parse().unwrap();
    let from_string: SchemeSpec = "nimbus(competitive=reno,delay=copa)".parse().unwrap();
    let from_struct = SchemeSpec::Nimbus(NimbusSpec {
        competitive: TcpScheme::NewReno,
        delay: DelayScheme::CopaDefault,
        ..NimbusSpec::default()
    });
    assert_eq!(from_alias, from_string);
    assert_eq!(from_string, from_struct);
}

#[test]
fn canonical_estimator_spec_strings() {
    let nimbus = |mu, zfilter| {
        SchemeSpec::Nimbus(NimbusSpec {
            mu,
            zfilter,
            ..NimbusSpec::default()
        })
    };
    let probing = |cfg| {
        nimbus(
            MuSpec::Learned(LearnedMuConfig::Probing(cfg)),
            ZFilterConfig::None,
        )
    };
    // Defaults render compactly; non-defaults render their parameters.
    assert_eq!(
        nimbus(MuSpec::learned(), ZFilterConfig::None).to_string(),
        "nimbus(mu=learned)"
    );
    let quiesced = ProbingConfig {
        quiesce_uncertainty_floor: 0.4,
        ..ProbingConfig::default()
    };
    assert_eq!(
        probing(ProbingConfig::default()).to_string(),
        "nimbus(mu=learned(probe=1))"
    );
    assert_eq!(
        probing(quiesced).to_string(),
        "nimbus(mu=learned(probe=1,quiesce=0.4))"
    );
    assert_eq!(
        "nimbus(mu=learned(probe=1,quiesce=0.4))"
            .parse::<SchemeSpec>()
            .unwrap(),
        probing(quiesced)
    );
    assert_eq!(
        nimbus(MuSpec::learned(), ZFilterConfig::Adaptive).to_string(),
        "nimbus(mu=learned,zfilter=adaptive)"
    );
    assert_eq!(
        nimbus(MuSpec::Configured, ZFilterConfig::Notch { freq_hz: 0.1 }).to_string(),
        "nimbus(zfilter=notch(freq=0.1))"
    );
    // Parameterised forms parse back to exactly the right configs.
    let spec: SchemeSpec = "nimbus(mu=learned(probe=2,gain=3))".parse().unwrap();
    assert_eq!(
        spec,
        probing(ProbingConfig {
            probe_interval_s: 2.0,
            probe_gain: 3.0,
            ..ProbingConfig::default()
        })
    );
    let spec: SchemeSpec = "nimbus(mu=learned())".parse().unwrap();
    assert_eq!(
        spec,
        nimbus(
            MuSpec::Learned(LearnedMuConfig::MaxFilter),
            ZFilterConfig::None
        )
    );
    // Labels keep the historical `-estmu` stem and append strategy slugs.
    assert_eq!(
        probing(ProbingConfig::default()).label(),
        "nimbus-estmu-probe1"
    );
    assert_eq!(
        nimbus(MuSpec::learned(), ZFilterConfig::Adaptive).label(),
        "nimbus-estmu-zadapt"
    );
}

// ---- whole-cell generation -------------------------------------------------

/// Spec fragments, a few per family, with holes: `#` becomes a random
/// multiple of 1/64 in (0, 16] (exact in binary, readable on failure), `%`
/// one in (0, 1), `^` one in (1, 17], `&` one in [2, 16], `~` a random
/// scheme and `$` the sample Mahimahi trace.  Holes sit only where any such
/// value is valid.
const SCHEMES: &[&str] = &[
    "cubic",
    "newreno",
    "vegas",
    "copa",
    "bbr",
    "vivace",
    "compound",
    "dctcp",
    "unlimited",
    "constant(#M)",
    "nimbus",
    "nimbus(competitive=reno,delay=vegas,switch=never)",
    "nimbus(competitive=dctcp,delay=copa,mu=learned,zfilter=adaptive)",
    "nimbus(mu=learned(probe=40,gain=^),zfilter=notch(freq=%))",
    "nimbus(mu=learned(probe=^,quiesce=%),zfilter=notch(freq=#))",
];
const SCHEDULES: &[&str] = &[
    "",
    "const",
    "step(#s,%)",
    "steps(#s=%,20s=#,21s=1)",
    "sin(%,#s)",
    "trace(#s,#,%,1)",
    "trace-cellular",
    "trace-wifi",
    "trace-step-outage",
    "mm($)",
];
const PATHS: &[&str] = &[
    "",
    "hop(%)",
    "hop(#,sched=step(#s,^))",
    "hop(%) hop(^,sched=trace-wifi)",
];
const ECN: &[&str] = &["", "ecn=off", "ecn=classic", "ecn=l4s"];
const CROSS: &[&str] = &[
    "alone",
    "cbr@%",
    "poisson@%",
    "~",
    "~@hop0-0",
    "~+cbr@%+~+poisson@%",
    // The per-flow qualifiers: an absolute rate, a hop span on every
    // family, and rtt=/start=/stop=/seed= (stop after start by construction).
    "cbr@#M@hop0-0@rtt=#ms,start=%s,stop=^s",
    "poisson@^M@start=#s,seed=7",
    "poisson@%@hop0-0@rtt=#s,stop=^s,seed=1234",
    "~@rtt=#ms,start=%s",
    "nimbus(delay=copa)@hop0-0@stop=^s,seed=42",
    "~@start=%s,stop=^s+cbr@#M@stop=^s",
    // Fig. 11's video client, in both qualities.
    "video(4k)",
    "video(1080p)@hop0-0@rtt=#ms,start=%s,stop=^s",
];
const FLEETS: &[&str] = &[
    "",
    "+fleet(load=%)",
    "+fleet(arrivals=bursty,load=%,mean=&k)",
    "+fleet(arrivals=bursty,load=%,mean=#M)",
];
const LINK_OPTS: &[&str] = &["", "buffer=#ms rtt=#ms pie=#ms loss=%"];

fn pick<'a>(family: &[&'a str], rng: &mut proptest::TestRng) -> &'a str {
    family[rng.range_u64(0, family.len() as u64) as usize]
}

fn fill(template: &str, rng: &mut proptest::TestRng) -> String {
    let mut out = String::new();
    for c in template.chars() {
        let sixty_fourths = match c {
            '#' => 1..1025,
            '%' => 1..64,
            '^' => 65..1089,
            '&' => 128..1025,
            '~' => {
                out += &fill(pick(SCHEMES, rng), rng);
                continue;
            }
            '$' => {
                out += concat!(
                    env!("CARGO_MANIFEST_DIR"),
                    "/traces/sample-cellular.mahimahi"
                );
                continue;
            }
            c => {
                out.push(c);
                continue;
            }
        };
        let n = rng.range_u64(sixty_fourths.start, sixty_fourths.end);
        out += &(n as f64 / 64.0).to_string();
    }
    out
}

/// A random whole-cell string covering every family of the grammar.
fn generate(rng: &mut proptest::TestRng) -> String {
    let path = pick(PATHS, rng);
    // A flow confined to hops 0–1 needs a second hop to exit at.
    let midpath = if path.is_empty() { "" } else { "+~@hop0-1" };
    let template = [
        "~@#M ",
        pick(SCHEDULES, rng),
        " ",
        path,
        " ",
        pick(ECN, rng),
        " vs ",
        pick(CROSS, rng),
        midpath,
        pick(FLEETS, rng),
        " ",
        pick(LINK_OPTS, rng),
    ]
    .concat();
    let cell = fill(&template, rng);
    // A cell's steady-state window starts before its run ends.
    let dur = rng.range_u64(2, 1025);
    let steady = rng.range_u64(1, dur);
    format!(
        "{cell} dur={}s steady={}s seed={}",
        dur as f64 / 64.0,
        steady as f64 / 64.0,
        rng.range_u64(0, 1000)
    )
}

proptest! {
    #[test]
    fn random_specs_round_trip_through_display(seed in 0u64..u64::MAX) {
        let text = generate(&mut proptest::TestRng::new(seed));
        let cell: Cell = text.parse()
            .unwrap_or_else(|e| panic!("generated `{text}` failed to parse: {e}"));
        // Display → FromStr is the identity on the whole cell…
        let canonical = cell.to_string();
        let parsed: Cell = canonical.parse()
            .unwrap_or_else(|e| panic!("`{canonical}` failed to re-parse: {e}"));
        prop_assert_eq!(parsed.scheme, cell.scheme, "`{}`", canonical);
        prop_assert_eq!(&parsed.scenario, &cell.scenario, "`{}`", canonical);
        prop_assert_eq!(parsed.steady_start_s, cell.steady_start_s);
        prop_assert_eq!(parsed.to_string(), canonical);
        // …and the scheme names its recorder flow.
        prop_assert!(!cell.scheme.label().is_empty());
    }
}

/// Damage `text` at one structural character (a paren, comma, `=`, `@`, `+`,
/// space or unit suffix): drop it, double it, or cut the string there.
fn mutate(text: &str, rng: &mut proptest::TestRng) -> String {
    let targets: Vec<usize> = text
        .char_indices()
        .filter(|(_, c)| "(),=@+ kMGms".contains(*c))
        .map(|(i, _)| i)
        .collect();
    let at = targets[rng.range_u64(0, targets.len() as u64) as usize];
    let (before, after) = text.split_at(at);
    match rng.range_u64(0, 3) {
        0 => format!("{before}{}", &after[1..]),
        1 => format!("{before}{}{after}", &after[..1]),
        _ => before.to_string(),
    }
}

#[test]
fn mutated_specs_error_or_round_trip_and_never_panic() {
    let mut rng = proptest::TestRng::from_name("mutated_specs");
    let (mut accepted, mut rejected) = (0, 0);
    for _ in 0..2000 {
        let mutated = mutate(&generate(&mut rng), &mut rng);
        match mutated.parse::<Cell>() {
            Ok(cell) => {
                let canonical = cell.to_string();
                let again: Cell = canonical.parse().unwrap_or_else(|e| {
                    panic!("`{mutated}` was accepted but prints `{canonical}`: {e}")
                });
                assert_eq!(again.to_string(), canonical);
                accepted += 1;
            }
            Err(e) => {
                assert!(!e.0.is_empty());
                rejected += 1;
            }
        }
    }
    assert!(
        accepted > 0 && rejected > accepted,
        "{accepted} / {rejected}"
    );
}

// ---- rejection -------------------------------------------------------------

/// `(slot, text, needle)`: `text` fills one slot of the valid cell
/// `cubic@48M vs alone seed=1 dur=10s steady=2s` — the `scheme`, an extra
/// `link` token after the rate, the `cross` entry — or is the whole `cell`;
/// the parse must fail with a message containing `needle`.
#[rustfmt::skip]
const REJECTED: &[(&str, &str, &str)] = &[
    // Schemes.
    ("scheme", "", "unknown scheme"),
    ("scheme", "quic", "unknown scheme"),
    ("scheme", "nimbus(delay=bbr)", "unknown delay scheme"),
    ("scheme", "nimbus(competitive=vegas)", "unknown competitive scheme"),
    ("scheme", "nimbus(mu=guessed)", "unknown mu mode"),
    ("scheme", "nimbus(switch=sometimes)", "unknown switch mode"),
    ("scheme", "nimbus(pulse=0.5)", "unknown nimbus option"),
    ("scheme", "nimbus(delay)", "key=value"),
    ("scheme", "nimbus(delay=copa", "closing"),
    ("scheme", "constant()", "invalid rate"),
    ("scheme", "constant(-3M)", "invalid rate"),
    ("scheme", "constant(12Q)", "invalid rate"),
    // The `cbr(` alias gets the same precise diagnostics.
    ("scheme", "cbr(fast)", "invalid rate"),
    ("scheme", "cbr(24M", "closing"),
    // µ strategies and ẑ filters.
    ("scheme", "nimbus(mu=learned(probe=fast))", "not a number"),
    ("scheme", "nimbus(mu=learned(probe=-1))", "positive"),
    ("scheme", "nimbus(mu=learned(probe=0))", "positive"),
    ("scheme", "nimbus(mu=learned(turbo=1))", "unknown mu=learned option"),
    // The probe epoch, filter windows, loss decay and pace cap are constants.
    ("scheme", "nimbus(mu=learned(probe=1,dur=0.1))", "unknown mu=learned option `dur` (expected probe=<s>, gain=<x>, quiesce=<frac>)"),
    ("scheme", "nimbus(mu=learned(window=5))", "unknown mu=learned option `window`"),
    ("scheme", "nimbus(mu=learned(gain=2))", "require probe="),
    ("scheme", "nimbus(mu=learned(quiesce=0.3))", "(gain/quiesce) require probe="),
    // A probe must actually probe: gain ≤ 1, or an interval too short for
    // the epoch and its drain, silently never escapes the fixed point.
    ("scheme", "nimbus(mu=learned(probe=1,gain=0.5))", "exceed 1"),
    ("scheme", "nimbus(mu=learned(probe=0.5))", "must exceed 0.5 s"),
    ("scheme", "nimbus(mu=learned(probe=1,quiesce=1.5))", "quiesce probing unconditionally"),
    ("scheme", "nimbus(mu=learned(probe=3)", "closing"),
    ("scheme", "nimbus(zfilter=fft)", "unknown zfilter"),
    ("scheme", "nimbus(zfilter=notch)", "freq"),
    ("scheme", "nimbus(zfilter=notch(q=2))", "unknown zfilter=notch option `q` (expected freq=<hz>)"),
    ("scheme", "nimbus(zfilter=adaptive(k=4))", "unknown zfilter `adaptive(k=4)`"),
    // ẑ is sampled every 10 ms: nothing at or above 50 Hz can be notched.
    ("scheme", "nimbus(zfilter=notch(freq=60))", "below 50 Hz"),
    ("scheme", "nimbus(zfilter=notch(freq=50))", "below 50 Hz"),
    // Schedules: no string reaches `to_schedule`'s panics.
    ("link", "trace-bogus", "available: cellular, wifi, step-outage"),
    ("link", "mm(/nonexistent/x.trace)", "cannot read"),
    ("link", "warp(3)", "unknown schedule"),
    ("link", "step(15s)", "unknown schedule"),
    ("link", "sin(0.1,-10s)", "positive"),
    ("link", "steps(5s)", "<at>=<factor>"),
    // Out of order, the 0.5 step would never apply.
    ("link", "steps(20s=0.5,5s=2)", "must strictly increase"),
    ("link", "trace(1s)", "unknown schedule"),
    // A schedule segment lasts at least 1 ms: a shorter trace interval would
    // make the engine change rate up to once per nanosecond.
    ("link", "trace(0.0000000001s,1)", "trace interval `0.0000000001s` is below the shortest schedule segment, 1ms"),
    ("link", "hop(0.5,sched=trace(0.0000000001s,1))", "trace interval `0.0000000001s` is below the shortest schedule segment, 1ms"),
    ("link", "trace(0.000001ms,1)", "trace interval `0.000001ms` is below the shortest schedule segment, 1ms"),
    ("link", "hop(0.5,sched=trace(0.5ms,1,2))", "trace interval `0.5ms` is below the shortest schedule segment, 1ms"),
    ("link", "sin(0.1,10s) step(1s,0.5)", "already has the schedule"),
    // Paths.
    ("link", "hop()", "not a number"),
    ("link", "hop(0.5,speed=2)", "unknown hop option"),
    // A hop's buffer, propagation delay and ECN marking are constants.
    ("link", "hop(0.5,buffer=20ms)", "unknown hop option `buffer` (expected sched=<schedule>)"),
    ("link", "hop(0.5,sched=trace-bogus)", "available: cellular"),
    // A loss probability of one or more would make a hop drop every packet.
    ("link", "loss=1.5", "probability below 1"),
    ("link", "loss=1", "probability below 1"),
    // The ecn= axis.
    ("link", "ecn=step(1ms", "closing"),
    ("link", "ecn=step(5ms)", "unknown ecn mode `step(5ms)` (expected off|none|classic|ecn|l4s)"),
    ("link", "ecn=wide", "unknown ecn mode"),
    // Cross traffic and fleets.
    ("cross", "cbr", "fraction of µ or a rate"),
    ("cross", "poisson@lots", "not a number"),
    ("cross", "cubic@hop1-0", "invalid hop span"),
    ("cross", "cubic@hop0-3", "exits at hop 3"),
    ("cross", "cbr@0.5@hop0-2", "exits at hop 2"),
    ("cross", "cbr@0.5@0.5", "`@0.5` twice"),
    ("cross", "cubic@0.5", "sets its own rate"),
    // A flow's window, RTT, seed and rate, and the keys it takes.
    ("cross", "cubic@start=5s,stop=5s", "must stop after it starts"),
    ("cross", "cubic@rtt=0ms", "positive"),
    ("cross", "poisson@0.5@seed=1.5", "not an integer"),
    ("cross", "cbr@0.5@seed=3", "`cbr` draws nothing random, so takes no seed="),
    ("cross", "cubic@seed=3", "`cubic` draws nothing random, so takes no seed="),
    ("cross", "video(720p)", "unknown video quality `720p` (expected 4k|1080p)"),
    ("cross", "video(4k)@seed=3", "`video(4k)` draws nothing random, so takes no seed="),
    ("cross", "video(4k)@24M", "`video(4k)` sets its own rate, not `@24M`"),
    ("cross", "cbr@24Q", "k|M|G unit"),
    ("cross", "poisson@0.5k", "no exact k|M|G form"),
    ("cross", "cubic@rate=5", "unknown cross option `rate` (expected rtt=<dur>, start=<dur>, stop=<dur>, seed=<n>)"),
    ("cross", "poisson(load=0.5)", "unknown scheme"),
    ("cross", "fleet(load=0)", "positive"),
    ("cross", "fleet(load=5)", "out of range"),
    ("cross", "fleet(arrivals=uniform,load=0.5)", "unknown arrivals"),
    ("cross", "fleet(arrivals=bursty(alpha=2),load=0.5)", "unknown arrivals `bursty(alpha=2)` (expected poisson|bursty)"),
    ("cross", "fleet(speed=0.5)", "unknown fleet option"),
    ("cross", "fleet(load=0.5", "closing"),
    ("cross", "fleet(mean=-3,load=0.5)", "positive"),
    // Sub-segment flows would spawn millions of flows per simulated second.
    ("cross", "fleet(load=2,mean=1)", "mean flow size `1` is below one segment (1500 B"),
    // Fleet flows always run Cubic.
    ("cross", "fleet(load=0.5,cc=reno)", "unknown fleet option `cc` (expected arrivals="),
    ("cross", "fleet(load=0.5)+fleet(load=0.2)", "at most one fleet"),
    // Whole cells.
    ("cell", "cubic 48M vs alone dur=10s steady=2s", "not a cell"),
    ("cell", "cubic@fast vs alone dur=10s steady=2s", "invalid rate"),
    ("cell", "cubic@ vs alone dur=10s steady=2s", "invalid rate"),
    ("cell", "cubic@48M vs alone steady=2s", "needs its duration"),
    ("cell", "cubic@48M vs alone dur=10s", "steady=<dur>"),
    ("cell", "cubic@48M vs alone dur=10s steady=2s steady=3s", "steady=<dur>"),
    ("cell", "cubic@48M vs alone dur=2s steady=2s", "must be before the end of the run"),
    ("cell", "cubic@48M dur=10s steady=2s vs", "must be followed"),
    ("cell", "cubic@48M vs alone seed=x dur=10s steady=2s", "not an integer"),
    ("cell", "cubic@48M vs alone tempo=3 dur=10s steady=2s", "unknown scenario option"),
];

#[test]
fn malformed_specs_fail_with_actionable_messages() {
    let rejects = |input: &str, needle: &str| {
        let err = match input.parse::<Cell>() {
            Ok(cell) => panic!("`{input}` should not parse, got `{cell}`"),
            Err(err) => err.to_string(),
        };
        assert!(
            err.contains(needle),
            "error for `{input}` should mention `{needle}`, got: {err}"
        );
    };
    for &(slot, text, needle) in REJECTED {
        let input = match slot {
            "scheme" => format!("{text}@48M vs alone seed=1 dur=10s steady=2s"),
            "link" => format!("cubic@48M {text} vs alone seed=1 dur=10s steady=2s"),
            "cross" => format!("cubic@48M vs {text} seed=1 dur=10s steady=2s"),
            _ => text.to_string(),
        };
        rejects(&input, needle);
    }
    // A malformed Mahimahi file is rejected with the loader's line number.
    let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/malformed.mahimahi");
    std::fs::write(path, "0\nfast\n").unwrap();
    rejects(
        &format!("cubic@48M mm({path}) vs alone dur=10s steady=2s"),
        "line 2",
    );
}
