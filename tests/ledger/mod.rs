//! The fingerprint ledger.  One table, [`FINGERPRINTS`], keys the recorder
//! fingerprint of every pinned cell by the cell's canonical string
//! (`Cell`'s `Display`, which parses back to the cell).  Each pinned cell is
//! simulated once per test run, by the test that owns it: the
//! paper-invariant matrix by `tests/scenario_matrix.rs`, the
//! [`PRE_REDESIGN`] cells by `tests/scheme_spec.rs`, the [`PRE_API`] cells
//! by `tests/estimator_api.rs`.  Each checks its outcomes with
//! [`assert_pinned`], which on a mismatch prints the diff and the
//! replacement table (`FINGERPRINTS.md` says how to re-pin).

// Every test binary that includes the ledger reads only its own slice.
#![allow(dead_code)]

use nimbus_repro::experiments::testkit::{paper_invariant_matrix, Cell, CellOutcome};

/// The variants of the closed `Scheme` enum that preceded `SchemeSpec`,
/// pinned on the enum path: all 12 alone on a 48 Mbit/s link and the five
/// Nimbus flavours against an elastic Cubic competitor.
pub const PRE_REDESIGN: &[&str] = &[
    "nimbus@48M vs alone seed=17 dur=20s steady=6s",
    "nimbus(delay=copa)@48M vs alone seed=17 dur=20s steady=6s",
    "nimbus(delay=vegas)@48M vs alone seed=17 dur=20s steady=6s",
    "nimbus(switch=never)@48M vs alone seed=17 dur=20s steady=6s",
    "nimbus(mu=learned)@48M vs alone seed=17 dur=20s steady=6s",
    "cubic@48M vs alone seed=17 dur=20s steady=6s",
    "newreno@48M vs alone seed=17 dur=20s steady=6s",
    "vegas@48M vs alone seed=17 dur=20s steady=6s",
    "copa@48M vs alone seed=17 dur=20s steady=6s",
    "bbr@48M vs alone seed=17 dur=20s steady=6s",
    "vivace@48M vs alone seed=17 dur=20s steady=6s",
    "compound@48M vs alone seed=17 dur=20s steady=6s",
    "nimbus@96M vs cubic seed=18 dur=25s steady=8s",
    "nimbus(delay=copa)@96M vs cubic seed=18 dur=25s steady=8s",
    "nimbus(delay=vegas)@96M vs cubic seed=18 dur=25s steady=8s",
    "nimbus(switch=never)@96M vs cubic seed=18 dur=25s steady=8s",
    "nimbus(mu=learned)@96M vs cubic seed=18 dur=25s steady=8s",
];

/// Every learned-µ wrapper flavour, pinned on the hardwired max-filter
/// estimator that preceded the pluggable µ-estimation API.  The sinusoid and
/// cellular cells pin its *degraded* behaviour (delay fraction 0.17,
/// 0.12 Mbit/s), because the default strategy must reproduce even the
/// failure modes exactly — the fixes ride on non-default strategies.
pub const PRE_API: &[&str] = &[
    "nimbus(mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
    "nimbus(delay=copa,mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
    "nimbus(delay=vegas,mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
    "nimbus(competitive=reno,mu=learned)@48M vs alone seed=41 dur=20s steady=6s",
    "nimbus(mu=learned,switch=never)@48M vs alone seed=41 dur=20s steady=6s",
    "nimbus(mu=learned)@96M vs cubic seed=42 dur=25s steady=8s",
    "nimbus(mu=learned)@48M sin(0.1,10s) vs alone seed=43 dur=30s steady=10s",
    "nimbus(mu=learned)@48M trace-cellular vs alone seed=44 dur=30s steady=10s",
];

/// Canonical string and recorder fingerprint of every ledger cell: the matrix
/// in its order, then [`PRE_REDESIGN`], then [`PRE_API`].  Each value was
/// captured before a refactor it guards (the first 18 on the
/// single-bottleneck engine before paths existed) and every later change has
/// reproduced it byte for byte.
///
/// The rows whose detector yields a verdict were re-pinned when η moved from
/// the per-report FFT to the sliding DFT (`eta_series` is hashed at full
/// precision and moved by ≤ 1e-12 relative), and every row when the hash
/// stopped covering the per-packet delays, the per-hop mark series and four
/// unread metrics; `FINGERPRINTS.md` has the per-cell diffs — recorder
/// output, verdicts and mode logs all identical.
#[rustfmt::skip]
pub const FINGERPRINTS: &[(&str, u64)] = &[
    ("cubic@48M vs alone seed=3 dur=30s steady=8s", 0x35c53710490de6b5),
    ("cubic@48M vs alone seed=11 dur=30s steady=8s", 0x35c53710490de6b5),
    ("vegas@48M vs alone seed=3 dur=30s steady=8s", 0xc08747e7e12e8c29),
    ("vegas@48M vs alone seed=11 dur=30s steady=8s", 0xc08747e7e12e8c29),
    ("vegas@96M vs cubic seed=5 dur=40s steady=15s", 0x315fc6f45efc31bb),
    ("vegas@96M vs cubic seed=13 dur=40s steady=15s", 0x315fc6f45efc31bb),
    ("nimbus@96M vs cbr@0.8333333333333334 seed=4 dur=40s steady=10s", 0x07ae3b3844acd516),
    ("nimbus@96M vs cbr@0.8333333333333334 seed=12 dur=40s steady=10s", 0x07ae3b3844acd516),
    ("nimbus@48M vs poisson@0.5 seed=1 dur=30s steady=8s", 0xa2b7d236a936938e),
    ("nimbus@48M vs poisson@0.5 seed=9 dur=30s steady=8s", 0xeeeb9a3c440e0b2a),
    ("nimbus@48M vs cubic seed=2 dur=45s steady=15s", 0x01e5acc5c210808f),
    ("nimbus@48M vs cubic seed=10 dur=45s steady=15s", 0x01e5acc5c210808f),
    ("nimbus@48M vs alone seed=6 dur=30s steady=8s", 0x9cae1ecf0a943447),
    ("nimbus@48M vs alone seed=14 dur=30s steady=8s", 0x9cae1ecf0a943447),
    ("nimbus(mu=learned)@48M sin(0.25,20s) vs alone seed=7 dur=40s steady=15s", 0x30678f0ae556f5f2),
    ("nimbus@48M sin(0.1,10s) vs alone seed=8 dur=40s steady=10s", 0x8e3e8336520fe7e3),
    ("cubic@96M step(15s,0.5) vs alone seed=9 dur=40s steady=22s", 0x350624eecba0f9d7),
    ("nimbus@96M step(15s,0.5) vs alone seed=9 dur=40s steady=22s", 0xd7453e92047f636e),
    ("nimbus@48M hop(0.6) vs alone seed=21 dur=40s steady=10s", 0xa0281c8a7387eae6),
    ("cubic@48M hop(0.6) vs alone seed=21 dur=40s steady=10s", 0x2db74d5bf6d9b9ff),
    ("cubic@48M step(15s,0.5) hop(0.5,sched=step(15s,2)) vs alone seed=25 dur=40s steady=10s", 0xbb1a8f5c47fafd9b),
    ("nimbus@48M step(15s,0.5) hop(0.5,sched=step(15s,2)) vs alone seed=25 dur=40s steady=10s", 0x0ce0af277a79f4a8),
    ("nimbus(mu=learned)@48M sin(0.1,10s) hop(0.6) vs alone seed=27 dur=40s steady=15s", 0xccca7f5e8dff24a3),
    ("nimbus@48M hop(0.5) vs cubic@hop0-0 seed=29 dur=45s steady=15s", 0x4c6d3dacaa451519),
    ("nimbus@48M hop(0.6) vs cubic@hop0-0 seed=31 dur=45s steady=15s", 0x69a7272628f383fb),
    ("nimbus(competitive=reno)@48M vs cubic seed=35 dur=45s steady=15s", 0x3393a3bdd3900612),
    ("nimbus(delay=copa,mu=learned)@48M vs alone seed=36 dur=40s steady=15s", 0xf58e323c086d4ac9),
    ("nimbus@96M vs copa+cubic seed=37 dur=45s steady=15s", 0xe16cbd0ef99ecac2),
    ("cubic@48M trace-wifi vs alone seed=38 dur=30s steady=8s", 0x351eb706d3545584),
    ("cubic@48M trace-cellular vs alone seed=39 dur=30s steady=8s", 0x396814e3bce482da),
    ("nimbus(mu=learned(probe=1))@48M trace-cellular vs alone seed=44 dur=40s steady=10s", 0x452eaac601cf242a),
    ("nimbus(mu=learned,zfilter=adaptive)@48M sin(0.1,10s) vs alone seed=43 dur=40s steady=10s", 0xd6c25c2c73298544),
    ("nimbus(mu=learned,zfilter=adaptive)@96M vs cubic seed=42 dur=45s steady=15s", 0xfd87f311b50f6463),
    ("nimbus(mu=learned(probe=1))@48M vs alone seed=45 dur=40s steady=10s", 0x55a096a020e3d5a1),
    ("nimbus(mu=learned(probe=1,quiesce=0.4))@48M vs alone seed=45 dur=40s steady=10s", 0xab1a13a06cd65390),
    ("nimbus(mu=learned(probe=1,quiesce=0.4))@48M vs cubic seed=45 dur=40s steady=10s", 0x862bc2eecd443caf),
    ("nimbus(mu=learned(probe=1))@48M vs cubic seed=45 dur=40s steady=10s", 0x1e0a0df1897af075),
    ("nimbus(delay=copa,mu=learned,zfilter=adaptive)@48M sin(0.1,10s) vs alone seed=43 dur=40s steady=10s", 0x0c8d36536bce52df),
    ("nimbus@48M vs fleet(arrivals=poisson,load=0.4,mean=20k) seed=51 dur=40s steady=10s", 0xd228009c29e05110),
    ("nimbus@48M vs fleet(arrivals=bursty,load=0.4,mean=20k) seed=51 dur=40s steady=10s", 0x36ade4a7d1393800),
    ("nimbus@48M vs fleet(arrivals=poisson,load=0.5) seed=52 dur=40s steady=10s", 0x9157c0e7598c32b2),
    ("cubic@48M vs fleet(arrivals=poisson,load=0.5) seed=52 dur=40s steady=10s", 0x9b142b1fd5111d97),
    ("dctcp@48M vs alone ecn=l4s seed=61 dur=30s steady=8s", 0x6036a8c96c5400e0),
    ("dctcp@48M vs alone seed=61 dur=30s steady=8s", 0xa3ee51e8003f409f),
    ("cubic@48M vs alone ecn=classic seed=61 dur=30s steady=8s", 0x23c0cb1c6493cd3f),
    ("nimbus@48M vs alone ecn=l4s seed=62 dur=40s steady=10s", 0x19fb8d43d03b0593),
    ("nimbus@48M vs dctcp ecn=l4s seed=2 dur=45s steady=15s", 0x08619ed63e7e650e),
    ("nimbus(competitive=dctcp)@48M vs dctcp ecn=classic seed=2 dur=45s steady=15s", 0x0332b60da618789f),
    ("nimbus@48M vs cubic ecn=classic seed=2 dur=45s steady=15s", 0x05d2cd9e4d805f89),
    ("dctcp@48M vs cubic ecn=classic seed=65 dur=45s steady=15s", 0x52e2f27b52e1542a),
    ("nimbus@48M vs alone seed=17 dur=20s steady=6s", 0x1a628a7e6fde8629),
    ("nimbus(delay=copa)@48M vs alone seed=17 dur=20s steady=6s", 0x06db9d9664575e8e),
    ("nimbus(delay=vegas)@48M vs alone seed=17 dur=20s steady=6s", 0xa7d0a73834748648),
    ("nimbus(switch=never)@48M vs alone seed=17 dur=20s steady=6s", 0xb899016853ac553d),
    ("nimbus(mu=learned)@48M vs alone seed=17 dur=20s steady=6s", 0x6ad271f22b8d9996),
    ("cubic@48M vs alone seed=17 dur=20s steady=6s", 0xf4a7bf8af3f06994),
    ("newreno@48M vs alone seed=17 dur=20s steady=6s", 0x6491ccb6c97ca0b6),
    ("vegas@48M vs alone seed=17 dur=20s steady=6s", 0x082553c19bb2aafc),
    ("copa@48M vs alone seed=17 dur=20s steady=6s", 0x661f2921d8475356),
    ("bbr@48M vs alone seed=17 dur=20s steady=6s", 0x17a2813983161663),
    ("vivace@48M vs alone seed=17 dur=20s steady=6s", 0xe99f1fd54220a1c2),
    ("compound@48M vs alone seed=17 dur=20s steady=6s", 0x1b5d74dbda8b577e),
    ("nimbus@96M vs cubic seed=18 dur=25s steady=8s", 0xb979671ca2c006e7),
    ("nimbus(delay=copa)@96M vs cubic seed=18 dur=25s steady=8s", 0xb4fe24139de7e046),
    ("nimbus(delay=vegas)@96M vs cubic seed=18 dur=25s steady=8s", 0x3745e8a05b12fe37),
    ("nimbus(switch=never)@96M vs cubic seed=18 dur=25s steady=8s", 0x018423d886daea48),
    ("nimbus(mu=learned)@96M vs cubic seed=18 dur=25s steady=8s", 0xbde7800e3f00ef57),
    ("nimbus(mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0x6ad271f22b8d9996),
    ("nimbus(delay=copa,mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0x46eb3c5e62a74319),
    ("nimbus(delay=vegas,mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0xcbff622d473779e8),
    ("nimbus(competitive=reno,mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0x367edb3fc6ee68a4),
    ("nimbus(mu=learned,switch=never)@48M vs alone seed=41 dur=20s steady=6s", 0xb59ca001ff7399da),
    ("nimbus(mu=learned)@96M vs cubic seed=42 dur=25s steady=8s", 0xbde7800e3f00ef57),
    ("nimbus(mu=learned)@48M sin(0.1,10s) vs alone seed=43 dur=30s steady=10s", 0xd14c575bde737049),
    ("nimbus(mu=learned)@48M trace-cellular vs alone seed=44 dur=30s steady=10s", 0xf435bb235f3aa7c7),
];

/// Parses a slice of pinned cell strings.
pub fn cells(texts: &[&str]) -> Vec<Cell> {
    texts
        .iter()
        .map(|text| text.parse().expect("pinned cell parses"))
        .collect()
}

/// Panics unless every outcome reproduces its row of [`FINGERPRINTS`] and
/// every row is a ledger cell.  The message lists each `missing` row (pinned,
/// no such cell), `extra` row (run, not pinned) and `changed` row
/// (`old → new`), then the whole table with those rows fixed, to paste.
pub fn assert_pinned(outcomes: &[CellOutcome]) {
    let ledger_cells: Vec<String> = paper_invariant_matrix()
        .iter()
        .chain(&cells(PRE_REDESIGN))
        .chain(&cells(PRE_API))
        .map(Cell::to_string)
        .collect();
    let is_cell = |name: &str| ledger_cells.iter().any(|n| n == name);
    let pinned = |name: &str| FINGERPRINTS.iter().find(|row| row.0 == name);
    let observed = |name: &str| outcomes.iter().find(|o| o.name == name);
    let mut diff: Vec<String> = FINGERPRINTS
        .iter()
        .filter(|(name, _)| !is_cell(name))
        .map(|(name, _)| format!("missing  {name}"))
        .collect();
    for o in outcomes {
        match pinned(&o.name) {
            None => diff.push(format!("extra    {} = {:#018x}", o.name, o.fingerprint)),
            Some(&(_, old)) if old != o.fingerprint => diff.push(format!(
                "changed  {}: {old:#018x} → {:#018x}",
                o.name, o.fingerprint
            )),
            Some(_) => {}
        }
    }
    if diff.is_empty() {
        return;
    }
    let rows = FINGERPRINTS
        .iter()
        .filter(|(name, _)| is_cell(name))
        .map(|&(name, old)| (name, observed(name).map_or(old, |o| o.fingerprint)))
        .chain(
            outcomes
                .iter()
                .filter(|o| pinned(&o.name).is_none())
                .map(|o| (o.name.as_str(), o.fingerprint)),
        );
    let table: String = rows
        .map(|(name, fp)| format!("    (\"{name}\", {fp:#018x}),\n"))
        .collect();
    panic!(
        "the fingerprint ledger moved:\n{}\n\nreplacement FINGERPRINTS table \
         (record why in FINGERPRINTS.md first):\n{table}",
        diff.join("\n")
    );
}
