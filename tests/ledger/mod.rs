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
    ("cubic@48M vs alone seed=3 dur=30s steady=8s", 0x257d54666a6204a3),
    ("cubic@48M vs alone seed=11 dur=30s steady=8s", 0x257d54666a6204a3),
    ("vegas@48M vs alone seed=3 dur=30s steady=8s", 0xac3add0aac6a313e),
    ("vegas@48M vs alone seed=11 dur=30s steady=8s", 0xac3add0aac6a313e),
    ("vegas@96M vs cubic seed=5 dur=40s steady=15s", 0x429ce31cdd45b64d),
    ("vegas@96M vs cubic seed=13 dur=40s steady=15s", 0x429ce31cdd45b64d),
    ("nimbus@96M vs cbr@0.8333333333333334 seed=4 dur=40s steady=10s", 0x2b499aa562783b6e),
    ("nimbus@96M vs cbr@0.8333333333333334 seed=12 dur=40s steady=10s", 0x2b499aa562783b6e),
    ("nimbus@48M vs poisson@0.5 seed=1 dur=30s steady=8s", 0xa2241741bca924b6),
    ("nimbus@48M vs poisson@0.5 seed=9 dur=30s steady=8s", 0x346840cd37f2875e),
    ("nimbus@48M vs cubic seed=2 dur=45s steady=15s", 0xb80288712dadb7a2),
    ("nimbus@48M vs cubic seed=10 dur=45s steady=15s", 0xb80288712dadb7a2),
    ("nimbus@48M vs alone seed=6 dur=30s steady=8s", 0x31c4d48992a4ab0a),
    ("nimbus@48M vs alone seed=14 dur=30s steady=8s", 0x31c4d48992a4ab0a),
    ("nimbus(mu=learned)@48M sin(0.25,20s) vs alone seed=7 dur=40s steady=15s", 0xc12342f8bc694a09),
    ("nimbus@48M sin(0.1,10s) vs alone seed=8 dur=40s steady=10s", 0xbfcb38fde6fa9695),
    ("cubic@96M step(15s,0.5) vs alone seed=9 dur=40s steady=22s", 0x3f435f896ddcfa06),
    ("nimbus@96M step(15s,0.5) vs alone seed=9 dur=40s steady=22s", 0x5bdcd7623541a34e),
    ("nimbus@48M hop(0.6) vs alone seed=21 dur=40s steady=10s", 0x17f49fd3a1841a5b),
    ("cubic@48M hop(0.6) vs alone seed=21 dur=40s steady=10s", 0xae136ac773580814),
    ("cubic@48M step(15s,0.5) hop(0.5,sched=step(15s,2)) vs alone seed=25 dur=40s steady=10s", 0x7d59229eb444f015),
    ("nimbus@48M step(15s,0.5) hop(0.5,sched=step(15s,2)) vs alone seed=25 dur=40s steady=10s", 0xc9035cb9035b254c),
    ("nimbus(mu=learned)@48M sin(0.1,10s) hop(0.6) vs alone seed=27 dur=40s steady=15s", 0x32985933bf7b8828),
    ("nimbus@48M hop(0.5) vs cubic@hop0-0 seed=29 dur=45s steady=15s", 0x66d9aac9b4256620),
    ("nimbus@48M hop(0.6) vs cubic@hop0-0 seed=31 dur=45s steady=15s", 0x43a024bbd2821d6c),
    ("nimbus(competitive=reno)@48M vs cubic seed=35 dur=45s steady=15s", 0x249d11dc536743db),
    ("nimbus(delay=copa,mu=learned)@48M vs alone seed=36 dur=40s steady=15s", 0xa8d22c4daa5fdfcd),
    ("nimbus@96M vs copa+cubic seed=37 dur=45s steady=15s", 0xdefb5d85e6707d0a),
    ("cubic@48M trace-wifi vs alone seed=38 dur=30s steady=8s", 0xb0c4c3a975c265e7),
    ("cubic@48M trace-cellular vs alone seed=39 dur=30s steady=8s", 0xccf3d3c6dfcb1e5c),
    ("nimbus(mu=learned(probe=1))@48M trace-cellular vs alone seed=44 dur=40s steady=10s", 0xbdbdeac059b6bf3c),
    ("nimbus(mu=learned,zfilter=adaptive)@48M sin(0.1,10s) vs alone seed=43 dur=40s steady=10s", 0x559c1e1551f89c28),
    ("nimbus(mu=learned,zfilter=adaptive)@96M vs cubic seed=42 dur=45s steady=15s", 0x7afcb4c538f8b1f9),
    ("nimbus(mu=learned(probe=1))@48M vs alone seed=45 dur=40s steady=10s", 0x245ecd3171470cc1),
    ("nimbus(mu=learned(probe=1,quiesce=0.4))@48M vs alone seed=45 dur=40s steady=10s", 0x8d8a32097e68f9c9),
    ("nimbus(mu=learned(probe=1,quiesce=0.4))@48M vs cubic seed=45 dur=40s steady=10s", 0xd8f443a85eaeb25b),
    ("nimbus(mu=learned(probe=1))@48M vs cubic seed=45 dur=40s steady=10s", 0xa4ce4f0886538043),
    ("nimbus(delay=copa,mu=learned,zfilter=adaptive)@48M sin(0.1,10s) vs alone seed=43 dur=40s steady=10s", 0x9364b52021f427c9),
    ("nimbus@48M vs fleet(arrivals=poisson,load=0.4,mean=20k) seed=51 dur=40s steady=10s", 0x32d7408a369f2a26),
    ("nimbus@48M vs fleet(arrivals=bursty,load=0.4,mean=20k) seed=51 dur=40s steady=10s", 0x3a8b9f5ac477e2e2),
    ("nimbus@48M vs fleet(arrivals=poisson,load=0.5) seed=52 dur=40s steady=10s", 0xf28a02a8b15032e5),
    ("cubic@48M vs fleet(arrivals=poisson,load=0.5) seed=52 dur=40s steady=10s", 0xb413fb7918acfcf5),
    ("dctcp@48M vs alone ecn=l4s seed=61 dur=30s steady=8s", 0xb9f4e9b43091126c),
    ("dctcp@48M vs alone seed=61 dur=30s steady=8s", 0x553ad2631e9af255),
    ("cubic@48M vs alone ecn=classic seed=61 dur=30s steady=8s", 0xe8603ead57e24ae2),
    ("nimbus@48M vs alone ecn=l4s seed=62 dur=40s steady=10s", 0x984251fe184af2a4),
    ("nimbus@48M vs dctcp ecn=l4s seed=2 dur=45s steady=15s", 0x7a26e5207fc6e5ad),
    ("nimbus(competitive=dctcp)@48M vs dctcp ecn=classic seed=2 dur=45s steady=15s", 0x14aa5fb955335758),
    ("nimbus@48M vs cubic ecn=classic seed=2 dur=45s steady=15s", 0x2cb3a1c27a0597ee),
    ("dctcp@48M vs cubic ecn=classic seed=65 dur=45s steady=15s", 0x47643c834192ffeb),
    ("nimbus@48M vs alone seed=17 dur=20s steady=6s", 0x128f9a782e1b4d63),
    ("nimbus(delay=copa)@48M vs alone seed=17 dur=20s steady=6s", 0x5dd0a6f754a25394),
    ("nimbus(delay=vegas)@48M vs alone seed=17 dur=20s steady=6s", 0x28bac5360134bc63),
    ("nimbus(switch=never)@48M vs alone seed=17 dur=20s steady=6s", 0xf66b0e1678dd39ef),
    ("nimbus(mu=learned)@48M vs alone seed=17 dur=20s steady=6s", 0xd23eb94677775c2e),
    ("cubic@48M vs alone seed=17 dur=20s steady=6s", 0x6c6b52b1468a3a16),
    ("newreno@48M vs alone seed=17 dur=20s steady=6s", 0xbffa69ad5cf9aef3),
    ("vegas@48M vs alone seed=17 dur=20s steady=6s", 0x7957f214b9aa3d24),
    ("copa@48M vs alone seed=17 dur=20s steady=6s", 0xcc3110a05b4b8c92),
    ("bbr@48M vs alone seed=17 dur=20s steady=6s", 0x0ce1dbde488fba85),
    ("vivace@48M vs alone seed=17 dur=20s steady=6s", 0x05fd2832b4347b53),
    ("compound@48M vs alone seed=17 dur=20s steady=6s", 0x48f0a899846f9637),
    ("nimbus@96M vs cubic seed=18 dur=25s steady=8s", 0x5833e52aabd1b963),
    ("nimbus(delay=copa)@96M vs cubic seed=18 dur=25s steady=8s", 0x513d52e8fc7fa9da),
    ("nimbus(delay=vegas)@96M vs cubic seed=18 dur=25s steady=8s", 0x880b01273df310f7),
    ("nimbus(switch=never)@96M vs cubic seed=18 dur=25s steady=8s", 0x789ef7f37a7b1aae),
    ("nimbus(mu=learned)@96M vs cubic seed=18 dur=25s steady=8s", 0xf943ac5a3a52da10),
    ("nimbus(mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0xd23eb94677775c2e),
    ("nimbus(delay=copa,mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0x60d02927d9d6e906),
    ("nimbus(delay=vegas,mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0xb2014dbdea6cc63e),
    ("nimbus(competitive=reno,mu=learned)@48M vs alone seed=41 dur=20s steady=6s", 0x484fb839091aa0d4),
    ("nimbus(mu=learned,switch=never)@48M vs alone seed=41 dur=20s steady=6s", 0xdf03184d67593d7a),
    ("nimbus(mu=learned)@96M vs cubic seed=42 dur=25s steady=8s", 0xf943ac5a3a52da10),
    ("nimbus(mu=learned)@48M sin(0.1,10s) vs alone seed=43 dur=30s steady=10s", 0x00e5f90352dd8c4d),
    ("nimbus(mu=learned)@48M trace-cellular vs alone seed=44 dur=30s steady=10s", 0xf760e7e707d15493),
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
