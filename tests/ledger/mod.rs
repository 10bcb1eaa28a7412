//! The fingerprint ledger.  One table, [`FINGERPRINTS`], keys the recorder
//! fingerprint of every pinned cell by `Cell::name()`.  Each pinned cell is
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

/// `Cell::name()` and recorder fingerprint of every ledger cell: the matrix
/// in its order, then [`PRE_REDESIGN`], then [`PRE_API`].  Each value was
/// captured before a refactor it guards (the first 18 on the
/// single-bottleneck engine before paths existed) and every later change has
/// reproduced it byte for byte.
///
/// The rows whose detector yields a verdict were re-pinned when η moved from
/// the per-report FFT to the sliding DFT (`eta_series` is hashed at full
/// precision and moved by ≤ 1e-12 relative); `FINGERPRINTS.md` has the
/// per-cell diff — recorder output, verdicts and mode logs all identical.
#[rustfmt::skip]
pub const FINGERPRINTS: &[(&str, u64)] = &[
    ("cubic@48M-vs-alone-seed3", 0xc9b047b3b3ca9a57),
    ("cubic@48M-vs-alone-seed11", 0xc9b047b3b3ca9a57),
    ("vegas@48M-vs-alone-seed3", 0x83faf44e9ea9526c),
    ("vegas@48M-vs-alone-seed11", 0x83faf44e9ea9526c),
    ("vegas@96M-vs-cubic-seed5", 0xdbcef018cbc67b16),
    ("vegas@96M-vs-cubic-seed13", 0xdbcef018cbc67b16),
    ("nimbus@96M-vs-cbr83-seed4", 0x8dd12444f867e852),
    ("nimbus@96M-vs-cbr83-seed12", 0x8dd12444f867e852),
    ("nimbus@48M-vs-poisson50-seed1", 0x496fcfd0e58fb842),
    ("nimbus@48M-vs-poisson50-seed9", 0x757cffc216460e7f),
    ("nimbus@48M-vs-cubic-seed2", 0x9664db6d009d9a87),
    ("nimbus@48M-vs-cubic-seed10", 0x9664db6d009d9a87),
    ("nimbus@48M-vs-alone-seed6", 0xa046f599e5fb953c),
    ("nimbus@48M-vs-alone-seed14", 0xa046f599e5fb953c),
    ("nimbus-estmu@48M-sin25p20-vs-alone-seed7", 0x015188cd43f51c51),
    ("nimbus@48M-sin10p10-vs-alone-seed8", 0x85f2d107a16689c7),
    ("cubic@96M-step50@15-vs-alone-seed9", 0xc49ea25d2c814422),
    ("nimbus@96M-step50@15-vs-alone-seed9", 0xfbb1320dd5da6f81),
    ("nimbus@48M-2hop60-vs-alone-seed21", 0x9bd7724f5b41754e),
    ("cubic@48M-2hop60-vs-alone-seed21", 0xcc5e55a3127ff561),
    ("cubic@48M-step50@15-2hop50mv-vs-alone-seed25", 0x87c633e62384614f),
    ("nimbus@48M-step50@15-2hop50mv-vs-alone-seed25", 0xe5d2edd9dfa79be5),
    ("nimbus-estmu@48M-sin10p10-2hop60-vs-alone-seed27", 0x26ae80380e486ee8),
    ("nimbus@48M-2hop50-vs-cubic-hop0-seed29", 0x7303b2c4d11ed724),
    ("nimbus@48M-2hop60-vs-cubic-hop0-seed31", 0xad19826946f82466),
    ("nimbus-reno@48M-vs-cubic-seed35", 0x4ac3650c758cad7b),
    ("nimbus-copa-estmu@48M-vs-alone-seed36", 0xdb763a9cb7bde625),
    ("nimbus@96M-vs-copa+cubic-seed37", 0x101e815d5c4b9ecc),
    ("cubic@48M-trace-wifi-vs-alone-seed38", 0x125080aaa395d13a),
    ("cubic@48M-trace-cellular-vs-alone-seed39", 0xcf0938394bcca9bf),
    ("nimbus-estmu-probe1@48M-trace-cellular-vs-alone-seed44", 0x410676ab4cadeb7b),
    ("nimbus-estmu-zadapt@48M-sin10p10-vs-alone-seed43", 0xacd5fe7180892704),
    ("nimbus-estmu-zadapt@96M-vs-cubic-seed42", 0x6fcaaa51a5db2e29),
    ("nimbus-estmu-probe1@48M-vs-alone-seed45", 0x646bb324dc5dcd5c),
    ("nimbus-estmu-probe1q0.4@48M-vs-alone-seed45", 0x27101c4acd64d75d),
    ("nimbus-estmu-probe1q0.4@48M-vs-cubic-seed45", 0x2b7f5300e8b35139),
    ("nimbus-estmu-probe1@48M-vs-cubic-seed45", 0x2c6d3fd757bf3427),
    ("nimbus-copa-estmu-zadapt@48M-sin10p10-vs-alone-seed43", 0x6ca610b4ba1cb368),
    ("nimbus@48M-vs-fleet-poisson-l40-m20k-seed51", 0x749384456332588f),
    ("nimbus@48M-vs-fleet-bursty-l40-m20k-seed51", 0x5cfed044991675c1),
    ("nimbus@48M-vs-fleet-poisson-l50-seed52", 0x67c2630ce655382e),
    ("cubic@48M-vs-fleet-poisson-l50-seed52", 0xce395328997e7ec5),
    ("dctcp@48M-l4s-vs-alone-seed61", 0x345e7bd3fe8c45ca),
    ("dctcp@48M-vs-alone-seed61", 0xb13720842d456fc3),
    ("cubic@48M-ecn-vs-alone-seed61", 0xe1407c6e5c7cf84e),
    ("nimbus@48M-l4s-vs-alone-seed62", 0x9cb2c6e4d0497c3e),
    ("nimbus@48M-l4s-vs-dctcp-seed2", 0x843ddb6fbdd25c96),
    ("nimbus-dctcp@48M-ecn-vs-dctcp-seed2", 0xbeec8c3f8c571c46),
    ("nimbus@48M-ecn-vs-cubic-seed2", 0xc57aabfc9e09fe96),
    ("dctcp@48M-ecn-vs-cubic-seed65", 0x477997875d2f6916),
    ("nimbus@48M-vs-alone-seed17", 0x9daf1fdfe15a0acc),
    ("nimbus-copa@48M-vs-alone-seed17", 0x5f41e0d2a01c2a1b),
    ("nimbus-vegas@48M-vs-alone-seed17", 0x3a5af2429c2df5b0),
    ("nimbus-delay@48M-vs-alone-seed17", 0x39dbcd0866d6e410),
    ("nimbus-estmu@48M-vs-alone-seed17", 0x8404ff5bab056907),
    ("cubic@48M-vs-alone-seed17", 0x468305ac73be07af),
    ("newreno@48M-vs-alone-seed17", 0x7658b2ca552df73a),
    ("vegas@48M-vs-alone-seed17", 0xe403a5a46156d992),
    ("copa@48M-vs-alone-seed17", 0x8732aa98b0df0887),
    ("bbr@48M-vs-alone-seed17", 0x70282d8c84a358b9),
    ("pcc-vivace@48M-vs-alone-seed17", 0x0570645ce6cf0ee4),
    ("compound@48M-vs-alone-seed17", 0xc3624d30681e4d88),
    ("nimbus@96M-vs-cubic-seed18", 0x8c301ace89c63244),
    ("nimbus-copa@96M-vs-cubic-seed18", 0xf40e65d76c0ec1a6),
    ("nimbus-vegas@96M-vs-cubic-seed18", 0x45059872698f1e48),
    ("nimbus-delay@96M-vs-cubic-seed18", 0x5c754b34039df50f),
    ("nimbus-estmu@96M-vs-cubic-seed18", 0xf567457982251b7b),
    ("nimbus-estmu@48M-vs-alone-seed41", 0x8404ff5bab056907),
    ("nimbus-copa-estmu@48M-vs-alone-seed41", 0xed2685754fd494d1),
    ("nimbus-vegas-estmu@48M-vs-alone-seed41", 0xcb375f8b1d867f84),
    ("nimbus-reno-estmu@48M-vs-alone-seed41", 0x2f938fad8f54c9c9),
    ("nimbus-delay-estmu@48M-vs-alone-seed41", 0xa2e8ad19a2982eab),
    ("nimbus-estmu@96M-vs-cubic-seed42", 0xf567457982251b7b),
    ("nimbus-estmu@48M-sin10p10-vs-alone-seed43", 0x94fdd57bbea2d852),
    ("nimbus-estmu@48M-trace-cellular-vs-alone-seed44", 0x4ab456cd436dc519),
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
        .map(Cell::name)
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
