//! The `nimbus-experiments` binary's flag handling, driven as a user would.

use std::path::Path;
use std::process::Command;

/// Run the binary in a fresh directory; returns the exit code, stderr and
/// the number of paths the run left behind.
fn run(tag: &str, args: &[&str]) -> (Option<i32>, String, usize) {
    let dir = std::env::temp_dir().join(format!("nimbus-cli-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_nimbus-experiments"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    let left = count_paths(&dir);
    std::fs::remove_dir_all(&dir).ok();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr, left)
}

fn count_paths(dir: &Path) -> usize {
    let paths = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    paths
        .map(|p| if p.is_dir() { 1 + count_paths(&p) } else { 1 })
        .sum()
}

#[test]
fn a_malformed_flag_exits_2_and_writes_nothing() {
    for (i, (message, args)) in [
        ("--out requires a value", &["fig07", "--out"][..]),
        ("--out requires a value", &["fig07", "--out", "--quick"]),
        ("--threads requires a value", &["sweep", "--threads"]),
        ("unknown flag: --fast", &["fig07", "--fast"]),
        // Flags without an experiment name run nothing.
        ("usage: nimbus-experiments", &["--quick", "--out", "figs"]),
        (
            "unknown flag: --timings",
            &["sweep", "--timings", "t.folded"],
        ),
        ("unknown flag: --thread", &["sweep", "--thread", "4"]),
        // The sweep runs the one paper matrix; it has no quick variant.
        ("unknown flag: --quick", &["sweep", "--quick"]),
        // Parsed, this notch would panic when the sweep builds its
        // controller: ẑ is sampled every 10 ms.
        (
            "must be below 50 Hz",
            &[
                "sweep",
                "nimbus(zfilter=notch(freq=60))@48M vs alone seed=1 dur=3s steady=1s",
            ],
        ),
        // Parsed, this cell would run and report a null throughput: its
        // steady-state window starts after the run ends.
        (
            "steady=5s must be before the end of the run, dur=1s",
            &["sweep", "nimbus@48M vs alone dur=1s steady=5s"],
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let (code, stderr, left) = run(&format!("bad{i}"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert_eq!(left, 0, "{args:?} wrote {left} paths");
    }
}

#[test]
fn out_takes_its_operand() {
    let (code, stderr, left) = run("good", &["fig07", "--out", "figs", "--quick"]);
    assert_eq!(code, Some(0), "{stderr}");
    // figs/, fig07.json and one CSV per series.
    assert!(left >= 3, "only {left} paths written");
}

#[test]
fn a_cell_operand_replaces_the_paper_matrix() {
    let cell = "dctcp@48M ecn=l4s vs alone seed=1 dur=3s steady=1s";
    let report = std::env::temp_dir().join(format!("nimbus-cli-{}-cell.json", std::process::id()));
    let (code, stderr, _) = run("cell", &["sweep", cell, "--out", report.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    let text = std::fs::read_to_string(&report).unwrap();
    std::fs::remove_file(&report).ok();
    let report: serde::Value = serde_json::from_str(&text).unwrap();
    assert_eq!(report.field("cell_count").unwrap().as_u64().unwrap(), 1);
    // The row carries the fingerprint the testkit computes for the cell.
    let row = &report.field("cells").unwrap().as_seq().unwrap()[0];
    let fingerprint = cell
        .parse::<nimbus_experiments::testkit::Cell>()
        .unwrap()
        .run()
        .fingerprint;
    assert_eq!(
        row.field("fingerprint").unwrap(),
        &serde::Value::Str(format!("{fingerprint:#018x}"))
    );
}

#[test]
fn list_may_follow_a_flag() {
    let (code, stderr, left) = run("list", &["--quick", "list"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(left, 0, "list wrote {left} paths");
}
