//! Integration tests for the `datalens` CLI binary: every subcommand is
//! driven as a real subprocess the way a user would.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn datalens(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_datalens"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// A demo CSV file, deleted on drop.
struct DemoCsv(std::path::PathBuf);

impl DemoCsv {
    fn path(&self) -> &str {
        self.0.to_str().expect("temp path is UTF-8")
    }
}

impl Drop for DemoCsv {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// A fresh demo CSV per call: tests run in parallel, and rewriting one
/// shared file while another test's subprocess reads it truncates it.
fn demo_csv() -> DemoCsv {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "datalens_cli_{}_{}.csv",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(
        &path,
        "zip,city,pop\n1,ulm,120\n1,ulm,120\n2,bonn,99999\n2,bonn,330\n1,oops,\n",
    )
    .expect("write demo csv");
    DemoCsv(path)
}

#[test]
fn datasets_lists_preloaded() {
    let out = datalens(&["datasets"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for name in ["nasa", "beers", "hospital"] {
        assert!(text.contains(name), "missing {name} in {text}");
    }
}

#[test]
fn profile_renders_tab() {
    let csv = demo_csv();
    let out = datalens(&["profile", csv.path()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Data Profile"));
    assert!(text.contains("pop"));
}

#[test]
fn rules_with_approx_flag() {
    let csv = demo_csv();
    let out = datalens(&["rules", csv.path(), "--approx", "0.3"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("-> "), "{text}");
}

#[test]
fn detect_with_tags_and_rules() {
    let csv = demo_csv();
    let out = datalens(&[
        "detect",
        csv.path(),
        "--tools",
        "mv_detector,nadeef",
        "--tag",
        "99999",
        "--rule",
        "zip determines city",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Error Detection Results"));
    assert!(text.contains("Why were these cells flagged?"));
    assert!(text.contains("nadeef"));
}

#[test]
fn repair_writes_output_file() {
    let csv = demo_csv();
    let out_path =
        std::env::temp_dir().join(format!("datalens_cli_out_{}.csv", std::process::id()));
    let out = datalens(&[
        "repair",
        csv.path(),
        "--tools",
        "mv_detector,sd",
        "--repairer",
        "standard_imputer",
        "-o",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&out_path).expect("output file exists");
    // The null pop cell was imputed: no empty trailing field remains.
    assert!(
        !written.lines().skip(1).any(|l| l.ends_with(',')),
        "{written}"
    );
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = datalens(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = datalens(&["profile", "/nonexistent/x.csv"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn malformed_numeric_flags_are_rejected() {
    let csv = demo_csv();
    for (args, flag) in [
        (vec!["profile", csv.path(), "--threads", "x"], "--threads"),
        (vec!["serve", "--port", "80a"], "--port"),
    ] {
        let out = datalens(&args);
        assert!(!out.status.success(), "{args:?} succeeded");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("invalid {flag}")), "{args:?}: {err}");
    }
}
