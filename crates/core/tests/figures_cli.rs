//! `noc-cli figures` end to end: the dumps it writes are byte-equal to
//! the library's rendering, and a bad ID or `NOC_FIGURE_MODE` fails
//! before anything is written.

use noc_core::figures;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `noc-cli figures <ids>` in a fresh working directory with the
/// given `NOC_FIGURE_MODE`, and returns the directory and the output.
fn run_figures(ids: &[&str], mode: &str) -> (PathBuf, Output) {
    let dir = noc_core::cache::unique_temp_dir("noc-cli-figures");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg("figures")
        .args(ids)
        .current_dir(&dir)
        .env("NOC_FIGURE_MODE", mode)
        .env("NOC_CACHE", "0")
        .output()
        .unwrap();
    (dir, out)
}

fn read(dir: &Path, file: &str) -> String {
    std::fs::read_to_string(dir.join("results").join(file)).unwrap()
}

#[test]
fn analytical_figures_match_the_library() {
    let (dir, out) = run_figures(&["fig2", "fig_tables"], "quick");
    assert!(out.status.success(), "{out:?}");
    let expected = [
        figures::fig2(64),
        figures::table_links(&[8, 12, 16, 24, 32, 48, 64]),
    ];
    let mut written: Vec<_> = std::fs::read_dir(dir.join("results"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    assert_eq!(
        written,
        [
            "fig2.csv",
            "fig2.json",
            "table-links.csv",
            "table-links.json"
        ]
    );
    for figure in &expected {
        assert_eq!(read(&dir, &format!("{}.csv", figure.id)), figure.to_csv());
        assert_eq!(read(&dir, &format!("{}.json", figure.id)), figure.to_json());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_id_prints_usage_and_writes_nothing() {
    let (dir, out) = run_figures(&["fig2", "fig4"], "quick");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure `fig4`"), "{stderr}");
    assert!(stderr.contains("usage: noc-cli figures"), "{stderr}");
    assert!(!dir.join("results").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_mode_is_rejected_before_any_work() {
    let (dir, out) = run_figures(&["fig2"], "Quick");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("NOC_FIGURE_MODE"), "{stderr}");
    assert!(!dir.join("results").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
