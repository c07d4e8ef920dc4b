//! `noc-cli run` end to end: a spec whose configuration is out of range
//! reports `invalid configuration` and exits non-zero instead of
//! panicking, aborting or printing NaN statistics, and `--audit` runs
//! the auditor and reports what it checked.

use std::process::{Command, Output};

/// Runs `noc-cli run` with `flags` on the example spec (one config
/// field per line), with the config field `field` set to `value`.
fn run_with(field: &str, value: &str, flags: &[&str]) -> Output {
    let example = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg("example")
        .output()
        .unwrap();
    assert!(example.status.success(), "{example:?}");
    let key = format!("\"{field}\":");
    let mut edited = 0;
    let spec: Vec<String> = String::from_utf8(example.stdout)
        .unwrap()
        .lines()
        .map(|line| match line.find(&key) {
            Some(at) => {
                edited += 1;
                let comma = if line.ends_with(',') { "," } else { "" };
                format!("{}{key} {value}{comma}", &line[..at])
            }
            None => line.to_owned(),
        })
        .collect();
    assert_eq!(edited, 1, "the example spec has one {field} line");
    let dir = noc_core::cache::unique_temp_dir("noc-cli-run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.join("\n")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg("run")
        .arg(&path)
        .args(flags)
        .current_dir(&dir)
        .env("NOC_CACHE", "0")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

#[test]
fn out_of_range_configs_are_rejected_without_panicking() {
    for (field, value) in [
        ("output_buffer_capacity", "0"),
        ("output_buffer_capacity", "100000000000"),
        ("input_buffer_capacity", "0"),
        ("packet_len", "0"),
        ("sink_rate", "0"),
        ("measure_cycles", "0"),
    ] {
        let out = run_with(field, value, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let what = format!("{field} = {value}: {out:?}");
        assert!(!out.status.success(), "{what}");
        assert_eq!(out.status.code(), Some(1), "{what}");
        assert!(stderr.contains("invalid configuration"), "{what}");
        assert!(stderr.contains(field), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
        assert!(!stdout.contains("NaN"), "{what}");
    }
}

#[test]
fn the_example_spec_still_runs() {
    let out = run_with("measure_cycles", "500", &[]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn audited_run_reports_checks_and_flit_events() {
    // The example spec as printed (its seed set to the value it has).
    let out = run_with("seed", "42", &["--audit"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("audit: "))
        .unwrap_or_else(|| panic!("no audit line:\n{stdout}"));
    let words: Vec<&str> = line.split_whitespace().collect();
    let [_, checks, "checks,", events, "flit", "events,", "0", "violations"] = words[..] else {
        panic!("unexpected audit line: {line}");
    };
    let positive = |n: &str| n.parse::<u64>().is_ok_and(|n| n > 0);
    assert!(positive(checks) && positive(events), "{line}");
}
