//! `noc-cli run` end to end: a spec whose configuration is out of range
//! reports `invalid configuration` and exits non-zero instead of
//! panicking, aborting or printing NaN statistics, and `--audit` runs
//! the auditor and reports what it checked. A run that delivers nothing
//! prints `mean hops -`, a rate that asks for more generated flits
//! than the simulator's budget fails at once instead of running for
//! hours, configuration keys that were retired are ignored, zero
//! replications fail with one message on every path, and a spec nested
//! too deep to parse, or starting with a byte-order mark, is an error,
//! not a stack overflow. The aggregate lines of `run --reps 3` and
//! `sweep` on the example spec are pinned in `tests/golden/`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Runs `noc-cli run` with `flags` on the example spec (one config
/// field per line), with the config field `field` set to `value`.
fn run_with(field: &str, value: &str, flags: &[&str]) -> Output {
    run_edited(&[(field, value)], flags)
}

/// Runs `noc-cli run` with `flags` on the example spec with each
/// `(field, value)` of `edits` applied.
fn run_edited(edits: &[(&str, &str)], flags: &[&str]) -> Output {
    let (dir, path) = write_spec(edits);
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

/// Writes the example spec with each `(field, value)` of `edits`
/// applied into a fresh directory; returns the directory and the path.
fn write_spec(edits: &[(&str, &str)]) -> (PathBuf, PathBuf) {
    let example = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg("example")
        .output()
        .unwrap();
    assert!(example.status.success(), "{example:?}");
    let mut spec: Vec<String> = String::from_utf8(example.stdout)
        .unwrap()
        .lines()
        .map(str::to_owned)
        .collect();
    for &(field, value) in edits {
        let key = format!("\"{field}\":");
        let mut edited = 0;
        for line in &mut spec {
            if let Some(at) = line.find(&key) {
                edited += 1;
                let comma = if line.ends_with(',') { "," } else { "" };
                *line = format!("{}{key} {value}{comma}", &line[..at]);
            }
        }
        assert_eq!(edited, 1, "the example spec has one {field} line");
    }
    let dir = noc_core::cache::unique_temp_dir("noc-cli-run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, spec.join("\n")).unwrap();
    (dir, path)
}

#[test]
fn out_of_range_configs_are_rejected_without_panicking() {
    for (field, value) in [
        ("output_buffer_capacity", "0"),
        ("output_buffer_capacity", "100000000000"),
        ("input_buffer_capacity", "0"),
        ("packet_len", "0"),
        ("packet_len", "65536"),
        ("packet_len", "4294967296"),
        ("packet_len", "4294967297"),
        ("sink_rate", "0"),
        ("measure_cycles", "0"),
        ("warmup_cycles", "18446744073709551615"),
        ("router_delay", "18446744073709551615"),
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
fn rates_past_the_flit_budget_fail_fast() {
    // Spidergon-16 with one hot-spot has 15 sources; over 600 cycles
    // λ = 1e6 expects 9e9 flits, past the 2^30 budget, and used to run
    // without end. λ = 1000 (9e6 flits) is within it.
    let short = [("warmup_cycles", "100"), ("measure_cycles", "500")];
    let out = run_edited(&[short[0], short[1], ("injection_rate", "1000000.0")], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        stderr.contains(
            "invalid configuration: injection_rate 1000000 expects 9.000e9 generated flits"
        ),
        "{stderr}"
    );
    let out = run_edited(&[short[0], short[1], ("injection_rate", "1000.0")], &[]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn the_example_spec_still_runs() {
    let out = run_with("measure_cycles", "500", &[]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn retired_config_keys_are_ignored() {
    // Specs written while `audit`, `audit_interval`, `compiled_routes`,
    // `record_deliveries`, the throughput sampling interval and the
    // stall threshold were configuration fields still run, with the
    // same statistics as the spec without them (a zero stall threshold
    // was once rejected).
    let plain = run_with("measure_cycles", "500", &[]);
    let retired = r#"500, "audit": true, "audit_interval": 0, "compiled_routes": false,
        "record_deliveries": true, "sample_interval": 50, "stall_threshold": 0"#;
    let old = run_with("measure_cycles", retired, &[]);
    assert!(plain.status.success(), "{plain:?}");
    assert!(old.status.success(), "{old:?}");
    let stdout = String::from_utf8_lossy(&old.stdout);
    assert!(stdout.contains("throughput "), "{stdout}");
    assert_eq!(stdout, String::from_utf8_lossy(&plain.stdout));
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

#[test]
fn a_run_that_delivers_nothing_prints_no_mean_hops() {
    for reps in ["1", "2"] {
        let out = run_with("injection_rate", "0.0", &["--reps", reps]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("NaN"), "--reps {reps}:\n{stdout}");
        let hops = stdout
            .lines()
            .find(|l| l.contains("mean hops"))
            .unwrap_or_else(|| panic!("no mean hops line:\n{stdout}"));
        let value = hops.split("mean hops").nth(1).unwrap().trim_start();
        assert!(
            value == "-" || value.starts_with("-,"),
            "--reps {reps}: {hops}"
        );
    }
}

/// Runs `noc-cli <args>` from `dir` against the store `cache`, and
/// splits its stdout into everything before the last line and the
/// last line (the cache summary).
fn cached_cli(dir: &Path, cache: &Path, args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .args(args)
        .current_dir(dir)
        .env("NOC_CACHE", cache)
        .output()
        .unwrap();
    assert!(out.status.success(), "{args:?}: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (body, summary) = stdout.trim_end().rsplit_once('\n').unwrap();
    (body.to_owned(), summary.to_owned())
}

#[test]
fn run_and_sweep_print_the_cache_summary() {
    let (dir, spec) = write_spec(&[("warmup_cycles", "100"), ("measure_cycles", "500")]);
    let spec = spec.to_str().unwrap();
    let run_store = dir.join("run-store");
    let (cold, summary) = cached_cli(&dir, &run_store, &["run", spec]);
    assert_eq!(summary, "cache: 0 hit(s), 1 miss(es)");
    let (warm, summary) = cached_cli(&dir, &run_store, &["run", spec]);
    assert_eq!(summary, "cache: 1 hit(s), 0 miss(es)");
    assert_eq!(warm, cold);
    assert!(cold.contains("acceptance "), "{cold}");
    let (_, summary) = cached_cli(&dir, &run_store, &["run", spec, "--reps", "3"]);
    assert_eq!(summary, "cache: 1 hit(s), 2 miss(es)");

    let sweep_store = dir.join("sweep-store");
    let sweep = ["sweep", spec, "--max", "0.4", "--steps", "4", "--reps", "2"];
    let (cold, summary) = cached_cli(&dir, &sweep_store, &sweep);
    assert_eq!(summary, "cache: 0 hit(s), 8 miss(es)");
    let (warm, summary) = cached_cli(&dir, &sweep_store, &sweep);
    assert_eq!(summary, "cache: 8 hit(s), 0 miss(es)");
    assert_eq!(warm, cold);
    assert_eq!(cold.lines().count(), 2 + 4, "{cold}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_replications_fail_alike_on_every_path() {
    // `run`, `run --audit` and `sweep` share one replication rule, so
    // they reject `--reps 0` with one message.
    let (dir, spec) = write_spec(&[]);
    let spec = spec.to_str().unwrap();
    for args in [
        &["run", spec, "--reps", "0"][..],
        &["run", spec, "--reps", "0", "--audit"],
        &["sweep", spec, "--reps", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
            .args(args)
            .current_dir(&dir)
            .env("NOC_CACHE", "0")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: invalid experiment spec: replications must be positive\n",
            "{args:?}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_deeply_nested_spec_is_an_error() {
    let dir = noc_core::cache::unique_temp_dir("noc-cli-deep");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spec.json");
    std::fs::write(&path, "[".repeat(100_000)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg("run")
        .arg(&path)
        .current_dir(&dir)
        .env("NOC_CACHE", "0")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("error:"),
        "{out:?}"
    );
}

#[test]
fn a_spec_starting_with_a_byte_order_mark_names_it() {
    let (dir, path) = write_spec(&[]);
    let spec = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, format!("\u{feff}{spec}")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg("run")
        .arg(&path)
        .current_dir(&dir)
        .env("NOC_CACHE", "0")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "error: unexpected character U+FEFF at byte 0\n"
    );
}

/// The stdout of `noc-cli <args>` on the example spec, uncached, after
/// its first line (which names the worker count and host cores).
fn example_output(args: &[&str]) -> String {
    let (dir, spec) = write_spec(&[]);
    let out = Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .arg(args[0])
        .arg(&spec)
        .args(&args[1..])
        .current_dir(&dir)
        .env("NOC_CACHE", "0")
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.status.success(), "{args:?}: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (_, rest) = stdout.split_once('\n').unwrap();
    rest.to_owned()
}

#[test]
fn aggregate_lines_are_pinned() {
    assert_eq!(
        example_output(&["run", "--reps", "3"]),
        include_str!("../../../tests/golden/cli-run-reps3.txt")
    );
    assert_eq!(
        example_output(&["sweep", "--max", "0.4", "--steps", "4", "--reps", "2"]),
        include_str!("../../../tests/golden/cli-sweep.txt")
    );
}
