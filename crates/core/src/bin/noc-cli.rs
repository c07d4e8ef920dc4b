//! `noc-cli` — run a NoC experiment described by a JSON spec.
//!
//! ```text
//! noc-cli run <spec.json>            run one experiment, print stats
//! noc-cli run <spec.json> --reps 5   replicate over 5 seeds
//! noc-cli run <spec.json> --audit    attach the runtime invariant
//!                                    auditor; exit 1 on any violation
//! noc-cli sweep <spec.json> --max 0.6 --steps 12 --reps 3
//!                                    injection-rate sweep, CSV to stdout
//! noc-cli trace <spec.json> --out DIR --window 100
//!                                    traced run: flit-lifecycle JSONL,
//!                                    time-series CSV, per-link CSV and
//!                                    a latency decomposition table
//! noc-cli conformance --nodes 16 --reps 2 --threads 4
//!                                    differential conformance harness
//! noc-cli cache stats [DIR]          packs / records / bytes of the store
//! noc-cli cache gc [DIR] --max-bytes B
//!                                    shrink the store, oldest pack first
//! noc-cli cache verify [DIR] [--fix] validate records; drop bad ones and
//!                                    pack one-record files of earlier
//!                                    layouts
//! noc-cli figures [ID...]            regenerate paper figures: ASCII
//!                                    table + plot on stdout, CSV/JSON
//!                                    under results/ (no ID: every
//!                                    paper figure and table)
//! noc-cli example                    print an example spec
//! noc-cli metrics <N>                analytical metrics at N nodes
//! ```
//!
//! `run` and `sweep` accept `--threads N` to pin the parallel engine's
//! worker count (default: all cores, or the `NOC_THREADS` environment
//! variable). Results are bit-identical for any thread count.
//!
//! `run` and `sweep` also accept `--cache` / `--no-cache` to force the
//! content-addressed experiment cache on (at its default directory,
//! `results/.cache`) or off, overriding the `NOC_CACHE` environment
//! variable. Cached results are bit-identical to fresh simulation; a
//! hit/miss summary is printed when caching is active.
//!
//! `figures` takes the IDs of the library's figure sets,
//! [`noc_core::figures::SETS`] (the usage line lists them), and with no
//! ID draws every set of the paper. `NOC_FIGURE_MODE` selects `full`
//! (the default, paper quality) or `quick` (a smoke run); `NOC_THREADS`
//! and `NOC_CACHE` apply as for `run`.
//!
//! A spec is the JSON form of [`noc_core::Experiment`]; get a template
//! with `noc-cli example`.

use noc_core::figures::{FigureSetFn, EXTENSIONS, SETS};
use noc_core::report::{FigureData, RunMetadata};
use noc_core::{
    matched_size_cases, run_conformance, run_indexed, Aggregate, Experiment, FigureOptions,
    Parallelism, TopologySpec, TrafficSpec,
};
use noc_sim::{AuditReport, Auditor, Recorder, SimConfig};
use std::path::Path;
use std::process::ExitCode;

/// Parses a `--threads` value into a parallelism policy.
fn parse_threads(value: &str) -> Result<Parallelism, String> {
    match value.parse::<usize>() {
        Ok(0) | Err(_) => Err("--threads must be a positive integer".to_owned()),
        Ok(1) => Ok(Parallelism::Sequential),
        Ok(n) => Ok(Parallelism::Fixed(n)),
    }
}

/// Applies a `--cache` / `--no-cache` choice by overriding the
/// `NOC_CACHE` environment variable (read by the experiment engine's
/// [`noc_core::ExperimentCache::from_env`]). Called while the process
/// is still single-threaded, before any worker spawns.
fn apply_cache_flag(choice: Option<bool>) {
    match choice {
        Some(true) => std::env::set_var("NOC_CACHE", "1"),
        Some(false) => std::env::set_var("NOC_CACHE", "0"),
        None => {}
    }
}

/// Prints the hit/miss summary accumulated since `before`, when the
/// cache is active.
fn print_cache_summary(before: noc_core::CacheCounters) {
    if noc_core::ExperimentCache::from_env().is_enabled() {
        let delta = noc_core::cache::counters().since(&before);
        println!("cache: {} hit(s), {} miss(es)", delta.hits, delta.misses);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("conformance") => cmd_conformance(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("figures") => cmd_figures(&args[1..]),
        Some("example") => cmd_example(),
        Some("metrics") => cmd_metrics(&args[1..]),
        _ => {
            eprintln!(
                "usage: noc-cli run <spec.json> [--reps N] [--threads N] [--audit] [--cache|--no-cache] | sweep <spec.json> [--max R] [--steps K] [--reps N] [--threads N] [--cache|--no-cache] | trace <spec.json> [--out DIR] [--window N] | conformance [--nodes N] [--reps N] [--threads N] | cache stats|gc|verify [DIR] [--max-bytes B] [--fix] | figures [ID...] | example | metrics <N>"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing spec path")?;
    let mut reps = 1usize;
    let mut audit = false;
    let mut cache_flag = None;
    let mut parallelism = Parallelism::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--reps" => {
                reps = it
                    .next()
                    .ok_or("--reps needs a value")?
                    .parse()
                    .map_err(|_| "--reps must be a positive integer")?;
            }
            "--threads" => {
                parallelism = parse_threads(it.next().ok_or("--threads needs a value")?)?;
            }
            "--audit" => audit = true,
            "--cache" => cache_flag = Some(true),
            "--no-cache" => cache_flag = Some(false),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    apply_cache_flag(cache_flag);
    let counters_before = noc_core::cache::counters();
    let spec = std::fs::read_to_string(path)?;
    let experiment: Experiment = serde_json::from_str(&spec)?;
    println!(
        "running {} / {} at lambda = {} ({} replication{}, {}{})",
        experiment.topology.label()?,
        experiment.traffic.label(),
        experiment.config.injection_rate,
        reps,
        if reps == 1 { "" } else { "s" },
        RunMetadata::for_parallelism(parallelism),
        if audit { ", audited" } else { "" },
    );
    if audit {
        return cmd_run_audited(&experiment, reps, parallelism);
    }
    let agg = experiment.run_replicated(reps, parallelism)?;
    if let [run] = &agg.runs[..] {
        println!("{}", run.stats);
        println!(
            "acceptance {:.3}, mean hops {}, p95 latency {} cycles",
            run.stats.acceptance_ratio(),
            hops_text(run.stats.mean_hops()),
            run.stats.latency.percentile(95.0).unwrap_or(0),
        );
    } else {
        print_aggregate(&agg);
    }
    print_cache_summary(counters_before);
    Ok(())
}

/// `run --audit`: every replication executes with the runtime invariant
/// auditor attached; any violation makes the process exit nonzero.
fn cmd_run_audited(
    experiment: &Experiment,
    reps: usize,
    parallelism: Parallelism,
) -> Result<(), Box<dyn std::error::Error>> {
    let jobs = experiment.replication_jobs(reps)?;
    let audited = jobs
        .iter()
        .map(|job| || job.experiment.run_probed(job.seed, Auditor::new()));
    let outcomes: Vec<_> = run_indexed(audited.collect(), parallelism)
        .into_iter()
        .collect::<Result<_, _>>()?;
    let (runs, reports): (Vec<_>, Vec<AuditReport>) = outcomes
        .into_iter()
        .map(|(run, auditor)| (run, auditor.into_report()))
        .unzip();
    if runs.len() == 1 {
        println!("{}", runs[0].stats);
    } else {
        print_aggregate(&Aggregate::from_runs(runs));
    }
    let checks: u64 = reports.iter().map(|r| r.checks).sum();
    let flit_events: u64 = reports.iter().map(|r| r.flit_events).sum();
    let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
    println!(
        "audit: {checks} checks, {flit_events} flit events, {violations} violation{}",
        if violations == 1 { "" } else { "s" }
    );
    if violations > 0 {
        for report in &reports {
            for violation in &report.violations {
                eprintln!("  {violation}");
            }
            if let Some(stall) = &report.stall {
                eprintln!("  stall diagnosis: {stall:?}");
            }
        }
        return Err(format!("audit found {violations} violation(s)").into());
    }
    Ok(())
}

fn print_aggregate(agg: &Aggregate) {
    println!(
        "throughput {:.4} ± {:.4} flits/cycle",
        agg.throughput_mean, agg.throughput_std
    );
    println!(
        "latency    {:.1} ± {:.1} cycles (p50 {} / p95 {} / p99 {})",
        agg.latency_mean, agg.latency_std, agg.latency_p50, agg.latency_p95, agg.latency_p99
    );
    println!("acceptance {:.3}", agg.acceptance_mean);
    let delivered = agg.runs.iter().any(|run| run.stats.mean_hops().is_some());
    let hops = hops_text(delivered.then_some(agg.mean_hops));
    println!("mean hops  {hops}");
}

/// A mean hop count to three decimals, or `-` when nothing was
/// delivered.
fn hops_text(hops: Option<f64>) -> String {
    hops.map_or_else(|| "-".to_owned(), |h| format!("{h:.3}"))
}

/// `trace`: run one experiment with the flit-lifecycle recorder
/// attached and export its artifacts (JSONL event log, windowed
/// time-series CSV, per-link utilization CSV) plus a latency
/// decomposition table and a determinism digest.
fn cmd_trace(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing spec path")?;
    let mut out_dir = std::path::PathBuf::from("trace-out");
    let mut window = Recorder::DEFAULT_WINDOW;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--out" => out_dir = value.into(),
            "--window" => {
                window = value.parse().map_err(|_| "--window must be an integer")?;
                if window == 0 {
                    return Err("--window must be positive".into());
                }
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let experiment: Experiment = serde_json::from_str(&std::fs::read_to_string(path)?)?;
    println!(
        "tracing {} / {} at lambda = {} (window {window})",
        experiment.topology.label()?,
        experiment.traffic.label(),
        experiment.config.injection_rate,
    );
    let (result, recorder) =
        experiment.run_probed(experiment.config.seed, Recorder::with_window(window))?;
    std::fs::create_dir_all(&out_dir)?;
    std::fs::write(out_dir.join("trace.jsonl"), recorder.to_jsonl())?;
    std::fs::write(out_dir.join("timeseries.csv"), recorder.timeseries_csv())?;
    std::fs::write(out_dir.join("links.csv"), recorder.links_csv())?;
    println!("{}", result.stats);
    println!(
        "{}",
        noc_core::report::latency_summary(&result.stats.latency)
    );
    print!(
        "{}",
        noc_core::report::breakdown_table(recorder.breakdown())
    );
    println!(
        "{} events, {} windows -> {}",
        recorder.events().len(),
        recorder.windows().len(),
        out_dir.display()
    );
    println!("digest {:016x}", recorder.digest());
    Ok(())
}

/// `conformance`: the differential harness over the paper's topology
/// triple at matched sizes. Exits nonzero if any case fails.
fn cmd_conformance(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (mut nodes, mut reps) = (16usize, 2usize);
    let mut parallelism = Parallelism::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--nodes" => nodes = value.parse()?,
            "--reps" => reps = value.parse()?,
            "--threads" => parallelism = parse_threads(value)?,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let base = SimConfig::builder()
        .warmup_cycles(200)
        .measure_cycles(2_000)
        .seed(42)
        .build()?;
    let cases = matched_size_cases(nodes, &base)?;
    println!(
        "conformance: {} case(s), {} replication(s), {}",
        cases.len(),
        reps,
        RunMetadata::for_parallelism(parallelism)
    );
    let report = run_conformance(&cases, reps, parallelism)?;
    println!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err("conformance failed".into())
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let path = args.first().ok_or("missing spec path")?;
    let (mut max, mut steps, mut reps) = (0.6f64, 12usize, 1usize);
    let mut cache_flag = None;
    let mut parallelism = Parallelism::default();
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--max" => max = value()?.parse()?,
            "--steps" => steps = value()?.parse()?,
            "--reps" => reps = value()?.parse()?,
            "--threads" => parallelism = parse_threads(value()?)?,
            "--cache" => cache_flag = Some(true),
            "--no-cache" => cache_flag = Some(false),
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    apply_cache_flag(cache_flag);
    let counters_before = noc_core::cache::counters();
    let experiment: Experiment = serde_json::from_str(&std::fs::read_to_string(path)?)?;
    let sweep = noc_core::sweep_rates(
        experiment.topology,
        experiment.traffic,
        &experiment.config,
        &noc_core::rate_grid(max, steps),
        reps,
        parallelism,
    )?;
    println!(
        "# {} / {} ({})",
        sweep[0].runs[0].topology_label,
        sweep[0].runs[0].traffic_label,
        RunMetadata::for_parallelism(parallelism)
    );
    println!(
        "rate,throughput,throughput_std,latency,latency_std,acceptance,mean_hops,latency_p50,latency_p95,latency_p99"
    );
    for p in &sweep {
        println!(
            "{},{},{},{},{},{},{},{},{},{}",
            p.injection_rate(),
            p.throughput_mean,
            p.throughput_std,
            p.latency_mean,
            p.latency_std,
            p.acceptance_mean,
            p.mean_hops,
            p.latency_p50,
            p.latency_p95,
            p.latency_p99
        );
    }
    print_cache_summary(counters_before);
    Ok(())
}

/// `cache`: inspect and maintain the content-addressed experiment
/// store. The directory comes from the positional argument, else
/// `NOC_CACHE` (when it names one), else the default
/// `results/.cache`.
fn cmd_cache(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let action = args
        .first()
        .map(String::as_str)
        .ok_or("cache needs an action: stats | gc | verify")?;
    let mut dir: Option<String> = None;
    let mut max_bytes = noc_core::cache::DEFAULT_GC_BYTES;
    let mut fix = false;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-bytes" => {
                max_bytes = it
                    .next()
                    .ok_or("--max-bytes needs a value")?
                    .parse()
                    .map_err(|_| "--max-bytes must be an integer byte count")?;
            }
            "--fix" => fix = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}").into()),
            positional => {
                if dir.replace(positional.to_owned()).is_some() {
                    return Err("cache takes at most one directory".into());
                }
            }
        }
    }
    let cache = match dir {
        Some(dir) => noc_core::ExperimentCache::at(dir),
        None => {
            let from_env = noc_core::ExperimentCache::from_env();
            if from_env.is_enabled() {
                from_env
            } else {
                noc_core::ExperimentCache::default_dir()
            }
        }
    };
    let dir = cache.dir().expect("cache resolved to a directory");
    match action {
        "stats" => {
            let stats = cache.stats()?;
            println!("{}: {}", dir.display(), contents(&stats));
        }
        "gc" => {
            let outcome = cache.gc(max_bytes)?;
            println!(
                "{}: removed {} pack(s) holding {} record(s), freed {} bytes; {} remain (limit {} bytes)",
                dir.display(),
                outcome.removed_packs,
                outcome.removed,
                outcome.freed_bytes,
                contents(&outcome.remaining),
                max_bytes
            );
        }
        "verify" => {
            let outcome = cache.verify(fix)?;
            for (path, reason) in &outcome.corrupt {
                println!("corrupt: {} ({reason})", path.display());
            }
            println!(
                "{}: {} ok, {} corrupt, {} removed, {} moved into a pack",
                dir.display(),
                outcome.ok,
                outcome.corrupt.len(),
                outcome.removed,
                outcome.migrated
            );
            if !outcome.corrupt.is_empty() && !fix {
                return Err(
                    "corrupt or unpacked records found (rerun with --fix to drop or pack them)"
                        .into(),
                );
            }
        }
        other => return Err(format!("unknown cache action {other}").into()),
    }
    Ok(())
}

/// `P pack(s), R record(s), B bytes`.
fn contents(stats: &noc_core::CacheStats) -> String {
    format!(
        "{} pack(s), {} record(s), {} bytes",
        stats.packs, stats.entries, stats.total_bytes
    )
}

/// Directory `figures` writes its CSV/JSON dumps into (relative to the
/// working directory).
const RESULTS_DIR: &str = "results";

/// Figure quality for a `NOC_FIGURE_MODE` value: unset or `full` is
/// paper quality, `quick` a smoke run; anything else is an error, so a
/// typo never silently starts the minutes-long full run.
fn figure_options(mode: Option<&str>) -> Result<FigureOptions, String> {
    match mode {
        None | Some("full") => Ok(FigureOptions::full()),
        Some("quick") => Ok(FigureOptions::quick()),
        Some(other) => Err(format!(
            "NOC_FIGURE_MODE must be `quick` or `full`, not `{other}`"
        )),
    }
}

/// [`figure_options`] for the `NOC_FIGURE_MODE` environment variable.
fn figure_options_from_env() -> Result<FigureOptions, String> {
    let mode = std::env::var_os("NOC_FIGURE_MODE");
    figure_options(mode.as_ref().map(|m| m.to_string_lossy()).as_deref())
}

/// Looks up a `figures` ID; an unknown one yields the usage line.
fn figure_set(id: &str) -> Result<FigureSetFn, String> {
    let set = SETS.iter().find(|(name, _)| *name == id);
    set.map(|&(_, set)| set).ok_or_else(|| {
        let ids: Vec<_> = SETS.iter().map(|&(name, _)| name).collect();
        let ids = ids.join("|");
        format!("unknown figure `{id}`\nusage: noc-cli figures [{ids}]...")
    })
}

/// `figures`: regenerates the figures named by `ids` (the paper's
/// figure set when empty). Every ID and the mode are checked before
/// anything is computed or written.
fn cmd_figures(ids: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let sets: Vec<FigureSetFn> = if ids.is_empty() {
        let paper = SETS.iter().filter(|&&(id, _)| id != EXTENSIONS);
        paper.map(|&(_, set)| set).collect()
    } else {
        ids.iter()
            .map(|id| figure_set(id))
            .collect::<Result<_, _>>()?
    };
    let opts = figure_options_from_env()?;
    let counters_before = noc_core::cache::counters();
    for set in sets {
        for figure in set(&opts)? {
            emit(&figure)?;
        }
    }
    print_cache_summary(counters_before);
    Ok(())
}

/// Prints a figure as an ASCII table plus a terminal line plot, and
/// writes `<id>.csv` and `<id>.json` under [`RESULTS_DIR`].
///
/// Latency figures (y axis in cycles) are plotted on a log scale so
/// the saturation knees stay visible next to the zero-load values.
fn emit(figure: &FigureData) -> std::io::Result<()> {
    print!("{}", figure.to_ascii_table());
    println!();
    let plot_opts = if figure.y_label.contains("latency") || figure.y_label.contains("cycles") {
        noc_core::plot::PlotOptions::log()
    } else {
        noc_core::plot::PlotOptions::default()
    };
    println!("{}", noc_core::plot::render(figure, plot_opts));
    std::fs::create_dir_all(RESULTS_DIR)?;
    write_dumps(figure, Path::new(RESULTS_DIR))?;
    println!(
        "wrote {}/{}.csv and {}/{}.json",
        RESULTS_DIR, figure.id, RESULTS_DIR, figure.id
    );
    Ok(())
}

/// Writes the CSV and JSON dumps of a figure into `dir`.
fn write_dumps(figure: &FigureData, dir: &Path) -> std::io::Result<()> {
    std::fs::write(dir.join(format!("{}.csv", figure.id)), figure.to_csv())?;
    std::fs::write(dir.join(format!("{}.json", figure.id)), figure.to_json())?;
    Ok(())
}

fn cmd_example() -> Result<(), Box<dyn std::error::Error>> {
    let example = Experiment {
        topology: TopologySpec::Spidergon { nodes: 16 },
        traffic: TrafficSpec::SingleHotspot { target: 0 },
        config: SimConfig::builder()
            .injection_rate(0.2)
            .warmup_cycles(1_000)
            .measure_cycles(10_000)
            .seed(42)
            .build()?,
    };
    println!("{}", serde_json::to_string_pretty(&example)?);
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = args
        .first()
        .ok_or("missing node count")?
        .parse()
        .map_err(|_| "node count must be an integer")?;
    let mut specs = vec![TopologySpec::Ring { nodes: n }];
    if n.is_multiple_of(2) {
        specs.push(TopologySpec::Spidergon { nodes: n });
    }
    specs.push(TopologySpec::MeshBalanced { nodes: n });
    specs.push(TopologySpec::RealisticMesh { nodes: n });
    println!(
        "{:>20}  {:>6}  {:>4}  {:>8}",
        "topology", "links", "ND", "E[D]"
    );
    for spec in specs {
        let topo = spec.build()?;
        let m = noc_topology::metrics::TopologyMetrics::compute(topo.as_ref());
        println!(
            "{:>20}  {:>6}  {:>4}  {:>8.3}",
            m.label, m.num_links, m.diameter, m.mean_distance_paper
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::report::Series;

    #[test]
    fn dumps_are_written() {
        let fig = FigureData::new("unit-test-fig", "t", "x", "y")
            .with_series(Series::from_xy("s", [(1.0, 2.0)]));
        let dir = noc_core::cache::unique_temp_dir("noc-cli-dumps");
        std::fs::create_dir_all(&dir).unwrap();
        write_dumps(&fig, &dir).unwrap();
        let csv = std::fs::read_to_string(dir.join("unit-test-fig.csv")).unwrap();
        assert!(csv.starts_with("x,s"));
        let json = std::fs::read_to_string(dir.join("unit-test-fig.json")).unwrap();
        assert!(json.contains("unit-test-fig"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn env_mode_defaults_to_full() {
        assert_eq!(figure_options(None).unwrap(), FigureOptions::full());
    }

    #[test]
    fn named_modes_are_accepted() {
        assert_eq!(figure_options(Some("full")).unwrap(), FigureOptions::full());
        assert_eq!(
            figure_options(Some("quick")).unwrap(),
            FigureOptions::quick()
        );
    }

    #[test]
    fn unknown_mode_is_rejected() {
        for typo in ["Quick", "QUICK", "fast", ""] {
            let err = figure_options(Some(typo)).unwrap_err();
            assert!(err.contains(&format!("`{typo}`")), "{err}");
        }
    }
}
