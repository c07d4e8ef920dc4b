//! Untraced runs: set-up, timed passes and the end-to-end metrics of
//! one workload. Also the set-up steps the traced run shares.

use crate::host::{self, median, Digest, Sample, Stopwatch};
use crate::plan::{self, FigurePlan, SimFigure, Size, FAMILIES};
use crate::{discard, Context, Report, Workload};
use noc_core::figures::FigureOptions;
use noc_core::noc_sim::SimStats;
use noc_core::report::FigureData;
use noc_core::{fingerprint, Experiment, ExperimentCache, DEFAULT_ACCEPTANCE_THRESHOLD};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

/// Set-up is repeated this many times per run and reported as the
/// median.
const SETUP_REPEATS: usize = 3;

/// Fewest timed passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// Largest accepted model error (percent) of a simulated mean hop count
/// against the exact average distance. A sanity bound on the
/// simulator's output, not a precision claim: a light-load run of a few
/// thousand cycles carries a few percent of sampling noise.
pub const MODEL_TOLERANCE_PCT: f64 = 10.0;

/// Largest backlog share a kernel row may end with and still count as
/// below saturation.
pub const KERNEL_BACKLOG_LIMIT: f64 = 0.01;

/// Points the engine at a result store.
pub fn use_store(store: &Path) {
    std::env::set_var("NOC_CACHE", store);
}

/// Number of records in a store.
pub fn record_count(store: &Path) -> usize {
    ExperimentCache::at(store)
        .stats()
        .map_or(0, |stats| stats.entries)
}

/// Every file in a store with its modification time, sorted by path.
pub fn snapshot(store: &Path) -> Vec<(PathBuf, SystemTime)> {
    let mut out = Vec::new();
    let mut stack = vec![store.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(path),
                Ok(meta) => out.push((path, meta.modified().unwrap_or(SystemTime::UNIX_EPOCH))),
                Err(_) => {}
            }
        }
    }
    out.sort();
    out
}

/// The figure workloads' fixed inputs and what an untimed cold pass
/// established about them.
pub struct FigureSetup {
    pub opts: FigureOptions,
    pub plans: Vec<FigurePlan>,
    /// Planned jobs per pass.
    pub jobs: u64,
    /// Distinct cache keys among them.
    pub distinct: usize,
    /// Digest of the rendered figure set.
    pub reference: Digest,
    /// Flits delivered by the distinct simulation points.
    pub flits: u64,
    pub model_err_pct: f64,
}

/// Computes every figure into `store` (which must not exist yet),
/// renders it, and checks the outcome: the store holds exactly the
/// planned points, every family has sweep points on both sides of
/// saturation, and Figure 5 agrees with the exact distances.
pub fn figure_setup(
    ctx: &Context,
    store: &Path,
    report: &mut Report,
    watch: &mut Stopwatch,
) -> Result<FigureSetup, String> {
    let opts = ctx.size.figure_options(ctx.seed);
    let plans = watch.lap(|| plan::figure_plans(&opts));
    use_store(store);
    let figures = compute_figures(&opts, watch).map_err(|e| format!("figure set: {e}"))?;
    let reference = watch.lap(|| plan::render_all(&figures));
    let (distinct, flits, model_err_pct) =
        watch.lap(|| check_figures(store, &plans, &figures, report));
    Ok(FigureSetup {
        jobs: plans.iter().map(|p| p.jobs.len() as u64).sum(),
        opts,
        plans,
        distinct,
        reference,
        flits,
        model_err_pct,
    })
}

/// The checks of [`figure_setup`]; returns the distinct point count,
/// the flits they delivered and Figure 5's model error.
fn check_figures(
    store: &Path,
    plans: &[FigurePlan],
    figures: &[FigureData],
    report: &mut Report,
) -> (usize, u64, f64) {
    let distinct = plan::distinct_points(plans);
    let stored = record_count(store);
    report.check(stored == distinct, || {
        format!("the figure functions stored {stored} points, the plan has {distinct}")
    });

    let cache = ExperimentCache::at(store);
    let mut seen = HashSet::new();
    let mut flits = 0;
    let mut below = [false; 3];
    let mut above = [false; 3];
    for planned in plans.iter().flat_map(|p| &p.jobs) {
        let job = &planned.job;
        let Some(result) = cache.lookup(&job.experiment, job.seed) else {
            report.problems.push(format!(
                "planned point {} {} λ={} is not in the store",
                result_label(&job.experiment),
                job.experiment.traffic.label(),
                job.experiment.config.injection_rate
            ));
            continue;
        };
        if seen.insert(fingerprint(&job.experiment, job.seed)) {
            flits += result.stats.flits_delivered;
        }
        if planned.sweep {
            if result.stats.acceptance_ratio() < DEFAULT_ACCEPTANCE_THRESHOLD {
                above[planned.family] = true;
            } else {
                below[planned.family] = true;
            }
        }
    }
    for (f, family) in FAMILIES.iter().enumerate() {
        report.check(below[f] && above[f], || {
            format!("{family} sweeps do not reach both sides of saturation")
        });
    }
    let model_err_pct = plan::fig5_model_error_pct(figures).unwrap_or(f64::INFINITY);
    report.check(model_err_pct <= MODEL_TOLERANCE_PCT, || {
        format!("fig5 model error {model_err_pct:.2}% exceeds {MODEL_TOLERANCE_PCT}%")
    });
    (distinct, flits, model_err_pct)
}

fn result_label(experiment: &Experiment) -> String {
    experiment
        .topology
        .label()
        .unwrap_or_else(|_| format!("{:?}", experiment.topology))
}

/// The kernel rows' fixed inputs and their untimed warm-up pass.
pub struct KernelSetup {
    pub rows: Vec<Experiment>,
    pub reference: Digest,
    pub flits: u64,
    pub model_err_pct: f64,
}

/// Builds the kernel rows, runs them once, and checks that every row is
/// below saturation and agrees with the exact average distance.
pub fn kernel_setup(
    size: Size,
    seed: u64,
    report: &mut Report,
    watch: &mut Stopwatch,
) -> Result<KernelSetup, String> {
    let rows = watch.lap(|| plan::kernel_rows(size, seed));
    let mut reference = Digest::default();
    let mut flits = 0;
    let mut model_err_pct: f64 = 0.0;
    for (row, family) in rows.iter().zip(FAMILIES) {
        let stats = watch
            .lap(|| plan::run_kernel_row(row))
            .map_err(|e| format!("{family} row: {e}"))?;
        plan::digest_stats(&mut reference, &stats);
        flits += stats.flits_delivered;
        check_kernel_row(family, &stats, report);
        let err = watch
            .lap(|| plan::hop_error_pct(row, &stats))
            .map_err(|e| format!("{family} row: {e}"))?;
        model_err_pct = model_err_pct.max(err);
    }
    report.check(model_err_pct <= MODEL_TOLERANCE_PCT, || {
        format!("kernel model error {model_err_pct:.2}% exceeds {MODEL_TOLERANCE_PCT}%")
    });
    Ok(KernelSetup {
        rows,
        reference,
        flits,
        model_err_pct,
    })
}

/// A kernel row must run below saturation: a backlog share near zero
/// and every offered flit accepted.
pub fn check_kernel_row(family: &str, stats: &SimStats, report: &mut Report) {
    let backlog = plan::backlog_share(stats);
    report.check(backlog <= KERNEL_BACKLOG_LIMIT, || {
        format!("{family} kernel row is saturated: backlog share {backlog:.4}")
    });
    let acceptance = stats.acceptance_ratio();
    report.check(acceptance >= DEFAULT_ACCEPTANCE_THRESHOLD, || {
        format!("{family} kernel row accepts only {acceptance:.3} of its load")
    });
}

/// Runs every kernel row once, one timed segment each, and digests
/// their statistics.
pub fn kernel_pass(rows: &[Experiment], watch: &mut Stopwatch) -> Result<Digest, String> {
    let mut digest = Digest::default();
    for row in rows {
        let stats = watch
            .lap(|| plan::run_kernel_row(row))
            .map_err(|e| e.to_string())?;
        plan::digest_stats(&mut digest, &stats);
    }
    Ok(digest)
}

/// Computes every figure of the paper with the current store, one timed
/// segment per figure function: the analytical figures, then Figures
/// 5-11.
fn compute_figures(opts: &FigureOptions, watch: &mut Stopwatch) -> Result<Vec<FigureData>, String> {
    let mut figures = watch.lap(plan::analytical_figures);
    for figure in SimFigure::ALL {
        figures.extend(watch.lap(|| figure.run(opts)).map_err(|e| e.to_string())?);
    }
    Ok(figures)
}

/// Computes the figure set with the current store and renders it.
pub fn figure_pass(opts: &FigureOptions, watch: &mut Stopwatch) -> Result<Digest, String> {
    let figures = compute_figures(opts, watch)?;
    Ok(watch.lap(|| plan::render_all(&figures)))
}

/// Compares a pass's digest with the workload's reference.
pub fn expect_digest(outcome: Result<Digest, String>, reference: Digest) -> Result<(), String> {
    match outcome {
        Ok(digest) if digest == reference => Ok(()),
        Ok(digest) => Err(format!(
            "output digest {digest} differs from reference {reference}"
        )),
        Err(e) => Err(e),
    }
}

/// Repeats `pass` until the run has measured for `ctx.seconds` (and at
/// least [`MIN_PASSES`] times), counting `ops` operations per pass.
fn timed_passes(
    ctx: &Context,
    ops: u64,
    report: &mut Report,
    mut pass: impl FnMut() -> (Sample, Result<(), String>),
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds {
        let (sample, outcome) = pass();
        samples.push(sample);
        report.count(ops, outcome);
    }
    samples
}

/// Runs `setup` [`SETUP_REPEATS`] times, returning the last result and
/// the median normalised set-up time.
fn repeated_setup<T>(
    ctx: &Context,
    mut setup: impl FnMut(&mut Report, &mut Stopwatch) -> Result<T, String>,
    report: &mut Report,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (outcome, sample) = ctx.timed(|watch| setup(report, watch));
        last = Some(outcome?);
        times.push(sample.wall_s);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Runs one workload with tracing off and reports its end-to-end
/// metrics.
pub fn run(ctx: &Context) -> Result<Report, String> {
    let mut report = Report::default();
    let (samples, setup_s, flits) = match ctx.workload {
        Workload::FiguresCold => {
            let mut reference = None;
            let (setup, setup_s) = repeated_setup(
                ctx,
                |report, watch| {
                    let store = ctx.work.fresh("setup");
                    let setup = figure_setup(ctx, &store, report, watch);
                    discard(&store);
                    let setup = setup?;
                    let first = *reference.get_or_insert(setup.reference);
                    report.check(first == setup.reference, || {
                        "set-up passes rendered different figures".into()
                    });
                    Ok(setup)
                },
                &mut report,
            )?;
            let samples = timed_passes(ctx, setup.jobs, &mut report, || {
                let store = ctx.work.fresh("cold");
                use_store(&store);
                let (outcome, sample) = ctx.timed(|watch| figure_pass(&setup.opts, watch));
                let mut outcome = expect_digest(outcome, setup.reference);
                let stored = record_count(&store);
                if outcome.is_ok() && stored != setup.distinct {
                    outcome = Err(format!(
                        "cold pass stored {stored} of {} points",
                        setup.distinct
                    ));
                }
                discard(&store);
                (sample, outcome)
            });
            (samples, setup_s, setup.flits)
        }
        Workload::FiguresWarm => {
            let mut previous: Option<PathBuf> = None;
            let (setup, setup_s) = repeated_setup(
                ctx,
                |report, watch| {
                    if let Some(old) = previous.take() {
                        discard(&old);
                    }
                    let store = ctx.work.fresh("warm");
                    previous = Some(store.clone());
                    figure_setup(ctx, &store, report, watch).map(|setup| (setup, store))
                },
                &mut report,
            )?;
            let (setup, store) = setup;
            use_store(&store);
            let filled = snapshot(&store);
            let samples = timed_passes(ctx, setup.jobs, &mut report, || {
                let (outcome, sample) = ctx.timed(|watch| figure_pass(&setup.opts, watch));
                let mut outcome = expect_digest(outcome, setup.reference);
                if outcome.is_ok() && snapshot(&store) != filled {
                    outcome = Err("a warm pass missed the store and rewrote it".into());
                }
                (sample, outcome)
            });
            (samples, setup_s, setup.flits)
        }
        Workload::KernelLight => {
            let (setup, setup_s) = repeated_setup(
                ctx,
                |report, watch| kernel_setup(ctx.size, ctx.seed, report, watch),
                &mut report,
            )?;
            let samples = timed_passes(ctx, setup.rows.len() as u64, &mut report, || {
                let (outcome, sample) = ctx.timed(|watch| kernel_pass(&setup.rows, watch));
                (sample, expect_digest(outcome, setup.reference))
            });
            (samples, setup_s, setup.flits)
        }
    };
    let wall: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    let cpu: Vec<f64> = samples.iter().map(|s| s.cpu_s).collect();
    let raw: Vec<f64> = samples.iter().map(|s| s.raw_wall_s).collect();
    eprintln!(
        "benchmark: {} passes, median wall {:.4} s normalised, {:.4} s measured",
        samples.len(),
        median(&wall),
        median(&raw),
    );
    let cpu_s = median(&cpu);
    report.metric("wall_s", "s", median(&wall));
    report.metric("cpu_s", "s", cpu_s);
    report.metric("setup_s", "s", setup_s);
    report.metric("sim_flits_per_cpu_s", "flits/s", flits as f64 / cpu_s);
    let reference_mib = ctx.reference.borrow().mib();
    report.metric("peak_rss_mib", "MiB", host::peak_rss_mib() - reference_mib);
    Ok(report)
}
