//! The traced run: replays each workload through the public calls of
//! every layer, timing each call from outside, and reports per-layer
//! metrics.
//!
//! | Layer | Calls timed |
//! |---|---|
//! | spec | `TopologySpec::build`, `build_routing`, `TrafficSpec::build` |
//! | sim | `Simulation::new`, `Simulation::run`, `active_router_ratio` |
//! | probe | `Experiment::run_traced_with_seed` against `run_with_seed` |
//! | parallel | `run_indexed` over the points a figure misses |
//! | cache | `fingerprint`, `ExperimentCache::{lookup, store}` |
//! | figures | `fig2`, `fig3`, `table_links`, `fig5` .. `fig10_11` |
//! | report / plot | `to_json`, `to_csv`, `to_ascii_table`; `plot::render` |
//!
//! A figure replay mirrors `run_experiment_jobs_with_cache`: look every
//! planned point up, simulate the misses on the engine, store them,
//! then call the figure function, which now answers every point from
//! the store and assembles the figure. Each replay's rendered output
//! must digest to the same value as an untraced pass of the workload;
//! the ratio of their measured wall times is the tracing overhead. Both
//! start right after a reference job (see `host::Reference`), so both
//! start from the same cache state.
//!
//! Each iteration replays `figures-cold`, `figures-warm` and
//! `kernel-light` in turn, then measures two back-to-back ratios on the
//! kernel rows: the dense reference core against the sparse one, and a
//! recording probe against none. Iterations repeat for `--seconds`;
//! every metric is the median over iterations.

use crate::host::{median, Digest};
use crate::plan::{self, FigurePlan, FAMILIES};
use crate::workloads::{self, expect_digest, record_count, snapshot, use_store};
use crate::{discard, Context, Report};
use noc_core::figures::FigureOptions;
use noc_core::noc_sim::Simulation;
use noc_core::parallel::run_indexed;
use noc_core::{
    fingerprint, CoreError, Experiment, ExperimentCache, ExperimentJob, Parallelism, RunResult,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Per-layer samples, one per metric per iteration.
#[derive(Default)]
struct Layers {
    samples: BTreeMap<String, (&'static str, Vec<f64>)>,
}

impl Layers {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.samples
            .entry(name.into())
            .or_insert((unit, Vec::new()))
            .1
            .push(value);
    }
}

fn ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Host time spent in each call of one simulation job.
#[derive(Clone, Copy, Default)]
struct JobSpan {
    family: usize,
    spec_ns: f64,
    new_ns: f64,
    run_ns: f64,
    cycles: u64,
    hops: u64,
    active_ratio: f64,
    backlog: u64,
    generated: u64,
}

/// Builds and runs one job exactly as `Experiment::run_with_seed` does,
/// timing the spec, construction and run calls.
fn timed_job(job: &ExperimentJob, family: usize) -> (Result<RunResult, CoreError>, JobSpan) {
    let mut span = JobSpan {
        family,
        ..JobSpan::default()
    };
    let outcome = (|| {
        let exp = &job.experiment;
        let t = Instant::now();
        let topology = exp.topology.build()?;
        let routing = exp.topology.build_routing()?;
        let pattern = exp.traffic.build(&exp.topology)?;
        span.spec_ns = ns(t);
        let mut config = exp.config.clone();
        config.seed = job.seed;
        span.cycles = config.total_cycles();
        let topology_label = topology.label();
        let t = Instant::now();
        let mut sim = Simulation::new(topology, routing, pattern, config)?;
        span.new_ns = ns(t);
        let t = Instant::now();
        let stats = sim.run()?;
        span.run_ns = ns(t);
        span.active_ratio = sim.active_router_ratio();
        span.hops = stats.link_traversals;
        span.backlog = stats.backlog_flits;
        span.generated = stats.flits_generated;
        Ok(RunResult {
            topology_label,
            traffic_label: exp.traffic.label(),
            injection_rate: exp.config.injection_rate,
            seed: job.seed,
            stats,
        })
    })();
    (outcome, span)
}

/// Reports the simulator metrics of a set of job spans, per family,
/// under `prefix` (`sim.grid` or `sim.light`).
fn put_sim(layers: &mut Layers, prefix: &str, spans: &[JobSpan]) {
    for (f, family) in FAMILIES.iter().enumerate() {
        let mine: Vec<&JobSpan> = spans.iter().filter(|s| s.family == f).collect();
        if mine.is_empty() {
            continue;
        }
        let sum = |get: fn(&JobSpan) -> f64| mine.iter().map(|s| get(s)).sum::<f64>();
        let run = sum(|s| s.run_ns);
        layers.put(
            format!("{prefix}.new_us.{family}"),
            "us",
            sum(|s| s.new_ns) / mine.len() as f64 / 1e3,
        );
        layers.put(
            format!("{prefix}.run_ns_per_cycle.{family}"),
            "ns",
            run / sum(|s| s.cycles as f64),
        );
        layers.put(
            format!("{prefix}.run_ns_per_flit_hop.{family}"),
            "ns",
            run / sum(|s| s.hops as f64).max(1.0),
        );
        layers.put(
            format!("{prefix}.active_router_ratio.{family}"),
            "ratio",
            sum(|s| s.active_ratio) / mine.len() as f64,
        );
        layers.put(
            format!("{prefix}.backlog_share.{family}"),
            "share",
            sum(|s| s.backlog as f64) / sum(|s| s.generated as f64).max(1.0),
        );
    }
}

/// Call timings of one figure replay.
#[derive(Default)]
struct CacheCalls {
    fingerprint_ns: Vec<f64>,
    hit_ns: Vec<f64>,
    miss_ns: Vec<f64>,
    store_ns: Vec<f64>,
}

/// Replays the figure workload against `store` (empty for the cold
/// side, filled for the warm side) and returns the rendered digest.
fn replay_figures(
    ctx: &Context,
    opts: &FigureOptions,
    plans: &[FigurePlan],
    store: &Path,
    cold: bool,
    layers: &mut Layers,
) -> Result<Digest, String> {
    use_store(store);
    let cache = ExperimentCache::at(store);
    let side = if cold { "cold" } else { "warm" };
    let mut calls = CacheCalls::default();
    let mut spans = Vec::new();
    let (mut busy_ns, mut offered_ns) = (0.0, 0.0);

    let t = Instant::now();
    let mut figures = plan::analytical_figures();
    if cold {
        layers.put("figures.analytical_ms", "ms", ns(t) / 1e6);
    }
    for plan in plans {
        let t_figure = Instant::now();
        let mut misses = Vec::new();
        for planned in &plan.jobs {
            let job = &planned.job;
            let t = Instant::now();
            let _ = fingerprint(&job.experiment, job.seed);
            calls.fingerprint_ns.push(ns(t));
            let t = Instant::now();
            let hit = cache.lookup(&job.experiment, job.seed);
            if hit.is_some() {
                calls.hit_ns.push(ns(t));
            } else {
                calls.miss_ns.push(ns(t));
                misses.push(planned);
            }
        }
        if !misses.is_empty() {
            let t = Instant::now();
            let outcomes = run_indexed(
                misses
                    .iter()
                    .map(|p| move || timed_job(&p.job, p.family))
                    .collect(),
                Parallelism::Fixed(ctx.workers),
            );
            offered_ns += ns(t) * ctx.workers as f64;
            for (planned, (outcome, span)) in misses.iter().zip(outcomes) {
                let result = outcome.map_err(|e| e.to_string())?;
                busy_ns += span.spec_ns + span.new_ns + span.run_ns;
                spans.push(span);
                let t = Instant::now();
                cache
                    .store(&planned.job.experiment, planned.job.seed, &result)
                    .map_err(|e| format!("cache store: {e}"))?;
                calls.store_ns.push(ns(t));
            }
        }
        figures.extend(plan.figure.run(opts).map_err(|e| e.to_string())?);
        let unit_scale = if cold { ("s", 1e9) } else { ("ms", 1e6) };
        layers.put(
            format!("figures.{side}.{}_{}", plan.figure.name(), unit_scale.0),
            unit_scale.0,
            ns(t_figure) / unit_scale.1,
        );
    }

    let mut digest = Digest::default();
    let (mut report_ns, mut plot_ns) = (0.0, 0.0);
    for figure in &figures {
        let t = Instant::now();
        let texts = plan::render_report(figure);
        report_ns += ns(t);
        let t = Instant::now();
        let plot = plan::render_plot(figure);
        plot_ns += ns(t);
        for text in &texts {
            digest.write(text.as_bytes());
        }
        digest.write(plot.as_bytes());
    }
    layers.put("report.render_ms", "ms", report_ns / 1e6);
    layers.put("plot.render_ms", "ms", plot_ns / 1e6);

    let lookups = (calls.hit_ns.len() + calls.miss_ns.len()) as f64;
    layers.put(
        format!("cache.hit_share.{side}"),
        "share",
        calls.hit_ns.len() as f64 / lookups,
    );
    layers.put(
        "cache.fingerprint_us",
        "us",
        mean(&calls.fingerprint_ns) / 1e3,
    );
    if cold {
        layers.put("cache.lookup_miss_us", "us", mean(&calls.miss_ns) / 1e3);
        layers.put("cache.store_us", "us", mean(&calls.store_ns) / 1e3);
        let stats = cache.stats().map_err(|e| format!("cache stats: {e}"))?;
        layers.put(
            "cache.record_bytes",
            "bytes",
            stats.total_bytes as f64 / stats.entries.max(1) as f64,
        );
        layers.put(
            "parallel.busy_share",
            "share",
            busy_ns / offered_ns.max(1.0),
        );
        let slowest = spans
            .iter()
            .map(|s| s.spec_ns + s.new_ns + s.run_ns)
            .fold(0.0, f64::max);
        layers.put("parallel.slowest_job_ms", "ms", slowest / 1e6);
        layers.put(
            "spec.build_us",
            "us",
            mean(&spans.iter().map(|s| s.spec_ns).collect::<Vec<_>>()) / 1e3,
        );
        put_sim(layers, "sim.grid", &spans);
    } else {
        layers.put("cache.lookup_hit_us", "us", mean(&calls.hit_ns) / 1e3);
    }
    Ok(digest)
}

/// Replays the kernel rows call by call and returns their digest.
fn replay_kernel(rows: &[Experiment], layers: &mut Layers) -> Result<Digest, String> {
    let mut digest = Digest::default();
    let mut spans = Vec::new();
    for (f, row) in rows.iter().enumerate() {
        let job = ExperimentJob {
            experiment: row.clone(),
            seed: row.config.seed,
        };
        let (outcome, span) = timed_job(&job, f);
        plan::digest_stats(&mut digest, &outcome.map_err(|e| e.to_string())?.stats);
        spans.push(span);
    }
    put_sim(layers, "sim.light", &spans);
    Ok(digest)
}

/// Back-to-back ratios on the kernel rows: the dense reference core
/// against the sparse one, and a recording probe against none. Both
/// pairs must produce identical statistics.
fn ab_ratios(rows: &[Experiment], layers: &mut Layers, report: &mut Report) -> Result<(), String> {
    for (row, family) in rows.iter().zip(FAMILIES) {
        let t = Instant::now();
        let sparse = plan::run_kernel_row(row).map_err(|e| e.to_string())?;
        let sparse_ns = ns(t);
        let mut dense_row = row.clone();
        dense_row.config.sparse = false;
        let t = Instant::now();
        let dense = plan::run_kernel_row(&dense_row).map_err(|e| e.to_string())?;
        layers.put(
            format!("sim.dense_over_sparse.{family}"),
            "ratio",
            ns(t) / sparse_ns,
        );
        report.check(dense == sparse, || {
            format!("{family}: dense and sparse cores disagree")
        });

        // The recorder keeps every flit event in memory, so the probe
        // pair runs a sixth of the row's measured window.
        let mut short = row.clone();
        short.config.measure_cycles /= 6;
        let seed = short.config.seed;
        let t = Instant::now();
        let plain = short.run_with_seed(seed).map_err(|e| e.to_string())?;
        let plain_ns = ns(t);
        let t = Instant::now();
        let (traced, recorder) = short
            .run_traced_with_seed(seed)
            .map_err(|e| e.to_string())?;
        layers.put(
            format!("probe.recorder_over_null.{family}"),
            "ratio",
            ns(t) / plain_ns,
        );
        drop(recorder);
        report.check(plain == traced, || {
            format!("{family}: the recorder perturbed the run")
        });
    }
    Ok(())
}

/// Runs the traced replays for `ctx.seconds` and reports the per-layer
/// metrics.
pub fn run(ctx: &Context) -> Result<Report, String> {
    let mut report = Report::default();
    let warm_store = ctx.work.fresh("warm");
    let (figures, _) =
        ctx.timed(|watch| workloads::figure_setup(ctx, &warm_store, &mut report, watch));
    let figures = figures?;
    let (kernel, _) =
        ctx.timed(|watch| workloads::kernel_setup(ctx.size, ctx.seed, &mut report, watch));
    let kernel = kernel?;
    let filled = snapshot(&warm_store);
    let mut layers = Layers::default();
    let start = Instant::now();
    loop {
        // figures-cold: untraced pass, then the traced replay.
        let store = ctx.work.fresh("cold");
        use_store(&store);
        let (outcome, untraced) = ctx.timed(|watch| workloads::figure_pass(&figures.opts, watch));
        discard(&store);
        report.count(figures.jobs, expect_digest(outcome, figures.reference));
        let store = ctx.work.fresh("cold");
        let (outcome, traced) = ctx.timed(|watch| {
            watch.lap(|| {
                replay_figures(
                    ctx,
                    &figures.opts,
                    &figures.plans,
                    &store,
                    true,
                    &mut layers,
                )
            })
        });
        let stored = record_count(&store);
        discard(&store);
        report.count(figures.jobs, expect_digest(outcome, figures.reference));
        report.check(stored == figures.distinct, || {
            format!("cold replay stored {stored} of {} points", figures.distinct)
        });
        layers.put(
            "trace_overhead.figures-cold",
            "ratio",
            traced.raw_wall_s / untraced.raw_wall_s,
        );

        // figures-warm: both passes read the store set-up filled.
        use_store(&warm_store);
        let (outcome, untraced) = ctx.timed(|watch| workloads::figure_pass(&figures.opts, watch));
        report.count(figures.jobs, expect_digest(outcome, figures.reference));
        let (outcome, traced) = ctx.timed(|watch| {
            watch.lap(|| {
                replay_figures(
                    ctx,
                    &figures.opts,
                    &figures.plans,
                    &warm_store,
                    false,
                    &mut layers,
                )
            })
        });
        report.count(figures.jobs, expect_digest(outcome, figures.reference));
        report.check(snapshot(&warm_store) == filled, || {
            "a warm replay missed the store and rewrote it".into()
        });
        layers.put(
            "trace_overhead.figures-warm",
            "ratio",
            traced.raw_wall_s / untraced.raw_wall_s,
        );

        // kernel-light.
        let rows = kernel.rows.len() as u64;
        let (outcome, untraced) = ctx.timed(|watch| workloads::kernel_pass(&kernel.rows, watch));
        report.count(rows, expect_digest(outcome, kernel.reference));
        let (outcome, traced) =
            ctx.timed(|watch| watch.lap(|| replay_kernel(&kernel.rows, &mut layers)));
        report.count(rows, expect_digest(outcome, kernel.reference));
        layers.put(
            "trace_overhead.kernel-light",
            "ratio",
            traced.raw_wall_s / untraced.raw_wall_s,
        );

        ab_ratios(&kernel.rows, &mut layers, &mut report)?;
        layers.put("model.fig5_err_pct", "%", figures.model_err_pct);
        layers.put("model.kernel_err_pct", "%", kernel.model_err_pct);
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    discard(&warm_store);
    for (name, (unit, values)) in layers.samples {
        report.metric(name, unit, median(&values));
    }
    Ok(report)
}
