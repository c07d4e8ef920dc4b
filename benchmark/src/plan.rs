//! What the workloads compute: the paper-figure grid and the
//! light-load kernel rows, plus rendering and output digests.
//!
//! The job lists below restate the grids the `noc_core::figures`
//! functions flatten internally (same specs, configs and seeds), so the
//! traced run can drive each point through the cache and the engine
//! itself. Every cold pass checks that the figure functions store exactly
//! these points, so a grid that drifts from this copy is reported as a
//! failure rather than measured silently.

use crate::host::Digest;
use noc_core::figures::{self, FigureOptions};
use noc_core::noc_sim::{SimConfig, SimStats};
use noc_core::noc_traffic::PlacementScenario;
use noc_core::plot::{self, PlotOptions};
use noc_core::report::FigureData;
use noc_core::{fingerprint, CoreError, Experiment, ExperimentJob, TopologySpec, TrafficSpec};
use std::collections::HashSet;

/// Topology families, in the order every per-family metric uses.
pub const FAMILIES: [&str; 3] = ["ring", "spidergon", "mesh"];

/// Injection rate of the kernel rows (flits/cycle/source): below
/// saturation for all three 64-node families under uniform traffic.
pub const KERNEL_RATE: f64 = 0.05;

/// Problem size: `Full` for measurements, `Smoke` for the package's
/// own test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    /// The figure grid: the paper's node counts, 12 rates up to 0.6 and
    /// one replication, at 2,000 cycles per point.
    pub fn figure_options(self, seed: u64) -> FigureOptions {
        match self {
            Size::Full => FigureOptions {
                warmup_cycles: 200,
                measure_cycles: 1_800,
                replications: 1,
                seed,
                max_rate: 0.6,
                rate_steps: 12,
                node_counts: vec![8, 16, 24, 32],
            },
            Size::Smoke => FigureOptions {
                warmup_cycles: 100,
                measure_cycles: 1_000,
                replications: 1,
                seed,
                max_rate: 0.6,
                rate_steps: 2,
                node_counts: vec![8],
            },
        }
    }

    fn kernel_shape(self) -> (usize, u64, u64) {
        match self {
            // nodes, warmup cycles, measured cycles
            Size::Full => (64, 2_000, 30_000),
            Size::Smoke => (16, 200, 3_000),
        }
    }
}

/// The simulated figure functions of the paper, in publication order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimFigure {
    Fig5,
    Fig6_7,
    Fig8_9,
    Fig10_11,
}

impl SimFigure {
    pub const ALL: [SimFigure; 4] = [
        SimFigure::Fig5,
        SimFigure::Fig6_7,
        SimFigure::Fig8_9,
        SimFigure::Fig10_11,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SimFigure::Fig5 => "fig5",
            SimFigure::Fig6_7 => "fig6_7",
            SimFigure::Fig8_9 => "fig8_9",
            SimFigure::Fig10_11 => "fig10_11",
        }
    }

    /// Calls the figure function; its engine reads `NOC_CACHE` and
    /// `NOC_THREADS`, which the benchmark pins.
    pub fn run(self, opts: &FigureOptions) -> Result<Vec<FigureData>, CoreError> {
        Ok(match self {
            SimFigure::Fig5 => vec![figures::fig5(opts)?],
            SimFigure::Fig6_7 => pair(figures::fig6_7(opts)?),
            SimFigure::Fig8_9 => pair(figures::fig8_9(opts)?),
            SimFigure::Fig10_11 => pair(figures::fig10_11(opts)?),
        })
    }
}

fn pair((a, b): (FigureData, FigureData)) -> Vec<FigureData> {
    vec![a, b]
}

/// The analytical figures: Figures 2 and 3 and the link-count table.
pub fn analytical_figures() -> Vec<FigureData> {
    vec![
        figures::fig2(64),
        figures::fig3(64),
        figures::table_links(&[8, 12, 16, 24, 32, 48, 64]),
    ]
}

/// One simulation point of a figure, with its topology family index.
#[derive(Clone, Debug)]
pub struct PlannedJob {
    pub family: usize,
    /// `true` for the rate sweeps (Figures 6-11), `false` for Figure 5.
    pub sweep: bool,
    pub job: ExperimentJob,
}

/// The job list of one simulated figure.
#[derive(Clone, Debug)]
pub struct FigurePlan {
    pub figure: SimFigure,
    pub jobs: Vec<PlannedJob>,
}

/// Family index of a figure topology.
pub fn family_of(spec: &TopologySpec) -> usize {
    match spec {
        TopologySpec::Ring { .. } => 0,
        TopologySpec::Spidergon { .. } => 1,
        _ => 2,
    }
}

fn families(n: usize) -> [TopologySpec; 3] {
    [
        TopologySpec::Ring { nodes: n },
        TopologySpec::Spidergon { nodes: n },
        TopologySpec::MeshBalanced { nodes: n },
    ]
}

fn base_config(opts: &FigureOptions) -> SimConfig {
    SimConfig::builder()
        .warmup_cycles(opts.warmup_cycles)
        .measure_cycles(opts.measure_cycles)
        .seed(opts.seed)
        .build()
        .expect("figure options produce a valid config")
}

fn push_point(
    out: &mut Vec<PlannedJob>,
    opts: &FigureOptions,
    topology: TopologySpec,
    traffic: TrafficSpec,
    rate: f64,
    sweep: bool,
) {
    let mut config = base_config(opts);
    config.injection_rate = rate;
    let experiment = Experiment {
        topology,
        traffic,
        config,
    };
    for rep in 0..opts.replications {
        out.push(PlannedJob {
            family: family_of(&topology),
            sweep,
            job: ExperimentJob {
                seed: experiment.config.seed.wrapping_add(rep as u64),
                experiment: experiment.clone(),
            },
        });
    }
}

/// The job lists the four simulated figure functions run.
pub fn figure_plans(opts: &FigureOptions) -> Vec<FigurePlan> {
    let rates = opts.rates();
    SimFigure::ALL
        .into_iter()
        .map(|figure| {
            let mut jobs = Vec::new();
            let sweep = |jobs: &mut Vec<PlannedJob>, topology, traffic| {
                for &rate in &rates {
                    push_point(jobs, opts, topology, traffic, rate, true);
                }
            };
            match figure {
                SimFigure::Fig5 => {
                    for n in (2..=8).map(|h| h * 4) {
                        for spec in families(n) {
                            push_point(&mut jobs, opts, spec, TrafficSpec::Uniform, 0.1, false);
                        }
                    }
                }
                SimFigure::Fig6_7 => {
                    for &n in &opts.node_counts {
                        for spec in families(n) {
                            sweep(&mut jobs, spec, TrafficSpec::SingleHotspot { target: 0 });
                        }
                    }
                }
                SimFigure::Fig8_9 => {
                    for &n in &opts.node_counts {
                        for spec in families(n) {
                            for scenario in
                                [PlacementScenario::Opposed, PlacementScenario::CornerMiddle]
                            {
                                sweep(
                                    &mut jobs,
                                    spec,
                                    TrafficSpec::DoubleHotspotPlaced { scenario },
                                );
                            }
                        }
                    }
                }
                SimFigure::Fig10_11 => {
                    for &n in &opts.node_counts {
                        for spec in families(n) {
                            sweep(&mut jobs, spec, TrafficSpec::Uniform);
                        }
                    }
                }
            }
            FigurePlan { figure, jobs }
        })
        .collect()
}

/// Number of distinct cache keys among all planned jobs: what a cold
/// pass simulates and stores.
pub fn distinct_points(plans: &[FigurePlan]) -> usize {
    plans
        .iter()
        .flat_map(|plan| &plan.jobs)
        .map(|p| fingerprint(&p.job.experiment, p.job.seed))
        .collect::<HashSet<_>>()
        .len()
}

/// The report renderings of a figure: JSON, CSV and the ASCII table.
pub fn render_report(figure: &FigureData) -> [String; 3] {
    [figure.to_json(), figure.to_csv(), figure.to_ascii_table()]
}

/// The terminal plot of a figure, log-scaled for latency axes as the
/// figure binaries draw it.
pub fn render_plot(figure: &FigureData) -> String {
    let options = if figure.y_label.contains("latency") || figure.y_label.contains("cycles") {
        PlotOptions::log()
    } else {
        PlotOptions::default()
    };
    plot::render(figure, options)
}

/// Renders every figure in memory and digests the bytes.
pub fn render_all(figures: &[FigureData]) -> Digest {
    let mut digest = Digest::default();
    for figure in figures {
        for text in render_report(figure) {
            digest.write(text.as_bytes());
        }
        digest.write(render_plot(figure).as_bytes());
    }
    digest
}

/// Largest relative error (percent) of Figure 5's simulated mean hop
/// counts against the exact average distance of each topology.
pub fn fig5_model_error_pct(figures: &[FigureData]) -> Option<f64> {
    let fig5 = figures.iter().find(|f| f.id == "fig5")?;
    let mut worst: f64 = 0.0;
    for family in FAMILIES {
        let exact = fig5.series_by_label(&format!("{family}-analytical"))?;
        let simulated = fig5.series_by_label(&format!("{family}-simulated"))?;
        for point in &simulated.points {
            let reference = exact.y_at(point.x)?;
            worst = worst.max((point.y - reference).abs() / reference * 100.0);
        }
    }
    Some(worst)
}

/// The kernel rows: Ring, Spidergon and 2D Mesh at 64 nodes under
/// uniform traffic at [`KERNEL_RATE`].
pub fn kernel_rows(size: Size, seed: u64) -> Vec<Experiment> {
    let (nodes, warmup, measure) = size.kernel_shape();
    let config = SimConfig::builder()
        .injection_rate(KERNEL_RATE)
        .warmup_cycles(warmup)
        .measure_cycles(measure)
        .seed(seed)
        .build()
        .expect("kernel config is valid");
    families(nodes)
        .into_iter()
        .map(|topology| Experiment {
            topology,
            traffic: TrafficSpec::Uniform,
            config: config.clone(),
        })
        .collect()
}

/// Runs one kernel row on the calling thread: no engine, no cache.
pub fn run_kernel_row(row: &Experiment) -> Result<SimStats, CoreError> {
    Ok(row.build_simulation()?.run()?)
}

/// Digest of a kernel row's statistics.
pub fn digest_stats(digest: &mut Digest, stats: &SimStats) {
    digest.write(
        serde_json::to_string(stats)
            .expect("stats serialize")
            .as_bytes(),
    );
}

/// Backlog share of a run: flits still queued at the sources at the end
/// over flits generated in the measured window.
pub fn backlog_share(stats: &SimStats) -> f64 {
    stats.backlog_flits as f64 / stats.flits_generated.max(1) as f64
}

/// Relative error (percent) of a run's mean hop count against the exact
/// average distance of its topology.
pub fn hop_error_pct(row: &Experiment, stats: &SimStats) -> Result<f64, CoreError> {
    let exact = noc_core::noc_topology::metrics::average_distance(&*row.topology.build()?);
    let hops = stats.mean_hops().unwrap_or(0.0);
    Ok((hops - exact).abs() / exact * 100.0)
}
