//! Reproduction of every figure in the paper's evaluation, plus the
//! extension figures.
//!
//! | Function | Figure | Content |
//! |---|---|---|
//! | [`fig2`] | Figure 2 | Network diameter `ND` vs `N` (Ring, ideal mesh, real meshes, Spidergon) |
//! | [`fig3`] | Figure 3 | Average network distance `E[D]` vs `N` |
//! | [`table_links`] | Section 2 (text) | Link counts `2N` / `3N` / `2(m-1)n + 2(n-1)m` |
//! | [`fig5`] | Figure 5 | Analytical vs simulated average distance |
//! | [`fig6_7`] | Figures 6, 7 | Throughput and latency vs injection rate, **single hot-spot** |
//! | [`fig8_9`] | Figures 8, 9 | Throughput and latency, **double hot-spot** (placements A/B) |
//! | [`fig10_11`] | Figures 10, 11 | Throughput and latency, **homogeneous uniform** traffic |
//! | [`ext_torus`] | Extension | Uniform throughput and latency with the torus added |
//! | [`ext_mixed_hotspot`] | Extension | Throughput vs hot-spot fraction |
//! | [`ext_adaptive`] | Extension | XY vs West-First mesh routing |
//! | [`ext_spidergon_routing`] | Extension | Spidergon Across-First vs Across-Last latency |
//! | [`ext_link_heatmap`] | Extension | Per-link utilization under a single hot-spot |
//! | [`manifest`] | 5-11, torus, mixed | The simulated sweep figures as data |
//!
//! One runner turns a manifest entry into a single engine call and the
//! results into [`FigureData`], so both figures of a pair (`_7`, `_9`,
//! `_11`) cost one set of simulations. `ext_adaptive` and
//! `ext_spidergon_routing` run manifest-shaped entries with routing an
//! [`Experiment`] cannot name. [`SETS`] groups the
//! figures by the IDs `noc-cli figures` takes.

use crate::experiment::{aggregate_each, RoutingFn};
use crate::parallel::{run_indexed, ExperimentJob, Parallelism};
use crate::report::{FigureData, Point, Series};
use crate::sweep::{at_rate, validate_rates};
use crate::{rate_grid, run_points, Aggregate, CoreError, Experiment, TopologySpec, TrafficSpec};
use noc_routing::{RoutingAlgorithm, SpidergonAcrossLast};
use noc_sim::{NullProbe, SimConfig};
use noc_topology::{analytical, metrics, real_mesh, IrregularMesh, RectMesh, Spidergon, Topology};
use noc_traffic::PlacementScenario;

/// Quality knobs for the simulation-based figures.
#[derive(Clone, PartialEq, Debug)]
pub struct FigureOptions {
    /// Warmup cycles per run.
    pub warmup_cycles: u64,
    /// Measured cycles per run.
    pub measure_cycles: u64,
    /// Replications (seeds) per point.
    pub replications: usize,
    /// Base seed.
    pub seed: u64,
    /// Largest injection rate of the sweep grid (flits/cycle/source).
    pub max_rate: f64,
    /// Injection rates per sweep (evenly spaced up to `max_rate`).
    pub rate_steps: usize,
    /// Node counts to simulate (even values serve all families; the
    /// paper uses 8 and 24 for the hot-spot figures and up to 32 for
    /// the homogeneous ones).
    pub node_counts: Vec<usize>,
}

impl FigureOptions {
    /// Paper-quality settings (minutes of CPU in release mode).
    pub fn full() -> Self {
        FigureOptions {
            warmup_cycles: 2_000,
            measure_cycles: 20_000,
            replications: 3,
            seed: 2006,
            max_rate: 0.6,
            rate_steps: 12,
            node_counts: vec![8, 16, 24, 32],
        }
    }

    /// Fast settings for tests and smoke runs (seconds of CPU).
    pub fn quick() -> Self {
        FigureOptions {
            warmup_cycles: 200,
            measure_cycles: 1_500,
            replications: 1,
            seed: 2006,
            max_rate: 0.5,
            rate_steps: 5,
            node_counts: vec![8, 16],
        }
    }

    /// The injection-rate grid implied by `max_rate` / `rate_steps`
    /// ([`rate_grid`]).
    pub fn rates(&self) -> Vec<f64> {
        rate_grid(self.max_rate, self.rate_steps)
    }

    fn base_config(&self) -> SimConfig {
        SimConfig::builder()
            .warmup_cycles(self.warmup_cycles)
            .measure_cycles(self.measure_cycles)
            .seed(self.seed)
            .build()
            .expect("figure options produce a valid config")
    }

    /// Rejects options no simulated figure can run: an empty or
    /// non-ascending rate grid, or no replications.
    fn validate(&self) -> Result<(), CoreError> {
        validate_rates(&self.rates())?;
        if self.replications == 0 {
            return Err(CoreError::InvalidSpec {
                reason: "replications must be positive".to_owned(),
            });
        }
        Ok(())
    }
}

impl Default for FigureOptions {
    fn default() -> Self {
        FigureOptions::full()
    }
}

/// Figure 2: network diameter `ND` vs number of nodes, for Ring, the
/// continuous ideal-mesh curve, the two real-mesh families and
/// Spidergon. Pure graph analysis (no simulation).
///
/// # Panics
///
/// Panics if `max_nodes < 6`.
pub fn fig2(max_nodes: usize) -> FigureData {
    assert!(max_nodes >= 6, "figure 2 needs at least 6 nodes");
    let title = "Network diameter ND vs number of nodes N";
    distance_curves(
        FigureData::new("fig2", title, "N", "ND (hops)"),
        max_nodes,
        [
            |n| analytical::ring_diameter(n) as f64,
            real_mesh::ideal_mesh_diameter_continuous,
            |n| analytical::spidergon_diameter(n) as f64,
        ],
        |mesh| metrics::diameter(mesh) as f64,
    )
}

/// Figure 3: average network distance `E[D]` vs number of nodes (paper
/// normalization, `sum / N`). Pure graph analysis.
///
/// # Panics
///
/// Panics if `max_nodes < 6`.
pub fn fig3(max_nodes: usize) -> FigureData {
    assert!(max_nodes >= 6, "figure 3 needs at least 6 nodes");
    let title = "Average network distance E[D] vs number of nodes N";
    distance_curves(
        FigureData::new("fig3", title, "N", "E[D] (hops)"),
        max_nodes,
        [
            analytical::ring_average_distance,
            real_mesh::ideal_mesh_average_distance_continuous,
            analytical::spidergon_average_distance,
        ],
        |mesh| metrics::average_distance_paper(mesh),
    )
}

/// The five curves of Figures 2 and 3 up to `max_nodes`: Ring, the
/// ideal mesh and Spidergon (even `N`) in closed form, and `measure` of
/// the two real-mesh families.
fn distance_curves(
    mut fig: FigureData,
    max_nodes: usize,
    [ring, ideal_mesh, spidergon]: [fn(usize) -> f64; 3],
    measure: fn(&dyn Topology) -> f64,
) -> FigureData {
    let curve = |from, y: &dyn Fn(usize) -> f64| {
        Vec::from_iter((from..=max_nodes).map(|n| (n as f64, y(n))))
    };
    let rect = |n| measure(&RectMesh::balanced(n).expect("n >= 4"));
    let irregular = |n| measure(&IrregularMesh::realistic(n).expect("n >= 4"));
    fig.push_series(Series::from_xy("ring", curve(3, &ring)));
    fig.push_series(Series::from_xy("ideal-mesh", curve(4, &ideal_mesh)));
    fig.push_series(Series::from_xy("real-mesh-rect", curve(4, &rect)));
    fig.push_series(Series::from_xy("real-mesh-irregular", curve(4, &irregular)));
    let even = (2..=max_nodes / 2).map(|half| 2 * half);
    let spidergon = Vec::from_iter(even.map(|n| (n as f64, spidergon(n))));
    fig.push_series(Series::from_xy("spidergon", spidergon));
    fig
}

/// Section 2's in-text link-count comparison as a table: `2N` for Ring,
/// `3N` for Spidergon, `2(m-1)n + 2(n-1)m` for the balanced mesh.
pub fn table_links(node_counts: &[usize]) -> FigureData {
    let title = "Unidirectional link counts per topology";
    let mut fig = FigureData::new("table-links", title, "N", "links");
    let counts = |ns: &[usize], links: &dyn Fn(usize) -> usize| {
        Vec::from_iter(ns.iter().map(|&n| (n as f64, links(n) as f64)))
    };
    let mesh_links = |n| {
        let mesh = RectMesh::balanced(n).expect("n >= 2");
        analytical::mesh_link_count(mesh.cols(), mesh.rows())
    };
    let even: Vec<usize> = node_counts.iter().copied().filter(|n| n % 2 == 0).collect();
    let ring = counts(node_counts, &analytical::ring_link_count);
    fig.push_series(Series::from_xy("ring", ring));
    let spidergon = counts(&even, &analytical::spidergon_link_count);
    fig.push_series(Series::from_xy("spidergon", spidergon));
    fig.push_series(Series::from_xy("mesh", counts(node_counts, &mesh_links)));
    fig
}

/// What an output figure plots for each point's replications.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Statistic {
    /// Aggregate throughput in flits/cycle (mean ± sample std).
    Throughput,
    /// Mean packet latency in cycles (mean ± sample std).
    Latency,
    /// Mean hops per delivered packet (no spread).
    MeanHops,
}

impl Statistic {
    /// The y-axis label of a figure plotting this statistic.
    pub fn axis_label(self) -> &'static str {
        match self {
            Statistic::Throughput => "throughput (flits/cycle)",
            Statistic::Latency => "latency (cycles)",
            Statistic::MeanHops => "E[D] (hops)",
        }
    }

    /// `(y, std)` of this statistic over one point's replications.
    fn of(self, agg: &Aggregate) -> (f64, f64) {
        match self {
            Statistic::Throughput => (agg.throughput_mean, agg.throughput_std),
            Statistic::Latency => (agg.latency_mean, agg.latency_std),
            Statistic::MeanHops => (agg.mean_hops, 0.0),
        }
    }

    /// An output figure plotting this statistic.
    const fn figure(self, id: &'static str, title: &'static str) -> FigureOutput {
        FigureOutput {
            id,
            title,
            statistic: self,
        }
    }
}

/// One figure drawn from a manifest entry's runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FigureOutput {
    /// Figure ID, e.g. `"fig6"`; also the name of its result files.
    pub id: &'static str,
    /// Figure title.
    pub title: &'static str,
    /// What the figure plots; its y-axis label follows from it.
    pub statistic: Statistic,
}

/// One simulated point of a series: `(x, topology, traffic, λ)`, the
/// x coordinate in every output figure and the experiment behind it at
/// injection rate λ (flits/cycle/source).
pub type ManifestPoint = (f64, TopologySpec, TrafficSpec, f64);

/// One curve of a manifest entry, drawn in every output figure.
#[derive(Clone, PartialEq, Debug)]
pub struct ManifestSeries {
    /// Curve label, e.g. `"spidergon-16"`.
    pub label: String,
    /// The points, in x order.
    pub points: Vec<ManifestPoint>,
}

/// One simulated figure, or a pair sharing its simulations, as data.
#[derive(Clone, PartialEq, Debug)]
pub struct ManifestEntry {
    /// X-axis label of every output.
    pub x_label: &'static str,
    /// The figures drawn from the entry's runs.
    pub outputs: Vec<FigureOutput>,
    /// The curves. Every point runs `replications` times, with seeds
    /// `seed, seed + 1, ...`.
    pub series: Vec<ManifestSeries>,
}

/// X-axis label of the rate sweeps.
const RATE_AXIS: &str = "lambda (flits/cycle/source)";

/// Builds a family's topology spec at a node count.
type FamilyFn = fn(usize) -> TopologySpec;

/// The topology families the paper compares, by label.
const FAMILIES: [(&str, FamilyFn); 3] = [
    ("ring", |nodes| TopologySpec::Ring { nodes }),
    ("spidergon", |nodes| TopologySpec::Spidergon { nodes }),
    ("mesh", |nodes| TopologySpec::MeshBalanced { nodes }),
];

/// Figure 5's node counts.
const FIG5_NODES: [usize; 7] = [8, 12, 16, 20, 24, 28, 32];

/// A series sweeping `opts.rates()` on one (topology, traffic) pair.
fn sweep(
    opts: &FigureOptions,
    label: String,
    topology: TopologySpec,
    traffic: TrafficSpec,
) -> ManifestSeries {
    let points = opts.rates().into_iter().map(|r| (r, topology, traffic, r));
    ManifestSeries {
        label,
        points: points.collect(),
    }
}

/// Side of the square grid of the torus and adaptive extensions: the
/// largest node count rounded to a square, at least 3 × 3.
fn square_side(opts: &FigureOptions) -> usize {
    let n = opts.node_counts.iter().copied().max().unwrap_or(16);
    ((n as f64).sqrt().round() as usize).max(3)
}

/// The largest even node count (Spidergon needs one), else 16.
fn largest_even(opts: &FigureOptions) -> usize {
    let even = opts.node_counts.iter().copied().filter(|n| n % 2 == 0);
    even.max().unwrap_or(16)
}

/// The simulated sweep figures as data, in publication order: Figure 5's
/// simulated half, Figures 6/7, 8/9 and 10/11, then the torus and mixed
/// hot-spot extensions.
pub fn manifest(opts: &FigureOptions) -> Vec<ManifestEntry> {
    use Statistic::{Latency, MeanHops, Throughput};
    // Node count × family × traffic variant: the paper's sweep grid.
    let paper_grid = |variants: &[(&str, TrafficSpec)]| {
        let mut grid = Vec::new();
        for &n in &opts.node_counts {
            for (family, spec) in FAMILIES {
                for &(tag, traffic) in variants {
                    grid.push(sweep(opts, format!("{family}-{n}{tag}"), spec(n), traffic));
                }
            }
        }
        grid
    };
    let placed = |scenario| TrafficSpec::DoubleHotspotPlaced { scenario };
    let mixed = |fraction| TrafficSpec::MixedHotspot {
        target: 0,
        fraction,
    };
    let fractions: [f64; 11] = std::array::from_fn(|i| i as f64 / 10.0);
    let (side, even) = (square_side(opts), largest_even(opts));
    let (n, cols, rows) = (side * side, side, side);
    let torus_grid = [
        ("ring", TopologySpec::Ring { nodes: n }),
        ("spidergon", TopologySpec::Spidergon { nodes: n }),
        ("mesh", TopologySpec::Mesh { cols, rows }),
        ("torus", TopologySpec::Torus { cols, rows }),
    ];
    vec![
        ManifestEntry {
            x_label: "N",
            outputs: vec![MeanHops.figure(
                "fig5",
                "Analytical and simulation-based average network distances",
            )],
            // Light load: negligible queueing, hops unaffected.
            series: Vec::from(FAMILIES.map(|(family, spec)| ManifestSeries {
                label: format!("{family}-simulated"),
                points: Vec::from(
                    FIG5_NODES.map(|n| (n as f64, spec(n), TrafficSpec::Uniform, 0.1)),
                ),
            })),
        },
        ManifestEntry {
            x_label: RATE_AXIS,
            outputs: vec![
                Throughput.figure("fig6", "NoC throughput, one hot-spot destination node"),
                Latency.figure("fig7", "NoC latency, one hot-spot destination node"),
            ],
            series: paper_grid(&[("", TrafficSpec::SingleHotspot { target: 0 })]),
        },
        ManifestEntry {
            x_label: RATE_AXIS,
            outputs: vec![
                Throughput.figure("fig8", "NoC throughput, two hot-spot destination nodes"),
                Latency.figure("fig9", "NoC latency, two hot-spot destination nodes"),
            ],
            series: paper_grid(&[
                ("-A", placed(PlacementScenario::Opposed)),
                ("-B", placed(PlacementScenario::CornerMiddle)),
            ]),
        },
        ManifestEntry {
            x_label: RATE_AXIS,
            outputs: vec![
                Throughput.figure(
                    "fig10",
                    "NoC throughput, homogeneous sources and destinations",
                ),
                Latency.figure("fig11", "NoC latency, homogeneous sources and destinations"),
            ],
            series: paper_grid(&[("", TrafficSpec::Uniform)]),
        },
        ManifestEntry {
            x_label: RATE_AXIS,
            outputs: vec![
                Throughput.figure("ext-torus", "Extension: uniform throughput incl. torus"),
                Latency.figure(
                    "ext-torus-latency",
                    "Extension: uniform latency incl. torus",
                ),
            ],
            series: Vec::from(torus_grid.map(|(family, spec)| {
                sweep(opts, format!("{family}-{n}"), spec, TrafficSpec::Uniform)
            })),
        },
        ManifestEntry {
            x_label: "hot-spot fraction",
            outputs: vec![Throughput.figure(
                "ext-mixed-hotspot",
                "Extension: throughput vs hot-spot fraction (lambda = 0.25)",
            )],
            series: Vec::from(FAMILIES.map(|(family, spec)| ManifestSeries {
                label: format!("{family}-{even}"),
                points: Vec::from(fractions.map(|f| (f, spec(even), mixed(f), 0.25))),
            })),
        },
    ]
}

/// Every point of `entry` as an experiment on the options' base
/// configuration: series-major, then in x order.
fn points(opts: &FigureOptions, entry: &ManifestEntry) -> Vec<Experiment> {
    let base = opts.base_config();
    let points = entry.series.iter().flat_map(|series| &series.points);
    points
        .map(|&(_, topology, traffic, rate)| at_rate(topology, traffic, &base, rate))
        .collect()
}

/// Draws an entry's output figures from one aggregate per point, in
/// [`points`] order.
fn assemble(entry: &ManifestEntry, aggregates: &[Aggregate]) -> Vec<FigureData> {
    let figure = |out: &FigureOutput| {
        let y_label = out.statistic.axis_label();
        let mut fig = FigureData::new(out.id, out.title, entry.x_label, y_label);
        let mut aggregates = aggregates.iter();
        for series in &entry.series {
            let points = series.points.iter().zip(aggregates.by_ref());
            let points = points.map(|(&(x, ..), agg)| {
                let (y, std) = out.statistic.of(agg);
                Point { x, y, std }
            });
            fig.push_series(Series {
                label: series.label.clone(),
                points: points.collect(),
            });
        }
        fig
    };
    entry.outputs.iter().map(figure).collect()
}

/// Runs the manifest entry whose first output is `id` as **one** engine
/// call, exposing its whole grid to the worker pool at once.
fn run_manifest(opts: &FigureOptions, id: &str) -> Result<Vec<FigureData>, CoreError> {
    opts.validate()?;
    let entry = manifest(opts)
        .into_iter()
        .find(|entry| entry.outputs[0].id == id)
        .expect("the manifest lists every simulated sweep figure");
    let points = points(opts, &entry);
    let aggregates = run_points(&points, opts.replications, Parallelism::default())?;
    Ok(assemble(&entry, &aggregates))
}

/// The custom-routing builder: runs `entry` like [`run_manifest`], but
/// series `i` routes with `routing[i]`, which an
/// [`Experiment`] cannot express. Each point is one
/// `Experiment::run_routed` call on the generic engine, uncached (the
/// cache key has no routing field).
fn run_routed(
    opts: &FigureOptions,
    entry: &ManifestEntry,
    routing: &[RoutingFn],
) -> Result<Vec<FigureData>, CoreError> {
    opts.validate()?;
    let routing = entry.series.iter().zip(routing);
    let routing = routing.flat_map(|(series, &routing)| series.points.iter().map(move |_| routing));
    let mut jobs = Vec::new();
    for (point, routing) in points(opts, entry).iter().zip(routing) {
        for ExperimentJob { experiment, seed } in point.replication_jobs(opts.replications)? {
            jobs.push(move || {
                experiment
                    .run_routed(seed, routing, NullProbe)
                    .map(|run| run.0)
            });
        }
    }
    let runs = run_indexed(jobs, Parallelism::default())
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(assemble(entry, &aggregate_each(opts.replications, runs)))
}

/// Splits a two-output entry's figures into (throughput, latency).
fn pair(figures: Vec<FigureData>) -> (FigureData, FigureData) {
    let [throughput, latency] = <[FigureData; 2]>::try_from(figures).expect("two outputs");
    (throughput, latency)
}

/// Figure 5: analytical vs simulated average network distance (hops)
/// for Ring, Spidergon and the balanced mesh, `N` from 8 to 32.
///
/// Simulated values are the mean hop count of delivered packets under
/// light uniform traffic; analytical values are the exact mean shortest
/// path over ordered pairs (what a uniform-pair mean converges to).
///
/// # Errors
///
/// Returns [`CoreError::InvalidSpec`] for invalid options, else the
/// first simulation error.
pub fn fig5(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    let mut fig = run_manifest(opts, "fig5")?.remove(0);
    let mut analytical = Vec::new();
    for (family, spec) in FAMILIES {
        let mut xy = Vec::new();
        for n in FIG5_NODES {
            xy.push((n as f64, metrics::average_distance(&*spec(n).build()?)));
        }
        analytical.push(Series::from_xy(format!("{family}-analytical"), xy));
    }
    fig.series.splice(0..0, analytical);
    Ok(fig)
}

/// Figures 6 and 7: throughput and latency vs injection rate with one
/// hot-spot destination (node 0), per topology and node count.
///
/// # Errors
///
/// See [`fig5`].
pub fn fig6_7(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    run_manifest(opts, "fig6").map(pair)
}

/// Figures 8 and 9: throughput and latency vs injection rate with two
/// hot-spot destinations under the paper's placement scenarios A
/// (opposed) and B (corner/middle).
///
/// # Errors
///
/// See [`fig5`].
pub fn fig8_9(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    run_manifest(opts, "fig8").map(pair)
}

/// Figures 10 and 11: throughput and latency vs injection rate under
/// homogeneous uniform traffic, per topology and node count.
///
/// # Errors
///
/// See [`fig5`].
pub fn fig10_11(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    run_manifest(opts, "fig10").map(pair)
}

/// Extension figure: uniform-traffic throughput and latency with the
/// **torus** alongside the paper's three topologies, at a fixed node
/// count (the largest entry of `opts.node_counts`, rounded to a square
/// grid for the torus/mesh).
///
/// # Errors
///
/// See [`fig5`].
pub fn ext_torus(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    run_manifest(opts, "ext-torus").map(pair)
}

/// Extension figure: throughput vs hot-spot fraction (the classic
/// mixed hot-spot model), interpolating between the paper's
/// homogeneous (fraction 0) and pure hot-spot (fraction 1) scenarios
/// at a fixed injection rate.
///
/// # Errors
///
/// See [`fig5`].
pub fn ext_mixed_hotspot(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    Ok(run_manifest(opts, "ext-mixed-hotspot")?.remove(0))
}

/// Extension figure: deterministic XY versus West-First adaptive mesh
/// routing under uniform traffic, as throughput/latency sweeps.
///
/// # Errors
///
/// See [`fig5`].
pub fn ext_adaptive(opts: &FigureOptions) -> Result<(FigureData, FigureData), CoreError> {
    let side = square_side(opts);
    let (cols, rows, n) = (side, side, side * side);
    let mesh = TopologySpec::Mesh { cols, rows };
    let schemes = ["xy", "west-first"];
    let entry = ManifestEntry {
        x_label: RATE_AXIS,
        outputs: vec![
            Statistic::Throughput.figure(
                "ext-adaptive",
                "Extension: XY vs West-First adaptive mesh routing (throughput)",
            ),
            Statistic::Latency.figure(
                "ext-adaptive-latency",
                "Extension: XY vs West-First adaptive mesh routing (latency)",
            ),
        ],
        series: Vec::from(
            schemes.map(|scheme| sweep(opts, format!("{scheme}-{n}"), mesh, TrafficSpec::Uniform)),
        ),
    };
    let routing: [RoutingFn; 2] = [
        TopologySpec::build_routing,
        TopologySpec::build_adaptive_routing,
    ];
    run_routed(opts, &entry, &routing).map(pair)
}

/// Spidergon Across-Last routing (the spec default is Across-First).
fn across_last(spec: &TopologySpec) -> Result<Box<dyn RoutingAlgorithm>, CoreError> {
    let spidergon = Spidergon::new(spec.nodes())?;
    Ok(Box::new(SpidergonAcrossLast::new(&spidergon)))
}

/// Extension figure: Spidergon Across-First vs Across-Last routing,
/// as latency sweeps under uniform traffic and under a single
/// hot-spot (the schemes differ in where they concentrate load, not in
/// path lengths).
///
/// # Errors
///
/// See [`fig5`].
pub fn ext_spidergon_routing(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    let n = largest_even(opts);
    let spidergon = TopologySpec::Spidergon { nodes: n };
    let hotspot = TrafficSpec::SingleHotspot { target: 0 };
    let schemes = [
        ("across-first", TrafficSpec::Uniform),
        ("across-last", TrafficSpec::Uniform),
        ("across-first-hotspot", hotspot),
        ("across-last-hotspot", hotspot),
    ];
    let entry = ManifestEntry {
        x_label: RATE_AXIS,
        outputs: vec![Statistic::Latency.figure(
            "ext-spidergon-routing",
            "Extension: Across-First vs Across-Last latency",
        )],
        series: Vec::from(
            schemes
                .map(|(scheme, traffic)| sweep(opts, format!("{scheme}-{n}"), spidergon, traffic)),
        ),
    };
    let across_first: RoutingFn = TopologySpec::build_routing;
    let routing = [across_first, across_last, across_first, across_last];
    Ok(run_routed(opts, &entry, &routing)?.remove(0))
}

/// Extension figure: per-link utilization heatmap under a single
/// hot-spot at node 0 — the paper's central qualitative claim made
/// visible. One curve per family (ring / spidergon / mesh at 16
/// nodes): x is the link index in the simulator's canonical
/// enumeration (node-major, port-minor), y is the link's measured
/// utilization in flits/cycle at `lambda = 0.3`.
///
/// Ring links near the hot-spot saturate while distant ones idle;
/// Spidergon's across links flatten the profile; the mesh concentrates
/// load on the column into the target — the same asymmetry the
/// throughput figures (6/7) show in aggregate.
///
/// # Errors
///
/// Returns [`CoreError::InvalidSpec`] for invalid options, else the
/// first build or simulation error.
pub fn ext_link_heatmap(opts: &FigureOptions) -> Result<FigureData, CoreError> {
    opts.validate()?;
    let n = 16;
    let mut fig = FigureData::new(
        "ext-link-heatmap",
        "Extension: per-link utilization, single hot-spot at node 0 (lambda = 0.3)",
        "link index (node-major, port-minor)",
        "utilization (flits/cycle)",
    );
    let (base, hotspot) = (opts.base_config(), TrafficSpec::SingleHotspot { target: 0 });
    let points = FAMILIES.map(|(_, spec)| at_rate(spec(n), hotspot, &base, 0.3));
    let aggregates = run_points(&points, 1, Parallelism::default())?;
    for ((family, _), agg) in FAMILIES.iter().zip(aggregates) {
        let run = &agg.runs[0];
        let cycles = run.stats.measured_cycles.max(1) as f64;
        let links = run.stats.per_link.iter().enumerate();
        fig.push_series(Series::from_xy(
            format!("{family}-{n}"),
            links.map(|(i, link)| (i as f64, link.flits as f64 / cycles)),
        ));
    }
    Ok(fig)
}

/// Computes the figures of one set, in output order.
pub type FigureSetFn = fn(&FigureOptions) -> Result<Vec<FigureData>, CoreError>;

/// ID of the extension figures, the one set outside the paper's.
pub const EXTENSIONS: &str = "ext";

/// Every figure set by `noc-cli figures` ID, in output order: Figures
/// 2-3 and the link-count table (analytical), the simulated Figures
/// 5-11, then the [`EXTENSIONS`]. All but the last make up the paper's
/// figure set.
pub const SETS: [(&str, FigureSetFn); 8] = [
    ("fig2", |_| Ok(vec![fig2(64)])),
    ("fig3", |_| Ok(vec![fig3(64)])),
    ("fig_tables", |_| {
        Ok(vec![table_links(&[8, 12, 16, 24, 32, 48, 64])])
    }),
    ("fig5", |opts| Ok(vec![fig5(opts)?])),
    ("fig6_7", |opts| run_manifest(opts, "fig6")),
    ("fig8_9", |opts| run_manifest(opts, "fig8")),
    ("fig10_11", |opts| run_manifest(opts, "fig10")),
    (EXTENSIONS, |opts| {
        let mut figures = run_manifest(opts, "ext-torus")?;
        figures.extend(<[FigureData; 2]>::from(ext_adaptive(opts)?));
        figures.push(ext_spidergon_routing(opts)?);
        figures.push(ext_mixed_hotspot(opts)?);
        figures.push(ext_link_heatmap(opts)?);
        Ok(figures)
    }),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// One line per job of the quick manifest, in runner order: the
    /// entry's first figure, the series, λ, the seed and the job's cache
    /// fingerprint.
    fn quick_manifest_fingerprints() -> String {
        use std::fmt::Write as _;
        let opts = FigureOptions::quick();
        let mut lines = String::new();
        for entry in manifest(&opts) {
            let labels = entry
                .series
                .iter()
                .flat_map(|s| s.points.iter().map(|_| &s.label));
            for (label, point) in labels.zip(points(&opts, &entry)) {
                for job in point.replication_jobs(opts.replications).unwrap() {
                    let _ = writeln!(
                        lines,
                        "{} {} {} {} {}",
                        entry.outputs[0].id,
                        label,
                        job.experiment.config.injection_rate,
                        job.seed,
                        crate::cache::fingerprint(&job.experiment, job.seed),
                    );
                }
            }
        }
        lines
    }

    /// A store filled by an earlier build stays warm only while every
    /// quick-manifest job keeps its fingerprint. The list moves only
    /// with `CACHE_SCHEMA`, a crate version or the manifest itself.
    #[test]
    fn quick_manifest_fingerprints_are_pinned() {
        let pinned = include_str!("../../../tests/golden/quick-fingerprints.txt");
        let actual = quick_manifest_fingerprints();
        for (i, (want, got)) in pinned.lines().zip(actual.lines()).enumerate() {
            assert_eq!(got, want, "quick-manifest job {i}");
        }
        assert_eq!(actual.lines().count(), pinned.lines().count());
    }

    #[test]
    fn fig2_has_all_families_and_known_values() {
        let fig = fig2(32);
        assert_eq!(fig.series.len(), 5);
        let ring = fig.series_by_label("ring").unwrap();
        assert_eq!(ring.y_at(16.0), Some(8.0));
        let sg = fig.series_by_label("spidergon").unwrap();
        assert_eq!(sg.y_at(16.0), Some(4.0));
        // Spidergon beats real meshes on ND through the plotted range.
        let irr = fig.series_by_label("real-mesh-irregular").unwrap();
        for p in &sg.points {
            if let Some(mesh_nd) = irr.y_at(p.x) {
                assert!(p.y <= mesh_nd, "N={}: {} > {}", p.x, p.y, mesh_nd);
            }
        }
    }

    #[test]
    fn fig3_orderings_match_paper() {
        let fig = fig3(32);
        let ring = fig.series_by_label("ring").unwrap();
        let sg = fig.series_by_label("spidergon").unwrap();
        for p in &sg.points {
            let r = ring.y_at(p.x).unwrap();
            assert!(p.y < r, "spidergon must beat ring at N={}", p.x);
        }
    }

    #[test]
    fn real_mesh_fluctuates_in_fig2() {
        // The balanced-rectangle real mesh must NOT be monotone in N
        // (prime N degenerates): the paper's key observation.
        let fig = fig2(32);
        let rect = fig.series_by_label("real-mesh-rect").unwrap();
        let ys: Vec<f64> = rect.points.iter().map(|p| p.y).collect();
        let monotone = ys.windows(2).all(|w| w[1] >= w[0] - 1e-9);
        assert!(!monotone, "real mesh diameter should fluctuate: {ys:?}");
    }

    #[test]
    fn table_links_matches_formulas() {
        let fig = table_links(&[8, 16, 24]);
        assert_eq!(fig.series_by_label("ring").unwrap().y_at(16.0), Some(32.0));
        assert_eq!(
            fig.series_by_label("spidergon").unwrap().y_at(16.0),
            Some(48.0)
        );
        // 4x4 mesh: 2*3*4 + 2*3*4 = 48.
        assert_eq!(fig.series_by_label("mesh").unwrap().y_at(16.0), Some(48.0));
    }

    #[test]
    fn rates_grid_is_even() {
        let opts = FigureOptions::quick();
        let rates = opts.rates();
        assert_eq!(rates.len(), opts.rate_steps);
        assert!((rates.last().unwrap() - opts.max_rate).abs() < 1e-12);
        assert!(rates.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn every_simulated_figure_rejects_bad_options() {
        type Figure = fn(&FigureOptions) -> Result<(), CoreError>;
        let figures: [(&str, Figure); 9] = [
            ("fig5", |o| fig5(o).map(drop)),
            ("fig6_7", |o| fig6_7(o).map(drop)),
            ("fig8_9", |o| fig8_9(o).map(drop)),
            ("fig10_11", |o| fig10_11(o).map(drop)),
            ("ext_torus", |o| ext_torus(o).map(drop)),
            ("ext_mixed_hotspot", |o| ext_mixed_hotspot(o).map(drop)),
            ("ext_adaptive", |o| ext_adaptive(o).map(drop)),
            ("ext_spidergon_routing", |o| {
                ext_spidergon_routing(o).map(drop)
            }),
            ("ext_link_heatmap", |o| ext_link_heatmap(o).map(drop)),
        ];
        let bad = [
            FigureOptions {
                replications: 0,
                ..FigureOptions::quick()
            },
            FigureOptions {
                rate_steps: 0,
                ..FigureOptions::quick()
            },
        ];
        let mut accepted = Vec::new();
        for (name, figure) in figures {
            for opts in &bad {
                let outcome = figure(opts);
                if !matches!(outcome, Err(CoreError::InvalidSpec { .. })) {
                    accepted.push(format!("{name} with {opts:?}: {outcome:?}"));
                }
            }
        }
        assert!(accepted.is_empty(), "{accepted:#?}");
    }

    #[test]
    fn manifest_lists_the_sweep_figures_in_publication_order() {
        let opts = FigureOptions::quick();
        let entries = manifest(&opts);
        let ids: Vec<_> = entries
            .iter()
            .flat_map(|entry| entry.outputs.iter().map(|out| out.id))
            .collect();
        assert_eq!(
            ids,
            [
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "fig9",
                "fig10",
                "fig11",
                "ext-torus",
                "ext-torus-latency",
                "ext-mixed-hotspot"
            ]
        );
        // Figures 6/7: node counts × families, each over the rate grid.
        let fig6 = &entries[1];
        assert_eq!(fig6.series.len(), opts.node_counts.len() * FAMILIES.len());
        for series in &fig6.series {
            let rates: Vec<f64> = series.points.iter().map(|p| p.3).collect();
            assert_eq!(rates, opts.rates());
        }
        assert_eq!(fig6.series[4].label, "spidergon-16");
    }

    #[test]
    fn figure_set_ids_are_unique_and_end_with_the_extensions() {
        let ids: Vec<_> = SETS.iter().map(|&(id, _)| id).collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
        assert_eq!(ids.last(), Some(&EXTENSIONS));
    }

    #[test]
    fn routed_runs_equal_plain_runs() {
        // With every series on its spec's default routing, the routed
        // runner must reproduce the cached runner's figures exactly.
        let opts = FigureOptions {
            warmup_cycles: 50,
            measure_cycles: 300,
            replications: 2,
            max_rate: 0.4,
            rate_steps: 2,
            node_counts: vec![8],
            ..FigureOptions::quick()
        };
        let entry = manifest(&opts).remove(1);
        assert_eq!(entry.outputs[0].id, "fig6");
        let routing: Vec<RoutingFn> = vec![TopologySpec::build_routing; entry.series.len()];
        let routed = run_routed(&opts, &entry, &routing).unwrap();
        assert_eq!(routed, run_manifest(&opts, "fig6").unwrap());
    }

    // Full-size simulated figure tests live in the crate's integration
    // tests (they need more runtime than a unit test should take).
}
