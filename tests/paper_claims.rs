//! End-to-end checks of the paper's headline qualitative claims, run
//! through the full stack at reduced (but statistically sufficient)
//! quality.

use spidergon_noc::figures::{self, FigureOptions};
use spidergon_noc::sim::SimConfig;
use spidergon_noc::{sweep_rates, Experiment, Parallelism, TopologySpec, TrafficSpec};
use std::path::PathBuf;

fn opts() -> FigureOptions {
    let mut o = FigureOptions::quick();
    o.seed = 77;
    o
}

/// Figure 5: simulated mean hop counts agree with the analytical
/// average network distance, and Ring is the worst of the three.
#[test]
fn fig5_simulation_validates_analytical_model() {
    let fig = figures::fig5(&opts()).unwrap();
    for family in ["ring", "spidergon", "mesh"] {
        let analytic = fig
            .series_by_label(&format!("{family}-analytical"))
            .unwrap();
        let simulated = fig.series_by_label(&format!("{family}-simulated")).unwrap();
        for p in &analytic.points {
            let sim = simulated.y_at(p.x).unwrap();
            let rel = (sim - p.y).abs() / p.y;
            assert!(
                rel < 0.1,
                "{family} N={}: simulated {sim} vs analytical {} ({:.1}% off)",
                p.x,
                p.y,
                rel * 100.0
            );
        }
    }
    // Ring has the worst average distance at every N.
    let ring = fig.series_by_label("ring-analytical").unwrap();
    let sg = fig.series_by_label("spidergon-analytical").unwrap();
    let mesh = fig.series_by_label("mesh-analytical").unwrap();
    for p in &ring.points {
        assert!(sg.y_at(p.x).unwrap() < p.y, "N={}", p.x);
        assert!(mesh.y_at(p.x).unwrap() < p.y, "N={}", p.x);
    }
}

/// Figures 6: with a single hot-spot destination, throughput curves
/// collapse across topologies — the destination is the bottleneck.
#[test]
fn fig6_hotspot_throughput_is_topology_independent() {
    let (throughput, latency) = figures::fig6_7(&opts()).unwrap();
    for n in [8usize, 16] {
        let curves: Vec<&spidergon_noc::report::Series> = ["ring", "spidergon", "mesh"]
            .iter()
            .map(|f| throughput.series_by_label(&format!("{f}-{n}")).unwrap())
            .collect();
        for p in &curves[0].points {
            let ys: Vec<f64> = curves.iter().map(|c| c.y_at(p.x).unwrap()).collect();
            let spread = ys.iter().cloned().fold(f64::MIN, f64::max)
                - ys.iter().cloned().fold(f64::MAX, f64::min);
            assert!(
                spread < 0.12,
                "N={n} rate={}: topology spread {spread} too large ({ys:?})",
                p.x
            );
        }
        // The ceiling is the sink rate: 1 flit/cycle.
        let top = curves[0]
            .points
            .iter()
            .map(|p| p.y)
            .fold(f64::MIN, f64::max);
        assert!(top <= 1.05, "N={n}: hot-spot ceiling exceeded: {top}");
    }
    // Latency far above the zero-load value once the target is
    // saturated (15 sources exceed the 1 flit/cycle sink at every rate
    // in the grid, so the whole curve sits past the knee: compare
    // against the unsaturated ~15-cycle zero-load latency instead).
    for f in ["ring-16", "spidergon-16", "mesh-16"] {
        let s = latency.series_by_label(f).unwrap();
        let last = s.points.last().unwrap().y;
        assert!(last > 100.0, "{f}: expected saturated latency, got {last}");
    }
}

/// Figure 8/9: the double hot-spot scenarios confirm the single
/// hot-spot conclusions, with roughly twice the ceiling.
#[test]
fn fig8_double_hotspot_doubles_the_ceiling() {
    let mut o = opts();
    o.node_counts = vec![8];
    let (throughput, _latency) = figures::fig8_9(&o).unwrap();
    for series in &throughput.series {
        let top = series.points.iter().map(|p| p.y).fold(f64::MIN, f64::max);
        assert!(
            top <= 2.1,
            "{}: above two-sink ceiling: {top}",
            series.label
        );
    }
    // At the highest rate, every topology saturates near 2 flits/cycle
    // (two sinks), scenario placement has second-order impact.
    for f in ["ring-8-A", "spidergon-8-A", "mesh-8-A"] {
        let s = throughput.series_by_label(f).unwrap();
        let last = s.points.last().unwrap().y;
        assert!(last > 1.5, "{f}: ceiling {last} too low");
    }
}

/// Figure 10: under homogeneous traffic Ring saturates first and has
/// the worst throughput; Spidergon tracks the mesh.
#[test]
fn fig10_uniform_ring_is_worst_spidergon_tracks_mesh() {
    let mut o = opts();
    o.node_counts = vec![16];
    let (throughput, latency) = figures::fig10_11(&o).unwrap();
    let ring = throughput.series_by_label("ring-16").unwrap();
    let sg = throughput.series_by_label("spidergon-16").unwrap();
    let mesh = throughput.series_by_label("mesh-16").unwrap();
    let last = ring.points.last().unwrap().x;
    assert!(
        sg.y_at(last).unwrap() > 1.2 * ring.y_at(last).unwrap(),
        "spidergon should clearly beat ring at saturation"
    );
    assert!(
        mesh.y_at(last).unwrap() > ring.y_at(last).unwrap(),
        "mesh should beat ring at saturation"
    );
    // Spidergon within 25% of mesh across the sweep ("close to each
    // other", paper fig. 5/10 commentary).
    for p in &sg.points {
        let m = mesh.y_at(p.x).unwrap();
        assert!(
            (p.y - m).abs() / m < 0.35,
            "rate {}: spidergon {} vs mesh {m}",
            p.x,
            p.y
        );
    }
    // Ring latency diverges earliest.
    let ring_lat = latency.series_by_label("ring-16").unwrap();
    let sg_lat = latency.series_by_label("spidergon-16").unwrap();
    let mid = ring_lat.points[ring_lat.points.len() / 2].x;
    assert!(ring_lat.y_at(mid).unwrap() > sg_lat.y_at(mid).unwrap());
}

/// The saturation ordering expressed with the quantitative detector.
#[test]
fn uniform_saturation_ordering() {
    let base = SimConfig::builder()
        .warmup_cycles(300)
        .measure_cycles(2_500)
        .seed(21)
        .build()
        .unwrap();
    let rates: Vec<f64> = (1..=10).map(|i| i as f64 * 0.06).collect();
    let sat_rate = |spec| {
        let sweep = sweep_rates(
            spec,
            TrafficSpec::Uniform,
            &base,
            &rates,
            1,
            Parallelism::Auto,
        )
        .unwrap();
        spidergon_noc::saturation_point(&sweep, 0.95)
            .map(|s| s.injection_rate())
            .unwrap_or(f64::INFINITY)
    };
    let ring = sat_rate(TopologySpec::Ring { nodes: 16 });
    let sg = sat_rate(TopologySpec::Spidergon { nodes: 16 });
    assert!(ring < sg, "ring must saturate first: {ring} vs {sg}");
}

/// Determinism across the full stack: identical experiments (same
/// seed) are bit-identical; different seeds differ.
#[test]
fn full_stack_determinism() {
    let exp = Experiment {
        topology: TopologySpec::MeshBalanced { nodes: 12 },
        traffic: TrafficSpec::DoubleHotspot { targets: [0, 11] },
        config: SimConfig::builder()
            .injection_rate(0.2)
            .warmup_cycles(200)
            .measure_cycles(1_500)
            .seed(5)
            .build()
            .unwrap(),
    };
    assert_eq!(exp.run().unwrap(), exp.run().unwrap());
    assert_ne!(
        exp.run_with_seed(5).unwrap().stats,
        exp.run_with_seed(6).unwrap().stats
    );
}

/// The golden reference scenarios under `tests/golden/`: one uniform
/// and one hot-spot small-N run, stored as the full serialized
/// [`spidergon_noc::RunResult`]. Any behavioural drift in topology
/// construction, routing, traffic generation or the simulator core
/// shows up as a numeric mismatch beyond 1e-9.
///
/// To regenerate after an *intentional* behaviour change:
/// `NOC_UPDATE_GOLDEN=1 cargo test --test paper_claims golden`.
fn golden_scenarios() -> Vec<(&'static str, Experiment)> {
    let config = |rate: f64| {
        SimConfig::builder()
            .injection_rate(rate)
            .warmup_cycles(200)
            .measure_cycles(2_000)
            .seed(20060306)
            .build()
            .unwrap()
    };
    vec![
        (
            "spidergon8_uniform.json",
            Experiment {
                topology: TopologySpec::Spidergon { nodes: 8 },
                traffic: TrafficSpec::Uniform,
                config: config(0.2),
            },
        ),
        (
            "ring8_hotspot.json",
            Experiment {
                topology: TopologySpec::Ring { nodes: 8 },
                traffic: TrafficSpec::SingleHotspot { target: 0 },
                config: config(0.3),
            },
        ),
    ]
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Numeric view of a JSON value, if it is a number.
fn as_number(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::I64(i) => Some(*i as f64),
        serde::Value::U64(u) => Some(*u as f64),
        serde::Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// Recursively compares two JSON values, allowing numeric drift up to
/// `tol` (absolute). Returns the path of the first mismatch.
fn json_diff(
    actual: &serde::Value,
    expected: &serde::Value,
    path: &str,
    tol: f64,
) -> Option<String> {
    use serde::Value;
    if let (Some(a), Some(e)) = (as_number(actual), as_number(expected)) {
        return if a == e || (a - e).abs() <= tol || (a.is_nan() && e.is_nan()) {
            None
        } else {
            Some(format!(
                "{path}: {a} != {e} (|diff| {} > {tol})",
                (a - e).abs()
            ))
        };
    }
    match (actual, expected) {
        (Value::Array(a), Value::Array(e)) => {
            if a.len() != e.len() {
                return Some(format!("{path}: array length {} != {}", a.len(), e.len()));
            }
            a.iter()
                .zip(e)
                .enumerate()
                .find_map(|(i, (av, ev))| json_diff(av, ev, &format!("{path}[{i}]"), tol))
        }
        (Value::Object(a), Value::Object(e)) => {
            let get = |o: &'_ [(String, Value)], k: &str| {
                o.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone())
            };
            let mut keys: Vec<&String> = a.iter().chain(e.iter()).map(|(k, _)| k).collect();
            keys.sort();
            keys.dedup();
            keys.into_iter().find_map(|k| match (get(a, k), get(e, k)) {
                (Some(av), Some(ev)) => json_diff(&av, &ev, &format!("{path}.{k}"), tol),
                (None, _) => Some(format!("{path}.{k}: missing in actual")),
                (_, None) => Some(format!("{path}.{k}: not in golden file")),
            })
        }
        _ => {
            if actual == expected {
                None
            } else {
                Some(format!("{path}: {} != {}", actual.kind(), expected.kind()))
            }
        }
    }
}

/// Golden-figure regression: small-N reference results must not drift.
#[test]
fn golden_scenarios_match_reference() {
    use serde::Serialize;
    let update = std::env::var("NOC_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    for (file, experiment) in golden_scenarios() {
        let result = experiment.run().unwrap();
        let path = golden_dir().join(file);
        if update {
            let pretty = serde_json::to_string_pretty(&result).unwrap();
            std::fs::write(&path, pretty + "\n").unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (regenerate with NOC_UPDATE_GOLDEN=1)",
                path.display()
            )
        });
        // The raw trees are compared, so a field added to, renamed in or
        // removed from `RunResult` fails with its path, as does numeric
        // drift.
        let expected: serde::Value = serde_json::from_str(&golden)
            .unwrap_or_else(|e| panic!("{file}: golden file is not JSON: {e}"));
        if let Some(diff) = json_diff(&result.to_value(), &expected, file, 1e-9) {
            panic!(
                "golden scenario {file} drifted: {diff}\n\
                 If the change is intentional, regenerate with \
                 NOC_UPDATE_GOLDEN=1 cargo test --test paper_claims golden"
            );
        }
    }
}

/// The tolerance machinery itself: exact match passes, drift beyond
/// 1e-9 fails with the offending path, structural changes fail.
#[test]
fn golden_comparison_detects_drift() {
    use serde::Value;
    let tree = |y: f64, label: &str| {
        Value::Object(vec![
            (
                "x".to_owned(),
                Value::Array(vec![
                    Value::F64(1.0),
                    Value::Object(vec![("y".to_owned(), Value::F64(y))]),
                ]),
            ),
            ("label".to_owned(), Value::String(label.to_owned())),
        ])
    };
    let a = tree(2.0, "ring");
    assert_eq!(json_diff(&a, &a, "r", 1e-9), None);
    assert_eq!(json_diff(&a, &tree(2.0 + 1e-12, "ring"), "r", 1e-9), None);
    let diff = json_diff(&a, &tree(2.1, "ring"), "r", 1e-9).unwrap();
    assert!(diff.contains("r.x[1].y"), "{diff}");
    assert!(json_diff(&a, &tree(2.0, "mesh"), "r", 1e-9).is_some());
    // Integer-vs-float representations of the same number agree.
    assert_eq!(json_diff(&Value::I64(3), &Value::F64(3.0), "n", 1e-9), None);
    // Missing key is a structural mismatch.
    let renamed = Value::Object(vec![("z".to_owned(), Value::F64(2.0))]);
    let named = Value::Object(vec![("y".to_owned(), Value::F64(2.0))]);
    assert!(json_diff(&named, &renamed, "r", 1e-9).is_some());
}

/// Extension figures: the torus extends the comparison (lower latency
/// than the mesh at equal N) and adaptive West-First matches XY under
/// uniform load.
#[test]
fn extension_figures_behave() {
    let mut o = opts();
    o.node_counts = vec![16];
    let (tp, lat) = figures::ext_torus(&o).unwrap();
    assert_eq!(tp.series.len(), 4);
    let mesh_lat = lat.series_by_label("mesh-16").unwrap();
    let torus_lat = lat.series_by_label("torus-16").unwrap();
    let first = mesh_lat.points.first().unwrap().x;
    assert!(
        torus_lat.y_at(first).unwrap() <= mesh_lat.y_at(first).unwrap(),
        "torus should not lose to mesh at low load"
    );

    let (tp, _lat) = figures::ext_adaptive(&o).unwrap();
    let xy = tp.series_by_label("xy-16").unwrap();
    let wf = tp.series_by_label("west-first-16").unwrap();
    let low = xy.points.first().unwrap().x;
    let (a, b) = (xy.y_at(low).unwrap(), wf.y_at(low).unwrap());
    assert!((a - b).abs() / a < 0.05, "xy {a} vs west-first {b}");
}
