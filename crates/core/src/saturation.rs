//! Saturation-point estimation from injection-rate sweeps.
//!
//! The paper reads saturation off its latency plots ("the latency
//! sharply increases when the network saturation is obtained"). Here
//! saturation is detected quantitatively from the acceptance ratio: the
//! first swept rate at which the network stops accepting the offered
//! load.

use crate::Aggregate;

/// Acceptance-ratio threshold below which a point counts as saturated.
pub const DEFAULT_ACCEPTANCE_THRESHOLD: f64 = 0.95;

/// Finds the first point of a sweep (one [`Aggregate`] per rate, in
/// ascending rate order) whose acceptance ratio falls below
/// `threshold`; `None` if the sweep never saturates. Its
/// [`injection_rate`](Aggregate::injection_rate) is the saturation rate
/// and its throughput the saturation throughput.
///
/// # Panics
///
/// Panics if `threshold` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use noc_core::{saturation_point, sweep_rates, Parallelism, TopologySpec, TrafficSpec};
/// use noc_sim::SimConfig;
///
/// let base = SimConfig::builder()
///     .warmup_cycles(100)
///     .measure_cycles(1_500)
///     .build()?;
/// let sweep = sweep_rates(
///     TopologySpec::Ring { nodes: 16 },
///     TrafficSpec::Uniform,
///     &base,
///     &[0.1, 0.3, 0.6, 0.9],
///     1,
///     Parallelism::Auto,
/// )?;
/// // A 16-node ring saturates well below 0.9 flits/cycle/node.
/// let sat = saturation_point(&sweep, 0.95).expect("ring saturates");
/// assert!(sat.injection_rate() <= 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn saturation_point(sweep: &[Aggregate], threshold: f64) -> Option<&Aggregate> {
    assert!(
        threshold > 0.0 && threshold <= 1.0,
        "threshold must be in (0, 1]"
    );
    sweep.iter().find(|p| p.acceptance_mean < threshold)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunResult;
    use noc_sim::SimStats;

    /// One aggregate per acceptance ratio, at rates 0.1, 0.2, ...
    fn fake_sweep(acceptances: &[f64]) -> Vec<Aggregate> {
        let point = |(i, &acceptance_mean)| Aggregate {
            runs: vec![RunResult {
                topology_label: "test".into(),
                traffic_label: "uniform".into(),
                injection_rate: 0.1 * (i + 1) as f64,
                seed: 0,
                stats: SimStats::default(),
            }],
            throughput_mean: 1.0,
            throughput_std: 0.0,
            latency_mean: 10.0,
            latency_std: 0.0,
            acceptance_mean,
            mean_hops: 2.0,
            latency_p50: 10,
            latency_p95: 10,
            latency_p99: 10,
        };
        acceptances.iter().enumerate().map(point).collect()
    }

    #[test]
    fn finds_first_saturated_point() {
        let sweep = fake_sweep(&[1.0, 0.99, 0.7, 0.4]);
        let sat = saturation_point(&sweep, 0.95).unwrap();
        assert!((sat.injection_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unsaturated_sweep_returns_none() {
        let sweep = fake_sweep(&[1.0, 1.0, 0.99]);
        assert!(saturation_point(&sweep, 0.95).is_none());
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn threshold_validated() {
        let sweep = fake_sweep(&[1.0]);
        let _ = saturation_point(&sweep, 0.0);
    }

    #[test]
    fn single_point_sweep_saturated_or_not() {
        // One saturated point: declared at that point's rate.
        let sweep = fake_sweep(&[0.5]);
        let sat = saturation_point(&sweep, 0.95).unwrap();
        assert!((sat.injection_rate() - 0.1).abs() < 1e-12);
        assert!((sat.throughput_mean - 1.0).abs() < 1e-12);
        assert!((sat.latency_mean - 10.0).abs() < 1e-12);
        // One accepting point: no saturation anywhere in the sweep.
        assert!(saturation_point(&fake_sweep(&[1.0]), 0.95).is_none());
        // Empty sweep trivially never saturates.
        assert!(saturation_point(&fake_sweep(&[]), 0.95).is_none());
    }

    #[test]
    fn sweep_saturating_at_first_rate() {
        // Already saturated at the lowest rate — the first point wins
        // even though later points are saturated too.
        let sweep = fake_sweep(&[0.9, 0.8, 0.3]);
        let sat = saturation_point(&sweep, 0.95).unwrap();
        assert!((sat.injection_rate() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn boundary_acceptance_is_not_saturated() {
        // `acceptance == threshold` counts as accepting (strict <).
        assert!(saturation_point(&fake_sweep(&[0.95, 0.95]), 0.95).is_none());
        let sweep = fake_sweep(&[0.95, 0.9499]);
        let sat = saturation_point(&sweep, 0.95).unwrap();
        assert!((sat.injection_rate() - 0.2).abs() < 1e-12);
    }
}
