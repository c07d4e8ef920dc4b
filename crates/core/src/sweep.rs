//! Injection-rate sweeps: the x-axis of the paper's Figures 6-11.

use crate::{run_points, Aggregate, CoreError, Experiment, Parallelism};
use crate::{TopologySpec, TrafficSpec};
use noc_sim::SimConfig;

/// Sweeps the injection rate over `rates` for a (topology, traffic)
/// pair, running `replications` seeds per point: one [`Aggregate`] per
/// rate, in rate order.
///
/// The whole rate × replication product is one [`run_points`] grid under
/// `parallelism`, through the `NOC_CACHE` experiment cache — with R
/// rates and K replications, up to `R * K` simulations run
/// concurrently, not just the K replications of one point at a time.
///
/// # Errors
///
/// Returns the first build or simulation error. Rates must be given in
/// ascending order and `replications` must be positive (validated,
/// [`CoreError::InvalidSpec`]).
///
/// # Examples
///
/// ```
/// use noc_core::{sweep_rates, Parallelism, TopologySpec, TrafficSpec};
/// use noc_sim::SimConfig;
///
/// let base = SimConfig::builder()
///     .warmup_cycles(100)
///     .measure_cycles(1_000)
///     .build()?;
/// let points = sweep_rates(
///     TopologySpec::Spidergon { nodes: 8 },
///     TrafficSpec::Uniform,
///     &base,
///     &[0.05, 0.1],
///     1,
///     Parallelism::Auto,
/// )?;
/// assert_eq!(points.len(), 2);
/// assert_eq!(points[1].injection_rate(), 0.1);
/// assert!(points[1].throughput_mean > points[0].throughput_mean);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sweep_rates(
    topology: TopologySpec,
    traffic: TrafficSpec,
    base_config: &SimConfig,
    rates: &[f64],
    replications: usize,
    parallelism: Parallelism,
) -> Result<Vec<Aggregate>, CoreError> {
    validate_rates(rates)?;
    let points = rates
        .iter()
        .map(|&rate| at_rate(topology, traffic, base_config, rate));
    run_points(&Vec::from_iter(points), replications, parallelism)
}

/// `topology` under `traffic` on `base_config` at injection rate `rate`.
pub(crate) fn at_rate(
    topology: TopologySpec,
    traffic: TrafficSpec,
    base_config: &SimConfig,
    rate: f64,
) -> Experiment {
    let mut config = base_config.clone();
    config.injection_rate = rate;
    Experiment {
        topology,
        traffic,
        config,
    }
}

/// Rejects empty or non-ascending rate lists.
pub(crate) fn validate_rates(rates: &[f64]) -> Result<(), CoreError> {
    if rates.is_empty() {
        return Err(CoreError::InvalidSpec {
            reason: "rate sweep needs at least one rate".to_owned(),
        });
    }
    if rates.windows(2).any(|w| w[0] >= w[1]) {
        return Err(CoreError::InvalidSpec {
            reason: "sweep rates must be strictly ascending".to_owned(),
        });
    }
    Ok(())
}

/// `steps` evenly spaced injection rates up to `max`: `max * i / steps`
/// for `i` in `1..=steps`. The rate grid of the figures
/// ([`FigureOptions::rates`](crate::FigureOptions::rates)) and of
/// `noc-cli sweep`.
pub fn rate_grid(max: f64, steps: usize) -> Vec<f64> {
    (1..=steps).map(|i| max * i as f64 / steps as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SimConfig {
        SimConfig::builder()
            .warmup_cycles(100)
            .measure_cycles(800)
            .seed(5)
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_produces_monotone_throughput_below_saturation() {
        let result = sweep_rates(
            TopologySpec::Spidergon { nodes: 8 },
            TrafficSpec::Uniform,
            &base(),
            &[0.05, 0.1, 0.2],
            2,
            Parallelism::Auto,
        )
        .unwrap();
        assert_eq!(result[0].runs[0].topology_label, "spidergon-8");
        let rates: Vec<f64> = result.iter().map(Aggregate::injection_rate).collect();
        assert_eq!(rates, [0.05, 0.1, 0.2]);
        let tp: Vec<f64> = result.iter().map(|p| p.throughput_mean).collect();
        assert!(tp[0] < tp[1] && tp[1] < tp[2], "{tp:?}");
        for p in &result {
            assert!(p.latency_p50 > 0);
            assert!(p.latency_p50 <= p.latency_p95 && p.latency_p95 <= p.latency_p99);
        }
    }

    #[test]
    fn empty_and_unsorted_rates_rejected() {
        let e = sweep_rates(
            TopologySpec::Ring { nodes: 6 },
            TrafficSpec::Uniform,
            &base(),
            &[],
            1,
            Parallelism::Auto,
        );
        assert!(matches!(e, Err(CoreError::InvalidSpec { .. })));
        let e = sweep_rates(
            TopologySpec::Ring { nodes: 6 },
            TrafficSpec::Uniform,
            &base(),
            &[0.2, 0.1],
            1,
            Parallelism::Auto,
        );
        assert!(matches!(e, Err(CoreError::InvalidSpec { .. })));
    }

    #[test]
    fn sweep_with_fixed_threads_matches_sequential() {
        let run = |par| {
            sweep_rates(
                TopologySpec::Ring { nodes: 6 },
                TrafficSpec::Uniform,
                &base(),
                &[0.05, 0.15],
                2,
                par,
            )
            .unwrap()
        };
        assert_eq!(run(Parallelism::Sequential), run(Parallelism::Fixed(4)));
    }
}
