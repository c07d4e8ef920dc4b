//! Running experiments: a (topology, traffic, configuration) triple,
//! single runs and seed-replicated aggregates.

use crate::parallel::{run_experiment_jobs, ExperimentJob, Parallelism};
use crate::{CoreError, TopologySpec, TrafficSpec};
use noc_sim::{LatencyStats, NullProbe, Probe, Recorder, SimConfig, SimStats, Simulation};
use serde::{Deserialize, Serialize};

/// A fully-specified simulation experiment.
///
/// # Examples
///
/// ```
/// use noc_core::{Experiment, TopologySpec, TrafficSpec};
/// use noc_sim::SimConfig;
///
/// let exp = Experiment {
///     topology: TopologySpec::Spidergon { nodes: 8 },
///     traffic: TrafficSpec::Uniform,
///     config: SimConfig::builder()
///         .injection_rate(0.1)
///         .warmup_cycles(200)
///         .measure_cycles(2_000)
///         .build()?,
/// };
/// let result = exp.run()?;
/// assert!(result.stats.packets_delivered > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Experiment {
    /// Topology to simulate.
    pub topology: TopologySpec,
    /// Traffic pattern driving the sources.
    pub traffic: TrafficSpec,
    /// Simulator configuration (buffers, rates, windows, seed).
    pub config: SimConfig,
}

/// Outcome of one experiment run.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct RunResult {
    /// Label of the simulated topology (e.g. `"spidergon-16"`).
    pub topology_label: String,
    /// Label of the traffic pattern.
    pub traffic_label: String,
    /// Injection rate lambda used (flits/cycle per source).
    pub injection_rate: f64,
    /// Seed the run used.
    pub seed: u64,
    /// Raw simulator statistics.
    pub stats: SimStats,
}

impl RunResult {
    /// Aggregate throughput in flits/cycle.
    pub fn throughput(&self) -> f64 {
        self.stats.throughput_flits_per_cycle()
    }

    /// Mean packet latency in cycles (`NaN` if nothing was delivered).
    pub fn latency(&self) -> f64 {
        self.stats.latency.mean().unwrap_or(f64::NAN)
    }
}

impl Experiment {
    /// Builds and runs the simulation once with the configured seed.
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the specs are invalid or the run
    /// stalls (deadlock watchdog).
    pub fn run(&self) -> Result<RunResult, CoreError> {
        self.run_with_seed(self.config.seed)
    }

    /// Builds the configured simulation without running it, for
    /// callers that need simulator accessors beyond [`SimStats`] (the
    /// `benchmark/` package reads `active_router_ratio`, for example).
    ///
    /// # Errors
    ///
    /// Returns a [`CoreError`] if the specs are invalid.
    pub fn build_simulation(&self) -> Result<Simulation, CoreError> {
        self.simulation(self.config.seed, NullProbe)
    }

    /// Runs once with an explicit seed (overriding the configured one).
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_with_seed(&self, seed: u64) -> Result<RunResult, CoreError> {
        Ok(self.run_probed(seed, NullProbe)?.0)
    }

    /// [`run_probed`](Self::run_probed) with a default
    /// [`Recorder`]: the run result together with the flit-lifecycle
    /// trace, time-series windows and latency decomposition.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_traced_with_seed(&self, seed: u64) -> Result<(RunResult, Recorder), CoreError> {
        self.run_probed(seed, Recorder::new())
    }

    /// Runs once with an explicit seed and `probe` attached
    /// ([`noc_sim::probe`]) — a [`Recorder`], an
    /// [`Auditor`](noc_sim::Auditor) or [`NullProbe`] — and returns the
    /// run result together with the probe.
    ///
    /// Probing never perturbs the simulation: the returned
    /// [`RunResult`] is bit-identical to [`run_with_seed`] with the
    /// same seed (the conformance harness in [`crate::conformance`]
    /// asserts this for the auditor, `crates/core/tests/trace.rs` for
    /// the recorder), and because a run is seed-deterministic a probe's
    /// findings are identical for any worker-thread count of the
    /// surrounding engine.
    ///
    /// [`run_with_seed`]: Self::run_with_seed
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_probed<P: Probe>(&self, seed: u64, probe: P) -> Result<(RunResult, P), CoreError> {
        let mut sim = self.simulation(seed, probe)?;
        let stats = sim.run()?;
        let result = RunResult {
            topology_label: sim.topology().label(),
            traffic_label: self.traffic.label(),
            injection_rate: self.config.injection_rate,
            seed,
            stats,
        };
        Ok((result, sim.into_probe()))
    }

    /// Assembles topology, routing, traffic and the configuration with
    /// the effective `seed` into a simulation observed by `probe`: the
    /// one place an experiment becomes a simulator.
    fn simulation<P: Probe>(&self, seed: u64, probe: P) -> Result<Simulation<P>, CoreError> {
        let mut config = self.config.clone();
        config.seed = seed;
        Ok(Simulation::with_probe(
            self.topology.build()?,
            self.topology.build_routing()?,
            self.traffic.build(&self.topology)?,
            config,
            probe,
        )?)
    }

    /// Runs `replications` times with seeds `seed, seed+1, ...` and
    /// aggregates throughput and latency.
    ///
    /// Replications execute on the parallel experiment engine under
    /// [`Parallelism::Auto`] (see [`crate::parallel`]); results are
    /// identical to a sequential loop for any worker count.
    ///
    /// # Errors
    ///
    /// Returns the lowest-seed error encountered; requires
    /// `replications > 0` ([`CoreError::InvalidSpec`] otherwise).
    pub fn run_replicated(&self, replications: usize) -> Result<Aggregate, CoreError> {
        self.run_replicated_with(replications, Parallelism::default())
    }

    /// [`run_replicated`](Self::run_replicated) with an explicit
    /// parallelism policy.
    ///
    /// # Errors
    ///
    /// See [`run_replicated`](Self::run_replicated).
    pub fn run_replicated_with(
        &self,
        replications: usize,
        parallelism: Parallelism,
    ) -> Result<Aggregate, CoreError> {
        if replications == 0 {
            return Err(CoreError::InvalidSpec {
                reason: "replications must be positive".to_owned(),
            });
        }
        let jobs: Vec<ExperimentJob> = (0..replications)
            .map(|r| ExperimentJob {
                experiment: self.clone(),
                seed: self.config.seed.wrapping_add(r as u64),
            })
            .collect();
        let runs = run_experiment_jobs(jobs, parallelism)?;
        Ok(Aggregate::from_runs(runs))
    }
}

/// Mean and standard deviation over replicated runs.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Aggregate {
    /// The individual runs (in seed order).
    pub runs: Vec<RunResult>,
    /// Mean aggregate throughput in flits/cycle.
    pub throughput_mean: f64,
    /// Sample standard deviation of throughput.
    pub throughput_std: f64,
    /// Mean of per-run mean latencies in cycles.
    pub latency_mean: f64,
    /// Sample standard deviation of per-run mean latencies.
    pub latency_std: f64,
    /// Mean acceptance ratio (1.0 below saturation).
    pub acceptance_mean: f64,
    /// Mean hops per delivered packet, averaged over runs.
    pub mean_hops: f64,
    /// Median packet latency over the merged histogram of all runs
    /// (0 when nothing was delivered).
    #[serde(default)]
    pub latency_p50: u64,
    /// 95th-percentile packet latency over the merged histogram.
    #[serde(default)]
    pub latency_p95: u64,
    /// 99th-percentile packet latency over the merged histogram.
    #[serde(default)]
    pub latency_p99: u64,
}

impl Aggregate {
    /// Computes aggregates from a nonempty set of runs.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    pub fn from_runs(runs: Vec<RunResult>) -> Self {
        assert!(!runs.is_empty(), "aggregate needs at least one run");
        let throughputs: Vec<f64> = runs.iter().map(RunResult::throughput).collect();
        let latencies: Vec<f64> = runs
            .iter()
            .map(RunResult::latency)
            .filter(|l| l.is_finite())
            .collect();
        let acceptance: Vec<f64> = runs.iter().map(|r| r.stats.acceptance_ratio()).collect();
        let hops: Vec<f64> = runs.iter().filter_map(|r| r.stats.mean_hops()).collect();
        let (throughput_mean, throughput_std) = mean_std(&throughputs);
        let (latency_mean, latency_std) = mean_std(&latencies);
        let (acceptance_mean, _) = mean_std(&acceptance);
        let (mean_hops, _) = mean_std(&hops);
        // Percentiles come from the merged histogram — the percentile
        // of the pooled samples, not a mean of per-run percentiles.
        let mut merged = LatencyStats::new();
        for run in &runs {
            merged.merge(&run.stats.latency);
        }
        let pct = |p: f64| merged.percentile(p).unwrap_or(0);
        Aggregate {
            runs,
            throughput_mean,
            throughput_std,
            latency_mean,
            latency_std,
            acceptance_mean,
            mean_hops,
            latency_p50: pct(50.0),
            latency_p95: pct(95.0),
            latency_p99: pct(99.0),
        }
    }
}

/// Mean and sample standard deviation of a slice (`(0, 0)` if empty,
/// std 0 for singletons).
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    if values.len() < 2 {
        return (mean, 0.0);
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(lambda: f64) -> Experiment {
        Experiment {
            topology: TopologySpec::Spidergon { nodes: 8 },
            traffic: TrafficSpec::Uniform,
            config: SimConfig::builder()
                .injection_rate(lambda)
                .warmup_cycles(100)
                .measure_cycles(1_000)
                .seed(1)
                .build()
                .unwrap(),
        }
    }

    #[test]
    fn single_run_produces_labels_and_stats() {
        let r = quick(0.1).run().unwrap();
        assert_eq!(r.topology_label, "spidergon-8");
        assert_eq!(r.traffic_label, "uniform");
        assert!(r.throughput() > 0.0);
        assert!(r.latency().is_finite());
    }

    #[test]
    fn replication_aggregates_have_spread() {
        let agg = quick(0.2).run_replicated(4).unwrap();
        assert_eq!(agg.runs.len(), 4);
        assert!(agg.throughput_mean > 0.0);
        assert!(agg.throughput_std >= 0.0);
        assert!(agg.latency_mean > 0.0);
        assert!(agg.acceptance_mean > 0.9);
        assert!(agg.mean_hops > 1.0);
        assert!(agg.latency_p50 > 0);
        assert!(agg.latency_p50 <= agg.latency_p95 && agg.latency_p95 <= agg.latency_p99);
        // Distinct seeds were used.
        let seeds: std::collections::HashSet<u64> = agg.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds.len(), 4);
    }

    #[test]
    fn zero_replications_rejected() {
        assert!(matches!(
            quick(0.1).run_replicated(0),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn run_with_seed_is_deterministic() {
        let exp = quick(0.15);
        let a = exp.run_with_seed(77).unwrap();
        let b = exp.run_with_seed(77).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_plain_run() {
        let exp = quick(0.2);
        let plain = exp.run_with_seed(9).unwrap();
        let (traced, rec) = exp.run_traced_with_seed(9).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb the run");
        assert!(!rec.events().is_empty());
        assert_eq!(
            rec.breakdown().total.count() as usize,
            rec.packet_timings().len()
        );
    }

    #[test]
    fn mean_std_basics() {
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[5.0]), (5.0, 0.0));
        let (m, s) = mean_std(&[1.0, 2.0, 3.0]);
        assert!((m - 2.0).abs() < 1e-12);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn experiment_serializes() {
        let exp = quick(0.1);
        let json = serde_json::to_string(&exp).unwrap();
        let back: Experiment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, exp);
    }
}
