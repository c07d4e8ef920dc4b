//! Simulation configuration.

use crate::SimError;
use noc_traffic::InjectionProcess;

/// Largest input or output buffer capacity, in flits: every buffer is a
/// ring whose read position and length are single bytes.
pub const MAX_BUFFER_CAPACITY: usize = crate::buffer::MAX_RING_CAPACITY;

/// Largest sink rate, in flits per cycle: each flit of sink bandwidth
/// is an ejection channel, numbered by a single byte within its router.
pub const MAX_SINK_RATE: usize = u8::MAX as usize;

/// Longest packet, in flits. Per-node flit counts are 32-bit, so a
/// backlogged packet's length must stay far below `u32::MAX`; the
/// paper's packets have 6 flits.
pub const MAX_PACKET_LEN: usize = u16::MAX as usize;

/// Most flits a stochastic run may expect to generate:
/// `injection_rate × sources × (warmup_cycles + measure_cycles)` must
/// not exceed 2^30 (about 10^9). Past saturation every generated flit
/// stays queued at its source, so a larger budget buys hours of run time
/// and gigabytes of backlog. The paper's largest figure points expect
/// under 10^6 flits. Trace replays generate exactly their entries and
/// are not bounded by it.
pub const MAX_EXPECTED_FLITS: u64 = 1 << 30;

/// Configuration of one simulation run.
///
/// Defaults mirror the paper's setup: 6-flit packets, 1-flit input
/// buffers, 3-flit output buffers, sink consumption of one flit per
/// cycle, Poisson injection.
///
/// Build with [`SimConfig::builder`]:
///
/// ```
/// use noc_sim::SimConfig;
///
/// let cfg = SimConfig::builder()
///     .injection_rate(0.2)
///     .warmup_cycles(1_000)
///     .measure_cycles(10_000)
///     .seed(7)
///     .build()?;
/// assert_eq!(cfg.packet_len, 6);
/// assert_eq!(cfg.output_buffer_capacity, 3);
/// # Ok::<(), noc_sim::SimError>(())
/// ```
#[derive(Clone, PartialEq, Debug, serde::Serialize, serde::Deserialize)]
// Missing fields in serialized configs (e.g. specs written before a
// field existed) fall back to the paper defaults.
#[serde(default)]
#[non_exhaustive]
pub struct SimConfig {
    /// Packet length in flits (paper: 6).
    pub packet_len: usize,
    /// Per-source injection rate lambda in flits per cycle (paper's
    /// x-axis). Under [`InjectionProcess::Bernoulli`] at most
    /// `packet_len` (one packet per cycle).
    pub injection_rate: f64,
    /// Stochastic process for packet creation times.
    pub injection_process: InjectionProcess,
    /// Capacity of each input (one per port and VC) buffer in flits
    /// (paper: 1).
    pub input_buffer_capacity: usize,
    /// Capacity of each output VC queue in flits (paper: 3).
    pub output_buffer_capacity: usize,
    /// Flits the sink consumes from the ejection queue per cycle
    /// (paper: packets leave through the IP memory in FIFO order; 1
    /// flit/cycle makes the destination the hot-spot bottleneck).
    pub sink_rate: usize,
    /// Cycles to run before statistics collection starts.
    pub warmup_cycles: u64,
    /// Cycles of the measurement window.
    pub measure_cycles: u64,
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Router pipeline depth in cycles: a flit arriving in an input
    /// buffer becomes eligible for switch allocation this many cycles
    /// later (0 = the paper's single-stage router; 2-3 models the
    /// classic RC/VA/SA/ST pipelines). With the paper's one-flit input
    /// buffers there is no stage overlap, so per-link bandwidth drops
    /// to `1/(1 + router_delay)` flits/cycle and zero-load latency
    /// scales by about `1 + router_delay`; deepen
    /// [`input_buffer_capacity`](Self::input_buffer_capacity) to model
    /// overlapped pipelines.
    pub router_delay: u64,
    /// Sparse activity tracking (on by default): each cycle the
    /// simulator visits only routers holding flits, and while the whole
    /// network is empty it skips the cycle phases up to the next
    /// scheduled arrival (each skipped cycle still reaches the attached
    /// probe). Sparse and dense stepping are bit-identical under every
    /// probe — the dense core stays as the reference of the
    /// differential conformance harness and for perf comparison, not
    /// for correctness.
    pub sparse: bool,
}

impl SimConfig {
    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::new()
    }

    /// Average packets per cycle each source generates under this
    /// configuration.
    pub fn packets_per_cycle(&self) -> f64 {
        self.injection_rate / self.packet_len as f64
    }

    /// Total simulated cycles (warmup plus measurement).
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }

    /// Checks every field's range. [`SimConfigBuilder::build`] and every
    /// simulation constructor call this, so a configuration that skipped
    /// the builder (a deserialized spec, a struct update) is checked too.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero packet length,
    /// sink rate or measurement window; a packet length above
    /// [`MAX_PACKET_LEN`];
    /// a negative or non-finite injection rate; a
    /// [`Bernoulli`](InjectionProcess::Bernoulli) rate above one packet
    /// per cycle (`packet_len` flits); buffer capacities outside
    /// `1..=`[`MAX_BUFFER_CAPACITY`]; a sink rate above
    /// [`MAX_SINK_RATE`]; or cycle counts whose sum
    /// `warmup_cycles + measure_cycles + router_delay` overflows `u64`.
    pub fn validate(&self) -> Result<(), SimError> {
        let reason = if self.packet_len == 0 {
            "packet_len must be positive".to_owned()
        } else if self.packet_len > MAX_PACKET_LEN {
            format!("packet_len must be at most {MAX_PACKET_LEN}")
        } else if !self.injection_rate.is_finite() || self.injection_rate < 0.0 {
            "injection_rate must be finite and non-negative".to_owned()
        } else if self.injection_process == InjectionProcess::Bernoulli
            && self.packets_per_cycle() > 1.0
        {
            format!(
                "injection_rate {} exceeds one {}-flit packet per cycle, the most a \
                 bernoulli source can inject",
                self.injection_rate, self.packet_len
            )
        } else if self.input_buffer_capacity == 0 {
            "input_buffer_capacity must be positive".to_owned()
        } else if self.input_buffer_capacity > MAX_BUFFER_CAPACITY {
            format!("input_buffer_capacity must be at most {MAX_BUFFER_CAPACITY}")
        } else if self.output_buffer_capacity == 0 {
            "output_buffer_capacity must be positive".to_owned()
        } else if self.output_buffer_capacity > MAX_BUFFER_CAPACITY {
            format!("output_buffer_capacity must be at most {MAX_BUFFER_CAPACITY}")
        } else if self.sink_rate == 0 {
            "sink_rate must be positive".to_owned()
        } else if self.sink_rate > MAX_SINK_RATE {
            format!("sink_rate must be at most {MAX_SINK_RATE}")
        } else if self.measure_cycles == 0 {
            "measure_cycles must be positive".to_owned()
        } else if self
            .warmup_cycles
            .checked_add(self.measure_cycles)
            .is_none()
        {
            format!(
                "warmup_cycles {} plus measure_cycles {} overflows u64",
                self.warmup_cycles, self.measure_cycles
            )
        } else if self.total_cycles().checked_add(self.router_delay).is_none() {
            format!(
                "router_delay {} past the {} simulated cycles overflows u64",
                self.router_delay,
                self.total_cycles()
            )
        } else {
            return Ok(());
        };
        Err(SimError::InvalidConfig { reason })
    }

    /// Checks that `num_sources` stochastic sources at this rate expect
    /// at most [`MAX_EXPECTED_FLITS`] generated flits over the run.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the estimate.
    pub(crate) fn check_expected_flits(&self, num_sources: usize) -> Result<(), SimError> {
        let expected = self.injection_rate * num_sources as f64 * self.total_cycles() as f64;
        if expected <= MAX_EXPECTED_FLITS as f64 {
            return Ok(());
        }
        Err(SimError::InvalidConfig {
            reason: format!(
                "injection_rate {} expects {expected:.3e} generated flits ({num_sources} \
                 sources over {} cycles), more than the budget of {MAX_EXPECTED_FLITS}",
                self.injection_rate,
                self.total_cycles()
            ),
        })
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfigBuilder::new()
            .build()
            .expect("default configuration is valid")
    }
}

/// Builder for [`SimConfig`] (see there for field semantics).
#[derive(Clone, Debug)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Creates a builder initialized with the paper's defaults.
    pub fn new() -> Self {
        SimConfigBuilder {
            config: SimConfig {
                packet_len: 6,
                injection_rate: 0.1,
                injection_process: InjectionProcess::Poisson,
                input_buffer_capacity: 1,
                output_buffer_capacity: 3,
                sink_rate: 1,
                warmup_cycles: 1_000,
                measure_cycles: 10_000,
                seed: 0xBAD5EED,
                router_delay: 0,
                sparse: true,
            },
        }
    }

    /// Sets the packet length in flits.
    pub fn packet_len(&mut self, flits: usize) -> &mut Self {
        self.config.packet_len = flits;
        self
    }

    /// Sets the per-source injection rate in flits/cycle.
    pub fn injection_rate(&mut self, lambda: f64) -> &mut Self {
        self.config.injection_rate = lambda;
        self
    }

    /// Sets the injection process.
    pub fn injection_process(&mut self, process: InjectionProcess) -> &mut Self {
        self.config.injection_process = process;
        self
    }

    /// Sets the input buffer capacity in flits.
    pub fn input_buffer_capacity(&mut self, flits: usize) -> &mut Self {
        self.config.input_buffer_capacity = flits;
        self
    }

    /// Sets the output VC queue capacity in flits.
    pub fn output_buffer_capacity(&mut self, flits: usize) -> &mut Self {
        self.config.output_buffer_capacity = flits;
        self
    }

    /// Sets the sink consumption rate in flits/cycle.
    pub fn sink_rate(&mut self, flits_per_cycle: usize) -> &mut Self {
        self.config.sink_rate = flits_per_cycle;
        self
    }

    /// Sets the warmup window length.
    pub fn warmup_cycles(&mut self, cycles: u64) -> &mut Self {
        self.config.warmup_cycles = cycles;
        self
    }

    /// Sets the measurement window length.
    pub fn measure_cycles(&mut self, cycles: u64) -> &mut Self {
        self.config.measure_cycles = cycles;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Sets the router pipeline depth in cycles.
    pub fn router_delay(&mut self, cycles: u64) -> &mut Self {
        self.config.router_delay = cycles;
        self
    }

    /// Enables or disables sparse activity tracking (idle-router
    /// skipping and empty-network fast-forward).
    pub fn sparse(&mut self, enabled: bool) -> &mut Self {
        self.config.sparse = enabled;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any field is out of range
    /// (see [`SimConfig::validate`]).
    pub fn build(&self) -> Result<SimConfig, SimError> {
        self.config.validate()?;
        Ok(self.config.clone())
    }
}

impl Default for SimConfigBuilder {
    fn default() -> Self {
        SimConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let cfg = SimConfig::default();
        assert_eq!(cfg.packet_len, 6);
        assert_eq!(cfg.input_buffer_capacity, 1);
        assert_eq!(cfg.output_buffer_capacity, 3);
        assert_eq!(cfg.sink_rate, 1);
        assert_eq!(cfg.injection_process, InjectionProcess::Poisson);
    }

    #[test]
    fn builder_chains() {
        let cfg = SimConfig::builder()
            .packet_len(4)
            .injection_rate(0.5)
            .sink_rate(2)
            .warmup_cycles(10)
            .measure_cycles(20)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(cfg.packet_len, 4);
        assert_eq!(cfg.total_cycles(), 30);
        assert_eq!(cfg.seed, 99);
        assert!((cfg.packets_per_cycle() - 0.125).abs() < 1e-12);
    }

    /// The `InvalidConfig` reason for a default config with one field
    /// changed, checked through both `validate` and the builder.
    fn rejection(edit: impl Fn(&mut SimConfig)) -> String {
        let mut cfg = SimConfig::default();
        edit(&mut cfg);
        let err = cfg.validate().unwrap_err();
        let mut builder = SimConfig::builder();
        builder.config = cfg;
        assert_eq!(builder.build().unwrap_err(), err);
        match err {
            SimError::InvalidConfig { reason } => reason,
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_zero_packet_len() {
        assert!(rejection(|c| c.packet_len = 0).contains("packet_len"));
    }

    #[test]
    fn validation_rejects_bad_injection_rate() {
        assert!(rejection(|c| c.injection_rate = -0.1).contains("injection_rate"));
        assert!(rejection(|c| c.injection_rate = f64::NAN).contains("injection_rate"));
        assert!(rejection(|c| c.injection_rate = f64::INFINITY).contains("injection_rate"));
        // A Bernoulli source injects at most one packet per cycle; a
        // Poisson source has no such cap.
        let bernoulli = |rate: f64| SimConfig {
            injection_rate: rate,
            injection_process: InjectionProcess::Bernoulli,
            ..SimConfig::default()
        };
        let reason = rejection(|c| *c = bernoulli(7.0));
        assert!(
            reason.contains("injection_rate 7 exceeds one 6-flit packet"),
            "{reason}"
        );
        assert_eq!(bernoulli(6.0).validate(), Ok(()));
        let poisson = SimConfig {
            injection_rate: 7.0,
            ..SimConfig::default()
        };
        assert_eq!(poisson.validate(), Ok(()));
    }

    #[test]
    fn validation_bounds_input_buffer_capacity() {
        assert!(rejection(|c| c.input_buffer_capacity = 0).contains("input_buffer_capacity"));
        let too_big = rejection(|c| c.input_buffer_capacity = MAX_BUFFER_CAPACITY + 1);
        assert!(too_big.contains("input_buffer_capacity must be at most"));
        let cfg = SimConfig {
            input_buffer_capacity: MAX_BUFFER_CAPACITY,
            ..SimConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validation_bounds_output_buffer_capacity() {
        assert!(rejection(|c| c.output_buffer_capacity = 0).contains("output_buffer_capacity"));
        let too_big = rejection(|c| c.output_buffer_capacity = 100_000_000_000);
        assert!(too_big.contains("output_buffer_capacity must be at most"));
        let cfg = SimConfig {
            output_buffer_capacity: MAX_BUFFER_CAPACITY,
            ..SimConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validation_bounds_sink_rate() {
        assert!(rejection(|c| c.sink_rate = 0).contains("sink_rate"));
        assert!(
            rejection(|c| c.sink_rate = MAX_SINK_RATE + 1).contains("sink_rate must be at most")
        );
        let cfg = SimConfig {
            sink_rate: MAX_SINK_RATE,
            ..SimConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn validation_bounds_packet_len() {
        assert!(rejection(|c| c.packet_len = 0).contains("packet_len"));
        for len in [MAX_PACKET_LEN + 1, 1 << 32, (1 << 32) + 1] {
            let reason = rejection(|c| c.packet_len = len);
            assert!(reason.contains("packet_len must be at most"), "{reason}");
        }
        let cfg = SimConfig {
            packet_len: MAX_PACKET_LEN,
            ..SimConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn expected_flits_are_bounded() {
        // 16 sources over 2^14 cycles: the budget of 2^30 flits allows
        // λ up to exactly 2^12 flits per cycle.
        let at = |rate: f64| SimConfig {
            injection_rate: rate,
            warmup_cycles: 384,
            measure_cycles: 16_000,
            ..SimConfig::default()
        };
        assert_eq!(at(4096.0).check_expected_flits(16), Ok(()));
        assert!(at(4097.0).check_expected_flits(16).is_err());
        assert_eq!(at(1e6).check_expected_flits(0), Ok(()), "no sources");
        let Err(SimError::InvalidConfig { reason }) = at(1e6).check_expected_flits(16) else {
            panic!("λ = 1e6 passed the budget");
        };
        assert!(
            reason.contains("expects 2.621e11 generated flits (16 sources over 16384 cycles)"),
            "{reason}"
        );
    }

    #[test]
    fn validation_rejects_zero_measure_cycles() {
        assert!(rejection(|c| c.measure_cycles = 0).contains("measure_cycles"));
    }

    #[test]
    fn validation_rejects_overflowing_cycle_counts() {
        let reason = rejection(|c| c.warmup_cycles = u64::MAX);
        assert!(reason.contains("warmup_cycles"), "{reason}");
        let reason = rejection(|c| c.measure_cycles = u64::MAX);
        assert!(reason.contains("measure_cycles"), "{reason}");
        let reason = rejection(|c| c.router_delay = u64::MAX);
        assert!(reason.contains("router_delay"), "{reason}");
        // The largest legal sum is exactly `u64::MAX`.
        let edge = SimConfig {
            warmup_cycles: u64::MAX - 12,
            measure_cycles: 10,
            router_delay: 2,
            ..SimConfig::default()
        };
        assert_eq!(edge.validate(), Ok(()));
        let over = SimConfig {
            router_delay: 3,
            ..edge
        };
        assert!(over.validate().is_err());
    }

    #[test]
    fn partial_json_configs_fill_defaults() {
        // Specs written before a field existed must still parse.
        let cfg: SimConfig =
            serde_json::from_str(r#"{"injection_rate": 0.25, "seed": 9}"#).unwrap();
        assert_eq!(cfg.injection_rate, 0.25);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.packet_len, 6);
        assert!(cfg.sparse, "old specs get the sparse core");
        // The retired `audit` keys are ignored: auditing is a probe
        // (`crate::Auditor`), not part of the configuration. So are the
        // retired `compiled_routes` switch (the simulator compiles a
        // route table whenever the routing algorithm allows one),
        // `record_deliveries` (a `crate::Recorder` keeps every packet's
        // timing), the throughput sampling interval (the recorder's
        // windows are the one time series) and the stall threshold (the
        // watchdog derives its wait from `router_delay`; zero was once
        // rejected).
        let old: SimConfig = serde_json::from_str(
            r#"{"audit": true, "audit_interval": 0, "compiled_routes": false,
                "record_deliveries": true, "sample_interval": 50,
                "stall_threshold": 0, "seed": 9}"#,
        )
        .unwrap();
        assert_eq!(
            old,
            SimConfig {
                seed: 9,
                ..SimConfig::default()
            }
        );
    }

    #[test]
    fn sparse_defaults_on_and_toggles() {
        assert!(SimConfig::default().sparse);
        let cfg = SimConfig::builder().sparse(false).build().unwrap();
        assert!(!cfg.sparse);
    }

    #[test]
    fn zero_rate_is_valid_silence() {
        let cfg = SimConfig::builder().injection_rate(0.0).build().unwrap();
        assert_eq!(cfg.packets_per_cycle(), 0.0);
    }
}
