//! Packet injection processes: when does a source create the next
//! packet.
//!
//! The paper's sources "adopt a Poisson interarrival distribution of
//! constant size packets (6 flits in our simulations), with variable
//! parameter Lambda". Lambda is expressed in **flits per cycle per
//! source** throughout (the paper's throughput axes are flits/cycle), so
//! a source emitting `L`-flit packets generates `lambda / L` packets per
//! cycle on average.

use crate::TrafficError;
use rand::Rng;

/// Stochastic process governing packet creation times at a source.
///
/// # Examples
///
/// ```
/// use noc_traffic::InjectionProcess;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(7);
/// let poisson = InjectionProcess::Poisson;
/// // Mean interarrival for lambda = 0.3 flits/cycle, 6-flit packets:
/// // 6 / 0.3 = 20 cycles.
/// let mean: f64 = (0..10_000)
///     .map(|_| poisson.interarrival(&mut rng, 0.05))
///     .sum::<f64>()
///     / 10_000.0;
/// assert!((mean - 20.0).abs() < 1.0);
/// ```
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, Debug, Default, serde::Serialize, serde::Deserialize,
)]
pub enum InjectionProcess {
    /// Poisson arrivals: exponential interarrival times (the paper's
    /// process).
    #[default]
    Poisson,
    /// Bernoulli arrivals quantized to cycles: geometric interarrival
    /// times with success probability `packets_per_cycle`.
    Bernoulli,
    /// Constant bit rate: deterministic interarrival of exactly
    /// `1 / packets_per_cycle` cycles.
    Cbr,
}

impl InjectionProcess {
    /// Samples the next interarrival time in cycles for a source
    /// generating `packets_per_cycle` packets per cycle on average.
    ///
    /// Returns `f64::INFINITY` when `packets_per_cycle == 0` (a silent
    /// source).
    ///
    /// # Panics
    ///
    /// Panics if `packets_per_cycle` is negative, NaN, or greater than
    /// 1 for [`InjectionProcess::Bernoulli`].
    pub fn interarrival<R: Rng + ?Sized>(self, rng: &mut R, packets_per_cycle: f64) -> f64 {
        assert!(
            packets_per_cycle.is_finite() && packets_per_cycle >= 0.0,
            "packet rate must be finite and non-negative"
        );
        if packets_per_cycle == 0.0 {
            return f64::INFINITY;
        }
        match self {
            InjectionProcess::Poisson => {
                // Inverse-CDF sampling of Exp(rate); guard the u = 0
                // corner which would yield ln(0).
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                -u.ln() / packets_per_cycle
            }
            InjectionProcess::Bernoulli => {
                assert!(
                    packets_per_cycle <= 1.0,
                    "bernoulli probability must not exceed 1"
                );
                // Geometric: number of cycles until first success.
                let mut cycles = 1.0;
                while !rng.gen_bool(packets_per_cycle) {
                    cycles += 1.0;
                    // At p >= 2^-53 this terminates with probability 1;
                    // bound the tail to keep the simulator live even for
                    // adversarially small probabilities.
                    if cycles >= 1e9 {
                        break;
                    }
                }
                cycles
            }
            InjectionProcess::Cbr => 1.0 / packets_per_cycle,
        }
    }

    /// Converts a flit injection rate (the paper's lambda, flits per
    /// cycle per source) to a packet rate for `packet_len`-flit packets.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidRate`] if `lambda` is negative or
    /// not finite.
    ///
    /// # Panics
    ///
    /// Panics if `packet_len == 0`.
    pub fn packets_per_cycle(lambda: f64, packet_len: usize) -> Result<f64, TrafficError> {
        assert!(packet_len > 0, "packets must contain at least one flit");
        if !lambda.is_finite() || lambda < 0.0 {
            return Err(TrafficError::InvalidRate { rate: lambda });
        }
        Ok(lambda / packet_len as f64)
    }
}

impl core::fmt::Display for InjectionProcess {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            InjectionProcess::Poisson => "poisson",
            InjectionProcess::Bernoulli => "bernoulli",
            InjectionProcess::Cbr => "cbr",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, SeedableRng};

    fn mean_interarrival(process: InjectionProcess, rate: f64, samples: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(42);
        (0..samples)
            .map(|_| process.interarrival(&mut rng, rate))
            .sum::<f64>()
            / samples as f64
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mean = mean_interarrival(InjectionProcess::Poisson, 0.25, 50_000);
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_samples_are_positive() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(InjectionProcess::Poisson.interarrival(&mut rng, 0.9) > 0.0);
        }
    }

    #[test]
    fn bernoulli_mean_matches_rate() {
        let mean = mean_interarrival(InjectionProcess::Bernoulli, 0.2, 50_000);
        assert!((mean - 5.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn cbr_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            assert_eq!(InjectionProcess::Cbr.interarrival(&mut rng, 0.5), 2.0);
        }
    }

    #[test]
    fn zero_rate_means_silence() {
        let mut rng = SmallRng::seed_from_u64(4);
        for p in [
            InjectionProcess::Poisson,
            InjectionProcess::Bernoulli,
            InjectionProcess::Cbr,
        ] {
            assert_eq!(p.interarrival(&mut rng, 0.0), f64::INFINITY);
        }
    }

    #[test]
    fn lambda_to_packet_rate() {
        assert_eq!(
            InjectionProcess::packets_per_cycle(0.3, 6).unwrap(),
            0.3 / 6.0
        );
        assert!(InjectionProcess::packets_per_cycle(-0.1, 6).is_err());
        assert!(InjectionProcess::packets_per_cycle(f64::NAN, 6).is_err());
        assert!(InjectionProcess::packets_per_cycle(f64::INFINITY, 6).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_packet_len_panics() {
        let _ = InjectionProcess::packets_per_cycle(0.3, 0);
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn bernoulli_rejects_probability_above_one() {
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = InjectionProcess::Bernoulli.interarrival(&mut rng, 1.5);
    }

    #[test]
    fn default_is_poisson_as_in_paper() {
        assert_eq!(InjectionProcess::default(), InjectionProcess::Poisson);
        assert_eq!(InjectionProcess::Poisson.to_string(), "poisson");
    }
}
