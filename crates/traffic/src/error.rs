//! Error types for traffic-pattern construction.

use core::fmt;
use noc_topology::NodeId;

/// Error returned when a traffic pattern cannot be constructed.
// `Eq` is omitted: `InvalidRate` and `InvalidFraction` carry an `f64`.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TrafficError {
    /// A hot-spot target is outside the node range.
    TargetOutOfRange {
        /// The offending target.
        target: NodeId,
        /// Number of nodes in the network.
        num_nodes: usize,
    },
    /// The two hot-spot targets coincide.
    DuplicateTargets {
        /// The duplicated target.
        target: NodeId,
    },
    /// The pattern needs at least this many nodes.
    TooFewNodes {
        /// Number of nodes requested.
        requested: usize,
        /// Minimum required.
        minimum: usize,
    },
    /// An injection rate was negative, NaN, or otherwise unusable.
    InvalidRate {
        /// The offending rate in flits/cycle.
        rate: f64,
    },
    /// A hot-spot fraction was outside `[0, 1]` or NaN.
    InvalidFraction {
        /// The offending fraction.
        fraction: f64,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrafficError::TargetOutOfRange { target, num_nodes } => {
                write!(
                    f,
                    "hot-spot target {target} out of range for {num_nodes} nodes"
                )
            }
            TrafficError::DuplicateTargets { target } => {
                write!(f, "hot-spot targets must differ, both are {target}")
            }
            TrafficError::TooFewNodes { requested, minimum } => {
                write!(
                    f,
                    "pattern requires at least {minimum} nodes, got {requested}"
                )
            }
            TrafficError::InvalidRate { rate } => {
                write!(
                    f,
                    "injection rate must be finite and non-negative, got {rate}"
                )
            }
            TrafficError::InvalidFraction { fraction } => {
                write!(f, "hot-spot fraction must be within [0, 1], got {fraction}")
            }
        }
    }
}

impl std::error::Error for TrafficError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = TrafficError::TargetOutOfRange {
            target: NodeId::new(9),
            num_nodes: 8,
        };
        assert!(e.to_string().contains("n9"));
        let e = TrafficError::InvalidRate { rate: f64::NAN };
        assert!(e.to_string().contains("NaN"));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<TrafficError>();
    }
}
