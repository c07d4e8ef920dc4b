//! Error type for simulation construction and execution.

use core::fmt;

/// Error returned by simulation construction or execution.
#[derive(Clone, PartialEq, Debug)]
pub enum SimError {
    /// A configuration field was out of range.
    InvalidConfig {
        /// Human-readable reason.
        reason: String,
    },
    /// The topology, routing algorithm and traffic pattern disagree on
    /// the node count.
    NodeCountMismatch {
        /// Nodes in the topology.
        topology: usize,
        /// Nodes in the traffic pattern.
        pattern: usize,
    },
    /// A trace entry targets a node outside the topology.
    InvalidTrace {
        /// Human-readable reason.
        reason: String,
    },
    /// The deadlock watchdog fired: flits were in flight but none moved
    /// for `max(router_delay, 1)` consecutive cycles, so none ever will.
    Stalled {
        /// Cycle at which the stall was declared.
        cycle: u64,
        /// Number of flits stuck in the network.
        flits_in_flight: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SimError::NodeCountMismatch { topology, pattern } => write!(
                f,
                "traffic pattern covers {pattern} nodes but topology has {topology}"
            ),
            SimError::InvalidTrace { reason } => write!(f, "invalid trace: {reason}"),
            SimError::Stalled {
                cycle,
                flits_in_flight,
            } => write!(
                f,
                "network stalled at cycle {cycle} with {flits_in_flight} flits in flight (deadlock?)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = SimError::Stalled {
            cycle: 100,
            flits_in_flight: 12,
        };
        assert!(e.to_string().contains("cycle 100"));
        assert!(e.to_string().contains("12 flits"));
        let e = SimError::NodeCountMismatch {
            topology: 8,
            pattern: 9,
        };
        assert!(e.to_string().contains('8') && e.to_string().contains('9'));
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
    }
}
