//! The paper's homogeneous scenario: uniform sources and destinations.

use crate::{TrafficError, TrafficPattern};
use noc_topology::NodeId;
use rand::{Rng, RngCore};

/// Homogeneous uniform traffic (paper Section 3.1.3): "all the nodes
/// behave like sources and can be addressed as destination for packets,
/// with uniform probability distribution".
///
/// Each packet's destination is drawn uniformly from all nodes except
/// the source.
///
/// # Examples
///
/// ```
/// use noc_traffic::{TrafficPattern, UniformRandom};
/// use noc_topology::NodeId;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let pattern = UniformRandom::new(8)?;
/// let mut rng = SmallRng::seed_from_u64(1);
/// let dst = pattern.pick_destination(NodeId::new(3), &mut rng);
/// assert_ne!(dst, NodeId::new(3));
/// # Ok::<(), noc_traffic::TrafficError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UniformRandom {
    num_nodes: usize,
}

impl UniformRandom {
    /// Creates uniform traffic over `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::TooFewNodes`] if `num_nodes < 2`.
    pub fn new(num_nodes: usize) -> Result<Self, TrafficError> {
        if num_nodes < 2 {
            return Err(TrafficError::TooFewNodes {
                requested: num_nodes,
                minimum: 2,
            });
        }
        Ok(UniformRandom { num_nodes })
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for {} nodes",
            self.num_nodes
        );
    }
}

impl TrafficPattern for UniformRandom {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn is_source(&self, node: NodeId) -> bool {
        self.check(node);
        true
    }

    fn is_destination(&self, node: NodeId) -> bool {
        self.check(node);
        true
    }

    fn pick_destination(&self, src: NodeId, rng: &mut dyn RngCore) -> NodeId {
        self.check(src);
        // Draw from n-1 slots and skip the source.
        let raw = rng.gen_range(0..self.num_nodes - 1);
        if raw >= src.index() {
            NodeId::new(raw + 1)
        } else {
            NodeId::new(raw)
        }
    }

    fn label(&self) -> String {
        "uniform".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_pattern_invariants;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn construction_bounds() {
        assert!(UniformRandom::new(1).is_err());
        assert!(UniformRandom::new(2).is_ok());
    }

    #[test]
    fn invariants_hold() {
        let mut rng = SmallRng::seed_from_u64(11);
        for n in 2..20 {
            check_pattern_invariants(&UniformRandom::new(n).unwrap(), &mut rng);
        }
    }

    #[test]
    fn destinations_are_uniform_over_non_source_nodes() {
        let pattern = UniformRandom::new(5).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        let draws = 50_000;
        for _ in 0..draws {
            counts[pattern.pick_destination(NodeId::new(2), &mut rng).index()] += 1;
        }
        assert_eq!(counts[2], 0);
        let expected = draws as f64 / 4.0;
        for (i, &c) in counts.iter().enumerate() {
            if i != 2 {
                assert!(
                    (c as f64 - expected).abs() < expected * 0.05,
                    "node {i}: {c} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn every_node_is_source_and_destination() {
        let p = UniformRandom::new(6).unwrap();
        assert_eq!(p.sources().len(), 6);
        assert_eq!(p.destinations().len(), 6);
        assert_eq!(p.label(), "uniform");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_panics() {
        let p = UniformRandom::new(3).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        let _ = p.pick_destination(NodeId::new(3), &mut rng);
    }
}
