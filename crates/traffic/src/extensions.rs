//! Traffic patterns beyond the paper's three scenarios.
//!
//! The paper's future work lists "specific traffic patterns originated
//! by common applications"; these are the standard synthetic patterns
//! from the interconnection-network literature (Duato et al., the
//! paper's reference \[4\]) most often used for that purpose.

use crate::{TrafficError, TrafficPattern};
use noc_topology::NodeId;
use rand::RngCore;

/// Matrix-transpose traffic on a `cols x rows` grid: node `(x, y)`
/// sends to node `(y, x)`.
///
/// Only defined on square grids (otherwise the image may not exist).
/// Nodes on the diagonal send to nobody and are excluded from the
/// source set.
///
/// # Examples
///
/// ```
/// use noc_traffic::{TrafficPattern, Transpose};
/// use noc_topology::NodeId;
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let pattern = Transpose::new(4)?;
/// let mut rng = SmallRng::seed_from_u64(0);
/// // Node (1, 0) = 1 sends to (0, 1) = 4.
/// assert_eq!(pattern.pick_destination(NodeId::new(1), &mut rng), NodeId::new(4));
/// # Ok::<(), noc_traffic::TrafficError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transpose {
    side: usize,
}

impl Transpose {
    /// Creates transpose traffic on a `side x side` grid.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::TooFewNodes`] if `side < 2`.
    pub fn new(side: usize) -> Result<Self, TrafficError> {
        if side < 2 {
            return Err(TrafficError::TooFewNodes {
                requested: side * side,
                minimum: 4,
            });
        }
        Ok(Transpose { side })
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.side * self.side,
            "node {node} out of range for {0}x{0} grid",
            self.side
        );
    }

    fn transpose(&self, node: NodeId) -> NodeId {
        let (x, y) = (node.index() % self.side, node.index() / self.side);
        NodeId::new(x * self.side + y)
    }
}

impl TrafficPattern for Transpose {
    fn num_nodes(&self) -> usize {
        self.side * self.side
    }

    fn is_source(&self, node: NodeId) -> bool {
        self.check(node);
        self.transpose(node) != node
    }

    fn is_destination(&self, node: NodeId) -> bool {
        self.check(node);
        self.transpose(node) != node
    }

    fn pick_destination(&self, src: NodeId, _rng: &mut dyn RngCore) -> NodeId {
        self.check(src);
        let dst = self.transpose(src);
        assert_ne!(dst, src, "diagonal node {src} is not a source");
        dst
    }

    fn label(&self) -> String {
        format!("transpose({0}x{0})", self.side)
    }
}

/// Bit-complement traffic: node `i` sends to node `N - 1 - i`.
///
/// On ring-like topologies this exercises the longest paths; every node
/// is both a source and a destination (for even `N`; with odd `N` the
/// middle node is excluded).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Complement {
    num_nodes: usize,
}

impl Complement {
    /// Creates complement traffic over `num_nodes` nodes.
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
        Ok(Complement { num_nodes })
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for {} nodes",
            self.num_nodes
        );
    }

    fn complement(&self, node: NodeId) -> NodeId {
        NodeId::new(self.num_nodes - 1 - node.index())
    }
}

impl TrafficPattern for Complement {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn is_source(&self, node: NodeId) -> bool {
        self.check(node);
        self.complement(node) != node
    }

    fn is_destination(&self, node: NodeId) -> bool {
        self.check(node);
        self.complement(node) != node
    }

    fn pick_destination(&self, src: NodeId, _rng: &mut dyn RngCore) -> NodeId {
        self.check(src);
        let dst = self.complement(src);
        assert_ne!(dst, src, "self-complementary node {src} is not a source");
        dst
    }

    fn label(&self) -> String {
        "complement".to_owned()
    }
}

/// Nearest-neighbor traffic: node `i` sends to node `(i + 1) mod N`,
/// modelling pipelined streaming between adjacent IPs.
///
/// On ring-like topologies every packet travels exactly one hop — the
/// "parallel local communication" case where the paper notes NoC
/// architectures shine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NearestNeighbor {
    num_nodes: usize,
}

impl NearestNeighbor {
    /// Creates nearest-neighbor traffic over `num_nodes` nodes.
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
        Ok(NearestNeighbor { num_nodes })
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for {} nodes",
            self.num_nodes
        );
    }
}

impl TrafficPattern for NearestNeighbor {
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

    fn pick_destination(&self, src: NodeId, _rng: &mut dyn RngCore) -> NodeId {
        self.check(src);
        NodeId::new((src.index() + 1) % self.num_nodes)
    }

    fn label(&self) -> String {
        "nearest-neighbor".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_pattern_invariants;
    use rand::{rngs::SmallRng, SeedableRng};

    #[test]
    fn transpose_excludes_diagonal() {
        let p = Transpose::new(3).unwrap();
        // Diagonal nodes 0, 4, 8 are neither sources nor destinations.
        assert_eq!(p.sources().len(), 6);
        assert!(!p.is_source(NodeId::new(4)));
        assert!(!p.is_destination(NodeId::new(0)));
    }

    #[test]
    fn transpose_is_an_involution() {
        let p = Transpose::new(4).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        for src in p.sources() {
            let dst = p.pick_destination(src, &mut rng);
            assert_eq!(p.pick_destination(dst, &mut rng), src);
        }
    }

    #[test]
    fn complement_pairs_ends() {
        let p = Complement::new(8).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(p.pick_destination(NodeId::new(0), &mut rng), NodeId::new(7));
        assert_eq!(p.sources().len(), 8);
        // Odd N: the middle node is excluded.
        let p = Complement::new(7).unwrap();
        assert!(!p.is_source(NodeId::new(3)));
        assert_eq!(p.sources().len(), 6);
    }

    #[test]
    fn nearest_neighbor_wraps() {
        let p = NearestNeighbor::new(5).unwrap();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(p.pick_destination(NodeId::new(4), &mut rng), NodeId::new(0));
    }

    #[test]
    fn all_extension_patterns_pass_invariants() {
        let mut rng = SmallRng::seed_from_u64(77);
        check_pattern_invariants(&Transpose::new(4).unwrap(), &mut rng);
        check_pattern_invariants(&Complement::new(9).unwrap(), &mut rng);
        check_pattern_invariants(&NearestNeighbor::new(6).unwrap(), &mut rng);
    }

    #[test]
    fn construction_bounds() {
        assert!(Transpose::new(1).is_err());
        assert!(Complement::new(1).is_err());
        assert!(NearestNeighbor::new(1).is_err());
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(Transpose::new(4).unwrap().label(), "transpose(4x4)");
        assert_eq!(Complement::new(4).unwrap().label(), "complement");
        assert_eq!(NearestNeighbor::new(4).unwrap().label(), "nearest-neighbor");
    }
}
