//! Bidirectional ring topology (paper Figure 1.b).

use crate::{Direction, NodeId, Topology, TopologyError, TopologyKind};

/// A bidirectional ring of `N` nodes.
///
/// Node `i` is connected clockwise to `(i + 1) mod N` and counter-
/// clockwise to `(i - 1) mod N`. With channels counted as unidirectional
/// pairs, the ring has `2N` links, diameter `floor(N/2)` and (paper
/// convention) average distance `~ N/4`.
///
/// # Examples
///
/// ```
/// use noc_topology::{Direction, NodeId, Ring, Topology};
///
/// let ring = Ring::new(8)?;
/// assert_eq!(ring.num_nodes(), 8);
/// assert_eq!(
///     ring.neighbor(NodeId::new(7), Direction::Clockwise),
///     Some(NodeId::new(0)),
/// );
/// assert_eq!(ring.num_links(), 16);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ring {
    num_nodes: usize,
}

impl Ring {
    /// Minimum supported node count. Below three nodes the clockwise and
    /// counterclockwise neighbors coincide and the ring degenerates.
    pub const MIN_NODES: usize = 3;

    /// Creates a ring with `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TooFewNodes`] if `num_nodes < 3`.
    pub fn new(num_nodes: usize) -> Result<Self, TopologyError> {
        if num_nodes < Self::MIN_NODES {
            return Err(TopologyError::TooFewNodes {
                requested: num_nodes,
                minimum: Self::MIN_NODES,
            });
        }
        Ok(Ring { num_nodes })
    }

    /// Ring distance (shortest of the two directions) between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn ring_distance(&self, a: NodeId, b: NodeId) -> usize {
        let n = self.num_nodes;
        assert!(a.index() < n && b.index() < n, "node out of range");
        let cw = (b.index() + n - a.index()) % n;
        cw.min(n - cw)
    }

    /// Number of clockwise hops from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn clockwise_distance(&self, a: NodeId, b: NodeId) -> usize {
        let n = self.num_nodes;
        assert!(a.index() < n && b.index() < n, "node out of range");
        (b.index() + n - a.index()) % n
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for ring of {} nodes",
            self.num_nodes
        );
    }
}

impl Topology for Ring {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Ring
    }

    fn directions(&self, node: NodeId) -> Vec<Direction> {
        self.check(node);
        vec![Direction::Clockwise, Direction::CounterClockwise]
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.check(node);
        let n = self.num_nodes;
        match dir {
            Direction::Clockwise => Some(NodeId::new((node.index() + 1) % n)),
            Direction::CounterClockwise => Some(NodeId::new((node.index() + n - 1) % n)),
            _ => None,
        }
    }

    fn label(&self) -> String {
        format!("ring-{}", self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn construction_bounds() {
        assert!(Ring::new(2).is_err());
        assert!(Ring::new(0).is_err());
        assert!(Ring::new(3).is_ok());
        assert!(Ring::new(64).is_ok());
    }

    #[test]
    fn invariants_hold_for_many_sizes() {
        for n in 3..40 {
            check_topology_invariants(&Ring::new(n).unwrap());
        }
    }

    #[test]
    fn wraparound_neighbors() {
        let r = Ring::new(5).unwrap();
        assert_eq!(
            r.neighbor(NodeId::new(4), Direction::Clockwise),
            Some(NodeId::new(0))
        );
        assert_eq!(
            r.neighbor(NodeId::new(0), Direction::CounterClockwise),
            Some(NodeId::new(4))
        );
        assert_eq!(r.neighbor(NodeId::new(0), Direction::Across), None);
        assert_eq!(r.neighbor(NodeId::new(0), Direction::North), None);
    }

    #[test]
    fn degree_is_constant_two() {
        let r = Ring::new(9).unwrap();
        for v in r.node_ids() {
            assert_eq!(r.degree(v), 2);
        }
    }

    #[test]
    fn link_count_is_2n() {
        for n in [3usize, 4, 8, 15, 32] {
            let r = Ring::new(n).unwrap();
            assert_eq!(r.num_links(), 2 * n);
        }
    }

    #[test]
    fn ring_distance_matches_bfs() {
        for n in [3usize, 6, 7, 12] {
            let r = Ring::new(n).unwrap();
            let apd = r.graph().all_pairs_distances();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        r.ring_distance(NodeId::new(a), NodeId::new(b)) as u32,
                        apd.distance(a, b),
                        "n={n} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn clockwise_distance_is_directional() {
        let r = Ring::new(8).unwrap();
        assert_eq!(r.clockwise_distance(NodeId::new(6), NodeId::new(1)), 3);
        assert_eq!(r.clockwise_distance(NodeId::new(1), NodeId::new(6)), 5);
        assert_eq!(r.ring_distance(NodeId::new(1), NodeId::new(6)), 3);
    }

    #[test]
    fn label_mentions_size() {
        assert_eq!(Ring::new(12).unwrap().label(), "ring-12");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn neighbor_panics_out_of_range() {
        let r = Ring::new(4).unwrap();
        let _ = r.neighbor(NodeId::new(4), Direction::Clockwise);
    }
}
