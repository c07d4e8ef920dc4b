//! Spidergon topology (paper Figure 1.a): a ring enriched with across
//! links between diametrically opposite nodes.

use crate::{Direction, NodeId, Topology, TopologyError, TopologyKind};

/// The STMicroelectronics Spidergon topology with `N` (even) nodes.
///
/// Node `i` has three links: clockwise to `(i + 1) mod N`,
/// counterclockwise to `(i - 1) mod N`, and across to
/// `(i + N/2) mod N`. Key properties highlighted by the paper:
///
/// * regular topology with **constant node degree 3** (simple router
///   hardware);
/// * vertex symmetry and edge transitivity;
/// * `3N` unidirectional links;
/// * diameter `ceil(N/4)` under Across-First routing.
///
/// # Examples
///
/// ```
/// use noc_topology::{Direction, NodeId, Spidergon, Topology};
///
/// let sg = Spidergon::new(12)?;
/// assert_eq!(sg.num_nodes(), 12);
/// assert_eq!(sg.opposite(NodeId::new(2)), NodeId::new(8));
/// assert_eq!(
///     sg.neighbor(NodeId::new(2), Direction::Across),
///     Some(NodeId::new(8)),
/// );
/// assert_eq!(sg.num_links(), 36);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Spidergon {
    num_nodes: usize,
}

impl Spidergon {
    /// Minimum supported node count (below four nodes the across link
    /// duplicates a ring link).
    pub const MIN_NODES: usize = 4;

    /// Creates a Spidergon with `num_nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::OddNodeCount`] if `num_nodes` is odd and
    /// [`TopologyError::TooFewNodes`] if `num_nodes < 4`.
    pub fn new(num_nodes: usize) -> Result<Self, TopologyError> {
        if !num_nodes.is_multiple_of(2) {
            return Err(TopologyError::OddNodeCount {
                requested: num_nodes,
            });
        }
        if num_nodes < Self::MIN_NODES {
            return Err(TopologyError::TooFewNodes {
                requested: num_nodes,
                minimum: Self::MIN_NODES,
            });
        }
        Ok(Spidergon { num_nodes })
    }

    /// The node diametrically opposite to `node` (its across neighbor).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn opposite(&self, node: NodeId) -> NodeId {
        self.check(node);
        NodeId::new((node.index() + self.num_nodes / 2) % self.num_nodes)
    }

    /// Ring distance (ignoring across links) between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn ring_distance(&self, a: NodeId, b: NodeId) -> usize {
        self.check(a);
        self.check(b);
        let n = self.num_nodes;
        let cw = (b.index() + n - a.index()) % n;
        cw.min(n - cw)
    }

    /// Shortest-path distance under Across-First routing: direct ring
    /// path if the ring distance is at most `N/4`, otherwise one across
    /// hop plus the ring distance from the opposite node.
    ///
    /// This closed form equals the true shortest-path distance in the
    /// Spidergon graph (validated against BFS in tests).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let direct = self.ring_distance(a, b);
        let via_across = 1 + self.ring_distance(self.opposite(a), b);
        direct.min(via_across)
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for spidergon of {} nodes",
            self.num_nodes
        );
    }
}

impl Topology for Spidergon {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Spidergon
    }

    fn directions(&self, node: NodeId) -> Vec<Direction> {
        self.check(node);
        vec![
            Direction::Clockwise,
            Direction::CounterClockwise,
            Direction::Across,
        ]
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.check(node);
        let n = self.num_nodes;
        match dir {
            Direction::Clockwise => Some(NodeId::new((node.index() + 1) % n)),
            Direction::CounterClockwise => Some(NodeId::new((node.index() + n - 1) % n)),
            Direction::Across => Some(NodeId::new((node.index() + n / 2) % n)),
            _ => None,
        }
    }

    fn label(&self) -> String {
        format!("spidergon-{}", self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn construction_bounds() {
        assert!(Spidergon::new(3).is_err());
        assert!(Spidergon::new(7).is_err());
        assert!(Spidergon::new(2).is_err());
        assert!(Spidergon::new(4).is_ok());
        assert!(Spidergon::new(6).is_ok());
        assert!(Spidergon::new(60).is_ok());
    }

    #[test]
    fn invariants_hold_for_many_sizes() {
        for n in (4..40).step_by(2) {
            check_topology_invariants(&Spidergon::new(n).unwrap());
        }
    }

    #[test]
    fn degree_is_constant_three() {
        let sg = Spidergon::new(16).unwrap();
        for v in sg.node_ids() {
            assert_eq!(sg.degree(v), 3);
        }
    }

    #[test]
    fn link_count_is_3n() {
        for n in [4usize, 8, 10, 24, 32] {
            assert_eq!(Spidergon::new(n).unwrap().num_links(), 3 * n);
        }
    }

    #[test]
    fn across_is_an_involution() {
        let sg = Spidergon::new(10).unwrap();
        for v in sg.node_ids() {
            assert_eq!(sg.opposite(sg.opposite(v)), v);
            assert_ne!(sg.opposite(v), v);
        }
    }

    #[test]
    fn closed_form_distance_matches_bfs() {
        for n in [4usize, 6, 8, 10, 12, 16, 20, 22, 30] {
            let sg = Spidergon::new(n).unwrap();
            let apd = sg.graph().all_pairs_distances();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        sg.distance(NodeId::new(a), NodeId::new(b)) as u32,
                        apd.distance(a, b),
                        "n={n} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn diameter_is_ceil_n_over_4() {
        for n in (4..=64usize).step_by(2) {
            let sg = Spidergon::new(n).unwrap();
            let diam = sg.graph().all_pairs_distances().diameter() as usize;
            assert_eq!(diam, n.div_ceil(4), "n={n}");
        }
    }

    #[test]
    fn vertex_symmetry_of_distance_sums() {
        // Every node sees the same multiset of distances (vertex symmetry).
        let sg = Spidergon::new(14).unwrap();
        let apd = sg.graph().all_pairs_distances();
        let sum0: u32 = apd.row(0).iter().sum();
        for v in 1..14 {
            let sum: u32 = apd.row(v).iter().sum();
            assert_eq!(sum, sum0);
        }
    }

    #[test]
    fn label_mentions_size() {
        assert_eq!(Spidergon::new(8).unwrap().label(), "spidergon-8");
    }
}
