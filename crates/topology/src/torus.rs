//! 2D torus topology: a mesh with wrap-around links — one of the
//! "additional NoC topologies" the paper's future work points at.
//!
//! The torus removes the mesh's edge asymmetry (every node has degree
//! 4, like the Spidergon's constant degree 3 but richer) at the cost of
//! long wrap-around wires and, like the ring, the need for a second
//! virtual channel to break the wrap-induced channel-dependency cycles.

use crate::{Direction, NodeId, Topology, TopologyError, TopologyKind};

/// An `cols x rows` 2D torus: the rectangular mesh of
/// [`crate::RectMesh`] plus wrap-around links in both dimensions.
///
/// Nodes are numbered row-major like the mesh. Every node has exactly
/// four links; the network has `4 * N` unidirectional links, diameter
/// `floor(cols/2) + floor(rows/2)` and an average distance equal to the
/// sum of the two ring averages.
///
/// Both dimensions must have at least three nodes — with two, the wrap
/// link would duplicate an existing link.
///
/// # Examples
///
/// ```
/// use noc_topology::{Direction, NodeId, Topology, Torus};
///
/// let torus = Torus::new(4, 4)?;
/// assert_eq!(torus.num_nodes(), 16);
/// // Wrap-around: east from the last column returns to the first.
/// assert_eq!(
///     torus.neighbor(NodeId::new(3), Direction::East),
///     Some(NodeId::new(0)),
/// );
/// assert_eq!(torus.num_links(), 64);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Torus {
    cols: usize,
    rows: usize,
}

impl Torus {
    /// Minimum extent of each dimension.
    pub const MIN_DIM: usize = 3;

    /// Creates a `cols x rows` torus.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroDimension`] if a dimension is zero
    /// and [`TopologyError::TooFewNodes`] if either dimension is below
    /// three.
    pub fn new(cols: usize, rows: usize) -> Result<Self, TopologyError> {
        if cols == 0 || rows == 0 {
            return Err(TopologyError::ZeroDimension);
        }
        if cols < Self::MIN_DIM || rows < Self::MIN_DIM {
            return Err(TopologyError::TooFewNodes {
                requested: cols * rows,
                minimum: Self::MIN_DIM * Self::MIN_DIM,
            });
        }
        Ok(Torus { cols, rows })
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// `(col, row)` coordinates of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        self.check(node);
        (node.index() % self.cols, node.index() / self.cols)
    }

    /// Node at `(col, row)` with coordinates taken modulo the extents.
    pub fn node_at_wrapped(&self, col: usize, row: usize) -> NodeId {
        NodeId::new((row % self.rows) * self.cols + (col % self.cols))
    }

    /// Torus (wrap-aware Manhattan) distance between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn torus_distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = ax.abs_diff(bx);
        let dy = ay.abs_diff(by);
        dx.min(self.cols - dx) + dy.min(self.rows - dy)
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.cols * self.rows,
            "node {node} out of range for {}x{} torus",
            self.cols,
            self.rows
        );
    }
}

impl Topology for Torus {
    fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Torus
    }

    fn directions(&self, node: NodeId) -> Vec<Direction> {
        self.check(node);
        vec![
            Direction::North,
            Direction::South,
            Direction::East,
            Direction::West,
        ]
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (col, row) = self.coords(node);
        match dir {
            Direction::North => Some(self.node_at_wrapped(col, row + self.rows - 1)),
            Direction::South => Some(self.node_at_wrapped(col, row + 1)),
            Direction::East => Some(self.node_at_wrapped(col + 1, row)),
            Direction::West => Some(self.node_at_wrapped(col + self.cols - 1, row)),
            _ => None,
        }
    }

    fn label(&self) -> String {
        format!("torus-{}x{}", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn construction_bounds() {
        assert!(Torus::new(2, 4).is_err());
        assert!(Torus::new(4, 2).is_err());
        assert!(Torus::new(0, 4).is_err());
        assert!(Torus::new(3, 3).is_ok());
        assert!(Torus::new(8, 8).is_ok());
    }

    #[test]
    fn invariants_hold() {
        for (m, n) in [(3usize, 3usize), (3, 5), (4, 4), (5, 3), (6, 4)] {
            check_topology_invariants(&Torus::new(m, n).unwrap());
        }
    }

    #[test]
    fn constant_degree_four_and_4n_links() {
        let t = Torus::new(4, 5).unwrap();
        for v in t.node_ids() {
            assert_eq!(t.degree(v), 4);
        }
        assert_eq!(t.num_links(), 4 * 20);
    }

    #[test]
    fn wraparound_neighbors() {
        let t = Torus::new(4, 3).unwrap();
        // Node 0 = (0, 0).
        assert_eq!(
            t.neighbor(NodeId::new(0), Direction::West),
            Some(NodeId::new(3))
        );
        assert_eq!(
            t.neighbor(NodeId::new(0), Direction::North),
            Some(NodeId::new(8))
        );
        assert_eq!(t.neighbor(NodeId::new(0), Direction::Across), None);
    }

    #[test]
    fn torus_distance_matches_bfs() {
        for (m, n) in [(3usize, 3usize), (4, 4), (5, 3), (4, 6)] {
            let t = Torus::new(m, n).unwrap();
            let apd = t.graph().all_pairs_distances();
            for a in t.node_ids() {
                for b in t.node_ids() {
                    assert_eq!(
                        t.torus_distance(a, b) as u32,
                        apd.distance(a.index(), b.index()),
                        "{m}x{n} {a}->{b}"
                    );
                }
            }
        }
    }

    #[test]
    fn diameter_is_sum_of_half_extents() {
        for (m, n) in [(4usize, 4usize), (5, 5), (6, 4), (3, 7)] {
            let t = Torus::new(m, n).unwrap();
            assert_eq!(
                t.graph().all_pairs_distances().diameter() as usize,
                m / 2 + n / 2
            );
        }
    }

    #[test]
    fn torus_beats_equal_sized_mesh_on_distance() {
        use crate::{metrics, RectMesh};
        let torus = Torus::new(4, 4).unwrap();
        let mesh = RectMesh::new(4, 4).unwrap();
        assert!(metrics::average_distance(&torus) < metrics::average_distance(&mesh));
    }

    #[test]
    fn label_and_accessors() {
        let t = Torus::new(3, 5).unwrap();
        assert_eq!(t.label(), "torus-3x5");
        assert_eq!(t.cols(), 3);
        assert_eq!(t.rows(), 5);
        assert_eq!(t.coords(NodeId::new(7)), (1, 2));
    }
}
