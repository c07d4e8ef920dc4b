//! Irregular 2D mesh: a rectangular grid whose last row is only
//! partially filled.
//!
//! The paper stresses that "regular meshes cannot be always assumed as
//! realistic topologies": a SoC floorplan rarely yields a perfect
//! `m x n` rectangle of IPs. The irregular mesh models the natural
//! fallback — fill a grid row by row and stop when the IPs run out —
//! and is the "real 2D mesh" family whose diameter and average distance
//! fluctuate unpredictably between the ideal-mesh and ring values in
//! Figures 2 and 3.

use crate::{Direction, NodeId, Topology, TopologyError, TopologyKind};

/// A 2D mesh on `num_nodes` nodes laid out row-major on a grid with
/// `cols` columns; all rows are full except possibly the last, which is
/// filled as a prefix.
///
/// Because the partial row is a *prefix*, dimension-order (XY) routing
/// remains valid: moving along X inside any row, then along Y inside any
/// column, never crosses a missing node (columns are filled top-down and
/// rows left-to-right).
///
/// # Examples
///
/// ```
/// use noc_topology::{IrregularMesh, NodeId, Topology};
///
/// // 7 nodes on a 3-wide grid: rows [0,1,2], [3,4,5], [6].
/// let mesh = IrregularMesh::new(3, 7)?;
/// assert_eq!(mesh.num_nodes(), 7);
/// assert_eq!(mesh.rows(), 3);
/// assert_eq!(mesh.coords(NodeId::new(6)), (0, 2));
/// assert_eq!(mesh.degree(NodeId::new(6)), 1); // only its north link
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IrregularMesh {
    cols: usize,
    num_nodes: usize,
}

impl IrregularMesh {
    /// Creates an irregular mesh with `num_nodes` nodes on a grid with
    /// `cols` columns.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroDimension`] if `cols == 0`,
    /// [`TopologyError::TooFewNodes`] if `num_nodes < 2`, and
    /// [`TopologyError::InvalidIrregularShape`] if `num_nodes < cols`
    /// (a single partial row would be a bare line better modeled by
    /// [`crate::RectMesh`] — and would leave declared columns empty).
    pub fn new(cols: usize, num_nodes: usize) -> Result<Self, TopologyError> {
        if cols == 0 {
            return Err(TopologyError::ZeroDimension);
        }
        if num_nodes < 2 {
            return Err(TopologyError::TooFewNodes {
                requested: num_nodes,
                minimum: 2,
            });
        }
        if num_nodes < cols {
            return Err(TopologyError::InvalidIrregularShape { cols, num_nodes });
        }
        Ok(IrregularMesh { cols, num_nodes })
    }

    /// The paper's "real mesh" for an arbitrary node count: a grid with
    /// `ceil(sqrt(N))` columns filled row by row.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_nodes < 2`.
    pub fn realistic(num_nodes: usize) -> Result<Self, TopologyError> {
        if num_nodes < 2 {
            return Err(TopologyError::TooFewNodes {
                requested: num_nodes,
                minimum: 2,
            });
        }
        let cols = (num_nodes as f64).sqrt().ceil() as usize;
        IrregularMesh::new(cols.max(1), num_nodes)
    }

    /// Number of columns of the underlying grid.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of (full or partial) rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.num_nodes.div_ceil(self.cols)
    }

    /// Returns `true` if the grid is actually a full rectangle.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.num_nodes.is_multiple_of(self.cols)
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

    /// Node at `(col, row)`, or `None` if that grid position is empty or
    /// outside the grid.
    pub fn node_at(&self, col: usize, row: usize) -> Option<NodeId> {
        if col >= self.cols {
            return None;
        }
        let id = row * self.cols + col;
        if id < self.num_nodes {
            Some(NodeId::new(id))
        } else {
            None
        }
    }

    /// Manhattan distance between two nodes. Because the last row is a
    /// prefix, every XY route of this length exists in the mesh, so this
    /// equals the true shortest-path distance (validated against BFS in
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn manhattan_distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    fn check(&self, node: NodeId) {
        assert!(
            node.index() < self.num_nodes,
            "node {node} out of range for irregular mesh of {} nodes",
            self.num_nodes
        );
    }
}

impl Topology for IrregularMesh {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::IrregularMesh
    }

    fn directions(&self, node: NodeId) -> Vec<Direction> {
        self.check(node);
        let mut dirs = Vec::with_capacity(4);
        for d in [
            Direction::North,
            Direction::South,
            Direction::East,
            Direction::West,
        ] {
            if self.neighbor(node, d).is_some() {
                dirs.push(d);
            }
        }
        dirs
    }

    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (col, row) = self.coords(node);
        match dir {
            Direction::North => row.checked_sub(1).and_then(|r| self.node_at(col, r)),
            Direction::South => self.node_at(col, row + 1),
            Direction::East => self.node_at(col + 1, row),
            Direction::West => col.checked_sub(1).and_then(|c| self.node_at(c, row)),
            _ => None,
        }
    }

    fn label(&self) -> String {
        format!("irregular-{}w-{}", self.cols, self.num_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn construction_bounds() {
        assert!(IrregularMesh::new(0, 5).is_err());
        assert!(IrregularMesh::new(3, 1).is_err());
        assert!(IrregularMesh::new(4, 3).is_err()); // partial single row
        assert!(IrregularMesh::new(3, 3).is_ok());
        assert!(IrregularMesh::new(3, 7).is_ok());
    }

    #[test]
    fn invariants_hold_for_many_shapes() {
        for cols in 2..6 {
            for n in cols..30 {
                check_topology_invariants(&IrregularMesh::new(cols, n).unwrap());
            }
        }
    }

    #[test]
    fn full_grid_matches_rect_mesh_distances() {
        use crate::RectMesh;
        let irr = IrregularMesh::new(4, 12).unwrap();
        assert!(irr.is_full());
        let rect = RectMesh::new(4, 3).unwrap();
        assert_eq!(
            irr.graph().all_pairs_distances().total_distance(),
            rect.graph().all_pairs_distances().total_distance()
        );
    }

    #[test]
    fn partial_row_geometry() {
        let mesh = IrregularMesh::new(3, 7).unwrap();
        assert_eq!(mesh.rows(), 3);
        assert!(!mesh.is_full());
        assert_eq!(mesh.node_at(1, 2), None); // missing grid position
        assert_eq!(mesh.node_at(0, 2), Some(NodeId::new(6)));
    }

    #[test]
    fn manhattan_distance_equals_bfs_despite_missing_nodes() {
        for (cols, n) in [(3usize, 7usize), (4, 10), (5, 23), (3, 8), (6, 33)] {
            let mesh = IrregularMesh::new(cols, n).unwrap();
            let apd = mesh.graph().all_pairs_distances();
            for a in mesh.node_ids() {
                for b in mesh.node_ids() {
                    assert_eq!(
                        mesh.manhattan_distance(a, b) as u32,
                        apd.distance(a.index(), b.index()),
                        "cols={cols} n={n} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn realistic_uses_ceil_sqrt_columns() {
        let mesh = IrregularMesh::realistic(10).unwrap();
        assert_eq!(mesh.cols(), 4);
        assert_eq!(mesh.num_nodes(), 10);
        let mesh = IrregularMesh::realistic(16).unwrap();
        assert_eq!(mesh.cols(), 4);
        assert!(mesh.is_full());
        assert!(IrregularMesh::realistic(1).is_err());
    }

    #[test]
    fn realistic_small_counts_are_valid() {
        for n in 2..50 {
            let mesh = IrregularMesh::realistic(n).unwrap();
            assert_eq!(mesh.num_nodes(), n);
            check_topology_invariants(&mesh);
        }
    }

    #[test]
    fn lone_last_node_has_degree_one() {
        let mesh = IrregularMesh::new(3, 7).unwrap();
        assert_eq!(mesh.degree(NodeId::new(6)), 1);
        assert_eq!(
            mesh.neighbor(NodeId::new(6), Direction::North),
            Some(NodeId::new(3))
        );
        assert_eq!(mesh.neighbor(NodeId::new(6), Direction::East), None);
    }
}
