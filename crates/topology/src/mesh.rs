//! Full rectangular 2D mesh topology (paper Figure 1.c).

use crate::{Direction, NodeId, Topology, TopologyError, TopologyKind};

/// An `m x n` rectangular 2D mesh with `m` columns and `n` rows.
///
/// Nodes are numbered row-major as in the paper's Figure 1.c: node
/// `id = row * cols + col`, so the first row is `0 .. m-1`, the second
/// `m .. 2m-1`, and so on. Interior nodes have degree 4, edge nodes 3 and
/// corner nodes 2.
///
/// With channels counted as unidirectional pairs, an `m x n` mesh has
/// `2(m-1)n + 2(n-1)m` links; its diameter is `(m-1) + (n-1) = m+n-2`.
///
/// # Examples
///
/// ```
/// use noc_topology::{Direction, NodeId, RectMesh, Topology};
///
/// let mesh = RectMesh::new(4, 2)?; // the paper's 2x4 = 8-node mesh
/// assert_eq!(mesh.num_nodes(), 8);
/// assert_eq!(mesh.coords(NodeId::new(5)), (1, 1)); // (col, row)
/// assert_eq!(
///     mesh.neighbor(NodeId::new(1), Direction::South),
///     Some(NodeId::new(5)),
/// );
/// assert_eq!(mesh.num_links(), 2 * 3 * 2 + 2 * 1 * 4);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RectMesh {
    cols: usize,
    rows: usize,
}

impl RectMesh {
    /// Creates an `cols x rows` mesh.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroDimension`] if either dimension is
    /// zero, and [`TopologyError::TooFewNodes`] for the degenerate 1x1
    /// mesh.
    pub fn new(cols: usize, rows: usize) -> Result<Self, TopologyError> {
        if cols == 0 || rows == 0 {
            return Err(TopologyError::ZeroDimension);
        }
        if cols * rows < 2 {
            return Err(TopologyError::TooFewNodes {
                requested: cols * rows,
                minimum: 2,
            });
        }
        Ok(RectMesh { cols, rows })
    }

    /// Creates the most square mesh holding exactly `num_nodes` nodes:
    /// `cols` is the largest divisor of `num_nodes` not exceeding
    /// `sqrt(num_nodes)` (so `cols <= rows`).
    ///
    /// This is the paper's "real mesh" as a full rectangle: for prime
    /// `N` it degenerates to a `1 x N` line, which is exactly the
    /// fluctuation towards ring-like behavior visible in Figures 2-3.
    ///
    /// # Errors
    ///
    /// Returns an error if `num_nodes < 2`.
    pub fn balanced(num_nodes: usize) -> Result<Self, TopologyError> {
        if num_nodes < 2 {
            return Err(TopologyError::TooFewNodes {
                requested: num_nodes,
                minimum: 2,
            });
        }
        let mut best = 1;
        let mut d = 1;
        while d * d <= num_nodes {
            if num_nodes.is_multiple_of(d) {
                best = d;
            }
            d += 1;
        }
        RectMesh::new(best, num_nodes / best)
    }

    /// Number of columns (`m` in the paper).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of rows (`n` in the paper).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns `true` if the mesh is square (`cols == rows`), the
    /// paper's "ideal" shape.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.cols == self.rows
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

    /// Node at `(col, row)`, or `None` if outside the grid.
    pub fn node_at(&self, col: usize, row: usize) -> Option<NodeId> {
        if col < self.cols && row < self.rows {
            Some(NodeId::new(row * self.cols + col))
        } else {
            None
        }
    }

    /// Manhattan distance between two nodes (the length of every
    /// dimension-order route).
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
            node.index() < self.num_nodes(),
            "node {node} out of range for {}x{} mesh",
            self.cols,
            self.rows
        );
    }
}

impl Topology for RectMesh {
    fn num_nodes(&self) -> usize {
        self.cols * self.rows
    }

    fn kind(&self) -> TopologyKind {
        TopologyKind::Mesh
    }

    fn directions(&self, node: NodeId) -> Vec<Direction> {
        let (col, row) = self.coords(node);
        let mut dirs = Vec::with_capacity(4);
        if row > 0 {
            dirs.push(Direction::North);
        }
        if row + 1 < self.rows {
            dirs.push(Direction::South);
        }
        if col + 1 < self.cols {
            dirs.push(Direction::East);
        }
        if col > 0 {
            dirs.push(Direction::West);
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
        format!("mesh-{}x{}", self.cols, self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_topology_invariants;

    #[test]
    fn construction_bounds() {
        assert!(RectMesh::new(0, 3).is_err());
        assert!(RectMesh::new(3, 0).is_err());
        assert!(RectMesh::new(1, 1).is_err());
        assert!(RectMesh::new(1, 2).is_ok());
        assert!(RectMesh::new(4, 6).is_ok());
    }

    #[test]
    fn invariants_hold_for_various_shapes() {
        for (m, n) in [(1, 4), (2, 2), (2, 4), (3, 3), (4, 6), (5, 2), (8, 8)] {
            check_topology_invariants(&RectMesh::new(m, n).unwrap());
        }
    }

    #[test]
    fn paper_numbering_is_row_major() {
        // Figure 1.c: second row starts at node m.
        let mesh = RectMesh::new(4, 3).unwrap();
        assert_eq!(mesh.node_at(0, 1), Some(NodeId::new(4)));
        assert_eq!(mesh.node_at(3, 2), Some(NodeId::new(11)));
        assert_eq!(mesh.coords(NodeId::new(11)), (3, 2));
        assert_eq!(mesh.node_at(4, 0), None);
    }

    #[test]
    fn degrees_are_2_to_4() {
        let mesh = RectMesh::new(4, 6).unwrap();
        let mut counts = [0usize; 5];
        for v in mesh.node_ids() {
            counts[mesh.degree(v)] += 1;
        }
        assert_eq!(counts[2], 4); // corners
        assert_eq!(counts[3], 2 * (4 - 2) + 2 * (6 - 2)); // edges
        assert_eq!(counts[4], (4 - 2) * (6 - 2)); // interior
    }

    #[test]
    fn link_count_matches_paper_formula() {
        for (m, n) in [(2usize, 4usize), (4, 6), (3, 3), (1, 7), (5, 5)] {
            let mesh = RectMesh::new(m, n).unwrap();
            assert_eq!(mesh.num_links(), 2 * (m - 1) * n + 2 * (n - 1) * m);
        }
    }

    #[test]
    fn manhattan_distance_matches_bfs() {
        let mesh = RectMesh::new(4, 3).unwrap();
        let apd = mesh.graph().all_pairs_distances();
        for a in mesh.node_ids() {
            for b in mesh.node_ids() {
                assert_eq!(
                    mesh.manhattan_distance(a, b) as u32,
                    apd.distance(a.index(), b.index())
                );
            }
        }
    }

    #[test]
    fn diameter_is_m_plus_n_minus_2() {
        for (m, n) in [(2usize, 4usize), (4, 6), (3, 3), (6, 6)] {
            let mesh = RectMesh::new(m, n).unwrap();
            assert_eq!(
                mesh.graph().all_pairs_distances().diameter() as usize,
                m + n - 2
            );
        }
    }

    #[test]
    fn balanced_factorization_picks_most_square() {
        assert_eq!(RectMesh::balanced(12).unwrap().label(), "mesh-3x4");
        assert_eq!(RectMesh::balanced(16).unwrap().label(), "mesh-4x4");
        assert_eq!(RectMesh::balanced(24).unwrap().label(), "mesh-4x6");
        // Prime N degenerates to a line: the "real mesh" fluctuation.
        assert_eq!(RectMesh::balanced(13).unwrap().label(), "mesh-1x13");
        assert!(RectMesh::balanced(1).is_err());
    }

    #[test]
    fn line_mesh_has_path_distances() {
        let line = RectMesh::new(1, 5).unwrap();
        let apd = line.graph().all_pairs_distances();
        assert_eq!(apd.diameter(), 4);
        assert_eq!(
            line.neighbor(NodeId::new(0), Direction::East),
            None,
            "1-wide mesh has no east/west links"
        );
    }

    #[test]
    fn is_square_detects_ideal_meshes() {
        assert!(RectMesh::new(4, 4).unwrap().is_square());
        assert!(!RectMesh::new(2, 4).unwrap().is_square());
    }
}
