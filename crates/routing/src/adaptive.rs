//! Adaptive routing: the West-First turn model for 2D meshes.
//!
//! The paper lists "adaptive" among the flit-by-flit routing options for
//! NoCs and leaves "analysis of routing protocols" as future work. The
//! classic partially-adaptive scheme compatible with the paper's mesh
//! node (single output buffer per link, no extra VCs) is Glass & Ni's
//! **West-First turn model**: all hops towards the West are performed
//! first, after which the packet may adaptively choose among the
//! remaining minimal directions (East / North / South) based on local
//! congestion. Prohibiting the two turns *into* West removes every
//! abstract cycle, so the scheme is deadlock-free with one virtual
//! channel (verified by [`crate::cdg::CdgAnalysis::analyze_candidates`]).

use crate::RoutingAlgorithm;
use noc_topology::{Direction, NodeId, RectMesh};

/// West-First partially-adaptive minimal routing on a full rectangular
/// mesh.
///
/// * Destination strictly to the West: the only candidate is `West`
///   (the deterministic phase).
/// * Otherwise: all minimal directions among `East`, `North`, `South`
///   are candidates, preferred in the order X-then-Y so that
///   [`next_hop`](RoutingAlgorithm::next_hop) (the first candidate)
///   degenerates to plain XY routing when the router never needs to
///   adapt.
///
/// # Examples
///
/// ```
/// use noc_routing::{RoutingAlgorithm, WestFirst};
/// use noc_topology::{Direction, NodeId, RectMesh};
///
/// let mesh = RectMesh::new(4, 4)?;
/// let algo = WestFirst::new(&mesh);
/// // Node 0 = (0,0) to node 15 = (3,3): East and South both minimal.
/// let c = algo.candidates(NodeId::new(0), NodeId::new(15));
/// assert_eq!(c, vec![Direction::East, Direction::South]);
/// // To the west: no adaptivity.
/// let c = algo.candidates(NodeId::new(15), NodeId::new(12));
/// assert_eq!(c, vec![Direction::West]);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WestFirst {
    cols: usize,
    rows: usize,
}

impl WestFirst {
    /// Creates the routing function for a full rectangular mesh.
    pub fn new(mesh: &RectMesh) -> Self {
        WestFirst {
            cols: mesh.cols(),
            rows: mesh.rows(),
        }
    }

    /// Creates the routing function from raw grid extents.
    ///
    /// # Panics
    ///
    /// Panics if either extent is zero.
    pub fn for_grid(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh extents must be nonzero");
        WestFirst { cols, rows }
    }

    fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(
            node.index() < self.cols * self.rows,
            "node {node} out of range for {}x{} mesh",
            self.cols,
            self.rows
        );
        (node.index() % self.cols, node.index() / self.cols)
    }
}

impl RoutingAlgorithm for WestFirst {
    fn next_hop(&self, current: NodeId, dest: NodeId) -> Direction {
        *self
            .candidates(current, dest)
            .first()
            .expect("candidates is never empty")
    }

    fn candidates(&self, current: NodeId, dest: NodeId) -> Vec<Direction> {
        let mut out = Vec::with_capacity(2);
        self.candidates_into(current, dest, &mut out);
        out
    }

    fn candidates_into(&self, current: NodeId, dest: NodeId, out: &mut Vec<Direction>) {
        let (cx, cy) = self.coords(current);
        let (dx, dy) = self.coords(dest);
        if cx > dx {
            // Deterministic West phase — the turn model permits no
            // other move while the destination lies to the West.
            out.push(Direction::West);
            return;
        }
        let before = out.len();
        if cx < dx {
            out.push(Direction::East);
        }
        if cy < dy {
            out.push(Direction::South);
        } else if cy > dy {
            out.push(Direction::North);
        }
        if out.len() == before {
            out.push(Direction::Local);
        }
    }

    fn label(&self) -> String {
        "west-first-adaptive".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::CdgAnalysis;
    use crate::validate::{validate_all_candidates, validate_all_routes};
    use noc_topology::Topology;

    fn setup(m: usize, n: usize) -> (RectMesh, WestFirst) {
        let mesh = RectMesh::new(m, n).unwrap();
        let algo = WestFirst::new(&mesh);
        (mesh, algo)
    }

    #[test]
    fn west_phase_is_exclusive() {
        let (_, a) = setup(4, 4);
        // (3,3) -> (0,0): only West until the column matches.
        assert_eq!(
            a.candidates(NodeId::new(15), NodeId::new(0)),
            vec![Direction::West]
        );
        // Column aligned, north remains.
        assert_eq!(
            a.candidates(NodeId::new(12), NodeId::new(0)),
            vec![Direction::North]
        );
    }

    #[test]
    fn eastward_moves_are_adaptive() {
        let (_, a) = setup(4, 4);
        assert_eq!(
            a.candidates(NodeId::new(0), NodeId::new(15)),
            vec![Direction::East, Direction::South]
        );
        assert_eq!(
            a.candidates(NodeId::new(12), NodeId::new(3)),
            vec![Direction::East, Direction::North]
        );
    }

    #[test]
    fn local_at_destination() {
        let (_, a) = setup(3, 3);
        assert_eq!(
            a.candidates(NodeId::new(4), NodeId::new(4)),
            vec![Direction::Local]
        );
        assert_eq!(a.next_hop(NodeId::new(4), NodeId::new(4)), Direction::Local);
    }

    #[test]
    fn deterministic_walks_are_minimal() {
        for (m, n) in [(2usize, 4usize), (4, 4), (5, 3)] {
            let (mesh, a) = setup(m, n);
            let report = validate_all_routes(&a, &mesh).unwrap();
            assert_eq!(report.non_minimal, 0, "{m}x{n}");
        }
    }

    #[test]
    fn every_candidate_makes_progress() {
        for (m, n) in [(2usize, 4usize), (4, 4), (5, 3), (4, 6)] {
            let (mesh, a) = setup(m, n);
            validate_all_candidates(&a, &mesh).unwrap();
        }
    }

    #[test]
    fn turn_model_is_deadlock_free_with_one_vc() {
        for (m, n) in [(3usize, 3usize), (4, 4), (4, 6)] {
            let (mesh, a) = setup(m, n);
            assert_eq!(a.num_vcs_required(), 1);
            let analysis = CdgAnalysis::analyze_candidates(&a, &mesh);
            assert!(
                analysis.is_deadlock_free(),
                "{m}x{n}: {:?}",
                analysis.cycle()
            );
        }
    }

    #[test]
    fn forbidden_turns_never_appear_in_candidates() {
        // No candidate set may combine a vertical arrival with a West
        // continuation: verify West only appears alone.
        let (mesh, a) = setup(5, 5);
        for src in mesh.node_ids() {
            for dst in mesh.node_ids() {
                let c = a.candidates(src, dst);
                if c.contains(&Direction::West) {
                    assert_eq!(c, vec![Direction::West], "{src}->{dst}: {c:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_grid_rejected() {
        let _ = WestFirst::for_grid(0, 3);
    }
}
