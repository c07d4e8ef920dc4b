//! Table-driven routing: BFS-computed next-hop tables for arbitrary
//! topologies.
//!
//! The paper lists "table-driven" among the flit-by-flit routing options
//! for NoCs. Here it serves two roles: the routing function for
//! topologies with no closed-form scheme (general irregular meshes), and
//! a shortest-path *oracle* that the algebraic algorithms are validated
//! against.

use crate::RoutingAlgorithm;
use noc_topology::{Direction, NodeId, Topology};

/// Deterministic shortest-path routing from a precomputed table.
///
/// For every `(current, dest)` pair the table stores the output
/// direction of a shortest path, chosen deterministically: among the
/// neighbors one hop closer to `dest`, the one whose direction has the
/// lowest [`Direction::index`]. The table for an `N`-node topology uses
/// `O(N^2)` bytes.
///
/// # Examples
///
/// ```
/// use noc_routing::{RoutingAlgorithm, TableRouting};
/// use noc_topology::{IrregularMesh, NodeId};
///
/// let mesh = IrregularMesh::new(3, 7)?;
/// let algo = TableRouting::from_topology(&mesh);
/// let hop = algo.next_hop(NodeId::new(0), NodeId::new(6));
/// assert_ne!(hop, noc_topology::Direction::Local);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableRouting {
    num_nodes: usize,
    /// Row-major `[current][dest]` next-hop directions; `Local` on the
    /// diagonal.
    table: Vec<Direction>,
    vcs: usize,
}

impl TableRouting {
    /// Builds the next-hop table for `topo` from its all-pairs distance
    /// matrix, which is held while the table is built (4 bytes per node
    /// pair, on top of the table's 1).
    ///
    /// The resulting algorithm requests 1 virtual channel; general
    /// table routing is **not** automatically deadlock-free — check
    /// with [`crate::cdg::CdgAnalysis`] before simulating a topology
    /// whose dependency graph has cycles.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is disconnected.
    pub fn from_topology<T: Topology + ?Sized>(topo: &T) -> Self {
        Self::with_vcs(topo, 1)
    }

    /// Like [`from_topology`](Self::from_topology) but declaring a
    /// virtual-channel requirement (the table itself is identical; VCs
    /// are kept as selected by the default policy).
    ///
    /// # Panics
    ///
    /// Panics if `topo` is disconnected or `vcs == 0`.
    pub fn with_vcs<T: Topology + ?Sized>(topo: &T, vcs: usize) -> Self {
        assert!(vcs > 0, "at least one virtual channel is required");
        let n = topo.num_nodes();
        let apd = topo.graph().all_pairs_distances();
        let mut table = vec![Direction::Local; n * n];
        for current in 0..n {
            let cur = NodeId::new(current);
            // Each node picks, per destination, its lowest-index direction
            // to a neighbor one hop closer.
            let mut links: Vec<(Direction, &[u32])> = topo
                .directions(cur)
                .into_iter()
                .filter_map(|d| Some((d, apd.row(topo.neighbor(cur, d)?.index()))))
                .collect();
            links.sort_by_key(|&(d, _)| d.index());
            let dist = apd.row(current);
            for dest in (0..n).filter(|&dest| dest != current) {
                assert_ne!(
                    dist[dest],
                    noc_topology::graph::UNREACHABLE,
                    "topology is disconnected"
                );
                let (chosen, _) = links
                    .iter()
                    .find(|(_, row)| row[dest] == dist[dest] - 1)
                    .expect("connected graph always has a closer neighbor");
                table[current * n + dest] = *chosen;
            }
        }
        TableRouting {
            num_nodes: n,
            table,
            vcs,
        }
    }

    /// Number of nodes the table covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }
}

impl RoutingAlgorithm for TableRouting {
    fn next_hop(&self, current: NodeId, dest: NodeId) -> Direction {
        assert!(
            current.index() < self.num_nodes && dest.index() < self.num_nodes,
            "node out of range for table of {} nodes",
            self.num_nodes
        );
        self.table[current.index() * self.num_nodes + dest.index()]
    }

    fn num_vcs_required(&self) -> usize {
        self.vcs
    }

    fn label(&self) -> String {
        "table-driven".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{IrregularMesh, RectMesh, Ring, Spidergon};

    #[test]
    fn table_routes_are_shortest_on_all_families() {
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(Ring::new(9).unwrap()),
            Box::new(Spidergon::new(14).unwrap()),
            Box::new(RectMesh::new(3, 4).unwrap()),
            Box::new(IrregularMesh::new(4, 11).unwrap()),
        ];
        for topo in &topos {
            let algo = TableRouting::from_topology(topo.as_ref());
            let apd = topo.graph().all_pairs_distances();
            for src in topo.node_ids() {
                for dst in topo.node_ids() {
                    let mut at = src;
                    let mut hops = 0u32;
                    while at != dst {
                        let d = algo.next_hop(at, dst);
                        at = topo.neighbor(at, d).expect("table direction is valid");
                        hops += 1;
                        assert!(hops as usize <= topo.num_nodes());
                    }
                    assert_eq!(
                        hops,
                        apd.distance(src.index(), dst.index()),
                        "{} {src}->{dst}",
                        topo.label()
                    );
                }
            }
        }
    }

    /// The table as built before the all-pairs matrix: one BFS from
    /// each destination, each node taking its lowest-index direction to
    /// a neighbor one hop closer.
    fn per_destination_bfs_table<T: Topology>(topo: &T) -> Vec<Direction> {
        let n = topo.num_nodes();
        let graph = topo.graph();
        let mut table = vec![Direction::Local; n * n];
        for dest in 0..n {
            let dist = graph.bfs_distances(dest);
            for current in (0..n).filter(|&c| c != dest) {
                let cur = NodeId::new(current);
                table[current * n + dest] = topo
                    .directions(cur)
                    .into_iter()
                    .filter(|&d| {
                        topo.neighbor(cur, d)
                            .is_some_and(|nb| dist[nb.index()] + 1 == dist[current])
                    })
                    .min_by_key(|d| d.index())
                    .unwrap();
            }
        }
        table
    }

    #[test]
    fn table_matches_per_destination_bfs_on_meshes() {
        for n in 2..=70 {
            let irregular = IrregularMesh::realistic(n).unwrap();
            let table = TableRouting::from_topology(&irregular).table;
            assert_eq!(table, per_destination_bfs_table(&irregular), "n={n}");
            let rect = RectMesh::balanced(n).unwrap();
            let table = TableRouting::from_topology(&rect).table;
            assert_eq!(table, per_destination_bfs_table(&rect), "n={n}");
        }
    }

    /// Two separate East-West pairs, `0 - 1` and `2 - 3`.
    #[derive(Debug)]
    struct Split;

    impl Topology for Split {
        fn num_nodes(&self) -> usize {
            4
        }
        fn kind(&self) -> noc_topology::TopologyKind {
            noc_topology::TopologyKind::Mesh
        }
        fn directions(&self, node: NodeId) -> Vec<Direction> {
            vec![[Direction::East, Direction::West][node.index() % 2]]
        }
        fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
            self.directions(node)
                .contains(&dir)
                .then(|| NodeId::new(node.index() ^ 1))
        }
        fn label(&self) -> String {
            "split-4".to_owned()
        }
    }

    #[test]
    #[should_panic(expected = "topology is disconnected")]
    fn disconnected_topology_is_rejected() {
        let _ = TableRouting::from_topology(&Split);
    }

    #[test]
    fn tie_break_is_lowest_direction_index() {
        // On a spidergon with ring distance exactly N/2, both the across
        // link (index 2) and nothing else gives distance 1; for a target
        // at ring distance 2 on a 4-node spidergon, clockwise (index 0)
        // and counterclockwise tie at some nodes.
        let sg = Spidergon::new(4).unwrap();
        let algo = TableRouting::from_topology(&sg);
        // From 0 to 2: across is the 1-hop path, must be chosen.
        assert_eq!(
            algo.next_hop(NodeId::new(0), NodeId::new(2)),
            Direction::Across
        );
        // From 0 to 1: clockwise direct (1 hop).
        assert_eq!(
            algo.next_hop(NodeId::new(0), NodeId::new(1)),
            Direction::Clockwise
        );
    }

    #[test]
    fn diagonal_is_local() {
        let ring = Ring::new(5).unwrap();
        let algo = TableRouting::from_topology(&ring);
        for v in ring.node_ids() {
            assert_eq!(algo.next_hop(v, v), Direction::Local);
        }
    }

    #[test]
    fn vcs_are_reported() {
        let ring = Ring::new(5).unwrap();
        assert_eq!(TableRouting::from_topology(&ring).num_vcs_required(), 1);
        assert_eq!(TableRouting::with_vcs(&ring, 2).num_vcs_required(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one virtual channel")]
    fn zero_vcs_rejected() {
        let ring = Ring::new(5).unwrap();
        let _ = TableRouting::with_vcs(&ring, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let ring = Ring::new(5).unwrap();
        let algo = TableRouting::from_topology(&ring);
        let _ = algo.next_hop(NodeId::new(5), NodeId::new(0));
    }
}
