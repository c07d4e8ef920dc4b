//! The [`Topology`] trait: the contract between topology families and the
//! routing / simulation layers.

use crate::graph::Graph;
use crate::{Direction, NodeId};
use core::fmt;

/// Family tag of a topology, used for dispatching family-specific logic
/// (e.g. default routing algorithm or virtual-channel policy).
///
/// # Examples
///
/// ```
/// use noc_topology::{Ring, Topology, TopologyKind};
///
/// let ring = Ring::new(8)?;
/// assert_eq!(ring.kind(), TopologyKind::Ring);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TopologyKind {
    /// Bidirectional ring.
    Ring,
    /// Spidergon: ring plus across links between opposite nodes.
    Spidergon,
    /// Full rectangular 2D mesh.
    Mesh,
    /// 2D mesh whose last row is only partially filled.
    IrregularMesh,
    /// 2D torus: mesh plus wrap-around links.
    Torus,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Ring => "ring",
            TopologyKind::Spidergon => "spidergon",
            TopologyKind::Mesh => "mesh",
            TopologyKind::IrregularMesh => "irregular-mesh",
            TopologyKind::Torus => "torus",
        };
        f.write_str(s)
    }
}

/// A NoC topology: a set of nodes `0..num_nodes` connected by
/// bidirectional links, where each end of a link is identified by a
/// [`Direction`] port at its router.
///
/// All links are bidirectional pairs of unidirectional channels, as in
/// the paper: a Ring with `N` nodes has `2N` unidirectional links, a
/// Spidergon `3N`, and an `m x n` mesh `2(m-1)n + 2(n-1)m`.
///
/// Implementations guarantee:
///
/// * `neighbor(v, d)` is `Some` exactly when `d` is in `directions(v)`;
/// * links are symmetric: if `neighbor(v, d) == Some(u)` then
///   `neighbor(u, d.opposite().unwrap()) == Some(v)`;
/// * the topology is connected.
///
/// The trait is object-safe ([C-OBJECT]); the simulator stores topologies
/// as `Box<dyn Topology>`.
///
/// [C-OBJECT]: https://rust-lang.github.io/api-guidelines/flexibility.html
pub trait Topology: fmt::Debug {
    /// Number of nodes in the topology.
    fn num_nodes(&self) -> usize;

    /// Family tag of this topology.
    fn kind(&self) -> TopologyKind;

    /// Link directions present at `node`, excluding [`Direction::Local`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn directions(&self, node: NodeId) -> Vec<Direction>;

    /// The node reached by leaving `node` through direction `dir`, or
    /// `None` if `node` has no such port.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId>;

    /// Short human-readable name, e.g. `"spidergon-16"` or `"mesh-4x6"`.
    fn label(&self) -> String;

    /// Number of links (ports) at `node`, excluding the local port.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn degree(&self, node: NodeId) -> usize {
        self.directions(node).len()
    }

    /// All neighbors of `node`, in the canonical direction order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.directions(node)
            .into_iter()
            .filter_map(|d| self.neighbor(node, d))
            .collect()
    }

    /// The direction of the port at `from` that leads directly to `to`,
    /// or `None` if the nodes are not adjacent.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    fn direction_to(&self, from: NodeId, to: NodeId) -> Option<Direction> {
        self.directions(from)
            .into_iter()
            .find(|&d| self.neighbor(from, d) == Some(to))
    }

    /// Returns `true` if `node` is a valid node of this topology.
    fn contains(&self, node: NodeId) -> bool {
        node.index() < self.num_nodes()
    }

    /// All unidirectional links as `(from, direction, to)` triples, in
    /// node order then canonical direction order.
    fn links(&self) -> Vec<(NodeId, Direction, NodeId)> {
        let mut out = Vec::new();
        for v in self.node_ids() {
            for d in self.directions(v) {
                if let Some(u) = self.neighbor(v, d) {
                    out.push((v, d, u));
                }
            }
        }
        out
    }

    /// Number of unidirectional links in the topology.
    fn num_links(&self) -> usize {
        self.links().len()
    }

    /// Iterator over all node identifiers (`0..num_nodes`).
    fn node_ids(&self) -> NodeIds {
        NodeIds {
            next: 0,
            end: self.num_nodes(),
        }
    }

    /// Builds the undirected adjacency [`Graph`] of this topology, used
    /// for BFS-based exact metrics.
    ///
    /// Each node's edges go straight into the CSR arrays in the order of
    /// its own [`directions`](Self::directions), so the graph's
    /// adjacency lists equal [`neighbors`](Self::neighbors) without
    /// collecting them.
    fn graph(&self) -> Graph {
        Graph::from_neighbors(self.num_nodes(), |v| {
            let node = NodeId::new(v);
            self.directions(node)
                .into_iter()
                .filter_map(move |d| self.neighbor(node, d))
                .map(NodeId::index)
        })
    }
}

/// Iterator over the node identifiers of a topology.
///
/// Created by [`Topology::node_ids`].
#[derive(Clone, Debug)]
pub struct NodeIds {
    next: usize,
    end: usize,
}

impl Iterator for NodeIds {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next < self.end {
            let id = NodeId::new(self.next);
            self.next += 1;
            Some(id)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.end - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NodeIds {}

/// Checks the structural invariants every [`Topology`] must uphold.
///
/// Intended for use in tests of new topology implementations; panics with
/// a descriptive message on the first violation.
///
/// # Panics
///
/// Panics if link symmetry, direction/port consistency, or connectivity
/// is violated.
///
/// # Examples
///
/// ```
/// use noc_topology::{check_topology_invariants, Spidergon};
///
/// check_topology_invariants(&Spidergon::new(12)?);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
pub fn check_topology_invariants<T: Topology + ?Sized>(topo: &T) {
    let n = topo.num_nodes();
    assert!(n > 0, "topology must have at least one node");
    let graph = topo.graph();
    for v in topo.node_ids() {
        let dirs = topo.directions(v);
        // No duplicate directions, no Local in the link set.
        for (i, &d) in dirs.iter().enumerate() {
            assert_ne!(d, Direction::Local, "{v}: Local must not be a link port");
            assert!(!dirs[i + 1..].contains(&d), "{v}: duplicate direction {d}");
            let u = topo
                .neighbor(v, d)
                .unwrap_or_else(|| panic!("{v}: listed direction {d} has no neighbor"));
            assert!(topo.contains(u), "{v} -> {u} out of range");
            let back = d.opposite().expect("link direction has an opposite");
            assert_eq!(
                topo.neighbor(u, back),
                Some(v),
                "link {v} -[{d}]-> {u} is not symmetric"
            );
        }
        // The graph lists the neighbors in the same order.
        let neighbors: Vec<usize> = topo.neighbors(v).into_iter().map(NodeId::index).collect();
        assert_eq!(
            graph.neighbors(v.index()),
            neighbors,
            "{v}: graph adjacency differs from neighbors()"
        );
        // Directions not listed must have no neighbor.
        for d in Direction::ALL {
            if d != Direction::Local && !dirs.contains(&d) {
                assert_eq!(
                    topo.neighbor(v, d),
                    None,
                    "{v}: unlisted direction {d} has a neighbor"
                );
            }
        }
    }
    assert!(graph.is_connected(), "topology must be connected");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_kind_display_is_stable() {
        assert_eq!(TopologyKind::Ring.to_string(), "ring");
        assert_eq!(TopologyKind::Spidergon.to_string(), "spidergon");
        assert_eq!(TopologyKind::Mesh.to_string(), "mesh");
        assert_eq!(TopologyKind::IrregularMesh.to_string(), "irregular-mesh");
    }

    #[test]
    fn node_ids_iterator_is_exact_size() {
        let it = NodeIds { next: 0, end: 5 };
        assert_eq!(it.len(), 5);
        let ids: Vec<_> = it.collect();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], NodeId::new(0));
        assert_eq!(ids[4], NodeId::new(4));
    }

    #[test]
    fn node_ids_size_hint_shrinks() {
        let mut it = NodeIds { next: 0, end: 3 };
        assert_eq!(it.size_hint(), (3, Some(3)));
        it.next();
        assert_eq!(it.size_hint(), (2, Some(2)));
    }
}
