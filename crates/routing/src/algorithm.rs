//! The [`RoutingAlgorithm`] trait: deterministic, flit-level next-hop
//! routing as used by the paper's wormhole routers.

use core::fmt;
use noc_topology::{Direction, NodeId};

/// A deterministic routing algorithm for a fixed topology instance.
///
/// The head flit of a packet consults [`next_hop`] at every router; the
/// remaining flits of the packet follow the wormhole path configured by
/// the head. [`next_hop`] returns [`Direction::Local`] exactly when the
/// packet has reached its destination.
///
/// Virtual-channel selection for deadlock avoidance is part of the
/// algorithm ([`vc_for_hop`]): the dateline scheme used on ring-like
/// topologies must know which hop crosses the wrap-around link.
///
/// Implementations must be *route-consistent*: repeatedly following
/// `next_hop` from any node must reach `dest` in finitely many hops
/// (checked by [`crate::validate::validate_all_routes`]).
///
/// [`next_hop`]: RoutingAlgorithm::next_hop
/// [`vc_for_hop`]: RoutingAlgorithm::vc_for_hop
pub trait RoutingAlgorithm: fmt::Debug {
    /// Direction of the output port a head flit must take at `current`
    /// towards `dest`; [`Direction::Local`] if `current == dest`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range for the algorithm's
    /// topology.
    fn next_hop(&self, current: NodeId, dest: NodeId) -> Direction;

    /// Number of virtual channels per physical link this algorithm
    /// needs for deadlock freedom (1 for dimension-order mesh routing,
    /// 2 for the dateline scheme on ring-like topologies).
    fn num_vcs_required(&self) -> usize {
        1
    }

    /// Virtual channel a packet should use on the link it is about to
    /// take, given the router it is leaving, the packet's destination,
    /// the chosen direction, and the VC it used on its previous hop (0
    /// at injection).
    ///
    /// The default keeps the current VC. The ring/Spidergon dateline
    /// scheme switches to VC 1 when the hop crosses the wrap-around
    /// edge of a ring direction; the torus scheme selects the VC from
    /// the position of the destination relative to the wrap.
    fn vc_for_hop(
        &self,
        current: NodeId,
        dest: NodeId,
        dir: Direction,
        current_vc: usize,
    ) -> usize {
        let _ = (current, dest, dir);
        current_vc
    }

    /// All output directions a head flit at `current` may legally take
    /// towards `dest`, in preference order.
    ///
    /// Deterministic algorithms return exactly `[next_hop(current,
    /// dest)]` (the default). **Adaptive** algorithms return several
    /// candidates; the router then picks the first whose output queue
    /// can accept the flit, adapting to local congestion. The first
    /// candidate must equal [`next_hop`](RoutingAlgorithm::next_hop)
    /// so that deterministic walks of an adaptive algorithm remain
    /// meaningful, and every candidate must make progress (terminating
    /// routes whichever candidates are chosen).
    ///
    /// Returns `[Direction::Local]` when `current == dest`.
    fn candidates(&self, current: NodeId, dest: NodeId) -> Vec<Direction> {
        vec![self.next_hop(current, dest)]
    }

    /// Appends the same candidates as
    /// [`candidates`](RoutingAlgorithm::candidates) to `out` without
    /// allocating — the form the simulator's switch-allocation hot path
    /// calls with a reused scratch buffer (head flits blocked at a full
    /// output queue re-route every cycle).
    ///
    /// The default appends `next_hop(current, dest)`, matching the
    /// default `candidates`. An algorithm overriding `candidates` must
    /// override this method to stay consistent. Where it appends exactly
    /// one direction for every pair, [`crate::CompiledRoutes`] flattens
    /// the algorithm into a table.
    fn candidates_into(&self, current: NodeId, dest: NodeId, out: &mut Vec<Direction>) {
        out.push(self.next_hop(current, dest));
    }

    /// Short human-readable name, e.g. `"across-first"`.
    fn label(&self) -> String;
}

/// A full route from `src` to `dst` as produced by repeatedly applying a
/// routing algorithm, including both endpoints.
///
/// Produced by [`crate::validate::walk_route`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    nodes: Vec<NodeId>,
    directions: Vec<Direction>,
    vcs: Vec<usize>,
}

impl Route {
    /// Creates a route from its hop lists.
    ///
    /// # Panics
    ///
    /// Panics unless `nodes.len() == directions.len() + 1 == vcs.len() + 1`
    /// and `nodes` is nonempty.
    pub fn new(nodes: Vec<NodeId>, directions: Vec<Direction>, vcs: Vec<usize>) -> Self {
        assert!(!nodes.is_empty(), "route must contain at least one node");
        assert_eq!(nodes.len(), directions.len() + 1, "hop count mismatch");
        assert_eq!(directions.len(), vcs.len(), "vc count mismatch");
        Route {
            nodes,
            directions,
            vcs,
        }
    }

    /// Nodes visited, source first, destination last.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Output direction taken at each intermediate node.
    pub fn directions(&self) -> &[Direction] {
        &self.directions
    }

    /// Virtual channel used on each hop.
    pub fn vcs(&self) -> &[usize] {
        &self.vcs
    }

    /// Number of hops (links traversed).
    pub fn len(&self) -> usize {
        self.directions.len()
    }

    /// Returns `true` for the zero-hop route (`src == dst`).
    pub fn is_empty(&self) -> bool {
        self.directions.is_empty()
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// Destination node.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().expect("route is nonempty")
    }

    /// Iterator over `(from, direction, vc, to)` hop tuples.
    pub fn hops(&self) -> impl Iterator<Item = (NodeId, Direction, usize, NodeId)> + '_ {
        self.directions
            .iter()
            .zip(&self.vcs)
            .enumerate()
            .map(|(i, (&d, &vc))| (self.nodes[i], d, vc, self.nodes[i + 1]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_route() -> Route {
        Route::new(
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)],
            vec![Direction::Clockwise, Direction::Clockwise],
            vec![0, 1],
        )
    }

    #[test]
    fn route_accessors() {
        let r = sample_route();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.source(), NodeId::new(0));
        assert_eq!(r.destination(), NodeId::new(2));
        let hops: Vec<_> = r.hops().collect();
        assert_eq!(
            hops[1],
            (NodeId::new(1), Direction::Clockwise, 1, NodeId::new(2))
        );
    }

    #[test]
    fn zero_hop_route() {
        let r = Route::new(vec![NodeId::new(3)], vec![], vec![]);
        assert!(r.is_empty());
        assert_eq!(r.source(), r.destination());
    }

    #[test]
    #[should_panic(expected = "hop count mismatch")]
    fn mismatched_lengths_panic() {
        let _ = Route::new(vec![NodeId::new(0)], vec![Direction::Clockwise], vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_route_panics() {
        let _ = Route::new(vec![], vec![], vec![]);
    }
}
