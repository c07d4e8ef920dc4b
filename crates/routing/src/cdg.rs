//! Channel dependency graph (CDG) analysis for wormhole deadlock
//! freedom.
//!
//! In wormhole switching a packet holds its allocated channels while
//! waiting for the next one, so a cycle in the *channel dependency
//! graph* — channel `c1` depends on `c2` if some route uses `c1` and
//! then immediately `c2` — permits deadlock (Dally & Seitz). The paper
//! motivates the pair of output buffers (virtual channels) on Ring and
//! Spidergon links precisely as a deadlock-avoidance mechanism; this
//! module proves the property for the concrete routing algorithms:
//!
//! * ring shortest-path with the dateline scheme (2 VCs): acyclic;
//! * the same ring routing collapsed to one VC: **cyclic** (the
//!   avoidance is necessary, not decorative);
//! * Spidergon Across-First with dateline (2 VCs): acyclic;
//! * mesh XY with a single VC: acyclic.

use crate::validate::walk_route;
use crate::RoutingAlgorithm;
use noc_topology::{Direction, NodeId, Topology};
use std::collections::HashMap;

/// A unidirectional virtual channel: the output queue of `node` towards
/// direction `direction` on virtual channel `vc`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Channel {
    /// Router owning the output queue.
    pub node: NodeId,
    /// Link direction of the queue.
    pub direction: Direction,
    /// Virtual channel index on that link.
    pub vc: usize,
}

impl core::fmt::Display for Channel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}:{}#{}", self.node, self.direction, self.vc)
    }
}

/// Result of building and checking the channel dependency graph of a
/// routing algorithm over a topology.
///
/// # Examples
///
/// ```
/// use noc_routing::{cdg::CdgAnalysis, MeshXY};
/// use noc_topology::RectMesh;
///
/// let mesh = RectMesh::new(4, 4)?;
/// let analysis = CdgAnalysis::analyze(&MeshXY::new(&mesh), &mesh);
/// assert!(analysis.is_deadlock_free());
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, Debug)]
pub struct CdgAnalysis {
    num_channels: usize,
    num_dependencies: usize,
    cycle: Option<Vec<Channel>>,
}

impl CdgAnalysis {
    /// Builds the CDG by walking every ordered node pair through `algo`
    /// and checks it for cycles.
    ///
    /// # Panics
    ///
    /// Panics if any route fails to walk (see
    /// [`crate::validate::walk_route`]); validate routes first for a
    /// graceful error.
    pub fn analyze<A, T>(algo: &A, topo: &T) -> Self
    where
        A: RoutingAlgorithm + ?Sized,
        T: Topology + ?Sized,
    {
        Self::analyze_inner(algo, topo, false)
    }

    /// Like [`analyze`](Self::analyze) but collapsing all virtual
    /// channels to a single one, modelling a router without the paper's
    /// pair of output buffers. Used to demonstrate that ring-like
    /// topologies *need* the second VC.
    pub fn analyze_single_vc<A, T>(algo: &A, topo: &T) -> Self
    where
        A: RoutingAlgorithm + ?Sized,
        T: Topology + ?Sized,
    {
        Self::analyze_inner(algo, topo, true)
    }

    /// Builds the CDG of an **adaptive** algorithm: for every
    /// (node, destination) pair the dependency edges between *all*
    /// candidate output channels and all candidate channels at the
    /// next hop are added. This over-approximates the set of channel
    /// pairs any adaptive execution can hold simultaneously, so an
    /// acyclic result proves deadlock freedom for every adaptive
    /// resolution.
    ///
    /// Virtual channels are taken from
    /// [`RoutingAlgorithm::vc_for_hop`] with the incoming VC of each
    /// candidate step (adaptive algorithms in this crate use a single
    /// VC, where this is exact).
    ///
    /// # Panics
    ///
    /// Panics if a candidate direction has no link at its node.
    pub fn analyze_candidates<A, T>(algo: &A, topo: &T) -> Self
    where
        A: RoutingAlgorithm + ?Sized,
        T: Topology + ?Sized,
    {
        let mut graph = Graph::default();
        for dst in topo.node_ids() {
            for current in topo.node_ids() {
                if current == dst {
                    continue;
                }
                for dir in algo.candidates(current, dst) {
                    let vc1 = algo.vc_for_hop(current, dst, dir, 0);
                    let next = topo
                        .neighbor(current, dir)
                        .expect("candidate direction must have a link");
                    let c1 = Channel {
                        node: current,
                        direction: dir,
                        vc: vc1,
                    };
                    graph.intern(c1);
                    if next == dst {
                        continue;
                    }
                    for dir2 in algo.candidates(next, dst) {
                        let c2 = Channel {
                            node: next,
                            direction: dir2,
                            vc: algo.vc_for_hop(next, dst, dir2, vc1),
                        };
                        graph.depend(c1, c2);
                    }
                }
            }
        }
        graph.analysis()
    }

    fn analyze_inner<A, T>(algo: &A, topo: &T, collapse_vcs: bool) -> Self
    where
        A: RoutingAlgorithm + ?Sized,
        T: Topology + ?Sized,
    {
        let mut graph = Graph::default();
        for src in topo.node_ids() {
            for dst in topo.node_ids() {
                if src == dst {
                    continue;
                }
                let route =
                    walk_route(algo, topo, src, dst).expect("routing algorithm must be valid");
                let hops: Vec<Channel> = route
                    .hops()
                    .map(|(from, dir, vc, _to)| Channel {
                        node: from,
                        direction: dir,
                        vc: if collapse_vcs { 0 } else { vc },
                    })
                    .collect();
                for pair in hops.windows(2) {
                    graph.depend(pair[0], pair[1]);
                }
                // Channels with no dependencies still count.
                for &ch in &hops {
                    graph.intern(ch);
                }
            }
        }
        graph.analysis()
    }

    /// Returns `true` if the channel dependency graph is acyclic, i.e.
    /// the routing algorithm is wormhole-deadlock-free on this topology.
    pub fn is_deadlock_free(&self) -> bool {
        self.cycle.is_none()
    }

    /// A witness cycle of channels, if any.
    pub fn cycle(&self) -> Option<&[Channel]> {
        self.cycle.as_deref()
    }

    /// Number of distinct channels used by any route.
    pub fn num_channels(&self) -> usize {
        self.num_channels
    }

    /// Number of dependency edges between channels.
    pub fn num_dependencies(&self) -> usize {
        self.num_dependencies
    }
}

/// A channel dependency graph under construction: channels numbered in
/// first-seen order, each with its distinct successors in insertion
/// order.
#[derive(Default)]
struct Graph {
    index: HashMap<Channel, usize>,
    channels: Vec<Channel>,
    edges: Vec<Vec<usize>>,
}

impl Graph {
    fn intern(&mut self, ch: Channel) -> usize {
        *self.index.entry(ch).or_insert_with(|| {
            self.channels.push(ch);
            self.edges.push(Vec::new());
            self.channels.len() - 1
        })
    }

    /// Records that channel `a` is held while `b` is requested.
    fn depend(&mut self, a: Channel, b: Channel) {
        let (a, b) = (self.intern(a), self.intern(b));
        if !self.edges[a].contains(&b) {
            self.edges[a].push(b);
        }
    }

    fn analysis(self) -> CdgAnalysis {
        let cycle = find_cycle(&self.edges);
        CdgAnalysis {
            num_channels: self.channels.len(),
            num_dependencies: self.edges.iter().map(Vec::len).sum(),
            cycle: cycle.map(|ids| ids.into_iter().map(|i| self.channels[i]).collect()),
        }
    }
}

/// Iterative DFS cycle detection over a directed graph given as
/// adjacency lists: returns the nodes of the first cycle found, in edge
/// order (each node has an edge to the next, the last to the first), or
/// `None` if the graph is acyclic. Starts are tried in ascending node
/// order and edges in list order, so the witness is deterministic.
///
/// # Examples
///
/// ```
/// use noc_routing::cdg::find_cycle;
///
/// // 0 -> 1 -> 2 -> 1: the cycle is 1 -> 2 -> 1.
/// assert_eq!(find_cycle(&[vec![1], vec![2], vec![1]]), Some(vec![2, 1]));
/// assert_eq!(find_cycle(&[vec![1, 2], vec![2], vec![]]), None);
/// ```
pub fn find_cycle(edges: &[Vec<usize>]) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let n = edges.len();
    let mut color = vec![Color::White; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        // Stack of (node, next edge index).
        let mut stack = vec![(start, 0usize)];
        color[start] = Color::Gray;
        while let Some(&mut (v, ref mut ei)) = stack.last_mut() {
            if *ei < edges[v].len() {
                let u = edges[v][*ei];
                *ei += 1;
                match color[u] {
                    Color::White => {
                        color[u] = Color::Gray;
                        parent[u] = v;
                        stack.push((u, 0));
                    }
                    Color::Gray => {
                        // Found a cycle: unwind from v back to u.
                        let mut cycle = vec![u];
                        let mut at = v;
                        while at != u {
                            cycle.push(at);
                            at = parent[at];
                        }
                        cycle.reverse();
                        return Some(cycle);
                    }
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MeshXY, RingShortestPath, SpidergonAcrossFirst, TableRouting};
    use noc_topology::{IrregularMesh, RectMesh, Ring, Spidergon};

    #[test]
    fn ring_with_dateline_is_deadlock_free() {
        for n in [4usize, 5, 8, 9, 16] {
            let ring = Ring::new(n).unwrap();
            let analysis = CdgAnalysis::analyze(&RingShortestPath::new(&ring), &ring);
            assert!(analysis.is_deadlock_free(), "n={n}: {:?}", analysis.cycle());
        }
    }

    #[test]
    fn ring_with_single_vc_has_a_cycle() {
        // The paper's pair of output buffers is necessary: with one VC
        // the clockwise channels form a dependency ring.
        let ring = Ring::new(8).unwrap();
        let analysis = CdgAnalysis::analyze_single_vc(&RingShortestPath::new(&ring), &ring);
        assert!(!analysis.is_deadlock_free());
        let cycle = analysis.cycle().unwrap();
        assert!(cycle.len() >= 3);
        // The witness cycle stays within one ring direction.
        let dir = cycle[0].direction;
        assert!(cycle.iter().all(|c| c.direction == dir));
    }

    #[test]
    fn spidergon_across_first_with_dateline_is_deadlock_free() {
        for n in (4..=24usize).step_by(2) {
            let sg = Spidergon::new(n).unwrap();
            let analysis = CdgAnalysis::analyze(&SpidergonAcrossFirst::new(&sg), &sg);
            assert!(analysis.is_deadlock_free(), "n={n}: {:?}", analysis.cycle());
        }
    }

    #[test]
    fn spidergon_with_single_vc_has_a_cycle() {
        let sg = Spidergon::new(12).unwrap();
        let analysis = CdgAnalysis::analyze_single_vc(&SpidergonAcrossFirst::new(&sg), &sg);
        assert!(!analysis.is_deadlock_free());
    }

    #[test]
    fn mesh_xy_is_deadlock_free_with_one_vc() {
        for (m, n) in [(2usize, 4usize), (4, 6), (3, 3), (5, 5)] {
            let mesh = RectMesh::new(m, n).unwrap();
            let analysis = CdgAnalysis::analyze(&MeshXY::new(&mesh), &mesh);
            assert!(analysis.is_deadlock_free(), "{m}x{n}");
            // And even collapsed (XY already uses one VC).
            let analysis = CdgAnalysis::analyze_single_vc(&MeshXY::new(&mesh), &mesh);
            assert!(analysis.is_deadlock_free(), "{m}x{n}");
        }
    }

    #[test]
    fn irregular_mesh_xy_is_deadlock_free() {
        for (cols, n) in [(3usize, 7usize), (4, 13), (5, 21)] {
            let mesh = IrregularMesh::new(cols, n).unwrap();
            let analysis = CdgAnalysis::analyze(&MeshXY::new_irregular(&mesh), &mesh);
            assert!(analysis.is_deadlock_free(), "cols={cols} n={n}");
        }
    }

    #[test]
    fn table_routing_on_mesh_is_checkable() {
        // Table routing on a mesh picks lowest-direction-index minimal
        // hops; the analysis runs and reports counts either way.
        let mesh = RectMesh::new(3, 3).unwrap();
        let analysis = CdgAnalysis::analyze(&TableRouting::from_topology(&mesh), &mesh);
        assert!(analysis.num_channels() > 0);
        assert!(analysis.num_dependencies() > 0);
    }

    #[test]
    fn channel_display_is_informative() {
        let ch = Channel {
            node: NodeId::new(3),
            direction: Direction::Across,
            vc: 1,
        };
        assert_eq!(ch.to_string(), "n3:across#1");
    }

    #[test]
    fn find_cycle_detects_simple_cases() {
        assert!(find_cycle(&[vec![1], vec![2], vec![0]]).is_some());
        // A tail into the cycle is not part of the witness.
        let cycle = find_cycle(&[vec![1], vec![2], vec![0], vec![0]]).unwrap();
        assert_eq!(cycle.len(), 3);
        assert!(find_cycle(&[vec![1], vec![2], vec![]]).is_none());
        assert!(find_cycle(&[vec![0]]).is_some(), "self-loop");
        assert!(find_cycle(&[]).is_none());
    }
}
