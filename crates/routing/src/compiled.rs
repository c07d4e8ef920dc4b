//! Precomputed route tables: the routing function of a
//! `(topology, algorithm)` pair flattened into one dense array.
//!
//! The paper's topologies are low-degree and their deterministic routing
//! schemes are pure functions of `(current, destination)` — so the
//! simulator's switch-allocation hot path does not need to re-derive the
//! next hop for every blocked head flit on every cycle. [`CompiledRoutes`]
//! evaluates [`RoutingAlgorithm::candidates_into`],
//! [`vc_for_hop`](RoutingAlgorithm::vc_for_hop) and the remaining hop
//! count once per node pair at build time and serves lookups from a
//! `[node][dst]`-indexed table afterwards.
//!
//! A table compiles only when the algorithm offers exactly one candidate
//! for every node pair: adaptive schemes pick among several candidates
//! based on runtime congestion, which no static table can capture.
//! [`CompiledRoutes::compile`] also returns `None` for oversized networks
//! or non-terminating routing functions; in every `None` case the caller
//! simply keeps the dynamic algorithm.

use crate::RoutingAlgorithm;
use noc_topology::{Direction, NodeId, Topology};

/// Largest virtual-channel count a compiled table can carry per hop
/// (the ring/Spidergon dateline schemes need 2, torus dateline 2).
pub const MAX_COMPILED_VCS: usize = 4;

/// Node-count ceiling for compilation: beyond this the `N²` table
/// (and the `O(N²)` build walk) costs more than it saves.
const MAX_COMPILED_NODES: usize = 4096;

/// One `(node, dst)` entry of the table: the output direction, the
/// remaining hop count to the destination, and the outgoing virtual
/// channel for every possible incoming VC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CompiledHop {
    /// Direction of the output port ([`Direction::Local`] at the
    /// destination itself).
    pub dir: Direction,
    /// Hops remaining to the destination from this node.
    pub remaining_hops: u16,
    /// Outgoing VC indexed by the VC the packet arrived on.
    pub out_vc: [u8; MAX_COMPILED_VCS],
}

/// A dense `[node][dst] -> (direction, remaining hops, VC map)` route
/// table compiled from a [`RoutingAlgorithm`] with one candidate per
/// node pair.
///
/// # Examples
///
/// ```
/// use noc_routing::{CompiledRoutes, RingShortestPath, RoutingAlgorithm};
/// use noc_topology::{NodeId, Ring};
///
/// let ring = Ring::new(8)?;
/// let algo = RingShortestPath::new(&ring);
/// let table = CompiledRoutes::compile(&algo, &ring).expect("deterministic");
/// let hop = table.hop(NodeId::new(0), NodeId::new(3));
/// assert_eq!(hop.dir, algo.next_hop(NodeId::new(0), NodeId::new(3)));
/// assert_eq!(hop.remaining_hops, 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompiledRoutes {
    num_nodes: usize,
    vcs: usize,
    /// Row-major `[node][dst]`.
    table: Vec<CompiledHop>,
}

impl CompiledRoutes {
    /// Compiles `algo` over all node pairs of `topo`.
    ///
    /// Returns `None` — the caller keeps the dynamic algorithm — when
    /// [`RoutingAlgorithm::candidates_into`] offers more or fewer than
    /// one direction for some node pair, the algorithm needs more than
    /// [`MAX_COMPILED_VCS`] virtual channels, the node count exceeds the
    /// compilation ceiling, the algorithm routes onto a port the
    /// topology does not have, or a route fails to terminate within a
    /// `4·N + 4` hop budget.
    pub fn compile<A, T>(algo: &A, topo: &T) -> Option<CompiledRoutes>
    where
        A: RoutingAlgorithm + ?Sized,
        T: Topology + ?Sized,
    {
        let num_nodes = topo.num_nodes();
        let vcs = algo.num_vcs_required().max(1);
        if vcs > MAX_COMPILED_VCS || num_nodes > MAX_COMPILED_NODES {
            return None;
        }
        let mut table = Vec::with_capacity(num_nodes * num_nodes);
        let mut candidates = Vec::new();
        for v in 0..num_nodes {
            for dst in 0..num_nodes {
                let here = NodeId::new(v);
                let there = NodeId::new(dst);
                candidates.clear();
                algo.candidates_into(here, there, &mut candidates);
                let &[dir] = candidates.as_slice() else {
                    return None;
                };
                if (dir == Direction::Local) != (v == dst) {
                    return None;
                }
                if dir != Direction::Local && topo.neighbor(here, dir).is_none() {
                    return None;
                }
                let mut out_vc = [0u8; MAX_COMPILED_VCS];
                for (in_vc, slot) in out_vc.iter_mut().enumerate().take(vcs) {
                    let chosen = algo.vc_for_hop(here, there, dir, in_vc);
                    if chosen >= vcs {
                        return None;
                    }
                    *slot = chosen as u8;
                }
                table.push(CompiledHop {
                    dir,
                    remaining_hops: 0,
                    out_vc,
                });
            }
        }
        let mut compiled = CompiledRoutes {
            num_nodes,
            vcs,
            table,
        };
        compiled.fill_remaining_hops(topo)?;
        Some(compiled)
    }

    /// Computes `remaining_hops` for every entry by walking the compiled
    /// directions. Deterministic routes have the suffix property (the
    /// route from an intermediate node to `dst` is the tail of any route
    /// passing through it), so each walk memoizes every node it visits.
    /// Returns `None` if a walk exceeds the `4·N + 4` hop budget or
    /// overflows `u16` (non-terminating or absurd routing).
    fn fill_remaining_hops<T: Topology + ?Sized>(&mut self, topo: &T) -> Option<()> {
        let n = self.num_nodes;
        let budget = 4 * n + 4;
        const UNKNOWN: u16 = u16::MAX;
        for entry in self.table.iter_mut() {
            entry.remaining_hops = UNKNOWN;
        }
        let mut path = Vec::with_capacity(budget);
        for dst in 0..n {
            self.table[dst * n + dst].remaining_hops = 0;
            for start in 0..n {
                if self.table[start * n + dst].remaining_hops != UNKNOWN {
                    continue;
                }
                path.clear();
                let mut at = start;
                while self.table[at * n + dst].remaining_hops == UNKNOWN {
                    if path.len() >= budget {
                        return None;
                    }
                    path.push(at);
                    let dir = self.table[at * n + dst].dir;
                    at = topo.neighbor(NodeId::new(at), dir)?.index();
                }
                let base = self.table[at * n + dst].remaining_hops as usize;
                for (i, &v) in path.iter().rev().enumerate() {
                    let hops = base + i + 1;
                    if hops > (UNKNOWN - 1) as usize {
                        return None;
                    }
                    self.table[v * n + dst].remaining_hops = hops as u16;
                }
            }
        }
        Some(())
    }

    /// Number of nodes the table covers.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Virtual channels per link the compiled algorithm requires.
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// The table entry for a head flit at `current` heading to `dest`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    pub fn hop(&self, current: NodeId, dest: NodeId) -> CompiledHop {
        self.table[current.index() * self.num_nodes + dest.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        MeshXY, RingShortestPath, SpidergonAcrossFirst, SpidergonAcrossLast, TableRouting, TorusXY,
        WestFirst,
    };
    use noc_topology::{IrregularMesh, RectMesh, Ring, Spidergon, Torus};

    /// Compiled lookups must agree with the dynamic algorithm on every
    /// `(node, dst, in_vc)` triple — the direction with both `next_hop`
    /// and the single candidate — and `remaining_hops` must equal the
    /// walked route length.
    fn assert_matches_dynamic<A, T>(algo: &A, topo: &T)
    where
        A: RoutingAlgorithm,
        T: Topology,
    {
        let compiled = CompiledRoutes::compile(algo, topo)
            .unwrap_or_else(|| panic!("{} must compile on {}", algo.label(), topo.label()));
        let vcs = algo.num_vcs_required().max(1);
        assert_eq!(compiled.vcs(), vcs);
        assert_eq!(compiled.num_nodes(), topo.num_nodes());
        let mut candidates = Vec::new();
        for v in topo.node_ids() {
            for dst in topo.node_ids() {
                let hop = compiled.hop(v, dst);
                assert_eq!(hop.dir, algo.next_hop(v, dst), "{v}->{dst}");
                candidates.clear();
                algo.candidates_into(v, dst, &mut candidates);
                assert_eq!(candidates, [hop.dir], "{v}->{dst} candidates");
                for in_vc in 0..vcs {
                    assert_eq!(
                        hop.out_vc[in_vc] as usize,
                        algo.vc_for_hop(v, dst, hop.dir, in_vc),
                        "{v}->{dst} in_vc {in_vc}"
                    );
                }
                let walked = crate::validate::walk_route(algo, topo, v, dst)
                    .expect("route terminates")
                    .len();
                assert_eq!(hop.remaining_hops as usize, walked, "{v}->{dst} hops");
            }
        }
    }

    #[test]
    fn ring_compiles_and_matches() {
        let ring = Ring::new(16).unwrap();
        assert_matches_dynamic(&RingShortestPath::new(&ring), &ring);
    }

    #[test]
    fn spidergon_compiles_and_matches() {
        let sg = Spidergon::new(16).unwrap();
        assert_matches_dynamic(&SpidergonAcrossFirst::new(&sg), &sg);
    }

    #[test]
    fn spidergon_across_last_compiles_and_matches() {
        let sg = Spidergon::new(16).unwrap();
        assert_matches_dynamic(&SpidergonAcrossLast::new(&sg), &sg);
    }

    #[test]
    fn mesh_compiles_and_matches() {
        let mesh = RectMesh::new(4, 4).unwrap();
        assert_matches_dynamic(&MeshXY::new(&mesh), &mesh);
    }

    #[test]
    fn realistic_mesh_compiles_and_matches() {
        // 14 nodes on a 4-wide grid: the last row holds two routers.
        let mesh = IrregularMesh::realistic(14).unwrap();
        assert_matches_dynamic(&MeshXY::new_irregular(&mesh), &mesh);
    }

    #[test]
    fn torus_compiles_and_matches() {
        let torus = Torus::new(4, 4).unwrap();
        assert_matches_dynamic(&TorusXY::new(&torus), &torus);
    }

    #[test]
    fn table_routing_compiles_and_matches() {
        let sg = Spidergon::new(12).unwrap();
        let algo = TableRouting::from_topology(&sg);
        assert_matches_dynamic(&algo, &sg);
    }

    #[test]
    fn adaptive_does_not_compile() {
        let mesh = RectMesh::new(4, 4).unwrap();
        let algo = WestFirst::new(&mesh);
        assert!(CompiledRoutes::compile(&algo, &mesh).is_none());
    }

    #[test]
    fn single_node_topology_compiles() {
        // Degenerate: every route is zero hops.
        let ring = Ring::new(4).unwrap();
        let algo = RingShortestPath::new(&ring);
        let compiled = CompiledRoutes::compile(&algo, &ring).unwrap();
        for v in ring.node_ids() {
            let hop = compiled.hop(v, v);
            assert_eq!(hop.dir, Direction::Local);
            assert_eq!(hop.remaining_hops, 0);
        }
    }
}
