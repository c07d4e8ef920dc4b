//! Exact, BFS-based topology metrics: network diameter, average network
//! distance, link counts.
//!
//! These are the quantities plotted in the paper's Figures 2 and 3. The
//! closed-form counterparts live in [`crate::analytical`]; everything
//! here is computed from the actual graph so it also works for irregular
//! topologies with no closed form.
//!
//! Every distance comes from the graph's one bit-parallel multi-source
//! BFS (see [`crate::graph`]), which takes the sources 64 at a time.
//! [`diameter`], [`average_distance`], [`average_distance_paper`] and
//! [`TopologyMetrics::compute`] reduce its levels to a maximum and a sum
//! without storing any distances.

use crate::graph;
use crate::Topology;

/// Summary of the exact distance structure of a topology.
///
/// # Examples
///
/// ```
/// use noc_topology::{metrics::TopologyMetrics, Spidergon};
///
/// let m = TopologyMetrics::compute(&Spidergon::new(16)?);
/// assert_eq!(m.diameter, 4); // ceil(16 / 4)
/// assert_eq!(m.num_links, 48); // 3N
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct TopologyMetrics {
    /// Human-readable topology label.
    pub label: String,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Number of unidirectional links.
    pub num_links: usize,
    /// Network diameter `ND`: maximum shortest-path length over all
    /// pairs.
    pub diameter: u32,
    /// Average network distance over ordered pairs with `src != dst`.
    pub mean_distance: f64,
    /// Average network distance with the paper's normalization
    /// (distance sum divided by `N^2`, i.e. per-source sum over `N`).
    pub mean_distance_paper: f64,
    /// Minimum node degree.
    pub min_degree: usize,
    /// Maximum node degree.
    pub max_degree: usize,
}

impl TopologyMetrics {
    /// Computes exact metrics for `topo` from one matrix-free sweep of
    /// its graph: the diameter and distance sum, never the `n x n`
    /// distances.
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected (all [`Topology`]
    /// implementations in this crate are connected by construction) or
    /// empty.
    pub fn compute<T: Topology + ?Sized>(topo: &T) -> Self {
        let (diameter, total) = topo.graph().distance_totals();
        let n = topo.num_nodes();
        let degrees: Vec<usize> = topo.node_ids().map(|v| topo.degree(v)).collect();
        TopologyMetrics {
            label: topo.label(),
            num_nodes: n,
            num_links: topo.num_links(),
            diameter: diameter.expect("nonempty graph"),
            mean_distance: graph::mean_distance(total, n),
            mean_distance_paper: graph::mean_distance_paper(total, n),
            min_degree: degrees.iter().copied().min().unwrap_or(0),
            max_degree: degrees.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Network diameter `ND` of a topology (maximum shortest path length).
///
/// # Examples
///
/// ```
/// use noc_topology::{metrics, Ring};
///
/// assert_eq!(metrics::diameter(&Ring::new(8)?), 4);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
pub fn diameter<T: Topology + ?Sized>(topo: &T) -> u32 {
    topo.graph().distance_totals().0.expect("nonempty graph")
}

/// Average network distance `E[D]` over ordered pairs (`src != dst`).
pub fn average_distance<T: Topology + ?Sized>(topo: &T) -> f64 {
    graph::mean_distance(topo.graph().distance_totals().1, topo.num_nodes())
}

/// Average network distance with the paper's `sum / N` normalization.
pub fn average_distance_paper<T: Topology + ?Sized>(topo: &T) -> f64 {
    graph::mean_distance_paper(topo.graph().distance_totals().1, topo.num_nodes())
}

/// Number of unidirectional links of a topology.
pub fn link_count<T: Topology + ?Sized>(topo: &T) -> usize {
    topo.num_links()
}

/// Expected per-link channel load under uniform traffic, per unit of
/// aggregate injection: `E[D] * N / num_links` (each of the `N`
/// injected flits occupies `E[D]` link-cycles spread over the links).
///
/// This single number explains the saturation ordering of the paper's
/// Figure 10: the topology with the highest channel load saturates
/// first. Ring: `(N/4)·N / 2N = N/8` (grows linearly). Spidergon:
/// `~(N/8)·N / 3N = N/24` (linear, 3x lower). Mesh: `~(2·sqrt(N)/3)·N /
/// ~4N = sqrt(N)/6` (sub-linear). The mean loads cross between N = 16
/// and N = 24 — which is why the mesh overtakes the Spidergon only
/// "with many nodes", exactly the paper's observation (at equal mean
/// load the mesh still saturates later, because XY spreads traffic
/// more evenly than Across-First, which concentrates it on the across
/// links).
///
/// # Examples
///
/// ```
/// use noc_topology::{metrics, Ring, Spidergon};
///
/// let ring = metrics::uniform_channel_load(&Ring::new(16)?);
/// let spidergon = metrics::uniform_channel_load(&Spidergon::new(16)?);
/// assert!(spidergon < ring / 2.0);
/// # Ok::<(), noc_topology::TopologyError>(())
/// ```
pub fn uniform_channel_load<T: Topology + ?Sized>(topo: &T) -> f64 {
    let n = topo.num_nodes();
    if n == 0 || topo.num_links() == 0 {
        return 0.0;
    }
    average_distance(topo) * n as f64 / topo.num_links() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IrregularMesh, RectMesh, Ring, Spidergon};

    #[test]
    fn ring_metrics() {
        let m = TopologyMetrics::compute(&Ring::new(12).unwrap());
        assert_eq!(m.diameter, 6);
        assert_eq!(m.num_links, 24);
        assert_eq!(m.min_degree, 2);
        assert_eq!(m.max_degree, 2);
        // E[D] paper convention ~ N/4.
        assert!((m.mean_distance_paper - 3.0).abs() < 1e-12);
    }

    #[test]
    fn spidergon_beats_ring_on_average_distance() {
        for n in (8..=32usize).step_by(2) {
            let ring = average_distance(&Ring::new(n).unwrap());
            let sg = average_distance(&Spidergon::new(n).unwrap());
            assert!(sg < ring, "n={n}: spidergon {sg} !< ring {ring}");
        }
    }

    #[test]
    fn spidergon_diameter_below_real_mesh_up_to_40() {
        // Paper: Spidergon has lower ND than real meshes at least up to
        // 40-45 nodes (here tested against the irregular real mesh).
        for n in (8..=40usize).step_by(2) {
            let sg = diameter(&Spidergon::new(n).unwrap());
            let real = diameter(&IrregularMesh::realistic(n).unwrap());
            assert!(sg <= real, "n={n}: spidergon ND {sg} > real mesh ND {real}");
        }
    }

    #[test]
    fn ideal_mesh_metrics() {
        let m = TopologyMetrics::compute(&RectMesh::new(4, 4).unwrap());
        assert_eq!(m.diameter, 6);
        assert_eq!(m.min_degree, 2);
        assert_eq!(m.max_degree, 4);
        // Exact mean over ordered pairs: 2 * (m^2 - 1) / (3m) scaled.
        let exact = 2.0 * (16.0 - 1.0) / (3.0 * 4.0) * (16.0 / 15.0);
        assert!((m.mean_distance - exact).abs() < 1e-9);
    }

    #[test]
    fn compute_matches_the_distance_matrix() {
        // One block of sources, and sizes past one and two blocks.
        let topos: [Box<dyn Topology>; 4] = [
            Box::new(Spidergon::new(10).unwrap()),
            Box::new(Ring::new(65).unwrap()),
            Box::new(RectMesh::balanced(130).unwrap()),
            Box::new(IrregularMesh::realistic(70).unwrap()),
        ];
        for topo in &topos {
            let apd = topo.graph().all_pairs_distances();
            let m = TopologyMetrics::compute(&**topo);
            assert_eq!(m.diameter, apd.diameter(), "{}", m.label);
            assert_eq!(m.mean_distance.to_bits(), apd.mean_distance().to_bits());
            assert_eq!(
                m.mean_distance_paper.to_bits(),
                apd.mean_distance_paper().to_bits()
            );
        }
    }

    #[test]
    fn channel_load_predicts_saturation_ordering() {
        // Ring always has the highest load; the spidergon/mesh
        // crossover sits between N = 16 and N = 24 (paper: mesh wins
        // "only with many nodes").
        for n in [8usize, 16, 24, 32] {
            let ring = uniform_channel_load(&Ring::new(n).unwrap());
            let sg = uniform_channel_load(&Spidergon::new(n).unwrap());
            assert!(ring > sg, "n={n}");
        }
        for n in [24usize, 32, 48] {
            let sg = uniform_channel_load(&Spidergon::new(n).unwrap());
            let mesh = uniform_channel_load(&RectMesh::balanced(n).unwrap());
            assert!(sg > mesh, "n={n}: {sg} !> {mesh}");
        }
        let sg8 = uniform_channel_load(&Spidergon::new(8).unwrap());
        let mesh8 = uniform_channel_load(&RectMesh::balanced(8).unwrap());
        assert!(sg8 < mesh8, "at N=8 the spidergon is the lighter one");
        // Spidergon load grows linearly with N, mesh like sqrt(N):
        let sg_ratio = uniform_channel_load(&Spidergon::new(64).unwrap())
            / uniform_channel_load(&Spidergon::new(16).unwrap());
        let mesh_ratio = uniform_channel_load(&RectMesh::balanced(64).unwrap())
            / uniform_channel_load(&RectMesh::balanced(16).unwrap());
        assert!(sg_ratio > 3.0, "{sg_ratio}");
        assert!(mesh_ratio < 2.5, "{mesh_ratio}");
    }

    #[test]
    fn helper_functions_agree_with_struct() {
        // The helpers reduce over one BFS at a time; the struct reads
        // the full distance matrix.
        let topologies: [Box<dyn Topology>; 4] = [
            Box::new(RectMesh::new(3, 4).unwrap()),
            Box::new(Spidergon::new(10).unwrap()),
            Box::new(Ring::new(7).unwrap()),
            Box::new(IrregularMesh::realistic(11).unwrap()),
        ];
        for topo in &topologies {
            let m = TopologyMetrics::compute(&**topo);
            assert_eq!(diameter(&**topo), m.diameter);
            assert_eq!(average_distance(&**topo), m.mean_distance);
            assert_eq!(average_distance_paper(&**topo), m.mean_distance_paper);
            assert_eq!(link_count(&**topo), m.num_links);
        }
    }
}
