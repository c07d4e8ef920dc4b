//! The paper's mesh families for Figures 2 and 3: *ideal* meshes
//! (`sqrt(N) x sqrt(N)`, only defined at perfect squares) versus *real*
//! meshes (what you actually get for an arbitrary node count).
//!
//! The point of the paper's Figures 2-3 is that real mesh metrics
//! fluctuate unpredictably between the ideal-mesh curve and the ring
//! curve as `N` varies, while Spidergon stays smooth and competitive.
//! Two "real mesh" constructions exist:
//!
//! * [`RectMesh::balanced`]: the most square full rectangle with
//!   exactly `N` nodes — degenerates to a `1 x N` line for prime `N`;
//! * [`crate::IrregularMesh::realistic`]: a `ceil(sqrt(N))`-wide grid
//!   with a partial last row — the irregular-mesh family the paper
//!   highlights as its novelty.

use crate::RectMesh;

/// Returns the ideal `k x k` mesh if `num_nodes` is a perfect square,
/// `None` otherwise.
///
/// # Examples
///
/// ```
/// use noc_topology::real_mesh::ideal_mesh;
/// use noc_topology::Topology;
///
/// assert_eq!(ideal_mesh(16).unwrap().label(), "mesh-4x4");
/// assert!(ideal_mesh(15).is_none());
/// ```
pub fn ideal_mesh(num_nodes: usize) -> Option<RectMesh> {
    let k = (num_nodes as f64).sqrt().round() as usize;
    if k * k == num_nodes && k >= 2 {
        RectMesh::new(k, k).ok()
    } else {
        None
    }
}

/// The interpolated "ideal mesh" curve value used when plotting Figure 2
/// for a node count that is not a perfect square: metrics of the
/// fictitious `sqrt(N) x sqrt(N)` mesh evaluated with real-valued
/// `sqrt(N)`.
///
/// Diameter: `2 (sqrt(N) - 1)`; average distance (paper approximation):
/// `2 sqrt(N) / 3`.
pub fn ideal_mesh_diameter_continuous(num_nodes: usize) -> f64 {
    2.0 * ((num_nodes as f64).sqrt() - 1.0)
}

/// Continuous ideal-mesh average-distance curve, `2 sqrt(N) / 3`.
pub fn ideal_mesh_average_distance_continuous(num_nodes: usize) -> f64 {
    2.0 * (num_nodes as f64).sqrt() / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, IrregularMesh, Topology};

    #[test]
    fn ideal_mesh_only_at_perfect_squares() {
        assert!(ideal_mesh(4).is_some());
        assert!(ideal_mesh(9).is_some());
        assert!(ideal_mesh(36).is_some());
        assert!(ideal_mesh(8).is_none());
        assert!(ideal_mesh(2).is_none());
        // 1x1 is rejected as degenerate.
        assert!(ideal_mesh(1).is_none());
    }

    #[test]
    fn real_meshes_build_requested_node_counts() {
        for n in 4..40usize {
            assert_eq!(RectMesh::balanced(n).unwrap().num_nodes(), n, "n={n}");
            assert_eq!(IrregularMesh::realistic(n).unwrap().num_nodes(), n, "n={n}");
        }
    }

    #[test]
    fn real_mesh_diameter_fluctuates_above_ideal() {
        // For prime N the balanced rectangle is a line whose diameter
        // exceeds even the ring's: the paper's "unpredictable
        // fluctuation".
        let line = RectMesh::balanced(13).unwrap();
        assert_eq!(line.label(), "mesh-1x13");
        assert_eq!(metrics::diameter(&line), 12);
        let irr = IrregularMesh::realistic(13).unwrap();
        assert!(metrics::diameter(&irr) < 12);
    }

    #[test]
    fn continuous_curves_match_exact_at_squares() {
        for k in 2..9usize {
            let n = k * k;
            let exact = metrics::diameter(&ideal_mesh(n).unwrap()) as f64;
            assert!((ideal_mesh_diameter_continuous(n) - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn irregular_grid_tracks_ideal_curve_closely() {
        // The irregular real mesh should stay within a couple of hops of
        // the continuous ideal curve for moderate N.
        for n in 6..=48usize {
            let irr = IrregularMesh::realistic(n).unwrap();
            let d = metrics::diameter(&irr) as f64;
            let ideal = ideal_mesh_diameter_continuous(n);
            assert!(d >= ideal - 1.0, "n={n}: {d} vs ideal {ideal}");
            assert!(d <= ideal + 3.0, "n={n}: {d} vs ideal {ideal}");
        }
    }
}
