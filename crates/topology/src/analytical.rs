//! Closed-form topology metrics from Section 2 of the paper.
//!
//! The paper quotes, for a NoC of `N` nodes:
//!
//! | Topology | `ND` | `E[D]` |
//! |---|---|---|
//! | Ring | `floor(N/2)` | `N/4` |
//! | `m x n` Mesh | `m + n - 2` | `(m + n)/3` (approximation) |
//! | Spidergon | `ceil(N/4)` | `(2x^2 + 2x - 1)/N` for `N = 4x`, `(2x^2 + 4x + 1)/N` for `N = 4x + 2` |
//!
//! **Erratum.** The paper's text swaps the two Spidergon `E[D]`
//! numerators. Checking against exact BFS distances (see tests and
//! `DESIGN.md`): for `N = 8` (`x = 2`) the per-node distance sum is 11,
//! which is `2x^2 + 2x - 1`, not `2x^2 + 4x + 1 = 17`; for `N = 10`
//! (`x = 2`) the sum is 17, which is `2x^2 + 4x + 1`. This module
//! implements the corrected assignment; the property tests prove it
//! exact for every even `N`.
//!
//! All `E[D]` values use the paper's normalization — per-source distance
//! sum divided by `N` — which matches
//! [`crate::graph::DistanceMatrix::mean_distance_paper`] for
//! vertex-symmetric topologies.

/// Ring network diameter: `floor(N/2)`.
///
/// # Examples
///
/// ```
/// assert_eq!(noc_topology::analytical::ring_diameter(12), 6);
/// assert_eq!(noc_topology::analytical::ring_diameter(13), 6);
/// ```
pub fn ring_diameter(n: usize) -> usize {
    n / 2
}

/// Ring average distance, paper convention: exactly `N/4` for even `N`,
/// `(N^2 - 1) / (4N)` for odd `N` (which the paper rounds to `N/4`).
pub fn ring_average_distance(n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n.is_multiple_of(2) {
        n as f64 / 4.0
    } else {
        ((n * n - 1) as f64) / (4.0 * n as f64)
    }
}

/// Number of unidirectional links of a ring: `2N`.
pub fn ring_link_count(n: usize) -> usize {
    2 * n
}

/// `m x n` mesh network diameter: `(m - 1) + (n - 1) = m + n - 2`.
///
/// # Examples
///
/// ```
/// assert_eq!(noc_topology::analytical::mesh_diameter(4, 6), 8);
/// ```
pub fn mesh_diameter(m: usize, n: usize) -> usize {
    m + n - 2
}

/// The paper's mesh average-distance approximation `(m + n)/3`.
pub fn mesh_average_distance_approx(m: usize, n: usize) -> f64 {
    (m + n) as f64 / 3.0
}

/// Exact mesh average distance over ordered pairs (`src != dst`).
///
/// The mean absolute coordinate difference along a dimension of extent
/// `k` (uniform endpoints) is `(k^2 - 1) / (3k)`; the Manhattan mean is
/// the sum over the two dimensions, rescaled from "all ordered pairs" to
/// "ordered pairs with distinct endpoints".
pub fn mesh_average_distance_exact(m: usize, n: usize) -> f64 {
    let total = (m * n) as f64;
    if total < 2.0 {
        return 0.0;
    }
    let ex = ((m * m - 1) as f64) / (3.0 * m as f64);
    let ey = ((n * n - 1) as f64) / (3.0 * n as f64);
    (ex + ey) * total / (total - 1.0)
}

/// Exact mesh average distance with the paper's `sum / N^2`
/// normalization (includes the zero `src == dst` terms).
pub fn mesh_average_distance_paper(m: usize, n: usize) -> f64 {
    let ex = ((m * m - 1) as f64) / (3.0 * m as f64);
    let ey = ((n * n - 1) as f64) / (3.0 * n as f64);
    ex + ey
}

/// Number of unidirectional links of an `m x n` mesh:
/// `2(m-1)n + 2(n-1)m`.
pub fn mesh_link_count(m: usize, n: usize) -> usize {
    2 * (m - 1) * n + 2 * (n - 1) * m
}

/// Spidergon network diameter: `ceil(N/4)`.
///
/// # Examples
///
/// ```
/// assert_eq!(noc_topology::analytical::spidergon_diameter(16), 4);
/// assert_eq!(noc_topology::analytical::spidergon_diameter(18), 5);
/// ```
pub fn spidergon_diameter(n: usize) -> usize {
    n.div_ceil(4)
}

/// Per-node distance sum of a Spidergon with even `N` (exact, corrected
/// from the paper's swapped formulas; see the module docs).
///
/// * `N = 4x`: `2x^2 + 2x - 1`
/// * `N = 4x + 2`: `2x^2 + 4x + 1`
///
/// # Panics
///
/// Panics if `n` is odd or `n < 4`.
pub fn spidergon_distance_sum(n: usize) -> usize {
    assert!(
        n >= 4 && n.is_multiple_of(2),
        "spidergon requires even n >= 4"
    );
    let x = n / 4;
    if n.is_multiple_of(4) {
        2 * x * x + 2 * x - 1
    } else {
        2 * x * x + 4 * x + 1
    }
}

/// Spidergon average distance, paper convention (`sum / N`).
///
/// # Panics
///
/// Panics if `n` is odd or `n < 4`.
pub fn spidergon_average_distance(n: usize) -> f64 {
    spidergon_distance_sum(n) as f64 / n as f64
}

/// Number of unidirectional links of a Spidergon: `3N`.
pub fn spidergon_link_count(n: usize) -> usize {
    3 * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{metrics, RectMesh, Ring, Spidergon, Topology};

    #[test]
    fn ring_formulas_match_bfs() {
        for n in 3..40usize {
            let ring = Ring::new(n).unwrap();
            let apd = ring.graph().all_pairs_distances();
            assert_eq!(apd.diameter() as usize, ring_diameter(n), "n={n}");
            assert!(
                (apd.mean_distance_paper() - ring_average_distance(n)).abs() < 1e-9,
                "n={n}"
            );
            assert_eq!(ring.num_links(), ring_link_count(n));
        }
    }

    #[test]
    fn mesh_formulas_match_bfs() {
        for (m, n) in [(2usize, 4usize), (4, 6), (3, 3), (5, 5), (2, 9), (1, 6)] {
            let mesh = RectMesh::new(m, n).unwrap();
            let apd = mesh.graph().all_pairs_distances();
            assert_eq!(apd.diameter() as usize, mesh_diameter(m, n));
            assert!(
                (apd.mean_distance() - mesh_average_distance_exact(m, n)).abs() < 1e-9,
                "m={m} n={n}"
            );
            assert!(
                (apd.mean_distance_paper() - mesh_average_distance_paper(m, n)).abs() < 1e-9,
                "m={m} n={n}"
            );
            assert_eq!(mesh.num_links(), mesh_link_count(m, n));
        }
    }

    #[test]
    fn mesh_approximation_is_close_for_square_meshes() {
        for k in 2..10usize {
            let approx = mesh_average_distance_approx(k, k);
            let exact = mesh_average_distance_paper(k, k);
            assert!(
                (approx - exact).abs() / exact < 0.35,
                "k={k}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn spidergon_formulas_match_bfs_for_all_even_n() {
        for n in (4..=64usize).step_by(2) {
            let sg = Spidergon::new(n).unwrap();
            let apd = sg.graph().all_pairs_distances();
            assert_eq!(apd.diameter() as usize, spidergon_diameter(n), "n={n}");
            let sum: u32 = apd.row(0).iter().sum();
            assert_eq!(sum as usize, spidergon_distance_sum(n), "n={n}");
            assert!(
                (apd.mean_distance_paper() - spidergon_average_distance(n)).abs() < 1e-9,
                "n={n}"
            );
            assert_eq!(sg.num_links(), spidergon_link_count(n));
        }
    }

    /// Checks the matrix and the matrix-free metrics of `topo` against a
    /// closed-form diameter and paper-normalized average distance.
    fn check_closed_forms<T: Topology>(topo: &T, diameter: usize, average: f64) {
        let apd = topo.graph().all_pairs_distances();
        let label = topo.label();
        assert_eq!(apd.diameter() as usize, diameter, "{label}");
        assert_eq!(metrics::diameter(topo) as usize, diameter, "{label}");
        assert!(
            (apd.mean_distance_paper() - average).abs() < 1e-9,
            "{label}"
        );
        let swept = metrics::average_distance_paper(topo);
        assert!((swept - average).abs() < 1e-9, "{label}");
    }

    #[test]
    fn closed_forms_hold_across_sweep_blocks() {
        // The distance sweep takes sources in blocks of 64; these sizes
        // end exactly on, just before and just after block boundaries.
        for n in [63usize, 64, 65, 128, 129, 200] {
            let ring = Ring::new(n).unwrap();
            check_closed_forms(&ring, ring_diameter(n), ring_average_distance(n));
        }
        for n in [64usize, 66, 128, 130, 256] {
            let sg = Spidergon::new(n).unwrap();
            check_closed_forms(&sg, spidergon_diameter(n), spidergon_average_distance(n));
            let sum: u32 = sg.graph().all_pairs_distances().row(n - 1).iter().sum();
            assert_eq!(sum as usize, spidergon_distance_sum(n), "n={n}");
        }
        for (m, n) in [(8usize, 8usize), (9, 9), (10, 13), (16, 16)] {
            let mesh = RectMesh::new(m, n).unwrap();
            check_closed_forms(
                &mesh,
                mesh_diameter(m, n),
                mesh_average_distance_paper(m, n),
            );
        }
    }

    #[test]
    fn paper_erratum_documented_values() {
        // The concrete counterexamples recorded in DESIGN.md.
        assert_eq!(spidergon_distance_sum(8), 11);
        assert_eq!(spidergon_distance_sum(10), 17);
        assert_eq!(spidergon_distance_sum(12), 23);
        assert_eq!(spidergon_distance_sum(16), 39);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn spidergon_sum_rejects_odd() {
        let _ = spidergon_distance_sum(7);
    }
}
