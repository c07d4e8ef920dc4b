//! Hot-spot target placements from paper Section 3.1.2.
//!
//! For the double hot-spot experiments the paper positions the two
//! targets as follows (paper node numbers are 1-based; ours 0-based):
//!
//! * **2D Mesh** — scenario A: opposite corners (nodes 1 and `N`);
//!   scenario B: one corner and one middle node (node 1, plus node 5 in
//!   the `2x4 = 8` mesh / node 14 in the `4x6 = 24` mesh); scenario C:
//!   two middle nodes (5 and 6 / 14 and 15).
//! * **Ring / Spidergon** — scenario A: two targets in opposition
//!   (North-South); scenario B: North and West positions.
//!
//! The 0-based mesh "middle" that reproduces both of the paper's
//! examples is `(rows/2) * cols + (cols-1)/2`: node 4 for the 2-column,
//! 4-row mesh and node 13 for the 4-column, 6-row mesh.

use crate::TrafficError;
use noc_topology::NodeId;

/// Where the two hot-spot targets sit (paper scenarios A, B, C).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, serde::Serialize, serde::Deserialize)]
pub enum PlacementScenario {
    /// Scenario A: maximally separated targets — opposite mesh corners,
    /// or North/South ring positions.
    Opposed,
    /// Scenario B: one corner (or North) and one central (or West)
    /// target.
    CornerMiddle,
    /// Scenario C: two adjacent central targets (the paper defines this
    /// for meshes; for rings we use the adjacent pair at the middle of
    /// the ring as the natural analogue).
    MiddlePair,
}

impl core::fmt::Display for PlacementScenario {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            PlacementScenario::Opposed => "A-opposed",
            PlacementScenario::CornerMiddle => "B-corner-middle",
            PlacementScenario::MiddlePair => "C-middle-pair",
        };
        f.write_str(s)
    }
}

/// The paper's 0-based "middle" node of a `cols x rows` mesh.
///
/// # Panics
///
/// Panics if either dimension is zero.
///
/// # Examples
///
/// ```
/// use noc_traffic::placement::mesh_center;
/// use noc_topology::NodeId;
///
/// // Paper: node 5 (1-based) of the 2x4 = 8 mesh.
/// assert_eq!(mesh_center(2, 4), NodeId::new(4));
/// // Paper: node 14 (1-based) of the 4x6 = 24 mesh.
/// assert_eq!(mesh_center(4, 6), NodeId::new(13));
/// ```
pub fn mesh_center(cols: usize, rows: usize) -> NodeId {
    assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
    NodeId::new((rows / 2) * cols + (cols - 1) / 2)
}

/// Double hot-spot targets for a `cols x rows` mesh under `scenario`.
///
/// # Errors
///
/// Returns [`TrafficError::TooFewNodes`] if the mesh is too small to
/// host two distinct targets in the requested positions.
pub fn mesh_placement(
    scenario: PlacementScenario,
    cols: usize,
    rows: usize,
) -> Result<[NodeId; 2], TrafficError> {
    assert!(cols > 0 && rows > 0, "mesh dimensions must be nonzero");
    let n = cols * rows;
    if n < 4 {
        return Err(TrafficError::TooFewNodes {
            requested: n,
            minimum: 4,
        });
    }
    let targets = match scenario {
        PlacementScenario::Opposed => [NodeId::new(0), NodeId::new(n - 1)],
        PlacementScenario::CornerMiddle => [NodeId::new(0), mesh_center(cols, rows)],
        PlacementScenario::MiddlePair => {
            let c = mesh_center(cols, rows);
            [c, NodeId::new(c.index() + 1)]
        }
    };
    if targets[0] == targets[1] || targets[1].index() >= n {
        return Err(TrafficError::TooFewNodes {
            requested: n,
            minimum: 4,
        });
    }
    Ok(targets)
}

/// Double hot-spot targets for a ring or Spidergon of `num_nodes` nodes
/// under `scenario` (node 0 is "North"; indices grow clockwise, so
/// "West" sits at `3N/4`).
///
/// # Errors
///
/// Returns [`TrafficError::TooFewNodes`] if `num_nodes < 4`.
pub fn ring_placement(
    scenario: PlacementScenario,
    num_nodes: usize,
) -> Result<[NodeId; 2], TrafficError> {
    if num_nodes < 4 {
        return Err(TrafficError::TooFewNodes {
            requested: num_nodes,
            minimum: 4,
        });
    }
    Ok(match scenario {
        PlacementScenario::Opposed => [NodeId::new(0), NodeId::new(num_nodes / 2)],
        PlacementScenario::CornerMiddle => [NodeId::new(0), NodeId::new(3 * num_nodes / 4)],
        PlacementScenario::MiddlePair => {
            [NodeId::new(num_nodes / 2), NodeId::new(num_nodes / 2 + 1)]
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mesh_centers_reproduced() {
        assert_eq!(mesh_center(2, 4).index(), 4);
        assert_eq!(mesh_center(4, 6).index(), 13);
    }

    #[test]
    fn paper_mesh_scenarios_reproduced() {
        // 2x4 = 8-node mesh: A = {0, 7}, B = {0, 4}, C = {4, 5}.
        assert_eq!(
            mesh_placement(PlacementScenario::Opposed, 2, 4).unwrap(),
            [NodeId::new(0), NodeId::new(7)]
        );
        assert_eq!(
            mesh_placement(PlacementScenario::CornerMiddle, 2, 4).unwrap(),
            [NodeId::new(0), NodeId::new(4)]
        );
        assert_eq!(
            mesh_placement(PlacementScenario::MiddlePair, 2, 4).unwrap(),
            [NodeId::new(4), NodeId::new(5)]
        );
        // 4x6 = 24-node mesh: B = {0, 13}, C = {13, 14}.
        assert_eq!(
            mesh_placement(PlacementScenario::CornerMiddle, 4, 6).unwrap(),
            [NodeId::new(0), NodeId::new(13)]
        );
        assert_eq!(
            mesh_placement(PlacementScenario::MiddlePair, 4, 6).unwrap(),
            [NodeId::new(13), NodeId::new(14)]
        );
    }

    #[test]
    fn ring_scenarios() {
        assert_eq!(
            ring_placement(PlacementScenario::Opposed, 12).unwrap(),
            [NodeId::new(0), NodeId::new(6)]
        );
        assert_eq!(
            ring_placement(PlacementScenario::CornerMiddle, 12).unwrap(),
            [NodeId::new(0), NodeId::new(9)]
        );
        assert_eq!(
            ring_placement(PlacementScenario::MiddlePair, 12).unwrap(),
            [NodeId::new(6), NodeId::new(7)]
        );
    }

    #[test]
    fn small_networks_rejected() {
        assert!(mesh_placement(PlacementScenario::Opposed, 1, 3).is_err());
        assert!(ring_placement(PlacementScenario::Opposed, 3).is_err());
    }

    #[test]
    fn targets_always_distinct_and_in_range() {
        for scenario in [
            PlacementScenario::Opposed,
            PlacementScenario::CornerMiddle,
            PlacementScenario::MiddlePair,
        ] {
            for n in 4..30usize {
                let t = ring_placement(scenario, n).unwrap();
                assert_ne!(t[0], t[1], "{scenario} n={n}");
                assert!(t[1].index() < n, "{scenario} n={n}");
            }
            for (c, r) in [(2usize, 2usize), (2, 4), (4, 6), (3, 5), (6, 6)] {
                let t = mesh_placement(scenario, c, r).unwrap();
                assert_ne!(t[0], t[1], "{scenario} {c}x{r}");
                assert!(t[1].index() < c * r, "{scenario} {c}x{r}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(PlacementScenario::Opposed.to_string(), "A-opposed");
        assert_eq!(
            PlacementScenario::CornerMiddle.to_string(),
            "B-corner-middle"
        );
        assert_eq!(PlacementScenario::MiddlePair.to_string(), "C-middle-pair");
    }
}
