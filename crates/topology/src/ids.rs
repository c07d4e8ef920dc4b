//! Strongly-typed identifiers used throughout the NoC stack.
//!
//! Node and port indices are plain integers in the underlying data
//! structures, but mixing them up (e.g. indexing a node table with a port
//! number) is a classic source of silent bugs in interconnect simulators.
//! Newtypes make those mix-ups compile errors ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use core::fmt;

/// Identifier of a node (router + attached IP) inside a topology.
///
/// Node identifiers are dense indices in `0..num_nodes`, following the
/// numbering conventions of the paper: consecutive around the ring for
/// Ring/Spidergon, row-major (`id = row * cols + col`) for meshes.
///
/// # Examples
///
/// ```
/// use noc_topology::NodeId;
///
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(n.to_string(), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize)]
#[serde(transparent)]
pub struct NodeId(usize);

impl NodeId {
    /// Creates a node identifier from a dense index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        NodeId(index)
    }

    /// Returns the dense index of this node.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    #[inline]
    fn from(index: usize) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for usize {
    #[inline]
    fn from(id: NodeId) -> usize {
        id.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Direction of an output (or input) port of a router.
///
/// A single unified direction vocabulary covers all topology families so
/// that routing algorithms and the simulator can stay generic:
///
/// * Ring and Spidergon use [`Clockwise`], [`CounterClockwise`] and (for
///   Spidergon only) [`Across`];
/// * meshes use the four cardinal directions;
/// * [`Local`] is the port towards the attached IP (injection/ejection
///   through the network interface).
///
/// [`Clockwise`]: Direction::Clockwise
/// [`CounterClockwise`]: Direction::CounterClockwise
/// [`Across`]: Direction::Across
/// [`Local`]: Direction::Local
///
/// # Examples
///
/// ```
/// use noc_topology::Direction;
///
/// assert_eq!(Direction::North.opposite(), Some(Direction::South));
/// assert_eq!(Direction::Across.opposite(), Some(Direction::Across));
/// assert_eq!(Direction::Local.opposite(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, serde::Serialize)]
pub enum Direction {
    /// Towards the next node along the ring (increasing node id).
    Clockwise,
    /// Towards the previous node along the ring (decreasing node id).
    CounterClockwise,
    /// Spidergon cross link towards the diametrically opposite node.
    Across,
    /// Mesh link towards the row above (decreasing row index).
    North,
    /// Mesh link towards the row below (increasing row index).
    South,
    /// Mesh link towards the next column (increasing column index).
    East,
    /// Mesh link towards the previous column (decreasing column index).
    West,
    /// Port towards the locally attached IP (network interface).
    Local,
}

impl Direction {
    /// All link directions, in a fixed canonical order ([`Local`] last).
    ///
    /// [`Local`]: Direction::Local
    pub const ALL: [Direction; 8] = [
        Direction::Clockwise,
        Direction::CounterClockwise,
        Direction::Across,
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
        Direction::Local,
    ];

    /// Returns the direction a flit arriving over this link travels in
    /// from the perspective of the receiving router, i.e. the direction
    /// whose link points back at the sender.
    ///
    /// Returns `None` for [`Direction::Local`], which has no peer router.
    pub const fn opposite(self) -> Option<Direction> {
        match self {
            Direction::Clockwise => Some(Direction::CounterClockwise),
            Direction::CounterClockwise => Some(Direction::Clockwise),
            Direction::Across => Some(Direction::Across),
            Direction::North => Some(Direction::South),
            Direction::South => Some(Direction::North),
            Direction::East => Some(Direction::West),
            Direction::West => Some(Direction::East),
            Direction::Local => None,
        }
    }

    /// Stable small index of this direction, suitable for array indexing.
    pub const fn index(self) -> usize {
        match self {
            Direction::Clockwise => 0,
            Direction::CounterClockwise => 1,
            Direction::Across => 2,
            Direction::North => 3,
            Direction::South => 4,
            Direction::East => 5,
            Direction::West => 6,
            Direction::Local => 7,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::Clockwise => "cw",
            Direction::CounterClockwise => "ccw",
            Direction::Across => "across",
            Direction::North => "north",
            Direction::South => "south",
            Direction::East => "east",
            Direction::West => "west",
            Direction::Local => "local",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_usize() {
        let id = NodeId::new(42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::from(42usize), id);
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn node_id_orders_by_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    #[test]
    fn node_id_debug_and_display_are_nonempty() {
        assert_eq!(format!("{:?}", NodeId::new(7)), "NodeId(7)");
        assert_eq!(NodeId::new(7).to_string(), "n7");
    }

    #[test]
    fn direction_opposites_are_involutive() {
        for dir in Direction::ALL {
            if let Some(op) = dir.opposite() {
                assert_eq!(op.opposite(), Some(dir), "opposite of {dir} not involutive");
            } else {
                assert_eq!(dir, Direction::Local);
            }
        }
    }

    #[test]
    fn direction_indices_are_unique_and_dense() {
        let mut seen = [false; 8];
        for dir in Direction::ALL {
            let i = dir.index();
            assert!(i < 8);
            assert!(!seen[i], "duplicate index for {dir}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn direction_display_is_lowercase() {
        for dir in Direction::ALL {
            let s = dir.to_string();
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
    }
}
