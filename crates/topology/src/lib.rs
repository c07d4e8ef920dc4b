//! NoC topologies for the DATE 2006 Ring / Spidergon / 2D-Mesh study.
//!
//! This crate provides the three topology families compared by Bononi &
//! Concer, *"Simulation and Analysis of Network on Chip Architectures:
//! Ring, Spidergon and 2D Mesh"* (DATE 2006), plus the graph machinery
//! and analytical formulas needed to reproduce the paper's Figures 2-3:
//!
//! * [`Ring`] — bidirectional ring, `2N` links, degree 2;
//! * [`Spidergon`] — ring plus across links, `3N` links, degree 3;
//! * [`RectMesh`] — full rectangular `m x n` mesh;
//! * [`IrregularMesh`] — mesh with a partially-filled last row (the
//!   paper's "real / irregular mesh" novelty);
//! * [`Torus`] — mesh plus wrap-around links (a future-work topology);
//! * [`graph`] — CSR adjacency + BFS, exact all-pairs distances;
//! * [`metrics`] — exact diameter / average distance / link counts;
//! * [`analytical`] — the paper's closed forms (with a documented
//!   erratum correction for Spidergon `E[D]`);
//! * [`real_mesh`] — the ideal mesh and its continuous curves, against
//!   which the real meshes are compared.
//!
//! # Quick start
//!
//! ```
//! use noc_topology::{metrics, Ring, Spidergon, Topology};
//!
//! let ring = Ring::new(16)?;
//! let spidergon = Spidergon::new(16)?;
//!
//! // Spidergon halves the ring diameter with one extra link per node.
//! assert_eq!(metrics::diameter(&ring), 8);
//! assert_eq!(metrics::diameter(&spidergon), 4);
//! assert_eq!(ring.num_links(), 32);
//! assert_eq!(spidergon.num_links(), 48);
//! # Ok::<(), noc_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// This crate's version, folded into `noc_core`'s cache fingerprints
/// so cached results never survive a topology-layer change.
pub const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

pub mod analytical;
mod error;
pub mod graph;
mod ids;
mod irregular;
mod mesh;
pub mod metrics;
pub mod real_mesh;
mod ring;
mod spidergon;
mod topology;
mod torus;

pub use error::TopologyError;
pub use ids::{Direction, NodeId};
pub use irregular::IrregularMesh;
pub use mesh::RectMesh;
pub use ring::Ring;
pub use spidergon::Spidergon;
pub use topology::{check_topology_invariants, NodeIds, Topology, TopologyKind};
pub use torus::Torus;
