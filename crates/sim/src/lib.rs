//! Flit-level wormhole NoC simulator for the DATE 2006 Ring / Spidergon
//! / 2D-Mesh study.
//!
//! This crate is the substitute for the paper's OMNeT++ models: a
//! discrete-event kernel ([`des`]) plus a cycle-level wormhole network
//! model ([`Simulation`]) that replicates the paper's node architecture
//! (Figure 4) — one-flit input buffers, three-flit output queues, a pair
//! of virtual channels on ring-like links, Poisson packet sources of
//! constant 6-flit packets, and FIFO sinks consuming one flit per cycle.
//!
//! # Quick start
//!
//! ```
//! use noc_routing::RingShortestPath;
//! use noc_sim::{SimConfig, Simulation};
//! use noc_topology::Ring;
//! use noc_traffic::UniformRandom;
//!
//! let ring = Ring::new(8)?;
//! let routing = RingShortestPath::new(&ring);
//! let traffic = UniformRandom::new(8)?;
//! let config = SimConfig::builder()
//!     .injection_rate(0.1) // flits/cycle per source (the paper's lambda)
//!     .warmup_cycles(500)
//!     .measure_cycles(5_000)
//!     .build()?;
//!
//! let mut sim = Simulation::new(Box::new(ring), Box::new(routing), Box::new(traffic), config)?;
//! let stats = sim.run()?;
//! println!(
//!     "throughput {:.3} flits/cycle, mean latency {:.1} cycles",
//!     stats.throughput_flits_per_cycle(),
//!     stats.latency.mean().unwrap_or(f64::NAN),
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Audit and error paths must report structured failures
// (`AuditViolation`, `SimError`), never panic through `unwrap` —
// enforced crate-wide outside tests (CI runs clippy with `-D
// warnings`, so a violation fails the build).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

/// This crate's version, folded into `noc_core`'s cache fingerprints
/// so cached results never survive an engine change.
pub const CRATE_VERSION: &str = env!("CARGO_PKG_VERSION");

pub mod audit;
mod buffer;
mod config;
pub mod des;
mod error;
mod flit;
mod network;
pub mod probe;
mod stats;

pub use audit::{
    AuditReport, AuditViolation, Auditor, BufferClass, BufferRef, Invariant, StallDiagnosis,
};
pub use config::{SimConfig, SimConfigBuilder, MAX_BUFFER_CAPACITY, MAX_SINK_RATE};
pub use error::SimError;
pub use flit::{ArenaFlit, Flit, FlitKind, PacketArena, PacketId, PacketRef};
pub use network::{Delivery, Network, Occupancy, Simulation};
pub use probe::{
    BufferPeak, LatencyBreakdown, NetworkShape, NullProbe, PacketTiming, Probe, Recorder,
    TraceEvent, WindowSample,
};
pub use stats::{confidence_interval, mser_truncation, LatencyStats, LinkLoad, SimStats};
