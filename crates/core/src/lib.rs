//! Experiment harness reproducing Bononi & Concer, *"Simulation and
//! Analysis of Network on Chip Architectures: Ring, Spidergon and 2D
//! Mesh"* (DATE 2006).
//!
//! This crate ties the stack together — topologies
//! ([`noc_topology`]), routing ([`noc_routing`]), traffic
//! ([`noc_traffic`]) and the wormhole simulator ([`noc_sim`]) — behind
//! a declarative API:
//!
//! * [`TopologySpec`] / [`TrafficSpec`] — serializable experiment specs;
//! * [`Experiment`] — one (topology, traffic, config) run, with seed
//!   replication ([`Experiment::run_replicated`]);
//! * [`run_points`] — the grid runner: any list of experiments times
//!   their replication seeds, one [`Aggregate`] (mean ± std) per point;
//! * [`sweep_rates`] — injection-rate sweeps over [`rate_grid`] or any
//!   ascending rates (the x-axis of the paper's Figures 6-11), one
//!   [`Aggregate`] per rate;
//! * [`parallel`] — deterministic scoped-thread engine that fans out
//!   replications, sweeps and figure grids across cores (worker count
//!   via [`Parallelism`] or the `NOC_THREADS` environment variable)
//!   while keeping output bit-identical to a sequential run;
//!   [`run_jobs`] runs every such grid through the experiment cache;
//! * [`cache`] — content-addressed on-disk cache of run results
//!   (enabled via `NOC_CACHE`), so warm reruns of sweeps and figures
//!   only re-simulate points whose spec, seed or code version changed;
//! * [`figures`] — one function per paper figure, returning
//!   [`report::FigureData`] ready to print as an ASCII table or CSV;
//! * [`saturation_point`] — quantitative saturation detection: the
//!   first [`Aggregate`] of a sweep that stops accepting the load;
//! * [`plot`] — ASCII line plots of any figure for the terminal.
//!
//! # Quick start
//!
//! ```
//! use noc_core::{Experiment, TopologySpec, TrafficSpec};
//! use noc_sim::SimConfig;
//!
//! // Spidergon-16 under uniform traffic at lambda = 0.2 flits/cycle.
//! let result = Experiment {
//!     topology: TopologySpec::Spidergon { nodes: 16 },
//!     traffic: TrafficSpec::Uniform,
//!     config: SimConfig::builder()
//!         .injection_rate(0.2)
//!         .warmup_cycles(500)
//!         .measure_cycles(5_000)
//!         .build()?,
//! }
//! .run()?;
//! println!("{}", result.stats);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod conformance;
mod error;
mod experiment;
pub mod figures;
pub mod parallel;
pub mod plot;
pub mod report;
mod saturation;
mod spec;
mod sweep;

pub use cache::{
    canonical_key, fingerprint, CacheCounters, CacheStats, ExperimentCache, Fingerprint,
    CACHE_SCHEMA,
};
pub use conformance::{
    matched_size_cases, run_conformance, CaseOutcome, ConformanceCase, ConformanceReport,
};
pub use error::CoreError;
pub use experiment::{mean_std, run_points, Aggregate, Experiment, RunResult};
pub use figures::FigureOptions;
pub use parallel::{run_indexed, run_jobs, ExperimentJob, Parallelism};
pub use saturation::{saturation_point, DEFAULT_ACCEPTANCE_THRESHOLD};
pub use spec::{TopologySpec, TrafficSpec};
pub use sweep::{rate_grid, sweep_rates};

// Re-export the component crates so downstream users need only one
// dependency.
pub use noc_routing;
pub use noc_sim;
pub use noc_topology;
pub use noc_traffic;
