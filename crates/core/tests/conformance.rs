//! The acceptance-criteria proofs for the conformance harness:
//!
//! * audited and unaudited runs of the same seed produce identical
//!   `SimStats`;
//! * parallel (4 workers) matches sequential bit-for-bit with auditing
//!   on;
//! * the sparse active-set core (idle-router skipping, fast-forward,
//!   compiled route tables) matches the dense reference core
//!   bit-for-bit, unaudited and audited;
//! * cached results equal freshly simulated results bit-for-bit, and a
//!   warm cache answers every point without simulating;
//! * zero violations across the paper's topology triple at matched
//!   sizes, under uniform and hot-spot traffic, below and above
//!   saturation.
//!
//! CI runs this suite under both `NOC_THREADS=1` and `NOC_THREADS=4`;
//! the explicit `Parallelism::Fixed` policies below make the
//! four-worker proof independent of the environment either way.

use noc_core::{
    matched_size_cases, run_conformance, Experiment, Parallelism, TopologySpec, TrafficSpec,
};
use noc_sim::{Auditor, SimConfig};

fn base_config() -> SimConfig {
    SimConfig::builder()
        .warmup_cycles(200)
        .measure_cycles(1_500)
        .seed(42)
        .build()
        .unwrap()
}

#[test]
fn topology_triple_conforms_with_four_workers() {
    let cases = matched_size_cases(16, &base_config()).unwrap();
    assert_eq!(cases.len(), 12);
    let report = run_conformance(&cases, 2, Parallelism::Fixed(4)).unwrap();
    assert!(report.passed(), "conformance failed:\n{report}");
    for outcome in &report.outcomes {
        assert!(outcome.audited_matches_unaudited, "{outcome}");
        assert!(outcome.parallel_matches_sequential, "{outcome}");
        assert!(outcome.sparse_matches_dense, "{outcome}");
        assert!(outcome.cached_matches_fresh, "{outcome}");
        assert_eq!(outcome.violations, 0, "{outcome}");
        assert!(outcome.checks > 0, "{outcome}");
    }
}

#[test]
fn sparse_and_dense_cores_agree_for_explicit_seeds() {
    // Direct dense-vs-sparse differential, independent of the grid: the
    // full-featured sparse core (active set + fast-forward + compiled
    // routes) against the dense reference, on the paper's hot-spot
    // scenario where routers idle unevenly.
    let sparse_exp = Experiment {
        topology: TopologySpec::Spidergon { nodes: 16 },
        traffic: TrafficSpec::SingleHotspot { target: 0 },
        config: base_config(),
    };
    let mut dense_exp = sparse_exp.clone();
    dense_exp.config.sparse = false;
    dense_exp.config.compiled_routes = false;
    assert!(sparse_exp.config.sparse, "sparse core is the default");
    for seed in [7u64, 1234] {
        let sparse = sparse_exp.run_with_seed(seed).unwrap();
        let dense = dense_exp.run_with_seed(seed).unwrap();
        assert_eq!(sparse, dense, "seed {seed}: sparse core diverged");
    }
}

#[test]
fn sequential_policy_agrees_with_fixed_policy() {
    // The same grid through two different worker policies must produce
    // the same outcomes (the engine is deterministic by construction).
    let cases = matched_size_cases(8, &base_config()).unwrap();
    let a = run_conformance(&cases, 2, Parallelism::Sequential).unwrap();
    let b = run_conformance(&cases, 2, Parallelism::Fixed(4)).unwrap();
    assert_eq!(a, b);
    assert!(a.passed(), "{a}");
}

#[test]
fn audited_equals_unaudited_for_explicit_seeds() {
    let exp = Experiment {
        topology: TopologySpec::Spidergon { nodes: 16 },
        traffic: TrafficSpec::SingleHotspot { target: 0 },
        config: base_config(),
    };
    for seed in [1u64, 99, 0xBAD5EED] {
        let plain = exp.run_with_seed(seed).unwrap();
        let (audited, auditor) = exp.run_probed(seed, Auditor::new()).unwrap();
        assert_eq!(plain, audited, "seed {seed}: audit perturbed the run");
        let report = auditor.report();
        assert!(report.is_clean(), "seed {seed}:\n{report}");
        assert!(report.preflight_ran);
    }
}
