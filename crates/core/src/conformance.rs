//! Differential conformance harness: replays identical seeded
//! scenarios across execution modes and asserts they agree exactly.
//!
//! Five differences are checked for every case and replication seed:
//!
//! 1. **audited vs unaudited** — attaching the runtime invariant
//!    auditor ([`noc_sim::audit`]) must not change a single bit of the
//!    collected [`SimStats`](noc_sim::SimStats);
//! 2. **sequential vs parallel** — running the audited replications
//!    through the parallel experiment engine ([`crate::parallel`])
//!    must be bit-identical to a sequential loop, stats *and* audit
//!    reports;
//! 3. **sparse vs dense** — the sparse active-set simulation core
//!    (idle-router skipping, fast-forward) must be bit-identical to the
//!    dense reference core ([`SimConfig::sparse`] off), unaudited *and*
//!    audited. Both route from the same compiled table, which the
//!    routing crate's tests compare with its algorithm pair by pair and
//!    the auditor checks against the algorithm's candidates at every
//!    head hop;
//! 4. **cached vs fresh** — replaying the replications through the
//!    experiment cache ([`crate::cache`]) into a cold store and then
//!    a second time against the warm store must return the plain
//!    results bit-for-bit, with the warm pass simulating nothing
//!    (every point a hit);
//! 5. **zero violations** — every audited run must come back clean.
//!
//! The default case grid replays the paper's topology triple (ring,
//! Spidergon, 2D mesh) at matched sizes under homogeneous and single
//! hot-spot traffic, below and above saturation — the scenarios behind
//! the paper's figures. Any future "optimization" of the simulator hot
//! path that changes behaviour trips one of these checks immediately.
//!
//! Run it via [`run_conformance`], the `noc-cli conformance`
//! subcommand, or the `conformance` integration test of this crate
//! (CI exercises it with `NOC_THREADS=1` and `NOC_THREADS=4`).

use crate::cache::{self, ExperimentCache};
use crate::parallel::{run_indexed, run_jobs, Parallelism};
use crate::{CoreError, Experiment, RunResult, TopologySpec, TrafficSpec};
use core::fmt;
use noc_sim::{AuditReport, Auditor, SimConfig};

/// One scenario the harness replays across execution modes.
#[derive(Clone, PartialEq, Debug)]
pub struct ConformanceCase {
    /// Short label for reports (e.g. `"spidergon-16/hotspot@0.40"`).
    pub label: String,
    /// The experiment to replay.
    pub experiment: Experiment,
}

/// Outcome of one case after replaying all replications.
#[derive(Clone, PartialEq, Debug)]
pub struct CaseOutcome {
    /// Case label.
    pub label: String,
    /// Audited stats matched unaudited stats bit-for-bit on every seed.
    pub audited_matches_unaudited: bool,
    /// Parallel audited runs matched sequential audited runs (stats and
    /// audit reports) bit-for-bit.
    pub parallel_matches_sequential: bool,
    /// The sparse active-set core matched the dense reference core
    /// bit-for-bit — unaudited stats, audited stats and audit reports.
    pub sparse_matches_dense: bool,
    /// Cold-cache and warm-cache runs both matched the fresh results
    /// bit-for-bit, and the warm pass hit on every point.
    pub cached_matches_fresh: bool,
    /// Total audit violations over all audited runs (0 when clean).
    pub violations: usize,
    /// Total audit checks performed over all audited runs.
    pub checks: u64,
    /// Replications replayed.
    pub replications: usize,
}

impl CaseOutcome {
    /// `true` if every difference agreed and no violation was found.
    pub fn passed(&self) -> bool {
        self.audited_matches_unaudited
            && self.parallel_matches_sequential
            && self.sparse_matches_dense
            && self.cached_matches_fresh
            && self.violations == 0
    }
}

impl fmt::Display for CaseOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] audit=stats:{} par=seq:{} sparse=dense:{} cache=fresh:{} violations:{} \
             checks:{} reps:{}",
            if self.passed() { "PASS" } else { "FAIL" },
            self.label,
            self.audited_matches_unaudited,
            self.parallel_matches_sequential,
            self.sparse_matches_dense,
            self.cached_matches_fresh,
            self.violations,
            self.checks,
            self.replications,
        )
    }
}

/// Aggregated outcome of a conformance run.
#[derive(Clone, PartialEq, Debug)]
pub struct ConformanceReport {
    /// Per-case outcomes, in case order.
    pub outcomes: Vec<CaseOutcome>,
    /// Details of the first few divergences/violations, for debugging.
    pub failures: Vec<String>,
}

impl ConformanceReport {
    /// `true` if every case passed.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(CaseOutcome::passed)
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for outcome in &self.outcomes {
            writeln!(f, "{outcome}")?;
        }
        for failure in &self.failures {
            writeln!(f, "  ! {failure}")?;
        }
        write!(
            f,
            "conformance: {}/{} case(s) passed",
            self.outcomes.iter().filter(|o| o.passed()).count(),
            self.outcomes.len()
        )
    }
}

/// Builds the default case grid: the paper's topology triple at a
/// matched node count, under uniform and single hot-spot traffic, at a
/// sub-saturation and a saturating injection rate.
///
/// `nodes` must suit all three topologies (Spidergon needs a multiple
/// of 4; 16 matches the paper's small configuration).
///
/// # Errors
///
/// Returns [`CoreError::InvalidSpec`] if `nodes < 4`.
pub fn matched_size_cases(
    nodes: usize,
    base: &SimConfig,
) -> Result<Vec<ConformanceCase>, CoreError> {
    if nodes < 4 {
        return Err(CoreError::InvalidSpec {
            reason: "conformance grid needs at least 4 nodes".to_owned(),
        });
    }
    let topologies = [
        TopologySpec::Ring { nodes },
        TopologySpec::Spidergon { nodes },
        TopologySpec::MeshBalanced { nodes },
    ];
    let traffics = [
        TrafficSpec::Uniform,
        TrafficSpec::SingleHotspot { target: 0 },
    ];
    // Below and above the hot-spot saturation point (~sink rate divided
    // by the source count), so both free-flowing and congested switch
    // allocation paths are replayed.
    let rates = [0.1, 0.4];
    let mut cases = Vec::new();
    for topology in &topologies {
        for traffic in &traffics {
            for &rate in &rates {
                let mut config = base.clone();
                config.injection_rate = rate;
                cases.push(ConformanceCase {
                    label: format!("{}/{}@{rate:.2}", topology.label()?, traffic.label()),
                    experiment: Experiment {
                        topology: *topology,
                        traffic: *traffic,
                        config,
                    },
                });
            }
        }
    }
    Ok(cases)
}

/// Replays every case `replications` times across execution modes —
/// unaudited sequential, audited sequential, audited on the parallel
/// engine, the dense reference core (plain and audited), and through
/// a cold then warm experiment cache — and reports whether they agree
/// bit-for-bit with zero violations.
///
/// `parallelism` is the worker policy for the parallel mode
/// (sequential execution of that mode still goes through the same
/// engine code path, so `Parallelism::Sequential` degenerates to a
/// self-comparison).
///
/// # Errors
///
/// Returns the first build/run error ([`CoreError`]); divergences and
/// violations are reported in the [`ConformanceReport`], not as
/// errors.
pub fn run_conformance(
    cases: &[ConformanceCase],
    replications: usize,
    parallelism: Parallelism,
) -> Result<ConformanceReport, CoreError> {
    if replications == 0 {
        return Err(CoreError::InvalidSpec {
            reason: "replications must be positive".to_owned(),
        });
    }
    let mut outcomes = Vec::with_capacity(cases.len());
    let mut failures = Vec::new();
    for case in cases {
        let jobs = case.experiment.replication_jobs(replications)?;
        let seeds: Vec<u64> = jobs.iter().map(|job| job.seed).collect();
        // Mode 1: unaudited, sequential.
        let plain: Vec<RunResult> = seeds
            .iter()
            .map(|&s| case.experiment.run_with_seed(s))
            .collect::<Result<_, _>>()?;
        // Mode 2: audited, sequential.
        let audited_seq: Vec<(RunResult, AuditReport)> = seeds
            .iter()
            .map(|&s| audited_run(&case.experiment, s))
            .collect::<Result<_, _>>()?;
        // Mode 3: audited, on the parallel engine.
        let audited = jobs
            .iter()
            .map(|job| || audited_run(&job.experiment, job.seed));
        let audited_par: Vec<(RunResult, AuditReport)> =
            run_indexed(audited.collect(), parallelism)
                .into_iter()
                .collect::<Result<_, _>>()?;
        // Modes 4 and 5: the dense reference core (active-set skipping
        // and fast-forward disabled), unaudited and audited.
        let mut dense_experiment = case.experiment.clone();
        dense_experiment.config.sparse = false;
        let dense_plain: Vec<RunResult> = seeds
            .iter()
            .map(|&s| dense_experiment.run_with_seed(s))
            .collect::<Result<_, _>>()?;
        let dense_audited: Vec<(RunResult, AuditReport)> = seeds
            .iter()
            .map(|&s| audited_run(&dense_experiment, s))
            .collect::<Result<_, _>>()?;
        // Modes 6 and 7: through the experiment cache, cold (every
        // point simulated and stored) then warm (every point answered
        // from disk). Each case gets its own throwaway store so
        // concurrent test processes cannot interfere.
        let cache_dir = cache::unique_temp_dir("noc-conformance-cache");
        let store = ExperimentCache::at(&cache_dir);
        let cached_cold = run_jobs(jobs.clone(), parallelism, &store)?;
        let before_warm = cache::counters();
        let cached_warm = run_jobs(jobs, parallelism, &store)?;
        let warm_delta = cache::counters().since(&before_warm);
        std::fs::remove_dir_all(&cache_dir).ok();

        let audited_matches_unaudited = plain.iter().zip(&audited_seq).all(|(p, (a, _))| p == a);
        if !audited_matches_unaudited {
            failures.push(format!(
                "{}: audited stats diverge from unaudited stats",
                case.label
            ));
        }
        let parallel_matches_sequential = audited_seq == audited_par;
        if !parallel_matches_sequential {
            failures.push(format!(
                "{}: parallel audited runs diverge from sequential",
                case.label
            ));
        }
        let sparse_matches_dense = plain == dense_plain && audited_seq == dense_audited;
        if !sparse_matches_dense {
            failures.push(format!(
                "{}: sparse active-set core diverges from the dense reference",
                case.label
            ));
        }
        let cached_matches_fresh =
            cached_cold == plain && cached_warm == plain && warm_delta.misses == 0;
        if !cached_matches_fresh {
            failures.push(format!(
                "{}: cached results diverge from fresh simulation \
                 (cold=={}, warm=={}, warm misses {})",
                case.label,
                cached_cold == plain,
                cached_warm == plain,
                warm_delta.misses
            ));
        }
        let violations = audited_seq
            .iter()
            .map(|(_, rep)| rep.violations.len())
            .sum();
        if violations > 0 {
            for (run, report) in &audited_seq {
                for violation in &report.violations {
                    failures.push(format!("{} seed {}: {violation}", case.label, run.seed));
                }
            }
        }
        outcomes.push(CaseOutcome {
            label: case.label.clone(),
            audited_matches_unaudited,
            parallel_matches_sequential,
            sparse_matches_dense,
            cached_matches_fresh,
            violations,
            checks: audited_seq.iter().map(|(_, rep)| rep.checks).sum(),
            replications,
        });
    }
    failures.truncate(32);
    Ok(ConformanceReport { outcomes, failures })
}

/// One run of `experiment` under `seed` with an [`Auditor`] attached:
/// the result and the auditor's findings.
fn audited_run(experiment: &Experiment, seed: u64) -> Result<(RunResult, AuditReport), CoreError> {
    let (result, auditor) = experiment.run_probed(seed, Auditor::new())?;
    Ok((result, auditor.into_report()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_triple_times_traffic_times_rates() {
        let base = SimConfig::builder()
            .warmup_cycles(10)
            .measure_cycles(50)
            .build()
            .unwrap();
        let cases = matched_size_cases(16, &base).unwrap();
        assert_eq!(cases.len(), 12); // 3 topologies x 2 traffics x 2 rates
        assert!(cases.iter().any(|c| c.label.contains("ring-16")));
        assert!(cases.iter().any(|c| c.label.contains("mesh")));
        assert!(cases.iter().any(|c| c.label.contains("hotspot")));
    }

    #[test]
    fn grid_rejects_bad_inputs() {
        let base = SimConfig::default();
        assert!(matches!(
            matched_size_cases(2, &base),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn zero_replications_rejected() {
        assert!(matches!(
            run_conformance(&[], 0, Parallelism::Sequential),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn report_formats_pass_and_fail() {
        let pass = CaseOutcome {
            label: "x".to_owned(),
            audited_matches_unaudited: true,
            parallel_matches_sequential: true,
            sparse_matches_dense: true,
            cached_matches_fresh: true,
            violations: 0,
            checks: 10,
            replications: 1,
        };
        let mut fail = pass.clone();
        fail.violations = 3;
        assert!(pass.passed() && !fail.passed());
        let report = ConformanceReport {
            outcomes: vec![pass, fail],
            failures: vec!["boom".to_owned()],
        };
        assert!(!report.passed());
        let text = report.to_string();
        assert!(text.contains("PASS") && text.contains("FAIL"), "{text}");
        assert!(text.contains("1/2"), "{text}");
    }
}
