//! Deterministic parallel execution of independent simulation jobs.
//!
//! Every figure in the paper is a grid of *independent* simulations —
//! topology family × node count × traffic scenario × injection rate ×
//! replication seed. Each job owns its own RNG (seeded from
//! `config.seed + replication`), so jobs can run on any thread in any
//! order as long as their results are reassembled in job order. This
//! module provides that engine:
//!
//! 1. callers flatten their loops into an indexed job list;
//! 2. [`run_indexed`] executes the jobs on a scoped-thread worker pool
//!    ([`std::thread::scope`], no extra dependencies), workers pulling
//!    the next job index from a shared atomic counter;
//! 3. results land in per-index slots and are returned in job order.
//!
//! Because job index — not thread schedule — determines where a result
//! lands, output is **bit-identical** to a sequential run for any
//! worker count (asserted by `tests/parallel_determinism.rs`).
//!
//! [`run_jobs`] runs a list of [`ExperimentJob`]s this way through the
//! experiment cache; [`run_points`](crate::run_points) (behind
//! replications, sweeps and figures), the conformance harness and
//! `noc-cli` all run their grids through it.
//!
//! Worker count comes from a [`Parallelism`] option, the last argument
//! of every run function. The default, [`Parallelism::Auto`], honors
//! the `NOC_THREADS` environment variable and otherwise uses all
//! available cores.

use crate::cache::{record_counters, CacheCounters, ExperimentCache};
use crate::{CoreError, Experiment, RunResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count policy for the parallel experiment engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Parallelism {
    /// `NOC_THREADS` if set to a positive integer, otherwise all
    /// available cores.
    #[default]
    Auto,
    /// One worker on the calling thread; never spawns.
    Sequential,
    /// Exactly this many workers (explicit choice, e.g. a CLI flag;
    /// wins over `NOC_THREADS`). Zero is clamped to one.
    Fixed(usize),
}

impl Parallelism {
    /// Resolves the policy to a concrete worker count (≥ 1).
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => env_threads().unwrap_or_else(available_cores),
        }
    }
}

/// The `NOC_THREADS` override, if set to a positive integer.
fn env_threads() -> Option<usize> {
    std::env::var("NOC_THREADS")
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n >= 1)
}

/// Cores available to this process (1 if undetectable).
pub fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `jobs` under the given parallelism and returns their results
/// **in job order**, regardless of which worker ran which job.
///
/// With one worker (or one job) the jobs run inline on the calling
/// thread — the sequential baseline is literally this same code path.
/// A panicking job propagates after all workers join (via
/// [`std::thread::scope`]).
pub fn run_indexed<T, F>(jobs: Vec<F>, parallelism: Parallelism) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = parallelism.worker_count().min(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    // Jobs are taken (FnOnce) and results stored through per-index
    // mutexes; contention is negligible because each is touched once
    // and jobs are long compared to a lock round trip.
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let job = jobs[index]
                    .lock()
                    .expect("job mutex poisoned")
                    .take()
                    .expect("job taken twice");
                let result = job();
                *slots[index].lock().expect("slot mutex poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

/// One entry of a flattened experiment grid: an [`Experiment`] plus the
/// replication seed it must run with.
#[derive(Clone, PartialEq, Debug)]
pub struct ExperimentJob {
    /// The experiment to run.
    pub experiment: Experiment,
    /// Seed for this job (overrides `experiment.config.seed`).
    pub seed: u64,
}

impl ExperimentJob {
    /// Runs the job on the calling thread.
    ///
    /// # Errors
    ///
    /// See [`Experiment::run_with_seed`].
    pub fn run(&self) -> Result<RunResult, CoreError> {
        self.experiment.run_with_seed(self.seed)
    }
}

/// Runs a flattened job list through the engine and the experiment
/// cache, returning run results in job order: the one way an
/// experiment grid becomes results.
///
/// Every job runs on the parallel engine as one lookup-or-simulate
/// step: a cache hit is decoded on the worker, a miss is simulated
/// there. Back on the calling thread, the fresh results are stored for
/// the next run as one pack, in job order (each key once). Callers
/// that honour `NOC_CACHE` pass [`ExperimentCache::from_env`].
///
/// Output is bit-identical to an uncached run: a hit is exactly the
/// [`RunResult`] a fresh simulation would return (the conformance
/// harness asserts this), and result order never depends on which
/// points hit. A disabled cache makes every lookup a miss and every
/// store a no-op. Cache I/O failures degrade to recomputation, never to
/// a run failure. With the cache enabled, hit/miss/store counts
/// accumulate in the calling thread's [`crate::cache::counters`].
///
/// # Errors
///
/// If any job fails, returns the error of the **lowest-index** failing
/// job — the same error a sequential loop would have stopped at, so
/// error reporting is deterministic too.
pub fn run_jobs(
    jobs: Vec<ExperimentJob>,
    parallelism: Parallelism,
    cache: &ExperimentCache,
) -> Result<Vec<RunResult>, CoreError> {
    // Closures borrow the jobs (run_indexed spawns scoped threads, so
    // non-'static borrows are fine): each job is needed again to store
    // its result.
    let outcomes = run_indexed(
        jobs.iter()
            .map(|job| {
                move || match cache.lookup(&job.experiment, job.seed) {
                    Some(hit) => (true, Ok(hit)),
                    None => (false, job.run()),
                }
            })
            .collect(),
        parallelism,
    );
    let mut counters = CacheCounters::default();
    let mut results = Vec::with_capacity(jobs.len());
    // Each fresh result's job, with its position in `results`.
    let mut fresh = Vec::new();
    let mut first_error: Option<CoreError> = None;
    for (job, (hit, outcome)) in jobs.iter().zip(outcomes) {
        if hit {
            counters.hits += 1;
        } else {
            counters.misses += 1;
        }
        match outcome {
            Ok(result) => {
                if !hit {
                    fresh.push((job, results.len()));
                }
                results.push(result);
            }
            Err(error) => {
                first_error.get_or_insert(error);
            }
        }
    }
    // One pack for the whole call, written on this thread with its
    // records in job order, so the store does not depend on the
    // schedule. Best-effort: successes are worth keeping even when a
    // sibling job failed the overall call.
    let batch = fresh
        .iter()
        .map(|&(job, at)| (&job.experiment, job.seed, &results[at]));
    counters.stores = cache.store_all(batch).unwrap_or(0) as u64;
    if cache.is_enabled() {
        record_counters(counters);
    }
    cache.enforce_env_limit();
    match first_error {
        Some(error) => Err(error),
        None => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        let jobs: Vec<_> = (0..64usize)
            .map(|i| {
                move || {
                    // Vary per-job runtime so threads finish out of order.
                    let mut acc = i as u64;
                    for _ in 0..((64 - i) * 1000) {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    (i, acc & 0xFF)
                }
            })
            .collect();
        let out = run_indexed(jobs, Parallelism::Fixed(4));
        let indices: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_fixed_agree() {
        let mk = || (0..20usize).map(|i| move || i * i).collect::<Vec<_>>();
        assert_eq!(
            run_indexed(mk(), Parallelism::Sequential),
            run_indexed(mk(), Parallelism::Fixed(7))
        );
    }

    #[test]
    fn worker_count_policies() {
        assert_eq!(Parallelism::Sequential.worker_count(), 1);
        assert_eq!(Parallelism::Fixed(3).worker_count(), 3);
        assert_eq!(Parallelism::Fixed(0).worker_count(), 1);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_indexed(Vec::<fn() -> u32>::new(), Parallelism::Auto);
        assert!(out.is_empty());
    }

    #[test]
    fn first_error_in_index_order_wins() {
        use crate::{TopologySpec, TrafficSpec};
        use noc_sim::SimConfig;
        // Index 1 has an invalid topology (too few nodes); index 3 too.
        // The engine must report index 1's error, as a sequential loop
        // would.
        let good = Experiment {
            topology: TopologySpec::Spidergon { nodes: 8 },
            traffic: TrafficSpec::Uniform,
            config: SimConfig::builder()
                .warmup_cycles(10)
                .measure_cycles(50)
                .build()
                .unwrap(),
        };
        let bad = |nodes| Experiment {
            topology: TopologySpec::Ring { nodes },
            ..good.clone()
        };
        let jobs = vec![
            ExperimentJob {
                experiment: good.clone(),
                seed: 1,
            },
            ExperimentJob {
                experiment: bad(1),
                seed: 2,
            },
            ExperimentJob {
                experiment: good.clone(),
                seed: 3,
            },
            ExperimentJob {
                experiment: bad(2),
                seed: 4,
            },
        ];
        let expected = jobs[1].run().unwrap_err().to_string();
        let disabled = ExperimentCache::disabled();
        let err = run_jobs(jobs, Parallelism::Fixed(4), &disabled).unwrap_err();
        assert_eq!(err.to_string(), expected);
    }
}
