//! Acceptance proofs for the content-addressed experiment cache:
//!
//! * **fingerprint sensitivity** — changing any single field of the
//!   topology spec, traffic spec, `SimConfig`, or the seed changes the
//!   fingerprint (property-based over random experiment points);
//! * **cross-process stability** — the fingerprint of a pinned spec
//!   under a pinned code-version token equals a hard-coded golden
//!   value (FNV-1a over a canonical encoding has no per-process
//!   state to vary);
//! * **invalidation** — bumping `CACHE_SCHEMA` or changing the
//!   code-version token re-keys every point;
//! * **corruption robustness** — truncated and bit-flipped records are
//!   rejected by the checksum, the point is recomputed, the bad entry
//!   is replaced, and nothing ever panics or returns a wrong result;
//! * **incremental scheduling** — a cold pass simulates and stores
//!   every point, a warm pass answers all of them from disk
//!   bit-identically, sequential or parallel.

use noc_core::cache::{
    self, canonical_key, code_version_token, fingerprint, fingerprint_with, run_cached,
    unique_temp_dir, ExperimentCache, CACHE_SCHEMA,
};
use noc_core::{Experiment, ExperimentJob, Parallelism, TopologySpec, TrafficSpec};
use noc_sim::SimConfig;
use proptest::prelude::*;

fn topology(pick: u8, size: usize) -> TopologySpec {
    match pick % 3 {
        0 => TopologySpec::Ring {
            nodes: size.clamp(4, 32),
        },
        1 => TopologySpec::Spidergon {
            nodes: size.clamp(2, 16) * 4,
        },
        _ => TopologySpec::MeshBalanced {
            nodes: size.clamp(4, 32),
        },
    }
}

fn experiment(pick: u8, size: usize, hotspot: bool, rate: f64, seed: u64) -> Experiment {
    Experiment {
        topology: topology(pick, size),
        traffic: if hotspot {
            TrafficSpec::SingleHotspot { target: 0 }
        } else {
            TrafficSpec::Uniform
        },
        config: SimConfig::builder()
            .injection_rate(rate)
            .warmup_cycles(10)
            .measure_cycles(100)
            .seed(seed)
            .build()
            .unwrap(),
    }
}

/// A fast experiment for tests that actually simulate.
fn small_experiment(rate: f64) -> Experiment {
    experiment(1, 2, false, rate, 7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single-field change re-keys the point; re-hashing the same
    /// point is stable.
    #[test]
    fn fingerprint_sensitive_to_every_field(
        pick in 0u8..3,
        size in 2usize..9,
        hotspot_pick in 0u8..2,
        rate in 0.05f64..0.5,
        seed in 0u64..1_000,
    ) {
        let hotspot = hotspot_pick == 1;
        let base = experiment(pick, size, hotspot, rate, seed);
        let fp = fingerprint(&base, seed);
        prop_assert_eq!(fp, fingerprint(&base, seed), "re-hash must be stable");

        // Seed (the replication index) re-keys.
        prop_assert_ne!(fp, fingerprint(&base, seed.wrapping_add(1)));

        // Topology family / size re-keys.
        let mut other_topology = base.clone();
        other_topology.topology = topology(pick + 1, size);
        prop_assert_ne!(fp, fingerprint(&other_topology, seed));
        let mut grown = base.clone();
        grown.topology = topology(pick, size + 8);
        prop_assert_ne!(fp, fingerprint(&grown, seed));

        // Traffic pattern re-keys.
        let mut other_traffic = base.clone();
        other_traffic.traffic = if hotspot {
            TrafficSpec::Uniform
        } else {
            TrafficSpec::SingleHotspot { target: 0 }
        };
        prop_assert_ne!(fp, fingerprint(&other_traffic, seed));

        // Every SimConfig knob that can change the simulation re-keys.
        let perturbations: Vec<(&str, Experiment)> = vec![
            ("injection_rate", {
                let mut e = base.clone();
                e.config.injection_rate += 0.01;
                e
            }),
            ("packet_len", {
                let mut e = base.clone();
                e.config.packet_len += 1;
                e
            }),
            ("input_buffer_capacity", {
                let mut e = base.clone();
                e.config.input_buffer_capacity += 1;
                e
            }),
            ("output_buffer_capacity", {
                let mut e = base.clone();
                e.config.output_buffer_capacity += 1;
                e
            }),
            ("sink_rate", {
                let mut e = base.clone();
                e.config.sink_rate += 1;
                e
            }),
            ("warmup_cycles", {
                let mut e = base.clone();
                e.config.warmup_cycles += 1;
                e
            }),
            ("measure_cycles", {
                let mut e = base.clone();
                e.config.measure_cycles += 1;
                e
            }),
            ("sample_interval", {
                let mut e = base.clone();
                e.config.sample_interval += 1;
                e
            }),
            ("router_delay", {
                let mut e = base.clone();
                e.config.router_delay += 1;
                e
            }),
            ("record_deliveries", {
                let mut e = base.clone();
                e.config.record_deliveries = !e.config.record_deliveries;
                e
            }),
            ("sparse", {
                let mut e = base.clone();
                e.config.sparse = !e.config.sparse;
                e
            }),
            ("compiled_routes", {
                let mut e = base.clone();
                e.config.compiled_routes = !e.config.compiled_routes;
                e
            }),
        ];
        let mut seen = vec![fp];
        for (field, perturbed) in &perturbations {
            let other = fingerprint(perturbed, seed);
            prop_assert!(
                !seen.contains(&other),
                "perturbing {} must produce a fresh fingerprint",
                field
            );
            seen.push(other);
        }
    }
}

#[test]
fn fingerprint_is_stable_across_processes() {
    // FNV-1a over the canonical JSON has no per-process state (no
    // randomized hasher, no pointers), so a pinned spec under a pinned
    // schema/token must hash to this golden value in every process and
    // on every host. If this assertion ever fires, the canonical
    // encoding changed — which requires a `CACHE_SCHEMA` bump.
    let exp = experiment(1, 2, true, 0.25, 42);
    let fp = fingerprint_with(2, "test-token", &exp, 42);
    let again = fingerprint_with(2, "test-token", &exp, 42);
    assert_eq!(fp, again);
    assert_eq!(fp.hex().len(), 32);
    assert_eq!(fp.hex(), "5d762eb388eebbbb6d7604da1abaf5f9");
}

#[test]
fn schema_bump_and_code_version_invalidate_all_keys() {
    let exp = small_experiment(0.2);
    let token = code_version_token();
    let current = fingerprint_with(CACHE_SCHEMA, &token, &exp, 7);
    assert_eq!(
        current,
        fingerprint(&exp, 7),
        "fingerprint() must be fingerprint_with(current schema, current token)"
    );
    // Bumping the schema re-keys the identical spec.
    assert_ne!(current, fingerprint_with(CACHE_SCHEMA + 1, &token, &exp, 7));
    // Any crate-version change re-keys too.
    assert_ne!(
        current,
        fingerprint_with(CACHE_SCHEMA, &format!("{token}+dev"), &exp, 7)
    );
    // The canonical key spells out both, so records are self-describing.
    let key = canonical_key(&exp, 7);
    assert!(key.contains(&format!("\"schema\":{CACHE_SCHEMA}")), "{key}");
    assert!(key.contains(&token), "{key}");
}

#[test]
fn truncated_record_is_rejected_recomputed_and_replaced() {
    let dir = unique_temp_dir("noc-cache-truncate");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let record = record_paths(&cache)[0].clone();
    let full = std::fs::read(&record).unwrap();

    // Truncate at several depths, including inside the header.
    for keep in [0usize, 10, 24, full.len() / 2, full.len() - 1] {
        std::fs::write(&record, &full[..keep]).unwrap();
        assert!(
            cache.lookup(&exp, 7).is_none(),
            "truncated to {keep} bytes must miss"
        );
        // The corrupt entry was evicted on lookup; recompute and
        // re-store to restore the cache for the next iteration.
        assert!(!record.exists(), "corrupt record must be evicted");
        let recomputed = run_cached(&cache, &exp, 7).unwrap();
        assert_eq!(
            recomputed, fresh,
            "recomputed point must equal the original"
        );
        assert_eq!(std::fs::read(&record).unwrap(), full, "entry replaced");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_record_is_rejected_recomputed_and_replaced() {
    let dir = unique_temp_dir("noc-cache-bitflip");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let record = record_paths(&cache)[0].clone();
    let full = std::fs::read(&record).unwrap();

    // Flip one bit in the magic, the header lengths, the checksum, the
    // key and the payload — every region must be caught.
    for position in [0usize, 9, 17, 30, full.len() - 3] {
        let mut damaged = full.clone();
        damaged[position] ^= 0x10;
        std::fs::write(&record, &damaged).unwrap();
        let looked_up = cache.lookup(&exp, 7);
        // Either rejected outright (None) or — only if the flipped
        // byte is outside every checked region — identical anyway;
        // a *different* result must never come back.
        if let Some(result) = looked_up {
            panic!(
                "bit flip at {position} returned a record; checksum must reject it: \
                 identical={}",
                result == fresh
            );
        }
        let recomputed = run_cached(&cache, &exp, 7).unwrap();
        assert_eq!(recomputed, fresh);
        assert_eq!(std::fs::read(&record).unwrap(), full, "entry replaced");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cold_then_warm_pass_is_incremental_and_bit_identical() {
    let dir = unique_temp_dir("noc-cache-coldwarm");
    let cache = ExperimentCache::at(&dir);
    let jobs = || -> Vec<ExperimentJob> {
        [0.1, 0.2, 0.3]
            .iter()
            .flat_map(|&rate| {
                (0..2u64).map(move |r| ExperimentJob {
                    experiment: small_experiment(rate),
                    seed: 7 + r,
                })
            })
            .collect()
    };
    // Reference: no cache involved at all.
    let reference = noc_core::run_experiment_jobs_with_cache(
        jobs(),
        Parallelism::Sequential,
        &ExperimentCache::disabled(),
    )
    .unwrap();

    let before = cache::counters();
    let cold =
        noc_core::run_experiment_jobs_with_cache(jobs(), Parallelism::Fixed(4), &cache).unwrap();
    let cold_delta = cache::counters().since(&before);
    assert_eq!(cold, reference, "cold pass must equal uncached results");
    assert_eq!(
        (cold_delta.hits, cold_delta.misses, cold_delta.stores),
        (0, 6, 6)
    );

    // Warm: every point answered from disk, same bytes, no simulation.
    for parallelism in [Parallelism::Sequential, Parallelism::Fixed(4)] {
        let before = cache::counters();
        let warm = noc_core::run_experiment_jobs_with_cache(jobs(), parallelism, &cache).unwrap();
        let delta = cache::counters().since(&before);
        assert_eq!(warm, reference, "warm pass must equal uncached results");
        assert_eq!((delta.hits, delta.misses), (6, 0));
    }

    // Partially warm: two new seeds slot in between existing points and
    // only they simulate, in deterministic order.
    let mut extended = jobs();
    extended.insert(
        2,
        ExperimentJob {
            experiment: small_experiment(0.1),
            seed: 99,
        },
    );
    extended.push(ExperimentJob {
        experiment: small_experiment(0.3),
        seed: 100,
    });
    let before = cache::counters();
    let mixed =
        noc_core::run_experiment_jobs_with_cache(extended.clone(), Parallelism::Fixed(2), &cache)
            .unwrap();
    let delta = cache::counters().since(&before);
    assert_eq!((delta.hits, delta.misses), (6, 2));
    for (job, result) in extended.iter().zip(&mixed) {
        assert_eq!(result, &job.run().unwrap(), "splice order must match jobs");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_keeps_newest_records_within_budget() {
    let dir = unique_temp_dir("noc-cache-gc");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let mut sizes = Vec::new();
    for seed in 0..4u64 {
        let result = exp.run_with_seed(seed).unwrap();
        cache.store(&exp, seed, &result).unwrap();
        // Space out mtimes so "oldest first" is well defined even on
        // coarse filesystem clocks.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sizes.push(cache.stats().unwrap().total_bytes);
    }
    let total = *sizes.last().unwrap();
    let budget = total - 1; // force at least one eviction
    let outcome = cache.gc(budget).unwrap();
    assert!(outcome.removed >= 1);
    assert!(outcome.remaining.total_bytes <= budget);
    assert_eq!(
        outcome.remaining.entries,
        4 - outcome.removed,
        "{outcome:?}"
    );
    // The newest record survived; the oldest was the first to go.
    assert!(
        cache.lookup(&exp, 3).is_some(),
        "newest record must survive"
    );
    assert!(
        cache.lookup(&exp, 0).is_none(),
        "oldest record must be evicted"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// All record files in the store, sorted.
fn record_paths(cache: &ExperimentCache) -> Vec<std::path::PathBuf> {
    let mut paths = Vec::new();
    let mut stack = vec![cache.dir().unwrap().to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "noc") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths
}
