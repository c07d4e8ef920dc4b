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
//!   rejected by the checksum, a payload that passes the checksum but
//!   does not decode is rejected by the decoder, the point is
//!   recomputed, the bad entry is replaced, and nothing ever panics or
//!   returns a wrong result;
//! * **incremental scheduling** — a cold pass simulates and stores
//!   every point, a warm pass answers all of them from disk
//!   bit-identically, sequential or parallel; with hits answered on
//!   the workers, the lowest-index error still wins and stores land in
//!   job order;
//! * **store hygiene** — a store that fails leaves no tempfile behind;
//! * **layout** — records sit one directory below the root, in at most
//!   16 shards that a store creates only when it finds them missing;
//!   a record anywhere else is misfiled, and `verify --fix` removes it.

use noc_core::cache::{
    self, canonical_key, code_version_token, fingerprint, fingerprint_with, unique_temp_dir,
    ExperimentCache, CACHE_SCHEMA,
};
use noc_core::{run_jobs, CoreError, Experiment, ExperimentJob, Parallelism, RunResult};
use noc_core::{TopologySpec, TrafficSpec};
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

/// One point through the cached runner: lookup, simulate on a miss,
/// store.
fn run_one(
    cache: &ExperimentCache,
    experiment: &Experiment,
    seed: u64,
) -> Result<RunResult, CoreError> {
    let job = ExperimentJob {
        experiment: experiment.clone(),
        seed,
    };
    Ok(run_jobs(vec![job], Parallelism::Sequential, cache)?.remove(0))
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
            ("router_delay", {
                let mut e = base.clone();
                e.config.router_delay += 1;
                e
            }),
            ("sparse", {
                let mut e = base.clone();
                e.config.sparse = !e.config.sparse;
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
    // encoding changed — which requires a `CACHE_SCHEMA` bump, unless
    // the change re-keys every spec (a field leaving `SimConfig` does),
    // so that no old record can answer a new key.
    let exp = experiment(1, 2, true, 0.25, 42);
    let fp = fingerprint_with(2, "test-token", &exp, 42);
    let again = fingerprint_with(2, "test-token", &exp, 42);
    assert_eq!(fp, again);
    assert_eq!(fp.hex().len(), 32);
    assert_eq!(fp.hex(), "7dd92cb2ae702ce8251459f733088873");
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
        let recomputed = run_one(&cache, &exp, 7).unwrap();
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
        let recomputed = run_one(&cache, &exp, 7).unwrap();
        assert_eq!(recomputed, fresh);
        assert_eq!(std::fs::read(&record).unwrap(), full, "entry replaced");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparsable_payload_with_valid_checksum_is_evicted() {
    // A payload the checksum vouches for can still fail to decode (a
    // writer bug, say). Append one byte to the payload and recompute
    // the envelope's length and checksum: only the payload decoder can
    // reject it.
    let dir = unique_temp_dir("noc-cache-payload");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let record = record_paths(&cache)[0].clone();
    let full = std::fs::read(&record).unwrap();

    let word = |at: usize| u32::from_le_bytes(full[at..at + 4].try_into().unwrap()) as usize;
    let (key_len, payload_len) = (word(8), word(12));
    let key = &full[24..24 + key_len];
    let mut payload = full[24 + key_len..].to_vec();
    assert_eq!(payload.len(), payload_len);
    payload.push(0);
    let mut damaged = full[..24].to_vec();
    damaged[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let checksum = fnv1a_64(key) ^ fnv1a_64(&payload).rotate_left(1);
    damaged[16..24].copy_from_slice(&checksum.to_le_bytes());
    damaged.extend_from_slice(key);
    damaged.extend_from_slice(&payload);

    std::fs::write(&record, &damaged).unwrap();
    let report = cache.verify(false).unwrap();
    assert_eq!((report.ok, report.corrupt.len()), (0, 1), "{report:?}");
    assert!(
        report.corrupt[0].1.starts_with("payload does not parse"),
        "{report:?}"
    );
    assert!(cache.lookup(&exp, 7).is_none(), "damaged payload must miss");
    assert!(!record.exists(), "damaged record must be evicted");
    assert_eq!(run_one(&cache, &exp, 7).unwrap(), fresh);
    assert_eq!(std::fs::read(&record).unwrap(), full, "entry replaced");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn previous_schema_record_is_reported_and_evicted() {
    // No reader for older layouts is kept: a record stamped with the
    // previous schema is stale, whatever its payload.
    let dir = unique_temp_dir("noc-cache-schema");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    cache
        .store(&exp, 7, &exp.run_with_seed(7).unwrap())
        .unwrap();
    let record = record_paths(&cache)[0].clone();
    let mut stale = std::fs::read(&record).unwrap();
    stale[4..8].copy_from_slice(&(CACHE_SCHEMA - 1).to_le_bytes());
    std::fs::write(&record, &stale).unwrap();
    let report = cache.verify(false).unwrap();
    assert_eq!(
        report.corrupt[0].1,
        format!("schema {} != {CACHE_SCHEMA}", CACHE_SCHEMA - 1)
    );
    assert!(cache.lookup(&exp, 7).is_none());
    assert!(!record.exists(), "stale record must be evicted");
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
    let reference = run_jobs(
        jobs(),
        Parallelism::Sequential,
        &ExperimentCache::disabled(),
    )
    .unwrap();

    let before = cache::counters();
    let cold = run_jobs(jobs(), Parallelism::Fixed(4), &cache).unwrap();
    let cold_delta = cache::counters().since(&before);
    assert_eq!(cold, reference, "cold pass must equal uncached results");
    assert_eq!(
        (cold_delta.hits, cold_delta.misses, cold_delta.stores),
        (0, 6, 6)
    );

    // Warm: every point answered from disk, same bytes, no simulation.
    for parallelism in [Parallelism::Sequential, Parallelism::Fixed(4)] {
        let before = cache::counters();
        let warm = run_jobs(jobs(), parallelism, &cache).unwrap();
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
    let mixed = run_jobs(extended.clone(), Parallelism::Fixed(2), &cache).unwrap();
    let delta = cache::counters().since(&before);
    assert_eq!((delta.hits, delta.misses), (6, 2));
    for (job, result) in extended.iter().zip(&mixed) {
        assert_eq!(result, &job.run().unwrap(), "splice order must match jobs");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn first_error_wins_with_hits_on_the_workers() {
    let dir = unique_temp_dir("noc-cache-precedence");
    let cache = ExperimentCache::at(&dir);
    let invalid = Experiment {
        topology: TopologySpec::Ring { nodes: 1 },
        ..small_experiment(0.2)
    };
    let job = |experiment: &Experiment, seed| ExperimentJob {
        experiment: experiment.clone(),
        seed,
    };
    let jobs = vec![
        job(&small_experiment(0.1), 7),
        job(&invalid, 7),
        job(&small_experiment(0.2), 7),
        job(&invalid, 8),
        job(&small_experiment(0.3), 7),
    ];
    for hit in [&jobs[0], &jobs[2]] {
        run_one(&cache, &hit.experiment, hit.seed).unwrap();
    }
    let expected = jobs[1].run().unwrap_err().to_string();
    let err = run_jobs(jobs.clone(), Parallelism::Fixed(4), &cache).unwrap_err();
    assert_eq!(err.to_string(), expected, "index 1's error must win");
    assert_eq!(
        cache.lookup(&jobs[4].experiment, jobs[4].seed),
        Some(jobs[4].run().unwrap()),
        "the new point must be stored although a sibling failed"
    );
    assert_eq!(record_paths(&cache).len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stores_land_in_job_order() {
    // Most expensive first, so with four workers the cheap jobs finish
    // before the dear ones: a store made on the worker would stamp a
    // later job with an earlier mtime.
    let dir = unique_temp_dir("noc-cache-store-order");
    let cache = ExperimentCache::at(&dir);
    let jobs: Vec<ExperimentJob> = (0..8u64)
        .map(|i| {
            let mut experiment = experiment(1, 4, false, 0.3, 7);
            experiment.config.measure_cycles = 1_500 * (8 - i);
            ExperimentJob {
                experiment,
                seed: 7,
            }
        })
        .collect();
    run_jobs(jobs.clone(), Parallelism::Fixed(4), &cache).unwrap();
    let mtimes: Vec<_> = jobs
        .iter()
        .map(|job| {
            let path = record_path(&cache, &job.experiment, job.seed);
            std::fs::metadata(path).unwrap().modified().unwrap()
        })
        .collect();
    assert!(
        mtimes.windows(2).all(|pair| pair[0] <= pair[1]),
        "record mtimes must follow job order: {mtimes:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_store_leaves_no_tempfile() {
    let dir = unique_temp_dir("noc-cache-tempfile");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let record = record_path(&cache, &exp, 7);
    // A directory squatting on the record's path makes the rename fail.
    std::fs::create_dir_all(&record).unwrap();
    let shard = record.parent().unwrap();
    let fresh = exp.run_with_seed(7).unwrap();
    assert!(cache.store(&exp, 7, &fresh).is_err());
    let leftovers: Vec<_> = std::fs::read_dir(shard)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "stranded tempfiles: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_into_a_missing_root_creates_the_root_and_one_shard() {
    let dir = unique_temp_dir("noc-cache-fresh-root");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    assert!(!dir.exists());
    assert!(cache
        .store(&exp, 7, &exp.run_with_seed(7).unwrap())
        .unwrap());
    let record = record_path(&cache, &exp, 7);
    let shard = record.parent().unwrap();
    assert_eq!(
        entry_names(&dir),
        [shard.file_name().unwrap().to_string_lossy()]
    );
    assert_eq!(
        entry_names(shard),
        [record.file_name().unwrap().to_string_lossy()]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_recreates_a_deleted_shard() {
    let dir = unique_temp_dir("noc-cache-deleted-shard");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let record = record_path(&cache, &exp, 7);
    std::fs::remove_dir_all(record.parent().unwrap()).unwrap();
    assert!(cache.store(&exp, 7, &fresh).unwrap());
    assert_eq!(cache.lookup(&exp, 7), Some(fresh));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_under_a_file_root_fails_and_leaves_no_tempfile() {
    let base = unique_temp_dir("noc-cache-file-root");
    std::fs::create_dir_all(&base).unwrap();
    let root = base.join("store");
    std::fs::write(&root, b"not a directory").unwrap();
    let cache = ExperimentCache::at(&root);
    let exp = small_experiment(0.2);
    assert!(cache
        .store(&exp, 7, &exp.run_with_seed(7).unwrap())
        .is_err());
    assert_eq!(entry_names(&base), ["store"]);
    assert_eq!(std::fs::read(&root).unwrap(), b"not a directory");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn records_lie_one_level_below_the_root() {
    let dir = unique_temp_dir("noc-cache-one-level");
    let cache = ExperimentCache::at(&dir);
    let jobs: Vec<ExperimentJob> = (0..40u64)
        .map(|seed| ExperimentJob {
            experiment: small_experiment(0.2),
            seed,
        })
        .collect();
    run_jobs(jobs.clone(), Parallelism::Fixed(2), &cache).unwrap();
    let records = record_paths(&cache);
    assert_eq!(records.len(), jobs.len());
    for record in &records {
        let shard = record.parent().unwrap();
        assert_eq!(shard.parent().unwrap(), dir, "{record:?}");
        let stem = record.file_stem().unwrap().to_string_lossy();
        assert_eq!(shard.file_name().unwrap().to_string_lossy(), stem[..1]);
    }
    let shards = entry_names(&dir);
    assert!(shards.len() <= 16, "{shards:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_layout_record_is_misfiled_and_fixed() {
    // The two-level layout this store used before kept a record at
    // `<dir>/<hex[0..2]>/<hex[2..4]>/<hex>.noc`. Lookups never read it.
    let dir = unique_temp_dir("noc-cache-old-layout");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let record = record_path(&cache, &exp, 7);
    let hex = fingerprint(&exp, 7).hex();
    let old_shard = dir.join(&hex[0..2]).join(&hex[2..4]);
    std::fs::create_dir_all(&old_shard).unwrap();
    let old = old_shard.join(format!("{hex}.noc"));
    std::fs::copy(&record, &old).unwrap();

    let report = cache.verify(false).unwrap();
    assert_eq!((report.ok, report.corrupt.len()), (1, 1), "{report:?}");
    assert_eq!(report.corrupt[0].0, old);
    assert!(report.corrupt[0].1.starts_with("misfiled"), "{report:?}");

    let fixed = cache.verify(true).unwrap();
    assert_eq!((fixed.ok, fixed.removed), (1, 1), "{fixed:?}");
    assert!(!old.exists());
    assert!(!dir.join(&hex[0..2]).exists(), "emptied old shards go too");
    assert_eq!(record_paths(&cache), [record]);
    assert_eq!(cache.lookup(&exp, 7), Some(fresh));
    let clean = cache.verify(false).unwrap();
    assert_eq!((clean.ok, clean.corrupt.len()), (1, 0), "{clean:?}");
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

/// FNV-1a, 64-bit: the record checksum's hash.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x00000100000001b3)
    })
}

/// Where the store keeps the record of (experiment, seed): the shard
/// named by the first hex digit, then the fingerprint as the file stem.
fn record_path(cache: &ExperimentCache, experiment: &Experiment, seed: u64) -> std::path::PathBuf {
    let hex = fingerprint(experiment, seed).hex();
    cache
        .dir()
        .unwrap()
        .join(&hex[0..1])
        .join(format!("{hex}.noc"))
}

/// The names of a directory's entries, sorted.
fn entry_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
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
