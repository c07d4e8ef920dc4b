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
//! * **corruption robustness** — truncated packs and bit-flipped
//!   spans are rejected by the checksums, a payload that passes the
//!   checksum but does not decode is rejected by the decoder; the point
//!   misses, is recomputed into a newer pack that answers the next
//!   lookup, `verify` reports the old span and `verify --fix` drops it,
//!   and nothing ever panics or returns a wrong result;
//! * **incremental scheduling** — a cold pass simulates and stores
//!   every point, a warm pass answers all of them from disk
//!   bit-identically, sequential or parallel; with hits answered on
//!   the workers, the lowest-index error still wins and a pack indexes
//!   its records in job order;
//! * **one file per call** — a cold call with misses creates exactly
//!   one file in the store and a warm call none, and a property test
//!   over interleaved batches (duplicate keys, corrupted spans, `gc`)
//!   checks that every lookup misses or equals the fresh result and
//!   that `stats().entries` counts the distinct live keys;
//! * **store hygiene** — a store that fails leaves no tempfile behind;
//! * **layout** — a store holds one `packs` directory of `.nocp` files;
//!   `verify --fix` moves the one-record `.noc` files of earlier
//!   layouts into a pack.

use noc_core::cache::{
    self, canonical_key, code_version_token, fingerprint, fingerprint_with, unique_temp_dir,
    ExperimentCache, CACHE_SCHEMA,
};
use noc_core::{run_jobs, CoreError, Experiment, ExperimentJob, Parallelism, RunResult};
use noc_core::{TopologySpec, TrafficSpec};
use noc_sim::SimConfig;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

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
fn truncated_pack_misses_and_a_newer_pack_answers() {
    let dir = unique_temp_dir("noc-cache-truncate");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let full = std::fs::read(&pack_paths(&dir)[0]).unwrap();

    // Truncate at several depths, including inside the first record's
    // header and inside the trailer.
    for keep in [0usize, 10, 24, full.len() / 2, full.len() - 1] {
        let pack = newest_pack(&dir);
        std::fs::write(&pack, &full[..keep]).unwrap();
        assert!(
            ExperimentCache::at(&dir).lookup(&exp, 7).is_none(),
            "truncated to {keep} bytes must miss"
        );
        // The recomputed point goes into a newer pack, which answers
        // the next lookup.
        let recomputed = run_one(&cache, &exp, 7).unwrap();
        assert_eq!(
            recomputed, fresh,
            "recomputed point must equal the original"
        );
        assert_eq!(
            std::fs::read(newest_pack(&dir)).unwrap(),
            full,
            "entry replaced"
        );
        assert_eq!(
            ExperimentCache::at(&dir).lookup(&exp, 7),
            Some(fresh.clone())
        );
        assert_old_pack_reported_and_fixed(&cache, &pack);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_span_misses_and_a_newer_pack_answers() {
    let dir = unique_temp_dir("noc-cache-bitflip");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let full = std::fs::read(&pack_paths(&dir)[0]).unwrap();
    let (_, _, span_len) = pack_index(&pack_paths(&dir)[0])[0].clone();

    // Flip one bit in the magic, the header lengths, the checksum, the
    // key and the payload — every region must be caught.
    for position in [0usize, 9, 17, 30, span_len - 3] {
        let pack = newest_pack(&dir);
        let mut damaged = full.clone();
        damaged[position] ^= 0x10;
        std::fs::write(&pack, &damaged).unwrap();
        let looked_up = ExperimentCache::at(&dir).lookup(&exp, 7);
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
        assert_eq!(
            std::fs::read(newest_pack(&dir)).unwrap(),
            full,
            "entry replaced"
        );
        assert_old_pack_reported_and_fixed(&cache, &pack);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unparsable_payload_with_valid_checksum_misses_and_is_fixed() {
    // A payload the checksum vouches for can still fail to decode (a
    // writer bug, say). Append one byte to the payload and recompute
    // the envelope's length and checksum and the pack's index: only
    // the payload decoder can reject it.
    let dir = unique_temp_dir("noc-cache-payload");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let record = pack_paths(&dir)[0].clone();
    let full = std::fs::read(&record).unwrap();
    let (hex, _, span_len) = pack_index(&record)[0].clone();
    let span = &full[..span_len];

    let word = |at: usize| u32::from_le_bytes(span[at..at + 4].try_into().unwrap()) as usize;
    let (key_len, payload_len) = (word(8), word(12));
    let key = &span[24..24 + key_len];
    let mut payload = span[24 + key_len..].to_vec();
    assert_eq!(payload.len(), payload_len);
    payload.push(0);
    let mut damaged = span[..24].to_vec();
    damaged[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    let checksum = fnv1a_64(key) ^ fnv1a_64(&payload).rotate_left(1);
    damaged[16..24].copy_from_slice(&checksum.to_le_bytes());
    damaged.extend_from_slice(key);
    damaged.extend_from_slice(&payload);

    write_pack(&record, &[(hex, damaged)]);
    let report = cache.verify(false).unwrap();
    assert_eq!((report.ok, report.corrupt.len()), (0, 1), "{report:?}");
    assert!(
        report.corrupt[0].1.starts_with("payload does not parse"),
        "{report:?}"
    );
    assert!(cache.lookup(&exp, 7).is_none(), "damaged payload must miss");
    assert_eq!(run_one(&cache, &exp, 7).unwrap(), fresh);
    assert_eq!(
        std::fs::read(newest_pack(&dir)).unwrap(),
        full,
        "entry replaced"
    );
    assert_old_pack_reported_and_fixed(&cache, &record);
    assert!(!record.exists(), "damaged record must be evicted");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn previous_schema_span_is_reported_and_fixed() {
    // No reader for older layouts is kept: a record stamped with the
    // previous schema is stale, whatever its payload.
    let dir = unique_temp_dir("noc-cache-schema");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    cache
        .store(&exp, 7, &exp.run_with_seed(7).unwrap())
        .unwrap();
    let record = pack_paths(&dir)[0].clone();
    let mut stale = std::fs::read(&record).unwrap();
    stale[4..8].copy_from_slice(&(CACHE_SCHEMA - 1).to_le_bytes());
    std::fs::write(&record, &stale).unwrap();
    let report = cache.verify(false).unwrap();
    assert_eq!(
        report.corrupt[0].1,
        format!("schema {} != {CACHE_SCHEMA}", CACHE_SCHEMA - 1)
    );
    assert!(cache.lookup(&exp, 7).is_none());
    let fixed = cache.verify(true).unwrap();
    assert_eq!(fixed.removed, 1, "{fixed:?}");
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
    assert_eq!(cache.stats().unwrap().entries, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_pack_indexes_its_records_in_job_order() {
    // Most expensive first, so with four workers the cheap jobs finish
    // before the dear ones: a pack written in completion order would
    // index a later job before an earlier one.
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
    let packs = pack_paths(&dir);
    assert_eq!(packs.len(), 1, "one pack per call: {packs:?}");
    let index = pack_index(&packs[0]);
    let indexed: Vec<&str> = index.iter().map(|(hex, _, _)| hex.as_str()).collect();
    let expected: Vec<String> = jobs
        .iter()
        .map(|job| fingerprint(&job.experiment, job.seed).hex())
        .collect();
    assert_eq!(indexed, expected, "the index must follow job order");
    assert!(
        index
            .windows(2)
            .all(|pair| pair[0].1 + pair[0].2 == pair[1].1),
        "records must lie back to back in job order: {index:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_store_leaves_no_tempfile() {
    let dir = unique_temp_dir("noc-cache-tempfile");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    // Restamp the pack far ahead: a handle that has read it names its
    // next pack one stamp later, so that name is known in advance.
    let packs = dir.join("packs");
    let stamp: u64 = 0xf000_0000_0000_0000;
    std::fs::rename(
        &pack_paths(&dir)[0],
        packs.join(format!("{stamp:016x}-0.nocp")),
    )
    .unwrap();
    assert_eq!(cache.lookup(&exp, 7), Some(fresh.clone()));
    // A directory squatting on the pack's path makes the rename fail.
    let next = format!("{:016x}-{:08x}.nocp", stamp + 1, std::process::id());
    std::fs::create_dir(packs.join(next)).unwrap();
    assert!(cache.store(&exp, 8, &fresh).is_err());
    let leftovers: Vec<_> = entry_names(&packs)
        .into_iter()
        .filter(|name| name.starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "stranded tempfiles: {leftovers:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_into_a_missing_root_creates_the_root_and_one_pack() {
    let dir = unique_temp_dir("noc-cache-fresh-root");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    assert!(!dir.exists());
    assert!(cache
        .store(&exp, 7, &exp.run_with_seed(7).unwrap())
        .unwrap());
    assert_eq!(entry_names(&dir), ["packs"]);
    let packs = entry_names(&dir.join("packs"));
    assert_eq!(packs.len(), 1, "{packs:?}");
    assert!(packs[0].ends_with(".nocp"), "{packs:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_recreates_a_deleted_packs_directory() {
    let dir = unique_temp_dir("noc-cache-deleted-packs");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    std::fs::remove_dir_all(dir.join("packs")).unwrap();
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
fn one_call_stores_one_pack() {
    let dir = unique_temp_dir("noc-cache-one-pack");
    let cache = ExperimentCache::at(&dir);
    let jobs: Vec<ExperimentJob> = (0..40u64)
        .map(|seed| ExperimentJob {
            experiment: small_experiment(0.2),
            seed,
        })
        .collect();
    run_jobs(jobs.clone(), Parallelism::Fixed(2), &cache).unwrap();
    assert_eq!(entry_names(&dir), ["packs"]);
    let packs = entry_names(&dir.join("packs"));
    assert_eq!(packs.len(), 1, "{packs:?}");
    assert_eq!(pack_index(&pack_paths(&dir)[0]).len(), jobs.len());
    let stats = cache.stats().unwrap();
    assert_eq!((stats.packs, stats.entries), (1, jobs.len()), "{stats:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_cold_call_creates_one_file_and_a_warm_call_none() {
    let dir = unique_temp_dir("noc-cache-file-count");
    let jobs = |seeds: &[u64]| -> Vec<ExperimentJob> {
        seeds
            .iter()
            .map(|&seed| ExperimentJob {
                experiment: small_experiment(0.2),
                seed,
            })
            .collect()
    };
    // Five misses, one of them asked for twice.
    let cold = jobs(&[1, 2, 3, 2, 4, 5]);
    let before = cache::counters();
    run_jobs(
        cold.clone(),
        Parallelism::Fixed(2),
        &ExperimentCache::at(&dir),
    )
    .unwrap();
    let delta = cache::counters().since(&before);
    assert_eq!((delta.misses, delta.stores), (6, 5));
    let filled = store_files(&dir);
    assert_eq!(filled.len(), 1, "{filled:?}");

    for parallelism in [Parallelism::Sequential, Parallelism::Fixed(2)] {
        let before = cache::counters();
        run_jobs(cold.clone(), parallelism, &ExperimentCache::at(&dir)).unwrap();
        assert_eq!(cache::counters().since(&before).misses, 0);
        assert_eq!(store_files(&dir), filled, "a warm call creates no file");
    }

    // Partly warm: two misses, one new file.
    run_jobs(
        jobs(&[1, 6, 2, 7]),
        Parallelism::Fixed(2),
        &ExperimentCache::at(&dir),
    )
    .unwrap();
    let grown = store_files(&dir);
    assert_eq!(grown.len(), 2, "{grown:?}");
    assert!(filled.iter().all(|file| grown.contains(file)));
    assert_eq!(ExperimentCache::at(&dir).stats().unwrap().entries, 7);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_layout_record_is_unpacked_and_fixed() {
    // The two-level layout this store used before kept a record at
    // `<dir>/<hex[0..2]>/<hex[2..4]>/<hex>.noc`. Lookups never read it.
    let dir = unique_temp_dir("noc-cache-old-layout");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let fresh = exp.run_with_seed(7).unwrap();
    cache.store(&exp, 7, &fresh).unwrap();
    let record = pack_paths(&dir)[0].clone();
    let hex = fingerprint(&exp, 7).hex();
    let old_shard = dir.join(&hex[0..2]).join(&hex[2..4]);
    std::fs::create_dir_all(&old_shard).unwrap();
    let old = old_shard.join(format!("{hex}.noc"));
    std::fs::write(&old, span_bytes(&record, 0)).unwrap();

    let report = cache.verify(false).unwrap();
    assert_eq!((report.ok, report.corrupt.len()), (1, 1), "{report:?}");
    assert_eq!(report.corrupt[0].0, old);
    assert!(report.corrupt[0].1.starts_with("unpacked"), "{report:?}");

    // Its key is already in a pack, so the fix drops it.
    let fixed = cache.verify(true).unwrap();
    assert_eq!((fixed.ok, fixed.removed), (1, 1), "{fixed:?}");
    assert_eq!(fixed.migrated, 0, "{fixed:?}");
    assert!(!old.exists());
    assert!(!dir.join(&hex[0..2]).exists(), "emptied old shards go too");
    assert_eq!(pack_paths(&dir), [record]);
    assert_eq!(cache.lookup(&exp, 7), Some(fresh));
    let clean = cache.verify(false).unwrap();
    assert_eq!((clean.ok, clean.corrupt.len()), (1, 0), "{clean:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_layout_store_moves_into_one_pack() {
    // The 16-shard layout kept each record at `<dir>/<hex[0]>/<hex>.noc`,
    // the two-level one at `<dir>/<hex[0..2]>/<hex[2..4]>/<hex>.noc`.
    let seeds = [1u64, 2, 3];
    let jobs: Vec<ExperimentJob> = seeds
        .iter()
        .map(|&seed| ExperimentJob {
            experiment: small_experiment(0.2),
            seed,
        })
        .collect();
    let packed = unique_temp_dir("noc-cache-packed");
    let fresh = run_jobs(
        jobs.clone(),
        Parallelism::Sequential,
        &ExperimentCache::at(&packed),
    )
    .unwrap();
    let source = pack_paths(&packed)[0].clone();

    let dir = unique_temp_dir("noc-cache-shards");
    let mut legacy = Vec::new();
    for (at, (hex, _, _)) in pack_index(&source).into_iter().enumerate() {
        let path = if at == 2 {
            dir.join(&hex[0..2])
                .join(&hex[2..4])
                .join(format!("{hex}.noc"))
        } else {
            dir.join(&hex[0..1]).join(format!("{hex}.noc"))
        };
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, span_bytes(&source, at)).unwrap();
        legacy.push(path);
    }
    // A damaged record cannot be moved; the fix deletes it.
    let mut damaged = span_bytes(&source, 0);
    let last = damaged.len() - 1;
    damaged[last] ^= 0x01;
    std::fs::create_dir_all(dir.join("e")).unwrap();
    std::fs::write(dir.join("e").join("damaged.noc"), &damaged).unwrap();

    let cache = ExperimentCache::at(&dir);
    assert!(cache.lookup(&jobs[0].experiment, jobs[0].seed).is_none());
    let report = cache.verify(false).unwrap();
    assert_eq!((report.ok, report.corrupt.len()), (0, 4), "{report:?}");
    let unpacked = report
        .corrupt
        .iter()
        .filter(|(_, why)| why.starts_with("unpacked"))
        .count();
    assert_eq!(unpacked, 3, "{report:?}");

    let fixed = cache.verify(true).unwrap();
    assert_eq!((fixed.migrated, fixed.removed), (3, 1), "{fixed:?}");
    assert_eq!(entry_names(&dir), ["packs"], "the old shards are gone");
    assert_eq!(pack_paths(&dir).len(), 1);
    assert_eq!(cache.stats().unwrap().entries, 3);
    let before = cache::counters();
    let warm = run_jobs(jobs, Parallelism::Fixed(2), &cache).unwrap();
    assert_eq!(warm, fresh);
    assert_eq!(cache::counters().since(&before).misses, 0);
    let clean = cache.verify(false).unwrap();
    assert_eq!((clean.ok, clean.corrupt.len()), (3, 0), "{clean:?}");
    std::fs::remove_dir_all(&packed).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `noc-cli` in `dir` on the quick figure grid with the store at
/// `dir/store`; returns its stdout, or panics if its exit status is not
/// `success`.
fn noc_cli(dir: &Path, args: &[&str], success: bool) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_noc-cli"))
        .args(args)
        .current_dir(dir)
        .env("NOC_FIGURE_MODE", "quick")
        .env("NOC_CACHE", "store")
        .output()
        .unwrap();
    assert_eq!(out.status.success(), success, "{args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

/// The `cache: H hit(s), M miss(es)` line of a run's output.
fn cache_line(stdout: &str) -> &str {
    stdout
        .lines()
        .find(|line| line.starts_with("cache: "))
        .expect("a cached run ends with its cache line")
}

#[test]
fn a_shard_layout_store_answers_warm_figures_after_fix() {
    let dir = unique_temp_dir("noc-cli-migrate");
    std::fs::create_dir_all(&dir).unwrap();
    let cold = noc_cli(&dir, &["figures"], true);
    let (hits, misses) = cache_line(&cold)
        .strip_prefix("cache: ")
        .and_then(|rest| rest.strip_suffix(" miss(es)"))
        .and_then(|rest| rest.split_once(" hit(s), "))
        .map(|(h, m)| (h.parse::<usize>().unwrap(), m.parse::<usize>().unwrap()))
        .unwrap();
    assert!(misses > 0, "{cold}");

    // Rewrite the store in the 16-shard layout, one file per record at
    // `<hex[0]>/<hex>.noc`.
    let store = dir.join("store");
    for pack in pack_paths(&store) {
        for (at, (hex, _, _)) in pack_index(&pack).into_iter().enumerate() {
            let shard = store.join(&hex[0..1]);
            std::fs::create_dir_all(&shard).unwrap();
            std::fs::write(shard.join(format!("{hex}.noc")), span_bytes(&pack, at)).unwrap();
        }
    }
    std::fs::remove_dir_all(store.join("packs")).unwrap();

    let listed = noc_cli(&dir, &["cache", "verify"], false);
    let unpacked = listed.lines().filter(|l| l.contains("(unpacked")).count();
    assert_eq!(unpacked, misses, "{listed}");
    let fixed = noc_cli(&dir, &["cache", "verify", "--fix"], true);
    assert!(
        fixed.ends_with(&format!(
            "0 ok, {misses} corrupt, 0 removed, {misses} moved into a pack\n"
        )),
        "{fixed}"
    );
    let stats = noc_cli(&dir, &["cache", "stats"], true);
    assert!(
        stats.contains(&format!(": 1 pack(s), {misses} record(s), ")),
        "{stats}"
    );

    let warm = noc_cli(&dir, &["figures"], true);
    assert_eq!(
        cache_line(&warm),
        format!("cache: {} hit(s), 0 miss(es)", hits + misses)
    );
    let gc = noc_cli(&dir, &["cache", "gc", "--max-bytes", "0"], true);
    assert!(
        gc.contains(&format!("removed 1 pack(s) holding {misses} record(s)")),
        "{gc}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gc_keeps_newest_packs_within_budget() {
    let dir = unique_temp_dir("noc-cache-gc");
    let cache = ExperimentCache::at(&dir);
    let exp = small_experiment(0.2);
    let mut sizes = Vec::new();
    for seed in 0..4u64 {
        let result = exp.run_with_seed(seed).unwrap();
        // One pack per store, each named after the last.
        cache.store(&exp, seed, &result).unwrap();
        sizes.push(cache.stats().unwrap().total_bytes);
    }
    let total = *sizes.last().unwrap();
    let budget = total - 1; // force at least one eviction
    let outcome = cache.gc(budget).unwrap();
    assert!(outcome.removed >= 1);
    assert_eq!(outcome.removed_packs, outcome.removed, "{outcome:?}");
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

/// The store's state in a property test: its packs, oldest first, as
/// (path, keys in index order, keys whose span was damaged).
#[derive(Debug, Default)]
struct Model {
    packs: Vec<(std::path::PathBuf, Vec<usize>, Vec<usize>)>,
}

impl Model {
    /// Whether the newest span of `key` is intact: a lookup must hit.
    fn answers(&self, key: usize) -> bool {
        self.packs
            .iter()
            .rev()
            .find(|(_, keys, _)| keys.contains(&key))
            .is_some_and(|(_, _, damaged)| !damaged.contains(&key))
    }

    /// Distinct keys some pack indexes.
    fn live(&self) -> usize {
        let mut keys: Vec<usize> = self.packs.iter().flat_map(|(_, k, _)| k.clone()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }
}

/// One step of the property test.
#[derive(Clone, Debug)]
enum Step {
    /// Run these keys (duplicates allowed) as one engine call.
    Batch(Vec<usize>),
    /// Flip a payload byte of one span: (pack pick, entry pick).
    Corrupt(usize, usize),
    /// Collect down to this share (percent) of the store's bytes.
    Gc(u64),
}

impl Step {
    /// Decodes one drawn tuple: kinds 0–2 are batches, 3 a damaged
    /// span, 4 a collection.
    fn from_draw((kind, keys, pack, entry, share): (u8, Vec<usize>, usize, usize, u64)) -> Self {
        match kind {
            0..=2 => Step::Batch(keys),
            3 => Step::Corrupt(pack, entry),
            _ => Step::Gc(share),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Interleaved batches, damaged spans and collections: every lookup
    /// misses or equals the fresh result, each call with misses writes
    /// one pack of its distinct keys, and `stats().entries` counts the
    /// distinct keys the remaining packs hold.
    #[test]
    fn interleaved_batches_corruption_and_gc(
        draws in proptest::collection::vec(
            (0u8..5, proptest::collection::vec(0usize..6, 1..6), 0usize..8, 0usize..8, 0u64..100),
            1..12,
        ),
    ) {
        let point = |key: usize| {
            let mut experiment = experiment(0, 4, key % 2 == 1, 0.2, 0);
            experiment.config.measure_cycles = 40;
            (experiment, key as u64)
        };
        let fresh: Vec<RunResult> = (0..6)
            .map(|key| {
                let (experiment, seed) = point(key);
                experiment.run_with_seed(seed).unwrap()
            })
            .collect();
        let dir = unique_temp_dir("noc-cache-prop");
        let cache = ExperimentCache::at(&dir);
        let mut model = Model::default();
        for step in draws.into_iter().map(Step::from_draw) {
            match step {
                Step::Batch(keys) => {
                    let jobs: Vec<ExperimentJob> = keys
                        .iter()
                        .map(|&key| {
                            let (experiment, seed) = point(key);
                            ExperimentJob { experiment, seed }
                        })
                        .collect();
                    let before = cache::counters();
                    let results = run_jobs(jobs, Parallelism::Fixed(2), &cache).unwrap();
                    let delta = cache::counters().since(&before);
                    for (key, result) in keys.iter().zip(&results) {
                        prop_assert_eq!(result, &fresh[*key]);
                    }
                    let missed: Vec<usize> =
                        keys.iter().copied().filter(|&key| !model.answers(key)).collect();
                    prop_assert_eq!(delta.misses, missed.len() as u64);
                    let mut stored = Vec::new();
                    for key in missed {
                        if !stored.contains(&key) {
                            stored.push(key);
                        }
                    }
                    let packs = pack_paths(&dir);
                    let known = model.packs.len();
                    if stored.is_empty() {
                        prop_assert_eq!(packs.len(), known, "a warm call writes no pack");
                    } else {
                        prop_assert_eq!(packs.len(), known + 1, "one pack per call");
                        let newest = packs.last().unwrap().clone();
                        let indexed: Vec<String> =
                            pack_index(&newest).into_iter().map(|(hex, _, _)| hex).collect();
                        let expected: Vec<String> = stored
                            .iter()
                            .map(|&key| {
                                let (experiment, seed) = point(key);
                                fingerprint(&experiment, seed).hex()
                            })
                            .collect();
                        prop_assert_eq!(indexed, expected);
                        model.packs.push((newest, stored, Vec::new()));
                    }
                }
                Step::Corrupt(pack, entry) => {
                    if model.packs.is_empty() {
                        continue;
                    }
                    let (path, keys, damaged) = {
                        let at = pack % model.packs.len();
                        &mut model.packs[at]
                    };
                    let at = entry % keys.len();
                    if damaged.contains(&keys[at]) {
                        // A second flip would undo the first.
                        continue;
                    }
                    let (_, offset, len) = pack_index(path)[at].clone();
                    let mut bytes = std::fs::read(&*path).unwrap();
                    bytes[offset + len - 1] ^= 0x20;
                    std::fs::write(&*path, &bytes).unwrap();
                    damaged.push(keys[at]);
                }
                Step::Gc(share) => {
                    let sizes: Vec<u64> = model
                        .packs
                        .iter()
                        .map(|(path, _, _)| std::fs::metadata(path).unwrap().len())
                        .collect();
                    let total: u64 = sizes.iter().sum();
                    let budget = total * share / 100;
                    let outcome = cache.gc(budget).unwrap();
                    let mut left = total;
                    for size in sizes {
                        if left <= budget {
                            break;
                        }
                        let (path, _, _) = model.packs.remove(0);
                        left -= size;
                        prop_assert!(!path.exists(), "gc must evict the oldest pack first");
                    }
                    prop_assert_eq!(outcome.remaining.total_bytes, left);
                }
            }
            let stats = ExperimentCache::at(&dir).stats().unwrap();
            prop_assert_eq!(stats.entries, model.live());
            prop_assert_eq!(stats.packs, model.packs.len());
            let reader = ExperimentCache::at(&dir);
            for (key, expected) in fresh.iter().enumerate() {
                let (experiment, seed) = point(key);
                let found = reader.lookup(&experiment, seed);
                prop_assert_eq!(found.is_some(), model.answers(key), "key {}: {:?}", key, model);
                if let Some(found) = found {
                    prop_assert_eq!(&found, expected);
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// FNV-1a, 64-bit: the record and index checksums' hash.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x00000100000001b3)
    })
}

/// The store's packs, oldest first (their names start with a stamp).
fn pack_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(dir.join("packs")) {
        Ok(entries) => entries
            .map(|entry| entry.unwrap().path())
            .filter(|path| path.extension().is_some_and(|e| e == "nocp"))
            .collect(),
        Err(_) => Vec::new(),
    };
    paths.sort();
    paths
}

/// The store's newest pack, which answers before any older one.
fn newest_pack(dir: &Path) -> PathBuf {
    pack_paths(dir).pop().expect("the store holds a pack")
}

/// A pack's index as (fingerprint hex, offset, length) per record. The
/// pack ends with the index, 28 bytes per record (fingerprint `u128`,
/// offset `u64`, length `u32`), then the trailer `count u32 |
/// fnv64(index) u64 | version u32 | NOCP`.
fn pack_index(path: &Path) -> Vec<(String, usize, usize)> {
    let bytes = std::fs::read(path).unwrap();
    let trailer = &bytes[bytes.len() - 20..];
    assert_eq!(&trailer[16..], b"NOCP");
    let count = u32::from_le_bytes(trailer[0..4].try_into().unwrap()) as usize;
    let index = &bytes[bytes.len() - 20 - 28 * count..bytes.len() - 20];
    index
        .chunks_exact(28)
        .map(|raw| {
            let fingerprint = u128::from_le_bytes(raw[0..16].try_into().unwrap());
            let offset = u64::from_le_bytes(raw[16..24].try_into().unwrap());
            let len = u32::from_le_bytes(raw[24..28].try_into().unwrap());
            (format!("{fingerprint:032x}"), offset as usize, len as usize)
        })
        .collect()
}

/// The envelope bytes of a pack's `at`-th record.
fn span_bytes(path: &Path, at: usize) -> Vec<u8> {
    let (_, offset, len) = pack_index(path)[at].clone();
    std::fs::read(path).unwrap()[offset..offset + len].to_vec()
}

/// Writes a pack of `records` (fingerprint hex, envelope bytes) at
/// `path`, in the layout [`pack_index`] reads.
fn write_pack(path: &Path, records: &[(String, Vec<u8>)]) {
    let (mut bytes, mut index) = (Vec::new(), Vec::new());
    for (hex, record) in records {
        index.extend_from_slice(&u128::from_str_radix(hex, 16).unwrap().to_le_bytes());
        index.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        index.extend_from_slice(&(record.len() as u32).to_le_bytes());
        bytes.extend_from_slice(record);
    }
    let checksum = fnv1a_64(&index);
    bytes.extend_from_slice(&index);
    bytes.extend_from_slice(&(records.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(b"NOCP");
    std::fs::write(path, bytes).unwrap();
}

/// `verify` reports `pack`, whose record a newer pack now holds, and
/// `verify --fix` drops it, leaving one clean record.
fn assert_old_pack_reported_and_fixed(cache: &ExperimentCache, pack: &Path) {
    let report = cache.verify(false).unwrap();
    assert_eq!((report.ok, report.corrupt.len()), (1, 1), "{report:?}");
    assert_eq!(report.corrupt[0].0, pack, "{report:?}");
    let fixed = cache.verify(true).unwrap();
    assert_eq!((fixed.ok, fixed.removed), (1, 1), "{fixed:?}");
    assert!(!pack.exists(), "corrupt record must be evicted");
    let clean = cache.verify(false).unwrap();
    assert_eq!((clean.ok, clean.corrupt.len()), (1, 0), "{clean:?}");
}

/// The names of a directory's entries, sorted.
fn entry_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Every file below `dir` with its modification time, sorted.
fn store_files(dir: &Path) -> Vec<(PathBuf, std::time::SystemTime)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).unwrap() {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                files.push((entry.path(), meta.modified().unwrap()));
            }
        }
    }
    files.sort();
    files
}
