//! Content-addressed experiment cache: memoization of deterministic
//! simulation results.
//!
//! The conformance harness ([`crate::conformance`]) proves a run is a
//! pure function of (topology spec, traffic spec, `SimConfig`, seed,
//! engine version) — bit-identical across engine widths and core
//! variants. That makes results safely memoizable, the same shape as a
//! build system caching object files: regenerating the paper's full
//! figure matrix only re-simulates points whose spec, seed or code
//! version changed.
//!
//! Three pieces:
//!
//! 1. **Fingerprint** — [`fingerprint`] hashes the *canonical encoding*
//!    of an experiment point (JSON of the spec with the effective seed
//!    substituted, field order fixed by declaration) with FNV-1a-128,
//!    salted with a code-version token (the workspace crate versions)
//!    and the bumpable [`CACHE_SCHEMA`] constant, so any semantics
//!    change invalidates every prior key cleanly.
//! 2. **Store** — [`ExperimentCache`] keeps one record per fingerprint
//!    under a two-level sharded directory (`results/.cache/ab/cd/…​.noc`
//!    by default). Records are versioned binary envelopes carrying the
//!    full canonical key (collision proof: the key is compared on read,
//!    not just the hash) and an FNV-1a-64 checksum over key + payload;
//!    writes go through a tempfile + atomic rename; corrupt or
//!    mismatched records are evicted and treated as misses, never
//!    trusted. [`ExperimentCache::gc`] bounds the store's size,
//!    removing oldest-modified records first.
//! 3. **Toggles and accounting** — [`ExperimentCache::from_env`] reads
//!    `NOC_CACHE` (unset/`0`/`off` disables; `1`/`on` selects the
//!    default directory; anything else is a directory path), and global
//!    [`counters`] track hits/misses/stores for reports and CI
//!    assertions. `NOC_CACHE_MAX_BYTES` bounds the store after each
//!    scheduler pass.
//!
//! The incremental scheduler lives in
//! [`crate::parallel::run_experiment_jobs_with_cache`]: it partitions a
//! job list into hits and misses, hands only the misses to the parallel
//! engine, and splices cached results back in deterministic job order —
//! so `run_replicated`, `sweep_rates` and every figure function become
//! incremental without API changes.

use crate::{CoreError, Experiment, RunResult};
use serde::Serialize;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Version of the cache key and record layout. Bump on **any** change
/// that affects simulation semantics or serialized shapes without
/// showing up in the spec itself — every prior key becomes unreachable
/// and the stale records age out via [`ExperimentCache::gc`].
pub const CACHE_SCHEMA: u32 = 2;

/// Default store location, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/.cache";

/// Default size bound applied by `noc-cli cache gc` when no explicit
/// limit is given (1 GiB).
pub const DEFAULT_GC_BYTES: u64 = 1 << 30;

/// File extension of cache records.
const RECORD_EXT: &str = "noc";

/// Magic prefix of every record envelope.
const MAGIC: [u8; 4] = *b"NOCC";

/// Fixed envelope bytes before the key: magic + schema + key length +
/// payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8;

/// The code-version salt folded into every fingerprint: the versions
/// of all crates whose behaviour feeds a simulation result.
pub fn code_version_token() -> String {
    format!(
        "core={};topology={};routing={};traffic={};sim={}",
        env!("CARGO_PKG_VERSION"),
        noc_topology::CRATE_VERSION,
        noc_routing::CRATE_VERSION,
        noc_traffic::CRATE_VERSION,
        noc_sim::CRATE_VERSION,
    )
}

/// 128-bit structural fingerprint of one experiment point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(u128);

impl Fingerprint {
    /// 32-digit lowercase hex form (the record's file stem).
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.hex())
    }
}

/// FNV-1a, 128-bit variant (native `u128` arithmetic; no per-process
/// state, so hashes are stable across processes and platforms).
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u128::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// FNV-1a, 64-bit variant (record checksums).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x00000100000001b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The canonical key serialized (in declaration order) for hashing and
/// for embedding into records.
#[derive(Serialize)]
struct CacheKey {
    schema: u32,
    code_version: String,
    topology: crate::TopologySpec,
    traffic: crate::TrafficSpec,
    config: noc_sim::SimConfig,
}

/// Canonical JSON encoding of an experiment point under an explicit
/// schema number and code-version token (the testable core of
/// [`canonical_key`]; production callers never override the salt).
pub fn canonical_key_with(
    schema: u32,
    code_version: &str,
    experiment: &Experiment,
    seed: u64,
) -> String {
    // The seed is substituted into the config exactly as
    // `Experiment::run_with_seed` does, so the key describes the run
    // that actually executes.
    let mut config = experiment.config.clone();
    config.seed = seed;
    let key = CacheKey {
        schema,
        code_version: code_version.to_owned(),
        topology: experiment.topology,
        traffic: experiment.traffic,
        config,
    };
    serde_json::to_string(&key).expect("cache key serializes")
}

/// Canonical JSON encoding of an experiment point: schema, code
/// version, topology, traffic and the config with the effective seed.
pub fn canonical_key(experiment: &Experiment, seed: u64) -> String {
    canonical_key_with(CACHE_SCHEMA, &code_version_token(), experiment, seed)
}

/// Fingerprint under an explicit schema/token (see
/// [`canonical_key_with`]); exposed so tests can prove that bumping
/// [`CACHE_SCHEMA`] or changing a crate version invalidates keys.
pub fn fingerprint_with(
    schema: u32,
    code_version: &str,
    experiment: &Experiment,
    seed: u64,
) -> Fingerprint {
    Fingerprint(fnv1a_128(
        canonical_key_with(schema, code_version, experiment, seed).as_bytes(),
    ))
}

/// The stable structural fingerprint of one experiment point.
pub fn fingerprint(experiment: &Experiment, seed: u64) -> Fingerprint {
    Fingerprint(fnv1a_128(canonical_key(experiment, seed).as_bytes()))
}

// --- global hit/miss accounting -----------------------------------------

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide cache counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize)]
pub struct CacheCounters {
    /// Points answered from the store.
    pub hits: u64,
    /// Points that had to be simulated.
    pub misses: u64,
    /// Records written (a miss that simulated successfully).
    pub stores: u64,
}

impl CacheCounters {
    /// The counters accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits.wrapping_sub(earlier.hits),
            misses: self.misses.wrapping_sub(earlier.misses),
            stores: self.stores.wrapping_sub(earlier.stores),
        }
    }
}

/// Current process-wide counters (all cache-aware schedulers in this
/// process accumulate here).
pub fn counters() -> CacheCounters {
    CacheCounters {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
    }
}

/// Resets the process-wide counters to zero.
pub fn reset_counters() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    STORES.store(0, Ordering::Relaxed);
}

pub(crate) fn record_counters(delta: CacheCounters) {
    HITS.fetch_add(delta.hits, Ordering::Relaxed);
    MISSES.fetch_add(delta.misses, Ordering::Relaxed);
    STORES.fetch_add(delta.stores, Ordering::Relaxed);
}

// --- record envelope -----------------------------------------------------

/// Why a record on disk was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
enum RecordFault {
    Truncated,
    BadMagic,
    SchemaMismatch(u32),
    LengthMismatch,
    ChecksumMismatch,
    KeyMismatch,
    BadPayload(String),
    MisfiledKey,
}

impl std::fmt::Display for RecordFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordFault::Truncated => write!(f, "record truncated"),
            RecordFault::BadMagic => write!(f, "bad magic"),
            RecordFault::SchemaMismatch(found) => {
                write!(f, "schema {found} != {CACHE_SCHEMA}")
            }
            RecordFault::LengthMismatch => write!(f, "declared lengths disagree with file size"),
            RecordFault::ChecksumMismatch => write!(f, "checksum mismatch"),
            RecordFault::KeyMismatch => write!(f, "stored key differs from the requested key"),
            RecordFault::BadPayload(reason) => write!(f, "payload does not parse: {reason}"),
            RecordFault::MisfiledKey => write!(f, "file name does not match the stored key"),
        }
    }
}

/// Serializes a record envelope:
/// `NOCC | schema | key_len | payload_len | fnv64(key ++ payload) | key | payload`.
fn encode_record(key: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + key.len() + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CACHE_SCHEMA.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut checksum = fnv1a_64(key);
    checksum ^= fnv1a_64(payload).rotate_left(1);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(payload);
    out
}

/// Splits a record envelope into its validated key and payload slices.
fn parse_record(bytes: &[u8]) -> Result<(&[u8], &[u8]), RecordFault> {
    if bytes.len() < HEADER_LEN {
        return Err(RecordFault::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(RecordFault::BadMagic);
    }
    let word = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let schema = word(4);
    if schema != CACHE_SCHEMA {
        return Err(RecordFault::SchemaMismatch(schema));
    }
    let key_len = word(8) as usize;
    let payload_len = word(12) as usize;
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let body = &bytes[HEADER_LEN..];
    if body.len() != key_len.saturating_add(payload_len) {
        return Err(RecordFault::LengthMismatch);
    }
    let (key, payload) = body.split_at(key_len);
    let expected = fnv1a_64(key) ^ fnv1a_64(payload).rotate_left(1);
    if checksum != expected {
        return Err(RecordFault::ChecksumMismatch);
    }
    Ok((key, payload))
}

/// Fully validates a record for `verify`: envelope, checksum, payload
/// parse, and that the file sits where its embedded key hashes to.
fn audit_record(path: &Path, bytes: &[u8]) -> Result<(), RecordFault> {
    let (key, payload) = parse_record(bytes)?;
    let payload_text = std::str::from_utf8(payload)
        .map_err(|e| RecordFault::BadPayload(format!("not UTF-8: {e}")))?;
    let _: RunResult =
        serde_json::from_str(payload_text).map_err(|e| RecordFault::BadPayload(e.to_string()))?;
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or_default();
    if stem != Fingerprint(fnv1a_128(key)).hex() {
        return Err(RecordFault::MisfiledKey);
    }
    Ok(())
}

// --- the on-disk store ---------------------------------------------------

/// Handle on the content-addressed result store (or on "caching
/// disabled", which makes every lookup a miss and every store a no-op).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ExperimentCache {
    dir: Option<PathBuf>,
}

/// Entry count and byte total of a store directory.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Number of records.
    pub entries: usize,
    /// Total size of all records in bytes.
    pub total_bytes: u64,
}

/// Outcome of a garbage-collection pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GcOutcome {
    /// Records removed (oldest modification time first).
    pub removed: usize,
    /// Bytes those records occupied.
    pub freed_bytes: u64,
    /// Store contents after the pass.
    pub remaining: CacheStats,
}

/// Outcome of an integrity scan.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VerifyOutcome {
    /// Records that validated end to end.
    pub ok: usize,
    /// Rejected records with the reason each failed.
    pub corrupt: Vec<(PathBuf, String)>,
    /// Rejected records deleted (when `fix` was requested).
    pub removed: usize,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temporary directory path under the system temp dir
/// (not created). Used by tests, the conformance harness and the guard
/// binaries to get isolated cache stores that cannot collide across
/// concurrent test processes.
pub fn unique_temp_dir(prefix: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

impl ExperimentCache {
    /// A disabled cache: lookups always miss, stores do nothing.
    pub fn disabled() -> Self {
        ExperimentCache { dir: None }
    }

    /// A cache rooted at an explicit directory (created lazily on the
    /// first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ExperimentCache {
            dir: Some(dir.into()),
        }
    }

    /// A cache rooted at [`DEFAULT_CACHE_DIR`].
    pub fn default_dir() -> Self {
        Self::at(DEFAULT_CACHE_DIR)
    }

    /// Resolves the `NOC_CACHE` environment variable: unset, empty,
    /// `0`, `off`, `false` or `no` disable caching; `1`, `on`, `true`
    /// or `yes` select [`DEFAULT_CACHE_DIR`]; anything else is used as
    /// the store directory.
    pub fn from_env() -> Self {
        match std::env::var("NOC_CACHE") {
            Err(_) => Self::disabled(),
            Ok(value) => match value.trim() {
                "" | "0" | "off" | "false" | "no" => Self::disabled(),
                "1" | "on" | "true" | "yes" => Self::default_dir(),
                dir => Self::at(dir),
            },
        }
    }

    /// `true` when lookups can hit.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The store directory (`None` when disabled).
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The record path for a fingerprint: two hex shard levels, then
    /// the full fingerprint as the file stem.
    fn record_path(dir: &Path, fp: &Fingerprint) -> PathBuf {
        let hex = fp.hex();
        dir.join(&hex[0..2])
            .join(&hex[2..4])
            .join(format!("{hex}.{RECORD_EXT}"))
    }

    /// Looks up a cached result for (experiment, seed). A hit requires
    /// the envelope to validate *and* the embedded canonical key to
    /// equal the requested one byte-for-byte — a hash collision or a
    /// record from a different code version can never be returned.
    /// Invalid records are evicted so the subsequent store replaces
    /// them.
    pub fn lookup(&self, experiment: &Experiment, seed: u64) -> Option<RunResult> {
        let dir = self.dir.as_ref()?;
        let key = canonical_key(experiment, seed);
        let path = Self::record_path(dir, &Fingerprint(fnv1a_128(key.as_bytes())));
        let bytes = std::fs::read(&path).ok()?;
        let parsed = parse_record(&bytes).and_then(|(stored_key, payload)| {
            if stored_key != key.as_bytes() {
                return Err(RecordFault::KeyMismatch);
            }
            let text = std::str::from_utf8(payload)
                .map_err(|e| RecordFault::BadPayload(format!("not UTF-8: {e}")))?;
            serde_json::from_str::<RunResult>(text)
                .map_err(|e| RecordFault::BadPayload(e.to_string()))
        });
        match parsed {
            Ok(result) => Some(result),
            Err(_) => {
                // Corrupt, stale-schema or mismatched record: treat as
                // a miss and evict so the recomputed result replaces it.
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Stores a result under (experiment, seed), atomically (tempfile
    /// then rename, so readers never observe a half-written record).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers on the simulation path
    /// treat failures as "cache unavailable", not as run failures.
    pub fn store(
        &self,
        experiment: &Experiment,
        seed: u64,
        result: &RunResult,
    ) -> std::io::Result<bool> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(false);
        };
        let key = canonical_key(experiment, seed);
        let payload = serde_json::to_string(result).expect("run result serializes");
        let bytes = encode_record(key.as_bytes(), payload.as_bytes());
        let path = Self::record_path(dir, &Fingerprint(fnv1a_128(key.as_bytes())));
        let shard = path.parent().expect("record path has a parent");
        std::fs::create_dir_all(shard)?;
        let tmp = shard.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        Ok(true)
    }

    /// Every record in the store as `(path, len, modified)`.
    fn walk(&self) -> std::io::Result<Vec<(PathBuf, u64, std::time::SystemTime)>> {
        let mut records = Vec::new();
        let Some(dir) = self.dir.as_ref() else {
            return Ok(records);
        };
        if !dir.exists() {
            return Ok(records);
        }
        let mut stack = vec![dir.clone()];
        while let Some(current) = stack.pop() {
            for entry in std::fs::read_dir(&current)? {
                let entry = entry?;
                let path = entry.path();
                let meta = entry.metadata()?;
                if meta.is_dir() {
                    stack.push(path);
                } else if path.extension().and_then(|e| e.to_str()) == Some(RECORD_EXT) {
                    let modified = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                    records.push((path, meta.len(), modified));
                }
            }
        }
        // Deterministic order for reports.
        records.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(records)
    }

    /// Entry count and byte total of the store.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from scanning the directory.
    pub fn stats(&self) -> std::io::Result<CacheStats> {
        let records = self.walk()?;
        Ok(CacheStats {
            entries: records.len(),
            total_bytes: records.iter().map(|(_, len, _)| len).sum(),
        })
    }

    /// Shrinks the store to at most `max_bytes`, deleting
    /// oldest-modified records first (records answering recent runs
    /// survive).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from scanning or deleting.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcOutcome> {
        let mut records = self.walk()?;
        records.sort_by_key(|(_, _, modified)| *modified);
        let mut total: u64 = records.iter().map(|(_, len, _)| len).sum();
        let mut outcome = GcOutcome::default();
        let mut kept = records.len();
        for (path, len, _) in &records {
            if total <= max_bytes {
                break;
            }
            std::fs::remove_file(path)?;
            total -= len;
            outcome.removed += 1;
            outcome.freed_bytes += len;
            kept -= 1;
        }
        outcome.remaining = CacheStats {
            entries: kept,
            total_bytes: total,
        };
        Ok(outcome)
    }

    /// Applies the `NOC_CACHE_MAX_BYTES` size bound, if set to a
    /// parsable byte count. Failures are ignored — GC is advisory.
    pub fn enforce_env_limit(&self) {
        if let Some(limit) = std::env::var("NOC_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
        {
            let _ = self.gc(limit);
        }
    }

    /// Validates every record end to end (envelope, checksum, payload
    /// parse, file placement). With `fix`, rejected records are
    /// deleted so the next run recomputes them.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from scanning or deleting; individual
    /// unreadable records are reported in the outcome instead.
    pub fn verify(&self, fix: bool) -> std::io::Result<VerifyOutcome> {
        let mut outcome = VerifyOutcome::default();
        for (path, _, _) in self.walk()? {
            let fault = match std::fs::read(&path) {
                Ok(bytes) => audit_record(&path, &bytes).err().map(|f| f.to_string()),
                Err(e) => Some(format!("unreadable: {e}")),
            };
            match fault {
                None => outcome.ok += 1,
                Some(reason) => {
                    if fix {
                        std::fs::remove_file(&path)?;
                        outcome.removed += 1;
                    }
                    outcome.corrupt.push((path, reason));
                }
            }
        }
        Ok(outcome)
    }
}

/// Convenience wrapper: run one experiment point through the cache —
/// lookup, simulate on miss, store. Used by the scheduler for its
/// miss path and directly by tests.
///
/// # Errors
///
/// Propagates the simulation error on a miss that fails to run; cache
/// I/O problems silently degrade to recomputation.
pub fn run_cached(
    cache: &ExperimentCache,
    experiment: &Experiment,
    seed: u64,
) -> Result<RunResult, CoreError> {
    if let Some(hit) = cache.lookup(experiment, seed) {
        record_counters(CacheCounters {
            hits: 1,
            ..CacheCounters::default()
        });
        return Ok(hit);
    }
    let result = experiment.run_with_seed(seed)?;
    let stored = cache.store(experiment, seed, &result).unwrap_or(false);
    record_counters(CacheCounters {
        hits: 0,
        misses: 1,
        stores: u64::from(stored),
    });
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopologySpec, TrafficSpec};
    use noc_sim::SimConfig;

    fn experiment() -> Experiment {
        Experiment {
            topology: TopologySpec::Spidergon { nodes: 8 },
            traffic: TrafficSpec::Uniform,
            config: SimConfig::builder()
                .injection_rate(0.2)
                .warmup_cycles(20)
                .measure_cycles(200)
                .seed(7)
                .build()
                .unwrap(),
        }
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        let exp = experiment();
        assert_eq!(fingerprint(&exp, 7), fingerprint(&exp, 7));
        assert_ne!(fingerprint(&exp, 7), fingerprint(&exp, 8));
    }

    #[test]
    fn canonical_key_substitutes_the_effective_seed() {
        let exp = experiment();
        let key = canonical_key(&exp, 99);
        assert!(key.contains("\"seed\":99"), "{key}");
        assert!(key.contains("code_version"), "{key}");
    }

    #[test]
    fn record_envelope_round_trips() {
        let (key, payload) = (b"key-bytes".as_slice(), b"{\"x\":1}".as_slice());
        let bytes = encode_record(key, payload);
        let (k, p) = parse_record(&bytes).unwrap();
        assert_eq!((k, p), (key, payload));
    }

    #[test]
    fn record_envelope_rejects_damage() {
        let bytes = encode_record(b"key", b"payload");
        assert_eq!(parse_record(&bytes[..10]), Err(RecordFault::Truncated));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(parse_record(&bad_magic), Err(RecordFault::BadMagic));
        let mut bad_schema = bytes.clone();
        bad_schema[4] ^= 0xFF;
        assert!(matches!(
            parse_record(&bad_schema),
            Err(RecordFault::SchemaMismatch(_))
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(parse_record(&flipped), Err(RecordFault::ChecksumMismatch));
        let mut short = bytes;
        short.truncate(short.len() - 1);
        assert_eq!(parse_record(&short), Err(RecordFault::LengthMismatch));
    }

    #[test]
    fn checksum_distinguishes_key_payload_split() {
        // Same concatenated bytes, different split point: the rotated
        // combination must not collide.
        let a = encode_record(b"ab", b"cd");
        let b = encode_record(b"abc", b"d");
        let ck = |bytes: &[u8]| u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        assert_ne!(ck(&a), ck(&b));
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ExperimentCache::disabled();
        let exp = experiment();
        assert!(!cache.is_enabled());
        assert!(cache.lookup(&exp, 7).is_none());
        let fake = exp.run_with_seed(7).unwrap();
        assert!(!cache.store(&exp, 7, &fake).unwrap());
        assert_eq!(cache.stats().unwrap(), CacheStats::default());
    }

    #[test]
    fn env_resolution() {
        // `from_env` reads the ambient variable, so exercise the match
        // arms through a helper-free contract: the default build of
        // this test environment leaves NOC_CACHE unset.
        if std::env::var("NOC_CACHE").is_err() {
            assert!(!ExperimentCache::from_env().is_enabled());
        }
        assert_eq!(
            ExperimentCache::default_dir().dir().unwrap(),
            Path::new(DEFAULT_CACHE_DIR)
        );
    }

    #[test]
    fn store_lookup_and_gc_cycle() {
        let dir = unique_temp_dir("noc-cache-unit");
        let cache = ExperimentCache::at(&dir);
        let exp = experiment();
        let fresh = exp.run_with_seed(7).unwrap();
        assert!(cache.lookup(&exp, 7).is_none());
        assert!(cache.store(&exp, 7, &fresh).unwrap());
        assert_eq!(cache.lookup(&exp, 7).unwrap(), fresh);
        let stats = cache.stats().unwrap();
        assert_eq!(stats.entries, 1);
        assert!(stats.total_bytes > 0);
        // A second seed, then GC to zero removes both.
        let fresh2 = exp.run_with_seed(8).unwrap();
        assert!(cache.store(&exp, 8, &fresh2).unwrap());
        let gc = cache.gc(0).unwrap();
        assert_eq!(gc.removed, 2);
        assert_eq!(gc.remaining, CacheStats::default());
        assert!(cache.lookup(&exp, 7).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_reports_and_fixes_corruption() {
        let dir = unique_temp_dir("noc-cache-verify");
        let cache = ExperimentCache::at(&dir);
        let exp = experiment();
        let fresh = exp.run_with_seed(7).unwrap();
        cache.store(&exp, 7, &fresh).unwrap();
        let clean = cache.verify(false).unwrap();
        assert_eq!((clean.ok, clean.corrupt.len(), clean.removed), (1, 0, 0));
        // Flip one payload byte: checksum must reject it.
        let (path, _, _) = cache.walk().unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let dirty = cache.verify(false).unwrap();
        assert_eq!((dirty.ok, dirty.corrupt.len(), dirty.removed), (0, 1, 0));
        assert!(dirty.corrupt[0].1.contains("checksum"), "{dirty:?}");
        let fixed = cache.verify(true).unwrap();
        assert_eq!(fixed.removed, 1);
        assert_eq!(cache.stats().unwrap().entries, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let dir = unique_temp_dir("noc-cache-counters");
        let cache = ExperimentCache::at(&dir);
        let exp = experiment();
        let before = counters();
        let miss = run_cached(&cache, &exp, 7).unwrap();
        let hit = run_cached(&cache, &exp, 7).unwrap();
        assert_eq!(miss, hit);
        let delta = counters().since(&before);
        assert_eq!(
            delta,
            CacheCounters {
                hits: 1,
                misses: 1,
                stores: 1
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
