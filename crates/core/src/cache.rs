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
//!    change invalidates every prior key cleanly. The key borrows the
//!    token and its derived `write_json` streams the JSON straight into
//!    one buffer, with no `serde::Value` tree on the way; the bytes are
//!    the same as those of the tree, which the pinned fingerprints in
//!    the tests hold.
//! 2. **Store** — [`ExperimentCache`] keeps records in pack files,
//!    `results/.cache/packs/<stamp>-<pid>.nocp` by default, one per
//!    engine call that simulated anything (the idea of Git's
//!    packfiles: many small objects, one file). Records are versioned
//!    binary envelopes carrying the full canonical key (collision
//!    proof: the key is compared on read, not just the hash), an
//!    FNV-1a-64 checksum over key + payload, and the `RunResult` as a
//!    binary payload: the two labels as length-prefixed UTF-8, the
//!    injection rate as its `f64` bits, the seed as a LEB128 varint,
//!    then the statistics in [`noc_sim::codec`]'s layout (varints,
//!    sparse `(gap, count)` latency bins, `per_link` as `(from, index
//!    in Direction::ALL, flits)`). A pack holds its records back to
//!    back, then an index of `(fingerprint, offset, length)` and a
//!    trailer; it is written through a tempfile + atomic rename, and
//!    the `packs` directory is created only when a write finds it
//!    missing. A handle reads every pack's index once, at its first
//!    lookup, and adds its own stores to it; a later pack (its name
//!    sorts later) wins over an earlier one. A hit reads one span; a
//!    corrupt, stale-schema or mismatched span is a miss, never
//!    trusted, and its recomputed record lands in a newer pack.
//!    [`ExperimentCache::gc`] bounds the store's size, removing whole
//!    packs oldest first; [`ExperimentCache::verify`] checks every
//!    span and with `fix` rewrites a pack without its bad spans and
//!    moves the per-record `.noc` files of earlier layouts into a
//!    pack.
//! 3. **Toggles and accounting** — [`ExperimentCache::from_env`] reads
//!    `NOC_CACHE` (unset/`0`/`off` disables; `1`/`on` selects the
//!    default directory; anything else is a directory path), and
//!    per-thread [`counters`] track hits/misses/stores for reports and
//!    CI assertions. `NOC_CACHE_MAX_BYTES` bounds the store after each
//!    scheduler pass.
//!
//! [`crate::parallel::run_jobs`] is the one caller of
//! [`ExperimentCache::lookup`] and of the batch store behind
//! [`ExperimentCache::store`]: each job
//! is one lookup-or-simulate step on the parallel engine's workers, and
//! the calling thread stores the call's fresh results as one pack, in
//! job order — so
//! `run_points` (behind `run_replicated`, `sweep_rates` and every cached
//! figure function) and `noc-cli` become incremental through one code
//! path.

use crate::{Experiment, RunResult};
use noc_sim::codec::{self, DecodeError, Reader};
use noc_sim::SimStats;
use serde::Serialize;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// Version of the cache key and record layout. Bump on **any** change
/// that affects simulation semantics or serialized shapes without
/// showing up in the spec itself — every prior key becomes unreachable
/// and the stale records age out via [`ExperimentCache::gc`].
/// Reordering `noc_topology::Direction::ALL` changes the payload
/// layout too.
pub const CACHE_SCHEMA: u32 = 5;

/// Default store location, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = "results/.cache";

/// Default size bound applied by `noc-cli cache gc` when no explicit
/// limit is given (1 GiB).
pub const DEFAULT_GC_BYTES: u64 = 1 << 30;

/// Directory below the store root that holds the packs.
const PACK_DIR: &str = "packs";

/// File extension of packs.
const PACK_EXT: &str = "nocp";

/// File extension of the one-record files of earlier layouts, which
/// `verify --fix` moves into a pack.
const LEGACY_EXT: &str = "noc";

/// Magic prefix of every record envelope.
const MAGIC: [u8; 4] = *b"NOCC";

/// Fixed envelope bytes before the key: magic + schema + key length +
/// payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8;

/// Magic suffix of every pack: the last bytes of its trailer.
const PACK_MAGIC: [u8; 4] = *b"NOCP";

/// Version of the pack container (index and trailer); the records in
/// it carry their own [`CACHE_SCHEMA`].
const PACK_VERSION: u32 = 1;

/// Bytes of one index entry: fingerprint `u128`, offset `u64`, length
/// `u32`.
const INDEX_ENTRY_LEN: usize = 16 + 8 + 4;

/// Bytes of a pack's trailer: entry count `u32`, index checksum `u64`,
/// pack version `u32`, magic.
const TRAILER_LEN: usize = 4 + 8 + 4 + 4;

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
    /// 32-digit lowercase hex form.
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
struct CacheKey<'a> {
    schema: u32,
    code_version: &'a str,
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
        code_version,
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

// --- per-thread hit/miss accounting ------------------------------------

thread_local! {
    /// Counters of the schedulers called from this thread. Thread-local
    /// so concurrent callers (parallel test threads, say) never see each
    /// other's counts.
    static COUNTERS: Cell<CacheCounters> = const {
        Cell::new(CacheCounters {
            hits: 0,
            misses: 0,
            stores: 0,
        })
    };
}

/// Snapshot of the calling thread's cache counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheCounters {
    /// Points answered from the store.
    pub hits: u64,
    /// Points that had to be simulated.
    pub misses: u64,
    /// Records written: each distinct key among the misses that
    /// simulated successfully.
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

/// Current counters of the calling thread: the sum over every
/// cache-aware scheduler call made from it.
pub fn counters() -> CacheCounters {
    COUNTERS.get()
}

/// Adds one scheduler call's counts to the calling thread's counters.
pub(crate) fn record_counters(delta: CacheCounters) {
    let total = COUNTERS.get();
    COUNTERS.set(CacheCounters {
        hits: total.hits.wrapping_add(delta.hits),
        misses: total.misses.wrapping_add(delta.misses),
        stores: total.stores.wrapping_add(delta.stores),
    });
}

// --- record envelope -----------------------------------------------------

/// Why a record or a pack on disk was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
enum RecordFault {
    Truncated,
    BadMagic,
    SchemaMismatch(u32),
    LengthMismatch,
    ChecksumMismatch,
    BadPayload(String),
    /// Indexed under a fingerprint other than its key's.
    Misfiled,
    /// Indexed twice in one pack.
    Duplicate,
    /// A one-record file of an earlier layout, which lookups never read.
    Unpacked,
    /// The pack's trailer or index does not validate.
    BadIndex(&'static str),
    Unreadable(String),
}

impl std::fmt::Display for RecordFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordFault::Truncated => write!(f, "record truncated"),
            RecordFault::BadMagic => write!(f, "bad magic"),
            RecordFault::SchemaMismatch(found) => {
                write!(f, "schema {found} != {CACHE_SCHEMA}")
            }
            RecordFault::LengthMismatch => write!(f, "declared lengths disagree with the span"),
            RecordFault::ChecksumMismatch => write!(f, "checksum mismatch"),
            RecordFault::BadPayload(reason) => write!(f, "payload does not parse: {reason}"),
            RecordFault::Misfiled => write!(f, "misfiled: indexed under another key's fingerprint"),
            RecordFault::Duplicate => write!(f, "duplicate: indexed twice in one pack"),
            RecordFault::Unpacked => write!(
                f,
                "unpacked: a one-record file of an earlier layout (`verify --fix` packs it)"
            ),
            RecordFault::BadIndex(reason) => write!(f, "pack index unreadable: {reason}"),
            RecordFault::Unreadable(reason) => write!(f, "unreadable: {reason}"),
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

/// The binary payload of a record: labels, rate bits, seed, then the
/// statistics in [`noc_sim::codec`]'s layout.
fn encode_payload(result: &RunResult) -> Vec<u8> {
    // No `..`: a new field does not compile until it is encoded.
    let RunResult {
        topology_label,
        traffic_label,
        injection_rate,
        seed,
        stats,
    } = result;
    let mut out = Vec::with_capacity(1024);
    codec::put_str(&mut out, topology_label);
    codec::put_str(&mut out, traffic_label);
    codec::put_f64(&mut out, *injection_rate);
    codec::put_u64(&mut out, *seed);
    stats.encode_into(&mut out);
    out
}

/// Decodes a payload written by [`encode_payload`].
fn decode_payload(payload: &[u8]) -> Result<RunResult, RecordFault> {
    let decode = || -> Result<RunResult, DecodeError> {
        let mut r = Reader::new(payload);
        let topology_label = r.str()?.to_owned();
        let traffic_label = r.str()?.to_owned();
        let injection_rate = r.f64()?;
        let seed = r.u64()?;
        Ok(RunResult {
            topology_label,
            traffic_label,
            injection_rate,
            seed,
            stats: SimStats::decode(r.rest())?,
        })
    };
    decode().map_err(|e| RecordFault::BadPayload(e.to_string()))
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

/// Fully validates a record for `verify` (envelope, checksum, payload
/// parse) and returns the fingerprint of its key.
fn audit_record(bytes: &[u8]) -> Result<Fingerprint, RecordFault> {
    let (key, payload) = parse_record(bytes)?;
    decode_payload(payload)?;
    Ok(Fingerprint(fnv1a_128(key)))
}

// --- packs ---------------------------------------------------------------

/// Where one record sits in its pack.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct IndexEntry {
    fingerprint: Fingerprint,
    offset: u64,
    len: u32,
}

impl IndexEntry {
    fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..self.offset as usize + self.len as usize
    }
}

/// A pack being written: records back to back (callers push each
/// fingerprint once); [`PackWriter::finish`] appends the index and
/// trailer.
struct PackWriter<W> {
    out: W,
    len: u64,
    entries: Vec<IndexEntry>,
}

impl<W: std::io::Write> PackWriter<W> {
    fn new(out: W) -> Self {
        PackWriter {
            out,
            len: 0,
            entries: Vec::new(),
        }
    }

    /// Appends one record envelope.
    fn push(&mut self, fingerprint: Fingerprint, record: &[u8]) -> std::io::Result<()> {
        self.out.write_all(record)?;
        self.entries.push(IndexEntry {
            fingerprint,
            offset: self.len,
            len: record.len() as u32,
        });
        self.len += record.len() as u64;
        Ok(())
    }

    /// Writes the index and the trailer
    /// `count | fnv64(index) | PACK_VERSION | NOCP`; returns the writer
    /// and the index.
    fn finish(mut self) -> std::io::Result<(W, Vec<IndexEntry>)> {
        let mut tail = Vec::with_capacity(self.entries.len() * INDEX_ENTRY_LEN + TRAILER_LEN);
        for entry in &self.entries {
            tail.extend_from_slice(&entry.fingerprint.0.to_le_bytes());
            tail.extend_from_slice(&entry.offset.to_le_bytes());
            tail.extend_from_slice(&entry.len.to_le_bytes());
        }
        let checksum = fnv1a_64(&tail);
        tail.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        tail.extend_from_slice(&checksum.to_le_bytes());
        tail.extend_from_slice(&PACK_VERSION.to_le_bytes());
        tail.extend_from_slice(&PACK_MAGIC);
        self.out.write_all(&tail)?;
        Ok((self.out, self.entries))
    }
}

/// Reads and validates the index of the pack at `path`: its trailer,
/// then its index, each in one read.
fn read_index(path: &Path) -> Result<Vec<IndexEntry>, RecordFault> {
    let io = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => RecordFault::Truncated,
        _ => RecordFault::Unreadable(e.to_string()),
    };
    let mut file = std::fs::File::open(path).map_err(io)?;
    let len = file.metadata().map_err(io)?.len();
    let trailer_at = len
        .checked_sub(TRAILER_LEN as u64)
        .ok_or(RecordFault::Truncated)?;
    let mut trailer = [0u8; TRAILER_LEN];
    file.seek(SeekFrom::Start(trailer_at)).map_err(io)?;
    file.read_exact(&mut trailer).map_err(io)?;
    if trailer[16..20] != PACK_MAGIC {
        return Err(RecordFault::BadIndex("bad magic"));
    }
    let word = |at: usize| u32::from_le_bytes(trailer[at..at + 4].try_into().expect("4 bytes"));
    if word(12) != PACK_VERSION {
        return Err(RecordFault::BadIndex("unknown pack version"));
    }
    let index_at = (word(0) as u64)
        .checked_mul(INDEX_ENTRY_LEN as u64)
        .and_then(|index_len| trailer_at.checked_sub(index_len))
        .ok_or(RecordFault::Truncated)?;
    let mut index = vec![0u8; (trailer_at - index_at) as usize];
    file.seek(SeekFrom::Start(index_at)).map_err(io)?;
    file.read_exact(&mut index).map_err(io)?;
    if fnv1a_64(&index) != u64::from_le_bytes(trailer[4..12].try_into().expect("8 bytes")) {
        return Err(RecordFault::BadIndex("index checksum mismatch"));
    }
    index
        .chunks_exact(INDEX_ENTRY_LEN)
        .map(|raw| {
            let entry = IndexEntry {
                fingerprint: Fingerprint(u128::from_le_bytes(
                    raw[0..16].try_into().expect("16 bytes"),
                )),
                offset: u64::from_le_bytes(raw[16..24].try_into().expect("8 bytes")),
                len: u32::from_le_bytes(raw[24..28].try_into().expect("4 bytes")),
            };
            match entry.offset.checked_add(u64::from(entry.len)) {
                Some(end) if end <= index_at => Ok(entry),
                _ => Err(RecordFault::BadIndex("span out of bounds")),
            }
        })
        .collect()
}

/// Reads one record's bytes from its pack.
fn read_span(path: &Path, entry: IndexEntry) -> std::io::Result<Vec<u8>> {
    let mut file = std::fs::File::open(path)?;
    file.seek(SeekFrom::Start(entry.offset))?;
    let mut bytes = vec![0u8; entry.len as usize];
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// The store's packs, oldest first (by name, which starts with the
/// pack's stamp).
fn list_packs(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut packs = Vec::new();
    let entries = match std::fs::read_dir(dir.join(PACK_DIR)) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(packs),
        entries => entries?,
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(PACK_EXT) {
            packs.push(path);
        }
    }
    packs.sort();
    Ok(packs)
}

/// The stamp a pack's name starts with (0 for a name without one).
fn pack_stamp(path: &Path) -> u64 {
    path.file_name()
        .and_then(|name| name.to_str()?.get(..16))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .unwrap_or(0)
}

/// Stamp of the last pack this process named.
static LAST_STAMP: AtomicU64 = AtomicU64::new(0);

/// A name for a new pack that sorts after every pack this process named
/// and after a pack stamped `floor`: a nanosecond clock stamp, made
/// strictly increasing, as 16 hex digits, then the process id.
fn pack_name(floor: u64) -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |elapsed| elapsed.as_nanos() as u64);
    let want = now.max(floor.saturating_add(1));
    let last = LAST_STAMP
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |last| {
            Some(last.max(want - 1) + 1)
        })
        .expect("the update always succeeds");
    let stamp = last.max(want - 1) + 1;
    format!("{stamp:016x}-{:08x}.{PACK_EXT}", std::process::id())
}

/// Writes a pack as `<dir>/packs/<name>`, with the records `fill`
/// pushes, streamed into a tempfile that is then renamed into place.
/// Only when creating the tempfile finds the `packs` directory missing
/// are it (and the root) created, so a write into an existing store is
/// one create and one rename. Returns the pack's path and index.
fn write_pack(
    dir: &Path,
    name: &str,
    fill: impl FnOnce(&mut PackWriter<std::io::BufWriter<std::fs::File>>) -> std::io::Result<()>,
) -> std::io::Result<(PathBuf, Vec<IndexEntry>)> {
    let packs = dir.join(PACK_DIR);
    let tmp = packs.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let path = packs.join(name);
    let written = (|| {
        let file = match std::fs::File::create(&tmp) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::create_dir_all(&packs)?;
                std::fs::File::create(&tmp)?
            }
            first => first?,
        };
        let mut pack = PackWriter::new(std::io::BufWriter::new(file));
        fill(&mut pack)?;
        let (out, entries) = pack.finish()?;
        out.into_inner()
            .map_err(std::io::IntoInnerError::into_error)?;
        std::fs::rename(&tmp, &path)?;
        Ok(entries)
    })();
    if written.is_err() {
        // Best effort: a stranded tempfile is invisible to `stats`
        // and `gc`, so nothing else would ever remove it.
        let _ = std::fs::remove_file(&tmp);
    }
    written.map(|entries| (path, entries))
}

/// Every one-record file of an earlier layout: a `.noc` file anywhere
/// in the store outside `packs/`.
fn legacy_records(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut records = Vec::new();
    if !dir.exists() {
        return Ok(records);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                if path != dir.join(PACK_DIR) {
                    stack.push(path);
                }
            } else if path.extension().and_then(|e| e.to_str()) == Some(LEGACY_EXT) {
                records.push(path);
            }
        }
    }
    records.sort();
    Ok(records)
}

/// The packs a handle has read and where the newest record of each
/// fingerprint lies.
#[derive(Default)]
struct PackIndex {
    /// Pack paths, oldest first.
    packs: Vec<PathBuf>,
    /// Fingerprint → (position in `packs`, entry); a later pack
    /// overrides an earlier one.
    spans: HashMap<Fingerprint, (usize, IndexEntry)>,
    /// The largest stamp among `packs`.
    newest_stamp: u64,
}

impl PackIndex {
    /// Reads every pack's index; a pack whose index does not validate
    /// answers nothing.
    fn load(dir: &Path) -> Self {
        let mut index = PackIndex::default();
        for path in list_packs(dir).unwrap_or_default() {
            let entries = read_index(&path).unwrap_or_default();
            index.add(path, &entries);
        }
        index
    }

    fn add(&mut self, path: PathBuf, entries: &[IndexEntry]) {
        self.newest_stamp = self.newest_stamp.max(pack_stamp(&path));
        let pack = self.packs.len();
        self.packs.push(path);
        for &entry in entries {
            self.spans.insert(entry.fingerprint, (pack, entry));
        }
    }
}

// --- the on-disk store ---------------------------------------------------

/// Handle on the content-addressed result store (or on "caching
/// disabled", which makes every lookup a miss and every store a no-op).
///
/// The handle reads every pack's index at its first lookup and then
/// sees its own stores, but not packs other handles write after that.
#[derive(Default)]
pub struct ExperimentCache {
    dir: Option<PathBuf>,
    /// `None` until the first lookup reads it.
    index: RwLock<Option<PackIndex>>,
}

impl Clone for ExperimentCache {
    /// A handle on the same store that reads the packs afresh.
    fn clone(&self) -> Self {
        Self::new(self.dir.clone())
    }
}

impl PartialEq for ExperimentCache {
    fn eq(&self, other: &Self) -> bool {
        self.dir == other.dir
    }
}

impl Eq for ExperimentCache {}

impl std::fmt::Debug for ExperimentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentCache")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// Pack count, live record count and byte total of a store directory.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Number of distinct fingerprints the packs' indexes hold.
    pub entries: usize,
    /// Total size of all packs in bytes.
    pub total_bytes: u64,
    /// Number of packs.
    pub packs: usize,
}

/// Outcome of a garbage-collection pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GcOutcome {
    /// Records the removed packs held.
    pub removed: usize,
    /// Packs removed (oldest first).
    pub removed_packs: usize,
    /// Bytes those packs occupied.
    pub freed_bytes: u64,
    /// Store contents after the pass.
    pub remaining: CacheStats,
}

/// Outcome of an integrity scan.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VerifyOutcome {
    /// Records that validated end to end.
    pub ok: usize,
    /// Rejected records (by the path of their pack or file) with the
    /// reason each failed; one-record files of earlier layouts are
    /// listed as unpacked.
    pub corrupt: Vec<(PathBuf, String)>,
    /// Rejected records dropped (when `fix` was requested).
    pub removed: usize,
    /// Valid one-record files moved into a pack (when `fix` was
    /// requested).
    pub migrated: usize,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A process-unique temporary directory path under the system temp dir
/// (not created). Used by tests and the conformance harness to get
/// isolated cache stores that cannot collide across concurrent test
/// processes.
pub fn unique_temp_dir(prefix: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

impl ExperimentCache {
    fn new(dir: Option<PathBuf>) -> Self {
        ExperimentCache {
            dir,
            index: RwLock::default(),
        }
    }

    /// A disabled cache: lookups always miss, stores do nothing.
    pub fn disabled() -> Self {
        Self::new(None)
    }

    /// A cache rooted at an explicit directory (created lazily on the
    /// first store).
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        Self::new(Some(dir.into()))
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

    /// The pack and entry of the newest record of `fingerprint`,
    /// reading every pack's index on the handle's first call: a miss
    /// touches no file.
    fn probe(&self, dir: &Path, fingerprint: Fingerprint) -> Option<(PathBuf, IndexEntry)> {
        let find = |index: &PackIndex| {
            let &(pack, entry) = index.spans.get(&fingerprint)?;
            Some((index.packs[pack].clone(), entry))
        };
        if let Some(index) = self
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
        {
            return find(index);
        }
        let mut index = self.index.write().unwrap_or_else(PoisonError::into_inner);
        find(index.get_or_insert_with(|| PackIndex::load(dir)))
    }

    /// Drops the handle's index after the store changed under it; the
    /// next lookup reads the packs again.
    fn forget_index(&self) {
        *self.index.write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Looks up a cached result for (experiment, seed). A hit requires
    /// the record's envelope to validate *and* its embedded canonical
    /// key to equal the requested one byte-for-byte — a hash collision
    /// or a record from a different code version can never be
    /// returned. A record that fails either is a miss; the recomputed
    /// record goes into a newer pack, which wins.
    pub fn lookup(&self, experiment: &Experiment, seed: u64) -> Option<RunResult> {
        let dir = self.dir.as_ref()?;
        let key = canonical_key(experiment, seed);
        let (pack, entry) = self.probe(dir, Fingerprint(fnv1a_128(key.as_bytes())))?;
        let bytes = read_span(&pack, entry).ok()?;
        let (stored_key, payload) = parse_record(&bytes).ok()?;
        if stored_key != key.as_bytes() {
            return None;
        }
        decode_payload(payload).ok()
    }

    /// Stores a result under (experiment, seed) as a pack of its own:
    /// the batch store of [`crate::run_jobs`] with a batch of one.
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
        self.store_all([(experiment, seed, result)])
            .map(|stored| stored > 0)
    }

    /// Stores a batch of results as one new pack, in batch order and
    /// each fingerprint once, atomically (tempfile then rename, so
    /// readers never observe a half-written pack). Returns the number
    /// of records written; an empty batch writes nothing.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; callers on the simulation path
    /// treat failures as "cache unavailable", not as run failures.
    pub(crate) fn store_all<'a>(
        &self,
        batch: impl IntoIterator<Item = (&'a Experiment, u64, &'a RunResult)>,
    ) -> std::io::Result<usize> {
        let Some(dir) = self.dir.as_ref() else {
            return Ok(0);
        };
        let mut batch = batch.into_iter().peekable();
        if batch.peek().is_none() {
            return Ok(0);
        }
        let floor = self
            .index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(0, |index| index.newest_stamp);
        let mut seen = HashSet::new();
        let (path, entries) = write_pack(dir, &pack_name(floor), |pack| {
            for (experiment, seed, result) in batch {
                let key = canonical_key(experiment, seed);
                let fingerprint = Fingerprint(fnv1a_128(key.as_bytes()));
                if seen.insert(fingerprint) {
                    let record = encode_record(key.as_bytes(), &encode_payload(result));
                    pack.push(fingerprint, &record)?;
                }
            }
            Ok(())
        })?;
        let stored = entries.len();
        if let Some(index) = self
            .index
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
        {
            index.add(path, &entries);
        }
        Ok(stored)
    }

    /// Pack count, distinct live fingerprints and byte total of the
    /// store.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from scanning the directory.
    pub fn stats(&self) -> std::io::Result<CacheStats> {
        let mut stats = CacheStats::default();
        let Some(dir) = self.dir.as_deref() else {
            return Ok(stats);
        };
        let mut live = HashSet::new();
        for path in list_packs(dir)? {
            stats.packs += 1;
            stats.total_bytes += std::fs::metadata(&path)?.len();
            let entries = read_index(&path).unwrap_or_default();
            live.extend(entries.iter().map(|entry| entry.fingerprint));
        }
        stats.entries = live.len();
        Ok(stats)
    }

    /// Shrinks the store to at most `max_bytes`, deleting whole packs
    /// oldest first (packs answering recent runs survive).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from scanning or deleting.
    pub fn gc(&self, max_bytes: u64) -> std::io::Result<GcOutcome> {
        let mut outcome = GcOutcome::default();
        if let Some(dir) = self.dir.as_deref() {
            let mut packs = Vec::new();
            for path in list_packs(dir)? {
                let len = std::fs::metadata(&path)?.len();
                packs.push((path, len));
            }
            let mut total: u64 = packs.iter().map(|(_, len)| len).sum();
            for (path, len) in &packs {
                if total <= max_bytes {
                    break;
                }
                let records = read_index(path).map_or(0, |entries| entries.len());
                std::fs::remove_file(path)?;
                total -= len;
                outcome.removed += records;
                outcome.removed_packs += 1;
                outcome.freed_bytes += len;
            }
            if outcome.removed_packs > 0 {
                self.forget_index();
            }
        }
        outcome.remaining = self.stats()?;
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

    /// Validates every record end to end: each pack's index, then each
    /// span's envelope, checksum and payload, that its key hashes to
    /// the fingerprint it is indexed under, and that no pack indexes a
    /// fingerprint twice. A one-record `.noc` file of an earlier layout
    /// is listed as unpacked. With `fix`, a pack is rewritten without
    /// its bad spans (deleted when none is left, or when its index does
    /// not validate), and valid one-record files whose key no pack
    /// holds are moved into one new pack; every such file is then
    /// deleted, with the directories it leaves empty.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from scanning, writing or deleting;
    /// individual unreadable records are reported in the outcome
    /// instead.
    pub fn verify(&self, fix: bool) -> std::io::Result<VerifyOutcome> {
        let mut outcome = VerifyOutcome::default();
        let Some(dir) = self.dir.as_deref() else {
            return Ok(outcome);
        };
        let mut live = HashSet::new();
        for path in list_packs(dir)? {
            verify_pack(dir, &path, fix, &mut outcome, &mut live)?;
        }
        let legacy = legacy_records(dir)?;
        let mut moved = Vec::new();
        for path in &legacy {
            let audited = std::fs::read(path)
                .map_err(|e| RecordFault::Unreadable(e.to_string()))
                .and_then(|bytes| Ok((audit_record(&bytes)?, bytes)));
            let fault = audited.as_ref().err().unwrap_or(&RecordFault::Unpacked);
            outcome.corrupt.push((path.clone(), fault.to_string()));
            if !fix {
                continue;
            }
            match audited {
                // A key some pack (or an earlier file) holds is dropped.
                Ok((fingerprint, bytes)) if live.insert(fingerprint) => {
                    moved.push((fingerprint, bytes));
                    outcome.migrated += 1;
                }
                _ => outcome.removed += 1,
            }
        }
        if fix && !legacy.is_empty() {
            if !moved.is_empty() {
                write_pack(dir, &pack_name(0), |pack| {
                    moved
                        .iter()
                        .try_for_each(|(fingerprint, bytes)| pack.push(*fingerprint, bytes))
                })?;
            }
            for path in &legacy {
                std::fs::remove_file(path)?;
                // Drop the directories this leaves empty, such as
                // old-layout shards; one that still holds anything
                // stays.
                for parent in path.ancestors().skip(1).take_while(|p| *p != dir) {
                    if std::fs::remove_dir(parent).is_err() {
                        break;
                    }
                }
            }
        }
        if fix && (outcome.removed > 0 || outcome.migrated > 0) {
            self.forget_index();
        }
        Ok(outcome)
    }
}

/// [`ExperimentCache::verify`] for one pack: audits every span, adds
/// the fingerprints of the good ones to `live`, and with `fix` rewrites
/// the pack without the bad ones.
fn verify_pack(
    dir: &Path,
    path: &Path,
    fix: bool,
    outcome: &mut VerifyOutcome,
    live: &mut HashSet<Fingerprint>,
) -> std::io::Result<()> {
    let (entries, bytes) = match read_index(path).and_then(|entries| {
        let bytes = std::fs::read(path).map_err(|e| RecordFault::Unreadable(e.to_string()))?;
        Ok((entries, bytes))
    }) {
        Ok(read) => read,
        Err(fault) => {
            outcome
                .corrupt
                .push((path.to_path_buf(), fault.to_string()));
            if fix {
                std::fs::remove_file(path)?;
                outcome.removed += 1;
            }
            return Ok(());
        }
    };
    let mut good = Vec::new();
    let mut seen = HashSet::new();
    let mut bad = 0;
    for &entry in &entries {
        let audited = bytes
            .get(entry.range())
            .ok_or(RecordFault::Truncated)
            .and_then(audit_record)
            .and_then(|found| match found {
                _ if found != entry.fingerprint => Err(RecordFault::Misfiled),
                _ if !seen.insert(found) => Err(RecordFault::Duplicate),
                _ => Ok(()),
            });
        match audited {
            Ok(()) => {
                outcome.ok += 1;
                live.insert(entry.fingerprint);
                good.push(entry);
            }
            Err(fault) => {
                bad += 1;
                outcome
                    .corrupt
                    .push((path.to_path_buf(), fault.to_string()));
            }
        }
    }
    if fix && bad > 0 {
        if good.is_empty() {
            std::fs::remove_file(path)?;
        } else {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .expect("pack names are UTF-8");
            write_pack(dir, name, |pack| {
                good.iter()
                    .try_for_each(|e| pack.push(e.fingerprint, &bytes[e.range()]))
            })?;
        }
        outcome.removed += bad;
    }
    Ok(())
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

    /// Asserts that a run result survives the payload codec exactly,
    /// floats compared by their bits.
    fn assert_payload_round_trips(result: &RunResult) {
        let payload = encode_payload(result);
        let back = decode_payload(&payload).unwrap();
        assert_eq!(&back, result);
        assert_eq!(
            back.injection_rate.to_bits(),
            result.injection_rate.to_bits()
        );
        assert_eq!(encode_payload(&back), payload, "re-encoding is stable");
    }

    #[test]
    fn payload_round_trips_every_topology_and_traffic() {
        let topologies = [
            TopologySpec::Ring { nodes: 8 },
            TopologySpec::Spidergon { nodes: 8 },
            TopologySpec::Mesh { cols: 3, rows: 3 },
            TopologySpec::MeshBalanced { nodes: 8 },
            TopologySpec::IrregularMesh { cols: 3, nodes: 7 },
            TopologySpec::RealisticMesh { nodes: 7 },
            TopologySpec::Torus { cols: 3, rows: 3 },
        ];
        for topology in topologies {
            for traffic in [
                TrafficSpec::Uniform,
                TrafficSpec::SingleHotspot { target: 0 },
            ] {
                let exp = Experiment {
                    topology,
                    traffic,
                    config: SimConfig::builder()
                        .injection_rate(0.1 + 0.2)
                        .warmup_cycles(20)
                        .measure_cycles(300)
                        .build()
                        .unwrap(),
                };
                let result = exp.run_with_seed(7).unwrap();
                assert!(!result.stats.per_link.is_empty(), "{topology:?}");
                assert_payload_round_trips(&result);
            }
        }
    }

    #[test]
    fn payload_round_trips_saturated_and_empty_runs() {
        // Seven sources at λ = 0.5 into one sink: source queues grow
        // until latencies pass the last exact histogram bin.
        let mut exp = experiment();
        exp.traffic = TrafficSpec::SingleHotspot { target: 0 };
        exp.config.injection_rate = 0.5;
        exp.config.measure_cycles = 8_000;
        let saturated = exp.run_with_seed(7).unwrap();
        let overflow = (noc_sim::LatencyStats::HISTOGRAM_BINS - 1) as u64;
        assert_eq!(saturated.stats.latency.percentile(100.0), Some(overflow));
        assert_payload_round_trips(&saturated);

        exp.config.injection_rate = 0.0;
        let empty = exp.run_with_seed(7).unwrap();
        assert_eq!(empty.stats.packets_delivered, 0);
        assert_eq!(empty.stats.latency.count(), 0);
        assert_payload_round_trips(&empty);
    }

    #[test]
    fn damaged_payloads_are_rejected_without_panicking() {
        let payload = encode_payload(&experiment().run_with_seed(7).unwrap());
        for len in 0..payload.len() {
            assert!(decode_payload(&payload[..len]).is_err(), "prefix {len}");
        }
        for at in 0..payload.len() {
            for value in [0x00, 0x7f, 0x80, 0xff, payload[at] ^ 0x01] {
                let mut damaged = payload.clone();
                damaged[at] = value;
                let _ = decode_payload(&damaged);
            }
        }
        // A label claiming 2^60 bytes fails before anything is
        // allocated for it.
        let mut huge = Vec::new();
        codec::put_u64(&mut huge, 1 << 60);
        huge.extend_from_slice(&payload);
        assert!(matches!(
            decode_payload(&huge),
            Err(RecordFault::BadPayload(reason)) if reason.starts_with("length exceeds")
        ));
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
        let path = list_packs(&dir).unwrap().pop().unwrap();
        let entry = read_index(&path).unwrap()[0];
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[entry.range().end - 1] ^= 0x40;
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
    fn pack_index_round_trips_and_rejects_damage() {
        let dir = unique_temp_dir("noc-cache-pack");
        let mut pack = PackWriter::new(Vec::new());
        pack.push(Fingerprint(1), &encode_record(b"k1", b"p1"))
            .unwrap();
        pack.push(Fingerprint(2), &encode_record(b"key2", b"p2"))
            .unwrap();
        let (bytes, entries) = pack.finish().unwrap();
        assert_eq!(
            (entries[0].offset, entries[1].offset),
            (0, HEADER_LEN as u64 + 4)
        );
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(pack_name(0));
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_index(&path).unwrap(), entries);
        assert_eq!(
            read_span(&path, entries[1]).unwrap(),
            encode_record(b"key2", b"p2")
        );

        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(read_index(&path), Err(RecordFault::BadIndex("bad magic")));
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert_eq!(read_index(&path), Err(RecordFault::Truncated));
        let mut flipped = bytes.clone();
        flipped[bytes.len() - TRAILER_LEN - 1] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(
            read_index(&path),
            Err(RecordFault::BadIndex("index checksum mismatch"))
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_names_sort_in_creation_order_and_after_the_floor() {
        let names: Vec<String> = (0..4).map(|_| pack_name(0)).collect();
        assert!(names.windows(2).all(|pair| pair[0] < pair[1]), "{names:?}");
        let floor = pack_stamp(Path::new(&names[3])) + (1 << 40);
        let next = pack_name(floor);
        assert_eq!(pack_stamp(Path::new(&next)), floor + 1);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let dir = unique_temp_dir("noc-cache-counters");
        let cache = ExperimentCache::at(&dir);
        let exp = experiment();
        let job = || {
            vec![crate::ExperimentJob {
                experiment: exp.clone(),
                seed: 7,
            }]
        };
        let before = counters();
        let miss = crate::run_jobs(job(), crate::Parallelism::Sequential, &cache).unwrap();
        let hit = crate::run_jobs(job(), crate::Parallelism::Sequential, &cache).unwrap();
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
