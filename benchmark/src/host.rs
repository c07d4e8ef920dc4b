//! Host-side measurements: wall and CPU time of a pass, peak memory,
//! provenance, and the order statistics the report uses.

use std::path::Path;
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds consumed by the whole process so far.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of
    // the call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one timed pass.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Measured wall seconds before any normalisation.
    pub raw_wall_s: f64,
}

/// Runs `f` and returns its value with the wall and CPU time it took.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let value = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let sample = Sample {
        wall_s,
        cpu_s,
        raw_wall_s: wall_s,
    };
    (value, sample)
}

/// A fixed speed reference: random read-modify-write traffic over
/// 64 MiB of tables, bound by memory latency like the simulator's buffer
/// and packet lookups. It is the benchmark's own code, so no change to
/// the repository can make it faster or slower.
///
/// Shared hosts slow down for seconds to minutes at a time, mostly
/// through memory contention from other tenants; a pass can take 1.6x
/// longer with the program unchanged. The reference job slows down with
/// it, so timing it next to each pass lets the benchmark report times
/// at a nominal host speed (see [`REFERENCE_NOMINAL_S`]). It runs on as
/// many threads as the passes it calibrates, one table each, because
/// each core of the host slows down on its own.
pub struct Reference {
    tables: Vec<Vec<u32>>,
}

/// Table words of the reference job over all threads (64 MiB, beyond
/// any cache level).
const REFERENCE_WORDS: usize = 1 << 24;

/// Table updates per thread per reference job.
const REFERENCE_STEPS: usize = 1_000_000;

/// The reference job's duration at the nominal host speed. Normalised
/// seconds are measured seconds scaled by this over the reference
/// job's duration measured next to them.
pub const REFERENCE_NOMINAL_S: f64 = 0.025;

impl Reference {
    /// Allocates and touches the tables (resident for the whole run)
    /// for a job on `threads` threads.
    pub fn new(threads: usize) -> Self {
        let words = 1 << (REFERENCE_WORDS / threads.max(1)).ilog2();
        Reference {
            tables: (0..threads.max(1)).map(|_| vec![1; words]).collect(),
        }
    }

    /// Resident size of the tables in MiB.
    pub fn mib(&self) -> f64 {
        let words: usize = self.tables.iter().map(Vec::len).sum();
        (words * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Runs the job once on every thread and returns the mean of their
    /// wall seconds.
    pub fn time(&mut self) -> f64 {
        let total: f64 = std::thread::scope(|scope| {
            let runs: Vec<_> = self
                .tables
                .iter_mut()
                .enumerate()
                .map(|(i, table)| scope.spawn(move || reference_steps(table, i as u64)))
                .collect();
            runs.into_iter()
                .map(|run| run.join().expect("reference job panicked"))
                .sum()
        });
        total / self.tables.len() as f64
    }

    /// Starts a stopwatch at the nominal host speed.
    pub fn stopwatch(&mut self) -> Stopwatch<'_> {
        let last = self.time();
        Stopwatch {
            reference: self,
            last,
            total: Sample {
                wall_s: 0.0,
                cpu_s: 0.0,
                raw_wall_s: 0.0,
            },
        }
    }
}

/// Normalised time over consecutive segments of a pass. The reference
/// job runs after every segment, so each segment is scaled by the host
/// speed measured on both sides of it, and a pass that straddles a
/// change of host speed is corrected piece by piece.
pub struct Stopwatch<'a> {
    reference: &'a mut Reference,
    last: f64,
    total: Sample,
}

impl Stopwatch<'_> {
    /// Times one segment.
    pub fn lap<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (value, raw) = measure(f);
        let now = self.reference.time();
        let scale = REFERENCE_NOMINAL_S / ((self.last + now) / 2.0);
        self.last = now;
        self.total.wall_s += raw.wall_s * scale;
        self.total.cpu_s += raw.cpu_s * scale;
        self.total.raw_wall_s += raw.wall_s;
        value
    }

    /// The time of every segment so far.
    pub fn total(&self) -> Sample {
        self.total
    }
}

/// One thread's share of the reference job; returns its wall seconds.
fn reference_steps(table: &mut [u32], seed: u64) -> f64 {
    let t0 = Instant::now();
    let mask = table.len() - 1;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15 ^ seed;
    let mut acc: u32 = 0;
    for _ in 0..REFERENCE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & mask;
        let word = table[slot];
        acc = if word & 1 == 0 {
            acc.wrapping_add(word)
        } else {
            acc ^ (x >> 32) as u32
        };
        table[slot] = word.wrapping_add(acc | 1);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Process memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of a non-empty sample set.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `git describe --always --dirty` of the working directory, without
/// letting git search above it (the benchmark reads nothing outside
/// the checkout it runs in). `None` outside a repository.
pub fn git_describe() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().unwrap_or(Path::new("/"));
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// FNV-1a (64-bit) over everything a pass outputs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}
