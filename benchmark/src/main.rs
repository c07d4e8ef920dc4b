//! The repository benchmark: how long regenerating the paper's figures
//! takes, end to end and per layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <figures-cold|figures-warm|kernel-light> \
//!     --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! Workloads (all batch: a fixed amount of work per pass, timed per
//! pass, repeated for `--seconds`):
//!
//! * `figures-cold` — every paper figure (Figures 2, 3, 5-11 and the
//!   link table) computed from an empty private result store and
//!   rendered to JSON, CSV, an ASCII table and a plot in memory;
//! * `figures-warm` — the same figure set answered entirely from a
//!   store an untimed cold pass filled during set-up;
//! * `kernel-light` — `Simulation::run` on Ring, Spidergon and 2D Mesh
//!   at 64 nodes under light uniform traffic, on one thread with no
//!   cache and no engine.
//!
//! `--trace 0` prints the end-to-end metrics of the named workload.
//! `--trace 1` replays all three workloads through the public calls of
//! each layer (spec, sim, probe, parallel, cache, figures, report and
//! plot), times every call, checks that each replay renders the same
//! bytes as an untraced pass, and prints the per-layer metrics.
//!
//! Times are normalised to a nominal host speed by a fixed reference
//! job timed between segments (see [`host::Reference`]); the measured
//! medians go to standard error.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it records provenance (host cores, workers, seed,
//! `git describe`). All scratch files live under `.bench_work/` in the
//! working directory and are removed before exit.

mod host;
mod plan;
mod trace;
mod workloads;

use plan::Size;
use serde::Value;
use std::path::{Path, PathBuf};

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    FiguresCold,
    FiguresWarm,
    KernelLight,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "figures-cold" => Some(Workload::FiguresCold),
            "figures-warm" => Some(Workload::FiguresWarm),
            "kernel-light" => Some(Workload::KernelLight),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FiguresCold => "figures-cold",
            Workload::FiguresWarm => "figures-warm",
            Workload::KernelLight => "kernel-light",
        }
    }
}

/// Everything a run needs: parsed options, the pinned worker count and
/// the private scratch directory.
pub struct Context {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    pub workers: usize,
    pub work: WorkDir,
    pub reference: std::cell::RefCell<host::Reference>,
}

impl Context {
    /// Runs `f` with a stopwatch at the nominal host speed (see
    /// [`host::Reference`]); returns its value and the time of the
    /// segments it timed.
    pub fn timed<T>(&self, f: impl FnOnce(&mut host::Stopwatch) -> T) -> (T, host::Sample) {
        let mut reference = self.reference.borrow_mut();
        let mut watch = reference.stopwatch();
        let value = f(&mut watch);
        (value, watch.total())
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, printed to standard error; any makes the run
    /// incorrect.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts `ops` operations, all failed when `outcome` is an error.
    pub fn count(&mut self, ops: u64, outcome: Result<(), String>) {
        self.attempted += ops;
        if let Err(problem) = outcome {
            self.failed += ops;
            self.problems.push(problem);
        }
    }

    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// The run's private scratch directory, `.bench_work/<pid>` under the
/// working directory; removed on drop.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let root = std::env::current_dir()?
            .join(".bench_work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&root)?;
        Ok(WorkDir {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A fresh, not yet created path for a result store.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Deletes a result store.
pub fn discard(store: &Path) {
    let _ = std::fs::remove_dir_all(store);
}

fn parse_args() -> Result<(Workload, u64, f64, bool, Size), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut size) =
        (None, 2006, None, false, Size::Full);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err("--size takes full or smoke".into()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed,
        seconds.ok_or("--seconds is required")?,
        trace,
        size,
    ))
}

/// Lets [`serde::Value`] trees go through the vendored `serde_json`.
struct Json(Value);

impl serde::Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn main() {
    let (workload, seed, seconds, trace, size) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    let workers = noc_core::parallel::available_cores();
    // Allocated first, so the process's memory high-water mark is the
    // tables plus the program's own peak. Its thread count matches the
    // timed passes: the kernel rows run on one thread, and so does a
    // warm figure pass, whose engine has no misses to hand out.
    let threads = match workload {
        Workload::FiguresCold => workers,
        _ if trace => workers,
        Workload::FiguresWarm | Workload::KernelLight => 1,
    };
    let reference = std::cell::RefCell::new(host::Reference::new(threads));
    // Isolation: the figure functions' engine reads these variables, so
    // pin them before any worker starts. Each pass points NOC_CACHE at
    // its own private store; an ambient store is never touched.
    std::env::set_var("NOC_THREADS", workers.to_string());
    std::env::set_var("NOC_CACHE", "0");
    std::env::remove_var("NOC_CACHE_MAX_BYTES");
    let work = match WorkDir::create() {
        Ok(work) => work,
        Err(e) => {
            eprintln!("benchmark: cannot create scratch directory: {e}");
            std::process::exit(1);
        }
    };
    let ctx = Context {
        workload,
        seed,
        seconds,
        size,
        workers,
        work,
        reference,
    };
    let outcome = if trace {
        trace::run(&ctx)
    } else {
        workloads::run(&ctx)
    };
    drop(ctx);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(1);
        }
    };
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("benchmark: metric {} is not finite", bad.name);
        std::process::exit(1);
    }
    for problem in &report.problems {
        eprintln!("benchmark: check failed: {problem}");
    }
    let provenance = object(vec![
        ("workload", Value::String(workload.name().into())),
        ("seed", Value::U64(seed)),
        ("trace", Value::Bool(trace)),
        ("host_cores", Value::U64(workers as u64)),
        ("workers", Value::U64(workers as u64)),
        (
            "git_describe",
            host::git_describe().map_or(Value::Null, Value::String),
        ),
    ]);
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                object(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::String(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = object(vec![
        (
            "correct",
            Value::Bool(report.problems.is_empty() && report.failed == 0),
        ),
        ("attempted", Value::U64(report.attempted)),
        ("failed", Value::U64(report.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    let json = |v: Value| serde_json::to_string(&Json(v)).expect("JSON serializes");
    println!("provenance {}", json(provenance));
    println!("{}", json(result));
}
