//! Statistics collection: throughput, latency, utilization, backlog.
//!
//! The paper's performance indexes are NoC **throughput** (flits per
//! cycle absorbed by destinations) and **latency** (packet creation to
//! delivery), as functions of the injection rate, topology and node
//! count. This module also records the auxiliary quantities needed to
//! interpret them: acceptance ratio, source backlog (the saturation
//! signal), link utilization and per-packet hop counts (Figure 5).

use core::fmt;
use noc_topology::{Direction, NodeId};

/// Histogram-backed summary of packet latencies in cycles.
///
/// Latencies up to [`LatencyStats::HISTOGRAM_BINS`]` - 1` cycles are
/// binned exactly; larger values share the overflow bin (percentiles
/// then saturate, min/max/mean stay exact). Only the non-zero bins are
/// stored, as ascending `(bin, count)` pairs: a summary costs memory in
/// proportion to the distinct latencies it saw, however large they are.
/// Recording a sample is a binary search and at worst one insert;
/// merging two summaries is a linear merge of their pairs.
///
/// # Examples
///
/// ```
/// use noc_sim::LatencyStats;
///
/// let mut stats = LatencyStats::new();
/// for latency in [10, 20, 30, 40, 50] {
///     stats.record(latency);
/// }
/// assert_eq!(stats.count(), 5);
/// assert_eq!(stats.min(), Some(10));
/// assert_eq!(stats.max(), Some(50));
/// assert!((stats.mean().unwrap() - 30.0).abs() < 1e-12);
/// assert_eq!(stats.percentile(50.0), Some(30));
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct LatencyStats {
    pub(crate) count: u64,
    pub(crate) sum: u64,
    pub(crate) min: u64,
    pub(crate) max: u64,
    /// The non-zero bins as `(bin, count)` pairs in ascending bin
    /// order (empty when `count` is 0), so equal summaries have equal
    /// vectors.
    pub(crate) bins: Vec<(u64, u64)>,
}

impl LatencyStats {
    /// Number of exact histogram bins.
    pub const HISTOGRAM_BINS: usize = 4096;

    /// The overflow bin, shared by every latency at or above it.
    const LAST_BIN: u64 = Self::HISTOGRAM_BINS as u64 - 1;

    /// Creates an empty summary.
    pub fn new() -> Self {
        LatencyStats {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            bins: Vec::new(),
        }
    }

    /// Records one latency sample in cycles.
    pub fn record(&mut self, latency: u64) {
        self.record_moments(latency);
        let bin = latency.min(Self::LAST_BIN);
        match self.bins.binary_search_by_key(&bin, |&(b, _)| b) {
            Ok(at) => self.bins[at].1 += 1,
            Err(at) => self.bins.insert(at, (bin, 1)),
        }
    }

    /// Adds a sample to `count`, `sum`, `min` and `max` only.
    fn record_moments(&mut self, latency: u64) {
        self.count += 1;
        self.sum += latency;
        self.min = self.min.min(latency);
        self.max = self.max.max(latency);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample, `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean latency, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `p`-th percentile (0 < p <= 100) from the histogram, `None`
    /// if empty. Values beyond the last bin saturate to the bin edge.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `(0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
        if self.count == 0 {
            return None;
        }
        let threshold = (p / 100.0 * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for &(bin, n) in &self.bins {
            seen += n;
            if seen >= threshold {
                return Some(bin);
            }
        }
        Some(Self::LAST_BIN)
    }

    /// Merges another summary into this one (used to combine
    /// replications).
    pub fn merge(&mut self, other: &LatencyStats) {
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        if other.bins.is_empty() {
            return;
        }
        if self.bins.is_empty() {
            self.bins.clone_from(&other.bins);
            return;
        }
        let (ours, theirs) = (&self.bins, &other.bins);
        let mut merged = Vec::with_capacity(ours.len() + theirs.len());
        let (mut i, mut j) = (0, 0);
        while let (Some(&(a, n)), Some(&(b, m))) = (ours.get(i), theirs.get(j)) {
            if a <= b {
                merged.push((a, if a == b { n + m } else { n }));
                i += 1;
                j += usize::from(a == b);
            } else {
                merged.push((b, m));
                j += 1;
            }
        }
        merged.extend_from_slice(&ours[i..]);
        merged.extend_from_slice(&theirs[j..]);
        self.bins = merged;
    }

    /// Checks the bins against the sample count, minimum and maximum,
    /// and the moments against each other: the bin counts must add up
    /// to `count`, and a non-empty summary must have the minimum's bin
    /// first and the maximum's last (each clamped to the overflow bin),
    /// `min <= max` and `count·min <= sum <= count·max`. The bins
    /// themselves must already be ascending and non-zero.
    pub(crate) fn check_bins(&self) -> Result<(), &'static str> {
        let binned = self
            .bins
            .iter()
            .try_fold(0u64, |total, &(_, n)| total.checked_add(n))
            .ok_or("bin counts overflow")?;
        if binned != self.count {
            return Err("bin counts disagree with the sample count");
        }
        if self.count == 0 {
            return Ok(());
        }
        if self.bins.first().map(|&(bin, _)| bin) != Some(self.min.min(Self::LAST_BIN)) {
            return Err("first bin disagrees with the minimum");
        }
        if self.bins.last().map(|&(bin, _)| bin) != Some(self.max.min(Self::LAST_BIN)) {
            return Err("last bin disagrees with the maximum");
        }
        if self.min > self.max {
            return Err("minimum above the maximum");
        }
        let (count, sum) = (u128::from(self.count), u128::from(self.sum));
        if sum < count * u128::from(self.min) || sum > count * u128::from(self.max) {
            return Err("sum outside count times the minimum and maximum");
        }
        Ok(())
    }
}

impl Default for LatencyStats {
    fn default() -> Self {
        LatencyStats::new()
    }
}

/// The simulation kernel's latency record during a measurement window.
///
/// Counting into a dense per-bin vector keeps the per-packet cost O(1);
/// [`summary`](Self::summary) folds it into the sparse
/// [`LatencyStats`] once, at the end of the run.
#[derive(Debug, Default)]
pub(crate) struct LatencyTally {
    /// `count`, `sum`, `min` and `max`; its bins stay empty.
    moments: LatencyStats,
    /// Samples per bin, ending at the largest sample's bin.
    dense: Vec<u64>,
}

impl LatencyTally {
    /// Records one latency sample in cycles.
    pub(crate) fn record(&mut self, latency: u64) {
        self.moments.record_moments(latency);
        let bin = latency.min(LatencyStats::LAST_BIN) as usize;
        if bin >= self.dense.len() {
            self.dense.resize(bin + 1, 0);
        }
        self.dense[bin] += 1;
    }

    /// The samples so far as a [`LatencyStats`].
    pub(crate) fn summary(&self) -> LatencyStats {
        LatencyStats {
            bins: (0u64..)
                .zip(&self.dense)
                .filter(|&(_, &n)| n > 0)
                .map(|(bin, &n)| (bin, n))
                .collect(),
            ..self.moments.clone()
        }
    }
}

// Hand-written serialization with a *sparse* histogram: the wire
// format carries the non-zero bins as `[index, count]` pairs, exactly
// as they are held in memory. Scalar counters keep their meaning.
impl serde::Serialize for LatencyStats {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let bins: Vec<Value> = self
            .bins
            .iter()
            .map(|&(bin, n)| Value::Array(vec![bin.to_value(), n.to_value()]))
            .collect();
        Value::Object(vec![
            ("count".to_owned(), self.count.to_value()),
            ("sum".to_owned(), self.sum.to_value()),
            ("min".to_owned(), self.min.to_value()),
            ("max".to_owned(), self.max.to_value()),
            ("bins".to_owned(), Value::Array(bins)),
        ])
    }
}

/// Flits carried by one unidirectional link during the measurement
/// window.
#[derive(Clone, Copy, PartialEq, Eq, Debug, serde::Serialize)]
pub struct LinkLoad {
    /// Sending router.
    pub from: NodeId,
    /// Output direction of the link at the sender.
    pub direction: Direction,
    /// Flits that crossed the link during the window.
    pub flits: u64,
}

/// Mean and half-width of a normal-approximation confidence interval
/// over independent samples (e.g. per-window throughput or replicated
/// runs). Returns `(mean, half_width)`; the half-width is 0 for fewer
/// than two samples.
///
/// `z` is the standard-normal quantile: 1.96 for 95%, 2.58 for 99%.
/// For long windows the batch means are approximately independent and
/// normal, the textbook output-analysis setup.
///
/// A run's throughput series comes from a
/// [`Recorder::with_window`](crate::Recorder::with_window) probe: take
/// `delivered_flits / cycles` of each entry of
/// [`Recorder::windows`](crate::Recorder::windows). Windows start at
/// cycle 0, so when the window divides `warmup_cycles` the measured
/// windows are those after the first `warmup_cycles / window`.
///
/// # Panics
///
/// Panics if `z` is not positive.
///
/// # Examples
///
/// ```
/// use noc_sim::confidence_interval;
///
/// let (mean, hw) = confidence_interval(&[10.0, 12.0, 11.0, 9.0], 1.96);
/// assert!((mean - 10.5).abs() < 1e-12);
/// assert!(hw > 0.0 && hw < 2.0);
/// ```
pub fn confidence_interval(samples: &[f64], z: f64) -> (f64, f64) {
    assert!(z > 0.0, "z quantile must be positive");
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, z * (var / n).sqrt())
}

/// The MSER (Marginal Standard Error Rule) truncation point of a time
/// series: the prefix length `d` to discard so that the marginal
/// standard error `s^2(d) / (n - d)` of the retained suffix is
/// minimized. The standard data-driven warmup detector of simulation
/// output analysis — record one long run with
/// [`Recorder::with_window`](crate::Recorder::with_window), feed the
/// per-window throughput here (see [`confidence_interval`] for how to
/// read it from [`Recorder::windows`](crate::Recorder::windows)), and
/// use the result (times the window) as the warmup for production runs.
///
/// Candidate truncations are limited to the first half of the series
/// (the usual MSER-5 guard against degenerate all-but-tail cuts).
/// Returns 0 for series shorter than 4 samples.
///
/// # Examples
///
/// ```
/// use noc_sim::mser_truncation;
///
/// // A transient of low values, then a steady state around 10.
/// let mut series = vec![0.0, 2.0, 5.0];
/// series.extend(std::iter::repeat_n(10.0, 20));
/// let cut = mser_truncation(&series);
/// assert_eq!(cut, 3); // exactly the transient prefix
/// ```
pub fn mser_truncation(samples: &[f64]) -> usize {
    let n = samples.len();
    if n < 4 {
        return 0;
    }
    let mut best = (f64::INFINITY, 0usize);
    for d in 0..=n / 2 {
        let tail = &samples[d..];
        let m = tail.len() as f64;
        let mean = tail.iter().sum::<f64>() / m;
        let sse = tail.iter().map(|v| (v - mean).powi(2)).sum::<f64>();
        let mser = sse / (m * m);
        if mser < best.0 {
            best = (mser, d);
        }
    }
    best.1
}

/// Results of one simulation run, collected over the measurement
/// window.
#[derive(Clone, PartialEq, Debug, Default, serde::Serialize)]
#[non_exhaustive]
pub struct SimStats {
    /// Length of the measurement window in cycles.
    pub measured_cycles: u64,
    /// Number of nodes in the simulated network.
    pub num_nodes: usize,
    /// Number of source nodes in the traffic pattern.
    pub num_sources: usize,
    /// Packets created by sources during the window.
    pub packets_generated: u64,
    /// Flits created by sources during the window.
    pub flits_generated: u64,
    /// Flits that left source queues into the network during the
    /// window.
    pub flits_injected: u64,
    /// Packets fully consumed by sinks during the window.
    pub packets_delivered: u64,
    /// Flits consumed by sinks during the window.
    pub flits_delivered: u64,
    /// Packet latency summary (creation to tail consumption).
    pub latency: LatencyStats,
    /// Total hops travelled by the head flits of delivered packets.
    pub total_hops: u64,
    /// Flits that crossed any inter-router link during the window.
    pub link_traversals: u64,
    /// Flits waiting in source queues when the run ended.
    pub backlog_flits: u64,
    /// Flits consumed per node during the window (destination load
    /// map; hot spots show up as spikes).
    pub per_node_delivered: Vec<u64>,
    /// Packets generated per node during the window (source load map).
    pub per_node_generated: Vec<u64>,
    /// Flits carried per unidirectional link during the window (link
    /// heat map; empty if the topology reported no links).
    pub per_link: Vec<LinkLoad>,
}

impl SimStats {
    /// Aggregate throughput in flits per cycle consumed by sinks.
    pub fn throughput_flits_per_cycle(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.flits_delivered as f64 / self.measured_cycles as f64
    }

    /// Throughput normalized per node, in flits per cycle per node.
    pub fn throughput_per_node(&self) -> f64 {
        if self.num_nodes == 0 {
            return 0.0;
        }
        self.throughput_flits_per_cycle() / self.num_nodes as f64
    }

    /// Offered load actually generated, in flits per cycle (should track
    /// `num_sources * lambda` below saturation).
    pub fn offered_load(&self) -> f64 {
        if self.measured_cycles == 0 {
            return 0.0;
        }
        self.flits_generated as f64 / self.measured_cycles as f64
    }

    /// Fraction of generated flits the network accepted from the source
    /// queues; below 1.0 the network is saturated.
    pub fn acceptance_ratio(&self) -> f64 {
        if self.flits_generated == 0 {
            return 1.0;
        }
        (self.flits_injected as f64 / self.flits_generated as f64).min(1.0)
    }

    /// Mean hops per delivered packet (Figure 5's simulated average
    /// network distance).
    pub fn mean_hops(&self) -> Option<f64> {
        (self.packets_delivered > 0).then(|| self.total_hops as f64 / self.packets_delivered as f64)
    }

    /// The node that consumed the most flits during the window, with
    /// its count (`None` if nothing was delivered).
    pub fn busiest_sink(&self) -> Option<(usize, u64)> {
        self.per_node_delivered
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, flits)| flits)
            .filter(|&(_, flits)| flits > 0)
    }

    /// Coefficient of variation of per-node consumed flits (0 for a
    /// perfectly balanced load, large under hot-spot traffic); `None`
    /// when nothing was delivered.
    pub fn sink_load_imbalance(&self) -> Option<f64> {
        let n = self.per_node_delivered.len();
        if n == 0 || self.flits_delivered == 0 {
            return None;
        }
        let mean = self.flits_delivered as f64 / n as f64;
        let var = self
            .per_node_delivered
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        Some(var.sqrt() / mean)
    }

    /// The most loaded link, if any flit crossed a link.
    pub fn hottest_link(&self) -> Option<LinkLoad> {
        self.per_link
            .iter()
            .copied()
            .max_by_key(|l| l.flits)
            .filter(|l| l.flits > 0)
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pct = |p: f64| {
            self.latency
                .percentile(p)
                .map_or_else(|| "-".to_owned(), |v| v.to_string())
        };
        write!(
            f,
            "throughput {:.4} flits/cycle, latency p50 {} / p95 {} / p99 {} cycles (mean {:.1}), delivered {} packets in {} cycles",
            self.throughput_flits_per_cycle(),
            pct(50.0),
            pct(95.0),
            pct(99.0),
            self.latency.mean().unwrap_or(0.0),
            self.packets_delivered,
            self.measured_cycles,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_latency_stats() {
        let s = LatencyStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.percentile(50.0), None);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let mut s = LatencyStats::new();
        for v in 1..=100u64 {
            s.record(v);
        }
        assert_eq!(s.percentile(1.0), Some(1));
        assert_eq!(s.percentile(50.0), Some(50));
        assert_eq!(s.percentile(95.0), Some(95));
        assert_eq!(s.percentile(100.0), Some(100));
    }

    #[test]
    fn overflow_bin_saturates_percentile_but_not_mean() {
        let mut s = LatencyStats::new();
        s.record(10_000_000);
        assert_eq!(s.max(), Some(10_000_000));
        assert_eq!(s.mean(), Some(10_000_000.0));
        assert_eq!(
            s.percentile(50.0),
            Some((LatencyStats::HISTOGRAM_BINS - 1) as u64)
        );
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyStats::new();
        a.record(5);
        let mut b = LatencyStats::new();
        b.record(15);
        b.record(25);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(5));
        assert_eq!(a.max(), Some(25));
        assert_eq!(a.mean(), Some(15.0));
    }

    #[test]
    fn merged_and_recorded_summaries_are_equal() {
        // The same non-zero bins, in whatever order the samples and
        // merges arrive.
        let (short, long) = ([3u64, 9, 9], [40u64, 10_000, 2]);
        let mut all = LatencyStats::new();
        for v in short.iter().chain(&long) {
            all.record(*v);
        }
        for (first, second) in [(&short, &long), (&long, &short)] {
            let (mut a, mut b) = (LatencyStats::new(), LatencyStats::new());
            first.iter().for_each(|&v| a.record(v));
            second.iter().for_each(|&v| b.record(v));
            a.merge(&b);
            assert_eq!(a, all);
        }
        assert_eq!(all.bins.len(), 5);
        assert!(LatencyStats::new().bins.is_empty());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyStats::new();
        a.record(7);
        let before = a.clone();
        a.merge(&LatencyStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn merge_accumulates_saturated_overflow_bins() {
        // Both sides hold samples beyond the last exact bin; the merged
        // overflow bin must carry the combined count while the moment
        // summaries (count/sum/min/max/mean) stay exact.
        let big = LatencyStats::HISTOGRAM_BINS as u64;
        let mut a = LatencyStats::new();
        a.record(big + 10);
        a.record(big * 3);
        let mut b = LatencyStats::new();
        b.record(big + 1);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(big * 3));
        assert_eq!(
            a.mean(),
            Some((big + 10 + big * 3 + big + 1 + 2) as f64 / 4.0)
        );
        // 3 of 4 samples saturate: p50 and above clamp to the overflow
        // bin's value, p25 still resolves exactly.
        assert_eq!(a.percentile(25.0), Some(2));
        assert_eq!(a.percentile(50.0), Some(big - 1));
        assert_eq!(a.percentile(99.0), Some(big - 1));
    }

    #[test]
    fn mser_on_constant_series_truncates_nothing() {
        let series = vec![3.5; 32];
        assert_eq!(mser_truncation(&series), 0);
    }

    #[test]
    fn mser_on_monotone_series_hits_the_half_guard() {
        // A strictly increasing series never reaches steady state; the
        // marginal standard error keeps shrinking with shorter tails,
        // so the MSER-5 guard caps the cut at half the series.
        let series: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(mser_truncation(&series), series.len() / 2);
    }

    #[test]
    fn confidence_interval_degenerate_sample_counts() {
        // n = 0: no data at all.
        assert_eq!(confidence_interval(&[], 1.96), (0.0, 0.0));
        // n = 1: a mean exists but no spread estimate.
        assert_eq!(confidence_interval(&[42.0], 1.96), (42.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn zero_percentile_rejected() {
        let s = LatencyStats::new();
        let _ = s.percentile(0.0);
    }

    #[test]
    fn throughput_and_ratios() {
        let stats = SimStats {
            measured_cycles: 1000,
            num_nodes: 8,
            num_sources: 7,
            packets_generated: 100,
            flits_generated: 600,
            flits_injected: 540,
            packets_delivered: 80,
            flits_delivered: 480,
            total_hops: 240,
            link_traversals: 2000,
            ..SimStats::default()
        };
        assert!((stats.throughput_flits_per_cycle() - 0.48).abs() < 1e-12);
        assert!((stats.throughput_per_node() - 0.06).abs() < 1e-12);
        assert!((stats.offered_load() - 0.6).abs() < 1e-12);
        assert!((stats.acceptance_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(stats.mean_hops(), Some(3.0));
    }

    #[test]
    fn degenerate_stats_do_not_divide_by_zero() {
        let stats = SimStats::default();
        assert_eq!(stats.throughput_flits_per_cycle(), 0.0);
        assert_eq!(stats.throughput_per_node(), 0.0);
        assert_eq!(stats.acceptance_ratio(), 1.0);
        assert_eq!(stats.mean_hops(), None);
    }

    #[test]
    fn mser_finds_the_transient_boundary() {
        // Pure steady state: no truncation.
        let steady = vec![5.0; 30];
        assert_eq!(mser_truncation(&steady), 0);
        // Obvious warmup ramp.
        let mut series = vec![0.0, 1.0, 2.0, 3.0];
        series.extend(std::iter::repeat_n(8.0, 24));
        assert_eq!(mser_truncation(&series), 4);
        // Short series: conservative zero.
        assert_eq!(mser_truncation(&[1.0, 2.0]), 0);
        // Truncation never exceeds half the series.
        let mut late = vec![0.0; 20];
        late.extend([9.0, 9.0]);
        assert!(mser_truncation(&late) <= 11);
    }

    #[test]
    fn confidence_interval_basics() {
        assert_eq!(confidence_interval(&[], 1.96), (0.0, 0.0));
        assert_eq!(confidence_interval(&[5.0], 1.96), (5.0, 0.0));
        let (m, hw) = confidence_interval(&[1.0, 1.0, 1.0], 1.96);
        assert_eq!((m, hw), (1.0, 0.0));
        let (m, hw) = confidence_interval(&[1.0, 2.0, 3.0], 1.96);
        assert!((m - 2.0).abs() < 1e-12);
        assert!(hw > 0.0);
        // Wider spread, wider interval.
        let (_, hw_narrow) = confidence_interval(&[10.0, 10.1, 9.9, 10.0], 1.96);
        let (_, hw_wide) = confidence_interval(&[5.0, 15.0, 2.0, 18.0], 1.96);
        assert!(hw_wide > hw_narrow);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn confidence_interval_rejects_bad_z() {
        let _ = confidence_interval(&[1.0], 0.0);
    }

    #[test]
    fn hottest_link_is_the_busiest() {
        let stats = SimStats {
            per_link: vec![
                LinkLoad {
                    from: NodeId::new(0),
                    direction: Direction::East,
                    flits: 3,
                },
                LinkLoad {
                    from: NodeId::new(1),
                    direction: Direction::West,
                    flits: 9,
                },
            ],
            ..SimStats::default()
        };
        assert_eq!(stats.hottest_link().unwrap().flits, 9);
        assert_eq!(SimStats::default().hottest_link(), None);
    }

    #[test]
    fn per_node_maps_summarize_load() {
        let stats = SimStats {
            flits_delivered: 12,
            per_node_delivered: vec![0, 12, 0, 0],
            ..SimStats::default()
        };
        assert_eq!(stats.busiest_sink(), Some((1, 12)));
        // All flits at one of four nodes: CV = sqrt(3) ~ 1.73.
        let cv = stats.sink_load_imbalance().unwrap();
        assert!((cv - 3f64.sqrt()).abs() < 1e-12);
        let balanced = SimStats {
            flits_delivered: 12,
            per_node_delivered: vec![3, 3, 3, 3],
            ..SimStats::default()
        };
        assert_eq!(balanced.sink_load_imbalance(), Some(0.0));
        assert_eq!(SimStats::default().busiest_sink(), None);
        assert_eq!(SimStats::default().sink_load_imbalance(), None);
    }

    #[test]
    fn display_reports_percentiles() {
        let rendered = SimStats::default().to_string();
        assert!(rendered.contains("p50") && rendered.contains("p95") && rendered.contains("p99"));
        let mut s = SimStats {
            measured_cycles: 10,
            ..Default::default()
        };
        for v in 1..=100u64 {
            s.latency.record(v);
        }
        let rendered = s.to_string();
        assert!(rendered.contains("p50 50 / p95 95 / p99 99"), "{rendered}");
    }

    #[test]
    fn latency_stats_serialize_only_non_zero_bins() {
        let mut lat = LatencyStats::new();
        for v in [0u64, 1, 7, 7, 4095, 10_000] {
            lat.record(v);
        }
        let json = serde_json::to_string(&lat).unwrap();
        assert!(json.contains("[0,1]") && json.contains("[7,2]"), "{json}");
        assert!(json.contains("[4095,2]"), "overflow bin shared: {json}");
        assert!(!json.contains("[2,0]"), "zero bins omitted: {json}");
    }

    #[test]
    fn streamed_json_equals_the_value_tree() {
        // `LatencyStats` gives only `to_value`; the derived `SimStats`
        // around it streams and must print the same bytes as its tree.
        let mut stats = SimStats {
            per_node_delivered: vec![5, 0, 10],
            ..SimStats::default()
        };
        for v in [3u64, 9, 9, 400, 70_000] {
            stats.latency.record(v);
        }
        for pretty in [false, true] {
            let mut tree = String::new();
            let mut w = if pretty {
                serde::Writer::pretty(&mut tree)
            } else {
                serde::Writer::compact(&mut tree)
            };
            w.value(&serde::Serialize::to_value(&stats));
            let streamed = if pretty {
                serde_json::to_string_pretty(&stats)
            } else {
                serde_json::to_string(&stats)
            };
            assert_eq!(streamed.unwrap(), tree);
        }
    }
}
