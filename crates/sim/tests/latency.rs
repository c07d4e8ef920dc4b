//! Property tests of `LatencyStats` against an oracle that keeps every
//! sample: percentiles, merging, equality and both encodings must agree
//! with what the sorted samples say, overflow bin included.

use noc_sim::{LatencyStats, SimStats};
use proptest::prelude::*;

const LAST_BIN: u64 = LatencyStats::HISTOGRAM_BINS as u64 - 1;

/// Turns drawn `(value, tag)` pairs into samples: mostly below the
/// overflow bin, some at or just above it, and a few far past it.
fn samples(drawn: &[(u64, u8)]) -> Vec<u64> {
    drawn
        .iter()
        .map(|&(value, tag)| match tag {
            0 => value * 1_000_003,
            1 => LAST_BIN + value % 3,
            _ => value,
        })
        .collect()
}

fn recorded(samples: &[u64]) -> LatencyStats {
    let mut stats = LatencyStats::new();
    for &v in samples {
        stats.record(v);
    }
    stats
}

/// The percentile of the sorted samples, read the way the histogram
/// reads it: the smallest sample with at least `ceil(p% of n)` samples
/// at or below it, clamped to the overflow bin.
fn oracle_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let threshold = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[threshold - 1].min(LAST_BIN))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn percentiles_match_the_sorted_samples(
        drawn in proptest::collection::vec((0u64..5000, 0u8..10), 0..300),
        p in 0.001f64..100.0,
    ) {
        let samples = samples(&drawn);
        let stats = recorded(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for p in [p, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(stats.percentile(p), oracle_percentile(&sorted, p));
        }
        prop_assert_eq!(stats.count(), sorted.len() as u64);
        prop_assert_eq!(stats.min(), sorted.first().copied());
        prop_assert_eq!(stats.max(), sorted.last().copied());
        let mean = (!sorted.is_empty())
            .then(|| sorted.iter().sum::<u64>() as f64 / sorted.len() as f64);
        prop_assert_eq!(stats.mean(), mean);
    }

    #[test]
    fn merging_equals_recording_every_sample(
        drawn in proptest::collection::vec((0u64..5000, 0u8..10), 0..200),
        cut_a in 0usize..200,
        cut_b in 0usize..200,
    ) {
        let samples = samples(&drawn);
        let (lo, hi) = (cut_a.min(cut_b).min(samples.len()), cut_a.max(cut_b).min(samples.len()));
        let parts = [&samples[..lo], &samples[lo..hi], &samples[hi..]].map(recorded);
        let [a, b, c] = &parts;
        let all = recorded(&samples);
        let merged = |x: &LatencyStats, y: &LatencyStats| {
            let mut out = x.clone();
            out.merge(y);
            out
        };
        // Commutative.
        prop_assert_eq!(merged(a, b), merged(b, a));
        // Associative.
        prop_assert_eq!(merged(&merged(a, b), c), merged(a, &merged(b, c)));
        // The same as recording every sample into one summary.
        prop_assert_eq!(merged(&merged(a, b), c), all.clone());
        prop_assert_eq!(merged(&LatencyStats::new(), &all), all);
    }

    #[test]
    fn equality_ignores_recording_order(
        drawn in proptest::collection::vec((0u64..5000, 0u8..10), 0..200),
        shift in 0usize..200,
    ) {
        let samples = samples(&drawn);
        let mut reversed = samples.clone();
        reversed.reverse();
        let mut rotated = samples.clone();
        if !rotated.is_empty() {
            let by = shift % rotated.len();
            rotated.rotate_left(by);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let stats = recorded(&samples);
        for other in [reversed, rotated, sorted] {
            prop_assert_eq!(recorded(&other), stats.clone());
        }
    }

    #[test]
    fn codec_round_trips_are_exact(
        drawn in proptest::collection::vec((0u64..5000, 0u8..10), 0..200),
    ) {
        let mut stats = SimStats::default();
        stats.latency = recorded(&samples(&drawn));
        let mut bytes = Vec::new();
        stats.encode_into(&mut bytes);
        let decoded = SimStats::decode(&bytes).unwrap();
        prop_assert_eq!(&decoded, &stats);
        let mut again = Vec::new();
        decoded.encode_into(&mut again);
        prop_assert_eq!(again, bytes);
    }
}
