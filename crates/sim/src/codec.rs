//! Compact binary encoding of [`SimStats`], the payload of
//! `noc_core`'s experiment-cache records.
//!
//! Every integer is an unsigned LEB128 varint (7 bits per byte, low
//! group first, high bit set on all but the last byte). Floats are the
//! eight little-endian bytes of their bit pattern, so they round-trip
//! bit-exactly; strings are a varint byte length followed by UTF-8.
//! A [`SimStats`] is written field by field in declaration order:
//!
//! * the scalar counters as varints;
//! * [`LatencyStats`] as `count, sum, min, max`, then the number of
//!   non-zero bins and one `(gap, count)` pair per such bin, where the
//!   bin index is the previous non-zero index plus one plus `gap`
//!   (the first index is `gap` itself). These are the summary's
//!   in-memory `(bin, count)` pairs, so decoding pushes each pair as
//!   read; it rejects an empty bin, an index past the overflow bin,
//!   counts that do not add up to `count`, and, when `count > 0`, a
//!   first bin other than the minimum's, a last bin other than the
//!   maximum's, `min > max` and a `sum` outside
//!   `[count·min, count·max]`;
//! * `per_node_delivered` and `per_node_generated` as a length and
//!   that many varints;
//! * `per_link` as a length and one `(from, direction, flits)` triple
//!   per link, the direction being its index in [`Direction::ALL`]
//!   (so reordering that array changes the format).
//!
//! [`SimStats`] holds no floats; [`put_f64`] and [`Reader::f64`] serve
//! callers that frame the statistics with their own fields.
//!
//! [`Reader`] never panics and never allocates more than the bytes it
//! has left could fill: a malformed, truncated or over-long input is a
//! [`DecodeError`].

use crate::{LatencyStats, LinkLoad, SimStats};
use core::fmt;
use noc_topology::{Direction, NodeId};

/// Why a byte string is not a valid encoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DecodeError(&'static str);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Appends `value` as an unsigned LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Appends the little-endian bit pattern of `value`.
pub fn put_f64(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

/// Appends `value` as a varint byte length and its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u64(out, value.len() as u64);
    out.extend_from_slice(value.as_bytes());
}

fn put_usize(out: &mut Vec<u8>, value: usize) {
    put_u64(out, value as u64);
}

/// A cursor over an encoded byte string.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the first byte of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .rest
            .split_at_checked(len)
            .ok_or(DecodeError("unexpected end of input"))?;
        self.rest = rest;
        Ok(head)
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// # Errors
    ///
    /// Fails at the end of input or when the value exceeds `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        // Most values fit in one byte.
        if let Some((&byte, rest)) = self.rest.split_first() {
            if byte < 0x80 {
                self.rest = rest;
                return Ok(u64::from(byte));
            }
        }
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.take(1)?[0];
            if shift == 63 && byte > 1 {
                return Err(DecodeError("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(DecodeError("varint overflows u64"))
    }

    fn usize(&mut self) -> Result<usize, DecodeError> {
        let value = self.u64()?;
        usize::try_from(value).map_err(|_| DecodeError("value overflows usize"))
    }

    /// Reads a float from its eight little-endian bit-pattern bytes.
    ///
    /// # Errors
    ///
    /// Fails at the end of input.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        let bytes = self.take(8)?.try_into().expect("take(8) yields 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Fails at the end of input or on invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.length(1)?;
        let bytes = self.take(len)?;
        core::str::from_utf8(bytes).map_err(|_| DecodeError("string is not UTF-8"))
    }

    /// Reads an element count and rejects it unless `count *
    /// min_bytes` still fits in the input, so a caller may allocate
    /// `count` elements.
    fn length(&mut self, min_bytes: usize) -> Result<usize, DecodeError> {
        let len = self.usize()?;
        if len > self.rest.len() / min_bytes {
            return Err(DecodeError("length exceeds the remaining input"));
        }
        Ok(len)
    }

    fn vec_u64(&mut self) -> Result<Vec<u64>, DecodeError> {
        let len = self.length(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.u64()?);
        }
        Ok(out)
    }

    /// The bytes not read yet.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Ends decoding.
    ///
    /// # Errors
    ///
    /// Fails if any input is left unread.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(DecodeError("trailing bytes"))
        }
    }
}

impl LatencyStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let LatencyStats {
            count,
            sum,
            min,
            max,
            bins,
        } = self;
        for value in [count, sum, min, max] {
            put_u64(out, *value);
        }
        put_usize(out, bins.len());
        let mut next = 0;
        for &(bin, n) in bins {
            put_u64(out, bin - next);
            put_u64(out, n);
            next = bin + 1;
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut out = LatencyStats::new();
        out.count = r.u64()?;
        out.sum = r.u64()?;
        out.min = r.u64()?;
        out.max = r.u64()?;
        let pairs = r.length(2)?;
        out.bins.reserve_exact(pairs);
        let mut next = 0u64;
        for _ in 0..pairs {
            let bin = next
                .checked_add(r.u64()?)
                .filter(|&bin| bin < Self::HISTOGRAM_BINS as u64)
                .ok_or(DecodeError("bin index out of range"))?;
            let n = r.u64()?;
            if n == 0 {
                return Err(DecodeError("empty bin listed"));
            }
            out.bins.push((bin, n));
            next = bin + 1;
        }
        out.check_bins().map_err(DecodeError)?;
        Ok(out)
    }
}

impl SimStats {
    /// Appends the binary encoding of these statistics (see the
    /// [`codec`](crate::codec) module for the layout).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        // No `..`: a new field does not compile until it is encoded.
        let SimStats {
            measured_cycles,
            num_nodes,
            num_sources,
            packets_generated,
            flits_generated,
            flits_injected,
            packets_delivered,
            flits_delivered,
            latency,
            total_hops,
            link_traversals,
            backlog_flits,
            per_node_delivered,
            per_node_generated,
            per_link,
        } = self;
        put_u64(out, *measured_cycles);
        put_usize(out, *num_nodes);
        put_usize(out, *num_sources);
        for value in [
            packets_generated,
            flits_generated,
            flits_injected,
            packets_delivered,
            flits_delivered,
        ] {
            put_u64(out, *value);
        }
        latency.encode_into(out);
        for value in [total_hops, link_traversals, backlog_flits] {
            put_u64(out, *value);
        }
        for values in [per_node_delivered, per_node_generated] {
            put_usize(out, values.len());
            for &value in values {
                put_u64(out, value);
            }
        }
        put_usize(out, per_link.len());
        for link in per_link {
            let tag = Direction::ALL
                .iter()
                .position(|&d| d == link.direction)
                .expect("Direction::ALL lists every direction");
            put_usize(out, link.from.index());
            put_usize(out, tag);
            put_u64(out, link.flits);
        }
    }

    /// Decodes statistics written by [`encode_into`](Self::encode_into).
    ///
    /// # Errors
    ///
    /// Fails on truncated or trailing input, a bin index at or above
    /// [`LatencyStats::HISTOGRAM_BINS`], an empty bin, bin counts that
    /// do not add up to the sample count, a last bin other than the
    /// maximum's, or a direction outside [`Direction::ALL`].
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let measured_cycles = r.u64()?;
        let num_nodes = r.usize()?;
        let num_sources = r.usize()?;
        let packets_generated = r.u64()?;
        let flits_generated = r.u64()?;
        let flits_injected = r.u64()?;
        let packets_delivered = r.u64()?;
        let flits_delivered = r.u64()?;
        let latency = LatencyStats::decode_from(&mut r)?;
        let total_hops = r.u64()?;
        let link_traversals = r.u64()?;
        let backlog_flits = r.u64()?;
        let per_node_delivered = r.vec_u64()?;
        let per_node_generated = r.vec_u64()?;
        let links = r.length(3)?;
        let mut per_link = Vec::with_capacity(links);
        for _ in 0..links {
            let from = NodeId::new(r.usize()?);
            let direction = *Direction::ALL
                .get(r.usize()?)
                .ok_or(DecodeError("direction tag out of range"))?;
            let flits = r.u64()?;
            per_link.push(LinkLoad {
                from,
                direction,
                flits,
            });
        }
        r.finish()?;
        Ok(SimStats {
            measured_cycles,
            num_nodes,
            num_sources,
            packets_generated,
            flits_generated,
            flits_injected,
            packets_delivered,
            flits_delivered,
            latency,
            total_hops,
            link_traversals,
            backlog_flits,
            per_node_delivered,
            per_node_generated,
            per_link,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        let mut stats = SimStats {
            measured_cycles: 1000,
            num_nodes: 4,
            num_sources: 3,
            packets_generated: 40,
            flits_generated: 240,
            flits_injected: 230,
            packets_delivered: 30,
            flits_delivered: 180,
            total_hops: 61,
            link_traversals: 366,
            backlog_flits: 10,
            per_node_delivered: vec![60, 0, 120, 0],
            per_node_generated: vec![0, 14, 13, 13],
            per_link: Direction::ALL
                .iter()
                .enumerate()
                .map(|(i, &direction)| LinkLoad {
                    from: NodeId::new(i % 4),
                    direction,
                    flits: 1 << (7 * i),
                })
                .collect(),
            ..SimStats::default()
        };
        for latency in [0, 1, 7, 7, 127, 128, 4095, 100_000, u64::MAX / 4] {
            stats.latency.record(latency);
        }
        stats
    }

    fn encode(stats: &SimStats) -> Vec<u8> {
        let mut out = Vec::new();
        stats.encode_into(&mut out);
        out
    }

    #[test]
    fn varints_round_trip_at_group_boundaries() {
        for value in [0, 1, 127, 128, 16_383, 16_384, u64::MAX / 2, u64::MAX] {
            let mut out = Vec::new();
            put_u64(&mut out, value);
            assert_eq!(
                out.len(),
                (64 - value.leading_zeros() as usize).div_ceil(7).max(1)
            );
            let mut r = Reader::new(&out);
            assert_eq!(r.u64(), Ok(value));
            r.finish().unwrap();
        }
        // Eleven bytes, or a tenth byte above 1, overflow u64.
        for bytes in [
            &[0xff; 11][..],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
        ] {
            assert!(Reader::new(bytes).u64().is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn stats_round_trip_bit_exactly() {
        for stats in [sample_stats(), SimStats::default()] {
            let bytes = encode(&stats);
            let back = SimStats::decode(&bytes).unwrap();
            assert_eq!(back, stats);
            assert_eq!(encode(&back), bytes, "re-encoding is byte-identical");
        }
    }

    #[test]
    fn every_strict_prefix_and_any_trailing_byte_is_rejected() {
        let bytes = encode(&sample_stats());
        for len in 0..bytes.len() {
            assert!(SimStats::decode(&bytes[..len]).is_err(), "prefix {len}");
        }
        let mut long = bytes;
        long.push(0);
        let err = SimStats::decode(&long).unwrap_err();
        assert!(err.to_string().starts_with("trailing bytes"), "{err}");
    }

    #[test]
    fn single_byte_changes_never_panic() {
        let bytes = encode(&sample_stats());
        for at in 0..bytes.len() {
            for value in [0x00, 0x01, 0x7f, 0x80, 0xff, bytes[at] ^ 0x01] {
                let mut damaged = bytes.clone();
                damaged[at] = value;
                let _ = SimStats::decode(&damaged);
            }
        }
    }

    #[test]
    fn huge_length_prefix_fails_without_allocating() {
        // A default run with every count zero up to the first vector,
        // whose length claims 2^60 elements.
        let mut bytes = Vec::new();
        for _ in 0..8 {
            put_u64(&mut bytes, 0);
        }
        // Empty latency summary: count, sum, min, max, no bins.
        for value in [0, 0, u64::MAX, 0, 0] {
            put_u64(&mut bytes, value);
        }
        for _ in 0..4 {
            put_u64(&mut bytes, 0);
        }
        put_u64(&mut bytes, 1 << 60);
        let err = SimStats::decode(&bytes).unwrap_err();
        assert!(err.to_string().starts_with("length exceeds"), "{err}");
        let mut r = Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10, b'x']);
        assert!(r.str().is_err(), "a 2^60-byte string is rejected");
    }

    #[test]
    fn out_of_range_bins_and_directions_are_rejected() {
        let one_bin = |gap: u64, count: u64| {
            let mut bytes = Vec::new();
            for value in [1, 7, 7, 7, 1, gap, count] {
                put_u64(&mut bytes, value);
            }
            bytes
        };
        let decode_latency = |bytes: &[u8]| LatencyStats::decode_from(&mut Reader::new(bytes));
        assert!(decode_latency(&one_bin(7, 1)).is_ok());
        assert!(decode_latency(&one_bin(LatencyStats::HISTOGRAM_BINS as u64, 1)).is_err());
        assert!(decode_latency(&one_bin(u64::MAX, 1)).is_err());
        assert!(decode_latency(&one_bin(7, 0)).is_err(), "empty bin");
        assert!(decode_latency(&one_bin(7, 2)).is_err(), "counts disagree");
        assert!(decode_latency(&one_bin(6, 1)).is_err(), "bin below max");
        let summary = |count, sum, min, max, bins: &[(u64, u64)]| {
            let mut bytes = Vec::new();
            let bins = bins.to_vec();
            LatencyStats {
                count,
                sum,
                min,
                max,
                bins,
            }
            .encode_into(&mut bytes);
            decode_latency(&bytes)
        };
        let (five, six) = ((5, 1), (6, 1));
        assert!(summary(2, 11, 5, 6, &[five, six]).is_ok());
        assert!(
            summary(2, 11, 4, 6, &[five, six]).is_err(),
            "first bin above min"
        );
        assert!(
            summary(2, 9, 5, 6, &[five, six]).is_err(),
            "sum below count·min"
        );
        assert!(
            summary(2, 13, 5, 6, &[five, six]).is_err(),
            "sum above count·max"
        );
        assert!(
            summary(1, 4700, 5000, 4500, &[(4095, 1)]).is_err(),
            "min above max"
        );
        let max = u64::MAX;
        assert!(
            summary(2, max, max, max, &[(4095, 2)]).is_err(),
            "count·min past u64"
        );

        let stats = SimStats {
            per_link: vec![LinkLoad {
                from: NodeId::new(0),
                direction: Direction::Local,
                flits: 5,
            }],
            ..SimStats::default()
        };
        let mut bytes = encode(&stats);
        // The link triple is the last three bytes: from, direction tag,
        // flits.
        let tag = bytes.len() - 2;
        assert_eq!(bytes[tag], (Direction::ALL.len() - 1) as u8);
        bytes[tag] = Direction::ALL.len() as u8;
        let err = SimStats::decode(&bytes).unwrap_err();
        assert!(err.to_string().starts_with("direction tag"), "{err}");
    }
}
