//! Compact binary encoding of interval traces.
//!
//! Simulated masking traces are expensive to produce (minutes of detailed
//! timing simulation); this module lets benchmark harnesses cache them on
//! disk. The format is deliberately simple: a magic/version header, a
//! segment count, then `(u64 length, f64 vulnerability)` pairs, all
//! little-endian.

use serr_types::SerrError;

use crate::{IntervalTrace, IntervalTraceBuilder, Segment};

const MAGIC: &[u8; 4] = b"SERT";
const VERSION: u8 = 1;
/// Magic, version byte, and segment count.
const HEADER_LEN: usize = 4 + 1 + 8;

/// Serializes an [`IntervalTrace`] to the compact binary format.
///
/// ```
/// use serr_trace::{decode_interval_trace, encode_interval_trace, IntervalTrace};
/// let t = IntervalTrace::busy_idle(10, 20).unwrap();
/// let bytes = encode_interval_trace(&t);
/// assert_eq!(decode_interval_trace(&bytes).unwrap(), t);
/// ```
#[must_use]
pub fn encode_interval_trace(trace: &IntervalTrace) -> Vec<u8> {
    let count = trace.segment_count();
    let mut buf = Vec::with_capacity(HEADER_LEN + count * 16);
    buf.extend_from_slice(MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&(count as u64).to_le_bytes());
    for s in trace.segments() {
        buf.extend_from_slice(&s.len.to_le_bytes());
        buf.extend_from_slice(&s.vulnerability.to_le_bytes());
    }
    buf
}

/// Deserializes a trace produced by [`encode_interval_trace`].
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] on a bad magic, unsupported version,
/// truncated input, or invalid segment contents.
pub fn decode_interval_trace(bytes: &[u8]) -> Result<IntervalTrace, SerrError> {
    let le_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte field"));
    if bytes.len() < HEADER_LEN {
        return Err(SerrError::invalid_trace("encoded trace truncated before header"));
    }
    let (header, body) = bytes.split_at(HEADER_LEN);
    if &header[..4] != MAGIC {
        return Err(SerrError::invalid_trace("bad magic in encoded trace"));
    }
    let version = header[4];
    if version != VERSION {
        return Err(SerrError::invalid_trace(format!("unsupported trace version {version}")));
    }
    let count = le_u64(&header[5..]);
    let need = usize::try_from(count)
        .ok()
        .and_then(|c| c.checked_mul(16))
        .ok_or_else(|| SerrError::invalid_trace("segment count overflows"))?;
    if body.len() != need {
        return Err(SerrError::invalid_trace(format!(
            "expected {need} bytes of segments, found {}",
            body.len()
        )));
    }
    let mut table = IntervalTraceBuilder::with_capacity(body.len() / 16);
    for pair in body.chunks_exact(16) {
        let seg = Segment::new(le_u64(&pair[..8]), f64::from_bits(le_u64(&pair[8..])))?;
        table.push_segment(seg.len, seg.vulnerability)?;
    }
    table.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let t = IntervalTrace::busy_idle(100, 50).unwrap();
        let enc = encode_interval_trace(&t);
        assert_eq!(decode_interval_trace(&enc).unwrap(), t);
    }

    #[test]
    fn roundtrip_fractional_levels() {
        let levels: Vec<f64> = (0..257).map(|i| (i % 17) as f64 / 16.0).collect();
        let t = IntervalTrace::from_levels(&levels).unwrap();
        let enc = encode_interval_trace(&t);
        let dec = decode_interval_trace(&enc).unwrap();
        assert_eq!(dec, t);
    }

    #[test]
    fn rejects_corruption() {
        let t = IntervalTrace::busy_idle(4, 4).unwrap();
        let enc = encode_interval_trace(&t);

        // Truncated.
        assert!(decode_interval_trace(&enc[..enc.len() - 1]).is_err());
        assert!(decode_interval_trace(&enc[..5]).is_err());
        assert!(decode_interval_trace(&[]).is_err());

        // Bad magic.
        let mut bad = enc.clone();
        bad[0] = b'X';
        assert!(decode_interval_trace(&bad).is_err());

        // Bad version.
        let mut bad = enc.clone();
        bad[4] = 99;
        assert!(decode_interval_trace(&bad).is_err());

        // Vulnerability out of range.
        let mut bad = enc;
        let vuln_offset = 4 + 1 + 8 + 8;
        bad[vuln_offset..vuln_offset + 8].copy_from_slice(&2.0f64.to_le_bytes());
        assert!(decode_interval_trace(&bad).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let t = IntervalTrace::busy_idle(4, 4).unwrap();
        let mut enc = encode_interval_trace(&t);
        enc.push(0);
        assert!(decode_interval_trace(&enc).is_err());
    }

    /// The on-disk layout, pinned byte for byte: trace-cache entries
    /// written by any earlier build must keep decoding.
    #[test]
    fn layout_is_pinned_byte_for_byte() {
        let t = IntervalTrace::busy_idle(3, 5).unwrap();
        let mut golden = b"SERT".to_vec();
        golden.push(1);
        golden.extend_from_slice(&[2, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[3, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[0, 0, 0, 0, 0, 0, 0xF0, 0x3F]); // 1.0
        golden.extend_from_slice(&[5, 0, 0, 0, 0, 0, 0, 0]);
        golden.extend_from_slice(&[0; 8]); // 0.0
        assert_eq!(encode_interval_trace(&t), golden);
        assert_eq!(decode_interval_trace(&golden).unwrap(), t);
    }
}
