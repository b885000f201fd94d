//! Binary encoding of [`Json`] rows for the checkpoint store.
//!
//! The JSONL journal round-trips floats through decimal text; that is
//! lossless (shortest-round-trip formatting) but costs a parse per value on
//! every resume. The binary journal instead carries each number as its raw
//! little-endian `f64` bits — bit-identical by construction, no formatting
//! on the write path, no parsing on the resume path.
//!
//! One byte of type tag per value:
//!
//! | tag | value                                            |
//! |-----|--------------------------------------------------|
//! | 0   | `null`                                           |
//! | 1   | `false`                                          |
//! | 2   | `true`                                           |
//! | 3   | number — 8 bytes, `f64` little-endian            |
//! | 4   | string — varint byte length + UTF-8              |
//! | 5   | array — varint count + elements                  |
//! | 6   | object — varint count + (key string, value) pairs|
//!
//! The decoder is bounds-checked end to end and enforces [`MAX_DEPTH`], so
//! corrupt input yields a typed [`SerrError::StoreCorrupt`] — never a panic
//! and never a stack overflow from adversarial nesting.

use serr_store::varint;
use serr_types::SerrError;

use crate::jsonio::Json;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_NUM: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_ARR: u8 = 5;
const TAG_OBJ: u8 = 6;

/// Maximum container nesting the decoder accepts. Journal rows are nearly
/// flat (an object of scalars, occasionally an array of numbers); real data
/// never comes close, so anything deeper is corrupt by definition.
pub const MAX_DEPTH: usize = 96;

/// Appends the encoding of `value`, in the tagged binary layout above, to
/// `buf`. Encoding cannot fail.
pub fn encode(value: &Json, buf: &mut Vec<u8>) {
    match value {
        Json::Null => buf.push(TAG_NULL),
        Json::Bool(false) => buf.push(TAG_FALSE),
        Json::Bool(true) => buf.push(TAG_TRUE),
        Json::Num(n) => {
            buf.push(TAG_NUM);
            buf.extend_from_slice(&n.to_le_bytes());
        }
        Json::Str(s) => {
            buf.push(TAG_STR);
            varint::write_u64(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Json::Arr(items) => {
            buf.push(TAG_ARR);
            varint::write_u64(buf, items.len() as u64);
            for item in items {
                encode(item, buf);
            }
        }
        Json::Obj(fields) => {
            buf.push(TAG_OBJ);
            varint::write_u64(buf, fields.len() as u64);
            for (key, item) in fields {
                varint::write_u64(buf, key.len() as u64);
                buf.extend_from_slice(key.as_bytes());
                encode(item, buf);
            }
        }
    }
}

/// Reads one value from the front of `input`, advancing it past the
/// consumed bytes.
///
/// # Errors
///
/// [`SerrError::StoreCorrupt`] on truncated or malformed input, or nesting
/// deeper than [`MAX_DEPTH`]. Never panics, whatever the bytes.
pub fn decode(input: &mut &[u8]) -> Result<Json, SerrError> {
    decode_value(input, 0)
}

fn take<'a>(input: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], SerrError> {
    if input.len() < n {
        return Err(SerrError::store_corrupt(
            what,
            format!("need {n} bytes, {} remain", input.len()),
        ));
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Ok(head)
}

fn read_string(input: &mut &[u8], what: &str) -> Result<String, SerrError> {
    let len = varint::read_u64(input)?;
    let len = usize::try_from(len)
        .map_err(|_| SerrError::store_corrupt(what, "length exceeds address space"))?;
    let bytes = take(input, len, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|e| SerrError::store_corrupt(what, e.to_string()))
}

/// Reads a container element count, rejecting counts that could not fit in
/// the remaining input (every element costs at least one byte) so corrupt
/// counts cannot drive unbounded allocation.
fn read_count(input: &mut &[u8], what: &str) -> Result<usize, SerrError> {
    let count = varint::read_u64(input)?;
    let count = usize::try_from(count)
        .map_err(|_| SerrError::store_corrupt(what, "count exceeds address space"))?;
    if count > input.len() {
        return Err(SerrError::store_corrupt(
            what,
            format!("count {count} exceeds {} remaining bytes", input.len()),
        ));
    }
    Ok(count)
}

fn decode_value(input: &mut &[u8], depth: usize) -> Result<Json, SerrError> {
    if depth > MAX_DEPTH {
        return Err(SerrError::store_corrupt("json", format!("nesting deeper than {MAX_DEPTH}")));
    }
    let tag = take(input, 1, "json tag")?[0];
    Ok(match tag {
        TAG_NULL => Json::Null,
        TAG_FALSE => Json::Bool(false),
        TAG_TRUE => Json::Bool(true),
        TAG_NUM => {
            let bytes = take(input, 8, "json number")?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(bytes);
            Json::Num(f64::from_le_bytes(raw))
        }
        TAG_STR => Json::Str(read_string(input, "json string")?),
        TAG_ARR => {
            let count = read_count(input, "json array")?;
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(decode_value(input, depth + 1)?);
            }
            Json::Arr(items)
        }
        TAG_OBJ => {
            let count = read_count(input, "json object")?;
            let mut fields = Vec::with_capacity(count);
            for _ in 0..count {
                let key = read_string(input, "json key")?;
                fields.push((key, decode_value(input, depth + 1)?));
            }
            Json::Obj(fields)
        }
        other => {
            return Err(SerrError::store_corrupt("json", format!("unknown value tag {other}")))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random [`Json`] builder: expands a seed into a
    /// value tree with bounded depth/width. The proptest shim has no
    /// recursive-strategy combinator, so this plays that role.
    fn build_json(seed: u64, depth: usize) -> Json {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let pick = next() % if depth == 0 { 5 } else { 7 };
        match pick {
            0 => Json::Null,
            1 => Json::Bool(next() & 1 == 0),
            // Raw bit patterns: exercises NaN payloads and infinities the
            // text format cannot carry.
            2 => Json::Num(f64::from_bits(next())),
            3 => Json::Num((next() % 1_000_000) as f64 / 997.0),
            4 => {
                let len = next() % 12;
                Json::Str((0..len).map(|_| char::from(32 + (next() % 95) as u8)).collect())
            }
            5 => {
                let len = next() % 4;
                Json::Arr((0..len).map(|_| build_json(next(), depth - 1)).collect())
            }
            _ => {
                let len = next() % 4;
                Json::Obj(
                    (0..len).map(|i| (format!("k{i}"), build_json(next(), depth - 1))).collect(),
                )
            }
        }
    }

    /// Structural equality with bit-exact floats (NaN == NaN by bits).
    fn bit_eq(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(x), Json::Bool(y)) => x == y,
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Str(x), Json::Str(y)) => x == y,
            (Json::Arr(x), Json::Arr(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| bit_eq(p, q))
            }
            (Json::Obj(x), Json::Obj(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|((k, p), (l, q))| k == l && bit_eq(p, q))
            }
            _ => false,
        }
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.1 + 0.2),
            Json::Num(f64::NAN),
            Json::Num(f64::NEG_INFINITY),
            Json::Num(-0.0),
            Json::Str(String::new()),
            Json::Str("λ \"quoted\"\n".to_owned()),
            Json::Arr(vec![]),
            Json::Obj(vec![("x".to_owned(), Json::Num(1.5))]),
        ] {
            let mut buf = Vec::new();
            encode(&v, &mut buf);
            let mut input = buf.as_slice();
            let back = decode(&mut input).expect("deserialize");
            assert!(input.is_empty(), "trailing bytes");
            assert!(bit_eq(&v, &back), "{v:?} != {back:?}");
        }
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // arr(arr(arr(... null))) deeper than MAX_DEPTH.
        let mut buf = Vec::new();
        for _ in 0..(MAX_DEPTH + 8) {
            buf.push(5); // TAG_ARR
            buf.push(1); // varint count 1
        }
        buf.push(0); // TAG_NULL
        let mut input = buf.as_slice();
        let err = decode(&mut input).expect_err("too deep");
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    proptest! {
        #[test]
        fn generated_values_round_trip_bit_exact(seed in any::<u64>()) {
            let v = build_json(seed, 3);
            let mut buf = Vec::new();
            encode(&v, &mut buf);
            let mut input = buf.as_slice();
            let back = decode(&mut input).expect("deserialize");
            prop_assert!(input.is_empty());
            prop_assert!(bit_eq(&v, &back), "{:?} != {:?}", v, back);
        }

        #[test]
        fn decoder_never_panics_on_noise(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut input = bytes.as_slice();
            let _ = decode(&mut input);
        }

        #[test]
        fn truncated_encodings_error_cleanly(seed in any::<u64>(), cut in any::<u16>()) {
            let v = build_json(seed, 3);
            let mut buf = Vec::new();
            encode(&v, &mut buf);
            let cut = cut as usize % (buf.len() + 1);
            let mut input = &buf[..cut];
            // A strict prefix must fail (every encoding is self-delimiting
            // and the decoder follows the same path until it runs short);
            // the full buffer must succeed and consume everything.
            let result = decode(&mut input);
            if cut == buf.len() {
                prop_assert!(result.is_ok() && input.is_empty());
            } else {
                prop_assert!(result.is_err());
            }
        }
    }
}
