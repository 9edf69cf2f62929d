//! Order-preserving key encoding for composite index keys.
//!
//! The ETI's clustered index key is the composite
//! `[QGram (string), Coordinate (u8), Column (u8), Chunk (u32)]`; the
//! reference relation's index key is a `u32` tid. Both need byte encodings
//! whose lexicographic order equals the logical order of the composite, so
//! that B+-tree range scans enumerate logically adjacent keys.
//!
//! Strings use terminator-escaping (the scheme popularized by CockroachDB's
//! key encoding): every `0x00` data byte becomes `0x00 0xFF` and the string
//! ends with `0x00 0x01`. Because `0x01 < 0xFF`, a string that is a strict
//! prefix of another sorts first, and no encoded string is a prefix of a
//! different encoded string — which is what makes concatenation of encoded
//! fields order-preserving. Integers are big-endian.

#![deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]

use crate::error::{Result, StoreError};

const ESCAPE: u8 = 0x00;
const ESCAPED_00: u8 = 0xFF;
const TERMINATOR: u8 = 0x01;

/// Append the order-preserving encoding of a byte string.
pub fn encode_bytes(out: &mut Vec<u8>, s: &[u8]) {
    for &b in s {
        if b == ESCAPE {
            out.push(ESCAPE);
            out.push(ESCAPED_00);
        } else {
            out.push(b);
        }
    }
    out.push(ESCAPE);
    out.push(TERMINATOR);
}

/// Append the order-preserving encoding of a UTF-8 string.
pub fn encode_str(out: &mut Vec<u8>, s: &str) {
    encode_bytes(out, s.as_bytes());
}

/// Append a `u8` (single byte, already order-preserving).
pub fn encode_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a big-endian `u32`.
pub fn encode_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
pub fn encode_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Decode a byte string encoded by [`encode_bytes`] from the front of
/// `input`. Returns the decoded bytes and the remaining input.
pub fn decode_bytes(input: &[u8]) -> Result<(Vec<u8>, &[u8])> {
    let mut out = Vec::new();
    let mut rest = input;
    loop {
        rest = match rest {
            [ESCAPE, TERMINATOR, tail @ ..] => return Ok((out, tail)),
            [ESCAPE, ESCAPED_00, tail @ ..] => {
                out.push(0x00);
                tail
            }
            [ESCAPE, other, ..] => {
                return Err(StoreError::Corrupt(format!(
                    "bad key escape byte 0x{other:02x}"
                )))
            }
            [ESCAPE] => return Err(StoreError::Corrupt("dangling key escape".into())),
            [b, tail @ ..] => {
                out.push(*b);
                tail
            }
            [] => return Err(StoreError::Corrupt("unterminated key string".into())),
        };
    }
}

/// Decode a UTF-8 string encoded by [`encode_str`].
pub fn decode_str(input: &[u8]) -> Result<(String, &[u8])> {
    let (bytes, rest) = decode_bytes(input)?;
    let s = String::from_utf8(bytes)
        .map_err(|_| StoreError::Corrupt("key string is not utf-8".into()))?;
    Ok((s, rest))
}

/// Decode a `u8`.
pub fn decode_u8(input: &[u8]) -> Result<(u8, &[u8])> {
    let (&b, rest) = input
        .split_first()
        .ok_or_else(|| StoreError::Corrupt("truncated u8 key field".into()))?;
    Ok((b, rest))
}

/// Decode a big-endian `u32`.
pub fn decode_u32(input: &[u8]) -> Result<(u32, &[u8])> {
    if input.len() < 4 {
        return Err(StoreError::Corrupt("truncated u32 key field".into()));
    }
    let (head, rest) = input.split_at(4);
    let mut buf = [0u8; 4];
    buf.copy_from_slice(head);
    Ok((u32::from_be_bytes(buf), rest))
}

/// Decode a big-endian `u64`.
pub fn decode_u64(input: &[u8]) -> Result<(u64, &[u8])> {
    if input.len() < 8 {
        return Err(StoreError::Corrupt("truncated u64 key field".into()));
    }
    let (head, rest) = input.split_at(8);
    let mut buf = [0u8; 8];
    buf.copy_from_slice(head);
    Ok((u64::from_be_bytes(buf), rest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc_str(s: &str) -> Vec<u8> {
        let mut out = Vec::new();
        encode_str(&mut out, s);
        out
    }

    #[test]
    fn string_round_trip() {
        for s in ["", "a", "boeing", "with\0nul", "\0", "\0\0", "ü"] {
            let enc = enc_str(s);
            let (dec, rest) = decode_str(&enc).unwrap();
            assert_eq!(dec, s);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn string_order_preserved() {
        let mut words = vec!["", "a", "aa", "ab", "b", "ba", "z\0", "z\0a", "za"];
        let mut encoded: Vec<Vec<u8>> = words.iter().map(|s| enc_str(s)).collect();
        words.sort_unstable();
        encoded.sort_unstable();
        let decoded: Vec<String> = encoded.iter().map(|e| decode_str(e).unwrap().0).collect();
        assert_eq!(decoded, words);
    }

    #[test]
    fn prefix_sorts_first() {
        assert!(enc_str("abc") < enc_str("abcd"));
        assert!(enc_str("") < enc_str("\0"));
    }

    #[test]
    fn no_encoding_is_prefix_of_another() {
        let words = ["a", "ab", "a\0", "b"];
        for w1 in words {
            for w2 in words {
                if w1 != w2 {
                    let e1 = enc_str(w1);
                    let e2 = enc_str(w2);
                    assert!(!e2.starts_with(&e1), "{w1:?} encoding prefixes {w2:?}");
                }
            }
        }
    }

    #[test]
    fn composite_key_order() {
        // (string, u8, u8, u32) composite: order must be field-major.
        let make = |s: &str, a: u8, b: u8, c: u32| {
            let mut out = Vec::new();
            encode_str(&mut out, s);
            encode_u8(&mut out, a);
            encode_u8(&mut out, b);
            encode_u32(&mut out, c);
            out
        };
        let k1 = make("ing", 1, 0, 0);
        let k2 = make("ing", 1, 0, 1);
        let k3 = make("ing", 1, 1, 0);
        let k4 = make("ing", 2, 0, 0);
        let k5 = make("inga", 0, 0, 0);
        let k6 = make("inh", 0, 0, 0);
        let keys = [&k1, &k2, &k3, &k4, &k5, &k6];
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "composite order violated");
        }
    }

    #[test]
    fn composite_key_round_trip() {
        let mut out = Vec::new();
        encode_str(&mut out, "q\0gram");
        encode_u8(&mut out, 3);
        encode_u8(&mut out, 250);
        encode_u32(&mut out, 0xDEAD_BEEF);
        encode_u64(&mut out, u64::MAX);
        let (s, rest) = decode_str(&out).unwrap();
        let (a, rest) = decode_u8(rest).unwrap();
        let (b, rest) = decode_u8(rest).unwrap();
        let (c, rest) = decode_u32(rest).unwrap();
        let (d, rest) = decode_u64(rest).unwrap();
        assert_eq!(
            (s.as_str(), a, b, c, d),
            ("q\0gram", 3, 250, 0xDEAD_BEEF, u64::MAX)
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn u32_order_preserved() {
        let values = [0u32, 1, 255, 256, 65535, 1 << 20, u32::MAX - 1, u32::MAX];
        for w in values.windows(2) {
            let mut a = Vec::new();
            let mut b = Vec::new();
            encode_u32(&mut a, w[0]);
            encode_u32(&mut b, w[1]);
            assert!(a < b);
        }
    }

    #[test]
    fn corrupt_inputs_rejected() {
        assert!(decode_str(&[]).is_err()); // empty
        assert!(decode_str(b"a").is_err()); // unterminated
        assert!(decode_str(&[0x00]).is_err()); // dangling escape
        assert!(decode_str(&[0x00, 0x42]).is_err()); // bad escape byte
        assert!(decode_u32(&[1, 2, 3]).is_err());
        assert!(decode_u64(&[1, 2, 3, 4, 5, 6, 7]).is_err());
        assert!(decode_u8(&[]).is_err());
        // Invalid UTF-8 under the string decoder.
        let mut enc = Vec::new();
        encode_bytes(&mut enc, &[0xFF, 0xFE]);
        assert!(decode_str(&enc).is_err());
        assert!(decode_bytes(&enc).is_ok());
    }
}
