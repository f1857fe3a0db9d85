//! On-disk record framing and cold-payload codecs for the disk tier.
//!
//! This module defines the byte-level format of the persistent store's
//! segment files — the format specified normatively in
//! `docs/PERSISTENCE.md` (read that first; this rustdoc is the
//! implementation-side summary). A segment file is an 8-byte header
//! followed by appended records:
//!
//! ```text
//! segment  := magic "PCSG" | version u32 LE (=1) | record*
//! record   := magic "PCRD" (u32 LE)
//!           | key_len u32 LE | payload_len u32 LE
//!           | encoding u8 | reserved [u8; 3]
//!           | cost f64 LE
//!           | checksum u64 LE        (FNV-1a over key bytes ++ payload)
//!           | key bytes | payload bytes
//! key      := schema_len u16 LE | schema utf-8
//!           | path_count u16 LE | (seg_len u16 LE | seg utf-8)*
//! ```
//!
//! The record checksum covers the serialized key and payload, so any
//! flipped bit in either is detected at read time — the entry is then
//! dropped and the lookup reports a miss, and the engine's graceful
//! degradation re-encodes the span (`docs/PERSISTENCE.md` "Failure
//! modes"). Records are append-only; a later record for the same key
//! supersedes earlier ones, and a record with encoding byte `0xFF` and an
//! empty payload is a **tombstone** (the key is deleted).
//!
//! Three payload encodings trade bytes for fidelity ([`ColdEncoding`]):
//!
//! * `F32` (0) — the exact [`crate::codec`] PCKV bytes; promote is
//!   bit-identical.
//! * `Fp16` (1) — every k/v element as IEEE 754 binary16
//!   ([`crate::quant::f32_to_f16_bits`]), 2× smaller.
//! * `Int8` (2) — symmetric per-row int8
//!   ([`crate::quant::quantize_row`]) with one f32 scale per (layer,
//!   token, k/v) row, ≈4× smaller.
//!
//! Positions are stored exactly (u64) under every encoding, which is what
//! lets a warm restart pass the engine's registration-reuse validation
//! even for quantized payloads.

use crate::codec::{self, check_declared_len, CodecError};
use crate::quant::{dequantize_row, f16_bits_to_f32, f32_to_f16_bits, quantize_row};
use crate::store::ModuleKey;
use bytes::{Buf, BufMut, BytesMut};
use pc_model::KvCache;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 4] = b"PCSG";
/// Segment format version: bumped on any incompatible layout change, and
/// when the engine's numerics are redefined (version 2: the in-repo `exp`
/// behind softmax and the activations), so modules encoded under the old
/// definition are dropped at open instead of being served beside new ones.
pub const SEGMENT_VERSION: u32 = 2;
/// Magic opening every record, as a little-endian u32 (`b"PCRD"`).
pub const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"PCRD");
/// Fixed record header size in bytes (magic through checksum).
pub const RECORD_HEADER_LEN: usize = 4 + 4 + 4 + 4 + 8 + 8;
/// Encoding byte marking a tombstone record (key deleted, empty payload).
pub const TOMBSTONE: u8 = 0xFF;

/// How cold payloads are encoded on disk. See the [module docs](self)
/// for the layout of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ColdEncoding {
    /// Exact f32 PCKV bytes — byte-identical on promote.
    #[default]
    F32,
    /// IEEE 754 binary16 elements — 2× smaller, near-exact.
    Fp16,
    /// Symmetric per-row int8 with f32 scales — ≈4× smaller.
    Int8,
}

impl ColdEncoding {
    /// The encoding byte written into record headers.
    pub fn byte(self) -> u8 {
        match self {
            ColdEncoding::F32 => 0,
            ColdEncoding::Fp16 => 1,
            ColdEncoding::Int8 => 2,
        }
    }

    /// Parses a record encoding byte ([`TOMBSTONE`] and unknown values
    /// return `None`).
    pub fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(ColdEncoding::F32),
            1 => Some(ColdEncoding::Fp16),
            2 => Some(ColdEncoding::Int8),
            _ => None,
        }
    }

    /// Human-readable label (`"f32"`, `"fp16"`, `"int8"`) used by
    /// flight-recorder events and `/debug/cache`.
    pub fn label(self) -> &'static str {
        match self {
            ColdEncoding::F32 => "f32",
            ColdEncoding::Fp16 => "fp16",
            ColdEncoding::Int8 => "int8",
        }
    }
}

/// FNV-1a over a sequence of byte slices — the record and index checksum.
/// (Distinct from the store's in-memory f32 content checksum: this one
/// covers serialized bytes, so it detects disk bit rot and torn writes.)
pub fn checksum_bytes(parts: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Serialises a module key (schema + path segments, length-prefixed).
pub fn encode_key(key: &ModuleKey) -> Vec<u8> {
    let mut out = BytesMut::new();
    out.put_u16_le(key.schema.len() as u16);
    out.put_slice(key.schema.as_bytes());
    out.put_u16_le(key.path.len() as u16);
    for seg in &key.path {
        out.put_u16_le(seg.len() as u16);
        out.put_slice(seg.as_bytes());
    }
    out.to_vec()
}

/// Deserialises a module key written by [`encode_key`]. Returns `None`
/// for truncated or non-UTF-8 bytes (a corrupt record).
pub fn decode_key(mut buf: &[u8]) -> Option<ModuleKey> {
    let take_str = |buf: &mut &[u8]| -> Option<String> {
        if buf.remaining() < 2 {
            return None;
        }
        let len = buf.get_u16_le() as usize;
        if buf.remaining() < len {
            return None;
        }
        let s = String::from_utf8(buf[..len].to_vec()).ok()?;
        buf.advance(len);
        Some(s)
    };
    let schema = take_str(&mut buf)?;
    if buf.remaining() < 2 {
        return None;
    }
    let count = buf.get_u16_le() as usize;
    let mut path = Vec::with_capacity(count);
    for _ in 0..count {
        path.push(take_str(&mut buf)?);
    }
    buf.is_empty().then_some(ModuleKey { schema, path })
}

/// Encodes a module's attention states under `encoding`. `F32` is the
/// exact [`crate::codec`] bytes; `Fp16`/`Int8` share a dims + exact
/// positions header followed by the reduced-precision elements.
pub fn encode_payload(cache: &KvCache, encoding: ColdEncoding) -> Vec<u8> {
    match encoding {
        ColdEncoding::F32 => codec::encode(cache).to_vec(),
        ColdEncoding::Fp16 => {
            let mut buf = quant_header(cache);
            for l in 0..cache.num_layers() {
                for &x in cache.keys(l) {
                    buf.put_u16_le(f32_to_f16_bits(x));
                }
                for &x in cache.values(l) {
                    buf.put_u16_le(f32_to_f16_bits(x));
                }
            }
            buf.to_vec()
        }
        ColdEncoding::Int8 => {
            let kv_dim = cache.kv_dim().max(1);
            let tokens = cache.len();
            let mut buf = quant_header(cache);
            let mut row = vec![0i8; kv_dim];
            for l in 0..cache.num_layers() {
                for rows in [cache.keys(l), cache.values(l)] {
                    // Scales first (f32 × tokens), then the int8 rows.
                    let mut scales = Vec::with_capacity(tokens);
                    let mut payload = Vec::with_capacity(tokens * kv_dim);
                    for src in rows.chunks_exact(kv_dim) {
                        scales.push(quantize_row(src, &mut row));
                        payload.extend(row.iter().map(|&q| q as u8));
                    }
                    for s in scales {
                        buf.put_f32_le(s);
                    }
                    buf.put_slice(&payload);
                }
            }
            buf.to_vec()
        }
    }
}

fn quant_header(cache: &KvCache) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32_le(cache.num_layers() as u32);
    buf.put_u32_le(cache.kv_dim() as u32);
    buf.put_u32_le(cache.len() as u32);
    for &p in cache.positions() {
        buf.put_u64_le(p as u64);
    }
    buf
}

/// Decodes a payload written by [`encode_payload`] with the same
/// `encoding` (recorded in the record header).
///
/// # Errors
///
/// [`CodecError::Truncated`] when the buffer is shorter than its declared
/// shape (checked before anything is allocated); `F32` payloads
/// additionally surface [`crate::codec::decode`]'s magic/version errors.
pub fn decode_payload(bytes: &[u8], encoding: ColdEncoding) -> Result<KvCache, CodecError> {
    let (elem_bytes, row_extra) = match encoding {
        ColdEncoding::F32 => return codec::decode(bytes),
        ColdEncoding::Fp16 => (2, 0),
        ColdEncoding::Int8 => (1, 4), // one f32 scale per row
    };
    let mut buf = bytes;
    if buf.remaining() < 12 {
        return Err(CodecError::Truncated);
    }
    let num_layers = buf.get_u32_le() as usize;
    let kv_dim = buf.get_u32_le() as usize;
    let tokens = buf.get_u32_le() as usize;
    check_declared_len(buf.remaining(), num_layers, kv_dim, tokens, elem_bytes, row_extra)?;
    let positions: Vec<usize> = (0..tokens).map(|_| buf.get_u64_le() as usize).collect();
    let row_elems = tokens * kv_dim;
    let mut cache = KvCache::with_shape(num_layers, kv_dim);
    let mut layer_k = vec![vec![0.0f32; row_elems]; num_layers];
    let mut layer_v = vec![vec![0.0f32; row_elems]; num_layers];
    match encoding {
        ColdEncoding::F32 => unreachable!("handled above"),
        ColdEncoding::Fp16 => {
            for l in 0..num_layers {
                for x in layer_k[l].iter_mut() {
                    *x = f16_bits_to_f32(buf.get_u16_le());
                }
                for x in layer_v[l].iter_mut() {
                    *x = f16_bits_to_f32(buf.get_u16_le());
                }
            }
        }
        ColdEncoding::Int8 => {
            let mut data = vec![0i8; row_elems];
            let mut scales = vec![0.0f32; tokens];
            for l in 0..num_layers {
                for half in [&mut layer_k[l], &mut layer_v[l]] {
                    for s in scales.iter_mut() {
                        *s = buf.get_f32_le();
                    }
                    for q in data.iter_mut() {
                        *q = buf.get_u8() as i8;
                    }
                    for t in 0..tokens {
                        dequantize_row(
                            &data,
                            &scales,
                            t,
                            kv_dim,
                            &mut half[t * kv_dim..(t + 1) * kv_dim],
                        );
                    }
                }
            }
        }
    }
    for (t, &pos) in positions.iter().enumerate() {
        for l in 0..num_layers {
            cache.push_token_layer(
                l,
                &layer_k[l][t * kv_dim..(t + 1) * kv_dim],
                &layer_v[l][t * kv_dim..(t + 1) * kv_dim],
            );
        }
        cache.push_position(pos);
    }
    Ok(cache)
}

/// Appends one framed record (header + key + payload) to `out`. A
/// tombstone is written by passing [`TOMBSTONE`] and an empty payload.
pub fn write_record(out: &mut Vec<u8>, key_bytes: &[u8], payload: &[u8], encoding: u8, cost: f64) {
    let mut buf = BytesMut::with_capacity(RECORD_HEADER_LEN + key_bytes.len() + payload.len());
    buf.put_u32_le(RECORD_MAGIC);
    buf.put_u32_le(key_bytes.len() as u32);
    buf.put_u32_le(payload.len() as u32);
    buf.put_u8(encoding);
    buf.put_slice(&[0u8; 3]);
    buf.put_f64_le(cost);
    buf.put_u64_le(checksum_bytes(&[key_bytes, payload]));
    buf.put_slice(key_bytes);
    buf.put_slice(payload);
    out.extend_from_slice(&buf);
}

/// One record parsed out of a segment by [`parse_record`]. Byte ranges
/// index into the scanned buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// The record's module key.
    pub key: ModuleKey,
    /// Encoding byte as written ([`TOMBSTONE`] for deletions).
    pub encoding: u8,
    /// Recompute cost carried alongside the payload (eviction input).
    pub cost: f64,
    /// Declared key ++ payload checksum.
    pub checksum: u64,
    /// Byte offset of the payload within the scanned buffer.
    pub payload_offset: usize,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Offset one past the record's final byte (where the next starts).
    pub next_offset: usize,
}

/// Outcome of parsing one record at an offset during a recovery scan.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseOutcome {
    /// A complete, structurally valid record.
    Record(ParsedRecord),
    /// The bytes from this offset on are not a complete record — a torn
    /// append. Recovery truncates the segment here.
    Torn,
    /// `at` is exactly the end of the buffer: a clean tail.
    End,
}

/// Parses the record starting at `at` in a segment's bytes (past the
/// segment header). Structural damage — bad magic, lengths running past
/// the end, an undecodable key — reports [`ParseOutcome::Torn`];
/// *payload* corruption is deliberately not checked here (checksums are
/// verified at read time so recovery stays O(records), not O(bytes)).
pub fn parse_record(buf: &[u8], at: usize) -> ParseOutcome {
    if at == buf.len() {
        return ParseOutcome::End;
    }
    if at + RECORD_HEADER_LEN > buf.len() {
        return ParseOutcome::Torn;
    }
    let mut header = &buf[at..at + RECORD_HEADER_LEN];
    if header.get_u32_le() != RECORD_MAGIC {
        return ParseOutcome::Torn;
    }
    let key_len = header.get_u32_le() as usize;
    let payload_len = header.get_u32_le() as usize;
    let encoding = header.get_u8();
    header.advance(3);
    let cost = header.get_f64_le();
    let checksum = header.get_u64_le();
    let key_at = at + RECORD_HEADER_LEN;
    let payload_at = key_at + key_len;
    let next = payload_at + payload_len;
    if next > buf.len() {
        return ParseOutcome::Torn;
    }
    let Some(key) = decode_key(&buf[key_at..payload_at]) else {
        return ParseOutcome::Torn;
    };
    ParseOutcome::Record(ParsedRecord {
        key,
        encoding,
        cost,
        checksum,
        payload_offset: payload_at,
        payload_len,
        next_offset: next,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn module(tokens: usize) -> KvCache {
        let mut c = KvCache::with_shape(2, 4);
        for t in 0..tokens {
            for l in 0..2 {
                let base = t as f32 * 0.37 + l as f32 * 1.1;
                let k: Vec<f32> = (0..4).map(|i| (base + i as f32).sin() * 3.0).collect();
                let v: Vec<f32> = (0..4).map(|i| (base - i as f32).cos() * 0.5).collect();
                c.push_token_layer(l, &k, &v);
            }
            c.push_position(t + 5);
        }
        c
    }

    #[test]
    fn key_round_trips_with_odd_characters() {
        let key = ModuleKey::new("my schema\t2", &["<span>".into(), "0".into(), "".into()]);
        assert_eq!(decode_key(&encode_key(&key)), Some(key));
    }

    #[test]
    fn key_rejects_truncation_and_trailing_garbage() {
        let key = ModuleKey::new("s", &["a".into()]);
        let bytes = encode_key(&key);
        for cut in 0..bytes.len() {
            assert_eq!(decode_key(&bytes[..cut]), None, "cut {cut}");
        }
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(decode_key(&padded), None);
    }

    #[test]
    fn f32_payload_round_trips_bit_exactly() {
        let m = module(6);
        let bytes = encode_payload(&m, ColdEncoding::F32);
        assert_eq!(decode_payload(&bytes, ColdEncoding::F32).unwrap(), m);
    }

    #[test]
    fn fp16_payload_preserves_shape_positions_and_near_values() {
        let m = module(6);
        let bytes = encode_payload(&m, ColdEncoding::Fp16);
        let back = decode_payload(&bytes, ColdEncoding::Fp16).unwrap();
        assert_eq!(back.positions(), m.positions(), "positions are exact");
        assert_eq!((back.num_layers(), back.kv_dim()), (2, 4));
        for l in 0..2 {
            for (a, b) in m.keys(l).iter().zip(back.keys(l)) {
                assert!((a - b).abs() <= a.abs() * 0.001 + 1e-6);
            }
        }
        // Half the f32 payload (same 12 + positions header, u16 elements).
        let f32_bytes = encode_payload(&m, ColdEncoding::F32).len();
        assert!(bytes.len() < f32_bytes * 3 / 4, "{} vs {f32_bytes}", bytes.len());
    }

    #[test]
    fn int8_payload_preserves_shape_positions_within_row_scale() {
        let m = module(8);
        let bytes = encode_payload(&m, ColdEncoding::Int8);
        let back = decode_payload(&bytes, ColdEncoding::Int8).unwrap();
        assert_eq!(back.positions(), m.positions(), "positions are exact");
        for l in 0..2 {
            for (row, brow) in m
                .keys(l)
                .chunks_exact(4)
                .zip(back.keys(l).chunks_exact(4))
            {
                let max_abs = row.iter().fold(0.0f32, |a, &x| a.max(x.abs()));
                for (a, b) in row.iter().zip(brow) {
                    assert!((a - b).abs() <= max_abs / 127.0, "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn quantized_encodings_shrink_the_payload() {
        // Realistic row width so per-row scale overhead amortises.
        let mut m = KvCache::with_shape(2, 64);
        for t in 0..32 {
            for l in 0..2 {
                let row: Vec<f32> = (0..64).map(|i| ((t + l + i) as f32).sin()).collect();
                m.push_token_layer(l, &row, &row);
            }
            m.push_position(t);
        }
        let f32_len = encode_payload(&m, ColdEncoding::F32).len();
        let fp16_len = encode_payload(&m, ColdEncoding::Fp16).len();
        let int8_len = encode_payload(&m, ColdEncoding::Int8).len();
        assert!(fp16_len * 3 < f32_len * 2, "fp16 ≈ 2×: {fp16_len} vs {f32_len}");
        assert!(int8_len * 3 < f32_len, "int8 ≈ 4×: {int8_len} vs {f32_len}");
    }

    #[test]
    fn truncated_payloads_are_rejected_everywhere() {
        let m = module(4);
        for encoding in [ColdEncoding::F32, ColdEncoding::Fp16, ColdEncoding::Int8] {
            let bytes = encode_payload(&m, encoding);
            for cut in [0, 5, 11, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    decode_payload(&bytes[..cut], encoding).is_err(),
                    "{encoding:?} cut {cut}"
                );
            }
        }
    }

    /// 20 bytes declaring 2^15 layers × 2^10 dims × 1 token: a 128 MiB
    /// body the decoder must refuse before allocating it.
    #[test]
    fn oversized_quantized_header_is_rejected_before_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(1u32 << 15).to_le_bytes());
        bytes.extend_from_slice(&(1u32 << 10).to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        for encoding in [ColdEncoding::Fp16, ColdEncoding::Int8] {
            assert_eq!(
                decode_payload(&bytes, encoding),
                Err(CodecError::Truncated),
                "{encoding:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Decoding is total under every encoding: arbitrary bytes (bare,
        /// and behind a valid `PCKV` magic and version), and valid payloads
        /// with one shape word of the header overwritten by an arbitrary or
        /// a small value, decode to `Ok` or `Err` — never a panic, never an
        /// allocation the input's length does not pay for.
        #[test]
        fn decode_payload_never_panics(
            garbage in proptest::collection::vec(any::<u8>(), 0..96),
            tokens in 0usize..6,
            word in 0usize..3,
            (huge, small) in (any::<u32>(), 0u32..64),
        ) {
            let mut pckv = b"PCKV".to_vec();
            pckv.extend_from_slice(&1u32.to_le_bytes());
            pckv.extend_from_slice(&garbage);
            for encoding in [ColdEncoding::F32, ColdEncoding::Fp16, ColdEncoding::Int8] {
                let _ = decode_payload(&garbage, encoding);
                let _ = decode_payload(&pckv, encoding);
                // num_layers, kv_dim, tokens: after magic + version in a
                // PCKV payload, first in a quantized one.
                let shape_at = if encoding == ColdEncoding::F32 { 8 } else { 0 };
                let at = shape_at + 4 * word;
                for value in [huge, small] {
                    let mut bytes = encode_payload(&module(tokens), encoding);
                    bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
                    let _ = decode_payload(&bytes, encoding);
                }
            }
        }
    }

    #[test]
    fn empty_module_round_trips_under_all_encodings() {
        let m = KvCache::with_shape(3, 8);
        for encoding in [ColdEncoding::F32, ColdEncoding::Fp16, ColdEncoding::Int8] {
            let back = decode_payload(&encode_payload(&m, encoding), encoding).unwrap();
            assert_eq!(back, m, "{encoding:?}");
        }
    }

    #[test]
    fn record_round_trips_through_parse() {
        let key = ModuleKey::new("s", &["<span>".into(), "1".into()]);
        let key_bytes = encode_key(&key);
        let payload = encode_payload(&module(3), ColdEncoding::F32);
        let mut buf = Vec::new();
        write_record(&mut buf, &key_bytes, &payload, ColdEncoding::F32.byte(), 2.5);
        let ParseOutcome::Record(rec) = parse_record(&buf, 0) else {
            panic!("expected a record");
        };
        assert_eq!(rec.key, key);
        assert_eq!(rec.encoding, 0);
        assert_eq!(rec.cost, 2.5);
        assert_eq!(rec.next_offset, buf.len());
        assert_eq!(
            rec.checksum,
            checksum_bytes(&[&key_bytes, &payload]),
            "declared checksum matches recomputation"
        );
        assert_eq!(
            &buf[rec.payload_offset..rec.payload_offset + rec.payload_len],
            &payload[..]
        );
        assert_eq!(parse_record(&buf, buf.len()), ParseOutcome::End);
    }

    #[test]
    fn torn_records_are_detected_at_every_cut() {
        let key_bytes = encode_key(&ModuleKey::new("s", &["a".into()]));
        let payload = encode_payload(&module(2), ColdEncoding::Int8);
        let mut buf = Vec::new();
        write_record(&mut buf, &key_bytes, &payload, ColdEncoding::Int8.byte(), 1.0);
        for cut in 1..buf.len() {
            assert_eq!(parse_record(&buf[..cut], 0), ParseOutcome::Torn, "cut {cut}");
        }
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(parse_record(&bad_magic, 0), ParseOutcome::Torn);
    }

    #[test]
    fn tombstone_records_parse() {
        let key_bytes = encode_key(&ModuleKey::new("s", &["gone".into()]));
        let mut buf = Vec::new();
        write_record(&mut buf, &key_bytes, &[], TOMBSTONE, 0.0);
        let ParseOutcome::Record(rec) = parse_record(&buf, 0) else {
            panic!("expected a record");
        };
        assert_eq!(rec.encoding, TOMBSTONE);
        assert_eq!(rec.payload_len, 0);
    }

    #[test]
    fn encoding_byte_round_trips() {
        for e in [ColdEncoding::F32, ColdEncoding::Fp16, ColdEncoding::Int8] {
            assert_eq!(ColdEncoding::from_byte(e.byte()), Some(e));
        }
        assert_eq!(ColdEncoding::from_byte(TOMBSTONE), None);
        assert_eq!(ColdEncoding::from_byte(7), None);
    }
}
