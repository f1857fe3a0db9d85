//! On-disk record framing for the disk tier.
//!
//! This module defines the byte-level format of the persistent store's
//! segment files — the format specified normatively in
//! `docs/PERSISTENCE.md` (read that first; this rustdoc is the
//! implementation-side summary). A segment file is an 8-byte header
//! followed by appended records:
//!
//! ```text
//! segment  := magic "PCSG" | version u32 LE (=2) | record*
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
//! The payload of every live record is the exact [`crate::codec`] PCKV
//! bytes, written under encoding byte [`PAYLOAD`] (0): f32 states and u64
//! positions, so a promote is bit-identical. Any other byte but
//! [`TOMBSTONE`] — including 1 and 2, the retired lossy fp16 and int8
//! payloads — is read as a corrupt record (`docs/PERSISTENCE.md`
//! "Payload encodings").

use crate::store::ModuleKey;
use bytes::{Buf, BufMut, BytesMut};

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
/// Encoding byte of a live record: the payload is the exact
/// [`crate::codec`] PCKV bytes.
pub const PAYLOAD: u8 = 0;
/// Encoding byte marking a tombstone record (key deleted, empty payload).
pub const TOMBSTONE: u8 = 0xFF;

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
    use crate::codec;
    use pc_model::KvCache;

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

    /// Writes `module` as a record and returns the record bytes and the
    /// payload's range within them, as a parse reports it.
    fn framed(module: &KvCache) -> (Vec<u8>, std::ops::Range<usize>) {
        let key_bytes = encode_key(&ModuleKey::new("s", &["m".into()]));
        let mut buf = Vec::new();
        write_record(&mut buf, &key_bytes, &codec::encode(module), PAYLOAD, 1.0);
        let ParseOutcome::Record(rec) = parse_record(&buf, 0) else {
            panic!("expected a record");
        };
        (buf, rec.payload_offset..rec.payload_offset + rec.payload_len)
    }

    #[test]
    fn f32_payload_round_trips_bit_exactly() {
        let m = module(6);
        let (buf, payload) = framed(&m);
        assert_eq!(codec::decode(&buf[payload]).unwrap(), m);
    }

    #[test]
    fn truncated_payloads_are_rejected_everywhere() {
        let (buf, payload) = framed(&module(4));
        let bytes = &buf[payload];
        for cut in [0, 5, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(codec::decode(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn record_round_trips_through_parse() {
        let key = ModuleKey::new("s", &["<span>".into(), "1".into()]);
        let key_bytes = encode_key(&key);
        let payload = codec::encode(&module(3));
        let mut buf = Vec::new();
        write_record(&mut buf, &key_bytes, &payload, PAYLOAD, 2.5);
        let ParseOutcome::Record(rec) = parse_record(&buf, 0) else {
            panic!("expected a record");
        };
        assert_eq!(rec.key, key);
        assert_eq!(rec.encoding, PAYLOAD);
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
        let payload = codec::encode(&module(2));
        let mut buf = Vec::new();
        write_record(&mut buf, &key_bytes, &payload, PAYLOAD, 1.0);
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
}
