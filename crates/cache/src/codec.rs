//! Binary serialisation of encoded modules.
//!
//! Encoding a large module is expensive (that's the whole point of caching
//! it); this codec writes precomputed attention states out exactly. Its
//! bytes are the payload of an `F32` disk-tier record
//! ([`crate::segment`]), so [`decode`] reads bytes from disk: a header
//! that declares more than the buffer holds is an error, never a panic or
//! an allocation sized by the header alone.
//!
//! Format (little-endian): magic `PCKV`, version u32, num_layers u32,
//! kv_dim u32, num_tokens u32, positions as u64s, then per layer the k
//! rows and v rows as f32s.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use pc_model::KvCache;
use std::fmt;

const MAGIC: &[u8; 4] = b"PCKV";
const VERSION: u32 = 1;

/// Errors from decoding a serialised module.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer does not start with the `PCKV` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended before the declared payload, or the header
    /// declares a shape no buffer could hold.
    Truncated,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a PCKV module (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported PCKV version {v}"),
            CodecError::Truncated => write!(f, "truncated PCKV payload"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Serialises a module's attention states.
pub fn encode(cache: &KvCache) -> Bytes {
    let tokens = cache.len();
    let per_layer = 2 * tokens * cache.kv_dim() * 4;
    let mut buf =
        BytesMut::with_capacity(20 + tokens * 8 + cache.num_layers() * per_layer);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(cache.num_layers() as u32);
    buf.put_u32_le(cache.kv_dim() as u32);
    buf.put_u32_le(tokens as u32);
    for &p in cache.positions() {
        buf.put_u64_le(p as u64);
    }
    for l in 0..cache.num_layers() {
        for &x in cache.keys(l) {
            buf.put_f32_le(x);
        }
        for &x in cache.values(l) {
            buf.put_f32_le(x);
        }
    }
    buf.freeze()
}

/// Deserialises a module.
///
/// # Errors
///
/// Returns a [`CodecError`] for foreign, newer-versioned, or truncated
/// buffers, including a header that declares more than the buffer holds.
pub fn decode(mut buf: &[u8]) -> Result<KvCache, CodecError> {
    if buf.remaining() < 20 {
        return Err(CodecError::Truncated);
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let num_layers = buf.get_u32_le() as usize;
    let kv_dim = buf.get_u32_le() as usize;
    let tokens = buf.get_u32_le() as usize;
    check_declared_len(buf.remaining(), num_layers, kv_dim, tokens, 4, 0)?;

    let positions: Vec<usize> = (0..tokens).map(|_| buf.get_u64_le() as usize).collect();
    let mut cache = KvCache::with_shape(num_layers, kv_dim);
    let mut layer_k = vec![vec![0.0f32; tokens * kv_dim]; num_layers];
    let mut layer_v = vec![vec![0.0f32; tokens * kv_dim]; num_layers];
    for l in 0..num_layers {
        for x in layer_k[l].iter_mut() {
            *x = buf.get_f32_le();
        }
        for x in layer_v[l].iter_mut() {
            *x = buf.get_f32_le();
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

/// Layer counts above this are rejected before anything is allocated. An
/// empty module's header costs the same bytes at any layer count, so the
/// input length alone cannot bound the per-layer vectors; no model comes
/// near this.
const MAX_LAYERS: usize = 1 << 16;

/// Checks a decoded header against the `remaining` bytes of its buffer
/// before the decoder allocates anything: `tokens` u64 positions, then per
/// layer a k half and a v half of `tokens` rows, each row `kv_dim`
/// elements of `elem_bytes` plus `row_extra` bytes (an int8 row's scale).
/// Every product is checked, so a header whose size overflows `usize` is
/// rejected like one that overruns the buffer.
///
/// # Errors
///
/// [`CodecError::Truncated`] when the declared payload does not fit in
/// `remaining` (or in `usize`), or declares more than [`MAX_LAYERS`].
pub(crate) fn check_declared_len(
    remaining: usize,
    num_layers: usize,
    kv_dim: usize,
    tokens: usize,
    elem_bytes: usize,
    row_extra: usize,
) -> Result<(), CodecError> {
    let need = kv_dim
        .checked_mul(elem_bytes)
        .and_then(|row| row.checked_add(row_extra))
        .and_then(|row| row.checked_mul(tokens))
        .and_then(|half| half.checked_mul(2))
        .and_then(|layer| layer.checked_mul(num_layers))
        .and_then(|body| body.checked_add(tokens.checked_mul(8)?));
    match need {
        Some(need) if need <= remaining && num_layers <= MAX_LAYERS => Ok(()),
        _ => Err(CodecError::Truncated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module(tokens: usize) -> KvCache {
        let mut c = KvCache::with_shape(3, 4);
        for t in 0..tokens {
            for l in 0..3 {
                let k: Vec<f32> = (0..4).map(|i| (t * 17 + l * 5 + i) as f32 * 0.25).collect();
                let v: Vec<f32> = (0..4).map(|i| -((t + l + i) as f32)).collect();
                c.push_token_layer(l, &k, &v);
            }
            c.push_position(t * 3 + 7);
        }
        c
    }

    #[test]
    fn round_trip_is_exact() {
        let m = module(9);
        let decoded = decode(&encode(&m)).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn empty_module_round_trips() {
        let m = KvCache::with_shape(2, 8);
        assert_eq!(decode(&encode(&m)).unwrap(), m);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&module(1)).to_vec();
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode(&module(1)).to_vec();
        bytes[4] = 99;
        assert_eq!(decode(&bytes), Err(CodecError::BadVersion(99)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode(&module(4));
        for cut in [0, 3, 10, 19, bytes.len() - 1] {
            assert_eq!(
                decode(&bytes[..cut]),
                Err(CodecError::Truncated),
                "cut at {cut}"
            );
        }
    }

    /// A 20-byte header whose declared size wraps `usize` to zero.
    #[test]
    fn overflowing_header_is_truncated_not_a_panic() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&(u32::MAX >> 1).to_le_bytes()); // num_layers 2^31 - 1
        bytes.extend_from_slice(&((1u32 << 31) + 1).to_le_bytes()); // kv_dim 2^31 + 1
        bytes.extend_from_slice(&1u32.to_le_bytes()); // tokens
        assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn empty_module_with_absurd_layer_count_is_rejected() {
        let mut bytes = encode(&KvCache::with_shape(2, 8)).to_vec();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(CodecError::Truncated));
    }

    #[test]
    fn encoded_size_is_predictable() {
        let m = module(4);
        let bytes = encode(&m);
        // header 20 + positions 4*8 + payload 3 layers × 2 × 4 tok × 4 dim × 4 B
        assert_eq!(bytes.len(), 20 + 32 + 3 * 2 * 4 * 4 * 4);
    }
}
