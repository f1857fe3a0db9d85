//! The definition of attention's float-operation order: the two
//! reductions the attention tile in `pc-model` is held to, bit for bit.
//!
//! The crate's determinism contract (DESIGN.md §5):
//! *each output element is reduced in one fixed order; kernels may
//! reorder only independent elements.* For attention that order is
//! strictly sequential — one accumulator, ascending index — and
//! [`dot_seq`] and [`axpy_seq`] are its definition (a shifted segment's
//! score is [`dot_seq`] against a rotated *query*; the tile never rotates
//! a key). What a kernel may interleave is
//! whole reductions: *the lanes of a tile of several rows are different
//! queries, the score lanes of the one-row tile are key rows; each lane is
//! one `dot_seq` / `axpy_seq`.* `pc-model`'s tile runs up to eight queries
//! (and four key rows) side by side, or, for one query on AVX2, eight key
//! rows per vector with two such vectors in flight, every accumulator
//! seeing exactly the sequence written here, and its property tests
//! compare it with `==` against a per-row walk that calls these
//! functions — so prefill, a
//! batched tick that groups rows by shared prefix and a solo decode step
//! agree bit for bit. The weight matmuls keep the same contract with a
//! different fixed order (`ops/matmul.rs`), and a decode batch needs no
//! kernel of its own there: its `m` stacked rows go through the one `A·Bᵀ`
//! kernel prefill uses.

/// Strictly sequential dot product — one accumulator, ascending index,
/// separate multiply and add, no unrolling. This is the float-operation
/// order of the attention score pass: every lane of the attention tile
/// reduces its (query, key) pair in exactly this sequence, so tile width,
/// grouping and instruction set never show in a score's bits.
#[inline]
pub fn dot_seq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = 0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
    }
    dot
}

/// Strictly sequential `acc[i] += p * row[i]` — the attention value
/// accumulation step: each output element of the tile accumulates its
/// value rows in this order, ascending cache index, as [`dot_seq`] fixes
/// the score's.
#[inline]
pub fn axpy_seq(acc: &mut [f32], p: f32, row: &[f32]) {
    debug_assert_eq!(acc.len(), row.len());
    for (o, &v) in acc.iter_mut().zip(row) {
        *o += p * v;
    }
}

/// Dot product of `q` against a rotary-rotated key row, fused so no
/// rotated copy of `k` is ever materialised. `k` uses the rotate-half
/// layout `[x0…x_{h-1}, y0…y_{h-1}]`; `cos`/`sin` are one position's
/// table row (`h` values each); `sin_sign` is `±1.0` and selects the
/// rotation direction (negative shifts rotate backwards).
///
/// **Bit-identity contract.** The accumulation order is exactly
/// "rotate `k` with `x*c - y*s` / `x*s + y*c`, then [`dot_seq`]": one
/// accumulator, ascending index, each rotated element formed by the same
/// expression the materialising path uses. A caller that rotates the row
/// into a scratch buffer and calls [`dot_seq`] gets the same bits.
///
/// **Not on the serving path.** The attention tile scores a shifted
/// segment by rotating the query once per tile (`q·R(Δ)k = (R(−Δ)q)·k`)
/// and running [`dot_seq`] over the stored keys, so nothing that serves
/// a request calls this. It stays, with this name and signature, because
/// the benchmark's kernel ladder times it (`tensor.dot_rotated_gbps`) as
/// the cost of key-side rotation.
#[inline]
pub fn dot_rotated(q: &[f32], k: &[f32], cos: &[f32], sin: &[f32], sin_sign: f32) -> f32 {
    let h = cos.len();
    debug_assert_eq!(sin.len(), h);
    debug_assert_eq!(q.len(), 2 * h);
    debug_assert_eq!(k.len(), 2 * h);
    let mut dot = 0.0;
    for j in 0..h {
        let s = sin_sign * sin[j];
        dot += q[j] * (k[j] * cos[j] - k[j + h] * s);
    }
    for j in 0..h {
        let s = sin_sign * sin[j];
        dot += q[j + h] * (k[j] * s + k[j + h] * cos[j]);
    }
    dot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(len: usize, step: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * step).sin()).collect()
    }

    #[test]
    fn seq_primitives_match_naive_loops_bitwise() {
        let a = wave(37, 0.17);
        let b = wave(37, 0.43);
        let mut naive = 0.0f32;
        for i in 0..a.len() {
            naive += a[i] * b[i];
        }
        assert_eq!(dot_seq(&a, &b), naive);

        let mut acc = wave(37, 0.61);
        let mut expect = acc.clone();
        for i in 0..expect.len() {
            expect[i] += 0.37 * b[i];
        }
        axpy_seq(&mut acc, 0.37, &b);
        assert_eq!(acc, expect);
    }

    #[test]
    fn dot_rotated_matches_materialised_rotation_bitwise() {
        for h in [1usize, 2, 4, 8, 32] {
            let q = wave(2 * h, 0.21);
            let k = wave(2 * h, 0.47);
            let cos: Vec<f32> = (0..h).map(|i| (i as f32 * 0.13).cos()).collect();
            let sin: Vec<f32> = (0..h).map(|i| (i as f32 * 0.13).sin()).collect();
            for sign in [1.0f32, -1.0] {
                // Reference: rotate the key row into a scratch buffer with
                // the canonical expressions, then dot sequentially.
                let mut kr = vec![0.0f32; 2 * h];
                for j in 0..h {
                    let s = sign * sin[j];
                    let (x, y) = (k[j], k[j + h]);
                    kr[j] = x * cos[j] - y * s;
                    kr[j + h] = x * s + y * cos[j];
                }
                let expect = dot_seq(&q, &kr);
                let fused = dot_rotated(&q, &k, &cos, &sin, sign);
                assert_eq!(fused.to_bits(), expect.to_bits(), "h {h} sign {sign}");
            }
        }
    }

    #[test]
    fn dot_rotated_identity_rotation_matches_dot_seq() {
        let h = 8;
        let q = wave(2 * h, 0.33);
        let k = wave(2 * h, 0.57);
        let cos = vec![1.0f32; h];
        let sin = vec![0.0f32; h];
        let plain = dot_seq(&q, &k);
        let rotated = dot_rotated(&q, &k, &cos, &sin, 1.0);
        assert!((plain - rotated).abs() < 1e-6);
    }
}
