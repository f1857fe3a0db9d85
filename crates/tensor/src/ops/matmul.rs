//! Matrix multiplication kernels.
//!
//! **Determinism contract** (DESIGN.md §5): *each output element is reduced
//! in one fixed order; kernels may reorder only independent elements.*
//! Tiling over outputs, splitting rows across threads and compiling for a
//! wider instruction set all keep it, so none of them changes a bit.
//!
//! The engine spends most of a prefill, and every linear layer of a decode
//! step, in `A·Bᵀ` with `B` a weight matrix stored `[out, in]`: both
//! operands' rows are contiguous along the reduction, so nothing is packed
//! or copied. One register-tiled kernel serves a prefill chunk, a decode
//! batch's stacked rows and a single decode row alike, in two arms with one
//! reduction order: plain Rust for the baseline target ([`tile`]), and
//! AVX2 intrinsics whose tiles finish eight elements at once with one lane
//! transpose ([`reduce8`]) instead of eight horizontal sums — at this
//! model's hidden size of 64, eight chunks of multiply-adds per element,
//! those sums cost as much as the multiply-adds. [`gemm_arm`] reports which
//! arm the CPU selected. Plain `A·B` ([`matmul_slices`]) is an `i-k-j` loop
//! the compiler auto-vectorises, reduced in ascending `k`. Inner loops are
//! branch-free, so kernel timing does not depend on the data.
//!
//! [`matmul_transb_slices_par`] splits **output rows** across the
//! [`crate::par`] thread pool; each element is still computed once, by the
//! same code, so parallel results are bit-identical to serial.

#[cfg(target_arch = "x86_64")]
use super::exp::{lanes, load};
use crate::par::{parallel_output_blocks, Parallelism};
use crate::{Result, Tensor, TensorError};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
use std::ops::Range;

/// `C[m,n] = A[m,k] · B[k,n]` over raw slices.
///
/// # Panics
///
/// Debug-asserts the slice lengths; callers are the validated [`matmul`]
/// wrapper and the model engine, which guarantees layouts.
pub fn matmul_slices(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    matmul_rows(a, b, c, 0..m, k, n);
}

/// Computes output rows `rows` of `A·B` into `c_rows` (pre-zeroed, local
/// row 0 = global row `rows.start`): the one body behind [`matmul_slices`]
/// and [`matmul`].
#[inline]
fn matmul_rows(a: &[f32], b: &[f32], c_rows: &mut [f32], rows: Range<usize>, k: usize, n: usize) {
    for (local, i) in rows.enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c_rows[local * n..(local + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            axpy(a_ip, &b[p * n..(p + 1) * n], c_row);
        }
    }
}

/// Fused `y += alpha · x` update — the branch-free body of the `i-k-j`
/// matmul inner loop, kept as its own `#[inline]` function so both kernels
/// vectorise the identical code.
#[inline]
fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (y_j, &x_j) in y.iter_mut().zip(x) {
        *y_j += alpha * x_j;
    }
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` over raw slices (`B` stored row-major with
/// rows of length `k`, i.e. row-per-output-column).
pub fn matmul_transb_slices(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    transb_rows(a, b, c, k, n);
}

/// [`matmul_transb_slices`] with output rows split across `par` threads.
/// Bit-identical to the serial kernel at any thread count.
pub fn matmul_transb_slices_par(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    par: &Parallelism,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let threads = par.threads_for(m * k * n).clamp(1, m.max(1));
    // Whole `MR`-row bands per task, so only the last one has edge rows.
    let per = m.div_ceil(threads).next_multiple_of(MR);
    parallel_output_blocks(c, n, per, threads, |first, c_rows| {
        transb_rows(&a[first * k..][..c_rows.len() / n * k], b, c_rows, k, n)
    });
}

/// Rows of a full register tile, in both arms; a parallel split hands out
/// whole `MR`-row bands.
const MR: usize = 4;
/// Columns of the portable arm's full tile. The AVX2 arm's has 2, so that
/// its `MR × 2` tile is eight elements, one per lane of [`reduce8`]; its
/// eight accumulators, two `B` chunks, one `A` chunk and one product fit
/// AVX2's sixteen vector registers.
const NR: usize = 3;
/// Accumulator lanes per output element. With the tree in [`tile`] this
/// *is* the reduction order, so it never changes.
const LANES: usize = 8;

/// The `R` rows of length `k` in `x`, each as whole 8-wide chunks plus a
/// tail; re-slicing to `k / LANES` chunks shows the compiler that every
/// chunk index below that is in range.
#[inline(always)]
fn split_rows<const R: usize>(x: &[f32], k: usize) -> ([&[[f32; LANES]]; R], [&[f32]; R]) {
    let mut chunks: [&[[f32; LANES]]; R] = [&[]; R];
    let mut tails: [&[f32]; R] = [&[]; R];
    for i in 0..R {
        let (whole, tail) = x[i * k..(i + 1) * k].as_chunks::<LANES>();
        (chunks[i], tails[i]) = (&whole[..k / LANES], tail);
    }
    (chunks, tails)
}

/// `R × C` output elements of `A·Bᵀ` at once: `out[i][j] = aᵢ · bⱼ` for the
/// `R` rows of length `k` in `a` and the `C` rows of length `k` in `b`.
///
/// Each element owns `LANES` accumulators and is reduced in one fixed
/// order whatever `R` and `C` are: ascending 8-wide chunks, the
/// `((0+4)+(1+5))+((2+6)+(3+7))` tree, then a scalar tail. A tile shares
/// operand loads and interleaves independent add chains — one chain alone
/// waits out the add latency on every chunk — but never mixes two
/// elements' sums. This plain-Rust body is the portable arm, and the AVX2
/// arm's one-column tile.
#[inline(always)]
fn tile<const R: usize, const C: usize>(a: &[f32], b: &[f32], k: usize) -> [[f32; C]; R] {
    let (a_chunks, a_tail) = split_rows::<R>(a, k);
    let (b_chunks, b_tail) = split_rows::<C>(b, k);
    let mut acc = [[[0.0f32; LANES]; C]; R];
    for at in 0..k / LANES {
        for i in 0..R {
            let a_v = a_chunks[i][at];
            for j in 0..C {
                let b_v = &b_chunks[j][at];
                for l in 0..LANES {
                    acc[i][j][l] += a_v[l] * b_v[l];
                }
            }
        }
    }
    let mut out = [[0.0f32; C]; R];
    for i in 0..R {
        for j in 0..C {
            let s = &acc[i][j];
            let mut sum = ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]));
            for (x, y) in a_tail[i].iter().zip(b_tail[j]) {
                sum += x * y;
            }
            out[i][j] = sum;
        }
    }
    out
}

/// Fills columns `from..` of the `R` output rows in `c` with `R × C` tiles
/// from `tile` for as long as a whole tile fits, and returns the first
/// column left.
#[inline(always)]
fn strip<const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    from: usize,
    tile: impl Fn(&[f32], &[f32], usize) -> [[f32; C]; R],
) -> usize {
    let mut j = from;
    while j + C <= n {
        let out = tile(a, &b[j * k..(j + C) * k], k);
        for (r, out_row) in out.iter().enumerate() {
            c[r * n + j..r * n + j + C].copy_from_slice(out_row);
        }
        j += C;
    }
    j
}

/// `C = A·Bᵀ` for as many rows as `a` and `c` hold, the walk both arms
/// share: `MR`-row bands on `band` tiles, then the `m % MR` rows left —
/// every row of a solo decode step — one at a time on `row` tiles. Columns
/// left over in either take a one-column [`tile`].
#[inline(always)]
fn transb_body<const NB: usize, const NE: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    band: impl Fn(&[f32], &[f32], usize) -> [[f32; NB]; MR],
    row: impl Fn(&[f32], &[f32], usize) -> [[f32; NE]; 1],
) {
    if k == 0 || n == 0 {
        c.fill(0.0);
        return;
    }
    // The band iterators below stop at the shorter operand: a short `a`
    // must not leave rows of `c` silently unwritten.
    assert_eq!(a.len() / k, c.len() / n, "A and C differ in rows");
    let a_bands = a.chunks_exact(MR * k);
    let mut c_bands = c.chunks_exact_mut(MR * n);
    let a_edge = a_bands.remainder().chunks_exact(k);
    for (a_band, c_band) in a_bands.zip(&mut c_bands) {
        let j = strip(a_band, b, c_band, k, n, 0, &band);
        strip(a_band, b, c_band, k, n, j, tile::<MR, 1>);
    }
    for (a_row, c_row) in a_edge.zip(c_bands.into_remainder().chunks_exact_mut(n)) {
        let j = strip(a_row, b, c_row, k, n, 0, &row);
        strip(a_row, b, c_row, k, n, j, tile::<1, 1>);
    }
}

/// The portable arm: [`transb_body`] on `MR × NR` and `1 × 4` plain-Rust
/// [`tile`]s, compiled for the build's baseline target — the only arm on
/// a CPU without AVX2 and on every target that is not x86-64.
fn transb_portable(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    transb_body(a, b, c, k, n, tile::<MR, NR>, tile::<1, 4>);
}

/// The AVX2 arm: [`transb_body`] on `MR × 2` and `1 × 8` [`tile8`]s, eight
/// elements each, in `std::arch` intrinsics — `avx2` only, never `fma`: a
/// separate multiply and add round exactly as the portable arm does, so
/// hosts running different arms still produce the same bytes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transb_avx2(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    // A `#[target_feature]` function is not an `Fn`; closures defined here
    // are, and inherit this function's features.
    transb_body(
        a,
        b,
        c,
        k,
        n,
        |a, b, k| tile8::<MR, 2>(a, b, k),
        |a, b, k| tile8::<1, 8>(a, b, k),
    );
}

/// [`tile`] for `R × C = 8` elements on AVX2, element `(i, j)` in lane
/// `i·C + j`: each element's `LANES` accumulators are one `__m256` over
/// the same ascending chunks, one intrinsic per multiply and per add;
/// [`reduce8`] takes the tree for all eight at once, and the tail is added
/// one position at a time, each lane's `sum + x·y` exactly as [`tile`]'s.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn tile8<const R: usize, const C: usize>(a: &[f32], b: &[f32], k: usize) -> [[f32; C]; R] {
    const { assert!(R * C == LANES) };
    let (a_chunks, a_tail) = split_rows::<R>(a, k);
    let (b_chunks, b_tail) = split_rows::<C>(b, k);
    let mut acc = [_mm256_setzero_ps(); LANES];
    for at in 0..k / LANES {
        for i in 0..R {
            let a_v = load(&a_chunks[i][at]);
            for j in 0..C {
                let product = _mm256_mul_ps(a_v, load(&b_chunks[j][at]));
                acc[i * C + j] = _mm256_add_ps(acc[i * C + j], product);
            }
        }
    }
    let mut sums = reduce8(acc);
    for t in 0..k % LANES {
        let (mut x, mut y) = ([0.0f32; LANES], [0.0f32; LANES]);
        for i in 0..R {
            for j in 0..C {
                (x[i * C + j], y[i * C + j]) = (a_tail[i][t], b_tail[j][t]);
            }
        }
        sums = _mm256_add_ps(sums, _mm256_mul_ps(load(&x), load(&y)));
    }
    let mut out = [[0.0f32; C]; R];
    for (out_row, sums) in out.iter_mut().zip(lanes(sums).as_chunks::<C>().0) {
        *out_row = *sums;
    }
    out
}

/// The tree of [`tile`] for eight elements' accumulators `s₀…s₇` at once,
/// element `e`'s sum in lane `e`. `uₑ = lo(sₑ, sₑ₊₄) + hi(sₑ, sₑ₊₄)` holds
/// the pairs `xₗ + xₗ₊₄` of element `e` in its low half and of element
/// `e + 4` in its high half; one `hadd` adds neighbouring pairs, the next
/// neighbouring halves, so lane `e` is `((x₀+x₄)+(x₁+x₅))+((x₂+x₆)+(x₃+x₇))`
/// of `sₑ`: every addition of the scalar tree, on the same operands.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn reduce8(s: [__m256; LANES]) -> __m256 {
    let mut u = [_mm256_setzero_ps(); 4];
    for (e, u) in u.iter_mut().enumerate() {
        let lo = _mm256_permute2f128_ps::<0x20>(s[e], s[e + 4]);
        let hi = _mm256_permute2f128_ps::<0x31>(s[e], s[e + 4]);
        *u = _mm256_add_ps(lo, hi);
    }
    _mm256_hadd_ps(_mm256_hadd_ps(u[0], u[1]), _mm256_hadd_ps(u[2], u[3]))
}

/// Whether this process runs the AVX2 compilation of its kernels: the one
/// decision behind the `A·Bᵀ` kernel here, the attention tile in
/// `pc-model` and the `exp` kernels (softmax, SiLU, GELU), so they can
/// never disagree. Always `false` off x86-64.
pub fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    return false;
}

/// Which compilation of its three hand-written kernels this process runs —
/// the `A·Bᵀ` kernel, `pc-model`'s attention tile and [`exp`](super::exp)
/// with the softmax and activations built on it, all on [`has_avx2`] —
/// `"avx2"` or `"portable"`, chosen by what the CPU reports. Both produce
/// the same bits; only their speed differs.
pub fn gemm_arm() -> &'static str {
    if has_avx2() {
        "avx2"
    } else {
        "portable"
    }
}

/// `C = A·Bᵀ` for the rows in `a` and `c`, on the arm [`gemm_arm`] names;
/// shared by the serial and parallel entry points.
#[inline]
fn transb_rows(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
        return unsafe { transb_avx2(a, b, c, k, n) };
    }
    transb_portable(a, b, c, k, n);
}

/// Validated tensor matmul: `A[m,k] · B[k,n]`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix operands and
/// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
///
/// # Example
///
/// ```
/// use pc_tensor::{ops, Tensor};
/// let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
/// let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]).unwrap();
/// assert_eq!(ops::matmul(&a, &b).unwrap().data(), &[11.0]);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, k2, n) = matrix_dims("matmul", a, b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    // `c` comes fresh from `Tensor::zeros`, so skip the kernel's re-zeroing
    // pass and accumulate directly.
    let mut c = Tensor::zeros(&[m, n]);
    matmul_rows(a.data(), b.data(), c.data_mut(), 0..m, k, n);
    Ok(c)
}

/// Validated tensor matmul with transposed right operand: `A[m,k] · B[n,k]ᵀ`.
///
/// # Errors
///
/// Same contract as [`matmul`], with `B`'s *second* dimension matched
/// against `A`'s.
pub fn matmul_transb(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k, n, k2) = matrix_dims("matmul_transb", a, b)?;
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transb",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut c = Tensor::zeros(&[m, n]);
    matmul_transb_slices(a.data(), b.data(), c.data_mut(), m, k, n);
    Ok(c)
}

fn matrix_dims(op: &'static str, a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize, usize)> {
    let (ad, bd) = (a.dims(), b.dims());
    if ad.len() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: ad.len(),
        });
    }
    if bd.len() != 2 {
        return Err(TensorError::RankMismatch {
            op,
            expected: 2,
            actual: bd.len(),
        });
    }
    Ok((ad[0], ad[1], bd[0], bd[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(data: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), dims).unwrap()
    }

    #[test]
    fn matmul_2x2() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let c = matmul(&a, &Tensor::eye(3)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = t(&[1.0; 6], &[2, 3]);
        let b = t(&[1.0; 8], &[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_rejects_vectors() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0], &[2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn zero_entries_in_a_are_handled() {
        // The kernel is branch-free: rows/columns of zeros must come out
        // exactly zero, with no special-casing in the inner loop.
        let a = t(&[0.0, 0.0, 1.0, 2.0], &[2, 2]);
        let b = t(&[3.0, 4.0, 5.0, 6.0], &[2, 2]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[0.0, 0.0, 13.0, 16.0]);
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        // A[2,3] · B[4,3]ᵀ == A · Bᵀ[3,4]
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(
            &[1.0, 0.0, 2.0, 0.0, 1.0, 1.0, 3.0, 1.0, 0.0, 2.0, 2.0, 2.0],
            &[4, 3],
        );
        let via_transb = matmul_transb(&a, &b).unwrap();
        // Transpose b manually.
        let mut bt = Tensor::zeros(&[3, 4]);
        for i in 0..4 {
            for j in 0..3 {
                bt.data_mut()[j * 4 + i] = b.data()[i * 3 + j];
            }
        }
        let direct = matmul(&a, &bt).unwrap();
        assert_eq!(via_transb.data(), direct.data());
    }

    /// The reduction order of every `A·Bᵀ` output element, written out for
    /// one element: the reference the tiled kernel's arms are held to.
    fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
        let mut acc = [0.0f32; 8];
        let chunks = a.len() / 8;
        for c in 0..chunks {
            let i = c * 8;
            acc[0] += a[i] * b[i];
            acc[1] += a[i + 1] * b[i + 1];
            acc[2] += a[i + 2] * b[i + 2];
            acc[3] += a[i + 3] * b[i + 3];
            acc[4] += a[i + 4] * b[i + 4];
            acc[5] += a[i + 5] * b[i + 5];
            acc[6] += a[i + 6] * b[i + 6];
            acc[7] += a[i + 7] * b[i + 7];
        }
        let mut s =
            ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]));
        for i in chunks * 8..a.len() {
            s += a[i] * b[i];
        }
        s
    }

    #[test]
    fn dot_unrolled_handles_remainders() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 13, 16, 17, 23, 24] {
            let a: Vec<f32> = (0..len).map(|i| i as f32).collect();
            let b: Vec<f32> = (0..len).map(|i| (i * 2) as f32).collect();
            let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert_eq!(dot_unrolled(&a, &b), expect, "len {len}");
        }
    }

    /// A matrix entry: `scale ·` an ordinary value in −4..4, or — `rare`
    /// times in 256 — one where the order of a reduction shows: ±0, ±∞,
    /// NaN, a subnormal, or a value near ±`f32::MAX`.
    fn entry(rare: u16, scale: f32) -> impl Strategy<Value = f32> {
        (0u16..256, -4.0f32..4.0, any::<u32>()).prop_map(move |(pick, x, bits)| {
            let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
            match (pick < rare).then_some(bits >> 1 & 7) {
                None => scale * x,
                Some(0) => sign * 0.0,
                Some(1) => sign * f32::INFINITY,
                Some(2) => f32::NAN,
                Some(3 | 4) => sign * f32::from_bits(bits >> 9 | 1),
                Some(_) => sign * f32::MAX * (0.5 + x.abs() / 8.0),
            }
        })
    }

    /// The bits of `x`, every NaN as one: Rust leaves the sign and payload
    /// of an arithmetic NaN unspecified (the compiler may swap an
    /// addition's operands, which picks the NaN that comes out), so only
    /// *whether* an element is NaN is part of the contract.
    fn bits(x: &[f32]) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        x.iter()
            .map(|v| if v.is_nan() { nan } else { v.to_bits() })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Shapes that hit every `m % MR`, `n % 2`, `n % NR`, `n % 8` and
        /// `k % 8` remainder — `k` half the time at most 16, where one
        /// chunk or a tail decides the sign of a zero sum — on entries that
        /// are ordinary, sometimes or mostly special, and with `A` scaled
        /// to `2¹²⁵` so that products sit near `f32::MAX` and whether a
        /// partial sum overflows depends on which pairs are added first:
        /// both arms and every row split equal the per-element reference
        /// bit for bit.
        #[test]
        fn every_arm_and_split_equals_the_per_element_reference(
            (m, k, n, a, b) in (
                1usize..=40,
                prop_oneof![0usize..=16, 0usize..=200],
                1usize..=40,
                0usize..4,
                any::<bool>(),
            )
                .prop_flat_map(|(m, k, n, level, big)| {
                    let rare = [0, 4, 32, 256][level];
                    let scale = if big { 2.0f32.powi(125) } else { 1.0 };
                    (
                        Just(m),
                        Just(k),
                        Just(n),
                        proptest::collection::vec(entry(rare, scale), m * k),
                        proptest::collection::vec(entry(rare, 1.0), n * k),
                    )
                })
        ) {
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    expect[i * n + j] = dot_unrolled(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                }
            }
            let expect = bits(&expect);
            let mut portable = vec![f32::NAN; m * n];
            transb_portable(&a, &b, &mut portable, k, n);
            prop_assert_eq!(bits(&portable), expect);
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                let mut avx2 = vec![f32::NAN; m * n];
                // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
                unsafe { transb_avx2(&a, &b, &mut avx2, k, n) };
                prop_assert_eq!(bits(&avx2), expect);
            }
            for threads in [2usize, 3, 8] {
                let mut par = vec![f32::NAN; m * n];
                matmul_transb_slices_par(&a, &b, &mut par, m, k, n, &force_par(threads));
                prop_assert_eq!(bits(&par), expect, "threads {}", threads);
            }
        }
    }

    #[test]
    fn axpy_accumulates_in_place() {
        let mut y = [1.0f32, 2.0, 3.0];
        axpy(2.0, &[10.0, 20.0, 30.0], &mut y);
        assert_eq!(y, [21.0, 42.0, 63.0]);
        axpy(0.0, &[5.0, 5.0, 5.0], &mut y);
        assert_eq!(y, [21.0, 42.0, 63.0]);
    }

    #[test]
    fn large_matmul_associativity_with_identity_chain() {
        let a = t(
            &(0..64).map(|x| (x % 7) as f32 - 3.0).collect::<Vec<_>>(),
            &[8, 8],
        );
        let c = matmul(&matmul(&a, &Tensor::eye(8)).unwrap(), &Tensor::eye(8)).unwrap();
        assert_eq!(c.data(), a.data());
    }

    fn force_par(threads: usize) -> Parallelism {
        Parallelism {
            num_threads: threads,
            min_work: 0,
        }
    }

    #[test]
    fn parallel_transb_is_bit_identical() {
        let (m, k, n) = (7, 17, 5);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.41).sin()).collect();
        let b: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.23).cos()).collect();
        let mut serial = vec![0.0f32; m * n];
        matmul_transb_slices(&a, &b, &mut serial, m, k, n);
        for threads in [2usize, 3, 4, 8, 16] {
            let mut par = vec![f32::NAN; m * n];
            matmul_transb_slices_par(&a, &b, &mut par, m, k, n, &force_par(threads));
            assert_eq!(serial, par, "threads {threads}");
        }
    }

    #[test]
    fn stacked_rows_match_single_row_calls_bitwise() {
        // A decode batch stacks one row per sequence; each must come out
        // as it would served alone, whichever tile it lands in.
        for (m, k, n) in [(2usize, 16usize, 9usize), (7, 24, 13), (9, 64, 64)] {
            let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.19).sin()).collect();
            let mut stacked = vec![f32::NAN; m * n];
            matmul_transb_slices(&a, &b, &mut stacked, m, k, n);
            for i in 0..m {
                let mut solo = vec![f32::NAN; n];
                matmul_transb_slices(&a[i * k..(i + 1) * k], &b, &mut solo, 1, k, n);
                assert_eq!(&stacked[i * n..(i + 1) * n], solo, "row {i} ({m},{k},{n})");
            }
        }
    }
}
