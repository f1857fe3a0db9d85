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
//! or copied. One register-tiled kernel ([`tile`]) serves a prefill chunk,
//! a decode batch's stacked rows and a single decode row alike; its body is
//! compiled for the baseline target and for AVX2, and [`gemm_arm`] reports
//! which the CPU selected. Plain `A·B` ([`matmul_slices`]) is an `i-k-j`
//! loop the compiler auto-vectorises, reduced in ascending `k`. Inner loops
//! are branch-free, so kernel timing does not depend on the data.
//!
//! The `*_par` variants split **output rows** across the [`crate::par`]
//! thread pool; each element is still computed once, by the same code, so
//! parallel results are bit-identical to serial.

use crate::par::{parallel_output_blocks, parallel_output_chunks, Parallelism};
use crate::{Result, Tensor, TensorError};
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

/// [`matmul_slices`] with output rows split across `par` threads.
/// Bit-identical to the serial kernel at any thread count.
pub fn matmul_slices_par(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    par: &Parallelism,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    c.fill(0.0);
    parallel_output_chunks(c, n, par.threads_for(m * k * n), |first, c_rows| {
        matmul_rows(a, b, c_rows, first..first + c_rows.len() / n, k, n)
    });
}

/// Computes output rows `rows` of `A·B` into `c_rows` (pre-zeroed, local
/// row 0 = global row `rows.start`). The single implementation shared by
/// the serial and parallel entry points — sharing it is what makes the
/// bit-identity guarantee structural rather than incidental.
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

/// Rows of the full register tile.
const MR: usize = 4;
/// Columns of the full register tile: `MR × NR` accumulators, one operand
/// and one product fit AVX2's sixteen vector registers.
const NR: usize = 3;
/// Accumulator lanes per output element. With the tree in [`tile`] this
/// *is* the reduction order, so it never changes.
const LANES: usize = 8;

/// `R × C` output elements of `A·Bᵀ` at once: `out[i][j] = aᵢ · bⱼ` for the
/// `R` rows of length `k` in `a` and the `C` rows of length `k` in `b`.
///
/// Each element owns `LANES` accumulators and is reduced in one fixed
/// order whatever `R` and `C` are: ascending 8-wide chunks, the
/// `((0+4)+(1+5))+((2+6)+(3+7))` tree, then a scalar tail. A tile shares
/// operand loads and interleaves independent add chains — one chain alone
/// waits out the add latency on every chunk — but never mixes two
/// elements' sums.
#[inline(always)]
fn tile<const R: usize, const C: usize>(a: &[f32], b: &[f32], k: usize) -> [[f32; C]; R] {
    // Each row as whole 8-wide chunks plus a tail; re-slicing to `chunks`
    // shows the compiler that every index in the loop below is in range.
    let chunks = k / LANES;
    let mut a_chunks: [&[[f32; LANES]]; R] = [&[]; R];
    let mut a_tail: [&[f32]; R] = [&[]; R];
    for i in 0..R {
        let (whole, tail) = a[i * k..(i + 1) * k].as_chunks::<LANES>();
        (a_chunks[i], a_tail[i]) = (&whole[..chunks], tail);
    }
    let mut b_chunks: [&[[f32; LANES]]; C] = [&[]; C];
    let mut b_tail: [&[f32]; C] = [&[]; C];
    for j in 0..C {
        let (whole, tail) = b[j * k..(j + 1) * k].as_chunks::<LANES>();
        (b_chunks[j], b_tail[j]) = (&whole[..chunks], tail);
    }
    let mut acc = [[[0.0f32; LANES]; C]; R];
    for at in 0..chunks {
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
/// for as long as a whole tile fits, and returns the first column left.
#[inline(always)]
fn strip<const R: usize, const C: usize>(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    from: usize,
) -> usize {
    let mut j = from;
    while j + C <= n {
        let out = tile::<R, C>(a, &b[j * k..(j + C) * k], k);
        for (r, out_row) in out.iter().enumerate() {
            c[r * n + j..r * n + j + C].copy_from_slice(out_row);
        }
        j += C;
    }
    j
}

/// `C = A·Bᵀ` for as many rows as `a` and `c` hold: `MR`-row bands of
/// `MR × NR` tiles, then the `m % MR` rows left — every row of a solo
/// decode step — one at a time on `1 × EDGE` tiles. Columns left over in
/// either take a one-column tile. `EDGE` is as many accumulators as the
/// arm's registers hold.
#[inline(always)]
fn transb_body<const EDGE: usize>(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
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
        let j = strip::<MR, NR>(a_band, b, c_band, k, n, 0);
        strip::<MR, 1>(a_band, b, c_band, k, n, j);
    }
    for (a_row, c_row) in a_edge.zip(c_bands.into_remainder().chunks_exact_mut(n)) {
        let j = strip::<1, EDGE>(a_row, b, c_row, k, n, 0);
        strip::<1, 1>(a_row, b, c_row, k, n, j);
    }
}

/// [`transb_body`] compiled for AVX2. `avx2` only, never `fma`: a separate
/// multiply and add round exactly as the portable arm does, so hosts
/// running different arms still produce the same bytes.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transb_avx2(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    transb_body::<8>(a, b, c, k, n);
}

/// [`transb_body`] compiled for the build's baseline target: the only arm
/// on a CPU without AVX2 and on every target that is not x86-64.
fn transb_portable(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    transb_body::<4>(a, b, c, k, n);
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

/// `y[n] = x[k] · W[k,n]` (row vector times matrix).
pub fn matvec(x: &[f32], w: &[f32], y: &mut [f32], k: usize, n: usize) {
    matmul_slices(x, w, y, 1, k, n);
}

/// `y[n] = x[k] · W[n,k]ᵀ` — the usual "linear layer" with weights stored
/// `[out, in]`, applied to one token.
pub fn vecmat_transb(x: &[f32], w: &[f32], y: &mut [f32], k: usize, n: usize) {
    matmul_transb_slices(x, w, y, 1, k, n);
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

fn matrix_dims(
    op: &'static str,
    a: &Tensor,
    b: &Tensor,
) -> Result<(usize, usize, usize, usize)> {
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

    #[test]
    fn matvec_and_vecmat() {
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2,3] row-major
        let x = [1.0, 1.0];
        let mut y = [0.0; 3];
        matvec(&x, &w, &mut y, 2, 3);
        assert_eq!(y, [5.0, 7.0, 9.0]);

        // vecmat_transb: W stored [out=3, in=2]
        let w2 = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut y2 = [0.0; 3];
        vecmat_transb(&x, &w2, &mut y2, 2, 3);
        assert_eq!(y2, [5.0, 7.0, 9.0]);
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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Shapes that hit every `m % MR`, `n % NR`, `n % EDGE` and `k % 8`
        /// remainder: both arms and every row split equal the per-element
        /// reference exactly.
        #[test]
        fn every_arm_and_split_equals_the_per_element_reference(
            (m, k, n, a, b) in (1usize..=40, 0usize..=200, 1usize..=40).prop_flat_map(|(m, k, n)| (
                Just(m),
                Just(k),
                Just(n),
                proptest::collection::vec(-4.0f32..4.0, m * k),
                proptest::collection::vec(-4.0f32..4.0, n * k),
            ))
        ) {
            let mut expect = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    expect[i * n + j] = dot_unrolled(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                }
            }
            let mut portable = vec![f32::NAN; m * n];
            transb_portable(&a, &b, &mut portable, k, n);
            prop_assert_eq!(&portable, &expect);
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                let mut avx2 = vec![f32::NAN; m * n];
                // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
                unsafe { transb_avx2(&a, &b, &mut avx2, k, n) };
                prop_assert_eq!(&avx2, &expect);
            }
            for threads in [2usize, 3, 8] {
                let mut par = vec![f32::NAN; m * n];
                matmul_transb_slices_par(&a, &b, &mut par, m, k, n, &force_par(threads));
                prop_assert_eq!(&par, &expect, "threads {}", threads);
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
        let a = t(&(0..64).map(|x| (x % 7) as f32 - 3.0).collect::<Vec<_>>(), &[8, 8]);
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
    fn parallel_matmul_is_bit_identical() {
        let (m, k, n) = (13, 9, 11);
        let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.19).cos()).collect();
        let mut serial = vec![0.0f32; m * n];
        matmul_slices(&a, &b, &mut serial, m, k, n);
        for threads in [2usize, 3, 4, 8, 16] {
            let mut par = vec![f32::NAN; m * n];
            matmul_slices_par(&a, &b, &mut par, m, k, n, &force_par(threads));
            assert_eq!(serial, par, "threads {threads}");
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

    #[test]
    fn parallel_single_row_falls_back_to_serial() {
        // m = 1 cannot split; the decode-step matvec must stay serial.
        let (k, n) = (16, 8);
        let a: Vec<f32> = (0..k).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32).collect();
        let mut serial = vec![0.0f32; n];
        matmul_slices(&a, &b, &mut serial, 1, k, n);
        let mut par = vec![f32::NAN; n];
        matmul_slices_par(&a, &b, &mut par, 1, k, n, &force_par(8));
        assert_eq!(serial, par);
    }
}
