//! Numerically stable softmax kernels, on the crate's own [`exp`].
//!
//! [`softmax_slice`] fixes the float-operation order of every attention
//! row and every sampled distribution (DESIGN.md §5); it has a portable
//! and an AVX2 arm that produce the same bits ([`super::has_avx2`] picks,
//! as for the matmul).

use super::exp;
#[cfg(target_arch = "x86_64")]
use super::{
    exp::{exp_avx2, lanes, load, map_avx2},
    has_avx2,
};
use crate::{Result, Tensor, TensorError};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// In-place numerically stable softmax over a slice.
///
/// Subtracts the maximum before exponentiating, so arbitrarily large
/// logits (including the `-inf` entries used for causal masks) are safe. An
/// all `-inf` slice yields all zeros rather than NaN, which is the behaviour
/// attention wants for fully masked rows.
///
/// **The fixed order:**
///
/// 1. `max` over the row, NaNs ignored. Any evaluation order gives the same
///    value except for the sign of a zero maximum, and that sign is not
///    observable: `x − max` is then `±0` and `exp(±0) = 1`. So the arms may
///    take the maximum in any order;
/// 2. `eᵢ = exp(xᵢ − max)` with the crate's own [`exp`];
/// 3. the sum of the `eᵢ` in eight lane accumulators over ascending 8-wide
///    chunks — lane `l` adds `e_l, e_{l+8}, …`, a ragged tail being a last
///    chunk padded with zeros — then the matmul kernel's tree
///    `((0+4)+(1+5))+((2+6)+(3+7))`. Lane-strided, because one accumulator
///    would make every score wait out the add latency of the one before;
/// 4. one reciprocal of the sum, and `eᵢ · (1/sum)`.
pub fn softmax_slice(x: &mut [f32]) {
    let sum = exp_sum(x);
    if sum > 0.0 {
        let inv = 1.0 / sum;
        for v in x.iter_mut() {
            *v *= inv;
        }
    }
}

/// Steps 1–3 on the arm [`super::gemm_arm`] names: `x` becomes
/// `exp(x − max x)` and the lane-ordered sum comes back; a row whose
/// maximum is `-inf` (or that is empty) becomes zeros, sum `0`.
#[inline]
fn exp_sum(x: &mut [f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
        return unsafe { exp_sum_avx2(x) };
    }
    exp_sum_portable(x)
}

/// The largest value that is not a NaN, `-inf` if there is none.
#[inline]
fn max_of(x: &[f32]) -> f32 {
    x.iter()
        .fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m })
}

/// [`exp_sum`], one score at a time.
fn exp_sum_portable(x: &mut [f32]) -> f32 {
    let max = max_of(x);
    if max == f32::NEG_INFINITY {
        x.fill(0.0);
        return 0.0;
    }
    let mut acc = [0.0f32; 8];
    for chunk in x.chunks_mut(8) {
        // A short last chunk leaves its missing lanes alone: adding the
        // padding's zero would not change them.
        for (v, lane) in chunk.iter_mut().zip(&mut acc) {
            *v = exp(*v - max);
            *lane += *v;
        }
    }
    lane_sum(acc)
}

/// [`exp_sum`] on AVX2: the lanes are the eight accumulators, and the tail
/// chunk is padded with `-inf`, which `exp` turns into the zeros.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn exp_sum_avx2(x: &mut [f32]) -> f32 {
    let (chunks, tail) = x.as_chunks::<8>();
    let mut last = [f32::NEG_INFINITY; 8];
    last[..tail.len()].copy_from_slice(tail);
    // `max_ps` returns its second operand when the first is NaN.
    let lane_max = chunks
        .iter()
        .fold(load(&last), |m, chunk| _mm256_max_ps(load(chunk), m));
    let max = max_of(&lanes(lane_max));
    if max == f32::NEG_INFINITY {
        x.fill(0.0);
        return 0.0;
    }
    let max = _mm256_set1_ps(max);
    let mut acc = _mm256_setzero_ps();
    map_avx2(x, f32::NEG_INFINITY, |v| {
        let e = exp_avx2(_mm256_sub_ps(v, max));
        acc = _mm256_add_ps(acc, e);
        e
    });
    lane_sum(lanes(acc))
}

/// The eight-lane sum a lane-strided reduction ends with — the tree of the
/// matmul kernel (`ops/matmul.rs`).
#[inline]
fn lane_sum(s: [f32; 8]) -> f32 {
    ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]))
}

/// In-place log-softmax over a slice (used for KL-divergence fidelity
/// metrics in the accuracy experiments).
pub fn log_softmax_slice(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let log_sum = x.iter().map(|&v| exp(v - max)).sum::<f32>().ln() + max;
    for v in x.iter_mut() {
        *v -= log_sum;
    }
}

/// Softmax over the last dimension of a rank-1 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for tensors that are not rank 1;
/// use [`softmax_rows`] for matrices.
pub fn softmax(x: &Tensor) -> Result<Tensor> {
    if x.dims().len() != 1 {
        return Err(TensorError::RankMismatch {
            op: "softmax",
            expected: 1,
            actual: x.dims().len(),
        });
    }
    let mut out = x.clone();
    softmax_slice(out.data_mut());
    Ok(out)
}

/// Row-wise softmax of a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix input.
pub fn softmax_rows(x: &Tensor) -> Result<Tensor> {
    let dims = x.dims();
    if dims.len() != 2 {
        return Err(TensorError::RankMismatch {
            op: "softmax_rows",
            expected: 2,
            actual: dims.len(),
        });
    }
    let cols = dims[1];
    let mut out = x.clone();
    if cols == 0 {
        return Ok(out);
    }
    for row in out.data_mut().chunks_exact_mut(cols) {
        softmax_slice(row);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Steps 1–3 of the documented order, transcribed without any of the
    /// kernel's code but [`exp`]: pad to whole chunks with zeros, lane `l`
    /// adds every eighth value, then the tree.
    fn exp_sum_by_the_book(x: &[f32]) -> (Vec<f32>, f32) {
        let max = x
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(f32::NEG_INFINITY, f32::max);
        if max == f32::NEG_INFINITY {
            return (vec![0.0; x.len()], 0.0);
        }
        let e: Vec<f32> = x.iter().map(|v| exp(v - max)).collect();
        let mut padded = e.clone();
        padded.resize(x.len().next_multiple_of(8), 0.0);
        let s: Vec<f32> = (0..8)
            .map(|l| padded.iter().skip(l).step_by(8).fold(0.0, |a, v| a + v))
            .collect();
        (
            e,
            ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7])),
        )
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// Each arm's exponentials and sum for `x`: the portable arm's, and the
    /// AVX2 arm's on a CPU that has it.
    fn arms(x: &[f32]) -> Vec<(Vec<f32>, f32)> {
        let mut portable = x.to_vec();
        let sum = exp_sum_portable(&mut portable);
        let mut arms = vec![(portable, sum)];
        #[cfg(target_arch = "x86_64")]
        if has_avx2() {
            let mut wide = x.to_vec();
            // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
            let sum = unsafe { exp_sum_avx2(&mut wide) };
            arms.push((wide, sum));
        }
        arms
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Row lengths across every tail length, masked (`-inf`) entries and
        /// fully masked rows included: both arms equal the transcription of
        /// the documented order exactly, and so does the kernel.
        #[test]
        fn softmax_arms_agree(
            (row, mask) in (0usize..=70).prop_flat_map(|len| (
                proptest::collection::vec(-30.0f32..30.0, len),
                proptest::collection::vec(0u8..4, len),
            )),
            mask_all in 0u8..8,
        ) {
            let row: Vec<f32> = row
                .iter()
                .zip(&mask)
                .map(|(&v, &m)| if m == 0 || mask_all == 0 { f32::NEG_INFINITY } else { v })
                .collect();
            let (e, sum) = exp_sum_by_the_book(&row);
            for (arm_e, arm_sum) in arms(&row) {
                prop_assert_eq!(bits(&arm_e), bits(&e));
                prop_assert_eq!(arm_sum.to_bits(), sum.to_bits());
            }
            let mut probs = row.clone();
            softmax_slice(&mut probs);
            if row.iter().all(|&v| v == f32::NEG_INFINITY) {
                prop_assert!(probs.iter().all(|&p| p.to_bits() == 0));
            } else {
                let inv = 1.0 / sum;
                prop_assert_eq!(bits(&probs), bits(&e.iter().map(|v| v * inv).collect::<Vec<_>>()));
            }
        }
    }

    #[test]
    fn both_arms_ignore_nan_scores_when_taking_the_maximum() {
        let row = [
            0.5,
            f32::NAN,
            -1.0,
            2.0,
            f32::NAN,
            0.0,
            1.0,
            -3.0,
            f32::NAN,
            4.0,
        ];
        let (e, _) = exp_sum_by_the_book(&row);
        assert_eq!(e[9], 1.0);
        for (arm_e, arm_sum) in arms(&row) {
            assert_eq!(bits(&arm_e), bits(&e));
            assert!(arm_sum.is_nan());
        }
    }

    #[test]
    fn sums_to_one() {
        let mut x = [1.0, 2.0, 3.0];
        softmax_slice(&mut x);
        let s: f32 = x.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn stable_under_large_logits() {
        let mut x = [1000.0, 1001.0];
        softmax_slice(&mut x);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn neg_inf_entries_become_zero() {
        let mut x = [f32::NEG_INFINITY, 0.0, f32::NEG_INFINITY];
        softmax_slice(&mut x);
        assert_eq!(x, [0.0, 1.0, 0.0]);
    }

    #[test]
    fn fully_masked_row_is_all_zero() {
        let mut x = [f32::NEG_INFINITY; 4];
        softmax_slice(&mut x);
        assert_eq!(x, [0.0; 4]);
    }

    #[test]
    fn empty_slice_is_noop() {
        let mut x: [f32; 0] = [];
        softmax_slice(&mut x);
        log_softmax_slice(&mut x);
    }

    #[test]
    fn shift_invariance() {
        let mut a = [0.1, 0.5, -0.2];
        let mut b = [100.1, 100.5, 99.8];
        softmax_slice(&mut a);
        softmax_slice(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_exp_matches_softmax() {
        let mut a = [0.3, -1.0, 2.0, 0.0];
        let mut b = a;
        softmax_slice(&mut a);
        log_softmax_slice(&mut b);
        for (p, lp) in a.iter().zip(&b) {
            assert!((p - lp.exp()).abs() < 1e-6);
        }
    }

    #[test]
    fn rows_independent() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 1000.0, 1000.0], &[2, 2]).unwrap();
        let y = softmax_rows(&x).unwrap();
        assert!((y.at(&[1, 0]).unwrap() - 0.5).abs() < 1e-6);
        assert!((y.at(&[0, 0]).unwrap() + y.at(&[0, 1]).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn rank_checks() {
        let v = Tensor::zeros(&[3]);
        let m = Tensor::zeros(&[2, 3]);
        assert!(softmax(&v).is_ok());
        assert!(softmax(&m).is_err());
        assert!(softmax_rows(&m).is_ok());
        assert!(softmax_rows(&v).is_err());
    }
}
