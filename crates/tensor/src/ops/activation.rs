//! Activation functions used by the supported model families.
//!
//! SiLU (a.k.a. swish) drives Llama-style gated MLPs; tanh-approximated GELU
//! drives Falcon/MPT/GPT-2 MLPs. Both are written on the crate's own
//! [`exp`] — `tanh u = 1 − 2/(e^{2u} + 1)` — in the operation order of
//! [`silu_scalar`] and [`gelu_scalar`]; the slice kernels' AVX2 arm
//! ([`super::has_avx2`] picks, as for the matmul) evaluates exactly those
//! expressions eight values at a time, so both arms produce the same bits.

use super::exp;
#[cfg(target_arch = "x86_64")]
use super::{
    exp::{exp_avx2, map_avx2},
    has_avx2,
};
use crate::Tensor;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_CUBIC: f32 = 0.044_715;

/// SiLU applied to one value: `x · sigmoid(x)`, as `x / (1 + exp(−x))`.
/// A large negative `x` takes `exp`'s `+∞` branch and gives `-0`.
#[inline]
pub fn silu_scalar(x: f32) -> f32 {
    x / (1.0 + exp(-x))
}

/// Tanh-approximated GELU applied to one value (the GPT-2/Falcon variant).
#[inline]
pub fn gelu_scalar(x: f32) -> f32 {
    let u = SQRT_2_OVER_PI * (x + GELU_CUBIC * x * x * x);
    let tanh = 1.0 - 2.0 / (exp(2.0 * u) + 1.0);
    0.5 * x * (1.0 + tanh)
}

/// In-place SiLU over a slice.
pub fn silu_slice(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
        return unsafe { silu_avx2(x) };
    }
    for v in x.iter_mut() {
        *v = silu_scalar(*v);
    }
}

/// In-place GELU over a slice.
pub fn gelu_slice(x: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
        return unsafe { gelu_avx2(x) };
    }
    for v in x.iter_mut() {
        *v = gelu_scalar(*v);
    }
}

/// [`silu_scalar`] on eight lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn silu_avx2(x: &mut [f32]) {
    let (one, sign) = (_mm256_set1_ps(1.0), _mm256_set1_ps(-0.0));
    map_avx2(x, 0.0, |v| {
        _mm256_div_ps(v, _mm256_add_ps(one, exp_avx2(_mm256_xor_ps(v, sign))))
    });
}

/// [`gelu_scalar`] on eight lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gelu_avx2(x: &mut [f32]) {
    let (half, one, two) = (
        _mm256_set1_ps(0.5),
        _mm256_set1_ps(1.0),
        _mm256_set1_ps(2.0),
    );
    let (scale, cubic) = (_mm256_set1_ps(SQRT_2_OVER_PI), _mm256_set1_ps(GELU_CUBIC));
    map_avx2(x, 0.0, |v| {
        let cube = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(cubic, v), v), v);
        let u = _mm256_mul_ps(scale, _mm256_add_ps(v, cube));
        let e = exp_avx2(_mm256_mul_ps(two, u));
        let tanh = _mm256_sub_ps(one, _mm256_div_ps(two, _mm256_add_ps(e, one)));
        _mm256_mul_ps(_mm256_mul_ps(half, v), _mm256_add_ps(one, tanh))
    });
}

/// Elementwise SiLU of a tensor.
pub fn silu(x: &Tensor) -> Tensor {
    x.map(silu_scalar)
}

/// Elementwise GELU of a tensor.
pub fn gelu(x: &Tensor) -> Tensor {
    x.map(gelu_scalar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The slice kernels — whichever arm this CPU runs, at every tail
        /// length — equal the scalar definitions exactly, huge activations
        /// (both of `exp`'s clamps) included.
        #[test]
        fn activation_arms_agree(
            body in proptest::collection::vec(-12.0f32..12.0, 0..40),
            wild in proptest::collection::vec(-1.0e6f32..1.0e6, 0..4),
        ) {
            let x: Vec<f32> = body.into_iter().chain(wild).chain([0.0, -0.0, 1e30, -1e30]).collect();
            let expect = |f: fn(f32) -> f32| x.iter().map(|&v| f(v).to_bits()).collect::<Vec<_>>();
            let kernel = |f: fn(&mut [f32])| {
                let mut y = x.clone();
                f(&mut y);
                y.into_iter().map(f32::to_bits).collect::<Vec<_>>()
            };
            prop_assert_eq!(kernel(silu_slice), expect(silu_scalar));
            prop_assert_eq!(kernel(gelu_slice), expect(gelu_scalar));
            #[cfg(target_arch = "x86_64")]
            if has_avx2() {
                // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
                prop_assert_eq!(kernel(|y| unsafe { silu_avx2(y) }), expect(silu_scalar));
                // SAFETY: as above.
                prop_assert_eq!(kernel(|y| unsafe { gelu_avx2(y) }), expect(gelu_scalar));
            }
        }
    }

    /// Against the formulas in `f64`, over everything an MLP can produce.
    #[test]
    fn activations_track_the_f64_formulas() {
        for i in -100_000..=100_000 {
            let x = i as f32 * 1e-3;
            let wide = x as f64;
            let silu = wide / (1.0 + (-wide).exp());
            assert!(
                (silu_scalar(x) as f64 - silu).abs() <= 1e-6 * wide.abs().max(1.0),
                "silu({x})"
            );
            let u = 0.797_884_560_802_865_4 * (wide + 0.044_715 * wide * wide * wide);
            let gelu = 0.5 * wide * (1.0 + u.tanh());
            assert!(
                (gelu_scalar(x) as f64 - gelu).abs() <= 1e-6 * wide.abs().max(1.0),
                "gelu({x})"
            );
        }
    }

    #[test]
    fn huge_negative_activations_do_not_overflow_the_exponent_trick() {
        assert_eq!(silu_scalar(-100.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(silu_scalar(-1e30).to_bits(), (-0.0f32).to_bits());
        assert_eq!(silu_scalar(1e30), 1e30);
        assert_eq!(gelu_scalar(1e30), 1e30);
        assert_eq!(gelu_scalar(-1e30), 0.0);
    }

    #[test]
    fn silu_fixed_points() {
        assert_eq!(silu_scalar(0.0), 0.0);
        // silu(x) → x for large x, → 0 for very negative x.
        assert!((silu_scalar(20.0) - 20.0).abs() < 1e-4);
        assert!(silu_scalar(-20.0).abs() < 1e-4);
    }

    #[test]
    fn silu_known_value() {
        // silu(1) = 1/(1+e^-1) ≈ 0.731059
        assert!((silu_scalar(1.0) - 0.731_059).abs() < 1e-5);
    }

    #[test]
    fn gelu_fixed_points() {
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
    }

    #[test]
    fn gelu_known_value() {
        // Reference value from the tanh approximation at x = 1.
        assert!((gelu_scalar(1.0) - 0.841_192).abs() < 1e-4);
    }

    #[test]
    fn activations_are_monotone_on_positives() {
        let mut prev_s = 0.0;
        let mut prev_g = 0.0;
        for i in 1..100 {
            let x = i as f32 * 0.1;
            let s = silu_scalar(x);
            let g = gelu_scalar(x);
            assert!(s > prev_s && g > prev_g, "x={x}");
            prev_s = s;
            prev_g = g;
        }
    }

    #[test]
    fn slice_and_tensor_variants_agree() {
        let vals = vec![-2.0, -0.5, 0.0, 0.5, 2.0];
        let t = Tensor::from_vec(vals.clone(), &[5]).unwrap();
        let ts = silu(&t);
        let mut s = vals.clone();
        silu_slice(&mut s);
        assert_eq!(ts.data(), &s[..]);

        let tg = gelu(&t);
        let mut g = vals;
        gelu_slice(&mut g);
        assert_eq!(tg.data(), &g[..]);
    }
}
