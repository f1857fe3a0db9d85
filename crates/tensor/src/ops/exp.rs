//! The engine's one `exp`: [`exp`] is its definition, in separate
//! single-precision operations in a fixed order, so its bits depend on
//! neither the host's C library nor the instruction set that runs it; the
//! AVX2 arm evaluates the same expressions on eight independent lanes.
//!
//! The softmax kernel and both activations go through it (`ops/softmax.rs`,
//! `ops/activation.rs`), so no libm transcendental is left on the forward
//! path, and every serving path — solo, batched, grouped, restored,
//! sharded, baseline — sees the same bits on any host.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Below this the result would be subnormal: `exp` returns `+0`.
const LO: f32 = -87.3;
/// The largest argument with a finite result (the `f32` just below
/// `128·ln 2`); above it `exp` returns `+∞`.
const HI: f32 = 88.722_83;
/// `1.5·2²³`: adding it to `|t| < 2²²` leaves `t` rounded to an integer.
const MAGIC: f32 = 12_582_912.0;
const LOG2_E: f32 = std::f32::consts::LOG2_E;
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -0.000_212_194_44;
/// Cephes' `expf` polynomial: `eʳ ≈ 1 + r + r²·P(r)` on `|r| ≤ ½·ln 2`.
const P: [f32; 6] = [
    0.000_198_756_91,
    0.001_398_199_9,
    0.008_333_452,
    0.041_665_796,
    0.166_666_66,
    0.5,
];

/// `eˣ`, defined here rather than by libm — the portable arm of every
/// kernel built on it, and the oracle the AVX2 arm is held to with `==`:
///
/// 1. clamp `x` into `[LO, HI]` = `[-87.3, 88.72283]` (a NaN clamps to
///    `LO` and is put back at the end);
/// 2. `n = (x·log₂e + 1.5·2²³) − 1.5·2²³` — `x·log₂e` rounded to the
///    nearest integer, ties to even, by the addition itself;
/// 3. `r = (x − n·LN2_HI) − n·LN2_LO` — Cody–Waite: `LN2_HI` has nine
///    significant bits, so `n·LN2_HI` is exact and `|r| ≤ ½·ln 2`;
/// 4. `p = (((((P0·r + P1)·r + P2)·r + P3)·r + P4)·r + P5)·r² + r + 1`,
///    Horner with every multiply and add rounded on its own — never `fma`;
/// 5. `p·2ⁿ` by adding `n` to `p`'s exponent field;
/// 6. `x < LO → +0`, `x > HI → +∞`, NaN → that NaN.
///
/// `exp(±0) = 1` exactly. For every `f32` in `[LO, HI]` the result is
/// within one ulp of the correctly rounded value (99.2 % are it) and never
/// decreases as `x` grows — checked exhaustively once; the tests sweep it.
/// Results below the smallest normal number are flushed to zero, which is
/// what `LO` marks.
#[inline]
pub fn exp(x: f32) -> f32 {
    // Written as the vector arm's `max_ps` / `min_ps` select, so a NaN
    // takes the same route in both.
    let c = if x > LO { x } else { LO };
    let c = if c < HI { c } else { HI };
    let n = (c * LOG2_E + MAGIC) - MAGIC;
    let r = (c - n * LN2_HI) - n * LN2_LO;
    let mut p = P[0];
    for coeff in &P[1..] {
        p = p * r + coeff;
    }
    let p = p * (r * r) + r + 1.0;
    // `n ∈ [-126, 128]`, and `p`'s own exponent is such that the sum stays
    // a normal number's: `p ≥ 1` at `n = -126`, `p < 1` at `n = 128`.
    let y = f32::from_bits(p.to_bits().wrapping_add((n as i32 as u32) << 23));
    if x < LO {
        0.0
    } else if x > HI {
        f32::INFINITY
    } else if x.is_nan() {
        x
    } else {
        y
    }
}

/// [`exp`] on eight lanes: the same operations in the same order, one
/// intrinsic per scalar operation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(super) fn exp_avx2(x: __m256) -> __m256 {
    let (lo, hi) = (_mm256_set1_ps(LO), _mm256_set1_ps(HI));
    let magic = _mm256_set1_ps(MAGIC);
    let c = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
    let t = _mm256_add_ps(_mm256_mul_ps(c, _mm256_set1_ps(LOG2_E)), magic);
    let n = _mm256_sub_ps(t, magic);
    let r = _mm256_sub_ps(c, _mm256_mul_ps(n, _mm256_set1_ps(LN2_HI)));
    let r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(LN2_LO)));
    let mut p = _mm256_set1_ps(P[0]);
    for &coeff in &P[1..] {
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(coeff));
    }
    let p = _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r);
    let p = _mm256_add_ps(p, _mm256_set1_ps(1.0));
    let shift = _mm256_slli_epi32::<23>(_mm256_cvttps_epi32(n));
    let y = _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(p), shift));
    let y = _mm256_andnot_ps(_mm256_cmp_ps::<_CMP_LT_OQ>(x, lo), y);
    let inf = _mm256_set1_ps(f32::INFINITY);
    let y = _mm256_blendv_ps(y, inf, _mm256_cmp_ps::<_CMP_GT_OQ>(x, hi));
    _mm256_blendv_ps(y, x, _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x))
}

/// Eight `f32`s as one vector.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(super) fn load(x: &[f32; 8]) -> __m256 {
    // SAFETY: `x` is eight readable `f32`s, and the load is unaligned.
    unsafe { _mm256_loadu_ps(x.as_ptr()) }
}

/// The eight lanes of `v`, lane 0 first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(super) fn lanes(v: __m256) -> [f32; 8] {
    let mut out = [0.0; 8];
    // SAFETY: `out` is eight writable `f32`s, and the store is unaligned.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), v) };
    out
}

/// `x[i] = f(x[i])`, eight lanes at a time in ascending order; a ragged
/// tail runs as one last chunk whose missing lanes hold `pad` and are not
/// stored. The one loop under the AVX2 arms of softmax, SiLU and GELU.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(super) fn map_avx2(x: &mut [f32], pad: f32, mut f: impl FnMut(__m256) -> __m256) {
    let (chunks, tail) = x.as_chunks_mut::<8>();
    for chunk in chunks {
        *chunk = lanes(f(load(chunk)));
    }
    if !tail.is_empty() {
        let mut last = [pad; 8];
        last[..tail.len()].copy_from_slice(tail);
        tail.copy_from_slice(&lanes(f(load(&last)))[..tail.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The correctly rounded `f32` of `eˣ`, through `f64`.
    fn reference(x: f32) -> f32 {
        (x as f64).exp() as f32
    }

    fn ulps_apart(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The AVX2 arm on eight values, or `None` on a CPU without it.
    fn avx2(x: [f32; 8]) -> Option<[f32; 8]> {
        #[cfg(target_arch = "x86_64")]
        if crate::ops::has_avx2() {
            // SAFETY: `has_avx2` just reported that this CPU supports AVX2.
            return Some(unsafe { lanes(exp_avx2(load(&x))) });
        }
        None
    }

    fn assert_arms_agree(x: [f32; 8]) {
        let Some(wide) = avx2(x) else { return };
        for (x, wide) in x.into_iter().zip(wide) {
            assert_eq!(
                exp(x).to_bits(),
                wide.to_bits(),
                "exp({x:e}) [{:#x}]",
                x.to_bits()
            );
        }
    }

    #[test]
    fn special_values() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        // The clamps, one ulp either side.
        assert!(exp(LO) >= f32::MIN_POSITIVE);
        assert_eq!(exp(LO.next_down()), 0.0);
        assert!(exp(HI).is_finite() && exp(HI) > 3.4e38);
        assert_eq!(exp(HI.next_up()), f32::INFINITY);
        // What SiLU feeds it for a large negative activation.
        assert_eq!(exp(1e30), f32::INFINITY);
        assert_eq!(exp(-1e30), 0.0);
    }

    #[test]
    fn exp_arms_agree_at_the_edges() {
        let edges = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            LO,
            LO.next_up(),
            LO.next_down(),
            HI,
            HI.next_up(),
            HI.next_down(),
            -104.0,
            1e30,
            -1e30,
            f32::MIN_POSITIVE,
        ];
        for pair in edges.chunks(8) {
            let mut x = [0.5; 8];
            x[..pair.len()].copy_from_slice(pair);
            assert_arms_agree(x);
        }
        // Every tie of the rounding step: `x·log₂e` halfway between integers.
        for n in -127..=128 {
            let tie = (n as f32 - 0.5) / LOG2_E;
            assert_arms_agree([
                tie,
                tie.next_up(),
                tie.next_down(),
                -tie,
                n as f32,
                n as f32 * LN2_HI,
                0.0,
                1.0,
            ]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The scalar definition `==` the AVX2 arm, on arguments across the
        /// whole defined range and on arbitrary bit patterns (NaN payloads,
        /// subnormals, huge values).
        #[test]
        fn exp_arms_agree(
            near in proptest::collection::vec(-110.0f32..95.0, 8),
            bits in proptest::collection::vec(any::<u32>(), 8),
        ) {
            assert_arms_agree(near.try_into().unwrap());
            let any: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
            assert_arms_agree(any.try_into().unwrap());
        }
    }

    /// A dense sweep of everything softmax, SiLU and GELU can ask for:
    /// within one ulp of the correctly rounded value between the clamps,
    /// `+0` below, `+∞` above, and never decreasing.
    #[test]
    fn exp_is_within_1ulp() {
        const STEP: f32 = 1.0 / 4096.0;
        let mut previous = 0.0;
        for i in (-104 * 4096)..=(89 * 4096) {
            let x = i as f32 * STEP;
            let y = exp(x);
            if x < LO {
                assert_eq!(y, 0.0, "exp({x})");
                assert!(reference(x) < 1.3e-38);
            } else if x > HI {
                assert_eq!(y, f32::INFINITY, "exp({x})");
            } else {
                assert!(
                    ulps_apart(y, reference(x)) <= 1,
                    "exp({x}) = {y:e}, reference {:e}",
                    reference(x)
                );
            }
            assert!(
                y >= previous,
                "exp({x}) = {y:e} is below its left neighbour {previous:e}"
            );
            previous = y;
        }
    }
}
