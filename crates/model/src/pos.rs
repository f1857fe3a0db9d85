//! Positional encodings with explicit position-ID lookup (paper §4.2).
//!
//! The paper's key implementation requirement is support for
//! **discontinuous position IDs**: a prompt module cached at positions
//! 110..160 must produce exactly the states a full prefill would have
//! produced there. For RoPE the paper builds "a lookup table for each
//! rotation matrix, enabling retrieval based on position IDs"; for ALiBi,
//! "a lookup table to adjust the bias matrix according to the provided
//! position IDs". [`RopeTable`] and [`AlibiTable`] are those tables.

use crate::config::PositionScheme;

/// Re-export so `pc-cache`/`prompt-cache` can dispatch on the scheme.
pub use crate::config::PositionScheme as PositionEncoding;

/// Precomputed rotary-embedding table: `cos`/`sin` of every
/// (position, frequency) pair up to `max_position`.
#[derive(Debug, Clone)]
pub struct RopeTable {
    half_dim: usize,
    max_position: usize,
    cos: Vec<f32>, // [max_position][half_dim]
    sin: Vec<f32>,
}

impl RopeTable {
    /// Builds the table for heads of dimension `head_dim` (must be even)
    /// with base frequency `theta`.
    pub fn new(head_dim: usize, max_position: usize, theta: f32) -> Self {
        assert!(head_dim.is_multiple_of(2), "RoPE requires an even head dimension");
        let half_dim = head_dim / 2;
        let mut cos = Vec::with_capacity(max_position * half_dim);
        let mut sin = Vec::with_capacity(max_position * half_dim);
        for pos in 0..max_position {
            for i in 0..half_dim {
                let freq = theta.powf(-2.0 * i as f32 / head_dim as f32);
                let angle = pos as f32 * freq;
                cos.push(angle.cos());
                sin.push(angle.sin());
            }
        }
        RopeTable {
            half_dim,
            max_position,
            cos,
            sin,
        }
    }

    /// Largest representable position (exclusive).
    pub fn max_position(&self) -> usize {
        self.max_position
    }

    /// Head dimension the table was built for (`2 × half_dim`).
    pub fn head_dim(&self) -> usize {
        self.half_dim * 2
    }

    /// Rotates one head vector (`2 × half_dim` values, pair layout
    /// `[x0, x1, …, x_{h-1}, y0, …, y_{h-1}]` — the "rotate-half" layout
    /// Llama uses) in place, at position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= max_position` — the engine validates positions
    /// before reaching this hot path.
    pub fn apply(&self, head: &mut [f32], pos: usize) {
        debug_assert_eq!(head.len(), self.half_dim * 2);
        assert!(pos < self.max_position, "position {pos} out of table range");
        let base = pos * self.half_dim;
        let (xs, ys) = head.split_at_mut(self.half_dim);
        for i in 0..self.half_dim {
            let (c, s) = (self.cos[base + i], self.sin[base + i]);
            let (x, y) = (xs[i], ys[i]);
            xs[i] = x * c - y * s;
            ys[i] = x * s + y * c;
        }
    }

    /// Rotates one head vector by a relative `shift`, composing with
    /// whatever rotation the vector already carries: rotation matrices at
    /// a fixed frequency commute and add angles, so
    /// `R(p + Δ) = R(Δ) · R(p)` and a key encoded at canonical position
    /// `p` becomes the key at placed position `p + Δ` with one extra
    /// rotation. Negative shifts rotate backwards (same magnitude row,
    /// sine negated — `R(-Δ) = R(Δ)ᵀ`).
    ///
    /// # Panics
    ///
    /// Panics if `|shift| >= max_position`.
    pub fn apply_shift(&self, head: &mut [f32], shift: isize) {
        debug_assert_eq!(head.len(), self.half_dim * 2);
        let (cos, sin, sign) = self.shift_row(shift);
        let (xs, ys) = head.split_at_mut(self.half_dim);
        for i in 0..self.half_dim {
            let (c, s) = (cos[i], sign * sin[i]);
            let (x, y) = (xs[i], ys[i]);
            xs[i] = x * c - y * s;
            ys[i] = x * s + y * c;
        }
    }

    /// The table row for a relative `shift`: the `|Δ|` cos/sin rows plus
    /// the sine sign (`-1.0` for backward shifts). The attention tile
    /// scores a segment placed at shift `Δ` by rotating its query tile
    /// with the row of `−Δ`, by [`RopeTable::apply_shift`]'s expressions,
    /// so the segment's stored keys are read as they are.
    ///
    /// # Panics
    ///
    /// Panics if `|shift| >= max_position`.
    pub fn shift_row(&self, shift: isize) -> (&[f32], &[f32], f32) {
        let magnitude = shift.unsigned_abs();
        assert!(magnitude < self.max_position, "shift {shift} out of table range");
        let base = magnitude * self.half_dim;
        let row = base..base + self.half_dim;
        let sign = if shift < 0 { -1.0 } else { 1.0 };
        (&self.cos[row.clone()], &self.sin[row], sign)
    }
}

/// Precomputed ALiBi slopes, one per attention head, with bias lookup by
/// (query position, key position).
#[derive(Debug, Clone)]
pub struct AlibiTable {
    slopes: Vec<f32>,
}

impl AlibiTable {
    /// Computes the standard ALiBi slope set `2^(-8i/n)` for `num_heads`
    /// heads (the geometric sequence from the ALiBi paper, exact when
    /// `num_heads` is a power of two and interpolated otherwise).
    pub fn new(num_heads: usize) -> Self {
        let slopes = Self::slopes_for(num_heads);
        AlibiTable { slopes }
    }

    fn slopes_for(n: usize) -> Vec<f32> {
        // For powers of two: start = 2^(-8/n), ratio = start.
        fn pow2_slopes(n: usize) -> Vec<f32> {
            let start = 2f32.powf(-8.0 / n as f32);
            (0..n).map(|i| start.powi(i as i32 + 1)).collect()
        }
        if n.is_power_of_two() {
            pow2_slopes(n)
        } else {
            // ALiBi's published fallback: take the next power of two's
            // sequence and interleave.
            let closest = n.next_power_of_two() / 2;
            let mut s = pow2_slopes(closest);
            let extra = pow2_slopes(closest * 2);
            s.extend(extra.into_iter().step_by(2).take(n - closest));
            s
        }
    }

    /// Slope of head `h`.
    pub fn slope(&self, head: usize) -> f32 {
        self.slopes[head]
    }

    /// Number of heads covered.
    pub fn num_heads(&self) -> usize {
        self.slopes.len()
    }

    /// Additive attention bias for head `head` between a query at position
    /// `q_pos` and a key at position `k_pos`.
    ///
    /// ALiBi penalises distance linearly: `-slope × (q_pos − k_pos)`.
    /// Discontinuous position IDs work out of the box because only the
    /// difference enters. Keys "ahead" of the query (possible when a prompt
    /// supplies out-of-order module positions) get symmetric distance.
    pub fn bias(&self, head: usize, q_pos: usize, k_pos: usize) -> f32 {
        let dist = q_pos.abs_diff(k_pos) as f32;
        -self.slopes[head] * dist
    }
}

/// Returns whether a scheme encodes positions relatively (shift-invariant)
/// — true for RoPE and ALiBi, false for learned embeddings. Prompt Cache's
/// "unions share a start position" trick relies on relative encoding.
pub fn is_shift_invariant(scheme: PositionScheme) -> bool {
    !matches!(scheme, PositionScheme::Learned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_tensor::ops::dot;

    #[test]
    fn rope_position_zero_is_identity() {
        let table = RopeTable::new(8, 16, 10_000.0);
        let mut head = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let orig = head;
        table.apply(&mut head, 0);
        assert_eq!(head, orig);
    }

    #[test]
    fn rope_preserves_norm() {
        let table = RopeTable::new(8, 64, 10_000.0);
        let mut head = [0.3, -1.0, 0.7, 2.0, -0.5, 0.1, 1.5, -2.0];
        let norm_before: f32 = head.iter().map(|x| x * x).sum();
        table.apply(&mut head, 37);
        let norm_after: f32 = head.iter().map(|x| x * x).sum();
        assert!((norm_before - norm_after).abs() < 1e-4);
    }

    #[test]
    fn rope_dot_product_depends_only_on_relative_position() {
        // The defining RoPE property: <R(p)q, R(p+Δ)k> is independent of p.
        let table = RopeTable::new(8, 256, 10_000.0);
        let q = [0.3, -1.0, 0.7, 2.0, -0.5, 0.1, 1.5, -2.0];
        let k = [1.0, 0.5, -0.7, 0.2, 0.9, -1.1, 0.4, 0.8];
        let delta = 13;
        let mut dots = Vec::new();
        for p in [0usize, 17, 100, 200] {
            let mut qr = q;
            let mut kr = k;
            table.apply(&mut qr, p + delta);
            table.apply(&mut kr, p);
            dots.push(dot(&qr, &kr));
        }
        for w in dots.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-3, "{dots:?}");
        }
    }

    #[test]
    fn rope_different_relative_distances_differ() {
        let table = RopeTable::new(8, 256, 10_000.0);
        let q = [0.3, -1.0, 0.7, 2.0, -0.5, 0.1, 1.5, -2.0];
        let k = [1.0, 0.5, -0.7, 0.2, 0.9, -1.1, 0.4, 0.8];
        let mut q1 = q;
        let mut k1 = k;
        table.apply(&mut q1, 10);
        table.apply(&mut k1, 5);
        let mut q2 = q;
        let mut k2 = k;
        table.apply(&mut q2, 10);
        table.apply(&mut k2, 2);
        assert!((dot(&q1, &k1) - dot(&q2, &k2)).abs() > 1e-4);
    }

    #[test]
    fn rope_shift_composes_with_apply() {
        // apply(p + Δ) ≡ apply_shift(Δ) ∘ apply(p) — the identity the
        // deferred-RoPE read path rests on.
        let table = RopeTable::new(8, 512, 10_000.0);
        let base = [0.3, -1.0, 0.7, 2.0, -0.5, 0.1, 1.5, -2.0];
        for (p, delta) in [(0usize, 7usize), (13, 100), (200, 0), (50, 300)] {
            let mut direct = base;
            table.apply(&mut direct, p + delta);
            let mut composed = base;
            table.apply(&mut composed, p);
            table.apply_shift(&mut composed, delta as isize);
            for (a, b) in direct.iter().zip(&composed) {
                assert!((a - b).abs() < 1e-4, "p {p} Δ {delta}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rope_negative_shift_undoes_positive() {
        let table = RopeTable::new(8, 256, 10_000.0);
        let base = [1.0, 0.5, -0.7, 0.2, 0.9, -1.1, 0.4, 0.8];
        let mut v = base;
        table.apply_shift(&mut v, 37);
        table.apply_shift(&mut v, -37);
        for (a, b) in v.iter().zip(&base) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn rope_shift_zero_is_identity() {
        let table = RopeTable::new(8, 16, 10_000.0);
        let mut head = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let orig = head;
        table.apply_shift(&mut head, 0);
        assert_eq!(head, orig);
    }

    #[test]
    fn shift_row_feeds_dot_rotated_bit_identically() {
        // The fused score primitive on un-shifted keys must equal the
        // materialise-then-dot path bit for bit.
        let table = RopeTable::new(8, 128, 10_000.0);
        let q = [0.3, -1.0, 0.7, 2.0, -0.5, 0.1, 1.5, -2.0];
        let k = [1.0, 0.5, -0.7, 0.2, 0.9, -1.1, 0.4, 0.8];
        for shift in [3isize, 90, -17] {
            let (cos, sin, sign) = table.shift_row(shift);
            let fused = pc_tensor::ops::dot_rotated(&q, &k, cos, sin, sign);
            let mut rotated = k;
            table.apply_shift(&mut rotated, shift);
            let materialised = pc_tensor::ops::dot_seq(&q, &rotated);
            assert_eq!(fused.to_bits(), materialised.to_bits(), "shift {shift}");
        }
    }

    #[test]
    #[should_panic(expected = "out of table range")]
    fn rope_rejects_out_of_range_position() {
        let table = RopeTable::new(4, 8, 10_000.0);
        let mut head = [0.0; 4];
        table.apply(&mut head, 8);
    }

    #[test]
    fn alibi_power_of_two_slopes() {
        let t = AlibiTable::new(8);
        // 2^(-8/8) = 0.5, ratio 0.5.
        assert!((t.slope(0) - 0.5).abs() < 1e-6);
        assert!((t.slope(1) - 0.25).abs() < 1e-6);
        assert!((t.slope(7) - 0.00390625).abs() < 1e-7);
    }

    #[test]
    fn alibi_non_power_of_two_head_count() {
        let t = AlibiTable::new(6);
        assert_eq!(t.num_heads(), 6);
        assert!(t.slopes.iter().all(|&s| s > 0.0 && s < 1.0));
    }

    #[test]
    fn alibi_bias_is_relative() {
        let t = AlibiTable::new(4);
        assert_eq!(t.bias(0, 10, 5), t.bias(0, 110, 105));
        assert_eq!(t.bias(0, 7, 7), 0.0);
        // Farther keys get more negative bias.
        assert!(t.bias(0, 10, 0) < t.bias(0, 10, 9));
    }

    #[test]
    fn shift_invariance_classification() {
        assert!(is_shift_invariant(PositionScheme::Rope));
        assert!(is_shift_invariant(PositionScheme::Alibi));
        assert!(!is_shift_invariant(PositionScheme::Learned));
    }
}
