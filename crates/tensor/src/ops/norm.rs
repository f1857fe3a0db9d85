//! Normalisation layers: RMSNorm (Llama) and LayerNorm (Falcon, MPT, GPT-2).

use crate::{Result, Tensor, TensorError};

/// In-place RMSNorm over one token's hidden vector.
///
/// `x[i] ← x[i] / rms(x) · weight[i]` with `rms(x) = sqrt(mean(x²) + eps)`.
pub fn rms_norm_slice(x: &mut [f32], weight: &[f32], eps: f32) {
    debug_assert_eq!(x.len(), weight.len());
    if x.is_empty() {
        return;
    }
    let ms = x.iter().map(|v| v * v).sum::<f32>() / x.len() as f32;
    let inv = 1.0 / (ms + eps).sqrt();
    for (v, &w) in x.iter_mut().zip(weight) {
        *v = *v * inv * w;
    }
}

/// In-place LayerNorm over one token's hidden vector.
///
/// `x[i] ← (x[i] - mean) / sqrt(var + eps) · weight[i] + bias[i]`.
pub fn layer_norm_slice(x: &mut [f32], weight: &[f32], bias: &[f32], eps: f32) {
    debug_assert_eq!(x.len(), weight.len());
    debug_assert_eq!(x.len(), bias.len());
    if x.is_empty() {
        return;
    }
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv = 1.0 / (var + eps).sqrt();
    for ((v, &w), &b) in x.iter_mut().zip(weight).zip(bias) {
        *v = (*v - mean) * inv * w + b;
    }
}

/// Row-wise RMSNorm of a `[tokens, hidden]` matrix.
///
/// # Errors
///
/// Returns an error when `x` is not rank 2 or `weight`'s length differs from
/// the hidden dimension.
pub fn rms_norm(x: &Tensor, weight: &Tensor, eps: f32) -> Result<Tensor> {
    let dims = x.dims();
    if dims.len() != 2 {
        return Err(TensorError::RankMismatch {
            op: "rms_norm",
            expected: 2,
            actual: dims.len(),
        });
    }
    if weight.len() != dims[1] {
        return Err(TensorError::ShapeMismatch {
            op: "rms_norm",
            lhs: dims.to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    let mut out = x.clone();
    if dims[1] == 0 {
        return Ok(out);
    }
    for row in out.data_mut().chunks_exact_mut(dims[1]) {
        rms_norm_slice(row, weight.data(), eps);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rms_norm_unit_output_scale() {
        let mut x = [3.0, 4.0];
        let w = [1.0, 1.0];
        rms_norm_slice(&mut x, &w, 0.0);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = (12.5f32).sqrt();
        assert!((x[0] - 3.0 / rms).abs() < 1e-6);
        assert!((x[1] - 4.0 / rms).abs() < 1e-6);
        // Output RMS is 1.
        let out_ms = (x[0] * x[0] + x[1] * x[1]) / 2.0;
        assert!((out_ms - 1.0).abs() < 1e-5);
    }

    #[test]
    fn rms_norm_applies_weight() {
        let mut x = [1.0, 1.0];
        rms_norm_slice(&mut x, &[2.0, 0.5], 0.0);
        assert!((x[0] - 2.0).abs() < 1e-6);
        assert!((x[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut x = [1.0, 2.0, 3.0, 4.0];
        let w = [1.0; 4];
        let b = [0.0; 4];
        layer_norm_slice(&mut x, &w, &b, 1e-6);
        let mean: f32 = x.iter().sum::<f32>() / 4.0;
        let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_bias_shifts() {
        let mut x = [1.0, -1.0];
        layer_norm_slice(&mut x, &[1.0, 1.0], &[5.0, 5.0], 1e-6);
        assert!((x[0] + x[1] - 10.0).abs() < 1e-4);
    }

    #[test]
    fn tensor_wrappers_validate() {
        let x = Tensor::zeros(&[2, 4]);
        let w = Tensor::full(&[4], 1.0);
        assert!(rms_norm(&x, &w, 1e-5).is_ok());
        let bad_w = Tensor::full(&[3], 1.0);
        assert!(rms_norm(&x, &bad_w, 1e-5).is_err());
        let v = Tensor::zeros(&[4]);
        assert!(rms_norm(&v, &w, 1e-5).is_err());
    }

    #[test]
    fn eps_guards_zero_vector() {
        let mut x = [0.0; 4];
        rms_norm_slice(&mut x, &[1.0; 4], 1e-5);
        assert!(x.iter().all(|v| v.is_finite()));
        let mut y = [2.0; 4]; // zero variance
        layer_norm_slice(&mut y, &[1.0; 4], &[0.0; 4], 1e-5);
        assert!(y.iter().all(|v| v.is_finite()));
    }
}
