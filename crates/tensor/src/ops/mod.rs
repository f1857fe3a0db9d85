//! Tensor kernels: matrix multiplication, softmax, normalisation,
//! activations, elementwise arithmetic, and reductions.
//!
//! Kernels are free functions over [`crate::Tensor`] (and, for the hot
//! paths, over raw `&[f32]` slices so `pc-model` can operate on views
//! without copies).

mod activation;
mod batched;
mod elementwise;
mod exp;
mod matmul;
mod norm;
mod reduce;
mod softmax;

pub use activation::{gelu, gelu_scalar, gelu_slice, silu, silu_scalar, silu_slice};
pub use batched::{axpy_seq, dot_rotated, dot_seq};
pub use elementwise::{add, add_assign_slice, mul, scale, scale_slice};
pub use exp::exp;
pub use matmul::{
    gemm_arm, has_avx2, matmul, matmul_slices, matmul_transb, matmul_transb_slices,
    matmul_transb_slices_par,
};
pub use norm::{layer_norm_slice, rms_norm, rms_norm_slice};
pub use reduce::{argmax, argmax_slice, dot, mean, top_k};
pub use softmax::{log_softmax_slice, softmax, softmax_rows, softmax_slice};
