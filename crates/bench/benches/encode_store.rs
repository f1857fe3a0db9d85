//! Module encoding, quantization, and codec throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pc_cache::quant::QuantizedKv;
use pc_model::{KvCache, Model, ModelConfig};
use std::time::Duration;

fn encode(c: &mut Criterion) {
    let model = Model::new(ModelConfig::llama_small(512), 0);
    let mut group = c.benchmark_group("encode_module");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3));
    for &n in &[64usize, 256] {
        let tokens: Vec<u32> = (0..n as u32).map(|t| t % 500).collect();
        let positions: Vec<usize> = (0..n).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| model.encode_segment(&tokens, &positions).unwrap())
        });
    }
    group.finish();
}

fn big_module(tokens: usize) -> KvCache {
    let mut cache = KvCache::with_shape(4, 128);
    let row = vec![0.5f32; 128];
    for t in 0..tokens {
        for l in 0..4 {
            cache.push_token_layer(l, &row, &row);
        }
        cache.push_position(t);
    }
    cache
}

fn quant_and_codec(c: &mut Criterion) {
    let module = big_module(256);
    let mut group = c.benchmark_group("module_transform");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Bytes(module.size_bytes() as u64));
    group.bench_function("quantize_int8", |b| {
        b.iter(|| QuantizedKv::quantize(&module))
    });
    let q = QuantizedKv::quantize(&module);
    group.bench_function("dequantize_int8", |b| b.iter(|| q.dequantize()));
    group.bench_function("codec_encode", |b| {
        b.iter(|| pc_cache::codec::encode(&module))
    });
    let bytes = pc_cache::codec::encode(&module);
    group.bench_function("codec_decode", |b| {
        b.iter(|| pc_cache::codec::decode(&bytes).unwrap())
    });
    group.finish();
}

criterion_group!(benches, encode, quant_and_codec);
criterion_main!(benches);
