//! Criterion microbenchmarks for the performance-critical components:
//! matrix kernels, LSTM training/inference steps, signature-tree
//! matching, k-means, OC-SVM fitting, and the fleet simulator itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use nfv_detect::codec::LogCodec;
use nfv_ml::{KMeans, KMeansConfig, OneClassSvm, OneClassSvmConfig};
use nfv_nn::model::SeqBatch;
use nfv_nn::{Adam, SequenceModel, SequenceModelConfig};
use nfv_simnet::{FleetTrace, SimConfig, SimPreset};
use nfv_tensor::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor");
    for n in [64usize, 128] {
        let a = Matrix::from_fn(n, n, |r, q| ((r * 31 + q * 7) % 13) as f32 * 0.1);
        let b = Matrix::from_fn(n, n, |r, q| ((r * 17 + q * 3) % 11) as f32 * 0.1);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_function(format!("matmul_{n}x{n}"), |bencher| {
            bencher.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn make_batch(
    rng: &mut SmallRng,
    batch: usize,
    window: usize,
    vocab: usize,
) -> (SeqBatch, Vec<usize>) {
    let ids = (0..batch).map(|_| (0..window).map(|_| rng.gen_range(0..vocab)).collect()).collect();
    let gaps = (0..batch).map(|_| (0..window).map(|_| rng.gen::<f32>()).collect()).collect();
    let targets = (0..batch).map(|_| rng.gen_range(0..vocab)).collect();
    (SeqBatch { ids, gaps }, targets)
}

fn bench_lstm(c: &mut Criterion) {
    let mut group = c.benchmark_group("lstm");
    let cfg = SequenceModelConfig {
        vocab: 64,
        embed_dim: 16,
        hidden: 32,
        layers: 2,
        use_gap_feature: true,
    };
    let mut rng = SmallRng::seed_from_u64(1);
    let model = SequenceModel::new(cfg, &mut rng);
    let (batch, targets) = make_batch(&mut rng, 64, 10, 64);

    group.throughput(Throughput::Elements(64));
    group.bench_function("train_step_b64_t10", |bencher| {
        bencher.iter_batched(
            || {
                let m = SequenceModel::from_checkpoint(&model.to_checkpoint());
                let opt = Adam::new(1e-3, &m.param_shapes());
                (m, opt)
            },
            |(mut m, mut opt)| m.train_step(&batch, &targets, &mut opt),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("predict_b64_t10", |bencher| {
        bencher.iter(|| std::hint::black_box(model.predict_probs(&batch)));
    });
    group.finish();
}

fn bench_signature_tree(c: &mut Criterion) {
    let trace = FleetTrace::simulate({
        let mut s = SimConfig::preset(SimPreset::Fast, 3);
        s.months = 2;
        s.n_vpes = 4;
        s
    });
    let sample: Vec<_> = trace.messages(0).iter().take(4000).cloned().collect();
    let codec = LogCodec::train(&sample, 8);
    let lines: Vec<String> = trace.messages(1).iter().take(1000).map(|m| m.text.clone()).collect();

    let mut group = c.benchmark_group("codec");
    group.throughput(Throughput::Elements(lines.len() as u64));
    group.bench_function("match_1000_messages", |bencher| {
        bencher.iter(|| {
            let mut acc = 0usize;
            for l in &lines {
                acc += codec.encode_text(l);
            }
            std::hint::black_box(acc)
        });
    });
    group.bench_function("train_codec_4000_messages", |bencher| {
        bencher.iter(|| std::hint::black_box(LogCodec::train(&sample, 8)));
    });
    group.finish();
}

fn bench_ml(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(7);
    let points: Vec<Vec<f32>> = (0..200)
        .map(|i| {
            let cx = (i % 4) as f32 * 5.0;
            (0..16).map(|_| cx + rng.gen_range(-0.5..0.5)).collect()
        })
        .collect();

    let mut group = c.benchmark_group("ml");
    group.bench_function("kmeans_200x16_k4", |bencher| {
        bencher.iter_batched(
            || SmallRng::seed_from_u64(9),
            |mut r| KMeans::fit(&points, &KMeansConfig { k: 4, ..Default::default() }, &mut r),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("ocsvm_fit_200x16", |bencher| {
        bencher.iter_batched(
            || SmallRng::seed_from_u64(11),
            |mut r| OneClassSvm::fit(&points, &OneClassSvmConfig::default(), &mut r),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet");
    group.sample_size(10);
    group.bench_function("simulate_fast_preset", |bencher| {
        bencher.iter(|| {
            let mut cfg = SimConfig::preset(SimPreset::Fast, 5);
            cfg.months = 2;
            cfg.n_vpes = 4;
            std::hint::black_box(FleetTrace::simulate(cfg).total_messages())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_lstm,
    bench_signature_tree,
    bench_ml,
    bench_simulator
);
criterion_main!(benches);
