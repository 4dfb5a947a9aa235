//! E1 (micro) — action-space sampling cost, Plain vs BCBT, across item
//! set sizes. The paper's complexity claim (§III-F): Plain is
//! `O(|I|·|e|)` per sampled item, BCBT is `O(log|I|·|e|)`.
//!
//! The `ppo_update` group times the PPO update alone (Eq. 7–9) at the
//! `attack-bpr` benchmark's policy shape, so tape and kernel changes to
//! the replay can be sized without running the whole attack. The
//! `activations` group times the tape's `tanh` and sigmoid forwards on
//! one LSTM gate matrix of that shape (20 × 16), mapped through libm
//! and through the `tensor::transcendental` kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::PaperDataset;
use poisonrec::{
    normalize_rewards, ActionSpace, ActionSpaceKind, Episode, PolicyConfig, PolicyNetwork,
    PpoConfig, PpoUpdater,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensor::Matrix;

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("action_sampling");
    let dim = 32;
    for &n in &[3_000u32, 10_000, 30_000] {
        let popularity: Vec<u32> = (0..n).map(|i| n - i).collect();
        for kind in [ActionSpaceKind::Plain, ActionSpaceKind::BcbtPopular] {
            let space = ActionSpace::build(kind, n, 8, &popularity, 7);
            let mut rng = StdRng::seed_from_u64(1);
            let emb = Matrix::uniform(space.table_rows(), dim, 0.1, &mut rng);
            let d: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.1..0.1)).collect();
            group.bench_with_input(BenchmarkId::new(kind.name(), n), &n, |b, _| {
                b.iter(|| {
                    let (item, trail) = space.sample(&d, &emb, &mut rng);
                    criterion::black_box((item, trail.len()))
                })
            });
        }
    }
    group.finish();
}

fn bench_bcbt_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("bcbt_build");
    for &n in &[3_000u32, 30_000] {
        let popularity: Vec<u32> = (0..n).map(|i| n - i).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                criterion::black_box(ActionSpace::build(
                    ActionSpaceKind::BcbtPopular,
                    n,
                    8,
                    &popularity,
                    7,
                ))
            })
        });
    }
    group.finish();
}

/// One `PpoUpdater::update_batch` (one of the K epochs of a trainer
/// step) over B = 8 fixed episodes on the half-scale Steam twin's
/// catalog, with dim 16 and N = T = 20. The policy's parameters are
/// restored before every call, so each sample replays the same
/// decisions and clipping pattern.
fn bench_ppo_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("ppo_update");
    let data = PaperDataset::Steam.generate_scaled(0.5, 1);
    let popularity = data.popularity();
    let targets = data.target_items().len() as u32;
    let cfg = PolicyConfig {
        dim: 16,
        num_attackers: 20,
        trajectory_len: 20,
        init_scale: 0.1,
    };
    for kind in [ActionSpaceKind::BcbtPopular, ActionSpaceKind::BcbtRandom] {
        let space = ActionSpace::build(kind, data.num_items(), targets, &popularity, 7);
        let mut policy = PolicyNetwork::new(cfg, &space, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let episodes: Vec<Episode> = (0..8)
            .map(|_| policy.sample_episode(&space, &mut rng))
            .collect();
        let batch: Vec<&Episode> = episodes.iter().collect();
        let rewards: Vec<f32> = (0..8).map(|i| ((i * 5) % 8) as f32).collect();
        let advantages = normalize_rewards(&rewards);
        let mut updater = PpoUpdater::new(PpoConfig::default(), &policy);
        let start = policy.params().clone();
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                policy.params_mut().clone_from(&start);
                updater.update_batch(&mut policy, &batch, &advantages)
            })
        });
    }
    group.finish();
}

/// One 20 × 16 gate matrix of pre-activations in `[-4, 4)` (every lane
/// on the kernels' fast paths), through libm and through the kernels.
fn bench_activations(c: &mut Criterion) {
    let mut group = c.benchmark_group("activations");
    let mut rng = StdRng::seed_from_u64(5);
    let xs: Vec<f32> = (0..320).map(|_| rng.gen_range(-4.0..4.0)).collect();
    let mut out = vec![0.0f32; xs.len()];
    type Kernel = fn(&[f32], &mut [f32]);
    let kernels: [(&str, Kernel); 4] = [
        ("tanh_libm", |xs, out| {
            out.iter_mut().zip(xs).for_each(|(o, &x)| *o = x.tanh())
        }),
        ("sigmoid_libm", |xs, out| {
            out.iter_mut()
                .zip(xs)
                .for_each(|(o, &x)| *o = tensor::stable_sigmoid(x))
        }),
        ("tanh_into", tensor::transcendental::tanh_into),
        ("sigmoid_into", tensor::transcendental::sigmoid_into),
    ];
    for (name, kernel) in kernels {
        group.bench_function(name, |b| {
            b.iter(|| {
                kernel(&xs, &mut out);
                criterion::black_box(&out);
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sampling, bench_bcbt_build, bench_ppo_update, bench_activations
}
criterion_main!(benches);
