//! Per-ranker cost of one black-box poison observation (a warm
//! fine-tune followed by a RecNum evaluation) — the inner-loop
//! operation Algorithm 1 pays `M` times per step. Small Steam twin.
//!
//! The `fit` and `fine_tune` groups split out the training half for the
//! gradient rankers (the ones that run the tensor tape and SGD) at
//! Steam ×0.1 and ×1.0: a full fit from fresh weights, and one warm
//! fine-tune of a clone of the fitted model on a 20×20 poison.
//!
//! The `eval` group times the other half of an observation for all
//! eight rankers at Steam ×0.5: wrapping a fitted model in a
//! `RankerSnapshot` and reading RecNum over 256 eval users (candidate
//! sets, scoring and top-k), without the clone or the fine-tune.

use bench::ExpArgs;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::PaperDataset;
use recsys::data::{Dataset, ItemId, LogView, Trajectory, UserId};
use recsys::rankers::{Ranker, RankerKind};
use recsys::RankerSnapshot;
use std::sync::Arc;

const TRAINED: [RankerKind; 4] = [
    RankerKind::NeuMf,
    RankerKind::Gru4Rec,
    RankerKind::AutoRec,
    RankerKind::Ngcf,
];
const SCALES: [f64; 2] = [0.1, 1.0];
const RESERVE: u32 = 32;

fn bench_observation(c: &mut Criterion) {
    let mut group = c.benchmark_group("inject_and_observe");
    group.sample_size(10);
    let args = ExpArgs {
        scale: 0.05,
        eval_users: 64,
        ..ExpArgs::default()
    };
    for ranker in RankerKind::ALL {
        let system = args.build_system(PaperDataset::Steam, ranker);
        let targets = system.public_info().target_items;
        let poison: Vec<Trajectory> = (0..8usize)
            .map(|a| (0..10).map(|t| targets[(a + t) % targets.len()]).collect())
            .collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(ranker.name()),
            &ranker,
            |b, _| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    criterion::black_box(system.inject_and_observe_seeded(&poison, seed))
                })
            },
        );
    }
    group.finish();
}

/// 20 attackers × 20 clicks, alternating a target with an organic item.
fn mixed_poison(data: &Dataset) -> Vec<Trajectory> {
    let targets: Vec<u32> = data.target_items().collect();
    (0..20u32)
        .map(|a| {
            (0..20u32)
                .map(|t| match t % 2 {
                    0 => targets[((a + t) as usize) % targets.len()],
                    _ => (a * 37 + t * 11) % data.num_items(),
                })
                .collect()
        })
        .collect()
}

fn label(kind: RankerKind, scale: f64) -> BenchmarkId {
    BenchmarkId::new(kind.name(), format!("steam x{scale}"))
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit");
    group.sample_size(3);
    for scale in SCALES {
        let data = PaperDataset::Steam.generate_scaled(scale, 1);
        let view = LogView::clean(&data);
        for kind in TRAINED {
            group.bench_function(label(kind, scale), |b| {
                b.iter(|| {
                    let mut ranker = kind.build(&view, RESERVE);
                    ranker.fit(&view, 1);
                    ranker
                })
            });
        }
    }
    group.finish();
}

fn bench_fine_tune(c: &mut Criterion) {
    let mut group = c.benchmark_group("fine_tune");
    group.sample_size(10);
    for scale in SCALES {
        let data = PaperDataset::Steam.generate_scaled(scale, 1);
        let clean = LogView::clean(&data);
        let poison = mixed_poison(&data);
        let poisoned = LogView::new(&data, &poison);
        for kind in TRAINED {
            let mut fitted = kind.build(&clean, RESERVE);
            fitted.fit(&clean, 1);
            let mut seed = 0u64;
            group.bench_function(label(kind, scale), |b| {
                b.iter(|| {
                    seed += 1;
                    let mut ranker = fitted.boxed_clone();
                    ranker.fine_tune(&poisoned, seed);
                    ranker
                })
            });
        }
    }
    group.finish();
}

/// A fitted ranker shared by every timed snapshot, so an iteration
/// wraps it without cloning its weights.
struct Shared(Arc<dyn Ranker>);

impl Ranker for Shared {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn fit(&mut self, _view: &LogView<'_>, _seed: u64) {
        unreachable!("the eval bench only scores")
    }
    fn fine_tune(&mut self, _view: &LogView<'_>, _seed: u64) {
        unreachable!("the eval bench only scores")
    }
    fn score(&self, user: UserId, history: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        self.0.score(user, history, candidates)
    }
    fn boxed_clone(&self) -> Box<dyn Ranker> {
        Box::new(Shared(Arc::clone(&self.0)))
    }
}

fn bench_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("eval");
    group.sample_size(10);
    let args = ExpArgs {
        scale: 0.5,
        eval_users: 256,
        ..ExpArgs::default()
    };
    // The protocol depends on the dataset and the config only, so a
    // cheap ItemPop system supplies the one every ranker is read with.
    let system = args.build_system(PaperDataset::Steam, RankerKind::ItemPop);
    let (base, protocol) = (system.base(), system.protocol());
    let view = LogView::clean(base);
    for kind in RankerKind::ALL {
        let mut fitted = kind.build(&view, RESERVE);
        fitted.fit(&view, 1);
        let shared: Arc<dyn Ranker> = Arc::from(fitted);
        group.bench_function(label(kind, args.scale), |b| {
            b.iter(|| {
                let ranker = Box::new(Shared(Arc::clone(&shared)));
                RankerSnapshot::new(ranker, 0, 0, base.num_users()).rec_num(protocol, base)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_observation,
    bench_fit,
    bench_fine_tune,
    bench_eval
);
criterion_main!(benches);
