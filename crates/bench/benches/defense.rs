//! Cost of the LOF defense against organic-user count: calibrating a
//! full [`DefenseStack`] (fit plus every threshold), and judging one
//! trajectory at admission, organic or Popular-crafted (a random target
//! alternating with a random top-10% item), on Steam twins of growing
//! scale. `judge` is the work the serving layer does under its
//! admission lock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datasets::PaperDataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recsys::data::{Dataset, ItemId};
use recsys::defense::{DefenseKind, DefenseStack};

const SCALES: [f64; 4] = [0.1, 0.25, 0.5, 1.0];

fn popular_crafted(data: &Dataset, count: usize, len: usize) -> Vec<Vec<ItemId>> {
    let mut rng = StdRng::seed_from_u64(7);
    let targets: Vec<ItemId> = data.target_items().collect();
    let popular = data.popular_set(10.0);
    (0..count)
        .map(|_| {
            (0..len)
                .map(|step| {
                    let set = if step % 2 == 0 { &targets } else { &popular };
                    set[rng.gen_range(0..set.len())]
                })
                .collect()
        })
        .collect()
}

fn label(data: &Dataset, scale: f64) -> String {
    format!("steam x{scale} ({} users)", data.num_users())
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("defense_build_full");
    group.sample_size(5);
    for scale in SCALES {
        let data = PaperDataset::Steam.generate_scaled(scale, 1);
        group.bench_function(BenchmarkId::from_parameter(label(&data, scale)), |b| {
            b.iter(|| DefenseStack::build(DefenseKind::Full, &data, 0.05))
        });
    }
    group.finish();
}

fn bench_judge(c: &mut Criterion) {
    let mut group = c.benchmark_group("defense_judge");
    group.sample_size(20);
    for scale in SCALES {
        let data = PaperDataset::Steam.generate_scaled(scale, 1);
        let mut stack = DefenseStack::build(DefenseKind::Full, &data, 0.05).unwrap();
        let organic: Vec<Vec<ItemId>> = (0..data.num_users().min(256))
            .map(|u| data.sequence(u).to_vec())
            .collect();
        let crafted = popular_crafted(&data, 256, 20);
        for (kind, trajectories) in [("organic", &organic), ("popular", &crafted)] {
            let id = BenchmarkId::new(kind, label(&data, scale));
            let mut next = 0usize;
            group.bench_function(id, |b| {
                b.iter(|| {
                    next = (next + 1) % trajectories.len();
                    stack.judge(&data, &trajectories[next])
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_judge);
criterion_main!(benches);
