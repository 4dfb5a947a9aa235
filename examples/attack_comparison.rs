//! One cell of the paper's Table III, end to end: every attack method
//! (four heuristics, ConsLOP, AppGrad, PoisonRec) against a single
//! black-box recommender, printed as a ranked leaderboard.
//!
//! ```text
//! cargo run --release --example attack_comparison
//! ```

use baselines::{AttackFamily, ZooTuning};
use datasets::PaperDataset;
use poisonrec::{ActionSpaceKind, PoisonRecConfig, PoisonRecTrainer, PolicyConfig, PpoConfig};
use recsys::data::LogView;
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, SystemConfig};

fn main() {
    let (n, t) = (10, 10); // attack budget: 10 accounts x 10 clicks
    let data = PaperDataset::Steam.generate_scaled(0.05, 7);
    let ranker = RankerKind::CoVisitation.build(&LogView::clean(&data), 32);
    let system = BlackBoxSystem::build(
        data,
        ranker,
        SystemConfig {
            eval_users: 128,
            seed: 7,
            ..SystemConfig::default()
        },
    );
    println!(
        "target system: CoVisitation on a Steam twin (clean RecNum {})",
        system.clean_rec_num()
    );

    let mut board: Vec<(String, u32)> = Vec::new();

    let tuning = ZooTuning {
        seed: 99,
        ..ZooTuning::default()
    };
    for family in AttackFamily::BASELINES {
        let poison = family
            .craft(&tuning, &system, n, t)
            .expect("every baseline crafts on the in-process system");
        let rec_num = system.inject_and_observe_seeded(&poison, 1);
        board.push((family.name().to_string(), rec_num));
    }

    // PoisonRec with a small training budget.
    let cfg = PoisonRecConfig {
        policy: PolicyConfig {
            dim: 32,
            num_attackers: n,
            trajectory_len: t,
            init_scale: 0.1,
        },
        ppo: PpoConfig {
            samples_per_step: 8,
            batch: 8,
            ..PpoConfig::default()
        },
        action_space: ActionSpaceKind::BcbtPopular,
        seed: 99,
        threads: runtime::default_parallelism(),
    };
    let mut trainer = PoisonRecTrainer::new(cfg, &system);
    trainer.train(&system, 20);
    let best = trainer.best_episode().expect("trained");
    let rec_num = system.inject_and_observe_seeded(&best.trajectories, 1);
    board.push(("PoisonRec".to_string(), rec_num));

    board.sort_by_key(|&(_, score)| std::cmp::Reverse(score));
    println!("\n{:<12} RecNum", "method");
    for (name, score) in &board {
        println!("{name:<12} {score}");
    }
}
