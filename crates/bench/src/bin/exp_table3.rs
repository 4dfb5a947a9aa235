//! E5 — Table III: RecNum of all seven attack methods (Random,
//! Popular, Middle, PowerItem, ConsLOP, AppGrad, PoisonRec) against
//! all eight rankers on all four dataset twins.
//!
//! Expected shape (paper): PoisonRec best or near-best in most cells;
//! ConsLOP the strongest non-RL method on CoVisitation; AppGrad
//! competitive on ItemPop/NeuMF but weak on order-sensitive rankers;
//! everything ~0 for ItemPop on MovieLens. Absolute values differ from
//! the paper (sampled-user RecNum on twin data); orderings are the
//! reproduction target. Regenerates `results/table3.{csv,md}`.

use analysis::{write_text, Table};
use baselines::{AttackFamily, ZooTuning};
use bench::{run_parallel, ExpArgs};
use datasets::PaperDataset;
use poisonrec::ActionSpaceKind;
use recsys::rankers::RankerKind;

struct Cell {
    dataset: PaperDataset,
    ranker: RankerKind,
    /// `(method name, RecNum)` in Table III row order.
    results: Vec<(String, u32)>,
}

fn main() {
    let args = ExpArgs::parse();
    let datasets = args.dataset_list();
    let rankers = args.ranker_list();

    let mut jobs: Vec<Box<dyn FnOnce() -> Cell + Send>> = Vec::new();
    for &dataset in &datasets {
        for &ranker in &rankers {
            let args = args.clone();
            jobs.push(Box::new(move || run_cell(&args, dataset, ranker)));
        }
    }
    let cells = run_parallel(args.threads, jobs);

    let methods: Vec<String> = cells
        .first()
        .map(|c| c.results.iter().map(|(m, _)| m.clone()).collect())
        .unwrap_or_default();
    let mut header = vec!["dataset".to_string(), "ranker".to_string()];
    header.extend(methods.iter().cloned());
    let mut table = Table::new(header);
    for cell in &cells {
        let mut row = vec![
            cell.dataset.name().to_string(),
            cell.ranker.name().to_string(),
        ];
        row.extend(cell.results.iter().map(|(_, v)| v.to_string()));
        table.push(row);
    }

    println!("{}", table.to_markdown());
    table
        .write_csv(args.out_dir.join("table3.csv"))
        .expect("write csv");
    write_text(args.out_dir.join("table3.md"), &table.to_markdown()).expect("write md");
    println!("wrote {}", args.out_dir.join("table3.{{csv,md}}").display());
}

fn run_cell(args: &ExpArgs, dataset: PaperDataset, ranker: RankerKind) -> Cell {
    let system = args.build_system(dataset, ranker);
    let n = args.attackers;
    let t = args.trajectory;
    let mut results = Vec::with_capacity(7);
    let tuning = ZooTuning {
        seed: args.seed ^ 0xBA5E,
        ..ZooTuning::default()
    };

    for family in AttackFamily::BASELINES {
        let poison = family
            .craft(&tuning, &system, n, t)
            .unwrap_or_else(|err| panic!("{family}: {err}"));
        // Average over a few retrain seeds — single-shot attacks are
        // retraining-noise sensitive.
        let mut total = 0u32;
        const REPS: u64 = 3;
        for rep in 0..REPS {
            total += system.inject_and_observe_seeded(&poison, args.seed ^ (7000 + rep));
        }
        results.push((family.name().to_string(), total / REPS as u32));
    }

    // PoisonRec: train, then evaluate the best strategy found.
    let trainer = args.train_poisonrec(&system, ActionSpaceKind::BcbtPopular, 9);
    let best = trainer.best_episode().expect("trained at least one step");
    let mut total = 0u32;
    const REPS: u64 = 3;
    for rep in 0..REPS {
        total += system.inject_and_observe_seeded(&best.trajectories, args.seed ^ (8000 + rep));
    }
    results.push(("PoisonRec".to_string(), total / REPS as u32));

    eprintln!(
        "[{} / {}] {}",
        dataset.name(),
        ranker.name(),
        results
            .iter()
            .map(|(m, v)| format!("{m}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Cell {
        dataset,
        ranker,
        results,
    }
}
