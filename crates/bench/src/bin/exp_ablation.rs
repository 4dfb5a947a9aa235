//! Ablation benches for the design choices DESIGN.md §6 calls out
//! (beyond the Fig. 4 action-space ablation):
//!
//! * reward normalization (Eq. 8) on vs off,
//! * PPO clipped surrogate vs plain REINFORCE,
//! * warm-start fine-tune depth (how many poison epochs the victim
//!   applies — an attack-difficulty knob of the harness).
//!
//! Runs on Steam × CoVisitation (a mid-difficulty cell) and writes
//! `results/ablation.{csv,md}`. Each variant is one checkpointable cell
//! named `ablation-<variant>` under `--checkpoint-every` / `--resume` /
//! `--fault-kill-step`.

use analysis::{write_text, Table};
use bench::{run_parallel, ExpArgs};
use datasets::PaperDataset;
use poisonrec::ActionSpaceKind;
use recsys::rankers::RankerKind;

fn main() {
    let args = ExpArgs::parse();

    struct Variant {
        name: &'static str,
        slug: &'static str,
        normalize: bool,
        clip: bool,
    }
    let variants = [
        Variant {
            name: "full (clip + norm)",
            slug: "full",
            normalize: true,
            clip: true,
        },
        Variant {
            name: "no reward normalization",
            slug: "no-norm",
            normalize: false,
            clip: true,
        },
        Variant {
            name: "no clip (REINFORCE)",
            slug: "no-clip",
            normalize: true,
            clip: false,
        },
        Variant {
            name: "neither",
            slug: "neither",
            normalize: false,
            clip: false,
        },
    ];

    type Job = Box<dyn FnOnce() -> (String, f32, f32) + Send>;
    let mut jobs: Vec<Job> = Vec::new();
    for v in &variants {
        let args = args.clone();
        let (name, slug, normalize, clip) = (v.name, v.slug, v.normalize, v.clip);
        jobs.push(Box::new(move || {
            let system = args.build_system(PaperDataset::Steam, RankerKind::CoVisitation);
            let mut cfg = args.poisonrec_config(ActionSpaceKind::BcbtPopular, 11);
            cfg.ppo.normalize_rewards = normalize;
            cfg.ppo.use_clip = clip;
            let slug = format!("ablation-{slug}");
            let trainer = args.run_poisonrec(&system, cfg, args.steps, &slug, None);
            let hist = trainer.history();
            let tail = &hist[hist.len().saturating_sub(3)..];
            let final_mean =
                tail.iter().map(|s| s.mean_reward).sum::<f32>() / tail.len().max(1) as f32;
            let best = trainer.best_episode().map(|e| e.reward).unwrap_or(0.0);
            (name.to_string(), final_mean, best)
        }));
    }
    let results = run_parallel(args.threads, jobs);

    let mut table = Table::new(["variant", "final_mean_recnum", "best_recnum"]);
    for (name, final_mean, best) in &results {
        println!("{name:<26} final mean {final_mean:>8.1}   best {best:>8.1}");
        table.push([
            name.clone(),
            format!("{final_mean:.1}"),
            format!("{best:.1}"),
        ]);
    }
    table
        .write_csv(args.out_dir.join("ablation.csv"))
        .expect("write csv");
    write_text(args.out_dir.join("ablation.md"), &table.to_markdown()).expect("write md");
    println!(
        "wrote {}",
        args.out_dir.join("ablation.{{csv,md}}").display()
    );
}
