//! # bench
//!
//! Experiment harness regenerating every table and figure of the paper
//! (see DESIGN.md §3 for the experiment index). The heavy experiments
//! live in `src/bin/exp_*.rs`; criterion microbenchmarks in `benches/`.
//!
//! Every binary accepts the same flag set (see [`ExpArgs`]); defaults
//! are scaled for a laptop run, `--paper` restores paper-scale
//! hyperparameters (slow).

pub mod paper;

use std::path::PathBuf;
use std::sync::Arc;

use datasets::PaperDataset;
use poisonrec::{
    run_attack, ActionSpaceKind, PoisonRecAttack, PoisonRecConfig, PoisonRecTrainer, PolicyConfig,
    PpoConfig, StepLogger, ZooConfig,
};
use recsys::attack::AttackBudget;
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, ObservableSystem, SystemConfig};
use telemetry::{Json, JsonlSink};

/// Shared command-line arguments for all experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Dataset scale factor in (0, 1].
    pub scale: f64,
    /// PoisonRec training steps.
    pub steps: usize,
    /// Episodes per training step (`M = B`).
    pub episodes: usize,
    /// Attackers `N`.
    pub attackers: usize,
    /// Trajectory length `T`.
    pub trajectory: usize,
    /// Policy embedding width `|e|`.
    pub dim: usize,
    /// Users polled per RecNum measurement.
    pub eval_users: usize,
    /// Master seed.
    pub seed: u64,
    /// Output directory for CSV/markdown artifacts.
    pub out_dir: PathBuf,
    /// Restrict to these rankers (empty = all eight).
    pub rankers: Vec<RankerKind>,
    /// Restrict to these datasets (empty = all four).
    pub datasets: Vec<PaperDataset>,
    /// Worker threads for cell-parallel experiments.
    pub threads: usize,
    /// When set, stream a JSONL run log (manifest + per-step events)
    /// to this path, next to the CSV artifacts.
    pub telemetry: Option<PathBuf>,
    /// Save a checkpoint after every N completed steps (0 = never).
    pub checkpoint_every: usize,
    /// Directory for per-cell checkpoint files
    /// (default: `<out>/checkpoints`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume every cell whose checkpoint exists in this directory.
    pub resume: Option<PathBuf>,
    /// Fault injection: simulate a crash (exit [`runtime::FAULT_EXIT_CODE`])
    /// at this step boundary, after any due checkpoint was written.
    pub fault_kill_step: Option<u64>,
    /// When set, enable hierarchical tracing + the per-op profiler for
    /// the run and write a Chrome Trace Event JSON file here (open in
    /// Perfetto; inspect with `trace_report`).
    pub trace: Option<PathBuf>,
}

impl Default for ExpArgs {
    fn default() -> Self {
        Self {
            scale: 0.08,
            steps: 40,
            episodes: 16,
            attackers: 20,
            trajectory: 20,
            dim: 32,
            eval_users: 128,
            seed: 17,
            out_dir: PathBuf::from("results"),
            rankers: Vec::new(),
            datasets: Vec::new(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            telemetry: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: None,
            fault_kill_step: None,
            trace: None,
        }
    }
}

impl ExpArgs {
    /// Parses `std::env::args()`; exits with usage on error.
    pub fn parse() -> Self {
        let mut args = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> String {
                it.next().unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    std::process::exit(2);
                })
            };
            match flag.as_str() {
                "--scale" => args.scale = take("--scale").parse().expect("scale"),
                "--steps" => args.steps = take("--steps").parse().expect("steps"),
                "--episodes" => args.episodes = take("--episodes").parse().expect("episodes"),
                "--attackers" => args.attackers = take("--attackers").parse().expect("attackers"),
                "--trajectory" => {
                    args.trajectory = take("--trajectory").parse().expect("trajectory")
                }
                "--dim" => args.dim = take("--dim").parse().expect("dim"),
                "--eval-users" => {
                    args.eval_users = take("--eval-users").parse().expect("eval-users")
                }
                "--seed" => args.seed = take("--seed").parse().expect("seed"),
                "--out" => args.out_dir = PathBuf::from(take("--out")),
                "--threads" => args.threads = take("--threads").parse().expect("threads"),
                "--telemetry" => args.telemetry = Some(PathBuf::from(take("--telemetry"))),
                "--checkpoint-every" => {
                    args.checkpoint_every = take("--checkpoint-every")
                        .parse()
                        .expect("checkpoint-every")
                }
                "--checkpoint-dir" => {
                    args.checkpoint_dir = Some(PathBuf::from(take("--checkpoint-dir")))
                }
                "--resume" => args.resume = Some(PathBuf::from(take("--resume"))),
                "--fault-kill-step" => {
                    args.fault_kill_step =
                        Some(take("--fault-kill-step").parse().expect("fault-kill-step"))
                }
                "--trace" => args.trace = Some(PathBuf::from(take("--trace"))),
                "--rankers" => {
                    args.rankers = take("--rankers")
                        .split(',')
                        .map(|s| {
                            s.parse::<RankerKind>().unwrap_or_else(|err| {
                                eprintln!("{err}");
                                std::process::exit(2);
                            })
                        })
                        .collect();
                }
                "--datasets" => {
                    args.datasets = take("--datasets")
                        .split(',')
                        .map(|s| {
                            PaperDataset::parse(s).unwrap_or_else(|| {
                                eprintln!("unknown dataset {s}");
                                std::process::exit(2);
                            })
                        })
                        .collect();
                }
                // Paper-scale hyperparameters (slow: hours, not minutes).
                "--paper" => {
                    args.scale = 1.0;
                    args.steps = 60;
                    args.episodes = 32;
                    args.dim = 64;
                    args.eval_users = 1000;
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --scale F --steps N --episodes M --attackers N --trajectory T \
                         --dim E --eval-users U --seed S --out DIR --threads K \
                         --telemetry FILE.jsonl --rankers A,B --datasets X,Y --paper \
                         --checkpoint-every N --checkpoint-dir DIR --resume DIR \
                         --fault-kill-step N --trace FILE.json"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        args
    }

    /// Rankers to evaluate (all eight unless restricted).
    pub fn ranker_list(&self) -> Vec<RankerKind> {
        if self.rankers.is_empty() {
            RankerKind::ALL.to_vec()
        } else {
            self.rankers.clone()
        }
    }

    /// Datasets to evaluate (all four unless restricted).
    pub fn dataset_list(&self) -> Vec<PaperDataset> {
        if self.datasets.is_empty() {
            PaperDataset::ALL.to_vec()
        } else {
            self.datasets.clone()
        }
    }

    /// Builds a fitted black-box system for one experiment cell.
    pub fn build_system(&self, dataset: PaperDataset, ranker: RankerKind) -> BlackBoxSystem {
        let data = dataset.generate_scaled(self.scale, self.seed);
        let view = recsys::data::LogView::clean(&data);
        let reserve = (self.attackers as u32).max(32);
        let boxed = ranker.build(&view, reserve);
        BlackBoxSystem::build(
            data,
            boxed,
            SystemConfig {
                eval_users: self.eval_users,
                seed: self.seed,
                reserve_attackers: reserve,
                ..SystemConfig::default()
            },
        )
    }

    /// PoisonRec configuration for one run.
    pub fn poisonrec_config(&self, space: ActionSpaceKind, seed_offset: u64) -> PoisonRecConfig {
        PoisonRecConfig {
            policy: PolicyConfig {
                dim: self.dim,
                num_attackers: self.attackers,
                trajectory_len: self.trajectory,
                init_scale: 0.1,
            },
            ppo: PpoConfig {
                samples_per_step: self.episodes,
                batch: self.episodes,
                ..PpoConfig::default()
            },
            action_space: space,
            seed: self.seed ^ seed_offset,
            threads: self.threads,
        }
    }

    /// Trains PoisonRec against a system; returns the trainer (history,
    /// best episode, policy) for the caller to mine.
    pub fn train_poisonrec(
        &self,
        system: &dyn ObservableSystem,
        space: ActionSpaceKind,
        seed_offset: u64,
    ) -> PoisonRecTrainer {
        self.train_poisonrec_logged(system, space, seed_offset, None, &[])
    }

    /// [`ExpArgs::train_poisonrec`] with an optional telemetry sink:
    /// when `sink` is set, every training step is streamed as one
    /// JSONL event tagged with `labels` (so parallel cells sharing the
    /// sink stay distinguishable). The cell's slug (derived from
    /// `labels`) names its checkpoint file; see [`ExpArgs::zoo_config`].
    pub fn train_poisonrec_logged(
        &self,
        system: &dyn ObservableSystem,
        space: ActionSpaceKind,
        seed_offset: u64,
        sink: Option<&Arc<JsonlSink>>,
        labels: &[(&str, &str)],
    ) -> PoisonRecTrainer {
        let logger = sink.map(|sink| {
            labels.iter().fold(
                StepLogger::new(Arc::clone(sink)),
                |logger, &(key, value)| logger.label(key, value),
            )
        });
        let slug = Self::cell_slug(labels, seed_offset);
        let cfg = self.poisonrec_config(space, seed_offset);
        self.run_poisonrec(system, cfg, self.steps, &slug, logger)
    }

    /// Runs `steps` PoisonRec training steps under `cfg` through the one
    /// attack lifecycle ([`poisonrec::run_attack`]) with an `N × T ×
    /// steps·M` budget and no final evaluation, so the system spends
    /// exactly the training's observations. Checkpoint, resume and
    /// fault flags apply per [`ExpArgs::zoo_config`]; failures (a
    /// corrupt or mismatched checkpoint) abort loudly rather than
    /// silently restarting the cell.
    pub fn run_poisonrec(
        &self,
        system: &dyn ObservableSystem,
        cfg: PoisonRecConfig,
        steps: usize,
        slug: &str,
        logger: Option<StepLogger>,
    ) -> PoisonRecTrainer {
        let budget = AttackBudget {
            fake_users: cfg.policy.num_attackers as u32,
            clicks_per_user: cfg.policy.trajectory_len,
            observations: (steps * cfg.ppo.samples_per_step) as u64,
        };
        let zoo_cfg = ZooConfig {
            threads: cfg.threads.max(1),
            ..self.zoo_config(slug, budget, false)
        };
        let mut attack = PoisonRecAttack::new(cfg, steps);
        if let Some(logger) = logger {
            attack = attack.with_logger(logger);
        }
        run_attack(&mut attack, system, &zoo_cfg, &mut |_| {})
            .unwrap_or_else(|err| panic!("PoisonRec cell {slug} failed: {err}"));
        attack.into_trainer().expect("a finished run has a trainer")
    }

    /// Maps `--checkpoint-every` / `--checkpoint-dir` / `--resume` /
    /// `--fault-kill-step` onto one attack cell named `slug`. A cell
    /// resumed from `--resume DIR` keeps checkpointing into that same
    /// file; any other cell checkpoints into the checkpoint directory.
    pub fn zoo_config(&self, slug: &str, budget: AttackBudget, evaluate_final: bool) -> ZooConfig {
        let resume_path = self.resume_path(slug);
        ZooConfig {
            budget,
            threads: self.threads.max(1),
            steps: None,
            checkpoint_every: self.checkpoint_every,
            checkpoint_path: resume_path.clone().or_else(|| self.checkpoint_path(slug)),
            resume: resume_path.is_some(),
            fault: self
                .fault_kill_step
                .map(|step| Arc::new(runtime::FaultPlan::new().kill_at_step(step))),
            evaluate_final,
        }
    }

    /// The per-cell checkpoint file name: label values joined by `-`
    /// (e.g. `steam-bpr-bcbt_popular`), or the seed offset when a run
    /// carries no labels.
    pub fn cell_slug(labels: &[(&str, &str)], seed_offset: u64) -> String {
        if labels.is_empty() {
            return format!("cell-{seed_offset}");
        }
        labels
            .iter()
            .map(|&(_, value)| value)
            .collect::<Vec<_>>()
            .join("-")
    }

    /// Where cell `slug` writes checkpoints, or `None` when
    /// checkpointing is off (`--checkpoint-every 0`).
    pub fn checkpoint_path(&self, slug: &str) -> Option<PathBuf> {
        if self.checkpoint_every == 0 {
            return None;
        }
        let dir = self
            .checkpoint_dir
            .clone()
            .unwrap_or_else(|| self.out_dir.join("checkpoints"));
        Some(dir.join(format!("{slug}.ckpt")))
    }

    /// Where cell `slug` resumes from: `--resume` names a directory of
    /// per-cell files. `None` when not resuming or when this cell has
    /// no checkpoint yet (it then starts fresh).
    pub fn resume_path(&self, slug: &str) -> Option<PathBuf> {
        let path = self.resume.as_ref()?.join(format!("{slug}.ckpt"));
        path.exists().then_some(path)
    }

    /// Opens the `--telemetry` run log, if requested, and writes its
    /// manifest line: the experiment name plus every configuration
    /// knob a reader needs to interpret the step events (notably
    /// `episodes`, which the JSONL validator checks the per-step
    /// observation count against).
    pub fn open_telemetry(&self, experiment: &str) -> Option<Arc<JsonlSink>> {
        let path = self.telemetry.as_ref()?;
        let sink = JsonlSink::create(path)
            .unwrap_or_else(|err| panic!("cannot create telemetry log {}: {err}", path.display()));
        let manifest = Json::obj()
            .field("type", "manifest")
            .field("experiment", experiment)
            .field("scale", self.scale)
            .field("steps", self.steps)
            .field("episodes", self.episodes)
            .field("attackers", self.attackers)
            .field("trajectory", self.trajectory)
            .field("dim", self.dim)
            .field("eval_users", self.eval_users)
            .field("seed", self.seed)
            .field("threads", self.threads)
            .field(
                "rankers",
                Json::Arr(
                    self.ranker_list()
                        .iter()
                        .map(|r| Json::from(r.name()))
                        .collect(),
                ),
            )
            .field(
                "datasets",
                Json::Arr(
                    self.dataset_list()
                        .iter()
                        .map(|d| Json::from(d.name()))
                        .collect(),
                ),
            );
        sink.emit(&manifest).expect("telemetry manifest write");
        Some(Arc::new(sink))
    }

    /// Arms tracing + the op profiler when `--trace` was given. Call
    /// once, before the traced work; pair with [`ExpArgs::finish_trace`].
    /// Tracing never touches any RNG, so arming it cannot change a
    /// single sampled reward (asserted by `tests/trace.rs`).
    pub fn init_trace(&self) {
        if self.trace.is_none() {
            return;
        }
        telemetry::trace::reset();
        tensor::profile::reset();
        telemetry::trace::enable();
    }

    /// Stops tracing, drains the ring buffers, and writes the Chrome
    /// Trace Event file named by `--trace` with the op profile embedded
    /// as the `"opProfile"` top-level field. No-op without `--trace`.
    pub fn finish_trace(&self) {
        let Some(path) = &self.trace else {
            return;
        };
        telemetry::trace::disable();
        let snapshot = telemetry::TraceCollector::collect();
        let profile = tensor::profile::snapshot();
        snapshot
            .write_chrome(path, &[("opProfile", profile.to_json())])
            .unwrap_or_else(|err| panic!("cannot write trace {}: {err}", path.display()));
        println!(
            "trace: {} span(s) on {} track(s) -> {}",
            snapshot.span_count(),
            snapshot.tracks.len(),
            path.display()
        );
    }
}

/// Cell-level fan-out for the experiment binaries, now provided by the
/// shared [`runtime`] worker pool (one persistent pool per process;
/// trainer-level scoring batches nest inside it safely).
pub use runtime::run_parallel;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lists_cover_paper_grid() {
        let args = ExpArgs::default();
        assert_eq!(args.ranker_list().len(), 8);
        assert_eq!(args.dataset_list().len(), 4);
    }

    #[test]
    fn parallel_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
            .collect();
        let out = run_parallel(4, jobs);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn build_tiny_system_smoke() {
        let args = ExpArgs {
            scale: 0.02,
            eval_users: 16,
            ..ExpArgs::default()
        };
        let system = args.build_system(PaperDataset::Steam, RankerKind::ItemPop);
        assert_eq!(system.clean_rec_num(), 0, "targets must start unexposed");
    }
}
