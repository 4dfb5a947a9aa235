//! The telemetry layer end to end: a short real training run streamed
//! through a [`telemetry::JsonlSink`] must yield a log in which every
//! line parses, the manifest comes first, step events are monotone with
//! the documented observation arithmetic — and attaching the logger
//! must not perturb the training results for any thread count.

use std::path::PathBuf;
use std::sync::Arc;

use poisonrec::{
    ActionSpaceKind, PoisonRecConfig, PoisonRecTrainer, PolicyConfig, PpoConfig, StepLogger,
    StepStats,
};
use recsys::data::LogView;
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, SystemConfig};
use telemetry::{json, Json, JsonlSink};

const EPISODES: usize = 8;
const STEPS: usize = 3;

fn build_system(seed: u64) -> BlackBoxSystem {
    let data = datasets::PaperDataset::Phone.generate_scaled(0.03, seed);
    let boxed = RankerKind::ItemPop.build(&LogView::clean(&data), 16);
    BlackBoxSystem::build(
        data,
        boxed,
        SystemConfig {
            eval_users: 48,
            reserve_attackers: 16,
            seed,
            ..SystemConfig::default()
        },
    )
}

fn train_logged(system: &BlackBoxSystem, threads: usize, path: &PathBuf) -> Vec<StepStats> {
    let sink = JsonlSink::create(path).expect("create sink");
    sink.emit(
        &Json::obj()
            .field("type", "manifest")
            .field("experiment", "test")
            .field("episodes", EPISODES)
            .field("steps", STEPS)
            .field("threads", threads),
    )
    .expect("manifest write");
    let cfg = PoisonRecConfig::builder()
        .seed(13)
        .threads(threads)
        .action_space(ActionSpaceKind::BcbtPopular)
        .policy(PolicyConfig {
            dim: 8,
            num_attackers: 6,
            trajectory_len: 8,
            init_scale: 0.1,
        })
        .ppo(PpoConfig {
            samples_per_step: EPISODES,
            batch: EPISODES,
            epochs: 2,
            ..PpoConfig::default()
        })
        .build_for(system)
        .expect("valid config");
    let mut trainer = PoisonRecTrainer::new(cfg, system);
    trainer.attach_logger(
        StepLogger::new(Arc::new(sink))
            .label("ranker", RankerKind::ItemPop.name())
            .label("threads", threads),
    );
    trainer.train(system, STEPS).to_vec()
}

/// A per-test scratch directory; each test removes its own at the end.
fn scratch_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("poisonrec-telemetry-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn parse_lines(path: &PathBuf) -> Vec<Json> {
    let text = std::fs::read_to_string(path).expect("read log");
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            json::parse(line).unwrap_or_else(|err| panic!("line {} unparseable: {err}", i + 1))
        })
        .collect()
}

#[test]
fn run_log_parses_with_monotone_steps_and_exact_observation_budget() {
    let dir = scratch_dir("basic");
    let path = dir.join("run.jsonl");
    let system = build_system(13);
    let history = train_logged(&system, 1, &path);
    assert_eq!(history.len(), STEPS);

    let lines = parse_lines(&path);
    assert_eq!(lines.len(), 1 + STEPS, "manifest + one event per step");
    assert_eq!(
        lines[0].get("type").and_then(Json::as_str),
        Some("manifest"),
        "first line must be the run manifest"
    );

    for (i, line) in lines[1..].iter().enumerate() {
        assert_eq!(line.get("type").and_then(Json::as_str), Some("step"));
        assert_eq!(line.get("ranker").and_then(Json::as_str), Some("ItemPop"));
        assert_eq!(
            line.get("step").and_then(Json::as_u64),
            Some(i as u64),
            "steps must be monotone and gap-free"
        );
        assert_eq!(
            line.get("observations").and_then(Json::as_u64),
            Some((EPISODES * (i + 1)) as u64),
            "cumulative observations must be episodes x (step + 1)"
        );
        for field in ["sample_secs", "score_secs", "update_secs"] {
            let secs = line
                .get(field)
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("step {i} missing {field}"));
            assert!(secs.is_finite() && secs >= 0.0, "{field} = {secs}");
        }
        let mean = line.get("mean_reward").and_then(Json::as_f64).unwrap();
        assert_eq!(mean as f32, history[i].mean_reward);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn logged_rewards_are_bit_identical_across_thread_counts() {
    // Acceptance check: telemetry must stay off the RNG path, so a
    // logged run on 1 thread and on 8 threads records the same rewards
    // bit for bit — in the returned history and in the JSONL itself.
    let dir = scratch_dir("threads");
    let path1 = dir.join("run-t1.jsonl");
    let path8 = dir.join("run-t8.jsonl");
    let h1 = train_logged(&build_system(13), 1, &path1);
    let h8 = train_logged(&build_system(13), 8, &path8);
    for (a, b) in h1.iter().zip(&h8) {
        assert_eq!(a.mean_reward.to_bits(), b.mean_reward.to_bits());
        assert_eq!(a.max_reward.to_bits(), b.max_reward.to_bits());
        assert_eq!(a.observations, b.observations);
    }

    let l1 = parse_lines(&path1);
    let l8 = parse_lines(&path8);
    assert_eq!(l1.len(), l8.len());
    for (a, b) in l1[1..].iter().zip(&l8[1..]) {
        for field in ["mean_reward", "max_reward"] {
            let (va, vb) = (
                a.get(field).and_then(Json::as_f64).expect(field),
                b.get(field).and_then(Json::as_f64).expect(field),
            );
            assert_eq!(va.to_bits(), vb.to_bits(), "{field} drifted with threads");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
