//! Integration proof of PoisonRec's checkpoint/resume contract through
//! the one attack lifecycle ([`poisonrec::run_attack`] with a
//! [`PoisonRecAttack`]): a training run interrupted at a step boundary
//! and resumed from its checkpoint continues **bit-identically** to a
//! run that was never interrupted — same per-step stats, same parameter
//! bytes, same best episode — at every thread count. Also proves the
//! failure side: corrupted files, spent systems and mismatched
//! configurations are refused loudly, never half-loaded.

use std::path::{Path, PathBuf};

use poisonrec::{
    run_attack, ActionSpaceKind, PoisonRecAttack, PoisonRecConfig, PoisonRecTrainer, PolicyConfig,
    PpoConfig, ZooConfig, ZooEvent,
};
use recsys::attack::{AttackBudget, AttackError};
use recsys::data::Dataset;
use recsys::rankers::ItemPop;
use recsys::system::{BlackBoxSystem, ObservableSystem, SystemConfig};
use tensor::wire::Codec;

/// Steps of the uninterrupted run; every cell budgets for all of them.
const STEPS: usize = 12;
const EPISODES: usize = 6;

/// Deterministic tiny victim; rebuilt fresh for every run so each
/// attack sees an untouched observation seed stream, exactly like a
/// process restart.
fn tiny_system() -> BlackBoxSystem {
    let histories = (0..40u32)
        .map(|u| (0..6).map(|t| (u * 3 + t * 7) % 60).collect())
        .collect();
    let data = Dataset::from_histories("tiny", histories, 60, 8);
    BlackBoxSystem::build(
        data,
        Box::new(ItemPop::new()),
        SystemConfig {
            eval_users: 24,
            reserve_attackers: 8,
            ..SystemConfig::default()
        },
    )
}

fn tiny_cfg() -> PoisonRecConfig {
    PoisonRecConfig {
        policy: PolicyConfig {
            dim: 8,
            num_attackers: 4,
            trajectory_len: 6,
            init_scale: 0.1,
        },
        ppo: PpoConfig {
            lr: 0.01,
            samples_per_step: EPISODES,
            batch: EPISODES,
            epochs: 2,
            ..PpoConfig::default()
        },
        action_space: ActionSpaceKind::BcbtPopular,
        seed: 5,
        threads: 1,
    }
}

/// The cell: `N × T` from the policy, observations for every step.
fn cell(threads: usize) -> ZooConfig {
    ZooConfig {
        threads,
        evaluate_final: false,
        ..ZooConfig::new(AttackBudget {
            fake_users: 4,
            clicks_per_user: 6,
            observations: (STEPS * EPISODES) as u64,
        })
    }
}

/// Runs `cfg` against `system` under `zoo`; returns the trained agent
/// and the step the run resumed from, if it did.
fn run(
    cfg: PoisonRecConfig,
    system: &dyn ObservableSystem,
    zoo: &ZooConfig,
) -> Result<(PoisonRecTrainer, Option<usize>), AttackError> {
    let mut attack = PoisonRecAttack::new(cfg, STEPS);
    let mut resumed_from = None;
    run_attack(&mut attack, system, zoo, &mut |event| {
        if let ZooEvent::Resumed { step } = event {
            resumed_from = Some(step);
        }
    })?;
    Ok((attack.into_trainer().expect("trained"), resumed_from))
}

/// Runs the first `steps` steps of the cell on `threads`,
/// checkpointing every `every` steps into `path`.
fn interrupted(path: &Path, steps: usize, every: usize, threads: usize) {
    let system = tiny_system();
    let zoo = ZooConfig {
        steps: Some(steps),
        checkpoint_every: every,
        checkpoint_path: Some(path.to_path_buf()),
        ..cell(threads)
    };
    run(tiny_cfg(), &system, &zoo).expect("interrupted run");
}

/// Resumes the cell from `path` under `cfg` on `system`.
fn resume(
    cfg: PoisonRecConfig,
    system: &dyn ObservableSystem,
    path: &Path,
    threads: usize,
) -> Result<(PoisonRecTrainer, Option<usize>), AttackError> {
    let zoo = ZooConfig {
        checkpoint_path: Some(path.to_path_buf()),
        resume: true,
        ..cell(threads)
    };
    run(cfg, system, &zoo)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("poisonrec-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Every deterministic bit of two trainers must agree.
fn assert_trainers_identical(straight: &PoisonRecTrainer, resumed: &PoisonRecTrainer) {
    assert_eq!(straight.history().len(), resumed.history().len());
    for (a, b) in straight.history().iter().zip(resumed.history()) {
        assert_eq!(a.step, b.step);
        assert_eq!(
            a.mean_reward.to_bits(),
            b.mean_reward.to_bits(),
            "step {}",
            a.step
        );
        assert_eq!(
            a.max_reward.to_bits(),
            b.max_reward.to_bits(),
            "step {}",
            a.step
        );
        assert_eq!(
            a.target_click_ratio.to_bits(),
            b.target_click_ratio.to_bits(),
            "step {}",
            a.step
        );
        assert_eq!(
            a.ppo_signal.to_bits(),
            b.ppo_signal.to_bits(),
            "step {}",
            a.step
        );
        assert_eq!(a.observations, b.observations, "step {}", a.step);
    }
    assert_eq!(
        straight.policy().params().to_bytes(),
        resumed.policy().params().to_bytes(),
        "parameter bytes diverged"
    );
    let (ba, bb) = (
        straight.best_episode().expect("ran steps"),
        resumed.best_episode().expect("ran steps"),
    );
    assert_eq!(ba.reward.to_bits(), bb.reward.to_bits());
    assert_eq!(ba.trajectories, bb.trajectories);
}

/// A refused resume must be a typed state error that spent nothing.
fn assert_refused(err: AttackError, system: &BlackBoxSystem, needle: &str) {
    match &err {
        AttackError::State(msg) => assert!(msg.contains(needle), "{msg}"),
        other => panic!("expected a state refusal naming {needle:?}, got {other}"),
    }
    assert_eq!(
        system.observations_spent(),
        0,
        "a refusal spent observations"
    );
}

#[test]
fn kill_and_resume_continues_bit_identically() {
    for threads in [1usize, 4] {
        // Reference: the uninterrupted run.
        let sys_straight = tiny_system();
        let (straight, _) = run(tiny_cfg(), &sys_straight, &cell(threads)).expect("reference");

        // Interrupted run: 6 steps checkpointed, then the attack AND
        // its system are dropped — the in-process equivalent of a crash.
        let dir = scratch_dir(&format!("resume-t{threads}"));
        let path = dir.join("cell.ckpt");
        interrupted(&path, 6, 3, threads);

        // Resume against a freshly built system and finish the run.
        let sys_resumed = tiny_system();
        let (resumed, from) = resume(tiny_cfg(), &sys_resumed, &path, threads).expect("resume");
        assert_eq!(from, Some(6), "resume restores the step index");
        assert_trainers_identical(&straight, &resumed);
        assert_eq!(
            sys_straight.observations_spent(),
            sys_resumed.observations_spent()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn resume_may_change_thread_count() {
    // The fingerprint deliberately excludes `threads`: training is
    // thread-count invariant, so a checkpoint written single-threaded
    // must resume (and stay bit-identical) on a parallel scoring phase.
    let sys_straight = tiny_system();
    let (straight, _) = run(tiny_cfg(), &sys_straight, &cell(1)).expect("reference");

    let dir = scratch_dir("resume-cross-threads");
    let path = dir.join("cell.ckpt");
    interrupted(&path, 5, 5, 1);
    let cfg = PoisonRecConfig {
        threads: 4,
        ..tiny_cfg()
    };
    let (resumed, _) = resume(cfg, &tiny_system(), &path, 4).expect("cross-thread resume");
    assert_trainers_identical(&straight, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_config_is_refused() {
    let dir = scratch_dir("resume-mismatch");
    let path = dir.join("cell.ckpt");
    interrupted(&path, 2, 2, 1);

    // A different learning rate, seed or action space is a different
    // run: each is refused before any state is restored.
    let retuned = [
        PoisonRecConfig {
            ppo: PpoConfig {
                lr: 0.05,
                ..tiny_cfg().ppo
            },
            ..tiny_cfg()
        },
        PoisonRecConfig {
            seed: 99,
            ..tiny_cfg()
        },
        PoisonRecConfig {
            action_space: ActionSpaceKind::Plain,
            ..tiny_cfg()
        },
    ];
    for cfg in retuned {
        let fresh = tiny_system();
        let err = resume(cfg, &fresh, &path, 1)
            .err()
            .expect("a retuned cell must be refused");
        assert_refused(err, &fresh, "fingerprint");
    }

    // Resume against a system that has already spent observations
    // would fork the seed stream => refuse.
    let spent = tiny_system();
    PoisonRecTrainer::new(tiny_cfg(), &spent).train(&spent, 3); // 18 > the checkpoint's 12
    let err = resume(tiny_cfg(), &spent, &path, 1)
        .err()
        .expect("rewinding the observation stream must be refused");
    assert!(
        err.to_string().contains("observation"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_files_fail_loudly_not_halfway() {
    let dir = scratch_dir("resume-corrupt");
    let path = dir.join("cell.ckpt");
    interrupted(&path, 2, 2, 1);
    let pristine = std::fs::read(&path).expect("read");

    // A flipped byte anywhere in the body breaks the checksum.
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    std::fs::write(&path, &flipped).expect("write");
    let fresh = tiny_system();
    let err = resume(tiny_cfg(), &fresh, &path, 1)
        .err()
        .expect("corruption must be refused");
    assert_refused(err, &fresh, "checksum mismatch");

    // Truncation is detected before any state is touched.
    std::fs::write(&path, &pristine[..pristine.len() - 7]).expect("write");
    let fresh = tiny_system();
    let err = resume(tiny_cfg(), &fresh, &path, 1)
        .err()
        .expect("truncation must be refused");
    assert_refused(err, &fresh, "length mismatch");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_write_is_atomic_and_repeatable() {
    // Two checkpoints at different steps must atomically replace the
    // file (no .tmp residue) and the later file resumes at the later
    // step.
    let dir = scratch_dir("resume-atomic");
    let path = dir.join("cell.ckpt");
    let mut written = Vec::new();
    let zoo = ZooConfig {
        steps: Some(4),
        checkpoint_every: 2,
        checkpoint_path: Some(path.clone()),
        ..cell(1)
    };
    let mut attack = PoisonRecAttack::new(tiny_cfg(), STEPS);
    run_attack(&mut attack, &tiny_system(), &zoo, &mut |event| {
        if let ZooEvent::Checkpoint { step, bytes } = event {
            written.push((step, bytes));
        }
    })
    .expect("checkpointed run");
    assert_eq!(
        written.iter().map(|&(step, _)| step).collect::<Vec<_>>(),
        [2, 4]
    );
    assert_eq!(
        std::fs::metadata(&path).expect("file exists").len(),
        written[1].1,
        "reported size matches the file"
    );
    assert!(
        std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .all(|e| !e.file_name().to_string_lossy().ends_with(".tmp")),
        "atomic write must leave no tmp residue"
    );
    let (resumed, from) = resume(tiny_cfg(), &tiny_system(), &path, 1).expect("resume latest");
    assert_eq!(from, Some(4));
    assert_eq!(resumed.history().len(), STEPS);
    std::fs::remove_dir_all(&dir).ok();
}
