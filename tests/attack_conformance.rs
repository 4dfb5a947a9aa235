//! The attack-zoo conformance suite (DESIGN.md §5h): every family in
//! [`baselines::AttackFamily::ALL`] — PoisonRec, AppGrad, ConsLOP,
//! Influence, and the four heuristics — runs through the same pinned
//! checks, so registering a new attack means passing this gate, not
//! writing bespoke tests:
//!
//! * **thread invariance** — a cell run with 1 scoring thread is
//!   bit-identical (history, poison, final RecNum, usage) to the same
//!   cell run with 8;
//! * **wire transparency** — a cell attacked through
//!   [`recsys::RemoteSystem`] over a real 127.0.0.1 socket is
//!   bit-identical to the in-process run;
//! * **interrupt + resume** — a cell checkpointed every step, cut off
//!   mid-run, and resumed on a *fresh* same-config system finishes
//!   bit-identical to the uninterrupted run (the sealed checkpoint
//!   carries the attack state, budget usage, and the system's
//!   observation ordinal);
//! * **budget visibility** — what each family spends is counted at the
//!   guard boundary and never exceeds the declared budget.
//!
//! Every leg builds its own fresh system: the observation seed stream
//! is ordinal-keyed, so two runs are comparable only from matching
//! spend states.

use baselines::{AppGradConfig, AttackFamily, ConsLopConfig, InfluenceConfig, ZooTuning};
use poisonrec::{
    run_attack, ActionSpaceKind, PoisonRecConfig, PolicyConfig, PpoConfig, ZooConfig, ZooRun,
};
use recsys::attack::AttackBudget;
use recsys::data::Dataset;
use recsys::rankers::ItemPop;
use recsys::remote::RemoteSystem;
use recsys::system::{BlackBoxSystem, ObservableSystem, SystemConfig};
use serve::{RecApp, Server, ServerConfig};

/// The attacker's prior knowledge for log-requiring families — the
/// same interaction log the victim system is built from.
fn tiny_log() -> Dataset {
    let histories = (0..40u32)
        .map(|u| (0..6).map(|t| (u * 3 + t * 7) % 60).collect())
        .collect();
    Dataset::from_histories("tiny", histories, 60, 8)
}

fn tiny_system() -> BlackBoxSystem {
    BlackBoxSystem::build(
        tiny_log(),
        Box::new(ItemPop::new()),
        SystemConfig {
            eval_users: 24,
            reserve_attackers: 8,
            ..SystemConfig::default()
        },
    )
}

/// Small enough that all eight families finish in milliseconds, large
/// enough that every step machine takes several steps.
fn tuning() -> ZooTuning {
    ZooTuning {
        seed: 11,
        poisonrec: PoisonRecConfig {
            policy: PolicyConfig {
                dim: 8,
                init_scale: 0.1,
                ..PolicyConfig::default()
            },
            ppo: PpoConfig {
                lr: 0.01,
                samples_per_step: 4,
                batch: 4,
                epochs: 2,
                ..PpoConfig::default()
            },
            action_space: ActionSpaceKind::BcbtPopular,
            seed: 5,
            threads: 1,
        },
        poisonrec_steps: 2,
        appgrad: AppGradConfig {
            iterations: 2,
            ..AppGradConfig::default()
        },
        conslop: ConsLopConfig::default(),
        influence: InfluenceConfig {
            rounds: 2,
            dim: 8,
            epochs: 2,
            filler_pool: 8,
        },
    }
}

fn budget(family: AttackFamily, tuning: &ZooTuning) -> AttackBudget {
    AttackBudget {
        fake_users: 4,
        clicks_per_user: 6,
        observations: family.planned_observations(tuning) + 1,
    }
}

/// Runs `family` to completion against `system` under `cfg`.
fn run_cell(
    family: AttackFamily,
    system: &dyn ObservableSystem,
    tuning: &ZooTuning,
    cfg: &ZooConfig,
) -> ZooRun {
    let log = tiny_log();
    let mut attack = family
        .build(tuning, Some(&log))
        .unwrap_or_else(|err| panic!("{family} must build with a log: {err}"));
    run_attack(attack.as_mut(), system, cfg, &mut |_| {})
        .unwrap_or_else(|err| panic!("{family} must run to completion: {err}"))
}

fn assert_identical(family: AttackFamily, a: &ZooRun, b: &ZooRun, what: &str) {
    assert_eq!(a.history, b.history, "{family}: {what} history diverged");
    assert_eq!(a.poison, b.poison, "{family}: {what} poison diverged");
    assert_eq!(
        a.final_rec_num, b.final_rec_num,
        "{family}: {what} final RecNum diverged"
    );
    assert_eq!(a.usage, b.usage, "{family}: {what} budget usage diverged");
}

/// Scoring-thread count must be invisible: 1 thread vs 8 threads,
/// fresh same-config systems, bit-identical outcomes.
#[test]
fn every_family_is_thread_invariant() {
    let tuning = tuning();
    for family in AttackFamily::ALL {
        let base = ZooConfig::new(budget(family, &tuning));
        let one = run_cell(family, &tiny_system(), &tuning, &base);
        let eight = run_cell(
            family,
            &tiny_system(),
            &tuning,
            &ZooConfig { threads: 8, ..base },
        );
        assert_identical(family, &one, &eight, "threads 1 vs 8");

        // Budget visibility: the guard counted a spend no larger than
        // the declaration, for every family.
        let declared = budget(family, &tuning);
        assert!(one.usage.observations <= declared.observations, "{family}");
        assert!(
            one.usage.peak_fake_users <= u64::from(declared.fake_users),
            "{family}"
        );
        assert!(
            one.usage.peak_clicks_per_user <= declared.clicks_per_user as u64,
            "{family}"
        );
    }
}

/// The wire must be invisible: every family attacked through
/// `RemoteSystem` over a real socket matches the in-process run — the
/// serving layer must not perturb the observation seed stream.
#[test]
fn every_family_is_wire_transparent() {
    let tuning = tuning();
    for family in AttackFamily::ALL {
        let cfg = ZooConfig::new(budget(family, &tuning));
        let local = run_cell(family, &tiny_system(), &tuning, &cfg);

        let server_cfg = ServerConfig::builder()
            .threads(2)
            .build()
            .expect("valid server config");
        let server = Server::start(RecApp::new(tiny_system(), None), server_cfg).expect("bind");
        let remote = RemoteSystem::connect(server.local_addr().to_string())
            .expect("connect to served system");
        let wire = run_cell(family, &remote, &tuning, &cfg);
        drop(remote);
        let stats = server.shutdown();
        assert_eq!(stats.dropped(), 0, "{family}: shutdown dropped requests");

        assert_identical(family, &local, &wire, "wire");
    }
}

/// Kill-and-resume must be invisible: a run checkpointed every step
/// and cut off mid-run, then resumed on a fresh same-config system,
/// finishes bit-identical to an uninterrupted run.
#[test]
fn every_family_resumes_bit_identically_after_interruption() {
    let tuning = tuning();
    let dir = std::env::temp_dir().join(format!("zoo-conformance-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");

    for family in AttackFamily::ALL {
        let cell_budget = budget(family, &tuning);
        let path = dir.join(format!("{}.ckpt", family.name()));
        let _ = std::fs::remove_file(&path);

        // Leg A: run to roughly the midpoint, checkpointing every
        // step, then stop. The step cap stands in for a crash; partial
        // attacks may legitimately refuse to emit poison at the cap,
        // so the result is discarded — only the checkpoint matters.
        let log = tiny_log();
        let mut attack = family.build(&tuning, Some(&log)).expect("buildable");
        let cut = (attack.planned_steps() / 2).max(1);
        let interrupted = ZooConfig {
            steps: Some(cut),
            checkpoint_every: 1,
            checkpoint_path: Some(path.clone()),
            evaluate_final: false,
            ..ZooConfig::new(cell_budget)
        };
        let _ = run_attack(attack.as_mut(), &tiny_system(), &interrupted, &mut |_| {});
        assert!(path.exists(), "{family}: no checkpoint was written");

        // Leg B: fresh attack, fresh system, resume from the sealed
        // checkpoint and run to completion.
        let resumed_cfg = ZooConfig {
            checkpoint_every: 1,
            checkpoint_path: Some(path.clone()),
            resume: true,
            ..ZooConfig::new(cell_budget)
        };
        let mut resumed_events = 0usize;
        let mut fresh = family.build(&tuning, Some(&log)).expect("buildable");
        let resumed = run_attack(fresh.as_mut(), &tiny_system(), &resumed_cfg, &mut |event| {
            if matches!(event, poisonrec::ZooEvent::Resumed { .. }) {
                resumed_events += 1;
            }
        })
        .unwrap_or_else(|err| panic!("{family}: resume failed: {err}"));
        assert_eq!(resumed_events, 1, "{family}: resume event not emitted");

        // Leg C: the uninterrupted reference.
        let reference = run_cell(
            family,
            &tiny_system(),
            &tuning,
            &ZooConfig::new(cell_budget),
        );
        assert_identical(family, &reference, &resumed, "kill+resume");

        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(&dir);
}

/// A checkpoint seals the cell's fingerprint: resuming it under a
/// different budget (a different cell) is a typed state error, not a
/// silent mismatched continuation.
#[test]
fn resuming_a_checkpoint_into_a_different_cell_is_refused() {
    let tuning = tuning();
    let family = AttackFamily::PoisonRec;
    let path =
        std::env::temp_dir().join(format!("zoo-conformance-xcell-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let cell_budget = budget(family, &tuning);
    let interrupted = ZooConfig {
        steps: Some(1),
        checkpoint_every: 1,
        checkpoint_path: Some(path.clone()),
        evaluate_final: false,
        ..ZooConfig::new(cell_budget)
    };
    let log = tiny_log();
    let mut attack = family.build(&tuning, Some(&log)).expect("buildable");
    let _ = run_attack(attack.as_mut(), &tiny_system(), &interrupted, &mut |_| {});
    assert!(path.exists());

    let other_cell = ZooConfig {
        checkpoint_path: Some(path.clone()),
        resume: true,
        ..ZooConfig::new(AttackBudget {
            fake_users: 2,
            ..cell_budget
        })
    };
    let mut fresh = family.build(&tuning, Some(&log)).expect("buildable");
    let err = run_attack(fresh.as_mut(), &tiny_system(), &other_cell, &mut |_| {})
        .expect_err("a foreign checkpoint must be refused");
    assert!(
        matches!(err, recsys::attack::AttackError::State(_)),
        "expected a typed state error, got {err}"
    );
    let _ = std::fs::remove_file(&path);
}
