//! The conformance gate (DESIGN.md §5h, §5j): every attack family in
//! [`baselines::AttackFamily::ALL`] runs against the victim under every
//! [`DefenseKind`] — `None` is the plain, undefended attack — through
//! the same pinned checks, so registering a new attack or a new defense
//! layer means passing this gate, not writing bespoke tests:
//!
//! * **thread invariance** — a cell run with 1 scoring thread is
//!   bit-identical (history, poison, final RecNum, usage, and, when
//!   defended, the verdict ledger) to the same cell run with 8:
//!   judging happens sequentially in slot order before any dispatch,
//!   so worker count cannot reorder verdicts;
//! * **wire transparency** — a cell attacked through
//!   [`recsys::RemoteSystem`] over a real 127.0.0.1 socket, against a
//!   server that judges at `POST /feedback` admission, is bit-identical
//!   to the in-process run, ledger included;
//! * **interrupt + resume** — a cell checkpointed every step, cut off
//!   mid-run, and resumed on a *fresh* same-config system finishes
//!   bit-identical to the uninterrupted run. The sealed checkpoint
//!   carries the attack state, budget usage, the system's observation
//!   ordinal, and the defense state (adaptive ladder level, reputation,
//!   CUSUM, verdict counts);
//! * **budget visibility** — what each family spends is counted at the
//!   guard boundary and never exceeds the declared budget;
//! * **refusals** — resuming into a different cell, under changed
//!   tuning, or a defended checkpoint into an undefended system, is a
//!   typed error;
//! * **the defense's own contract** — its byte state round-trips, and
//!   its verdict ledger balances against what it was offered.
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
use recsys::defense::{DefendedSystem, DefenseKind, DefenseStack, VerdictCounts};
use recsys::rankers::ItemPop;
use recsys::remote::RemoteSystem;
use recsys::system::{BlackBoxSystem, ObservableSystem, SystemConfig};
use serve::{RecApp, Server, ServerConfig};

const FPR: f64 = 0.05;

/// The victim's organic log, which is also the attacker's prior
/// knowledge for log-requiring families.
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

/// The in-process victim under one defense kind.
enum Victim {
    Plain(Box<BlackBoxSystem>),
    /// The tiny system behind a stack calibrated on its own organic log.
    Defended(Box<DefendedSystem>),
}

impl Victim {
    fn new(kind: DefenseKind) -> Self {
        let system = tiny_system();
        match DefenseStack::build(kind, system.base(), FPR) {
            Some(stack) => Victim::Defended(Box::new(DefendedSystem::new(system, stack))),
            None => Victim::Plain(Box::new(system)),
        }
    }

    fn system(&self) -> &dyn ObservableSystem {
        match self {
            Victim::Plain(system) => system.as_ref(),
            Victim::Defended(system) => system.as_ref(),
        }
    }

    /// The verdict ledger; `None` when undefended.
    fn counts(&self) -> Option<VerdictCounts> {
        match self {
            Victim::Plain(_) => None,
            Victim::Defended(system) => Some(system.counts()),
        }
    }

    fn level(&self) -> Option<u32> {
        match self {
            Victim::Plain(_) => None,
            Victim::Defended(system) => Some(system.level()),
        }
    }
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

fn assert_identical(family: AttackFamily, kind: DefenseKind, a: &ZooRun, b: &ZooRun, what: &str) {
    let tag = format!("{family} × {}", kind.label());
    assert_eq!(a.history, b.history, "{tag}: {what} history diverged");
    assert_eq!(a.poison, b.poison, "{tag}: {what} poison diverged");
    assert_eq!(
        a.final_rec_num, b.final_rec_num,
        "{tag}: {what} final RecNum diverged"
    );
    assert_eq!(a.usage, b.usage, "{tag}: {what} budget usage diverged");
}

/// Scoring-thread count must be invisible, even with a stateful judge
/// in the path: 1 thread vs 8 threads, fresh same-config systems,
/// bit-identical outcomes and verdict ledgers.
fn check_thread_invariance(kinds: impl IntoIterator<Item = DefenseKind>) {
    let tuning = tuning();
    for kind in kinds {
        for family in AttackFamily::ALL {
            let base = ZooConfig::new(budget(family, &tuning));
            let one_sys = Victim::new(kind);
            let one = run_cell(family, one_sys.system(), &tuning, &base);
            let eight_sys = Victim::new(kind);
            let eight = run_cell(
                family,
                eight_sys.system(),
                &tuning,
                &ZooConfig { threads: 8, ..base },
            );
            assert_identical(family, kind, &one, &eight, "threads 1 vs 8");
            assert_eq!(
                one_sys.counts(),
                eight_sys.counts(),
                "{family} × {}: verdict ledger diverged across thread counts",
                kind.label()
            );

            // Budget visibility: the guard counted a spend no larger
            // than the declaration, for every family.
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
}

#[test]
fn every_family_is_thread_invariant() {
    check_thread_invariance([DefenseKind::None]);
}

#[test]
fn every_family_is_thread_invariant_under_every_defense() {
    check_thread_invariance(defended_kinds());
}

/// The wire must be invisible: a served system judges at `/feedback`
/// admission in arrival order, the local victim in slot order
/// pre-dispatch — the same order, so histories and the verdict ledger
/// must match, and the serving layer must not perturb the observation
/// seed stream.
fn check_wire_transparency(kinds: impl IntoIterator<Item = DefenseKind>) {
    let tuning = tuning();
    for kind in kinds {
        for family in AttackFamily::ALL {
            let cfg = ZooConfig::new(budget(family, &tuning));
            let local_sys = Victim::new(kind);
            let local = run_cell(family, local_sys.system(), &tuning, &cfg);

            let served = tiny_system();
            let stack = DefenseStack::build(kind, served.base(), FPR);
            let server_cfg = ServerConfig::builder()
                .threads(2)
                .build()
                .expect("valid server config");
            let server = Server::start(RecApp::new(served, stack), server_cfg).expect("bind");
            let remote = RemoteSystem::connect(server.local_addr().to_string())
                .expect("connect to served system");
            let wire = run_cell(family, &remote, &tuning, &cfg);
            let wire_counts = server.app().defense_counts();
            drop(remote);
            let stats = server.shutdown();
            assert_eq!(stats.dropped(), 0, "{family}: shutdown dropped requests");

            assert_identical(family, kind, &local, &wire, "wire");
            if let Some(local_counts) = local_sys.counts() {
                assert_eq!(
                    local_counts,
                    wire_counts,
                    "{family} × {}: verdict ledger diverged over the wire",
                    kind.label()
                );
            }
        }
    }
}

#[test]
fn every_family_is_wire_transparent() {
    check_wire_transparency([DefenseKind::None]);
}

#[test]
fn every_family_is_wire_transparent_under_every_defense() {
    check_wire_transparency(defended_kinds());
}

/// Kill-and-resume must be invisible: a run checkpointed every step
/// and cut off mid-run, then resumed on a fresh same-config system,
/// finishes bit-identical to an uninterrupted run.
fn check_resume(kind: DefenseKind) {
    let tuning = tuning();
    let dir = std::env::temp_dir().join(format!(
        "conformance-{}-{}",
        kind.label(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("checkpoint dir");

    for family in AttackFamily::ALL {
        let cell_budget = budget(family, &tuning);
        let path = dir.join(format!("{}-{}.ckpt", kind.label(), family.name()));
        let _ = std::fs::remove_file(&path);

        // Leg A: run to roughly the midpoint, checkpointing every
        // step, then stop. The step cap stands in for a crash;
        // partial attacks may legitimately refuse to emit poison at
        // the cap, so the result is discarded — only the checkpoint
        // matters.
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
        let interrupted_sys = Victim::new(kind);
        let _ = run_attack(
            attack.as_mut(),
            interrupted_sys.system(),
            &interrupted,
            &mut |_| {},
        );
        assert!(path.exists(), "{family}: no checkpoint was written");

        // Leg B: fresh attack, fresh system, resume from the sealed
        // checkpoint and run to completion. A fresh stack starts
        // pristine; restore must overwrite it with the checkpointed
        // ladder/reputation/CUSUM state.
        let resumed_cfg = ZooConfig {
            checkpoint_every: 1,
            checkpoint_path: Some(path.clone()),
            resume: true,
            ..ZooConfig::new(cell_budget)
        };
        let mut resumed_events = 0usize;
        let mut fresh = family.build(&tuning, Some(&log)).expect("buildable");
        let resumed_sys = Victim::new(kind);
        let resumed = run_attack(
            fresh.as_mut(),
            resumed_sys.system(),
            &resumed_cfg,
            &mut |event| {
                if matches!(event, poisonrec::ZooEvent::Resumed { .. }) {
                    resumed_events += 1;
                }
            },
        )
        .unwrap_or_else(|err| panic!("{family}: resume failed: {err}"));
        assert_eq!(resumed_events, 1, "{family}: resume event not emitted");

        // Leg C: the uninterrupted reference.
        let reference_sys = Victim::new(kind);
        let reference = run_cell(
            family,
            reference_sys.system(),
            &tuning,
            &ZooConfig::new(cell_budget),
        );
        assert_identical(family, kind, &reference, &resumed, "kill+resume");
        // The ledger proves the defense state rode the checkpoint:
        // leg A's prefix verdicts + leg B's suffix verdicts must
        // land exactly where the uninterrupted run's did.
        assert_eq!(
            reference_sys.counts(),
            resumed_sys.counts(),
            "{family}: resumed verdict ledger diverged — defense state did not resume"
        );
        assert_eq!(
            reference_sys.level(),
            resumed_sys.level(),
            "{family}: adaptive ladder level did not resume"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_family_resumes_bit_identically_after_interruption() {
    check_resume(DefenseKind::None);
}

/// On the `Full` stack, whose ladder/reputation/CUSUM state is maximal,
/// the defense state must ride the checkpoint too.
#[test]
fn every_family_resumes_bit_identically_with_defense_state() {
    check_resume(DefenseKind::Full);
}

/// Cuts a `family` cell after one step against `victim`, leaving its
/// sealed checkpoint at `path`.
fn checkpoint_one_step(
    family: AttackFamily,
    victim: &Victim,
    cell_budget: AttackBudget,
    path: &std::path::Path,
) {
    let _ = std::fs::remove_file(path);
    let interrupted = ZooConfig {
        steps: Some(1),
        checkpoint_every: 1,
        checkpoint_path: Some(path.to_path_buf()),
        evaluate_final: false,
        ..ZooConfig::new(cell_budget)
    };
    let log = tiny_log();
    let mut attack = family.build(&tuning(), Some(&log)).expect("buildable");
    let _ = run_attack(attack.as_mut(), victim.system(), &interrupted, &mut |_| {});
    assert!(path.exists());
}

/// Resumes a fresh `family` cell built from `tuning` from `path` into
/// `victim` under `cell_budget`, expecting a refusal.
fn resume_refusal(
    family: AttackFamily,
    tuning: &ZooTuning,
    victim: &Victim,
    cell_budget: AttackBudget,
    path: &std::path::Path,
) -> recsys::attack::AttackError {
    let resume_cfg = ZooConfig {
        checkpoint_path: Some(path.to_path_buf()),
        resume: true,
        ..ZooConfig::new(cell_budget)
    };
    let log = tiny_log();
    let mut fresh = family.build(tuning, Some(&log)).expect("buildable");
    let err = run_attack(fresh.as_mut(), victim.system(), &resume_cfg, &mut |_| {})
        .expect_err("the checkpoint must be refused");
    let _ = std::fs::remove_file(path);
    err
}

/// A checkpoint seals the cell's fingerprint: resuming it under a
/// different budget (a different cell) is a typed state error, not a
/// silent mismatched continuation.
#[test]
fn resuming_a_checkpoint_into_a_different_cell_is_refused() {
    let path = std::env::temp_dir().join(format!("conformance-xcell-{}.ckpt", std::process::id()));
    let cell_budget = budget(AttackFamily::PoisonRec, &tuning());
    let family = AttackFamily::PoisonRec;
    checkpoint_one_step(family, &Victim::new(DefenseKind::None), cell_budget, &path);
    let other_cell = AttackBudget {
        fake_users: 2,
        ..cell_budget
    };
    let err = resume_refusal(
        family,
        &tuning(),
        &Victim::new(DefenseKind::None),
        other_cell,
        &path,
    );
    assert!(
        matches!(err, recsys::attack::AttackError::State(_)),
        "expected a typed state error, got {err}"
    );
}

/// A checkpoint taken against a defended system must refuse to resume
/// into an undefended one: silently dropping the judge's state would
/// fork the run.
#[test]
fn a_defended_checkpoint_refuses_an_undefended_system() {
    let path = std::env::temp_dir().join(format!(
        "conformance-undefended-{}.ckpt",
        std::process::id()
    ));
    let cell_budget = budget(AttackFamily::PoisonRec, &tuning());
    let family = AttackFamily::PoisonRec;
    checkpoint_one_step(family, &Victim::new(DefenseKind::Full), cell_budget, &path);
    let err = resume_refusal(
        family,
        &tuning(),
        &Victim::new(DefenseKind::None),
        cell_budget,
        &path,
    );
    assert!(
        matches!(err, recsys::attack::AttackError::Config(_)),
        "expected a typed config error, got {err}"
    );
}

/// `tuning` with one field of `family`'s own tuning changed — a field
/// that leaves the family's budget alone.
fn retune(family: AttackFamily, mut tuning: ZooTuning) -> ZooTuning {
    match family {
        AttackFamily::PoisonRec => tuning.poisonrec.ppo.lr *= 5.0,
        AttackFamily::AppGrad => tuning.appgrad.step *= 2.0,
        AttackFamily::ConsLop => tuning.conslop.candidate_pool /= 2,
        AttackFamily::Influence => tuning.influence.dim *= 2,
        AttackFamily::Random
        | AttackFamily::Popular
        | AttackFamily::Middle
        | AttackFamily::PowerItem => tuning.seed += 1,
    }
    tuning
}

/// A checkpoint seals the family's own tuning too: resuming it under
/// changed tuning is a typed state error naming the fingerprint, raised
/// before the fresh system spends or restores anything.
#[test]
fn resuming_under_changed_tuning_is_refused() {
    let dir = std::env::temp_dir().join(format!("conformance-retune-{}", std::process::id()));
    for family in AttackFamily::ALL {
        let path = dir.join(format!("{}.ckpt", family.name()));
        let cell_budget = budget(family, &tuning());
        checkpoint_one_step(family, &Victim::new(DefenseKind::None), cell_budget, &path);
        let retuned = retune(family, tuning());
        assert_eq!(budget(family, &retuned), cell_budget, "{family}");
        let fresh = Victim::new(DefenseKind::None);
        let err = resume_refusal(family, &retuned, &fresh, cell_budget, &path);
        match err {
            recsys::attack::AttackError::State(msg) => {
                assert!(msg.contains("fingerprint"), "{family}: {msg}")
            }
            other => panic!("{family}: expected a typed state error, got {other}"),
        }
        assert_eq!(
            fresh.system().observations_spent(),
            0,
            "{family}: the refusal spent observations"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every kind but `None`: the defended half of each check.
fn defended_kinds() -> impl Iterator<Item = DefenseKind> {
    DefenseKind::ALL
        .into_iter()
        .filter(|&kind| kind != DefenseKind::None)
}

/// The stack's byte-state roundtrip is the checkpoint contract:
/// restore onto a fresh stack, judge the same stream, get the same
/// verdicts.
#[test]
fn defense_state_roundtrips_through_bytes() {
    let log = tiny_log();
    for kind in defended_kinds() {
        let mut warm = DefenseStack::build(kind, &log, FPR).expect("layered kind");
        // Warm it up with a hostile stream (target-hammering bursts).
        for burst in 0..10u32 {
            let sequence: Vec<u32> = (0..6).map(|i| 55 + (burst + i) % 5).collect();
            warm.judge(&log, &sequence);
        }
        let bytes = warm.state_bytes();
        let mut restored = DefenseStack::build(kind, &log, FPR).expect("layered kind");
        restored.restore_state(&bytes).expect("roundtrip");
        assert_eq!(restored.counts(), warm.counts(), "{}", kind.label());
        assert_eq!(restored.level(), warm.level(), "{}", kind.label());
        // Judge one more identical stream on both: verdicts must agree.
        for burst in 0..5u32 {
            let sequence: Vec<u32> = (0..6).map(|i| 50 + (burst + i) % 7).collect();
            assert_eq!(
                warm.judge(&log, &sequence),
                restored.judge(&log, &sequence),
                "{}: post-restore verdicts diverged",
                kind.label()
            );
        }
    }
}

#[test]
fn verdict_counts_sum_to_offered_for_every_kind() {
    let log = tiny_log();
    for kind in defended_kinds() {
        let mut stack = DefenseStack::build(kind, &log, FPR).expect("layered kind");
        let mut offered = 0u64;
        for user in 0..log.num_users() {
            stack.judge(&log, log.sequence(user));
            offered += 1;
        }
        for burst in 0..8u32 {
            let sequence: Vec<u32> = (0..6).map(|i| 55 + (burst + i) % 5).collect();
            stack.judge(&log, &sequence);
            offered += 1;
        }
        let counts = stack.counts();
        assert_eq!(counts.offered(), offered, "{}", kind.label());
        assert_eq!(
            counts.admitted + counts.rejected(),
            offered,
            "{}: ledger does not balance",
            kind.label()
        );
        assert_eq!(counts, stack.counts(), "counts() must be pure");
    }
}
