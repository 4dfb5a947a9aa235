//! Pins the exact bits of the PoisonRec policy through PPO training at
//! the benchmark's policy shape (dim 16, N = T = 20, M = B = 8, K = 3).
//!
//! The golden attack trace runs a tiny policy against ItemPop; this test
//! is the bit-level guard for the policy replay tape (the BCBT pair
//! logits, the LSTM, the DNN head) and the PPO update as the benchmark
//! drives them. Each hash is an FNV-1a fold of `f32::to_bits`:
//!
//! * training: every step's `ppo_signal`, then every policy parameter
//!   after the last step;
//! * replay: the log-probs one seeded episode replays to under a fresh
//!   policy, then the gradient of their sum.
//!
//! The BCBT designs replay only two-way (pair) decisions; BPlain mixes
//! one pair decision per click with flat-softmax range groups; Plain
//! replays range groups only. Together they cover every branch of
//! `PolicyNetwork::replay_logps_in`.
//!
//! A mismatch means some change moved a policy weight, a log-prob or a
//! gradient by at least one ulp.

use datasets::PaperDataset;
use poisonrec::{
    ActionSpaceKind, PoisonRecConfig, PoisonRecTrainer, PolicyConfig, PolicyNetwork, PpoConfig,
};
use recsys::data::LogView;
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, SystemConfig};

const STEPS: usize = 3;
const SEED: u64 = 7;

fn fnv1a(hash: &mut u64, bits: u32) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn policy_config() -> PolicyConfig {
    PolicyConfig {
        dim: 16,
        num_attackers: 20,
        trajectory_len: 20,
        init_scale: 0.1,
    }
}

fn system() -> BlackBoxSystem {
    let data = PaperDataset::Steam.generate_scaled(0.1, 3);
    let ranker = RankerKind::Bpr.build(&LogView::clean(&data), 32);
    let cfg = SystemConfig::builder()
        .eval_users(64)
        .reserve_attackers(32)
        .build()
        .expect("valid system config");
    BlackBoxSystem::build(data, ranker, cfg)
}

fn trainer(kind: ActionSpaceKind, system: &BlackBoxSystem) -> PoisonRecTrainer {
    let cfg = PoisonRecConfig::builder()
        .policy(policy_config())
        .ppo(PpoConfig {
            samples_per_step: 8,
            batch: 8,
            ..PpoConfig::default()
        })
        .action_space(kind)
        .seed(SEED)
        .build()
        .expect("valid trainer config");
    PoisonRecTrainer::new(cfg, system)
}

/// `(training hash, replay hash)` for one action-space design.
fn bits(kind: ActionSpaceKind) -> (u64, u64) {
    let system = system();
    let mut trainer = trainer(kind, &system);

    let mut train = FNV_OFFSET;
    let history = trainer.train(&system, STEPS);
    // Plain's flat softmax over the whole catalog almost never clicks a
    // target in three steps, so its rewards (and advantages) are all
    // zero; its pin rests on the replay hash.
    assert!(
        kind == ActionSpaceKind::Plain || history.iter().any(|s| s.ppo_signal > 0.0),
        "no PPO step carried a learning signal"
    );
    for stats in history {
        fnv1a(&mut train, stats.ppo_signal.to_bits());
    }
    for (_, value) in trainer.policy().params().iter() {
        for &x in value.data() {
            fnv1a(&mut train, x.to_bits());
        }
    }

    let space = trainer.action_space();
    let policy = PolicyNetwork::new(policy_config(), space, SEED);
    let episode = policy.seeded_episode(space, SEED + 1);
    let mut grads = policy.zero_grads();
    let (mut g, groups) = policy.replay_logps(&episode);
    let mut replay = FNV_OFFSET;
    for (var, _) in &groups {
        for &lp in g.value(*var).data() {
            fnv1a(&mut replay, lp.to_bits());
        }
        let total = g.sum_all(*var);
        g.backward(total, &mut grads);
    }
    for (id, _) in policy.params().iter() {
        for &x in grads.get(id).data() {
            fnv1a(&mut replay, x.to_bits());
        }
    }
    (train, replay)
}

fn check(kind: ActionSpaceKind, expected: (u64, u64)) {
    let (train, replay) = bits(kind);
    assert_eq!(
        replay,
        expected.1,
        "{}: replayed log-prob or gradient bits changed (got {replay:#018x})",
        kind.name()
    );
    assert_eq!(
        train,
        expected.0,
        "{}: policy bits after {STEPS} PPO steps changed (got {train:#018x})",
        kind.name()
    );
}

#[test]
fn bcbt_popular_policy_bits_are_pinned() {
    check(
        ActionSpaceKind::BcbtPopular,
        (0x923c_391f_4178_66ed, 0x7bf5_e8ea_0c53_cbae),
    );
}

#[test]
fn bcbt_random_policy_bits_are_pinned() {
    check(
        ActionSpaceKind::BcbtRandom,
        (0xeb13_4e47_d48a_f96c, 0x2709_8da3_7f68_c9a0),
    );
}

#[test]
fn bplain_policy_bits_are_pinned() {
    check(
        ActionSpaceKind::BPlain,
        (0x0ee4_de00_f9d6_ec3d, 0x7b2b_8975_0654_802f),
    );
}

#[test]
fn plain_policy_bits_are_pinned() {
    check(
        ActionSpaceKind::Plain,
        (0xb6cd_0786_2a54_0132, 0xbd02_a625_767a_ebdf),
    );
}
