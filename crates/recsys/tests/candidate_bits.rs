//! Pins the exact evaluation candidate sets and the RecNum observations
//! built on them.
//!
//! Every RecNum reward scores each evaluation user's candidate set
//! ("92 random + 8 target" items, drawn per `(protocol seed, user)` by
//! Floyd's algorithm). These hashes fold the candidate ids in list
//! order, so they catch a changed pick, a changed order, or a changed
//! target tail. The observation hashes then pin what the candidates
//! feed: RecNum and the full eval lists for BPR and for ItemPop, whose
//! tied popularity scores make the result depend on candidate order
//! through top-k tie-breaking.

use datasets::PaperDataset;
use recsys::data::{Dataset, LogView, Trajectory};
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, SystemConfig};

const ATTACKERS: u32 = 20;

fn fnv1a(hash: &mut u64, word: u32) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn system(data: Dataset, kind: RankerKind, cfg: SystemConfig) -> BlackBoxSystem {
    let ranker = kind.build(&LogView::clean(&data), cfg.reserve_attackers);
    BlackBoxSystem::build(data, ranker, cfg)
}

fn config(seed: u64, eval_users: usize, n_candidates: usize) -> SystemConfig {
    SystemConfig::builder()
        .seed(seed)
        .eval_users(eval_users)
        .n_candidates(n_candidates)
        .reserve_attackers(ATTACKERS)
        .build()
        .expect("valid config")
}

/// FNV-1a over every user's candidate list, each list prefixed by its
/// user id and length.
fn candidates_hash(sys: &BlackBoxSystem) -> u64 {
    let base = sys.base();
    let protocol = sys.protocol();
    let mut hash = FNV_OFFSET;
    for user in 0..base.num_users() {
        let candidates = protocol.candidates(base, user);
        fnv1a(&mut hash, user);
        fnv1a(&mut hash, candidates.len() as u32);
        for &item in candidates.iter() {
            fnv1a(&mut hash, item);
        }
    }
    hash
}

#[test]
fn steam_half_scale_candidates_are_pinned() {
    let got: Vec<u64> = [17, 901]
        .map(|seed| {
            let data = PaperDataset::Steam.generate_scaled(0.5, 1);
            candidates_hash(&system(data, RankerKind::ItemPop, config(seed, 256, 92)))
        })
        .to_vec();
    assert_eq!(
        got,
        [0x7da5_1b91_f779_e2ec, 0x13af_5d62_8fa5_39b0],
        "Steam x0.5, system seeds 17 and 901: candidate lists changed (got {got:#018x?})"
    );
}

/// A toy catalog no larger than the candidate count: Floyd's draw then
/// covers (nearly) the whole catalog, so most draws collide and take
/// the `pick = j` branch.
fn toy() -> Dataset {
    let histories = (0..40u32)
        .map(|u| (0..5).map(|t| (u * 7 + t * 3) % 30).collect())
        .collect();
    Dataset::from_histories("toy", histories, 30, 4)
}

#[test]
fn saturated_catalog_candidates_are_pinned() {
    let got: Vec<u64> = [30, 64, 27]
        .map(|n_candidates| {
            candidates_hash(&system(
                toy(),
                RankerKind::ItemPop,
                config(5, 16, n_candidates),
            ))
        })
        .to_vec();
    assert_eq!(
        got,
        [
            0x3a57_feca_468d_f5a5,
            0x3a57_feca_468d_f5a5,
            0xf6fe_add8_fbf9_8b09
        ],
        "toy, n_candidates 30, 64 and 27: candidate lists changed (got {got:#018x?})"
    );
}

/// A fixed poison: two thirds of the clicks go to four of the targets,
/// the rest to organic items. Four equally pushed targets leave ItemPop
/// ties at the top-k boundary.
fn poison(num_items: u32, targets: &[u32], salt: u32) -> Vec<Trajectory> {
    (0..ATTACKERS)
        .map(|a| {
            (0..20u32)
                .map(|t| {
                    if !(a + t + salt).is_multiple_of(3) {
                        targets[((a + t + salt) % 4) as usize]
                    } else {
                        (a * 37 + t * 11 + salt * 5) % num_items
                    }
                })
                .collect()
        })
        .collect()
}

/// RecNum of three seeded observations, then every eval user's full
/// list from one `observe_recommendations`, folded in order.
fn observation_hash(kind: RankerKind) -> u64 {
    let data = PaperDataset::Steam.generate_scaled(0.25, 2);
    let sys = system(data, kind, config(23, 256, 92));
    let targets = sys.public_info().target_items;
    let num_items = sys.base().num_items();
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, sys.clean_rec_num());
    let mut exposed = 0;
    for salt in 0..3 {
        let obs = sys.observe_seeded(&poison(num_items, &targets, salt), 500 + u64::from(salt));
        fnv1a(&mut hash, obs.rec_num);
        exposed += obs.rec_num;
    }
    let obs = sys.observe_recommendations(&poison(num_items, &targets, 7), 77);
    fnv1a(&mut hash, obs.rec_num);
    exposed += obs.rec_num;
    // A pin over all-zero RecNum would not exercise the target tail.
    assert!(exposed > 0, "{kind}: the poison never exposed a target");
    for (user, list) in obs.recommendations.expect("lists requested") {
        fnv1a(&mut hash, user);
        for item in list {
            fnv1a(&mut hash, item);
        }
    }
    hash
}

#[test]
fn bpr_observations_are_pinned() {
    let got = observation_hash(RankerKind::Bpr);
    assert_eq!(
        got, 0xcfb5_4b0d_854f_ac36,
        "BPR: RecNum or eval lists changed (got {got:#018x})"
    );
}

#[test]
fn itempop_observations_are_pinned() {
    let got = observation_hash(RankerKind::ItemPop);
    assert_eq!(
        got, 0x4102_32b4_21b8_9351,
        "ItemPop: RecNum or eval lists changed (got {got:#018x})"
    );
}
