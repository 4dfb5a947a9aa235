//! In-crate integration tests for the black-box harness: the contract
//! between fine-tuning, snapshotting, and the RecNum protocol.

use recsys::data::{Dataset, LogView, Trajectory};
use recsys::defense::{DefenseKind, DefenseStack, Verdict};
use recsys::rankers::RankerKind;
use recsys::system::{BlackBoxSystem, SystemConfig};

fn toy_dataset(seed_shift: u32) -> Dataset {
    let histories = (0..80u32)
        .map(|u| {
            (0..7)
                .map(|t| (u * 5 + t * 11 + seed_shift) % 120)
                .collect()
        })
        .collect();
    Dataset::from_histories("toy", histories, 120, 8)
}

fn cfg() -> SystemConfig {
    SystemConfig {
        eval_users: 40,
        reserve_attackers: 16,
        ..SystemConfig::default()
    }
}

#[test]
fn snapshot_isolation_between_observations() {
    // Two observations of *different* poisons must not contaminate each
    // other: observing A then B equals observing B alone.
    let system = BlackBoxSystem::build(
        toy_dataset(0),
        Box::new(recsys::rankers::ItemPop::new()),
        cfg(),
    );
    let t0 = system.public_info().target_items[0];
    let t1 = system.public_info().target_items[1];
    let poison_a: Vec<Trajectory> = vec![vec![t0; 12]; 4];
    let poison_b: Vec<Trajectory> = vec![vec![t1; 12]; 4];

    let b_alone = system.inject_and_observe_seeded(&poison_b, 9);
    let _ = system.inject_and_observe_seeded(&poison_a, 9);
    let b_after_a = system.inject_and_observe_seeded(&poison_b, 9);
    assert_eq!(b_alone, b_after_a, "clean snapshot leaked state");
}

#[test]
fn every_ranker_builds_fits_and_scores() {
    let data = toy_dataset(1);
    let view = LogView::clean(&data);
    for kind in RankerKind::ALL {
        let mut ranker = kind.build(&view, 8);
        ranker.fit(&view, 3);
        let scores = ranker.score(0, data.sequence(0), &[0, 1, 125]);
        assert_eq!(scores.len(), 3, "{kind}");
        assert!(scores.iter().all(|s| s.is_finite()), "{kind}");
        // fine_tune with empty poison must not crash.
        ranker.fine_tune(&view, 4);
        // Clone must be independent.
        let snapshot = ranker.boxed_clone();
        assert_eq!(snapshot.name(), ranker.name());
    }
}

#[test]
fn item_embeddings_present_where_expected() {
    let data = toy_dataset(2);
    let view = LogView::clean(&data);
    for kind in RankerKind::ALL {
        let mut ranker = kind.build(&view, 8);
        ranker.fit(&view, 3);
        let has = ranker.item_embeddings().is_some();
        let expected = !matches!(
            kind,
            RankerKind::ItemPop | RankerKind::CoVisitation | RankerKind::AutoRec
        );
        assert_eq!(has, expected, "{kind} embeddings presence");
        if let Some(emb) = ranker.item_embeddings() {
            assert_eq!(emb.rows(), data.catalog() as usize, "{kind} embedding rows");
            assert!(!emb.has_non_finite(), "{kind} embeddings non-finite");
        }
    }
}

#[test]
fn defended_observation_never_exceeds_undefended_budget() {
    let system = BlackBoxSystem::build(
        toy_dataset(3),
        Box::new(recsys::rankers::ItemPop::new()),
        cfg(),
    );
    let t0 = system.public_info().target_items[0];
    let poison: Vec<Trajectory> = (0..8).map(|_| vec![t0; 12]).collect();
    let mut stack = DefenseStack::build(DefenseKind::Lof, system.base(), 0.02).unwrap();
    let surviving: Vec<Trajectory> = poison
        .iter()
        .filter(|t| stack.judge(system.base(), t) == Verdict::Admit)
        .cloned()
        .collect();
    // Pure-burst attackers should mostly be caught.
    assert!(
        surviving.len() < poison.len(),
        "no attacker flagged by an obvious burst"
    );
    let defended = system.inject_and_observe_seeded(&surviving, 5);
    let undefended = system.inject_and_observe_seeded(&poison, 5);
    assert!(defended <= undefended, "defense increased exposure");
}

#[test]
fn rec_num_is_monotone_in_attack_strength_for_itempop() {
    // More clicks on the same target cannot reduce its popularity rank.
    let system = BlackBoxSystem::build(
        toy_dataset(4),
        Box::new(recsys::rankers::ItemPop::new()),
        cfg(),
    );
    let t0 = system.public_info().target_items[0];
    let weak: Vec<Trajectory> = vec![vec![t0; 4]; 2];
    let strong: Vec<Trajectory> = vec![vec![t0; 16]; 8];
    let weak_score = system.inject_and_observe_seeded(&weak, 1);
    let strong_score = system.inject_and_observe_seeded(&strong, 1);
    assert!(strong_score >= weak_score, "{strong_score} < {weak_score}");
}

#[test]
fn protocol_rec_num_bounded_by_max() {
    let system = BlackBoxSystem::build(
        toy_dataset(5),
        Box::new(recsys::rankers::ItemPop::new()),
        cfg(),
    );
    let info = system.public_info();
    // Saturate: huge budget on all targets.
    let poison: Vec<Trajectory> = (0..16)
        .map(|a| (0..16).map(|t| info.target_items[(a + t) % 8]).collect())
        .collect();
    let rec_num = system.inject_and_observe_seeded(&poison, 1);
    assert!(rec_num <= system.max_rec_num());
}
