//! Pins the exact score bits of every gradient-trained ranker through a
//! full `fit` and three warm `fine_tune`s on a poisoned log.
//!
//! The golden attack trace runs against ItemPop and so never reaches an
//! optimizer; this test is the bit-level guard for the tensor tape, the
//! gradient store and SGD as the gradient rankers drive them. Each hash
//! is an FNV-1a fold of `f32::to_bits` over the full-catalog scores of
//! 40 organic users and every attacker row. A mismatch means some
//! change moved a trained weight by at least one ulp.

use datasets::PaperDataset;
use recsys::data::{LogView, Trajectory};
use recsys::rankers::RankerKind;

const ATTACKERS: u32 = 20;
const ORGANIC_PROBES: u32 = 40;

/// A fixed 20x20 poison that mixes target and organic items, so the
/// fine-tunes touch both the attacker rows and popular catalog rows.
fn poison(num_items: u32, targets: &[u32]) -> Vec<Trajectory> {
    (0..ATTACKERS)
        .map(|a| {
            (0..20u32)
                .map(|t| {
                    if (a + t) % 3 == 0 {
                        targets[((a + t) as usize) % targets.len()]
                    } else {
                        (a * 37 + t * 11) % num_items
                    }
                })
                .collect()
        })
        .collect()
}

fn fnv1a(hash: &mut u64, bits: u32) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn score_bits_hash(kind: RankerKind) -> u64 {
    let data = PaperDataset::Steam.generate_scaled(0.1, 3);
    let targets: Vec<u32> = data.target_items().collect();
    let poison = poison(data.num_items(), &targets);
    let clean = LogView::clean(&data);
    let poisoned = LogView::new(&data, &poison);

    let mut ranker = kind.build(&clean, ATTACKERS);
    ranker.fit(&clean, 3);
    for seed in 0..3 {
        ranker.fine_tune(&poisoned, 100 + seed);
    }

    let organic = data.num_users();
    let catalog: Vec<u32> = (0..data.catalog()).collect();
    let users = (0..ORGANIC_PROBES)
        .map(|i| i * organic / ORGANIC_PROBES)
        .chain(organic..organic + ATTACKERS);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for user in users {
        for score in ranker.score(user, poisoned.sequence(user), &catalog) {
            fnv1a(&mut hash, score.to_bits());
        }
    }
    hash
}

fn check(kind: RankerKind, expected: u64) {
    let got = score_bits_hash(kind);
    assert_eq!(
        got, expected,
        "{kind}: score bits after fit + 3 fine-tunes changed (got {got:#018x})"
    );
}

#[test]
fn neumf_score_bits_are_pinned() {
    check(RankerKind::NeuMf, 0x932d_12f9_93e2_b4d7);
}

#[test]
fn gru4rec_score_bits_are_pinned() {
    check(RankerKind::Gru4Rec, 0xb30e_f8bc_7b43_4d5f);
}

#[test]
fn autorec_score_bits_are_pinned() {
    check(RankerKind::AutoRec, 0xbe10_87bb_cb07_11b9);
}

#[test]
fn ngcf_score_bits_are_pinned() {
    check(RankerKind::Ngcf, 0xa83f_8540_3cc3_0ace);
}

#[test]
fn bpr_score_bits_are_pinned() {
    check(RankerKind::Bpr, 0xb6a4_d3f2_5e2d_e2f8);
}

#[test]
fn pmf_score_bits_are_pinned() {
    check(RankerKind::Pmf, 0x588b_e202_0289_8d5d);
}
