//! The serving read path: an immutable, generation-tagged ranker
//! snapshot with a lazily-filled per-user top-k cache.
//!
//! [`RankerSnapshot`] is what a retrain *produces* and what the
//! recommendation endpoints *read*. The split is the heart of the
//! serving design (DESIGN.md §5e):
//!
//! * a retrain clones the clean ranker and fine-tunes it **off to the
//!   side**, wraps it in a fresh snapshot, and publishes the snapshot
//!   by swapping an `Arc` behind a mutex held only for the swap —
//!   readers never wait for the fine-tune;
//! * the snapshot itself is **never mutated after publication**: the
//!   per-user cache is append-only ([`std::sync::OnceLock`] per user),
//!   so there is no invalidation protocol at all. A new generation
//!   replaces the whole snapshot; the old one is reclaimed when its
//!   last reader lets go.
//!
//! Cache rules: a request for `k <= top_k` is answered from the cached
//! `top_k` list's prefix (computed at most once per user per
//! generation); `k > top_k` is computed fresh and *not* cached — it is
//! an off-protocol shape, and keeping only one canonical list per user
//! keeps memory bounded by `eval_users x top_k` per generation.

use std::sync::OnceLock;

use crate::data::{Dataset, ItemId, UserId};
use crate::eval::EvalProtocol;
use crate::rankers::Ranker;

/// A frozen, shareable ranker + its per-user recommendation cache.
/// Cheap to read concurrently; built once per retrain generation.
pub struct RankerSnapshot {
    ranker: Box<dyn Ranker>,
    /// Retrain generation: 0 is the clean fit, each published retrain
    /// increments. Tagged into every access-log event and `/recommend`
    /// response so clients can tell which model answered.
    generation: u64,
    /// The fine-tune seed that produced this snapshot (generation 0
    /// uses the clean fit and has no fine-tune seed; stored as 0).
    seed: u64,
    /// Lazily-computed canonical top-`top_k` list per user.
    cache: Box<[OnceLock<Vec<ItemId>>]>,
}

impl RankerSnapshot {
    /// Wraps a (fitted or fine-tuned) ranker. `num_users` sizes the
    /// cache; users outside `0..num_users` are rejected at read time.
    pub fn new(ranker: Box<dyn Ranker>, generation: u64, seed: u64, num_users: u32) -> Self {
        let cache = (0..num_users).map(|_| OnceLock::new()).collect();
        Self {
            ranker,
            generation,
            seed,
            cache,
        }
    }

    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn ranker_name(&self) -> &'static str {
        self.ranker.name()
    }

    /// Whether `user` is servable (inside the dataset this snapshot
    /// was built over).
    pub fn knows_user(&self, user: UserId) -> bool {
        (user as usize) < self.cache.len()
    }

    /// The canonical top-`protocol.top_k()` list for `user`, computed
    /// on first access and cached for the snapshot's lifetime.
    pub fn recommend<'a>(
        &'a self,
        protocol: &EvalProtocol,
        base: &Dataset,
        user: UserId,
    ) -> &'a [ItemId] {
        self.cache[user as usize].get_or_init(|| protocol.recommend(&*self.ranker, base, user))
    }

    /// A `k`-item list for `user`: the cached canonical list's prefix
    /// for `k <= top_k`, a fresh (uncached) computation beyond it.
    pub fn recommend_k(
        &self,
        protocol: &EvalProtocol,
        base: &Dataset,
        user: UserId,
        k: usize,
    ) -> Vec<ItemId> {
        if k <= protocol.top_k() {
            let full = self.recommend(protocol, base, user);
            full[..k.min(full.len())].to_vec()
        } else {
            protocol.recommend_k(&*self.ranker, base, user, k)
        }
    }

    /// `RecNum = Σ_u |L_u ∩ I_t|` over the protocol's users, through
    /// the cache — bit-identical to
    /// [`EvalProtocol::rec_num`] on the wrapped ranker, but a second
    /// read of the same generation is pure lookups.
    pub fn rec_num(&self, protocol: &EvalProtocol, base: &Dataset) -> u32 {
        protocol
            .eval_users()
            .iter()
            .map(|&u| {
                self.recommend(protocol, base, u)
                    .iter()
                    .filter(|&&i| base.is_target(i))
                    .count() as u32
            })
            .sum()
    }

    /// Full per-user lists for the protocol's users (analysis paths).
    pub fn recommendations(
        &self,
        protocol: &EvalProtocol,
        base: &Dataset,
    ) -> Vec<(UserId, Vec<ItemId>)> {
        protocol
            .eval_users()
            .iter()
            .map(|&u| (u, self.recommend(protocol, base, u).to_vec()))
            .collect()
    }

    /// How many users have a cached list (diagnostics/metrics).
    pub fn cached_users(&self) -> usize {
        self.cache.iter().filter(|c| c.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LogView;
    use crate::rankers::ItemPop;

    fn toy() -> Dataset {
        let histories = (0..30u32)
            .map(|u| (0..6).map(|t| (u + t * 3) % 40).collect())
            .collect();
        Dataset::from_histories("toy", histories, 40, 8)
    }

    fn fitted(base: &Dataset) -> Box<dyn Ranker> {
        let mut ranker: Box<dyn Ranker> = Box::new(ItemPop::new());
        ranker.fit(&LogView::clean(base), 1);
        ranker
    }

    #[test]
    fn snapshot_agrees_with_direct_protocol_calls() {
        let base = toy();
        let protocol = EvalProtocol::sample(&base, 12, 10, 92, 7);
        let ranker = fitted(&base);
        let direct_rec_num = protocol.rec_num(&*ranker, &base);
        let direct_list = protocol.recommend(&*ranker, &base, protocol.eval_users()[0]);

        let snap = RankerSnapshot::new(ranker, 0, 0, base.num_users());
        assert_eq!(snap.rec_num(&protocol, &base), direct_rec_num);
        assert_eq!(
            snap.recommend(&protocol, &base, protocol.eval_users()[0]),
            direct_list.as_slice()
        );
        // Second read hits the cache and must agree with the first.
        assert_eq!(
            snap.recommend(&protocol, &base, protocol.eval_users()[0]),
            direct_list.as_slice()
        );
    }

    #[test]
    fn small_k_slices_the_cached_list() {
        let base = toy();
        let protocol = EvalProtocol::sample(&base, 12, 10, 92, 7);
        let snap = RankerSnapshot::new(fitted(&base), 0, 0, base.num_users());
        let user = protocol.eval_users()[1];
        let full = snap.recommend(&protocol, &base, user).to_vec();
        for k in 0..=protocol.top_k() {
            assert_eq!(snap.recommend_k(&protocol, &base, user, k), full[..k]);
        }
        // Only the canonical list was cached, once.
        assert_eq!(snap.cached_users(), 1);
    }

    #[test]
    fn large_k_is_computed_fresh_and_uncached() {
        let base = toy();
        let protocol = EvalProtocol::sample(&base, 12, 10, 92, 7);
        let snap = RankerSnapshot::new(fitted(&base), 0, 0, base.num_users());
        let user = protocol.eval_users()[2];
        let big = snap.recommend_k(&protocol, &base, user, protocol.top_k() + 5);
        assert!(big.len() > protocol.top_k());
        // The big list shares the candidate set, so the canonical list
        // is a subset of it.
        let canon = snap.recommend(&protocol, &base, user);
        assert!(canon.iter().all(|i| big.contains(i)));
    }

    #[test]
    fn generation_and_seed_are_preserved() {
        let base = toy();
        let snap = RankerSnapshot::new(fitted(&base), 3, 0xDEAD, base.num_users());
        assert_eq!(snap.generation(), 3);
        assert_eq!(snap.seed(), 0xDEAD);
        assert_eq!(snap.ranker_name(), "ItemPop");
        assert!(snap.knows_user(29));
        assert!(!snap.knows_user(30));
    }
}
