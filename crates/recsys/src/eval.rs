//! Evaluation protocol of the paper (§IV-A):
//!
//! * **Candidate generation** is random for efficiency: each
//!   recommendation draws 92 random original items plus the 8 target
//!   items into a 100-item candidate set.
//! * **Ranker** scores the candidates; the top `k = 10` become the
//!   recommendation list `L_u`.
//! * **RecNum** is `Σ_u |L_u ∩ I_t|` over the evaluated users.
//!
//! Candidate draws use *common random numbers*: the same
//! `(protocol seed, user)` always yields the same candidate set, so
//! RecNum differences between two attacks reflect the attacks, not
//! candidate-sampling noise. This matters for the RL reward signal.

use std::borrow::Cow;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::data::{Dataset, ItemId, UserId};
use crate::rankers::Ranker;

/// Fixed evaluation protocol: which users are polled and how candidate
/// sets are drawn.
///
/// The candidate set of every evaluation user is drawn once, at
/// construction, into one flat table (row `i` belongs to
/// `eval_users[i]`), so RecNum reads rows instead of re-drawing them on
/// every observation. Any other user is drawn on demand by the same
/// function, so a table row and an on-demand draw never differ.
#[derive(Clone)]
pub struct EvalProtocol {
    eval_users: Vec<UserId>,
    top_k: usize,
    n_original_candidates: usize,
    candidate_seed: u64,
    /// `|I|` and `|I_t|` of the dataset the table was drawn for; every
    /// read checks the caller's dataset against them.
    num_items: u32,
    num_targets: u32,
    /// `eval_users.len()` rows of [`EvalProtocol::row_len`] items each.
    table: Box<[ItemId]>,
}

impl EvalProtocol {
    /// Samples `n_users` distinct evaluation users (all users when
    /// `n_users >= num_users`) and draws their candidate sets. Each
    /// list is the top `top_k` of `n_original_candidates` random
    /// original items plus every target (the paper uses 10 and 92).
    /// `seed` fixes both the user sample and every candidate draw.
    ///
    /// # Panics
    ///
    /// If `n_users == 0`. RecNum over zero users is identically zero,
    /// so a zero here is always a caller bug; [`crate::system::SystemConfigBuilder`]
    /// rejects it as a [`crate::system::ConfigError`], and this
    /// assert keeps the direct-construction path honest instead of
    /// silently evaluating one user.
    pub fn sample(
        base: &Dataset,
        n_users: usize,
        top_k: usize,
        n_original_candidates: usize,
        seed: u64,
    ) -> Self {
        assert!(
            n_users > 0,
            "EvalProtocol::sample: n_users must be at least 1 \
             (SystemConfigBuilder rejects eval_users == 0 for the same reason)"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut users: Vec<UserId> = (0..base.num_users()).collect();
        users.shuffle(&mut rng);
        users.truncate(n_users);
        users.sort_unstable();
        let mut protocol = Self {
            eval_users: users,
            top_k,
            n_original_candidates,
            candidate_seed: seed,
            num_items: base.num_items(),
            num_targets: base.num_targets(),
            table: Box::default(),
        };
        let mut table = Vec::with_capacity(protocol.eval_users.len() * protocol.row_len());
        for &user in &protocol.eval_users {
            protocol.draw(user, &mut table);
        }
        protocol.table = table.into_boxed_slice();
        protocol
    }

    pub fn eval_users(&self) -> &[UserId] {
        &self.eval_users
    }

    pub fn top_k(&self) -> usize {
        self.top_k
    }

    /// Deterministic candidate set for `user`: `n_original_candidates`
    /// distinct original items plus every target item. Borrowed from
    /// the table for an evaluation user, drawn on demand otherwise.
    ///
    /// # Panics
    ///
    /// If `base` does not have the item and target counts the protocol
    /// was built for.
    pub fn candidates(&self, base: &Dataset, user: UserId) -> Cow<'_, [ItemId]> {
        self.check_shape(base);
        match self.eval_users.binary_search(&user) {
            Ok(i) => Cow::Borrowed(self.row(i)),
            Err(_) => {
                let mut drawn = Vec::with_capacity(self.row_len());
                self.draw(user, &mut drawn);
                Cow::Owned(drawn)
            }
        }
    }

    /// Items per candidate set: the original draw (capped by the
    /// catalog) plus every target.
    fn row_len(&self) -> usize {
        self.n_original_candidates.min(self.num_items as usize) + self.num_targets as usize
    }

    /// The table row of `eval_users[i]`.
    fn row(&self, i: usize) -> &[ItemId] {
        let len = self.row_len();
        &self.table[i * len..][..len]
    }

    /// Appends `user`'s candidate set to `out`. Common random numbers:
    /// the RNG depends only on `(protocol seed, user)`.
    ///
    /// Floyd's algorithm draws distinct items without materializing
    /// `0..|I|`. The membership test scans this draw's picks so far; a
    /// set holding the same picks would answer identically, so the
    /// `gen_range` calls and the picks are the same either way.
    fn draw(&self, user: UserId, out: &mut Vec<ItemId>) {
        let mut rng =
            StdRng::seed_from_u64(self.candidate_seed ^ (0x9E37_79B9 * u64::from(user) + 1));
        let total = self.num_items;
        let n = self.n_original_candidates.min(total as usize) as u32;
        let start = out.len();
        for j in (total - n)..total {
            let t = rng.gen_range(0..=j);
            let pick = if out[start..].contains(&t) { j } else { t };
            out.push(pick);
        }
        out.extend(total..total + self.num_targets);
    }

    /// Guards the table against a dataset it was not drawn for.
    fn check_shape(&self, base: &Dataset) {
        assert!(
            base.num_items() == self.num_items && base.num_targets() == self.num_targets,
            "EvalProtocol: candidate table drawn for {} items + {} targets, \
             called with a dataset of {} items + {} targets",
            self.num_items,
            self.num_targets,
            base.num_items(),
            base.num_targets()
        );
    }

    /// One recommendation list `L_u` for `user`.
    pub fn recommend(&self, ranker: &dyn Ranker, base: &Dataset, user: UserId) -> Vec<ItemId> {
        self.recommend_k(ranker, base, user, self.top_k)
    }

    /// [`EvalProtocol::recommend`] with an explicit list length `k`
    /// (the serving path lets clients ask for any `k`). The candidate
    /// set is the protocol's usual one; only the truncation differs.
    /// With distinct scores the result for `k <= top_k` equals the
    /// first `k` entries of [`EvalProtocol::recommend`]; exact score
    /// ties may select differently (selection among equals is
    /// arbitrary, though deterministic), which is why the serving
    /// cache answers small `k` by slicing its stored `top_k` list
    /// rather than recomputing (DESIGN.md §5e).
    pub fn recommend_k(
        &self,
        ranker: &dyn Ranker,
        base: &Dataset,
        user: UserId,
        k: usize,
    ) -> Vec<ItemId> {
        rank(ranker, base, user, &self.candidates(base, user), k)
    }

    /// `RecNum = Σ_u |L_u ∩ I_t|` over the protocol's users.
    pub fn rec_num(&self, ranker: &dyn Ranker, base: &Dataset) -> u32 {
        self.check_shape(base);
        let mut total = 0;
        for (i, &user) in self.eval_users.iter().enumerate() {
            let list = rank(ranker, base, user, self.row(i), self.top_k);
            total += list.iter().filter(|&&item| base.is_target(item)).count() as u32;
        }
        total
    }

    /// Maximum possible RecNum under this protocol
    /// (`eval_users * min(top_k, |I_t|)`).
    pub fn max_rec_num(&self, base: &Dataset) -> u32 {
        (self.eval_users.len() * self.top_k.min(base.num_targets() as usize)) as u32
    }
}

/// Shows the table's shape rather than its ids.
impl fmt::Debug for EvalProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalProtocol")
            .field("eval_users", &self.eval_users.len())
            .field("top_k", &self.top_k)
            .field("n_original_candidates", &self.n_original_candidates)
            .field("candidate_seed", &self.candidate_seed)
            .field("num_items", &self.num_items)
            .field("num_targets", &self.num_targets)
            .field(
                "table",
                &format_args!("{} rows x {} items", self.eval_users.len(), self.row_len()),
            )
            .finish()
    }
}

/// `user`'s top `k` of `candidates` under `ranker`.
fn rank(
    ranker: &dyn Ranker,
    base: &Dataset,
    user: UserId,
    candidates: &[ItemId],
    k: usize,
) -> Vec<ItemId> {
    let scores = ranker.score(user, base.sequence(user), candidates);
    top_k_items(candidates, &scores, k)
}

/// Indices of the `k` highest-scoring candidates, by score descending.
///
/// Empty candidates or `k == 0` yield an empty list. Scores compare
/// under the IEEE total order ([`f32::total_cmp`]), so the selection
/// is well-defined even for NaN scores (a NaN sorts above `+∞` and so
/// wins — a ranker emitting NaN is buggy, but selection stays
/// deterministic rather than undefined): the result always agrees
/// with sorting all candidates by score and truncating to `k`.
pub fn top_k_items(candidates: &[ItemId], scores: &[f32], k: usize) -> Vec<ItemId> {
    debug_assert_eq!(candidates.len(), scores.len());
    if k == 0 || candidates.is_empty() {
        // `select_nth_unstable_by(k - 1, ..)` below needs a valid
        // index: position 0 of an empty slice panics, and k == 0 would
        // partition the whole slice only to truncate everything away.
        return Vec::new();
    }
    let by_score_desc = |&a: &usize, &b: &usize| scores[b].total_cmp(&scores[a]);
    let mut idx: Vec<usize> = (0..candidates.len()).collect();
    let k = k.min(idx.len());
    idx.select_nth_unstable_by(k - 1, by_score_desc);
    idx.truncate(k);
    idx.sort_unstable_by(by_score_desc);
    idx.into_iter().map(|i| candidates[i]).collect()
}

/// Hit-rate@k on a hold-out split: the held-out item competes against
/// `n_negatives` random unseen items; a hit is scored when it lands in
/// the top-k. Used to verify every ranker actually recommends.
///
/// The negatives are drawn *distinct* by rejection sampling, so the
/// catalog can supply at most `num_items - 1` of them (every original
/// item except the held-out one). Larger requests are clamped to that
/// bound — without the clamp the sampler would spin forever on small
/// catalogs — which only makes the measurement easier (fewer
/// competitors), never wrong.
pub fn hit_rate_at_k(
    ranker: &dyn Ranker,
    base: &Dataset,
    holdout: &[(UserId, ItemId)],
    k: usize,
    n_negatives: usize,
    seed: u64,
) -> f64 {
    if holdout.is_empty() {
        return 0.0;
    }
    let n_negatives = n_negatives.min((base.num_items() as usize).saturating_sub(1));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = 0usize;
    for &(user, held) in holdout {
        let mut candidates = Vec::with_capacity(n_negatives + 1);
        candidates.push(held);
        while candidates.len() < n_negatives + 1 {
            let item = rng.gen_range(0..base.num_items());
            if item != held && !candidates.contains(&item) {
                candidates.push(item);
            }
        }
        let scores = ranker.score(user, base.sequence(user), &candidates);
        let top = top_k_items(&candidates, &scores, k);
        if top.contains(&held) {
            hits += 1;
        }
    }
    hits as f64 / holdout.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LogView;

    /// Scores items by id, higher id wins.
    #[derive(Clone)]
    struct IdRanker;
    impl Ranker for IdRanker {
        fn name(&self) -> &'static str {
            "id"
        }
        fn fit(&mut self, _view: &LogView<'_>, _seed: u64) {}
        fn fine_tune(&mut self, _view: &LogView<'_>, _seed: u64) {}
        fn score(&self, _u: UserId, _h: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
            candidates.iter().map(|&c| c as f32).collect()
        }
        fn boxed_clone(&self) -> Box<dyn Ranker> {
            Box::new(self.clone())
        }
    }

    fn toy() -> Dataset {
        let histories = (0..20)
            .map(|u| vec![u % 50, (u + 1) % 50, (u + 2) % 50, (u + 3) % 50])
            .collect();
        Dataset::from_histories("toy", histories, 50, 8)
    }

    #[test]
    fn candidates_are_deterministic_and_distinct() {
        let d = toy();
        let p = EvalProtocol::sample(&d, 10, 10, 30, 7);
        let c1 = p.candidates(&d, 3);
        let c2 = p.candidates(&d, 3);
        assert_eq!(c1, c2, "common random numbers violated");
        let c3 = p.candidates(&d, 4);
        assert_ne!(c1, c3, "different users should draw different candidates");
        let mut originals: Vec<_> = c1.iter().filter(|&&i| !d.is_target(i)).collect();
        let before = originals.len();
        originals.sort_unstable();
        originals.dedup();
        assert_eq!(before, originals.len(), "duplicate original candidates");
        assert_eq!(c1.iter().filter(|&&i| d.is_target(i)).count(), 8);
    }

    /// The candidate draw as it stood before the table: Floyd's
    /// algorithm with a fresh `HashSet` per call.
    fn hashset_draw(seed: u64, base: &Dataset, n: usize, user: UserId) -> Vec<ItemId> {
        let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37_79B9 * u64::from(user) + 1));
        let n = n.min(base.num_items() as usize);
        let mut picked = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let total = base.num_items();
        for j in (total - n as u32)..total {
            let t = rng.gen_range(0..=j);
            let pick = if seen.contains(&t) { j } else { t };
            seen.insert(pick);
            picked.push(pick);
        }
        picked.extend(base.target_items());
        picked
    }

    #[test]
    fn table_rows_and_on_demand_draws_match_the_hashset_draw() {
        let d = toy();
        let last = d.num_users() - 1;
        // 30 of 50 items, and 60 (the whole catalog, where most draws
        // collide and take the `pick = j` branch).
        for n in [30, 60] {
            let p = EvalProtocol::sample(&d, 10, 10, n, 3);
            assert!(
                !p.eval_users().contains(&0) && !p.eval_users().contains(&last),
                "the first and last users must exercise the on-demand draw"
            );
            for (i, &user) in p.eval_users().iter().enumerate() {
                let fresh = hashset_draw(3, &d, n, user);
                assert_eq!(p.row(i), fresh, "row {i} (user {user}), n {n}");
                let read = p.candidates(&d, user);
                assert!(
                    matches!(read, Cow::Borrowed(_)),
                    "user {user} not read from the table"
                );
                assert_eq!(read, fresh, "user {user}, n {n}");
            }
            // Every other user, attacker ids past the organic range too.
            for user in (0..d.num_users() + 5).filter(|u| !p.eval_users().contains(u)) {
                let read = p.candidates(&d, user);
                assert!(
                    matches!(read, Cow::Owned(_)),
                    "user {user} read from the table"
                );
                assert_eq!(read, hashset_draw(3, &d, n, user), "user {user}, n {n}");
            }
        }
    }

    /// Scores items by id and records every candidate set it is given.
    #[derive(Default)]
    struct RecordingRanker(std::sync::Mutex<Vec<Vec<ItemId>>>);
    impl Ranker for RecordingRanker {
        fn name(&self) -> &'static str {
            "recording"
        }
        fn fit(&mut self, _view: &LogView<'_>, _seed: u64) {}
        fn fine_tune(&mut self, _view: &LogView<'_>, _seed: u64) {}
        fn score(&self, _u: UserId, _h: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
            self.0.lock().unwrap().push(candidates.to_vec());
            candidates.iter().map(|&c| c as f32).collect()
        }
        fn boxed_clone(&self) -> Box<dyn Ranker> {
            Box::new(RecordingRanker::default())
        }
    }

    #[test]
    fn every_read_path_scores_the_table_row() {
        let d = toy();
        let p = EvalProtocol::sample(&d, 10, 10, 30, 3);
        let ranker = RecordingRanker::default();
        p.rec_num(&ranker, &d);
        for (i, &user) in p.eval_users().iter().enumerate() {
            p.recommend(&ranker, &d, user);
            p.recommend_k(&ranker, &d, user, p.top_k() + 5);
            let seen = ranker.0.lock().unwrap();
            assert_eq!(seen[i], p.row(i), "rec_num, user {user}");
            let tail = &seen[seen.len() - 2..];
            assert_eq!(tail[0], p.row(i), "recommend, user {user}");
            assert_eq!(tail[1], p.row(i), "recommend_k beyond top_k, user {user}");
        }
    }

    #[test]
    #[should_panic(expected = "candidate table drawn for 50 items + 8 targets, \
                               called with a dataset of 50 items + 4 targets")]
    fn protocol_rejects_a_dataset_of_another_shape() {
        let d = toy();
        let p = EvalProtocol::sample(&d, 10, 10, 30, 3);
        let histories = (0..20)
            .map(|u| vec![u % 50, (u + 1) % 50, (u + 2) % 50])
            .collect();
        let other = Dataset::from_histories("other", histories, 50, 4);
        let _ = p.rec_num(&IdRanker, &other);
    }

    #[test]
    fn debug_summarizes_the_table() {
        let p = EvalProtocol::sample(&toy(), 10, 10, 30, 3);
        let shown = format!("{p:?}");
        assert!(shown.contains("table: 10 rows x 38 items"), "{shown}");
        assert!(shown.len() < 300, "{shown}");
    }

    #[test]
    fn id_ranker_always_recommends_targets() {
        // Targets have the highest ids, so IdRanker puts all 8 in top-10.
        let d = toy();
        let p = EvalProtocol::sample(&d, 10, 10, 92, 7);
        let rn = p.rec_num(&IdRanker, &d);
        assert_eq!(rn, 80);
        assert_eq!(p.max_rec_num(&d), 80);
    }

    #[test]
    fn top_k_orders_by_score() {
        let items = vec![10, 20, 30, 40];
        let scores = vec![0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_items(&items, &scores, 2), vec![20, 40]);
        assert_eq!(top_k_items(&items, &scores, 10).len(), 4);
    }

    #[test]
    fn top_k_of_empty_or_zero_k_is_empty() {
        // Regression: `select_nth_unstable_by(k - 1, ..)` used to index
        // position 0 of the empty index slice and panic.
        assert_eq!(top_k_items(&[], &[], 5), Vec::<u32>::new());
        assert_eq!(top_k_items(&[], &[], 0), Vec::<u32>::new());
        let items = vec![1, 2, 3];
        let scores = vec![0.5, 0.1, 0.9];
        assert_eq!(top_k_items(&items, &scores, 0), Vec::<u32>::new());
    }

    #[test]
    fn recommend_with_zero_top_k_is_empty() {
        // The k == 0 early return reached through the protocol path.
        let d = toy();
        let p = EvalProtocol::sample(&d, 10, 0, 30, 7);
        assert_eq!(p.recommend(&IdRanker, &d, 3), Vec::<u32>::new());
        assert_eq!(p.rec_num(&IdRanker, &d), 0);
        assert_eq!(p.max_rec_num(&d), 0);
    }

    #[test]
    #[should_panic(expected = "n_users must be at least 1")]
    fn protocol_rejects_zero_users() {
        // Regression: `n_users.max(1)` used to silently evaluate one
        // user, contradicting SystemConfigBuilder's eval_users check.
        let d = toy();
        let _ = EvalProtocol::sample(&d, 0, 10, 92, 7);
    }

    #[test]
    fn hit_rate_terminates_on_tiny_catalogs() {
        // Regression: asking for more distinct negatives than the
        // catalog holds spun the rejection sampler forever.
        let histories = (0..6)
            .map(|u| vec![u % 3, (u + 1) % 3, (u + 2) % 3])
            .collect();
        let d = Dataset::from_histories("tiny", histories, 3, 1);
        let holdout = d.test().pairs.clone();
        assert!(!holdout.is_empty());
        // 50 negatives requested, at most 2 available: must clamp and
        // finish. With every item in each candidate set, the IdRanker's
        // hit rate is exact: a hit iff the held item is a top-k id.
        let hr = hit_rate_at_k(&IdRanker, &d, &holdout, 3, 50, 11);
        assert_eq!(hr, 1.0, "k covers the whole 3-item catalog");
        let hr1 = hit_rate_at_k(&IdRanker, &d, &holdout, 1, 50, 11);
        let expected =
            holdout.iter().filter(|&&(_, held)| held == 2).count() as f64 / holdout.len() as f64;
        assert_eq!(hr1, expected);
    }

    #[test]
    fn hit_rate_of_perfect_ranker() {
        let d = toy();
        // A ranker that always scores the held-out item highest.
        #[derive(Clone)]
        struct Oracle(Vec<(UserId, ItemId)>);
        impl Ranker for Oracle {
            fn name(&self) -> &'static str {
                "oracle"
            }
            fn fit(&mut self, _v: &LogView<'_>, _s: u64) {}
            fn fine_tune(&mut self, _v: &LogView<'_>, _s: u64) {}
            fn score(&self, u: UserId, _h: &[ItemId], c: &[ItemId]) -> Vec<f32> {
                let held = self.0.iter().find(|&&(hu, _)| hu == u).map(|&(_, i)| i);
                c.iter()
                    .map(|&i| if Some(i) == held { 1.0 } else { 0.0 })
                    .collect()
            }
            fn boxed_clone(&self) -> Box<dyn Ranker> {
                Box::new(self.clone())
            }
        }
        let holdout = d.test().pairs.clone();
        let hr = hit_rate_at_k(&Oracle(holdout.clone()), &d, &holdout, 10, 20, 3);
        assert_eq!(hr, 1.0);
    }
}
