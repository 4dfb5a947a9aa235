//! CoVisitation: the item-based collaborative filter attacked by Yang
//! et al. (NDSS'17) and used as paper testbed #2. Consecutive clicks in
//! a session build an item-to-item co-visitation graph; a candidate is
//! scored by how often it co-occurs with the user's recent history.
//!
//! This ranker is *order-sensitive*: only adjacent clicks create edges,
//! which is exactly why sequence-aware attacks (alternating
//! target/popular clicks) beat bag-of-clicks attacks on it.

use std::collections::HashMap;

use crate::data::{ItemId, LogView, UserId};
use crate::rankers::Ranker;

/// How many trailing history items contribute to a user's score.
const HISTORY_WINDOW: usize = 10;

/// Item-to-item co-visitation ranker.
#[derive(Clone, Debug, Default)]
pub struct CoVisitation {
    /// `edges[a]` maps co-visited item `b` to the co-visit count.
    edges: Vec<HashMap<ItemId, f32>>,
    catalog: usize,
}

impl CoVisitation {
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_catalog(&mut self, catalog: usize) {
        if self.edges.len() < catalog {
            self.edges.resize_with(catalog, HashMap::new);
        }
        self.catalog = catalog;
    }

    fn add_sequence(&mut self, seq: &[ItemId]) {
        for pair in seq.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b {
                continue;
            }
            *self.edges[a as usize].entry(b).or_insert(0.0) += 1.0;
            *self.edges[b as usize].entry(a).or_insert(0.0) += 1.0;
        }
    }

    /// Co-visit count between two items.
    pub fn covisits(&self, a: ItemId, b: ItemId) -> f32 {
        self.edges
            .get(a as usize)
            .and_then(|m| m.get(&b))
            .copied()
            .unwrap_or(0.0)
    }
}

impl Ranker for CoVisitation {
    fn name(&self) -> &'static str {
        "CoVisitation"
    }

    fn fit(&mut self, view: &LogView<'_>, _seed: u64) {
        self.edges.clear();
        self.ensure_catalog(view.catalog() as usize);
        for user in 0..view.num_users() {
            self.add_sequence(view.sequence(user));
        }
    }

    fn fine_tune(&mut self, view: &LogView<'_>, _seed: u64) {
        // Incremental: the clean graph stays, poison edges are added.
        self.ensure_catalog(view.catalog() as usize);
        for traj in view.poison() {
            self.add_sequence(traj);
        }
    }

    fn score(&self, _user: UserId, history: &[ItemId], candidates: &[ItemId]) -> Vec<f32> {
        let recent = &history[history.len().saturating_sub(HISTORY_WINDOW)..];
        candidates
            .iter()
            .map(|&c| recent.iter().map(|&h| self.covisits(h, c)).sum())
            .collect()
    }

    fn boxed_clone(&self) -> Box<dyn Ranker> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;

    fn toy() -> Dataset {
        Dataset::from_histories(
            "toy",
            vec![vec![0, 1, 2, 3, 4], vec![0, 1, 3, 2], vec![2, 0, 1, 3]],
            5,
            2,
        )
    }

    #[test]
    fn edges_are_symmetric_counts() {
        let d = toy();
        let mut r = CoVisitation::new();
        r.fit(&LogView::clean(&d), 0);
        assert_eq!(r.covisits(0, 1), r.covisits(1, 0));
        // Train splits: [0,1,2], [0,1], [2,0] — the (0,1) edge occurs twice.
        assert_eq!(r.covisits(0, 1), 2.0);
        assert_eq!(r.covisits(0, 2), 1.0); // only from the [2,0] split
        assert_eq!(r.covisits(0, 3), 0.0);
    }

    #[test]
    fn self_loops_ignored() {
        let d = Dataset::from_histories("toy", vec![vec![0, 0, 0, 1, 2]], 3, 1);
        let mut r = CoVisitation::new();
        r.fit(&LogView::clean(&d), 0);
        assert_eq!(r.covisits(0, 0), 0.0);
    }

    #[test]
    fn alternating_poison_links_target_to_popular() {
        let d = toy();
        let mut r = CoVisitation::new();
        r.fit(&LogView::clean(&d), 0);
        // Alternate target 5 with popular item 1.
        let poison = vec![vec![5, 1, 5, 1, 5, 1]];
        let view = LogView::new(&d, &poison);
        r.fine_tune(&view, 0);
        // A user whose history contains item 1 now sees target 5 highly.
        let s = r.score(0, &[0, 1], &[2, 5, 6]);
        assert!(s[1] > s[0], "target should outrank organic item 2: {s:?}");
        assert_eq!(s[2], 0.0, "untouched target stays at zero");
    }

    #[test]
    fn burst_poison_without_adjacency_is_useless() {
        let d = toy();
        let mut r = CoVisitation::new();
        r.fit(&LogView::clean(&d), 0);
        // Clicking only the target never creates an edge to item 1.
        let poison = vec![vec![5; 20]];
        let view = LogView::new(&d, &poison);
        r.fine_tune(&view, 0);
        let s = r.score(0, &[0, 1], &[5]);
        assert_eq!(s[0], 0.0);
    }
}
