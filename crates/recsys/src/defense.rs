//! Defense-side extension: fake-account detection as a layered,
//! deterministic admission subsystem.
//!
//! The paper attacks undefended systems; the natural extension study
//! (and the obvious follow-up for a production team) is how much of
//! the attack survives online injection filtering. The module grows in
//! three tiers:
//!
//! * **The detector** — [`LofDetector`], the ARLib-standard gray-box
//!   countermeasure: a k-NN Local-Outlier-Factor over behavioral
//!   features, scoring each click sequence (higher = more suspicious).
//! * **The layered stack** — [`DefenseStack`] composes a calibrated
//!   detector with a session-length token bucket, a decaying
//!   reputation score, and an adaptive threshold ladder driven by an
//!   always-on [`Cusum`] drift detector (the metrics plane's CUSUM
//!   machine, owned directly so no metrics toggle can gate it),
//!   yielding one [`Verdict`] per incoming trajectory. Everything is
//!   calibrated *before* deployment on organic data; online adaptation
//!   only moves an index into the precomputed ladder, which is what
//!   keeps defended runs bit-identical local vs wire and at any thread
//!   count.
//! * **The defended victim** — [`DefendedSystem`] wraps a
//!   [`BlackBoxSystem`] so `run_attack` (and the serving layer, which
//!   embeds the same stack at `POST /feedback` admission) evaluates
//!   the attack zoo against a hardening victim. The defense sees only
//!   what a real black-box victim sees: trajectory content, in
//!   arrival order.
//!
//! The detector flags outliers against the *organic* distribution
//! (empirical quantiles over the base users), so it needs no labeled
//! attack data.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::data::{Dataset, ItemId, Trajectory};
use crate::system::{
    BlackBoxSystem, ConfigError, ObservableSystem, Observation, PublicInfo, SystemConfig,
};
use telemetry::stream::Cusum;
use tensor::wire::{Reader, WireError, Writer};

/// Number of behavioral features the LOF detector embeds a session
/// into: popularity mean, popularity spread, cold-item fraction,
/// session entropy, co-visitation affinity.
const LOF_DIM: usize = 5;

/// k-NN Local-Outlier-Factor over per-user behavior features — the
/// standard gray-box countermeasure in attack-defense benchmark
/// suites. Each click sequence is embedded into a small feature
/// vector:
///
/// 1. mean `log(1+popularity)` of the clicked items (attackers click
///    cold targets, dragging this down);
/// 2. standard deviation of the same (target-heavy sessions are
///    bimodal: filler popular + cold targets);
/// 3. cold-item fraction (clicks at or below the catalog's 10th
///    popularity percentile);
/// 4. within-session entropy of the click distribution, normalized by
///    session length (repetitive sessions score low);
/// 5. mean co-visitation affinity of consecutive click pairs, from a
///    pair-count map built once over the organic log (attack sessions
///    chain item pairs organic users never chain).
///
/// Fitting z-normalizes features over the organic users and
/// precomputes each organic point's k-nearest neighbors, k-distance,
/// and local reachability density, plus every organic user's own
/// score; scoring a query is one exact k-NN search of a k-d tree over
/// the organic points. Neighborhoods are ordered by `(distance,
/// organic user id)` (distance via `total_cmp`), and every feature
/// sums in a fixed order, so scores are bit-stable across fits,
/// platforms and run orders.
pub struct LofDetector {
    k: usize,
    /// `log(1+pop)` at or below this marks an item "cold".
    cold_cutoff_log: f64,
    log_pop: Vec<f64>,
    /// Co-visitation counts over unordered consecutive organic pairs.
    pairs: HashMap<(ItemId, ItemId), u32>,
    feat_mean: [f64; LOF_DIM],
    feat_dev: [f64; LOF_DIM],
    /// Normalized organic feature points, indexed by user id.
    points: Vec<[f64; LOF_DIM]>,
    /// Exact k-d tree over `points`: derived from them in `fit` and
    /// never serialized.
    tree: KdTree,
    kdist: Vec<f64>,
    lrd: Vec<f64>,
    /// Every organic user's score, sorted by `total_cmp`: the
    /// empirical distribution [`LofDetector::threshold`] reads.
    organic_scores: Vec<f64>,
}

impl LofDetector {
    /// Default neighborhood size.
    pub const DEFAULT_K: usize = 10;

    /// Fits the detector on the organic users of `base`.
    pub fn fit(base: &Dataset, k: usize) -> Self {
        let pop = base.popularity();
        let log_pop: Vec<f64> = pop.iter().map(|&p| (1.0 + f64::from(p)).ln()).collect();
        let mut sorted: Vec<u32> = pop[..base.num_items() as usize].to_vec();
        sorted.sort_unstable();
        let cutoff_idx = ((0.1 * sorted.len() as f64) as usize).min(sorted.len().saturating_sub(1));
        let cold_cutoff_log = (1.0 + f64::from(sorted[cutoff_idx])).ln();

        let mut pairs: HashMap<(ItemId, ItemId), u32> = HashMap::new();
        for u in 0..base.num_users() {
            for w in base.sequence(u).windows(2) {
                let key = (w[0].min(w[1]), w[0].max(w[1]));
                *pairs.entry(key).or_insert(0) += 1;
            }
        }

        let mut detector = Self {
            k: k.max(1),
            cold_cutoff_log,
            log_pop,
            pairs,
            feat_mean: [0.0; LOF_DIM],
            feat_dev: [1.0; LOF_DIM],
            points: Vec::new(),
            tree: KdTree::build(&[]),
            kdist: Vec::new(),
            lrd: Vec::new(),
            organic_scores: Vec::new(),
        };

        let raw: Vec<[f64; LOF_DIM]> = (0..base.num_users())
            .map(|u| detector.raw_features(base.sequence(u)))
            .collect();
        let n = raw.len().max(1) as f64;
        for d in 0..LOF_DIM {
            let mean = raw.iter().map(|f| f[d]).sum::<f64>() / n;
            let var = raw.iter().map(|f| (f[d] - mean).powi(2)).sum::<f64>() / n;
            detector.feat_mean[d] = mean;
            detector.feat_dev[d] = var.sqrt().max(1e-9);
        }
        detector.points = raw.iter().map(|f| detector.normalize(*f)).collect();
        detector.tree = KdTree::build(&detector.points);

        // Classic LOF precomputation: k-distance then local
        // reachability density, each point's own slot excluded from
        // its neighborhood.
        let neighborhoods: Vec<Vec<(f64, usize)>> = (0..detector.points.len())
            .map(|i| detector.nearest(&detector.points[i], Some(i)))
            .collect();
        detector.kdist = neighborhoods
            .iter()
            .map(|n| n.last().map_or(0.0, |&(d, _)| d))
            .collect();
        detector.lrd = neighborhoods.iter().map(|n| detector.density(n)).collect();
        // Each organic user's score, from the neighborhood just found
        // rather than a second k-NN pass.
        let mut scores: Vec<f64> = neighborhoods
            .into_iter()
            .enumerate()
            .map(|(u, neigh)| detector.organic_score(u, neigh))
            .collect();
        scores.sort_by(f64::total_cmp);
        detector.organic_scores = scores;
        detector
    }

    fn raw_features(&self, sequence: &[ItemId]) -> [f64; LOF_DIM] {
        if sequence.is_empty() {
            return [0.0; LOF_DIM];
        }
        let n = sequence.len() as f64;
        let lp: Vec<f64> = sequence
            .iter()
            .map(|&i| self.log_pop.get(i as usize).copied().unwrap_or(0.0))
            .collect();
        let mean = lp.iter().sum::<f64>() / n;
        let var = lp.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let cold = lp.iter().filter(|&&x| x <= self.cold_cutoff_log).count() as f64 / n;

        // Item frequencies as runs of a sorted copy, so the entropy sum
        // adds its terms in one fixed order; a hash map iterates in a
        // per-instance order, and two fits would disagree in the last
        // bits.
        let mut sorted = sequence.to_vec();
        sorted.sort_unstable();
        let entropy: f64 = sorted
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let p = run.len() as f64 / n;
                -p * p.ln()
            })
            .sum();
        let entropy = entropy / (n.max(2.0)).ln();

        let mut affinity = 0.0;
        let mut m = 0u32;
        for w in sequence.windows(2) {
            let key = (w[0].min(w[1]), w[0].max(w[1]));
            affinity += (1.0 + f64::from(self.pairs.get(&key).copied().unwrap_or(0))).ln();
            m += 1;
        }
        let affinity = if m > 0 { affinity / f64::from(m) } else { 0.0 };

        [mean, var.sqrt(), cold, entropy, affinity]
    }

    fn normalize(&self, raw: [f64; LOF_DIM]) -> [f64; LOF_DIM] {
        let mut out = [0.0; LOF_DIM];
        for d in 0..LOF_DIM {
            out[d] = (raw[d] - self.feat_mean[d]) / self.feat_dev[d];
        }
        out
    }

    /// The k nearest organic points to `query`, sorted by
    /// `(distance, user id)` — the user-id tie-break is what makes
    /// neighborhoods (and therefore scores) deterministic when
    /// distances collide. The order is total and the tree search is
    /// exact, so this is exactly a full sort truncated to k.
    fn nearest(&self, query: &[f64; LOF_DIM], skip: Option<usize>) -> Vec<(f64, usize)> {
        self.tree.nearest(query, skip, self.k)
    }

    /// Organic user `u`'s score from its neighborhood with `u` itself
    /// skipped. The unskipped neighborhood is the k smallest of that
    /// set plus `u`'s own entry, so merging the entry in by the same
    /// order gives the neighborhood [`LofDetector::score`] would find.
    fn organic_score(&self, u: usize, mut neigh: Vec<(f64, usize)>) -> f64 {
        let own = &self.points[u];
        keep_nearest(&mut neigh, self.k, (distance(own, own), u));
        self.lof(&neigh)
    }

    /// Local reachability density of a point with neighborhood `neigh`.
    fn density(&self, neigh: &[(f64, usize)]) -> f64 {
        let reach: f64 = neigh.iter().map(|&(d, j)| d.max(self.kdist[j])).sum();
        neigh.len() as f64 / reach.max(1e-12)
    }

    /// The local outlier factor of a query with neighborhood `neigh`.
    fn lof(&self, neigh: &[(f64, usize)]) -> f64 {
        let lrd_q = self.density(neigh);
        let lrd_sum: f64 = neigh.iter().map(|&(_, j)| self.lrd[j]).sum();
        lrd_sum / (neigh.len() as f64 * lrd_q).max(1e-12)
    }

    /// Scores one click sequence; higher = more suspicious.
    pub fn score(&self, sequence: &[ItemId]) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let query = self.normalize(self.raw_features(sequence));
        self.lof(&self.nearest(&query, None))
    }

    /// Decision threshold calibrated so that at most `fpr` of organic
    /// users would be flagged (empirical quantile over the base users).
    ///
    /// # Panics
    /// If `fpr` is not finite, or the detector was fit on no users.
    pub fn threshold(&self, fpr: f64) -> f64 {
        assert!(
            fpr.is_finite(),
            "LOF threshold needs a finite fpr, got {fpr}"
        );
        let scores = &self.organic_scores;
        assert!(!scores.is_empty(), "LOF threshold needs organic users");
        let idx =
            (((1.0 - fpr.clamp(0.0, 1.0)) * scores.len() as f64) as usize).min(scores.len() - 1);
        scores[idx]
    }
}

/// Euclidean distance between two feature points, summed in dimension
/// order. A NaN distance (from a NaN or infinite feature) comes back
/// with its sign bit clear, so `total_cmp` sorts it after every number:
/// the sign of a computed NaN follows operand order in the generated
/// code, so a raw one could sort first in one build and last in another.
/// The sign is cleared with `abs`, a bit operation, because the
/// optimizer folds a value test such as `if d.is_nan() { NAN } else
/// { d }` away. A sum of squares is at least +0, so `abs` leaves every
/// number as it is.
fn distance(a: &[f64; LOF_DIM], b: &[f64; LOF_DIM]) -> f64 {
    let d2: f64 = (0..LOF_DIM).map(|d| (a[d] - b[d]).powi(2)).sum();
    d2.sqrt().abs()
}

/// Most points a [`KdTree`] leaf holds.
const LEAF_SIZE: usize = 8;

/// An exact k-d tree over the organic feature points. Each inner node
/// splits its points at the median of its widest axis, ordered by
/// `(total_cmp coordinate, id)`; leaves hold at most [`LEAF_SIZE`]
/// points. A search visits the near side first, then skips the far
/// side only when the split plane's bound `sqrt((q[a] - split)^2)` is
/// strictly greater than the current k-th distance. That bound never
/// exceeds the computed [`distance`] to a point behind the plane (float
/// subtraction and squaring are monotone in |x|, a float sum of
/// non-negative terms is at least each term, and `sqrt` is monotone),
/// so a skipped point could not have entered; a point at exactly the
/// k-th distance with a smaller id is still visited. A NaN bound or
/// k-th distance compares false, so it never skips, and a point with a
/// NaN coordinate lies at a NaN distance, which sorts after every
/// number whichever side of a split it is on. Leaves offer their
/// points through [`keep_nearest`], so the result is exactly the full
/// sort by [`by_distance`] truncated to k.
struct KdTree {
    nodes: Vec<KdNode>,
    /// Point ids in tree order: each node covers one contiguous run.
    ids: Vec<usize>,
    /// The points in the same order, so a leaf reads one run.
    points: Vec<[f64; LOF_DIM]>,
}

enum KdNode {
    /// Tree-order positions `start..end`.
    Leaf { start: usize, end: usize },
    /// Points below the median on `axis` lie in the next node, the rest
    /// (from the median point, whose coordinate is `split`) in `right`.
    Split {
        axis: usize,
        split: f64,
        right: usize,
    },
}

impl KdTree {
    fn build(points: &[[f64; LOF_DIM]]) -> Self {
        let mut ids: Vec<usize> = (0..points.len()).collect();
        let mut nodes = Vec::new();
        Self::build_node(points, &mut ids, 0, &mut nodes);
        let points = ids.iter().map(|&j| points[j]).collect();
        Self { nodes, ids, points }
    }

    /// Appends the subtree over `ids` (tree-order positions from
    /// `start`), its root first.
    fn build_node(
        points: &[[f64; LOF_DIM]],
        ids: &mut [usize],
        start: usize,
        nodes: &mut Vec<KdNode>,
    ) {
        if ids.len() <= LEAF_SIZE {
            nodes.push(KdNode::Leaf {
                start,
                end: start + ids.len(),
            });
            return;
        }
        let axis = widest_axis(points, ids);
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            points[a][axis].total_cmp(&points[b][axis]).then(a.cmp(&b))
        });
        let split = points[ids[mid]][axis];
        let at = nodes.len();
        nodes.push(KdNode::Split {
            axis,
            split,
            right: 0,
        });
        let (left, right) = ids.split_at_mut(mid);
        Self::build_node(points, left, start, nodes);
        let right_at = nodes.len();
        if let KdNode::Split { right, .. } = &mut nodes[at] {
            *right = right_at;
        }
        Self::build_node(points, right, start + mid, nodes);
    }

    /// The k nearest points to `query` other than `skip`, in
    /// [`by_distance`] order.
    fn nearest(&self, query: &[f64; LOF_DIM], skip: Option<usize>, k: usize) -> Vec<(f64, usize)> {
        let mut best = Vec::with_capacity(k);
        self.search(0, query, skip, k, &mut best);
        best
    }

    fn search(
        &self,
        node: usize,
        query: &[f64; LOF_DIM],
        skip: Option<usize>,
        k: usize,
        best: &mut Vec<(f64, usize)>,
    ) {
        match self.nodes[node] {
            KdNode::Leaf { start, end } => {
                for (p, &j) in self.points[start..end].iter().zip(&self.ids[start..end]) {
                    if Some(j) != skip {
                        keep_nearest(best, k, (distance(query, p), j));
                    }
                }
            }
            KdNode::Split { axis, split, right } => {
                let (near, far) = if query[axis] < split {
                    (node + 1, right)
                } else {
                    (right, node + 1)
                };
                self.search(near, query, skip, k, best);
                let bound = (query[axis] - split).powi(2).sqrt();
                let beyond_kth = best.len() >= k && best.last().is_some_and(|&(d, _)| bound > d);
                if !beyond_kth {
                    self.search(far, query, skip, k, best);
                }
            }
        }
    }
}

/// The axis along which `ids`' points spread widest (the first such
/// axis on a tie; an axis whose spread is NaN never wins).
fn widest_axis(points: &[[f64; LOF_DIM]], ids: &[usize]) -> usize {
    let spread = |axis: usize| {
        let (lo, hi) = ids
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &j| {
                (lo.min(points[j][axis]), hi.max(points[j][axis]))
            });
        hi - lo
    };
    (0..LOF_DIM)
        .map(|axis| (axis, spread(axis)))
        .fold((0, f64::NEG_INFINITY), |widest, (axis, s)| {
            if s > widest.1 {
                (axis, s)
            } else {
                widest
            }
        })
        .0
}

/// The neighborhood order: distance by `total_cmp`, then user id.
fn by_distance(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Offers `cand` to `best`, which holds at most `k` entries sorted by
/// [`by_distance`]: a candidate not below the current k-th is dropped,
/// any other is inserted in order and evicts the k-th if full.
fn keep_nearest(best: &mut Vec<(f64, usize)>, k: usize, cand: (f64, usize)) {
    if best.len() >= k {
        match best.last() {
            Some(last) if by_distance(&cand, last).is_lt() => {
                best.pop();
            }
            _ => return,
        }
    }
    let at = best.partition_point(|e| by_distance(e, &cand).is_lt());
    best.insert(at, cand);
}

/// Writes the six state fields of the defense's drift detector, in the
/// checkpoint's field order.
fn put_cusum(w: &mut Writer, c: &Cusum) {
    w.put_u64(c.n);
    w.put_f64(c.mean);
    w.put_f64(c.var);
    w.put_f64(c.s_pos);
    w.put_f64(c.s_neg);
    w.put_u64(c.alarms);
}

/// Reads what [`put_cusum`] wrote into a default-configured detector.
fn get_cusum(r: &mut Reader) -> Result<Cusum, WireError> {
    let mut c = Cusum::default();
    c.n = r.get_u64("cusum n")?;
    c.mean = r.get_f64("cusum mean")?;
    c.var = r.get_f64("cusum var")?;
    c.s_pos = r.get_f64("cusum s_pos")?;
    c.s_neg = r.get_f64("cusum s_neg")?;
    c.alarms = r.get_u64("cusum alarms")?;
    Ok(c)
}

/// Admission decision for one incoming trajectory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Passed every layer; the trajectory enters the feedback queue.
    Admit,
    /// The calibrated detector flagged it as an outlier.
    Flag,
    /// The session overdrew its token bucket (too many clicks for one
    /// account).
    RateLimit,
    /// Source reputation fell below the floor and the score cleared
    /// the (looser) throttle threshold.
    Throttle,
}

impl Verdict {
    pub const ALL: [Verdict; 4] = [
        Verdict::Admit,
        Verdict::Flag,
        Verdict::RateLimit,
        Verdict::Throttle,
    ];

    /// Stable label, used as a metrics/label/log vocabulary.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Admit => "admit",
            Verdict::Flag => "flag",
            Verdict::RateLimit => "rate_limit",
            Verdict::Throttle => "throttle",
        }
    }
}

/// Cumulative verdict tally of a [`DefenseStack`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerdictCounts {
    pub admitted: u64,
    pub flagged: u64,
    pub rate_limited: u64,
    pub throttled: u64,
}

impl VerdictCounts {
    /// Total trajectories judged.
    pub fn offered(&self) -> u64 {
        self.admitted + self.flagged + self.rate_limited + self.throttled
    }

    /// Total trajectories rejected by any layer.
    pub fn rejected(&self) -> u64 {
        self.offered() - self.admitted
    }
}

/// Which defense layers a victim deploys.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefenseKind {
    /// Undefended baseline.
    None,
    /// LOF detector at a frozen FPR-calibrated threshold.
    Lof,
    /// Token bucket + reputation layers only (no direct flagging).
    Reputation,
    /// LOF detector whose threshold ladder escalates on CUSUM alarms.
    Adaptive,
    /// All layers.
    Full,
}

impl DefenseKind {
    pub const ALL: [DefenseKind; 5] = [
        DefenseKind::None,
        DefenseKind::Lof,
        DefenseKind::Reputation,
        DefenseKind::Adaptive,
        DefenseKind::Full,
    ];

    pub fn label(self) -> &'static str {
        match self {
            DefenseKind::None => "none",
            DefenseKind::Lof => "lof",
            DefenseKind::Reputation => "reputation",
            DefenseKind::Adaptive => "adaptive",
            DefenseKind::Full => "full",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.label() == s)
    }
}

/// Thresholds per ladder rung; rung `i` is calibrated at
/// `fpr · 2^i` (capped at 0.5), so escalation trades organic FPR for
/// recall in precomputed, deterministic steps.
const LADDER_RUNGS: usize = 4;
/// Reputation below this floor arms the throttle layer.
const REPUTATION_FLOOR: f64 = 0.5;
/// Multiplicative reputation decay when a score clears the monitor
/// threshold (the base-FPR organic quantile).
const REPUTATION_DECAY_MONITOR: f64 = 0.9;
/// Multiplicative reputation decay when the CUSUM alarms.
const REPUTATION_DECAY_ALARM: f64 = 0.5;
/// Additive reputation recovery on a clean observation.
const REPUTATION_RECOVERY: f64 = 0.02;
/// Token-bucket capacity = this many × the longest organic session.
const BUCKET_SLACK: usize = 2;

/// Parses a calibration false-positive-rate target, which must be a
/// number strictly between 0 and 1. NaN would otherwise calibrate at
/// the minimum organic score and flag nearly all traffic.
pub fn parse_fpr(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(fpr) if fpr > 0.0 && fpr < 1.0 => Ok(fpr),
        _ => Err(format!(
            "false-positive-rate target {raw:?} is not a number strictly between 0 and 1"
        )),
    }
}

/// Mutable, checkpointable state of a [`DefenseStack`].
#[derive(Clone, Debug)]
struct DefenseState {
    /// Current rung of the threshold ladder.
    level: u32,
    /// Source-population trust in `[0, 1]`.
    reputation: f64,
    /// Always-on drift detector over the score stream: unlike the
    /// metrics plane's `DriftDetector`, it has no enable switch, so
    /// verdicts never depend on the telemetry toggle.
    cusum: Cusum,
    counts: VerdictCounts,
}

/// The layered online defense: token bucket → detector threshold
/// ladder → reputation throttle, one [`Verdict`] per trajectory.
///
/// **Calibration before deployment**: every threshold (all ladder
/// rungs, the throttle quantile, the bucket capacity) is computed from
/// organic data when the stack is built. The online layers mutate only
/// an integer ladder index, a reputation scalar, and CUSUM sums — all
/// pure functions of the judged trajectory contents in admission
/// order, never of wall-clock time, thread interleaving, or the
/// telemetry toggle. That is the entire determinism argument: local
/// and wire runs judge the same trajectories in the same order, so
/// they transition through bit-identical states.
pub struct DefenseStack {
    detector: LofDetector,
    kind: DefenseKind,
    fpr: f64,
    ladder: Vec<f64>,
    throttle_threshold: f64,
    monitor_threshold: f64,
    bucket_capacity: usize,
    detector_on: bool,
    rate_on: bool,
    reputation_on: bool,
    adaptive_on: bool,
    state: DefenseState,
}

impl DefenseStack {
    /// Builds and calibrates the stack for `kind` on the organic data
    /// of `base`. Returns `None` for [`DefenseKind::None`].
    pub fn build(kind: DefenseKind, base: &Dataset, fpr: f64) -> Option<Self> {
        if kind == DefenseKind::None {
            return None;
        }
        let detector = LofDetector::fit(base, LofDetector::DEFAULT_K);
        let ladder: Vec<f64> = (0..LADDER_RUNGS)
            .map(|i| detector.threshold((fpr * f64::from(1u32 << i)).min(0.5)))
            .collect();
        let throttle_threshold = detector.threshold((fpr * 2.0).min(0.5));
        let monitor_threshold = ladder[0];
        let longest_organic = (0..base.num_users())
            .map(|u| base.sequence(u).len())
            .max()
            .unwrap_or(1)
            .max(1);
        let (detector_on, rate_on, reputation_on, adaptive_on) = match kind {
            DefenseKind::None => unreachable!(),
            DefenseKind::Lof => (true, false, false, false),
            DefenseKind::Reputation => (false, true, true, false),
            DefenseKind::Adaptive => (true, false, false, true),
            DefenseKind::Full => (true, true, true, true),
        };
        Some(Self {
            detector,
            kind,
            fpr,
            ladder,
            throttle_threshold,
            monitor_threshold,
            bucket_capacity: longest_organic * BUCKET_SLACK,
            detector_on,
            rate_on,
            reputation_on,
            adaptive_on,
            state: DefenseState {
                level: 0,
                reputation: 1.0,
                cusum: Cusum::default(),
                counts: VerdictCounts::default(),
            },
        })
    }

    /// Judges one trajectory in admission order. Must be called under
    /// whatever lock serializes admission — the verdict depends on
    /// (and mutates) the stack state. `_base` is the organic data the
    /// stack was built on; the fitted detector already holds what it
    /// needs from it.
    pub fn judge(&mut self, _base: &Dataset, sequence: &[ItemId]) -> Verdict {
        let score = self.detector.score(sequence);
        // The drift detector watches the *score* stream: a poisoning
        // campaign shifts it upward long before any one trajectory is
        // individually damning.
        let alarm = self.state.cusum.observe(score);
        if alarm {
            if self.adaptive_on && (self.state.level as usize) < self.ladder.len() - 1 {
                self.state.level += 1;
            }
            if self.reputation_on {
                self.state.reputation *= REPUTATION_DECAY_ALARM;
            }
        }
        if self.reputation_on {
            if score > self.monitor_threshold {
                self.state.reputation *= REPUTATION_DECAY_MONITOR;
            } else {
                self.state.reputation = (self.state.reputation + REPUTATION_RECOVERY).min(1.0);
            }
        }
        let verdict = if self.rate_on && sequence.len() > self.bucket_capacity {
            Verdict::RateLimit
        } else if self.detector_on && score > self.ladder[self.state.level as usize] {
            Verdict::Flag
        } else if self.reputation_on
            && self.state.reputation < REPUTATION_FLOOR
            && score > self.throttle_threshold
        {
            Verdict::Throttle
        } else {
            Verdict::Admit
        };
        match verdict {
            Verdict::Admit => self.state.counts.admitted += 1,
            Verdict::Flag => self.state.counts.flagged += 1,
            Verdict::RateLimit => self.state.counts.rate_limited += 1,
            Verdict::Throttle => self.state.counts.throttled += 1,
        }
        verdict
    }

    pub fn detector_name(&self) -> &'static str {
        "lof"
    }

    pub fn kind_label(&self) -> &'static str {
        self.kind.label()
    }

    pub fn fpr(&self) -> f64 {
        self.fpr
    }

    /// The currently active decision threshold (ladder rung).
    pub fn threshold(&self) -> f64 {
        self.ladder[self.state.level as usize]
    }

    /// Current ladder rung (0 = calibrated base FPR).
    pub fn level(&self) -> u32 {
        self.state.level
    }

    pub fn reputation(&self) -> f64 {
        self.state.reputation
    }

    pub fn alarms(&self) -> u64 {
        self.state.cusum.alarms()
    }

    pub fn counts(&self) -> VerdictCounts {
        self.state.counts
    }

    /// Serializes the mutable state (ladder level, reputation, CUSUM,
    /// verdict tally) for checkpoints and admission rollback. The
    /// calibrated thresholds are pure functions of the organic data
    /// and are rebuilt, not stored.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u32(self.state.level);
        w.put_f64(self.state.reputation);
        put_cusum(&mut w, &self.state.cusum);
        w.put_u64(self.state.counts.admitted);
        w.put_u64(self.state.counts.flagged);
        w.put_u64(self.state.counts.rate_limited);
        w.put_u64(self.state.counts.throttled);
        w.into_bytes()
    }

    /// Restores state captured by [`DefenseStack::state_bytes`]. State
    /// that [`DefenseStack::judge`] cannot reach is refused with the
    /// field named, and nothing is replaced: a level above the ladder's
    /// top rung (or above 0 without the adaptive layer), a reputation
    /// outside `[0, 1]` or NaN (or other than 1 without the reputation
    /// layer).
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        let mut r = Reader::new(bytes);
        let at = r.position();
        let level = r.get_u32("defense level")?;
        let top = if self.adaptive_on {
            self.ladder.len() as u32 - 1
        } else {
            0
        };
        if level > top {
            return Err(WireError::new(
                at,
                format!("defense level {level} is above the top rung {top} this stack reaches"),
            ));
        }
        let at = r.position();
        let reputation = r.get_f64("defense reputation")?;
        let reachable = if self.reputation_on {
            (0.0..=1.0).contains(&reputation)
        } else {
            reputation == 1.0
        };
        if !reachable {
            return Err(WireError::new(
                at,
                format!("defense reputation {reputation} is not one this stack reaches"),
            ));
        }
        let cusum = get_cusum(&mut r)?;
        let counts = VerdictCounts {
            admitted: r.get_u64("defense admitted")?,
            flagged: r.get_u64("defense flagged")?,
            rate_limited: r.get_u64("defense rate_limited")?,
            throttled: r.get_u64("defense throttled")?,
        };
        r.expect_eof()?;
        self.state = DefenseState {
            level,
            reputation,
            cusum,
            counts,
        };
        Ok(())
    }
}

/// A [`BlackBoxSystem`] behind a [`DefenseStack`]: every incoming
/// trajectory is judged in admission order before the ranker sees it.
///
/// Mirrors the served admission path exactly — a remote client posts
/// each observation slot's trajectories in one body and slots
/// sequentially, so judging slot trajectories in slot order here
/// transitions the stack through the same states a served instance
/// would, and defended runs stay bit-identical local vs wire. Each
/// slot still consumes exactly one observation-stream ordinal whatever
/// the stack rejects (a served retrain retrains whatever survived,
/// even nothing).
pub struct DefendedSystem {
    inner: BlackBoxSystem,
    stack: Mutex<DefenseStack>,
}

impl DefendedSystem {
    pub fn new(inner: BlackBoxSystem, stack: DefenseStack) -> Self {
        Self {
            inner,
            stack: Mutex::new(stack),
        }
    }

    pub fn inner(&self) -> &BlackBoxSystem {
        &self.inner
    }

    /// Cumulative verdict tally of the embedded stack.
    pub fn counts(&self) -> VerdictCounts {
        self.stack.lock().unwrap().counts()
    }

    /// Current ladder rung of the embedded stack.
    pub fn level(&self) -> u32 {
        self.stack.lock().unwrap().level()
    }

    /// CUSUM alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.stack.lock().unwrap().alarms()
    }
}

impl ObservableSystem for DefendedSystem {
    fn config(&self) -> &SystemConfig {
        self.inner.config()
    }

    fn public_info(&self) -> PublicInfo {
        self.inner.public_info()
    }

    fn ranker_name(&self) -> &str {
        self.inner.ranker_name()
    }

    fn observations_spent(&self) -> u64 {
        self.inner.observations_spent()
    }

    fn restore_observations_spent(&self, spent: u64) -> Result<(), ConfigError> {
        self.inner.restore_observations_spent(spent)
    }

    fn observe_batch(&self, batch: &[&[Trajectory]], threads: usize) -> Vec<Observation> {
        // Admission is sequential in slot order *before* any retrain
        // dispatch: the stack state never sees thread interleaving, so
        // results are identical for every `threads` value.
        let mut stack = self.stack.lock().unwrap();
        let surviving: Vec<Vec<Trajectory>> = batch
            .iter()
            .map(|slot| {
                slot.iter()
                    .filter(|t| stack.judge(self.inner.base(), t) == Verdict::Admit)
                    .cloned()
                    .collect()
            })
            .collect();
        drop(stack);
        self.inner.observe_batch(&surviving, threads)
    }

    fn defense_state(&self) -> Vec<u8> {
        self.stack.lock().unwrap().state_bytes()
    }

    fn restore_defense_state(&self, state: &[u8]) -> Result<(), ConfigError> {
        self.stack
            .lock()
            .unwrap()
            .restore_state(state)
            .map_err(|err| ConfigError {
                field: "defense_state",
                message: err.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn organic_like() -> Dataset {
        // Organic users click varied, mostly-popular items.
        let histories = (0..60u32)
            .map(|u| (0..8).map(|t| (u + t * 3) % 40).collect())
            .collect();
        Dataset::from_histories("d", histories, 200, 8)
    }

    /// A target-hammering attack session (cold items, repetitive,
    /// never-seen co-visitation pairs) must be a LOF outlier relative
    /// to every organic user, and the calibrated threshold must hold
    /// the organic false-positive rate.
    #[test]
    fn lof_separates_attack_sessions_at_calibrated_fpr() {
        let d = organic_like();
        let det = LofDetector::fit(&d, LofDetector::DEFAULT_K);
        let attack_score = det.score(&[190, 190, 191, 190, 191, 190]);
        let threshold = det.threshold(0.1);
        assert!(
            attack_score > threshold,
            "attack session evades LOF: {attack_score} <= {threshold}"
        );
        let organic_flagged = (0..d.num_users())
            .filter(|&u| det.score(d.sequence(u)) > threshold)
            .count();
        assert!(
            organic_flagged as f64 <= 0.1 * f64::from(d.num_users()) + 1.0,
            "{organic_flagged} organic users flagged at fpr=0.1"
        );
    }

    /// The Steam twin at `scale`, rebuilt through `from_histories`: the
    /// `datasets` crate links its own copy of this crate, so its
    /// `Dataset` is a different type here. Appending each user's two
    /// held-out items back restores the twin's train split exactly.
    fn steam_twin(scale: f64, seed: u64) -> Dataset {
        let twin = datasets::PaperDataset::Steam.generate_scaled(scale, seed);
        let histories = twin
            .sequences()
            .iter()
            .zip(&twin.validation().pairs)
            .zip(&twin.test().pairs)
            .map(|((seq, &(_, valid)), &(_, test))| {
                let mut history = seq.clone();
                history.extend([valid, test]);
                history
            })
            .collect();
        Dataset::from_histories("steam", histories, twin.num_items(), twin.num_targets())
    }

    /// LOF scoring must be a pure function of the fitted model and the
    /// query — two fits on the same data score identically, and two
    /// stacks built on one twin calibrate the same threshold bits. The
    /// Steam twin has sessions with many distinct repeated items, where
    /// an order-dependent entropy sum would change the last bits.
    #[test]
    fn lof_is_deterministic_across_fits() {
        for d in [organic_like(), steam_twin(0.05, 11)] {
            let a = LofDetector::fit(&d, LofDetector::DEFAULT_K);
            let b = LofDetector::fit(&d, LofDetector::DEFAULT_K);
            for u in 0..d.num_users() {
                let (sa, sb) = (a.score(d.sequence(u)), b.score(d.sequence(u)));
                assert_eq!(sa.to_bits(), sb.to_bits(), "user {u} scored differently");
            }
        }
        let d = steam_twin(0.1, 1);
        let a = DefenseStack::build(DefenseKind::Full, &d, 0.05).unwrap();
        let b = DefenseStack::build(DefenseKind::Full, &d, 0.05).unwrap();
        assert_eq!(a.threshold().to_bits(), b.threshold().to_bits());
    }

    /// A sustained upward shift in the score stream must raise a CUSUM
    /// alarm; a stationary stream must not.
    #[test]
    fn cusum_alarms_on_shift_only() {
        let mut quiet = Cusum::default();
        for i in 0..200u32 {
            // Deterministic stationary wiggle around 1.0.
            quiet.observe(1.0 + 0.01 * f64::from(i % 7));
        }
        assert_eq!(quiet.alarms(), 0, "stationary stream alarmed");

        let mut shifted = Cusum::default();
        for i in 0..100u32 {
            shifted.observe(1.0 + 0.01 * f64::from(i % 7));
        }
        for _ in 0..100 {
            shifted.observe(3.0);
        }
        assert!(shifted.alarms() > 0, "sustained shift never alarmed");
    }

    /// The full sort + truncate that the tree search behind
    /// [`LofDetector::nearest`] must equal, over the same distances (bit
    /// identity with the distances of the original sort-based search is
    /// what the pinned test holds).
    fn nearest_by_sort(
        det: &LofDetector,
        query: &[f64; LOF_DIM],
        skip: Option<usize>,
    ) -> Vec<(f64, usize)> {
        let mut dists: Vec<(f64, usize)> = det
            .points
            .iter()
            .enumerate()
            .filter(|&(j, _)| Some(j) != skip)
            .map(|(j, p)| (distance(query, p), j))
            .collect();
        dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        dists.truncate(det.k.min(dists.len()));
        dists
    }

    /// A detector holding only `points`, enough for neighborhood search.
    fn cloud_detector(points: Vec<[f64; LOF_DIM]>, k: usize) -> LofDetector {
        LofDetector {
            k,
            cold_cutoff_log: 0.0,
            log_pop: Vec::new(),
            pairs: HashMap::new(),
            feat_mean: [0.0; LOF_DIM],
            feat_dev: [1.0; LOF_DIM],
            tree: KdTree::build(&points),
            points,
            kdist: Vec::new(),
            lrd: Vec::new(),
            organic_scores: Vec::new(),
        }
    }

    /// The tree search returns the same entries in the same order as
    /// sort + truncate, bit for bit, on seeded clouds with forced exact
    /// ties (coordinates from a tiny grid, so duplicates abound), with
    /// and without a skipped point, for k below, at and above n, on the
    /// empty cloud, on clouds deep enough for many tree levels, and
    /// with ±inf and ±NaN features. A prune on an equal bound (`>=`)
    /// drops tied points with smaller ids and fails here.
    #[test]
    fn bounded_selection_equals_sort_and_truncate() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let specials = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
        let point = |rng: &mut StdRng, special_rate: f64| -> [f64; LOF_DIM] {
            std::array::from_fn(|_| {
                if rng.gen_bool(special_rate) {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    f64::from(rng.gen_range(0..3u32)) - 1.0
                }
            })
        };
        let mut cases = 0;
        for n in [0usize, 1, 2, 5, 10, 11, 40, 150, 1000] {
            for special_rate in [0.0, 0.05] {
                let points: Vec<_> = (0..n).map(|_| point(&mut rng, special_rate)).collect();
                for k in [1, 3, 10, n, n + 4] {
                    let det = cloud_detector(points.clone(), k.max(1));
                    for skip in [None, Some(0), Some(n / 2), Some(n)] {
                        for q in 0..6 {
                            let query = if q < 3 && n > 0 {
                                points[rng.gen_range(0..n)]
                            } else {
                                point(&mut rng, special_rate)
                            };
                            let got = det.nearest(&query, skip);
                            let want = nearest_by_sort(&det, &query, skip);
                            let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
                                v.iter().map(|&(d, j)| (d.to_bits(), j)).collect()
                            };
                            assert_eq!(bits(&got), bits(&want), "n={n} k={k} skip={skip:?}");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert!(cases > 1000);
    }

    /// A NaN distance has its sign bit clear in every build, so
    /// `total_cmp` sorts it after every number: a point with a NaN or
    /// infinite feature is never a neighbor while k points lie at finite
    /// distances. Release code generation makes a negative NaN for
    /// these inputs, which a value test on `is_nan` does not repair;
    /// `black_box` keeps the pinned calls from folding at compile time.
    #[test]
    fn nan_distances_sort_last() {
        let zero = [0.0; LOF_DIM];
        let mut neg_nan = zero;
        neg_nan[0] = -f64::NAN;
        let mut inf = zero;
        inf[0] = f64::INFINITY;
        for (a, b) in [(neg_nan, zero), (zero, neg_nan), (inf, inf)] {
            assert_eq!(
                distance(std::hint::black_box(&a), std::hint::black_box(&b)).to_bits(),
                f64::NAN.to_bits(),
                "{a:?} vs {b:?}"
            );
        }

        let k = 4;
        let mut points: Vec<[f64; LOF_DIM]> = (0..30)
            .map(|i| std::array::from_fn(|d| f64::from((i * 7 + d as i32 * 3) % 11) - 5.0))
            .collect();
        let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (i, special) in specials.into_iter().enumerate() {
            let mut p = points[i];
            p[i % LOF_DIM] = special;
            points.push(p);
        }
        let det = cloud_detector(points.clone(), k);
        for (q, query) in points[..30].iter().enumerate() {
            for skip in [None, Some(q)] {
                let neigh = det.nearest(query, skip);
                assert_eq!(neigh.len(), k);
                for &(d, j) in &neigh {
                    assert!(d.is_finite() && j < 30, "query {q}: {j} at {d}");
                }
            }
        }
    }

    /// At real scale (the Steam ×0.1 twin, 650 users) the tree finds
    /// the sort + truncate neighborhood bit for bit for every organic
    /// user with itself skipped (the calibration sweep) and for organic
    /// and Popular-crafted judge queries.
    #[test]
    fn tree_equals_sort_at_real_scale() {
        let d = steam_twin(0.1, 1);
        let det = LofDetector::fit(&d, LofDetector::DEFAULT_K);
        let bits = |v: &[(f64, usize)]| -> Vec<(u64, usize)> {
            v.iter().map(|&(d, j)| (d.to_bits(), j)).collect()
        };
        for (i, point) in det.points.iter().enumerate() {
            let got = det.nearest(point, Some(i));
            assert_eq!(
                bits(&got),
                bits(&nearest_by_sort(&det, point, Some(i))),
                "user {i}"
            );
        }
        let organic = (0..256).map(|u| d.sequence(u * 7 % d.num_users()).to_vec());
        for seq in organic.chain(popular_crafted(&d, 256, 20, 7)) {
            let query = det.normalize(det.raw_features(&seq));
            let got = det.nearest(&query, None);
            assert_eq!(
                bits(&got),
                bits(&nearest_by_sort(&det, &query, None)),
                "{seq:?}"
            );
        }
    }

    /// Each organic score that `fit` derives from the skip-self
    /// neighborhood equals a fresh [`LofDetector::score`] of that user's
    /// sequence bit for bit, and the stored distribution is exactly
    /// those scores sorted. `organic_like` has users with identical
    /// sequences, so some neighbors tie the user's own entry at 0.
    #[test]
    fn organic_scores_equal_fresh_scores() {
        for d in [organic_like(), steam_twin(0.1, 1)] {
            let det = LofDetector::fit(&d, LofDetector::DEFAULT_K);
            let mut fresh = Vec::new();
            for u in 0..d.num_users() {
                let i = u as usize;
                let reused = det.organic_score(i, det.nearest(&det.points[i], Some(i)));
                let score = det.score(d.sequence(u));
                assert_eq!(reused.to_bits(), score.to_bits(), "user {u}");
                fresh.push(score);
            }
            fresh.sort_by(f64::total_cmp);
            let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(bits(&fresh), bits(&det.organic_scores));
        }
    }

    /// A NaN or infinite FPR target is a caller bug, not a request for
    /// the minimum organic score (which would flag nearly everyone).
    #[test]
    fn non_finite_fpr_panics() {
        let det = LofDetector::fit(&organic_like(), LofDetector::DEFAULT_K);
        for fpr in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let caught = std::panic::catch_unwind(|| det.threshold(fpr));
            let message = *caught.unwrap_err().downcast::<String>().unwrap();
            assert!(message.contains("finite fpr"), "{message}");
        }
    }

    #[test]
    fn parse_fpr_accepts_only_the_open_unit_interval() {
        for ok in ["0.05", " 0.5 ", "1e-3", "0.999"] {
            assert!(parse_fpr(ok).is_ok(), "{ok} rejected");
        }
        for bad in [
            "NaN", "nan", "inf", "-inf", "0", "1", "-0.1", "1.5", "", "x",
        ] {
            assert!(parse_fpr(bad).is_err(), "{bad} accepted");
        }
    }

    /// FNV-1a, so pinned hashes do not depend on std's hasher.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Popular-family trajectories (a random target, then a random
    /// top-10% item, alternating), seeded so the sequence is fixed.
    fn popular_crafted(d: &Dataset, count: usize, len: usize, seed: u64) -> Vec<Trajectory> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let targets: Vec<ItemId> = d.target_items().collect();
        let popular = d.popular_set(10.0);
        (0..count)
            .map(|_| {
                (0..len)
                    .map(|step| {
                        let set = if step % 2 == 0 { &targets } else { &popular };
                        set[rng.gen_range(0..set.len())]
                    })
                    .collect()
            })
            .collect()
    }

    /// The calibrated thresholds and the state after a fixed judged
    /// sequence, pinned bit for bit on the Steam×0.1 seed-1 twin. The
    /// values were recorded from the original sort-based neighborhood
    /// search; any rewrite of the LOF internals must reproduce them.
    #[test]
    fn calibration_and_judged_state_are_pinned() {
        let d = steam_twin(0.1, 1);
        let mut stack = DefenseStack::build(DefenseKind::Full, &d, 0.05).unwrap();
        let ladder: Vec<u64> = stack.ladder.iter().map(|t| t.to_bits()).collect();
        let popular = popular_crafted(&d, 200, 20, 7);
        let mut verdicts = Vec::new();
        for i in 0..800usize {
            let verdict = if i % 4 == 3 {
                stack.judge(&d, &popular[i / 4])
            } else {
                stack.judge(&d, d.sequence((i as u32 * 7) % d.num_users()))
            };
            verdicts.push(verdict as u8);
        }
        assert_eq!(
            ladder,
            [
                0x3ff7_0a4c_0248_e2a6,
                0x3ff5_1187_bb78_dc8b,
                0x3ff3_4338_6269_8810,
                0x3ff1_75ee_98d6_ed82,
            ]
        );
        assert_eq!(stack.throttle_threshold.to_bits(), 0x3ff5_1187_bb78_dc8b);
        assert_eq!(stack.monitor_threshold.to_bits(), 0x3ff7_0a4c_0248_e2a6);
        assert_eq!(
            stack.counts(),
            VerdictCounts {
                admitted: 558,
                flagged: 226,
                rate_limited: 0,
                throttled: 16,
            }
        );
        assert_eq!(fnv1a(&verdicts), 0x0608_0312_bb8f_a5d7);
        assert_eq!(fnv1a(&stack.state_bytes()), 0x57da_f795_bdb0_9027);
    }

    /// CUSUM alarms escalate the adaptive ladder and sink reputation;
    /// both must ride `state_bytes` across a restore.
    #[test]
    fn full_stack_escalates_under_attack_and_state_roundtrips() {
        let d = organic_like();
        let mut stack = DefenseStack::build(DefenseKind::Full, &d, 0.05).unwrap();
        assert_eq!(stack.level(), 0);
        // Warm the CUSUM on organic traffic, then hammer targets.
        for u in 0..d.num_users() {
            stack.judge(&d, d.sequence(u));
        }
        for burst in 0..80u32 {
            let traj: Vec<ItemId> = (0..8).map(|i| 200 + (burst + i) % 8).collect();
            stack.judge(&d, &traj);
        }
        assert!(stack.alarms() > 0, "campaign never tripped the CUSUM");
        assert!(stack.level() > 0, "alarm did not escalate the ladder");
        assert!(stack.reputation() < 1.0, "alarm did not sink reputation");
        assert!(stack.counts().rejected() > 0);

        let bytes = stack.state_bytes();
        let mut restored = DefenseStack::build(DefenseKind::Full, &d, 0.05).unwrap();
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.level(), stack.level());
        assert_eq!(restored.alarms(), stack.alarms());
        assert_eq!(restored.counts(), stack.counts());
        assert_eq!(
            restored.reputation().to_bits(),
            stack.reputation().to_bits()
        );
        assert_eq!(restored.threshold().to_bits(), stack.threshold().to_bits());
    }

    /// `restore_state` refuses a level above the top rung and a NaN,
    /// negative or above-one reputation, naming the field and leaving
    /// the state as it was; a valid mid-run state round-trips. A stack
    /// without the adaptive or reputation layer never moves the level
    /// or the reputation, so it refuses any other value of them.
    #[test]
    fn restore_state_refuses_impossible_state() {
        let d = organic_like();
        let mut stack = DefenseStack::build(DefenseKind::Full, &d, 0.05).unwrap();
        for u in 0..d.num_users() {
            stack.judge(&d, d.sequence(u));
        }
        let valid = stack.state_bytes();
        let top = LADDER_RUNGS as u32 - 1;
        let with = |level: u32, reputation: f64| {
            let mut bytes = valid.clone();
            bytes[..4].copy_from_slice(&level.to_le_bytes());
            bytes[4..12].copy_from_slice(&reputation.to_le_bytes());
            bytes
        };
        let cases = [
            (with(top + 1, 0.5), "defense level"),
            (with(u32::MAX, 0.5), "defense level"),
            (with(0, f64::NAN), "defense reputation"),
            (with(0, -0.25), "defense reputation"),
            (with(0, 1.5), "defense reputation"),
            (with(0, f64::INFINITY), "defense reputation"),
        ];
        for (bytes, field) in cases {
            let err = stack.restore_state(&bytes).unwrap_err();
            assert!(err.message.contains(field), "{err}");
            assert_eq!(stack.state_bytes(), valid, "{err} replaced state");
        }
        let mut restored = DefenseStack::build(DefenseKind::Full, &d, 0.05).unwrap();
        for bytes in [valid.clone(), with(top, 0.0), with(0, 1.0)] {
            restored.restore_state(&bytes).unwrap();
            assert_eq!(restored.state_bytes(), bytes);
        }

        let mut lof = DefenseStack::build(DefenseKind::Lof, &d, 0.05).unwrap();
        for (bytes, field) in [
            (with(1, 1.0), "defense level"),
            (with(0, 0.5), "defense reputation"),
        ] {
            let err = lof.restore_state(&bytes).unwrap_err();
            assert!(err.message.contains(field), "{err}");
        }
        lof.restore_state(&with(0, 1.0)).unwrap();
    }

    /// The ladder rungs loosen monotonically: rung `i+1` is calibrated
    /// at double the FPR, so escalation can only raise recall.
    #[test]
    fn adaptive_ladder_thresholds_are_monotone() {
        let d = organic_like();
        let mut stack = DefenseStack::build(DefenseKind::Adaptive, &d, 0.05).unwrap();
        let mut last = f64::INFINITY;
        let base = stack.threshold();
        // Warm the drift reference on organic traffic, then drive
        // escalation with an attack campaign: each rung's threshold
        // must not exceed the previous (higher FPR = lower organic
        // quantile).
        for u in 0..d.num_users() {
            stack.judge(&d, d.sequence(u));
        }
        for burst in 0..200u32 {
            let traj: Vec<ItemId> = (0..8).map(|i| 200 + (burst + i) % 8).collect();
            stack.judge(&d, &traj);
            let t = stack.threshold();
            assert!(t <= last + 1e-12, "ladder tightened on escalation");
            last = t;
        }
        assert!(stack.level() > 0, "never escalated");
        assert!(stack.threshold() <= base);
    }

    /// The reputation-only stack never flags outright (no detector
    /// layer), but rate-limits oversized sessions at the organic
    /// bucket capacity.
    #[test]
    fn reputation_stack_rate_limits_oversized_sessions() {
        let d = organic_like();
        let mut stack = DefenseStack::build(DefenseKind::Reputation, &d, 0.05).unwrap();
        // Longest organic session is 8 clicks; capacity = 16.
        let oversized: Vec<ItemId> = vec![1; 17];
        assert_eq!(stack.judge(&d, &oversized), Verdict::RateLimit);
        let organic: Vec<ItemId> = d.sequence(0).to_vec();
        assert_eq!(stack.judge(&d, &organic), Verdict::Admit);
        assert_eq!(stack.counts().flagged, 0);
    }
}
