//! The pair verdict behind the `perf_diff` bin.
//!
//! `scripts/perf_pairs.sh` runs the repository benchmark (`perfbench`)
//! on a parent and a change revision as N alternated pairs at seeds
//! `SEED0..`, appending each run's output lines to `parent.jsonl` and
//! `change.jsonl`. Each run ends with one result line:
//!
//! ```json
//! {"correct": true, "attempted": 1000, "failed": 0,
//!  "metrics": {"op_p10_s": {"value": 0.0011, "unit": "s"}, ...}}
//! ```
//!
//! Manifest lines (`{"manifest": {...}}`) are skipped, so result line
//! *i* of each file is pair *i*. For every end-to-end metric that
//! `BENCHMARK.json` declares (its name, `better` and `bound`), [`judge`]
//! compares the two sides pair by pair and labels the metric:
//!
//! * **regression** — the change's median is worse than the parent's by
//!   more than `bound` (relative), or the change lost at least 9/10 of
//!   the pairs and its median is worse by more than the parent's IQR;
//! * **unresolved** — either side's IQR exceeds `bound` × its median,
//!   and the change's runs do not all beat all of the parent's;
//! * **gain** — the change won at least 9/10 of the pairs and its
//!   median is better by more than the parent's IQR;
//! * **level** — none of the above.
//!
//! Quartiles and medians interpolate linearly between order statistics
//! ([`quantile`]). A tie counts for neither side.
//!
//! Alternating which side runs first does not cancel drift of the host
//! over the session, so the verdict also counts the change's wins in
//! the first and the second half of the pairs ([`Verdict::halves`]). A
//! real effect wins in both halves; wins piled into one half on a
//! metric the change cannot move point at the host.

use crate::json::Json;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Largest tolerated relative worsening of the median.
    pub bound: f64,
}

/// Reads the `end_to_end` metric list of a `BENCHMARK.json` document.
pub fn specs(benchmark: &Json) -> Result<Vec<MetricSpec>, String> {
    let Some(Json::Arr(rows)) = benchmark.get("end_to_end") else {
        return Err("missing `end_to_end` array".into());
    };
    let mut specs = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("end_to_end[{i}]: missing `name`"))?;
        let lower_is_better = match row.get("better").and_then(Json::as_str) {
            Some("lower") => true,
            Some("higher") => false,
            _ => {
                return Err(format!(
                    "`{name}`: `better` must be \"lower\" or \"higher\""
                ))
            }
        };
        let bound = row
            .get("bound")
            .and_then(Json::as_f64)
            .filter(|b| b.is_finite() && *b >= 0.0)
            .ok_or_else(|| format!("`{name}`: missing non-negative `bound`"))?;
        specs.push(MetricSpec {
            name: name.to_string(),
            unit: row.get("unit").and_then(Json::as_str).unwrap_or("").into(),
            lower_is_better,
            bound,
        });
    }
    if specs.is_empty() {
        return Err("`end_to_end` declares no metric".into());
    }
    Ok(specs)
}

/// The result line of one benchmark run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in line order.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let correct = doc
            .get("correct")
            .and_then(Json::as_bool)
            .ok_or("missing boolean `correct`")?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing count `{key}`"))
        };
        let Some(Json::Obj(fields)) = doc.get("metrics") else {
            return Err("missing `metrics` object".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                m.get("value")
                    .and_then(Json::as_f64)
                    .filter(|v| v.is_finite())
                    .map(|v| (name.clone(), v))
                    .ok_or_else(|| format!("`{name}`: missing finite `value`"))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Parses the result lines of a pair file, in order; blank lines and
/// manifest lines are skipped.
pub fn parse_runs(text: &str) -> Result<Vec<RunResult>, String> {
    let mut runs = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = crate::json::parse(line).map_err(|err| format!("line {}: {err}", i + 1))?;
        if doc.get("manifest").is_some() {
            continue;
        }
        runs.push(RunResult::from_json(&doc).map_err(|err| format!("line {}: {err}", i + 1))?);
    }
    Ok(runs)
}

/// The `q`-quantile of `values`, interpolating linearly between the
/// order statistics at ranks `floor(h)` and `ceil(h)`, `h = (n-1)·q`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

/// The label [`judge`] gives one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Label {
    Gain,
    Regression,
    Unresolved,
    Level,
}

impl Label {
    pub fn name(self) -> &'static str {
        match self {
            Label::Gain => "gain",
            Label::Regression => "regression",
            Label::Unresolved => "unresolved",
            Label::Level => "level",
        }
    }
}

/// One metric's comparison over all pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_iqr: f64,
    /// Pairs the change won and lost; ties count for neither.
    pub wins: usize,
    pub losses: usize,
    pub pairs: usize,
    /// `(wins, pairs)` of the change in the first `pairs / 2` pairs and
    /// in the rest.
    pub halves: [(usize, usize); 2],
    pub label: Label,
}

/// Compares `change[i]` with `parent[i]` for every pair `i`.
pub fn judge(spec: &MetricSpec, parent: &[f64], change: &[f64]) -> Verdict {
    assert_eq!(parent.len(), change.len(), "one value per side per pair");
    // Orient every value so that larger is worse.
    let worse = |v: f64| if spec.lower_is_better { v } else { -v };
    let p: Vec<f64> = parent.iter().map(|&v| worse(v)).collect();
    let c: Vec<f64> = change.iter().map(|&v| worse(v)).collect();
    let (p_med, c_med) = (quantile(&p, 0.5), quantile(&c, 0.5));
    let (p_iqr, c_iqr) = (iqr(&p), iqr(&c));
    let won: Vec<bool> = p.iter().zip(&c).map(|(p, c)| c < p).collect();
    let wins = won.iter().filter(|&&w| w).count();
    let losses = p.iter().zip(&c).filter(|(p, c)| c > p).count();
    let pairs = p.len();
    let (first, second) = won.split_at(pairs / 2);
    let half = |won: &[bool]| (won.iter().filter(|&&w| w).count(), won.len());
    let nine_in_ten = |k: usize| k * 10 >= pairs * 9;
    let shift = c_med - p_med;

    let label = if shift > spec.bound * p_med.abs() || (nine_in_ten(losses) && shift > p_iqr) {
        Label::Regression
    } else if (p_iqr > spec.bound * p_med.abs() || c_iqr > spec.bound * c_med.abs())
        && c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            >= p.iter().copied().fold(f64::INFINITY, f64::min)
    {
        Label::Unresolved
    } else if nine_in_ten(wins) && -shift > p_iqr {
        Label::Gain
    } else {
        Label::Level
    };
    Verdict {
        parent_median: worse(p_med),
        change_median: worse(c_med),
        parent_iqr: p_iqr,
        wins,
        losses,
        pairs,
        halves: [half(first), half(second)],
        label,
    }
}

/// Failed operations over attempted ones, summed over `runs`.
pub fn failed_share(runs: &[RunResult]) -> f64 {
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better,
            bound: 0.25,
        }
    }

    #[test]
    fn quartiles_interpolate_linearly() {
        // Odd n: the quartiles fall on order statistics.
        let odd = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&odd, 0.25), 2.0);
        assert_eq!(quantile(&odd, 0.5), 3.0);
        assert_eq!(quantile(&odd, 0.75), 4.0);
        // Even n: h = 3 * q lands between order statistics.
        let even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&even, 0.25), 1.75);
        assert_eq!(quantile(&even, 0.5), 2.5);
        assert_eq!(quantile(&even, 0.75), 3.25);
        assert_eq!(iqr(&even), 1.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn ties_count_for_neither_side() {
        let parent = [1.0, 1.0, 1.0, 2.0];
        let change = [1.0, 1.0, 0.5, 3.0];
        let v = judge(&spec(true), &parent, &change);
        assert_eq!((v.wins, v.losses, v.pairs), (1, 1, 4));
        // Nine ties and one win is not a gain, however large the win.
        let parent = [1.0; 10];
        let mut change = [1.0; 10];
        change[0] = 0.1;
        let v = judge(&spec(true), &parent, &change);
        assert_eq!((v.wins, v.losses), (1, 0));
        assert_eq!(v.label, Label::Level);
    }

    #[test]
    fn higher_is_better_flips_every_rule() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        let up: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let down: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let gain = judge(&spec(false), &parent, &up);
        assert_eq!((gain.wins, gain.label), (10, Label::Gain));
        assert_eq!(gain.parent_median, 104.5);
        assert_eq!(gain.parent_iqr, 4.5);
        let loss = judge(&spec(false), &parent, &down);
        assert_eq!((loss.losses, loss.label), (10, Label::Regression));
        // The same numbers read as lower-is-better swap the labels.
        assert_eq!(judge(&spec(true), &parent, &up).label, Label::Regression);
        assert_eq!(judge(&spec(true), &parent, &down).label, Label::Gain);
    }

    #[test]
    fn wins_are_counted_per_half() {
        // Drift: the change loses the first half and wins the second.
        let parent = [1.0; 10];
        let change = [1.1, 1.1, 1.1, 1.0, 1.1, 0.9, 0.9, 0.9, 0.9, 0.9];
        let v = judge(&spec(true), &parent, &change);
        assert_eq!(v.halves, [(0, 5), (5, 5)]);
        assert_eq!((v.wins, v.losses), (5, 4));
        // An odd count puts the middle pair in the second half, and
        // higher-is-better flips what a win is.
        let v = judge(&spec(false), &[1.0; 5], &[2.0, 0.5, 2.0, 2.0, 0.5]);
        assert_eq!(v.halves, [(1, 2), (2, 3)]);
        assert_eq!(judge(&spec(true), &[1.0], &[0.5]).halves, [(0, 0), (1, 1)]);
    }

    #[test]
    fn bound_and_spread_rules() {
        // Beyond the bound regresses even without 9/10 losses.
        let parent = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let mut change = [1.3; 10];
        change[..3].copy_from_slice(&[0.9; 3]);
        assert_eq!(
            judge(&spec(true), &parent, &change).label,
            Label::Regression
        );
        // A spread wider than the bound is unresolved...
        let wide = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let v = judge(&spec(true), &wide, &wide);
        assert_eq!(v.label, Label::Unresolved);
        // ...unless every change run beats every parent run.
        let apart: Vec<f64> = wide.iter().map(|v| v * 0.1).collect();
        assert_eq!(judge(&spec(true), &wide, &apart).label, Label::Gain);
    }

    #[test]
    fn manifests_are_skipped_and_results_parsed() {
        let text = "{\"manifest\": {\"nproc\": 2, \"git_rev\": \"abc\"}}\n\
            {\"correct\": true, \"attempted\": 9, \"failed\": 1, \
             \"metrics\": {\"op_p10_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n\n";
        let runs = parse_runs(text).expect("parses");
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].metric("op_p10_s"), Some(0.5));
        assert_eq!(runs[0].metric("setup_s"), None);
        assert_eq!(failed_share(&runs), 1.0 / 9.0);
        assert!(parse_runs("{\"correct\": true}").is_err());
        assert!(parse_runs("not json").is_err());
    }

    #[test]
    fn specs_read_the_benchmark_declaration() {
        let doc = crate::json::parse(
            "{\"end_to_end\": [{\"name\": \"a\", \"unit\": \"s\", \"better\": \"lower\", \
             \"bound\": 0.25}, {\"name\": \"b\", \"better\": \"higher\", \"bound\": 0.1}]}",
        )
        .unwrap();
        let specs = specs(&doc).expect("valid");
        assert_eq!(specs.len(), 2);
        assert!(specs[0].lower_is_better && !specs[1].lower_is_better);
        assert_eq!(specs[1].bound, 0.1);
        let bad = crate::json::parse("{\"end_to_end\": [{\"name\": \"a\", \"bound\": 1}]}");
        assert!(super::specs(&bad.unwrap()).is_err());
    }
}
