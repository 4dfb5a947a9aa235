//! Judges a parent/change benchmark comparison run as alternated pairs
//! (`scripts/perf_pairs.sh`; the rules are in `telemetry::perf`).
//!
//! ```text
//! perf_diff BENCHMARK.json PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Result line *i* of the two pair files is pair *i*; manifest lines
//! are skipped. Prints, per end-to-end metric of `BENCHMARK.json`, the
//! parent and change medians, the parent IQR, the change's wins and
//! losses, and the label (`gain`, `regression`, `unresolved`, `level`);
//! then the change's wins in the first and the second half of the
//! pairs, where a split between the halves points at host drift.
//!
//! Exit code: 0 when the comparison passes; 1 when a metric is a
//! `regression`, a run reports `"correct": false`, or the change failed
//! a larger share of its attempted operations than the parent; 2 on a
//! usage, IO or parse error, or when the pair files hold different
//! numbers of runs. A reader that closes the pipe early (`| head`)
//! only cuts the report short: the exit code is still the verdict's.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use telemetry::json;
use telemetry::perf::{self, Label, MetricSpec, RunResult, Verdict};

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
}

fn load_runs(path: &str) -> Result<Vec<RunResult>, String> {
    let runs = perf::parse_runs(&read(path)?).map_err(|err| format!("{path}: {err}"))?;
    if runs.is_empty() {
        return Err(format!("{path}: no result line"));
    }
    Ok(runs)
}

/// Four significant digits, whatever the magnitude.
fn sig4(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        (3 - v.abs().log10().floor() as i32).clamp(0, 12) as usize
    };
    format!("{v:.digits$}")
}

type Compared = (Vec<RunResult>, Vec<RunResult>, Vec<(MetricSpec, Verdict)>);

/// Loads the three files and judges every end-to-end metric.
fn compare(bench_path: &str, parent_path: &str, change_path: &str) -> Result<Compared, String> {
    let bench = json::parse(&read(bench_path)?).map_err(|err| format!("{bench_path}: {err}"))?;
    let specs = perf::specs(&bench).map_err(|err| format!("{bench_path}: {err}"))?;
    let parent = load_runs(parent_path)?;
    let change = load_runs(change_path)?;
    if parent.len() != change.len() {
        return Err(format!(
            "{parent_path} has {} runs but {change_path} has {}",
            parent.len(),
            change.len()
        ));
    }
    let column = |runs: &[RunResult], path: &str, name: &str| {
        runs.iter()
            .enumerate()
            .map(|(i, run)| {
                run.metric(name)
                    .ok_or_else(|| format!("{path}: run {} lacks `{name}`", i + 1))
            })
            .collect::<Result<Vec<f64>, String>>()
    };
    let mut verdicts = Vec::with_capacity(specs.len());
    for spec in specs {
        let p = column(&parent, parent_path, &spec.name)?;
        let c = column(&change, change_path, &spec.name)?;
        let verdict = perf::judge(&spec, &p, &c);
        verdicts.push((spec, verdict));
    }
    Ok((parent, change, verdicts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [bench_path, parent_path, change_path] = args.as_slice() else {
        eprintln!("usage: perf_diff BENCHMARK.json PARENT.jsonl CHANGE.jsonl");
        return ExitCode::from(2);
    };
    let (parent, change, verdicts) = match compare(bench_path, parent_path, change_path) {
        Ok(compared) => compared,
        Err(err) => {
            eprintln!("perf_diff: {err}");
            return ExitCode::from(2);
        }
    };

    let mut failures = Vec::new();
    for (side, runs) in [("parent", &parent), ("change", &change)] {
        for (i, run) in runs.iter().enumerate() {
            if !run.correct {
                failures.push(format!("{side} run {} reports \"correct\": false", i + 1));
            }
        }
    }
    let (p_share, c_share) = (perf::failed_share(&parent), perf::failed_share(&change));
    if c_share > p_share {
        failures.push(format!("change failed share {c_share} > parent {p_share}"));
    }
    for (spec, v) in &verdicts {
        if v.label == Label::Regression {
            failures.push(format!("{} regressed", spec.name));
        }
    }
    let code = if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    };

    let header = format!(
        "{} pairs: parent {parent_path} vs change {change_path}",
        parent.len()
    );
    let mut out = std::io::stdout().lock();
    let pass = failures.is_empty();
    match report(&mut out, &header, &verdicts, (p_share, c_share), pass) {
        Ok(()) => {}
        // The reader stopped early (`perf_diff … | head`): the verdict
        // stands, only its report is cut short.
        Err(err) if err.kind() == ErrorKind::BrokenPipe => return code,
        Err(err) => {
            eprintln!("perf_diff: cannot write the report: {err}");
            return ExitCode::from(2);
        }
    }
    for failure in &failures {
        eprintln!("perf_diff: {failure}");
    }
    code
}

/// Writes the comparison table, the wins per half, the failed shares
/// and, for a passing comparison, the pass line.
fn report(
    out: &mut impl Write,
    header: &str,
    verdicts: &[(MetricSpec, Verdict)],
    (p_share, c_share): (f64, f64),
    pass: bool,
) -> std::io::Result<()> {
    writeln!(out, "{header}")?;
    writeln!(
        out,
        "{:<14} {:>5} {:>12} {:>12} {:>12} {:>11}  label",
        "metric", "unit", "parent_med", "change_med", "parent_iqr", "wins/losses"
    )?;
    for (spec, v) in verdicts {
        writeln!(
            out,
            "{:<14} {:>5} {:>12} {:>12} {:>12} {:>11}  {}",
            spec.name,
            spec.unit,
            sig4(v.parent_median),
            sig4(v.change_median),
            sig4(v.parent_iqr),
            format!("{}/{} of {}", v.wins, v.losses, v.pairs),
            v.label.name()
        )?;
    }
    writeln!(
        out,
        "change wins by half of the pairs (first | second; a split points at host drift):"
    )?;
    for (spec, v) in verdicts {
        let [(w1, n1), (w2, n2)] = v.halves;
        writeln!(out, "  {:<14} {w1}/{n1} | {w2}/{n2}", spec.name)?;
    }
    writeln!(out, "failed share: parent {p_share} change {c_share}")?;
    if pass {
        writeln!(out, "perf_diff: pass")?;
    }
    out.flush()
}
