//! Validates a telemetry run log (JSONL) against the workspace schema;
//! the CI smoke stage runs this so the sink can never silently rot.
//!
//! Checks:
//! * the file is non-empty and every line parses as a JSON object with
//!   a string `type` field;
//! * the first line is the run manifest;
//! * per cell (`ranker` × `design` labels), `step` events count up from
//!   0 with no gaps, their phase durations are finite and non-negative,
//!   and the cumulative `observations` equals
//!   `episodes × (step + 1)` (episodes read from the manifest);
//! * with `--expect-steps N`, every cell logged exactly `N` steps;
//!   with `--expect-cells N`, exactly `N` cells logged steps;
//! * with `--trace FILE`, `FILE` additionally validates as a Chrome
//!   Trace Event document per the workspace trace schema: every span
//!   id has exactly one balanced begin/end pair, timestamps are
//!   monotone per track, and `B`/`E` events nest LIFO per track
//!   (see `telemetry::trace::validate_chrome`). `--trace` may also be
//!   used alone, without a run log.
//! * with `--access-log FILE`, `FILE` validates as a serve access log:
//!   a leading `{"type":"manifest","kind":"access-log"}` line, then
//!   `access` events whose `method` is a known verb, whose `status` is
//!   in the served protocol's vocabulary (200/400/404/405/409/413/500),
//!   whose `generation` never decreases globally (snapshot swaps are
//!   totally ordered), whose `ts_micros` is monotone non-decreasing
//!   per `conn` (events on one connection are serialized), and whose
//!   numeric `lag_micros` field is present. The file must
//!   end with exactly one `{"type":"access-summary"}` line whose drop
//!   accounting balances: its `events` equals the request lines
//!   actually present in the file (parse-error lines, method `"?"`,
//!   are outside the ledger), and `events + dropped` equals the
//!   server's `completed`-request ledger — every completed request is
//!   either in the file or counted as dropped. Like `--trace`, it may
//!   be used alone. Judged feedback events (those carrying a `verdict`
//!   field) are additionally checked: the verdict must be in the
//!   defense vocabulary (`admit`/`flag`/`rate_limit`/`throttle`), a
//!   `detector` string must name the judge, and the queue-depth
//!   bracket must balance — `pending == pending_before + accepted`
//!   with `accepted <= offered`, i.e. rejected feedback never
//!   increments queue depth;
//! * with `--defense`, the run log is an attack-grid log
//!   (`exp_defense`; its `none` rows are the attack zoo) instead. After
//!   the manifest, events are grouped per cell (`attack` × `defense` ×
//!   `ranker` × `n` × `t` × `transport` labels). `zoo_step` events
//!   must be strictly increasing and gap-free — starting from 0 unless
//!   the cell logged a `zoo_resumed` event first — with non-decreasing
//!   cumulative `observations`. Every stepping cell must log exactly
//!   one `defense_cell` summary, and nothing after it. The summary's
//!   `observations` must respect its declared `budget_observations`,
//!   its `peak_fake_users` / `peak_clicks_per_user` the cell's `n` /
//!   `t` labels (the guard's budget accounting, visible in telemetry),
//!   and its verdict counts must balance against the stack's ledger
//!   (`admitted + flagged + rate_limited + throttled == offered`).
//!   `precision` / `recall` / `organic_fpr` must be finite and inside
//!   `[0, 1]`, and undefended cells (`defense == "none"`) reject
//!   nothing.
//!
//! Exit code 0 on success, 1 with a diagnostic on the first violation.

use std::collections::BTreeMap;
use std::process::ExitCode;

use telemetry::json::{self, Json};
use telemetry::trace;

struct CellState {
    next_step: u64,
    observations: u64,
}

fn fail(msg: String) -> ExitCode {
    eprintln!("validate_jsonl: {msg}");
    ExitCode::FAILURE
}

/// Parses and validates a Chrome trace file; returns a summary line.
fn check_trace(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let doc = json::parse(&text).map_err(|err| format!("{path}: {err}"))?;
    let stats = trace::validate_chrome(&doc).map_err(|err| format!("{path}: {err}"))?;
    Ok(format!(
        "trace OK — {} span(s) on {} track(s)",
        stats.spans, stats.tracks
    ))
}

const KNOWN_METHODS: [&str; 5] = ["GET", "POST", "PUT", "DELETE", "?"];
const KNOWN_STATUSES: [u64; 7] = [200, 400, 404, 405, 409, 413, 500];
/// The defense admission vocabulary (`recsys::defense::Verdict`).
const KNOWN_VERDICTS: [&str; 4] = ["admit", "flag", "rate_limit", "throttle"];

/// Validates a serve access log; returns a summary line.
fn check_access_log(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))?;
    let mut lines = text.lines().enumerate();
    let Some((_, first)) = lines.next() else {
        return Err(format!("{path} is empty"));
    };
    let manifest = json::parse(first).map_err(|err| format!("{path} line 1: {err}"))?;
    if manifest.get("type").and_then(Json::as_str) != Some("manifest")
        || manifest.get("kind").and_then(Json::as_str) != Some("access-log")
    {
        return Err(format!(
            "{path} line 1 is not an access-log manifest: {first}"
        ));
    }

    let mut last_ts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut last_generation: BTreeMap<u64, u64> = BTreeMap::new();
    let mut max_generation = 0u64;
    let mut events = 0u64;
    let mut counted = 0u64;
    let mut judged = 0u64;
    let mut summary: Option<(u64, u64, u64)> = None;
    for (lineno, line) in lines {
        let at = |msg: String| format!("{path} line {}: {msg}", lineno + 1);
        let value = json::parse(line).map_err(|err| at(err.to_string()))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no string `type` field".into()))?;
        if summary.is_some() {
            return Err(at(format!(
                "`{kind}` line after the access-summary (summary must be last)"
            )));
        }
        if kind == "access-summary" {
            let field = |name: &str| {
                value
                    .get(name)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| at(format!("access-summary without numeric `{name}`")))
            };
            summary = Some((field("events")?, field("dropped")?, field("completed")?));
            continue;
        }
        if kind != "access" {
            continue; // metrics/... trailers only need to parse
        }
        events += 1;
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| at(format!("access event without numeric `{name}`")))
        };
        let conn = field("conn")?;
        let status = field("status")?;
        let generation = field("generation")?;
        let ts = field("ts_micros")?;
        field("micros")?;
        field("lag_micros")?;
        let method = value
            .get("method")
            .and_then(Json::as_str)
            .ok_or_else(|| at("access event without `method`".into()))?;
        if !KNOWN_METHODS.contains(&method) {
            return Err(at(format!("unknown method {method:?}")));
        }
        // Parse-error lines carry method "?" — they are logged but sit
        // outside the accepted/completed ledger the summary balances.
        if method != "?" {
            counted += 1;
        }
        if value.get("path").and_then(Json::as_str).is_none() {
            return Err(at("access event without `path`".into()));
        }
        if !KNOWN_STATUSES.contains(&status) {
            return Err(at(format!(
                "status {status} outside the served vocabulary {KNOWN_STATUSES:?}"
            )));
        }
        // Snapshot publication is a totally-ordered swap and requests
        // on one connection are serialized, so per connection both the
        // clock and the observed generation are non-decreasing. (Across
        // connections, log lines of requests straddling a swap may
        // interleave, so only per-conn order is checkable.)
        max_generation = max_generation.max(generation);
        if let Some(&prev) = last_generation.get(&conn) {
            if generation < prev {
                return Err(at(format!(
                    "generation regressed on conn {conn}: {prev} -> {generation}"
                )));
            }
        }
        last_generation.insert(conn, generation);
        if let Some(&prev) = last_ts.get(&conn) {
            if ts < prev {
                return Err(at(format!(
                    "ts_micros regressed on conn {conn}: {prev} -> {ts}"
                )));
            }
        }
        last_ts.insert(conn, ts);
        // Judged feedback: the admission verdict rides along. The
        // queue-depth bracket is snapshot under the admission lock, so
        // it is locally checkable even under concurrent clients —
        // rejected feedback must never increment queue depth.
        if let Some(verdict) = value.get("verdict") {
            judged += 1;
            let verdict = verdict
                .as_str()
                .ok_or_else(|| at("`verdict` is not a string".into()))?;
            if !KNOWN_VERDICTS.contains(&verdict) {
                return Err(at(format!(
                    "verdict {verdict:?} outside the defense vocabulary {KNOWN_VERDICTS:?}"
                )));
            }
            if value.get("detector").and_then(Json::as_str).is_none() {
                return Err(at("judged feedback event without `detector`".into()));
            }
            let offered = field("offered")?;
            let accepted = field("accepted")?;
            let pending_before = field("pending_before")?;
            let pending = field("pending")?;
            if accepted > offered {
                return Err(at(format!("accepted {accepted} exceeds offered {offered}")));
            }
            if pending != pending_before + accepted {
                return Err(at(format!(
                    "queue depth does not bracket the admission: pending {pending} != \
                     pending_before {pending_before} + accepted {accepted}"
                )));
            }
        }
    }
    // Drop accounting: every request the server completed must be in
    // the file or explicitly counted as dropped by the summary.
    let Some((sum_events, sum_dropped, sum_completed)) = summary else {
        return Err(format!(
            "{path} has no trailing access-summary line (written on graceful shutdown)"
        ));
    };
    if sum_events != counted {
        return Err(format!(
            "{path}: access-summary claims {sum_events} event(s) but the file holds \
             {counted} ledger-counted request line(s)"
        ));
    }
    if sum_events + sum_dropped != sum_completed {
        return Err(format!(
            "{path}: drop accounting does not balance: events {sum_events} + dropped \
             {sum_dropped} != completed {sum_completed}"
        ));
    }
    Ok(format!(
        "access log OK — {events} request(s) on {} connection(s), \
         {} generation(s), {judged} judged, {sum_dropped} dropped of {sum_completed} completed",
        last_ts.len(),
        max_generation + 1
    ))
}

/// Per-cell bookkeeping for the `--defense` schema.
#[derive(Default)]
struct GridCellState {
    next_step: Option<u64>,
    resumed: bool,
    observations: u64,
    summarized: bool,
}

/// Validates the text of an `exp_defense` grid log read from `path`;
/// returns (cells, summary line).
fn check_defense_log(path: &str, text: &str) -> Result<(usize, String), String> {
    let mut lines = text.lines().enumerate();
    let Some((_, first)) = lines.next() else {
        return Err(format!("{path} is empty"));
    };
    let manifest = json::parse(first).map_err(|err| format!("{path} line 1: {err}"))?;
    if manifest.get("type").and_then(Json::as_str) != Some("manifest") {
        return Err(format!("{path} line 1 is not a manifest: {first}"));
    }

    let mut cells: BTreeMap<String, GridCellState> = BTreeMap::new();
    let mut events = 0u64;
    let mut summaries = 0u64;
    for (lineno, line) in lines {
        let at = |msg: String| format!("{path} line {}: {msg}", lineno + 1);
        let value = json::parse(line).map_err(|err| at(err.to_string()))?;
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no string `type` field".into()))?;
        if kind != "defense_cell" && !kind.starts_with("zoo_") {
            continue; // metrics/... trailers only need to parse
        }
        events += 1;
        let field = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| at(format!("{kind} event without numeric `{name}`")))
        };
        let mut parts = Vec::new();
        for label in ["attack", "defense", "ranker", "n", "t", "transport"] {
            let v = value
                .get(label)
                .ok_or_else(|| at(format!("{kind} event without `{label}` label")))?;
            parts.push(match v {
                Json::Str(s) => s.clone(),
                other => other.render(),
            });
        }
        let cell_key = parts.join("|");
        let state = cells.entry(cell_key.clone()).or_default();
        if state.summarized {
            return Err(at(if kind == "defense_cell" {
                format!("cell `{cell_key}` summarized twice")
            } else {
                format!("cell `{cell_key}` logged {kind} after its defense_cell summary")
            }));
        }
        match kind {
            "zoo_step" => {
                let step = field("step")?;
                let observations = field("observations")?;
                match state.next_step {
                    Some(expected) if step != expected => {
                        return Err(at(format!(
                            "cell `{cell_key}` logged step {step}, expected {expected} \
                             (steps must be monotone, gap-free)"
                        )));
                    }
                    None if step != 0 && !state.resumed => {
                        return Err(at(format!(
                            "cell `{cell_key}` starts at step {step} without a zoo_resumed event"
                        )));
                    }
                    _ => {}
                }
                state.next_step = Some(step + 1);
                if observations < state.observations {
                    return Err(at(format!(
                        "cell `{cell_key}` observations regressed ({} -> {observations})",
                        state.observations
                    )));
                }
                state.observations = observations;
            }
            "zoo_resumed" => {
                let step = field("step")?;
                state.resumed = true;
                state.next_step = Some(step);
            }
            "zoo_checkpoint" => {
                field("step")?;
                field("bytes")?;
            }
            "defense_cell" => {
                state.summarized = true;
                summaries += 1;
                let steps = field("steps")?;
                let observations = field("observations")?;
                let budget = field("budget_observations")?;
                let peak_n = field("peak_fake_users")?;
                let peak_t = field("peak_clicks_per_user")?;
                if observations > budget {
                    return Err(at(format!(
                        "cell `{cell_key}` spent {observations} observation(s), \
                         over its declared budget of {budget}"
                    )));
                }
                if observations < state.observations {
                    return Err(at(format!(
                        "cell `{cell_key}` summary observations {observations} below \
                         the last step's {}",
                        state.observations
                    )));
                }
                // `steps` counts the full history (resume restores the
                // prefix), so it can only exceed the events seen here.
                if let Some(seen) = state.next_step {
                    if steps < seen {
                        return Err(at(format!(
                            "cell `{cell_key}` summary claims {steps} step(s) but \
                             {seen} were logged"
                        )));
                    }
                }
                // The n/t labels ARE the declared budget: the guard
                // must have kept the peaks inside them.
                let (n, t) = (field("n")?, field("t")?);
                if peak_n > n || peak_t > t {
                    return Err(at(format!(
                        "cell `{cell_key}` peaks {peak_n}x{peak_t} exceed the \
                         declared {n}x{t} budget"
                    )));
                }
                let offered = field("offered")?;
                let admitted = field("admitted")?;
                let flagged = field("flagged")?;
                let rate_limited = field("rate_limited")?;
                let throttled = field("throttled")?;
                let rejected = flagged + rate_limited + throttled;
                if admitted + rejected != offered {
                    return Err(at(format!(
                        "cell `{cell_key}` verdict counts do not balance the ledger: \
                         admitted {admitted} + flagged {flagged} + rate_limited {rate_limited} \
                         + throttled {throttled} != offered {offered}"
                    )));
                }
                // A rejection in an undefended cell means verdicts
                // leaked from another cell's stack.
                if parts[1] == "none" && rejected != 0 {
                    return Err(at(format!(
                        "undefended cell `{cell_key}` rejected {rejected} trajectorie(s)"
                    )));
                }
                for name in ["precision", "recall", "organic_fpr"] {
                    let v = value
                        .get(name)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| at(format!("defense_cell without numeric `{name}`")))?;
                    if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                        return Err(at(format!("`{name}` = {v} is not a probability in [0, 1]")));
                    }
                }
            }
            other => return Err(at(format!("unknown zoo event type `{other}`"))),
        }
    }
    if let Some((cell_key, _)) = cells.iter().find(|(_, state)| !state.summarized) {
        return Err(format!(
            "{path}: cell `{cell_key}` logged events but no defense_cell summary"
        ));
    }
    if cells.is_empty() {
        return Err(format!("{path} has no defense_cell summaries"));
    }
    Ok((
        cells.len(),
        format!("defense log OK — {events} event(s), {summaries} cell summarie(s)"),
    ))
}

fn main() -> ExitCode {
    let usage = "usage: validate_jsonl [<run.jsonl>] [--defense] [--expect-steps N] \
                 [--expect-cells N] [--trace FILE] [--access-log FILE]";
    let mut args = std::env::args().skip(1);
    let Some(first) = args.next() else {
        return fail(usage.into());
    };
    let mut expect_steps: Option<u64> = None;
    let mut expect_cells: Option<usize> = None;
    let mut trace_path: Option<String> = None;
    let mut access_path: Option<String> = None;
    let mut defense = false;
    let path = if first == "--trace" || first == "--access-log" {
        match args.next() {
            Some(p) if first == "--trace" => trace_path = Some(p),
            Some(p) => access_path = Some(p),
            None => return fail(usage.into()),
        }
        None
    } else {
        Some(first)
    };
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--defense" => defense = true,
            "--trace" => match args.next() {
                Some(p) => trace_path = Some(p),
                None => return fail(usage.into()),
            },
            "--access-log" => match args.next() {
                Some(p) => access_path = Some(p),
                None => return fail(usage.into()),
            },
            other => {
                let value = args.next().and_then(|v| v.parse().ok());
                match (other, value) {
                    ("--expect-steps", Some(v)) => expect_steps = Some(v),
                    ("--expect-cells", Some(v)) => expect_cells = Some(v as usize),
                    (other, _) => return fail(format!("bad flag or value: {other}")),
                }
            }
        }
    }

    let trace_summary = match trace_path.as_deref().map(check_trace) {
        Some(Ok(summary)) => Some(summary),
        Some(Err(err)) => return fail(err),
        None => None,
    };
    let access_summary = match access_path.as_deref().map(check_access_log) {
        Some(Ok(summary)) => Some(summary),
        Some(Err(err)) => return fail(err),
        None => None,
    };
    let Some(path) = path else {
        // --trace/--access-log only: no run log to validate.
        let summary: Vec<String> = [trace_summary, access_summary]
            .into_iter()
            .flatten()
            .collect();
        println!("validate_jsonl: OK — {}", summary.join(", "));
        return ExitCode::SUCCESS;
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => return fail(format!("cannot read {path}: {err}")),
    };
    if defense {
        if expect_steps.is_some() {
            return fail(
                "--expect-steps is per-family in an attack grid; not valid with --defense".into(),
            );
        }
        let (cells, summary) = match check_defense_log(&path, &text) {
            Ok(result) => result,
            Err(err) => return fail(err),
        };
        if let Some(want) = expect_cells {
            if cells != want {
                return fail(format!("{cells} defense cell(s) logged, expected {want}"));
            }
        }
        let extra: String = [trace_summary, access_summary]
            .into_iter()
            .flatten()
            .map(|s| format!(", {s}"))
            .collect();
        println!("validate_jsonl: OK — {summary}{extra}");
        return ExitCode::SUCCESS;
    }

    if text.lines().next().is_none() {
        return fail(format!("{path} is empty"));
    }

    let mut episodes: Option<u64> = None;
    let mut cells: BTreeMap<String, CellState> = BTreeMap::new();
    let mut events = 0u64;

    for (lineno, line) in text.lines().enumerate() {
        let value = match json::parse(line) {
            Ok(value) => value,
            Err(err) => return fail(format!("line {}: {err}", lineno + 1)),
        };
        let Some(kind) = value.get("type").and_then(Json::as_str) else {
            return fail(format!("line {}: no string `type` field", lineno + 1));
        };
        if lineno == 0 {
            if kind != "manifest" {
                return fail(format!("first line has type `{kind}`, expected `manifest`"));
            }
            episodes = value.get("episodes").and_then(Json::as_u64);
            continue;
        }
        events += 1;
        if kind != "step" {
            continue; // observation/metrics/... lines only need to parse
        }

        // Cells are whatever label combination the producer attached;
        // numeric labels (e.g. a `threads` tag) render as themselves.
        let cell = ["dataset", "ranker", "design", "threads"]
            .iter()
            .filter_map(|k| value.get(k))
            .map(|v| match v {
                Json::Str(s) => s.clone(),
                other => other.render(),
            })
            .collect::<Vec<_>>()
            .join("|");
        let Some(step) = value.get("step").and_then(Json::as_u64) else {
            return fail(format!("line {}: step event without `step`", lineno + 1));
        };
        let state = cells.entry(cell.clone()).or_insert(CellState {
            next_step: 0,
            observations: 0,
        });
        if step != state.next_step {
            return fail(format!(
                "line {}: cell `{cell}` logged step {step}, expected {} (steps must be monotone, gap-free)",
                lineno + 1,
                state.next_step
            ));
        }
        state.next_step += 1;

        for field in ["sample_secs", "score_secs", "update_secs"] {
            match value.get(field).and_then(Json::as_f64) {
                Some(secs) if secs.is_finite() && secs >= 0.0 => {}
                other => {
                    return fail(format!(
                        "line {}: step event `{field}` invalid: {other:?}",
                        lineno + 1
                    ))
                }
            }
        }

        let Some(observations) = value.get("observations").and_then(Json::as_u64) else {
            return fail(format!(
                "line {}: step event without `observations`",
                lineno + 1
            ));
        };
        if observations <= state.observations {
            return fail(format!(
                "line {}: cell `{cell}` observations not increasing ({} -> {observations})",
                lineno + 1,
                state.observations
            ));
        }
        state.observations = observations;
        if let Some(m) = episodes {
            let expected = m * (step + 1);
            if observations != expected {
                return fail(format!(
                    "line {}: cell `{cell}` step {step} observations = {observations}, \
                     expected episodes x (step+1) = {expected}",
                    lineno + 1
                ));
            }
        }
    }

    if let Some(want) = expect_steps {
        for (cell, state) in &cells {
            if state.next_step != want {
                return fail(format!(
                    "cell `{cell}` logged {} steps, expected {want}",
                    state.next_step
                ));
            }
        }
    }
    if let Some(want) = expect_cells {
        if cells.len() != want {
            return fail(format!(
                "{} cells logged steps, expected {want}",
                cells.len()
            ));
        }
    }

    println!(
        "validate_jsonl: OK — {} event line(s), {} cell(s){}{}",
        events,
        cells.len(),
        episodes.map_or(String::new(), |m| format!(", {m} episodes/step")),
        [trace_summary, access_summary]
            .into_iter()
            .flatten()
            .map(|s| format!(", {s}"))
            .collect::<String>(),
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::check_defense_log;

    /// The labels of one `Popular × ItemPop × local` cell.
    fn cell(defense: &str, n: u64, t: u64) -> String {
        format!(
            r#""attack":"Popular","defense":"{defense}","ranker":"ItemPop","n":{n},"t":{t},"transport":"local""#
        )
    }

    fn step(cell: &str, step: u64, observations: u64) -> String {
        format!(r#"{{"type":"zoo_step",{cell},"step":{step},"observations":{observations}}}"#)
    }

    /// A `defense_cell` summary; the defaults describe a valid cell of
    /// a 4x6 budget whose attacker offered two trajectories.
    struct Summary {
        steps: u64,
        observations: u64,
        budget: u64,
        peaks: (u64, u64),
        offered: u64,
        admitted: u64,
        flagged: u64,
    }

    impl Summary {
        fn new(steps: u64, observations: u64) -> Self {
            Summary {
                steps,
                observations,
                budget: observations,
                peaks: (4, 6),
                offered: 2,
                admitted: 2,
                flagged: 0,
            }
        }

        fn line(&self, cell: &str) -> String {
            format!(
                r#"{{"type":"defense_cell",{cell},"steps":{},"observations":{},"budget_observations":{},"peak_fake_users":{},"peak_clicks_per_user":{},"offered":{},"admitted":{},"flagged":{},"rate_limited":0,"throttled":0,"recall":0,"precision":1,"organic_fpr":0}}"#,
                self.steps,
                self.observations,
                self.budget,
                self.peaks.0,
                self.peaks.1,
                self.offered,
                self.admitted,
                self.flagged,
            )
        }
    }

    fn check(lines: &[String]) -> Result<usize, String> {
        let mut text = String::from(r#"{"type":"manifest","experiment":"defense"}"#);
        for line in lines {
            text.push('\n');
            text.push_str(line);
        }
        check_defense_log("grid.jsonl", &text).map(|(cells, _)| cells)
    }

    fn rejects(lines: &[String], needle: &str) {
        match check(lines) {
            Ok(cells) => panic!("accepted a faulty log ({cells} cells)"),
            Err(err) => assert!(err.contains(needle), "wrong diagnostic: {err}"),
        }
    }

    #[test]
    fn accepts_a_log_with_two_budgets() {
        let (small, large) = (cell("lof", 4, 6), cell("lof", 6, 6));
        let lines = [
            step(&small, 0, 1),
            step(&large, 0, 1),
            step(&small, 1, 2),
            step(&large, 1, 2),
            Summary::new(2, 2).line(&small),
            Summary::new(2, 2).line(&large),
        ];
        assert_eq!(check(&lines), Ok(2));
    }

    #[test]
    fn accepts_a_resumed_cell() {
        let c = cell("none", 4, 6);
        let summary = Summary {
            offered: 0,
            admitted: 0,
            ..Summary::new(4, 4)
        };
        // The first run's log: killed after the checkpoint of two steps.
        let first = [
            step(&c, 0, 1),
            step(&c, 1, 2),
            format!(r#"{{"type":"zoo_checkpoint",{c},"step":2,"bytes":64}}"#),
        ];
        // The second run's log starts where the checkpoint stopped.
        let second = [
            format!(r#"{{"type":"zoo_resumed",{c},"step":2}}"#),
            step(&c, 2, 3),
            step(&c, 3, 4),
            summary.line(&c),
        ];
        assert_eq!(check(&second), Ok(1));
        assert_eq!(check(&[&first[..], &second[..]].concat()), Ok(1));
    }

    #[test]
    fn rejects_a_step_gap() {
        let c = cell("lof", 4, 6);
        let lines = [step(&c, 0, 1), step(&c, 2, 2), Summary::new(3, 2).line(&c)];
        rejects(&lines, "expected 1");
    }

    #[test]
    fn rejects_a_second_summary() {
        let c = cell("lof", 4, 6);
        let lines = [
            step(&c, 0, 1),
            Summary::new(1, 1).line(&c),
            Summary::new(1, 1).line(&c),
        ];
        rejects(&lines, "summarized twice");
    }

    #[test]
    fn rejects_observations_over_budget() {
        let c = cell("lof", 4, 6);
        let summary = Summary {
            budget: 1,
            ..Summary::new(2, 2)
        };
        let lines = [step(&c, 0, 1), step(&c, 1, 2), summary.line(&c)];
        rejects(&lines, "over its declared budget");
    }

    #[test]
    fn rejects_peaks_over_n_by_t() {
        let c = cell("lof", 4, 6);
        for peaks in [(5, 6), (4, 7)] {
            let summary = Summary {
                peaks,
                ..Summary::new(1, 1)
            };
            rejects(
                &[step(&c, 0, 1), summary.line(&c)],
                "exceed the declared 4x6",
            );
        }
    }

    #[test]
    fn rejects_an_unbalanced_ledger() {
        let c = cell("lof", 4, 6);
        let summary = Summary {
            offered: 3,
            ..Summary::new(1, 1)
        };
        rejects(&[step(&c, 0, 1), summary.line(&c)], "do not balance");
    }

    #[test]
    fn rejects_an_undefended_cell_that_rejects() {
        let c = cell("none", 4, 6);
        let summary = Summary {
            admitted: 1,
            flagged: 1,
            ..Summary::new(1, 1)
        };
        rejects(&[step(&c, 0, 1), summary.line(&c)], "undefended cell");
    }

    #[test]
    fn rejects_a_stepping_cell_without_summary() {
        let c = cell("lof", 4, 6);
        rejects(&[step(&c, 0, 1)], "no defense_cell summary");
    }
}
