//! Prometheus text exposition (version 0.0.4) of a registry
//! [`Snapshot`].
//!
//! The renderer groups every sample line under its *final* metric name
//! and emits exactly one `# TYPE` line per name. That matters because
//! two instruments can legally meet at one name: the counter
//! `serve_requests_total` and the labeled family `serve_requests`
//! (whose series render as `serve_requests_total{route=...}`) coexist
//! as one counter with and without labels — valid Prometheus, but only
//! if the TYPE header appears once. Instruments are visited kind-major
//! (cumulative kinds first, then windowed counters, windowed
//! histograms, families, detectors), so within such a shared group the
//! unlabeled counter line comes first.
//!
//! Shapes emitted:
//!
//! * counter `name` → `name <v>` (counter)
//! * gauge `name` → `name <v>` (gauge)
//! * histogram `name` → classic `name_bucket{le=...}` with
//!   *cumulative* bucket counts, `+Inf`, `name_sum`, `name_count`,
//!   plus `name_nan_total` (quarantined NaN samples)
//! * windowed counter `name` → `name_rate{window="S"}` gauge,
//!   `name_window_count{window="S"}` gauge, `name_stale_total` counter
//! * windowed histogram `name` → `name_window{window="S",quantile=q}`
//!   gauges for p50/p95/p99, `name_window_count`, `name_rate`,
//!   `name_stale_total`, `name_nan_total`
//! * counter family `name` → `name_total{labels}` counters,
//!   `name_rate{labels,window="S"}` gauges, `name_overflow_total`
//! * drift detector `name` → `name{stat=...}` gauges (mean, dev,
//!   s_pos, s_neg), `name_alarms_total` counter, `name_drift` 0/1 gauge

use std::collections::BTreeMap;

use crate::metrics::{MetricValue, Snapshot};
use crate::stream::WindowView;

/// Render a snapshot as Prometheus text exposition.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = Exposition::default();
    let mut entries: Vec<_> = snapshot.entries.iter().collect();
    entries.sort_by_key(|(_, value)| value.section());

    for (name, value) in entries {
        match value {
            MetricValue::Counter(v) => {
                out.sample(name, "counter", format!("{name} {v}"));
            }
            MetricValue::Gauge(v) => {
                out.sample(name, "gauge", format!("{name} {v}"));
            }
            MetricValue::Histogram {
                count,
                nan_count,
                sum,
                buckets,
            } => {
                let mut cum = 0u64;
                for &(le, n) in buckets {
                    cum += n;
                    out.sample(
                        name,
                        "histogram",
                        format!("{name}_bucket{{le=\"{}\"}} {cum}", fmt_le(le)),
                    );
                }
                out.sample(name, "histogram", format!("{name}_sum {}", fmt_f64(*sum)));
                out.sample(name, "histogram", format!("{name}_count {count}"));
                let nan_name = format!("{name}_nan_total");
                out.sample(&nan_name, "counter", format!("{nan_name} {nan_count}"));
            }
            MetricValue::WindowedCounter {
                view,
                stale_records,
            } => {
                window_counter_samples(&mut out, name, view);
                let stale = format!("{name}_stale_total");
                out.sample(&stale, "counter", format!("{stale} {stale_records}"));
            }
            MetricValue::WindowedHistogram {
                view,
                nan_count,
                stale_records,
            } => {
                let w = fmt_f64(view.window_secs);
                let qname = format!("{name}_window");
                for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                    if let Some(v) = view.quantile(q) {
                        out.sample(
                            &qname,
                            "gauge",
                            format!(
                                "{qname}{{window=\"{w}\",quantile=\"{label}\"}} {}",
                                fmt_f64(v)
                            ),
                        );
                    }
                }
                window_counter_samples(&mut out, name, view);
                let stale = format!("{name}_stale_total");
                out.sample(&stale, "counter", format!("{stale} {stale_records}"));
                let nan = format!("{name}_nan_total");
                out.sample(&nan, "counter", format!("{nan} {nan_count}"));
            }
            MetricValue::Family {
                label_names,
                series,
                overflow_events,
            } => {
                let total_name = format!("{name}_total");
                let rate_name = format!("{name}_rate");
                for (values, total, view) in series {
                    let labels: Vec<String> = label_names
                        .iter()
                        .zip(values.iter())
                        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
                        .collect();
                    out.sample(
                        &total_name,
                        "counter",
                        format!("{total_name}{{{}}} {total}", labels.join(",")),
                    );
                    let mut rate_labels = labels.clone();
                    rate_labels.push(format!("window=\"{}\"", fmt_f64(view.window_secs)));
                    out.sample(
                        &rate_name,
                        "gauge",
                        format!(
                            "{rate_name}{{{}}} {}",
                            rate_labels.join(","),
                            fmt_f64(view.rate())
                        ),
                    );
                }
                let overflow = format!("{name}_overflow_total");
                out.sample(
                    &overflow,
                    "counter",
                    format!("{overflow} {overflow_events}"),
                );
            }
            MetricValue::Detector(state) => {
                for (stat, v) in [
                    ("mean", state.mean),
                    ("dev", state.dev),
                    ("s_pos", state.s_pos),
                    ("s_neg", state.s_neg),
                ] {
                    out.sample(
                        name,
                        "gauge",
                        format!("{name}{{stat=\"{stat}\"}} {}", fmt_f64(v)),
                    );
                }
                let obs = format!("{name}_observations_total");
                out.sample(&obs, "counter", format!("{obs} {}", state.observations));
                let alarms = format!("{name}_alarms_total");
                out.sample(&alarms, "counter", format!("{alarms} {}", state.alarms));
                let drift = format!("{name}_drift");
                out.sample(
                    &drift,
                    "gauge",
                    format!("{drift} {}", if state.drifted { 1 } else { 0 }),
                );
            }
        }
    }

    out.finish()
}

fn window_counter_samples(out: &mut Exposition, name: &str, view: &WindowView) {
    let w = fmt_f64(view.window_secs);
    let rate = format!("{name}_rate");
    out.sample(
        &rate,
        "gauge",
        format!("{rate}{{window=\"{w}\"}} {}", fmt_f64(view.rate())),
    );
    let count = format!("{name}_window_count");
    out.sample(
        &count,
        "gauge",
        format!("{count}{{window=\"{w}\"}} {}", view.count),
    );
}

/// Accumulates sample lines grouped by final metric name, one `# TYPE`
/// per name, names in sorted order for deterministic output.
#[derive(Default)]
struct Exposition {
    groups: BTreeMap<String, (&'static str, Vec<String>)>,
}

impl Exposition {
    fn sample(&mut self, name: &str, kind: &'static str, line: String) {
        let entry = self
            .groups
            .entry(name.to_string())
            .or_insert_with(|| (kind, Vec::new()));
        // First registration wins the TYPE; in practice kinds agree
        // (the only designed collision is counter-with-counter).
        entry.1.push(line);
    }

    fn finish(self) -> String {
        let mut s = String::new();
        for (name, (kind, lines)) in self.groups {
            s.push_str("# TYPE ");
            s.push_str(&name);
            s.push(' ');
            s.push_str(kind);
            s.push('\n');
            for line in lines {
                s.push_str(&line);
                s.push('\n');
            }
        }
        s
    }
}

/// `le` label value: finite bounds via the shared float format, the
/// overflow bucket as Prometheus' canonical `+Inf`.
fn fmt_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else {
        fmt_f64(le)
    }
}

/// Deterministic float formatting: Rust's shortest-roundtrip `{}`.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

fn escape_label(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            _ => s.push(c),
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::stream::{CusumConfig, WindowSpec, DEFAULT_WINDOW};

    #[test]
    fn counter_and_family_share_one_type_line() {
        let reg = Registry::new();
        reg.counter("serve_requests_total").add(7);
        let fam = reg.counter_family("serve_requests", &["route"], WindowSpec::new(1000, 4), 8);
        fam.add(&["healthz"], 2);
        let text = render(&reg.snapshot(None));
        let type_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE serve_requests_total "))
            .collect();
        assert_eq!(type_lines, ["# TYPE serve_requests_total counter"]);
        assert!(text.contains("serve_requests_total 7\n"));
        assert!(text.contains("serve_requests_total{route=\"healthz\"} 2\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_inf() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0]);
        h.record(0.5);
        h.record(1.5);
        h.record(9.0);
        let text = render(&reg.snapshot(None));
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_bucket{le=\"2\"} 2\n"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("lat_sum 11\n"));
        assert!(text.contains("lat_count 3\n"));
    }

    #[test]
    fn detector_states_render_as_stat_gauges() {
        let reg = Registry::new();
        let d = reg.detector("drift", CusumConfig::default());
        d.observe(1.0);
        d.observe(2.0);
        let text = render(&reg.snapshot(None));
        assert!(text.contains("# TYPE drift gauge"));
        assert!(text.contains("drift{stat=\"mean\"}"));
        assert!(text.contains("drift_observations_total 2\n"));
        assert!(text.contains("drift_alarms_total 0\n"));
        assert!(text.contains("drift_drift 0\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn windowed_counter_renders_rate_and_stale() {
        let reg = Registry::new();
        let c = reg.windowed_counter("events", DEFAULT_WINDOW);
        c.add_at(0, 30);
        let text = render(&reg.snapshot(None));
        assert!(text.contains("# TYPE events_rate gauge"));
        assert!(text.contains("events_rate{window=\"60\"} 0.5\n"));
        assert!(text.contains("events_window_count{window=\"60\"} 30\n"));
        assert!(text.contains("events_stale_total 0\n"));
    }
}
