//! Integration pins for the streaming plane (`telemetry::stream`):
//!
//! * window rotation under **concurrent** recording loses no committed
//!   sample — every `add_at` either commits (visible in the window
//!   until its bucket rotates out) or reports stale, and the final
//!   window equals a serial replay of the per-bucket commit counts;
//! * windowed histogram quantiles are **exactly** the offline answer:
//!   the same in-window samples pushed through the cumulative
//!   registry's bucket math produce bit-identical p50/p95/p99;
//! * the Prometheus exposition and the `/metrics` JSON document of a
//!   deterministic registry match the checked-in golden files
//!   byte for byte
//!   (`UPDATE_GOLDEN=1 cargo test -p telemetry --test stream`
//!   regenerates them).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use telemetry::metrics::{quantile_from_buckets, Registry};
use telemetry::stream::{WindowSpec, WindowedCounter, WindowedHistogram};
use telemetry::CusumConfig;

/// Hammer one counter from several drifting threads, then check the
/// final window against per-bucket commit counts: rotation may *reject*
/// a racing record (stale), but it must never tear one — committed
/// means counted until the bucket leaves the ring.
#[test]
fn concurrent_rotation_loses_no_committed_sample() {
    const THREADS: u64 = 4;
    const STEPS: u64 = 96;
    const ADDS_PER_STEP: u64 = 25;
    const BUCKETS: usize = 8;

    let counter = Arc::new(WindowedCounter::new(WindowSpec::new(1000, BUCKETS)));
    // Per-bucket commit ledger, shared by all threads.
    let committed: Arc<Vec<AtomicU64>> = Arc::new((0..STEPS).map(|_| AtomicU64::new(0)).collect());
    let rejected = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for t in 0..THREADS {
        let counter = Arc::clone(&counter);
        let committed = Arc::clone(&committed);
        let rejected = Arc::clone(&rejected);
        handles.push(std::thread::spawn(move || {
            for idx in 0..STEPS {
                // Odd threads lag behind the clock by more than the
                // ring, exercising the stale-rejection path against
                // live rotation.
                let idx = if t % 2 == 1 {
                    idx.saturating_sub(BUCKETS as u64 + 1)
                } else {
                    idx
                };
                for _ in 0..ADDS_PER_STEP {
                    if counter.add_at(idx, 1) {
                        committed[idx as usize].fetch_add(1, Ordering::Relaxed);
                    } else {
                        rejected.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }

    // Serial replay of the commit ledger must reproduce the window.
    let replay = WindowedCounter::new(WindowSpec::new(1000, BUCKETS));
    for idx in 0..STEPS {
        let n = committed[idx as usize].load(Ordering::Relaxed);
        if n > 0 {
            assert!(replay.add_at(idx, n), "serial replay can never be stale");
        }
    }
    let live = counter.window_at(STEPS - 1);
    let replayed = replay.window_at(STEPS - 1);
    assert_eq!(live.count, replayed.count);
    assert_eq!(live.sum, replayed.sum);

    // Every add is accounted for: committed into some bucket or
    // explicitly rejected as stale — nothing vanished.
    let total_committed: u64 = committed.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    assert_eq!(
        total_committed + rejected.load(Ordering::Relaxed),
        THREADS * STEPS * ADDS_PER_STEP
    );
    assert_eq!(counter.stale_records(), rejected.load(Ordering::Relaxed));
}

/// The windowed quantile must be *the same math* as the cumulative
/// registry's: replay exactly the in-window samples into a cumulative
/// histogram with the same bounds and demand bit-identical quantiles.
#[test]
fn windowed_quantiles_equal_offline_replay() {
    let bounds = [0.001, 0.01, 0.1, 1.0, 10.0];
    let spec = WindowSpec::new(1000, 16);
    let hist = WindowedHistogram::new(spec, &bounds);

    // A deterministic spread: indices 0..40 so the first 24 buckets
    // rotate out of the 16-bucket window ending at idx 39.
    let mut samples: Vec<(u64, f64)> = Vec::new();
    for idx in 0..40u64 {
        for k in 0..20u64 {
            let value = 0.0004 * ((idx * 20 + k) % 97 + 1) as f64;
            samples.push((idx, value));
        }
    }
    for &(idx, value) in &samples {
        assert!(hist.record_at(idx, value));
    }

    let last = 39u64;
    let view = hist.window_at(last);
    let span = view.window_secs; // seconds == buckets at 1000 ms each
    let in_window = |idx: u64| (last - idx) as f64 * 1.0 < span;

    // Offline replay: only the in-window samples, cumulative math.
    let reg = Registry::new();
    let offline = reg.histogram("offline", &bounds);
    let mut replayed = 0u64;
    for &(idx, value) in &samples {
        if in_window(idx) {
            offline.record(value);
            replayed += 1;
        }
    }
    assert!(
        replayed < samples.len() as u64,
        "window must actually narrow"
    );
    assert_eq!(view.count, replayed);

    let snap = reg.snapshot(None);
    let entry = snap.get("offline").unwrap();
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(view.quantile(q), entry.quantile(q), "quantile {q} diverged");
    }

    // And both agree with the raw bucket math on the view itself.
    for q in [0.5, 0.95, 0.99] {
        assert_eq!(
            view.quantile(q),
            quantile_from_buckets(&view.buckets, view.count, q)
        );
    }
}

/// Byte-for-byte golden pins of the Prometheus exposition and the JSON
/// document: every shape the renderers emit (cumulative counter/gauge/histogram, windowed
/// counter/histogram, labeled family with overflow, drift detector).
#[test]
fn prom_exposition_matches_golden_file() {
    let reg = Registry::new();
    reg.counter("serve_requests_total").add(42);
    reg.gauge("system_generation").set(3);
    let lat = reg.histogram("trainer_step_secs", &[0.01, 0.1, 1.0]);
    for v in [0.004, 0.02, 0.02, 0.3, 5.0] {
        lat.record(v);
    }
    lat.record(f64::NAN);

    let events = reg.windowed_counter("serve_feedback_trajectories", WindowSpec::new(1000, 60));
    events.add_at(0, 30);
    let secs = reg.windowed_histogram(
        "serve_request_secs",
        WindowSpec::new(1000, 60),
        &[0.001, 0.01, 0.1],
    );
    for v in [0.0004, 0.002, 0.002, 0.05, 0.5] {
        secs.record_at(0, v);
    }
    let fam = reg.counter_family(
        "serve_requests",
        &["route", "status"],
        WindowSpec::new(1000, 60),
        2,
    );
    fam.add(&["healthz", "200"], 5);
    fam.add(&["recommend", "200"], 7);
    fam.add(&["feedback", "400"], 1); // over the cap of 2 -> overflow
    let drift = reg.detector("serve_feedback_pop_drift", CusumConfig::default());
    for i in 0..8 {
        drift.observe(10.0 + (i % 2) as f64);
    }

    let snapshot = reg.snapshot(None);
    // The JSON document `GET /metrics` serves, which `obs_top` and
    // `tests/serve_attack.rs` read.
    check_golden("metrics.json", &snapshot.to_json().render());
    check_golden("metrics.prom", &telemetry::prom::render(&snapshot));
}

/// Compares `text` with `tests/golden/<file>` byte for byte
/// (`UPDATE_GOLDEN=1` rewrites the file instead).
fn check_golden(file: &str, text: &str) {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, text).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        text, want,
        "exposition drifted from tests/golden/{file} \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}
