//! JSONL event sink: one JSON object per line, append-only.
//!
//! The run-log convention every experiment binary follows (see
//! DESIGN.md §5b):
//!
//! 1. the first line is a **manifest** — `{"type":"manifest", ...}`
//!    with the run configuration (dataset, ranker, seed, thread count,
//!    step/episode counts);
//! 2. every later line is an **event** — `{"type":"step", ...}` per
//!    trainer step (or `"observation"`, `"metrics"`, ... for other
//!    event shapes), carrying whatever fields that event type needs.
//!
//! The sink is `Sync`: a `Mutex` serializes whole lines, so concurrent
//! experiment cells can share one file without interleaving bytes.
//! Every line is flushed as written — a crashed run still leaves a
//! readable prefix, which is what the CI validator relies on.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Mutex;
use std::thread::JoinHandle;

use crate::json::Json;
use crate::metrics;

/// A thread-safe JSON-lines file writer.
pub struct JsonlSink {
    out: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`, creating parent
    /// directories as needed.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
        })
    }

    /// Appends one value as a single line and flushes it.
    pub fn emit(&self, line: &Json) -> io::Result<()> {
        let mut out = self.out.lock().unwrap();
        out.write_all(line.render().as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
        metrics::counter("telemetry_lines_total").inc();
        Ok(())
    }

    /// [`JsonlSink::emit`] of a `{"type":"metrics", "metrics": ...}`
    /// line holding the global registry's `/metrics` document — the
    /// conventional final line of a run log.
    pub fn emit_metrics_snapshot(&self) -> io::Result<()> {
        let line = Json::obj()
            .field("type", "metrics")
            .field("metrics", metrics::snapshot(None).to_json());
        self.emit(&line)
    }
}

/// Default queue depth for [`AsyncJsonlSink`].
pub const ASYNC_SINK_CAPACITY: usize = 4096;

/// A [`JsonlSink`] drained by a dedicated writer thread.
///
/// `emit` pushes onto a bounded queue and never touches the file — the
/// cost on the caller (e.g. the serve event loop) is one `try_send`.
/// When the queue is full the line is *dropped*, reported via the
/// `false` return so the caller can account for it; the sink itself
/// never blocks and never loses silently.
///
/// [`AsyncJsonlSink::close`] performs the graceful-shutdown handshake:
/// it closes the queue, joins the writer (which drains every enqueued
/// line first), and hands the inner [`JsonlSink`] back so the caller
/// can synchronously append trailing lines (e.g. an accounting summary)
/// that are guaranteed to land after every queued event.
pub struct AsyncJsonlSink {
    tx: Mutex<Option<SyncSender<Json>>>,
    writer: Mutex<Option<JoinHandle<JsonlSink>>>,
}

impl AsyncJsonlSink {
    /// Creates (truncating) the file at `path` and starts the writer
    /// thread.
    pub fn create(path: impl AsRef<Path>, capacity: usize) -> io::Result<Self> {
        let sink = JsonlSink::create(path)?;
        let (tx, rx) = sync_channel::<Json>(capacity.max(1));
        let writer = std::thread::Builder::new()
            .name("jsonl-writer".to_string())
            .spawn(move || {
                while let Ok(line) = rx.recv() {
                    // Write errors are not recoverable from this thread;
                    // drop the line and keep draining so close() still
                    // hands the sink back.
                    let _ = sink.emit(&line);
                }
                sink
            })
            .expect("spawn jsonl writer thread");
        Ok(Self {
            tx: Mutex::new(Some(tx)),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// Enqueue one line. Returns `false` if the line was dropped
    /// (queue full, or the sink already closed).
    pub fn emit(&self, line: Json) -> bool {
        let tx = self.tx.lock().unwrap();
        match tx.as_ref() {
            None => false,
            Some(tx) => match tx.try_send(line) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
            },
        }
    }

    /// Close the queue, drain every enqueued line to disk, and return
    /// the inner synchronous sink (for trailing summary lines).
    /// Subsequent `emit` calls return `false`. Returns `None` if
    /// already closed.
    pub fn close(&self) -> Option<JsonlSink> {
        self.tx.lock().unwrap().take()?;
        let handle = self.writer.lock().unwrap().take()?;
        Some(handle.join().expect("jsonl writer thread panicked"))
    }
}

impl Drop for AsyncJsonlSink {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "telemetry-sink-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn lines_round_trip_through_file() {
        let path = temp_path("roundtrip");
        let sink = JsonlSink::create(&path).expect("create");
        sink.emit(&Json::obj().field("type", "manifest").field("seed", 7u64))
            .expect("emit");
        sink.emit(&Json::obj().field("type", "step").field("step", 0usize))
            .expect("emit");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let manifest = json::parse(lines[0]).expect("line 0 parses");
        assert_eq!(
            manifest.get("type").and_then(Json::as_str),
            Some("manifest")
        );
        let step = json::parse(lines[1]).expect("line 1 parses");
        assert_eq!(step.get("step").and_then(Json::as_u64), Some(0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_emitters_never_interleave_bytes() {
        let path = temp_path("concurrent");
        let sink = JsonlSink::create(&path).expect("create");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sink = &sink;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        sink.emit(
                            &Json::obj()
                                .field("type", "event")
                                .field("thread", t)
                                .field("i", i)
                                .field("pad", "x".repeat(200)),
                        )
                        .expect("emit");
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 200);
        for line in lines {
            json::parse(line).expect("every line is one valid document");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn async_sink_drains_everything_on_close() {
        let path = temp_path("async-drain");
        let sink = AsyncJsonlSink::create(&path, 1024).expect("create");
        for i in 0..300u64 {
            assert!(sink.emit(Json::obj().field("type", "event").field("i", i)));
        }
        let inner = sink.close().expect("first close yields the sink");
        inner
            .emit(&Json::obj().field("type", "summary").field("events", 300u64))
            .expect("trailing summary");
        assert!(sink.close().is_none(), "second close is a no-op");
        assert!(
            !sink.emit(Json::obj()),
            "emit after close is a dropped line"
        );
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 301, "every queued line plus the summary");
        let last = json::parse(lines[300]).expect("summary parses");
        assert_eq!(last.get("type").and_then(Json::as_str), Some("summary"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn async_sink_full_queue_drops_visibly() {
        let path = temp_path("async-full");
        let sink = AsyncJsonlSink::create(&path, 1).expect("create");
        // Saturate: with a 1-deep queue and a slow consumer some of a
        // burst must report as dropped, and accepted+dropped covers all.
        let mut accepted = 0u64;
        for i in 0..2000u64 {
            if sink.emit(Json::obj().field("i", i).field("pad", "x".repeat(64))) {
                accepted += 1;
            }
        }
        sink.close();
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(text.lines().count() as u64, accepted);
        std::fs::remove_file(&path).ok();
    }
}
