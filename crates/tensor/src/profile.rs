//! Per-`Op`-kind autodiff profiling.
//!
//! Every [`crate::Graph`] constructor and every node visited by the
//! backward sweep reports into one process-wide table of atomic
//! aggregates, keyed by [`OpKind`]: forward/backward wall time,
//! invocation counts, output element counts, and a FLOP estimate from
//! the operand shapes. [`snapshot`] turns the table into an
//! [`OpProfile`] whose JSON lands next to the Chrome trace (the
//! `"opProfile"` top-level field) and feeds `trace_report`'s top-N
//! self-time table and the `BENCH_*.json` per-op medians.
//!
//! Profiling shares the tracer's process-wide enable flag
//! ([`telemetry::trace::is_enabled`]): one relaxed load and a branch
//! per op when disabled, so the tape loses nothing measurable with
//! observability off. Timing never touches any RNG — enabling the
//! profiler cannot change a single sampled number.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use telemetry::json::Json;
use telemetry::trace;

/// The variant tag of [`crate::Graph`]'s private `Op` enum; the unit
/// of aggregation for the profiler. Keep in sync with `Op` (the
/// `kind()` mapping in `graph.rs` is exhaustive, so a new `Op` variant
/// fails to compile until it gets a kind).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum OpKind {
    Input,
    Param,
    Gather,
    GatherVar,
    MatMul,
    MatMulT,
    Add,
    Sub,
    Mul,
    RowDot,
    PairLogp,
    Scale,
    AddScalar,
    Relu,
    LeakyRelu,
    Sigmoid,
    Tanh,
    Softplus,
    ConcatCols,
    ConcatRows,
    SumAll,
    MeanAll,
    LogSoftmaxRows,
    PickPerRow,
    SpMM,
    BceWithLogits,
    MseMasked,
    SqSum,
}

impl OpKind {
    /// Every kind, in declaration order (= table index order).
    pub const ALL: [OpKind; 28] = [
        OpKind::Input,
        OpKind::Param,
        OpKind::Gather,
        OpKind::GatherVar,
        OpKind::MatMul,
        OpKind::MatMulT,
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::RowDot,
        OpKind::PairLogp,
        OpKind::Scale,
        OpKind::AddScalar,
        OpKind::Relu,
        OpKind::LeakyRelu,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Softplus,
        OpKind::ConcatCols,
        OpKind::ConcatRows,
        OpKind::SumAll,
        OpKind::MeanAll,
        OpKind::LogSoftmaxRows,
        OpKind::PickPerRow,
        OpKind::SpMM,
        OpKind::BceWithLogits,
        OpKind::MseMasked,
        OpKind::SqSum,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Input => "Input",
            OpKind::Param => "Param",
            OpKind::Gather => "Gather",
            OpKind::GatherVar => "GatherVar",
            OpKind::MatMul => "MatMul",
            OpKind::MatMulT => "MatMulT",
            OpKind::Add => "Add",
            OpKind::Sub => "Sub",
            OpKind::Mul => "Mul",
            OpKind::RowDot => "RowDot",
            OpKind::PairLogp => "PairLogp",
            OpKind::Scale => "Scale",
            OpKind::AddScalar => "AddScalar",
            OpKind::Relu => "Relu",
            OpKind::LeakyRelu => "LeakyRelu",
            OpKind::Sigmoid => "Sigmoid",
            OpKind::Tanh => "Tanh",
            OpKind::Softplus => "Softplus",
            OpKind::ConcatCols => "ConcatCols",
            OpKind::ConcatRows => "ConcatRows",
            OpKind::SumAll => "SumAll",
            OpKind::MeanAll => "MeanAll",
            OpKind::LogSoftmaxRows => "LogSoftmaxRows",
            OpKind::PickPerRow => "PickPerRow",
            OpKind::SpMM => "SpMM",
            OpKind::BceWithLogits => "BceWithLogits",
            OpKind::MseMasked => "MseMasked",
            OpKind::SqSum => "SqSum",
        }
    }
}

/// One row of atomic aggregates. All `Relaxed`: rows are statistics,
/// not synchronization.
#[derive(Default)]
struct Cell {
    fwd_calls: AtomicU64,
    fwd_ns: AtomicU64,
    bwd_calls: AtomicU64,
    bwd_ns: AtomicU64,
    /// Output elements produced across all forward calls.
    elems: AtomicU64,
    /// Estimated floating-point operations (see `Graph`'s
    /// `flop_estimate`) across all forward calls.
    flops: AtomicU64,
    /// Estimated floating-point operations (see `Graph`'s
    /// `bwd_flop_estimate`) across all backward calls.
    bwd_flops: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_CELL: Cell = Cell {
    fwd_calls: AtomicU64::new(0),
    fwd_ns: AtomicU64::new(0),
    bwd_calls: AtomicU64::new(0),
    bwd_ns: AtomicU64::new(0),
    elems: AtomicU64::new(0),
    flops: AtomicU64::new(0),
    bwd_flops: AtomicU64::new(0),
};

static TABLE: [Cell; OpKind::ALL.len()] = [EMPTY_CELL; OpKind::ALL.len()];

/// Timer guard for one op execution: records elapsed wall time into
/// the forward or backward column on drop. Inert when tracing is off.
pub struct OpTimer {
    open: Option<(OpKind, bool, Instant)>,
}

impl Drop for OpTimer {
    fn drop(&mut self) {
        let Some((kind, backward, start)) = self.open.take() else {
            return;
        };
        let ns = start.elapsed().as_nanos() as u64;
        let cell = &TABLE[kind as usize];
        if backward {
            cell.bwd_calls.fetch_add(1, Relaxed);
            cell.bwd_ns.fetch_add(ns, Relaxed);
        } else {
            cell.fwd_calls.fetch_add(1, Relaxed);
            cell.fwd_ns.fetch_add(ns, Relaxed);
        }
    }
}

/// Whether profiling is on (shared flag with [`telemetry::trace`]).
#[inline]
pub fn enabled() -> bool {
    trace::is_enabled()
}

fn timer(kind: OpKind, backward: bool) -> OpTimer {
    if !trace::is_enabled() {
        return OpTimer { open: None };
    }
    OpTimer {
        open: Some((kind, backward, Instant::now())),
    }
}

/// Starts timing a forward execution of `kind`.
#[inline]
pub fn fwd(kind: OpKind) -> OpTimer {
    timer(kind, false)
}

/// Starts timing the backward (vector-Jacobian product) of `kind`.
#[inline]
pub fn bwd(kind: OpKind) -> OpTimer {
    timer(kind, true)
}

/// Adds one forward call's output size and FLOP estimate.
#[inline]
pub fn record_dims(kind: OpKind, elems: u64, flops: u64) {
    if !trace::is_enabled() {
        return;
    }
    let cell = &TABLE[kind as usize];
    cell.elems.fetch_add(elems, Relaxed);
    cell.flops.fetch_add(flops, Relaxed);
}

/// Adds one backward call's FLOP estimate.
#[inline]
pub fn record_bwd_dims(kind: OpKind, flops: u64) {
    if !trace::is_enabled() {
        return;
    }
    TABLE[kind as usize].bwd_flops.fetch_add(flops, Relaxed);
}

/// Zeroes the whole table (start of a profiled run).
pub fn reset() {
    for cell in &TABLE {
        cell.fwd_calls.store(0, Relaxed);
        cell.fwd_ns.store(0, Relaxed);
        cell.bwd_calls.store(0, Relaxed);
        cell.bwd_ns.store(0, Relaxed);
        cell.elems.store(0, Relaxed);
        cell.flops.store(0, Relaxed);
        cell.bwd_flops.store(0, Relaxed);
    }
}

/// Point-in-time copy of one [`OpKind`]'s aggregates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpProfileRow {
    pub kind: OpKind,
    pub fwd_calls: u64,
    pub fwd_ns: u64,
    pub bwd_calls: u64,
    pub bwd_ns: u64,
    pub elems: u64,
    pub flops: u64,
    pub bwd_flops: u64,
}

impl OpProfileRow {
    /// Forward + backward wall time — the op's *self* time (tape ops
    /// never nest, so total and self coincide).
    pub fn total_ns(&self) -> u64 {
        self.fwd_ns + self.bwd_ns
    }
}

/// Snapshot of the whole profile table, sorted by self time
/// descending, zero-activity kinds omitted.
#[derive(Clone, Debug, Default)]
pub struct OpProfile {
    pub rows: Vec<OpProfileRow>,
}

impl OpProfile {
    /// Total op wall time (forward + backward over every kind).
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().map(OpProfileRow::total_ns).sum()
    }

    /// Renders as a JSON array of per-kind objects (the `"opProfile"`
    /// field of a trace file).
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    Json::obj()
                        .field("op", row.kind.name())
                        .field("fwd_calls", row.fwd_calls)
                        .field("fwd_ns", row.fwd_ns)
                        .field("bwd_calls", row.bwd_calls)
                        .field("bwd_ns", row.bwd_ns)
                        .field("elems", row.elems)
                        .field("flops", row.flops)
                        .field("bwd_flops", row.bwd_flops)
                })
                .collect(),
        )
    }

    /// Parses the `"opProfile"` array back (used by `trace_report`).
    pub fn from_json(doc: &Json) -> Result<Self, String> {
        let Json::Arr(rows) = doc else {
            return Err("opProfile is not an array".into());
        };
        let mut profile = OpProfile::default();
        for (i, row) in rows.iter().enumerate() {
            let name = row
                .get("op")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("opProfile[{i}]: missing `op`"))?;
            let kind = OpKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == name)
                .ok_or_else(|| format!("opProfile[{i}]: unknown op `{name}`"))?;
            let field = |key: &str| -> Result<u64, String> {
                row.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("opProfile[{i}]: missing `{key}`"))
            };
            profile.rows.push(OpProfileRow {
                kind,
                fwd_calls: field("fwd_calls")?,
                fwd_ns: field("fwd_ns")?,
                bwd_calls: field("bwd_calls")?,
                bwd_ns: field("bwd_ns")?,
                elems: field("elems")?,
                flops: field("flops")?,
                // Tolerant: absent in pre-PR7 trace files.
                bwd_flops: row.get("bwd_flops").and_then(Json::as_u64).unwrap_or(0),
            });
        }
        Ok(profile)
    }
}

/// Copies the live table into an [`OpProfile`], sorted by self time
/// descending with inactive kinds dropped.
pub fn snapshot() -> OpProfile {
    let mut rows: Vec<OpProfileRow> = OpKind::ALL
        .iter()
        .map(|&kind| {
            let cell = &TABLE[kind as usize];
            OpProfileRow {
                kind,
                fwd_calls: cell.fwd_calls.load(Relaxed),
                fwd_ns: cell.fwd_ns.load(Relaxed),
                bwd_calls: cell.bwd_calls.load(Relaxed),
                bwd_ns: cell.bwd_ns.load(Relaxed),
                elems: cell.elems.load(Relaxed),
                flops: cell.flops.load(Relaxed),
                bwd_flops: cell.bwd_flops.load(Relaxed),
            }
        })
        .filter(|row| row.fwd_calls > 0 || row.bwd_calls > 0)
        .collect();
    rows.sort_by(|a, b| {
        b.total_ns()
            .cmp(&a.total_ns())
            .then(a.kind.name().cmp(b.kind.name()))
    });
    OpProfile { rows }
}

/// Held by the unit test that switches the process-wide profiler on,
/// and by unit tests that run the same op kinds on other threads, so the
/// profile test's exact per-op counts see only its own graphs.
#[cfg(test)]
pub(crate) static PROFILED_OPS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GradStore, Graph, Matrix, ParamSet};

    #[test]
    fn all_lists_every_kind_once_in_table_order() {
        for (i, kind) in OpKind::ALL.iter().enumerate() {
            assert_eq!(*kind as usize, i, "{} is out of order", kind.name());
        }
        let mut names: Vec<&str> = OpKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpKind::ALL.len(), "duplicate kind names");
    }

    #[test]
    fn forward_and_backward_are_profiled_when_enabled() {
        // Profiling is gated on the global tracing flag; this test owns
        // it for its duration (no other tensor test enables tracing).
        let _own = PROFILED_OPS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        let mut params = ParamSet::new();
        let w = params.add("w", Matrix::full(4, 3, 0.5));
        let mut grads = GradStore::zeros_like(&params);

        // Disabled: the table must stay empty.
        {
            let mut g = Graph::new(&params);
            let x = g.input(Matrix::full(2, 4, 1.0));
            let wv = g.param(w);
            let y = g.matmul(x, wv);
            let loss = g.sq_sum(y);
            g.backward(loss, &mut grads);
        }
        assert!(
            snapshot().rows.is_empty(),
            "profiling off must record nothing"
        );

        trace::enable();
        {
            let mut g = Graph::new(&params);
            let x = g.input(Matrix::full(2, 4, 1.0));
            let wv = g.param(w);
            let y = g.matmul(x, wv);
            let s = g.sigmoid(y);
            let loss = g.sq_sum(s);
            g.backward(loss, &mut grads);
        }
        {
            // Second graph pins the transpose-product and pick paths.
            let mut g = Graph::new(&params);
            let x = g.input(Matrix::full(2, 4, 0.1));
            let b = g.input(Matrix::full(3, 4, 0.2));
            let y = g.matmul_t(x, b); // 2x3
            let lsm = g.log_softmax_rows(y);
            let p = g.pick_per_row(lsm, &[0, 2]);
            let loss = g.sum_all(p);
            g.backward(loss, &mut grads);
        }
        {
            // Third graph pins the fused row dot.
            let mut g = Graph::new(&params);
            let a = g.input(Matrix::full(2, 4, 0.5));
            let b = g.input(Matrix::full(2, 4, 0.25));
            let d = g.row_dot(a, b);
            let loss = g.sum_all(d);
            g.backward(loss, &mut grads);
        }
        {
            // Fourth graph pins the fused pair decisions over a stacked
            // source: 3 decisions of width 3 against the 4x3 param.
            let mut g = Graph::new(&params);
            let a = g.input(Matrix::full(1, 3, 0.5));
            let b = g.input(Matrix::full(2, 3, 0.25));
            let src = g.concat_rows(&[a, b]);
            let lp = g.pair_logp(src, &[0, 2, 2], w, &[1, 0, 3], &[2, 2, 0], &[0, 1, 1]);
            let loss = g.sum_all(lp);
            g.backward(loss, &mut grads);
        }
        trace::disable();

        let profile = snapshot();
        let row = |kind: OpKind| {
            profile
                .rows
                .iter()
                .find(|r| r.kind == kind)
                .unwrap_or_else(|| panic!("{} missing from profile", kind.name()))
                .clone()
        };
        let mm = row(OpKind::MatMul);
        assert_eq!(mm.fwd_calls, 1);
        assert_eq!(mm.bwd_calls, 1);
        assert_eq!(mm.elems, 6); // 2x4 · 4x3 = 2x3 output
        assert_eq!(mm.flops, 2 * 4 * 6); // 2·k·out
        assert_eq!(mm.bwd_flops, 4 * 4 * 6); // dA + dB: 2x forward
        let sig = row(OpKind::Sigmoid);
        assert_eq!(sig.flops, 4 * 6);
        assert_eq!(sig.bwd_flops, 3 * 6);
        // MatMulT shares the forward formula (shared dim = a.cols) and
        // the two-products backward.
        let mmt = row(OpKind::MatMulT);
        assert_eq!(mmt.elems, 6); // 2x4 · (3x4)^T = 2x3 output
        assert_eq!(mmt.flops, 2 * 4 * 6);
        assert_eq!(mmt.bwd_flops, 4 * 4 * 6);
        // PickPerRow is a copy forward and a sparse scatter backward.
        let pick = row(OpKind::PickPerRow);
        assert_eq!(pick.flops, 0);
        assert_eq!(pick.bwd_flops, 2 * 2);
        let lsm = row(OpKind::LogSoftmaxRows);
        assert_eq!(lsm.flops, 5 * 6);
        assert_eq!(lsm.bwd_flops, 4 * 6);
        // RowDot is its own row, not folded into Mul: one multiply-add
        // per input element forward, two seeded products backward.
        let rd = row(OpKind::RowDot);
        assert_eq!((rd.fwd_calls, rd.bwd_calls), (1, 1));
        assert_eq!(rd.elems, 2); // 2x4 . 2x4 -> 2x1
        assert_eq!(rd.flops, 2 * 8);
        assert_eq!(rd.bwd_flops, 4 * 8);
        assert!(profile.rows.iter().all(|r| r.kind != OpKind::Mul));
        // PairLogp is one row per replay: two width-w dots plus a
        // two-logit log-softmax per decision forward, seeds, two table
        // scatters and the `src` update backward.
        let pl = row(OpKind::PairLogp);
        assert_eq!((pl.fwd_calls, pl.bwd_calls), (1, 1));
        assert_eq!(pl.elems, 3); // one log-prob per decision
        assert_eq!(pl.flops, 3 * (4 * 3 + 8));
        assert_eq!(pl.bwd_flops, 3 * (8 * 3 + 8));
        // The slice concat is still a copy, under ConcatRows.
        let cr = row(OpKind::ConcatRows);
        assert_eq!((cr.fwd_calls, cr.bwd_calls), (1, 1));
        assert_eq!(cr.elems, 9);
        assert_eq!((cr.flops, cr.bwd_flops), (0, 0));
        // Neither lowers to the ops it fuses.
        for absent in [OpKind::GatherVar, OpKind::Gather, OpKind::ConcatCols] {
            assert!(profile.rows.iter().all(|r| r.kind != absent));
        }
        // Input/Param appear forward-only or with trivial backwards;
        // every row that ran must carry a forward call.
        assert!(profile
            .rows
            .iter()
            .all(|r| r.fwd_calls > 0 || r.bwd_calls > 0));
        assert!(profile.total_ns() > 0, "timers must accumulate wall time");

        // JSON round-trip used by trace files.
        let doc = telemetry::json::parse(&profile.to_json().render()).expect("renders");
        let back = OpProfile::from_json(&doc).expect("parses");
        assert_eq!(back.rows, profile.rows);
        reset();
        assert!(snapshot().rows.is_empty());
    }
}
