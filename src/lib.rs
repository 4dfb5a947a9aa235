//! # poisonrec-repro
//!
//! Workspace facade for the Rust reproduction of *PoisonRec: An
//! Adaptive Data Poisoning Framework for Attacking Black-box
//! Recommender Systems* (Song et al., ICDE 2020).
//!
//! Re-exports every crate so downstream users (and the cross-crate
//! integration tests under `tests/`) can depend on a single package:
//!
//! * [`tensor`] — dense-matrix autodiff, NN cells, optimizers.
//! * [`recsys`] — data model, the eight ranker testbeds, the black-box
//!   harness with the RecNum metric.
//! * [`datasets`] — synthetic statistical twins of the paper's four
//!   datasets.
//! * [`poisonrec`] — the attack framework (LSTM+DNN policy, BCBT, PPO).
//! * [`baselines`] — Random/Popular/Middle/PowerItem/ConsLOP/AppGrad.
//! * [`analysis`] — t-SNE and reporting utilities.
//! * [`serve`] — zero-dep HTTP/1.1 recommendation server; with
//!   [`recsys::remote::RemoteSystem`], the attack runs over a socket.
//! * [`runtime`] — worker pool, fault injection, snapshot publication.
//! * [`telemetry`] — metrics, JSONL sinks, tracing, the perf verdict.

pub use analysis;
pub use baselines;
pub use datasets;
pub use poisonrec;
pub use recsys;
pub use runtime;
pub use serve;
pub use telemetry;
pub use tensor;
