//! The sealed checkpoint container and the PoisonRec trainer's state
//! body.
//!
//! PoisonRec's outer loop is expensive by construction — every step
//! retrains the victim recommender `M` times — so paper-scale runs are
//! long-running jobs that must survive crashes. The zoo driver
//! ([`crate::zoo::run_attack`]) is the one place an attack checkpoint
//! is written or resumed; this module gives it a versioned,
//! zero-dependency on-disk container, and [`TrainerState`] holds *all*
//! trainer state the next step depends on, so a run killed at any step
//! boundary and resumed from its last checkpoint continues
//! **bit-identically** to the uninterrupted run (proved by
//! `tests/checkpoint_resume.rs` and the fault-injection CI stage).
//!
//! ## Container layout (all integers little-endian)
//!
//! | bytes | field |
//! |------:|-------|
//! | 8     | magic `b"PRECKPT\0"` |
//! | 4     | format version (`u32`, currently 1) |
//! | 8     | cell fingerprint (`u64`, FNV-1a; see [`crate::zoo::zoo_fingerprint`]) |
//! | 8     | body length `L` (`u64`) |
//! | `L`   | body (the zoo cell state via [`tensor::wire`]) |
//! | 8     | checksum (`u64`, FNV-1a over every preceding byte) |
//!
//! Decoding rejects — with a descriptive [`CheckpointError`], never a
//! panic — wrong magic, versions newer than this build, truncated or
//! oversized containers, checksum mismatches, and trainer bodies whose
//! shapes disagree with the trainer being restored.
//!
//! ## What the trainer state captures
//!
//! Policy [`ParamSet`], Adam first/second moments and step counter, the
//! trainer's RNG state, the per-step [`StepStats`] history (which also
//! encodes the step index), the best episode, and the observation
//! spend that drives the black-box system's seed stream. Reward
//! normalization (Eq. 8) is stateless per batch, so it needs no
//! persisted state beyond the config flag covered by the fingerprint.
//! *Not* captured: the dataset, the fitted ranker, and the telemetry
//! sink — callers rebuild the system deterministically from its config
//! and reattach loggers.
//!
//! ## Atomic writes
//!
//! [`atomic_write`] writes to a `.tmp` sibling, fsyncs, then renames
//! over the destination. A crash mid-write leaves either the previous
//! complete checkpoint or a stray `.tmp` — never a torn file that a
//! resume could half-trust.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

use tensor::optim::Adam;
use tensor::wire::{Codec, Reader, WireError, Writer};
use tensor::ParamSet;

use crate::action::{Choice, ChoiceSet};
use crate::policy::Episode;
use crate::trainer::StepStats;

/// First bytes of every checkpoint file.
pub const MAGIC: [u8; 8] = *b"PRECKPT\0";

/// Current container format version. Bump on any layout change; older
/// readers refuse newer versions instead of misparsing them.
pub const FORMAT_VERSION: u32 = 1;

/// Why a checkpoint could not be restored: the file is not a
/// checkpoint this build can read (bad magic, newer version,
/// truncation, checksum mismatch) or its body does not decode.
#[derive(Debug)]
pub enum CheckpointError {
    Format(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Format(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<WireError> for CheckpointError {
    fn from(err: WireError) -> Self {
        CheckpointError::Format(err.to_string())
    }
}

/// 64-bit FNV-1a over `bytes` — the container's fingerprint and
/// checksum hash. Not cryptographic; it guards against corruption and
/// accidental config drift, not adversaries with filesystem access.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Wraps a serialized body in the versioned container: magic, version,
/// fingerprint, length-prefixed body, trailing FNV-1a checksum.
pub fn seal(fingerprint: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 36);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates a sealed container and returns `(fingerprint, body)`.
/// Every malformation maps to a descriptive [`CheckpointError::Format`].
pub fn unseal(bytes: &[u8]) -> Result<(u64, &[u8]), CheckpointError> {
    const HEADER: usize = 8 + 4 + 8 + 8;
    let malformed = |msg: String| Err(CheckpointError::Format(msg));
    if bytes.len() < HEADER + 8 {
        return malformed(format!(
            "file too short to be a checkpoint: {} byte(s), need at least {}",
            bytes.len(),
            HEADER + 8
        ));
    }
    if bytes[..8] != MAGIC {
        return malformed(format!(
            "bad magic {:02x?}; expected {:02x?} — not a PoisonRec checkpoint",
            &bytes[..8],
            MAGIC
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version > FORMAT_VERSION {
        return malformed(format!(
            "format version {version} is newer than this build's {FORMAT_VERSION}; \
             upgrade before resuming this checkpoint"
        ));
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
    let body_len = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
    let expected_total = (HEADER as u64)
        .checked_add(body_len)
        .and_then(|n| n.checked_add(8));
    if expected_total != Some(bytes.len() as u64) {
        return malformed(format!(
            "container length mismatch: header claims a {body_len}-byte body, \
             but the file holds {} byte(s) (truncated or trailing garbage)",
            bytes.len()
        ));
    }
    let body_end = HEADER + body_len as usize;
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().unwrap());
    let computed = fnv1a64(&bytes[..body_end]);
    if stored != computed {
        return malformed(format!(
            "checksum mismatch: stored {stored:#018x}, computed {computed:#018x} \
             (the file is corrupt)"
        ));
    }
    Ok((fingerprint, &bytes[HEADER..body_end]))
}

/// Writes `bytes` to `path` atomically: `.tmp` sibling, fsync, rename.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)
}

/// The complete serializable trainer state. Field-for-field, this is
/// everything [`crate::PoisonRecTrainer`] owns that the next training
/// step reads; see the module docs for the capture contract.
pub struct TrainerState {
    /// The trainer's sampling/shuffling RNG (xoshiro256++ state words).
    pub rng_state: [u64; 4],
    /// Lifetime black-box observation spend; also restored into the
    /// target system's seed stream on resume.
    pub observations: u64,
    /// Policy parameters (embeddings, LSTM, DNN).
    pub params: ParamSet,
    /// Adam moments + step counter.
    pub optimizer: Adam,
    /// Best episode observed so far, if any.
    pub best: Option<Episode>,
    /// Per-step stats; `history.len()` is the next step index.
    pub history: Vec<StepStats>,
}

impl Codec for TrainerState {
    fn encode(&self, w: &mut Writer) {
        for word in self.rng_state {
            w.put_u64(word);
        }
        w.put_u64(self.observations);
        self.params.encode(w);
        self.optimizer.encode(w);
        match &self.best {
            None => w.put_u8(0),
            Some(ep) => {
                w.put_u8(1);
                ep.encode(w);
            }
        }
        w.put_u64(self.history.len() as u64);
        for stats in &self.history {
            stats.encode(w);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64("rng state word")?;
        }
        let observations = r.get_u64("observation count")?;
        let params = ParamSet::decode(r)?;
        let optimizer = Adam::decode(r)?;
        let best = match r.get_u8("best-episode tag")? {
            0 => None,
            1 => Some(Episode::decode(r)?),
            other => {
                return Err(WireError::new(
                    0,
                    format!("best-episode tag must be 0 or 1, got {other}"),
                ))
            }
        };
        // Each StepStats entry is 60 bytes.
        let n = r.get_len(60, "history length")?;
        let history = (0..n)
            .map(|_| StepStats::decode(r))
            .collect::<Result<Vec<_>, _>>()?;
        for (i, stats) in history.iter().enumerate() {
            if stats.step != i {
                return Err(WireError::new(
                    0,
                    format!("history entry {i} claims step {}", stats.step),
                ));
            }
        }
        Ok(Self {
            rng_state,
            observations,
            params,
            optimizer,
            best,
            history,
        })
    }
}

impl Codec for StepStats {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.step as u64);
        w.put_f32(self.mean_reward);
        w.put_f32(self.max_reward);
        w.put_f64(self.target_click_ratio);
        w.put_f32(self.ppo_signal);
        w.put_f64(self.sample_secs);
        w.put_f64(self.score_secs);
        w.put_f64(self.update_secs);
        w.put_u64(self.observations);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        Ok(Self {
            step: r.get_u64("step index")? as usize,
            mean_reward: r.get_f32("mean reward")?,
            max_reward: r.get_f32("max reward")?,
            target_click_ratio: r.get_f64("target click ratio")?,
            ppo_signal: r.get_f32("ppo signal")?,
            sample_secs: r.get_f64("sample secs")?,
            score_secs: r.get_f64("score secs")?,
            update_secs: r.get_f64("update secs")?,
            observations: r.get_u64("step observations")?,
        })
    }
}

impl Codec for Episode {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.trajectories.len() as u64);
        for trajectory in &self.trajectories {
            w.put_u64(trajectory.len() as u64);
            for &item in trajectory {
                w.put_u32(item);
            }
        }
        w.put_u64(self.trails.len() as u64);
        for trail in &self.trails {
            w.put_u64(trail.len() as u64);
            for step in trail {
                w.put_u64(step.len() as u64);
                for choice in step {
                    choice.encode(w);
                }
            }
        }
        w.put_f32(self.reward);
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let n = r.get_len(8, "trajectory count")?;
        let mut trajectories = Vec::with_capacity(n);
        for _ in 0..n {
            let len = r.get_len(4, "trajectory length")?;
            let mut items = Vec::with_capacity(len);
            for _ in 0..len {
                items.push(r.get_u32("trajectory item")?);
            }
            trajectories.push(items);
        }
        let n = r.get_len(8, "trail count")?;
        let mut trails = Vec::with_capacity(n);
        for _ in 0..n {
            let steps = r.get_len(8, "trail step count")?;
            let mut trail = Vec::with_capacity(steps);
            for _ in 0..steps {
                // Each Choice is 17 bytes: tag + 3×u32 + f32.
                let choices = r.get_len(17, "choice count")?;
                let mut step = Vec::with_capacity(choices);
                for _ in 0..choices {
                    step.push(Choice::decode(r)?);
                }
                trail.push(step);
            }
            trails.push(trail);
        }
        let reward = r.get_f32("episode reward")?;
        Ok(Self {
            trajectories,
            trails,
            reward,
        })
    }
}

impl Codec for Choice {
    fn encode(&self, w: &mut Writer) {
        let (tag, a, b) = match self.set {
            ChoiceSet::Pair(l, right) => (0u8, l, right),
            ChoiceSet::Range(s, e) => (1u8, s, e),
        };
        w.put_u8(tag);
        w.put_u32(a);
        w.put_u32(b);
        w.put_u32(self.chosen);
        w.put_f32(self.old_logp);
    }

    /// Rejects choices no action space can make: a pair pick other than
    /// 0 or 1, an empty range, or a range pick past its end. A restored
    /// `best` episode is replayed as-is, so these must not get in.
    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let at = r.position();
        let tag = r.get_u8("choice-set tag")?;
        let a = r.get_u32("choice-set bound")?;
        let b = r.get_u32("choice-set bound")?;
        let set = match tag {
            0 => ChoiceSet::Pair(a, b),
            1 if a < b => ChoiceSet::Range(a, b),
            1 => {
                return Err(WireError::new(
                    at,
                    format!("choice-set range {a}..{b} is empty (start must be below end)"),
                ))
            }
            other => {
                return Err(WireError::new(
                    at,
                    format!("choice-set tag must be 0 (pair) or 1 (range), got {other}"),
                ))
            }
        };
        let at = r.position();
        let chosen = r.get_u32("chosen index")?;
        if chosen as usize >= set.len() {
            return Err(WireError::new(
                at,
                format!(
                    "chosen index {chosen} out of range for {set:?}, which has {} options",
                    set.len()
                ),
            ));
        }
        Ok(Self {
            set,
            chosen,
            old_logp: r.get_f32("old logp")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_unseal_round_trip() {
        let body = vec![1u8, 2, 3, 4, 5];
        let sealed = seal(0xFEED_FACE, &body);
        let (fp, back) = unseal(&sealed).expect("round-trips");
        assert_eq!(fp, 0xFEED_FACE);
        assert_eq!(back, &body[..]);
    }

    #[test]
    fn unseal_rejects_every_malformation_descriptively() {
        let sealed = seal(7, b"payload");

        let err = unseal(&sealed[..10]).expect_err("short file");
        assert!(err.to_string().contains("too short"), "{err}");

        let mut wrong_magic = sealed.clone();
        wrong_magic[0] ^= 0xFF;
        let err = unseal(&wrong_magic).expect_err("bad magic");
        assert!(err.to_string().contains("bad magic"), "{err}");

        let mut future = sealed.clone();
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        let err = unseal(&future).expect_err("future version");
        assert!(err.to_string().contains("newer than"), "{err}");

        let err = unseal(&sealed[..sealed.len() - 1]).expect_err("truncated");
        assert!(err.to_string().contains("length mismatch"), "{err}");

        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        let err = unseal(&flipped).expect_err("bad checksum");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");

        let mut corrupt_body = sealed.clone();
        corrupt_body[30] ^= 0x40;
        let err = unseal(&corrupt_body).expect_err("corrupt body");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("ckpt-atomic-{}", std::process::id()));
        let path = dir.join("state.ckpt");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(fs::read(&path).expect("read"), b"second");
        let tmp_siblings: Vec<_> = fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(tmp_siblings.is_empty(), "stray tmp files: {tmp_siblings:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn choice_and_episode_round_trip() {
        let ep = Episode {
            trajectories: vec![vec![1, 2, 3], vec![9, 8]],
            trails: vec![vec![vec![
                Choice {
                    set: ChoiceSet::Pair(4, 5),
                    chosen: 1,
                    old_logp: -0.7,
                },
                Choice {
                    set: ChoiceSet::Range(0, 10),
                    chosen: 3,
                    old_logp: -2.25,
                },
            ]]],
            reward: 42.5,
        };
        let back = Episode::from_bytes(&ep.to_bytes()).expect("decodes");
        assert_eq!(back.trajectories, ep.trajectories);
        assert_eq!(back.reward, ep.reward);
        assert_eq!(back.trails.len(), 1);
        assert_eq!(back.trails[0][0].len(), 2);
        assert_eq!(back.trails[0][0][1].set, ChoiceSet::Range(0, 10));
        assert_eq!(back.trails[0][0][0].old_logp.to_bits(), (-0.7f32).to_bits());
    }

    #[test]
    fn choice_decode_rejects_impossible_choices() {
        let choice = |set: ChoiceSet, chosen: u32| Choice {
            set,
            chosen,
            old_logp: -0.5,
        };
        let decode =
            |set: ChoiceSet, chosen: u32| Choice::from_bytes(&choice(set, chosen).to_bytes());
        // The same choice as the only decision of a one-click episode.
        let in_episode = |set: ChoiceSet, chosen: u32| {
            let ep = Episode {
                trajectories: vec![vec![3]],
                trails: vec![vec![vec![choice(set, chosen)]]],
                reward: 1.0,
            };
            Episode::from_bytes(&ep.to_bytes())
        };
        for (set, chosen) in [
            (ChoiceSet::Pair(4, 5), 0),
            (ChoiceSet::Pair(4, 5), 1),
            (ChoiceSet::Pair(3, 3), 1),
            (ChoiceSet::Range(0, 1), 0),
            (ChoiceSet::Range(2, 10), 7),
        ] {
            let back = decode(set.clone(), chosen).expect("a valid choice decodes");
            assert_eq!((&back.set, back.chosen), (&set, chosen));
            let ep = in_episode(set.clone(), chosen).expect("a valid episode decodes");
            assert_eq!(ep.trails[0][0][0].set, set);
        }
        for (set, chosen, field, offset) in [
            (ChoiceSet::Pair(4, 5), 2, "chosen index 2", 9),
            (ChoiceSet::Pair(4, 5), 7, "chosen index 7", 9),
            (ChoiceSet::Range(2, 10), 8, "chosen index 8", 9),
            (ChoiceSet::Range(5, 5), 0, "range 5..5 is empty", 0),
            (ChoiceSet::Range(9, 2), 0, "range 9..2 is empty", 0),
        ] {
            let err = decode(set.clone(), chosen).expect_err("impossible choice");
            assert!(err.message.contains(field), "{set:?} / {chosen}: {err}");
            assert_eq!(err.offset, offset, "{err}");
            let err = in_episode(set.clone(), chosen).expect_err("impossible episode");
            assert!(err.message.contains(field), "{set:?} / {chosen}: {err}");
        }
    }
}
