//! Length-prefixed little-endian binary (de)serialization for the
//! tensor types that live inside training checkpoints.
//!
//! The build environment has no serde, so this module hand-rolls the
//! minimum a durable checkpoint needs: a [`Writer`] that appends
//! fixed-width little-endian scalars and length-prefixed buffers to a
//! byte vector, a bounds-checked [`Reader`] that never panics on
//! malformed input (every decode path returns a descriptive
//! [`WireError`] instead), and the [`Codec`] trait implemented by
//! [`Matrix`], [`ParamSet`], and [`crate::optim::Adam`].
//!
//! Floats are stored as their IEEE-754 bit patterns (`to_le_bytes` /
//! `from_le_bytes`), so round-trips are bit-exact — including NaN
//! payloads and signed zeros. That is what lets the trainer's
//! checkpoint/resume tests demand *bit-identical* continuation rather
//! than approximate equality.

use crate::matrix::Matrix;
use crate::params::ParamSet;

/// A decode failure: byte offset reached plus what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    pub offset: usize,
    pub message: String,
}

impl WireError {
    pub fn new(offset: usize, message: impl Into<String>) -> Self {
        Self {
            offset,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// UTF-8 string as `u64` byte length + bytes.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// `f32` slice as `u64` element count + packed bit patterns.
    pub fn put_f32s(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked little-endian byte reader over a borrowed buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Bytes consumed so far: the offset a [`WireError`] should name.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(
                self.pos,
                format!(
                    "truncated input: need {n} byte(s) for {what}, {} left",
                    self.remaining()
                ),
            ));
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    pub fn get_u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    pub fn get_u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn get_u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn get_f32(&mut self, what: &str) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn get_f64(&mut self, what: &str) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A `u64` length that must be coverable by the remaining bytes at
    /// `elem_size` bytes per element — the guard that keeps a corrupted
    /// length prefix from turning into a giant allocation.
    pub fn get_len(&mut self, elem_size: usize, what: &str) -> Result<usize, WireError> {
        let offset = self.pos;
        let n = self.get_u64(what)?;
        let need = (n as u128) * (elem_size as u128);
        if need > self.remaining() as u128 {
            return Err(WireError::new(
                offset,
                format!(
                    "implausible length {n} for {what}: needs {need} byte(s), {} left",
                    self.remaining()
                ),
            ));
        }
        Ok(n as usize)
    }

    pub fn get_str(&mut self, what: &str) -> Result<String, WireError> {
        let n = self.get_len(1, what)?;
        let offset = self.pos;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::new(offset, format!("{what} is not valid UTF-8")))
    }

    pub fn get_f32s(&mut self, what: &str) -> Result<Vec<f32>, WireError> {
        let n = self.get_len(4, what)?;
        let bytes = self.take(n * 4, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_eof(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::new(
                self.pos,
                format!("{} trailing byte(s) after document", self.remaining()),
            ));
        }
        Ok(())
    }
}

/// Symmetric binary encode/decode. Decoding must reject any malformed
/// input with a [`WireError`] — never panic, never allocate
/// proportionally to an unvalidated length.
pub trait Codec: Sized {
    fn encode(&self, w: &mut Writer);
    fn decode(r: &mut Reader) -> Result<Self, WireError>;

    /// [`Codec::encode`] into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// [`Codec::decode`] of a complete buffer (trailing bytes rejected).
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.expect_eof()?;
        Ok(value)
    }
}

impl Codec for Matrix {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.rows() as u64);
        w.put_u64(self.cols() as u64);
        w.put_f32s(self.data());
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        let offset_rows = r.remaining();
        let rows = r.get_u64("matrix rows")? as usize;
        let cols = r.get_u64("matrix cols")? as usize;
        let data = r.get_f32s("matrix data")?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(WireError::new(
                offset_rows,
                format!(
                    "matrix shape {rows}x{cols} does not match {} stored value(s)",
                    data.len()
                ),
            ));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl Codec for ParamSet {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.len() as u64);
        for (id, matrix) in self.iter() {
            w.put_str(self.name(id));
            matrix.encode(w);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, WireError> {
        // Each entry is at least a name length (8) + matrix header (16)
        // + empty data length (8).
        let n = r.get_len(32, "parameter count")?;
        let mut params = ParamSet::new();
        for _ in 0..n {
            let name = r.get_str("parameter name")?;
            let matrix = Matrix::decode(r)?;
            params.add(name, matrix);
        }
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f32(-0.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("c").unwrap(), u64::MAX);
        assert_eq!(r.get_f32("d").unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.get_f64("e").unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.get_str("f").unwrap(), "héllo");
        r.expect_eof().unwrap();
    }

    #[test]
    fn matrix_round_trips_bit_exactly() {
        let m = Matrix::from_vec(2, 3, vec![1.5, -0.0, f32::NAN, f32::MIN, f32::MAX, 1e-40]);
        let back = Matrix::from_bytes(&m.to_bytes()).expect("decodes");
        assert_eq!(back.shape(), (2, 3));
        for (a, b) in m.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn truncation_errors_instead_of_panicking() {
        let bytes = Matrix::from_vec(4, 4, vec![1.0; 16]).to_bytes();
        for cut in 0..bytes.len() {
            let err = Matrix::from_bytes(&bytes[..cut]).expect_err("truncated");
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn implausible_length_prefix_is_rejected_cheaply() {
        let mut w = Writer::new();
        w.put_u64(3); // rows
        w.put_u64(4); // cols
        w.put_u64(u64::MAX); // claimed data length
        let err = Matrix::from_bytes(&w.into_bytes()).expect_err("absurd length");
        assert!(err.message.contains("implausible length"), "{err}");
    }

    #[test]
    fn param_set_round_trips_names_and_values() {
        let mut ps = ParamSet::new();
        ps.add("w", Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        ps.add("b", Matrix::from_vec(1, 2, vec![-1.0, 0.25]));
        let back = ParamSet::from_bytes(&ps.to_bytes()).expect("decodes");
        assert_eq!(back.len(), 2);
        for (id, matrix) in ps.iter() {
            assert_eq!(back.name(id), ps.name(id));
            assert_eq!(back.get(id).data(), matrix.data());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Matrix::zeros(1, 1).to_bytes();
        bytes.push(0);
        let err = Matrix::from_bytes(&bytes).expect_err("trailing byte");
        assert!(err.message.contains("trailing"), "{err}");
    }
}
