//! Section payload builders and strict cursors.

use crate::error::ArtifactError;
use crate::varint;

/// Builds one section's payload.
///
/// # Examples
///
/// ```
/// use ispy_artifact::SectionWriter;
///
/// let mut s = SectionWriter::new(1);
/// s.put_varint(300);
/// s.put_str("wordpress");
/// assert_eq!(s.id(), 1);
/// assert!(s.len() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct SectionWriter {
    id: u32,
    buf: Vec<u8>,
    last_delta_base: u64,
}

impl SectionWriter {
    /// Starts an empty payload for section `id`.
    pub fn new(id: u32) -> Self {
        SectionWriter { id, buf: Vec::new(), last_delta_base: 0 }
    }

    /// The section id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning `(id, payload)`.
    pub fn into_parts(self) -> (u32, Vec<u8>) {
        (self.id, self.buf)
    }

    /// Appends an unsigned varint.
    pub fn put_varint(&mut self, v: u64) {
        varint::put_u64(&mut self.buf, v);
    }

    /// Appends `v` delta-encoded against the previous value in this
    /// section's delta stream (zigzag, so non-monotonic streams stay legal).
    /// The stream starts at 0; [`SectionWriter::reset_delta`] restarts it.
    pub fn put_delta(&mut self, v: u64) {
        let delta = v.wrapping_sub(self.last_delta_base) as i64;
        varint::put_i64(&mut self.buf, delta);
        self.last_delta_base = v;
    }

    /// Restarts the delta stream at 0 (use between independent sequences).
    pub fn reset_delta(&mut self) {
        self.last_delta_base = 0;
    }

    /// Appends a single raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern (8 bytes LE).
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends `Some(v)` as `1` + the value's bits, `None` as `0`.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_f64(v);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends `Some(v)` as `v + 1`, `None` as `0` (biased option varint).
    pub fn put_opt_varint(&mut self, v: Option<u64>) {
        match v {
            Some(v) => self.put_varint(v.saturating_add(1)),
            None => self.put_varint(0),
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_varint(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// A strict cursor over one section's payload.
///
/// Every `take_*` either returns the decoded value or a typed error; nothing
/// panics on corrupt input. [`SectionReader::finish`] asserts the payload
/// was consumed exactly.
#[derive(Debug, Clone)]
pub struct SectionReader<'a> {
    id: u32,
    buf: &'a [u8],
    pos: usize,
    last_delta_base: u64,
}

impl<'a> SectionReader<'a> {
    /// Wraps a section payload.
    pub fn new(id: u32, buf: &'a [u8]) -> Self {
        SectionReader { id, buf, pos: 0, last_delta_base: 0 }
    }

    /// The section id this cursor reads.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads an unsigned varint.
    ///
    /// # Errors
    ///
    /// Typed [`ArtifactError`] on truncation or overlong encoding.
    pub fn take_varint(&mut self) -> Result<u64, ArtifactError> {
        let (v, n) = varint::take_u64(&self.buf[self.pos..])?;
        self.pos += n;
        Ok(v)
    }

    /// Reads the next value of this section's delta stream (see
    /// [`SectionWriter::put_delta`]).
    ///
    /// # Errors
    ///
    /// Typed [`ArtifactError`] on truncation or overlong encoding.
    pub fn take_delta(&mut self) -> Result<u64, ArtifactError> {
        let (d, n) = varint::take_i64(&self.buf[self.pos..])?;
        self.pos += n;
        let v = self.last_delta_base.wrapping_add(d as u64);
        self.last_delta_base = v;
        Ok(v)
    }

    /// Restarts the delta stream at 0 (must mirror the writer).
    pub fn reset_delta(&mut self) {
        self.last_delta_base = 0;
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] at end of payload.
    pub fn take_u8(&mut self) -> Result<u8, ArtifactError> {
        let b =
            self.buf.get(self.pos).copied().ok_or(ArtifactError::Truncated { context: "byte" })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads an `f64` from its exact bit pattern.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] if fewer than 8 bytes remain.
    pub fn take_f64(&mut self) -> Result<f64, ArtifactError> {
        if self.remaining() < 8 {
            return Err(ArtifactError::Truncated { context: "f64" });
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }

    /// Reads an optional `f64` written by [`SectionWriter::put_opt_f64`].
    ///
    /// # Errors
    ///
    /// Truncation, or [`ArtifactError::Malformed`] on a tag other than 0/1.
    pub fn take_opt_f64(&mut self) -> Result<Option<f64>, ArtifactError> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_f64()?)),
            t => Err(ArtifactError::malformed("option tag", format!("unexpected tag {t}"))),
        }
    }

    /// Reads an optional varint written by [`SectionWriter::put_opt_varint`].
    ///
    /// # Errors
    ///
    /// Typed [`ArtifactError`] on truncation or overlong encoding.
    pub fn take_opt_varint(&mut self) -> Result<Option<u64>, ArtifactError> {
        Ok(self.take_varint()?.checked_sub(1))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Truncation, or [`ArtifactError::Malformed`] on invalid UTF-8 or an
    /// implausible length.
    pub fn take_str(&mut self) -> Result<String, ArtifactError> {
        let len = self.take_varint()?;
        if len > self.remaining() as u64 {
            return Err(ArtifactError::Truncated { context: "string" });
        }
        let bytes = &self.buf[self.pos..self.pos + len as usize];
        self.pos += len as usize;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| ArtifactError::malformed("string", e.to_string()))
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] if bytes remain — a decoder that stops
    /// early has misparsed the section.
    pub fn finish(self) -> Result<(), ArtifactError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ArtifactError::malformed(
                "section",
                format!("{} unconsumed bytes in section {}", self.buf.len() - self.pos, self.id),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = SectionWriter::new(9);
        w.put_varint(42);
        w.put_delta(100);
        w.put_delta(90); // non-monotonic deltas are legal
        w.put_u8(0xAB);
        w.put_f64(-0.0);
        w.put_opt_f64(Some(f64::MAX));
        w.put_opt_f64(None);
        w.put_opt_varint(Some(0));
        w.put_opt_varint(None);
        w.put_str("héllo");
        let (id, buf) = w.into_parts();
        let mut r = SectionReader::new(id, &buf);
        assert_eq!(r.take_varint().unwrap(), 42);
        assert_eq!(r.take_delta().unwrap(), 100);
        assert_eq!(r.take_delta().unwrap(), 90);
        assert_eq!(r.take_u8().unwrap(), 0xAB);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.take_opt_f64().unwrap(), Some(f64::MAX));
        assert_eq!(r.take_opt_f64().unwrap(), None);
        assert_eq!(r.take_opt_varint().unwrap(), Some(0));
        assert_eq!(r.take_opt_varint().unwrap(), None);
        assert_eq!(r.take_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn finish_rejects_unconsumed_bytes() {
        let mut w = SectionWriter::new(1);
        w.put_varint(1);
        w.put_varint(2);
        let (id, buf) = w.into_parts();
        let mut r = SectionReader::new(id, &buf);
        let _ = r.take_varint().unwrap();
        assert!(matches!(r.finish(), Err(ArtifactError::Malformed { .. })));
    }

    #[test]
    fn string_length_beyond_payload_is_truncation() {
        let mut w = SectionWriter::new(1);
        w.put_varint(1_000_000); // length prefix with no bytes behind it
        let (id, buf) = w.into_parts();
        let mut r = SectionReader::new(id, &buf);
        assert!(matches!(r.take_str(), Err(ArtifactError::Truncated { .. })));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = SectionWriter::new(1);
        w.put_varint(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let (id, buf) = w.into_parts();
        let mut r = SectionReader::new(id, &buf);
        assert!(matches!(r.take_str(), Err(ArtifactError::Malformed { .. })));
    }

    #[test]
    fn empty_payload_truncations() {
        let mut r = SectionReader::new(0, &[]);
        assert!(r.take_u8().is_err());
        let mut r = SectionReader::new(0, &[]);
        assert!(r.take_f64().is_err());
        let mut r = SectionReader::new(0, &[]);
        assert!(r.take_varint().is_err());
        SectionReader::new(0, &[]).finish().unwrap();
    }

    #[test]
    fn delta_reset_mirrors_writer() {
        let mut w = SectionWriter::new(3);
        w.put_delta(10);
        w.reset_delta();
        w.put_delta(5);
        let (id, buf) = w.into_parts();
        let mut r = SectionReader::new(id, &buf);
        assert_eq!(r.take_delta().unwrap(), 10);
        r.reset_delta();
        assert_eq!(r.take_delta().unwrap(), 5);
    }
}
