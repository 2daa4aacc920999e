//! Container IO: the writer and reader every artifact codec goes through,
//! producing and consuming the format of [`container`](crate::container)
//! without ever holding the whole artifact in memory.
//!
//! * [`StreamWriter`] frames sections straight to any `Write + Seek` sink.
//!   Only one section is in memory at a time (the section count is unknown
//!   until the end, so `finish` seeks back and patches the header — that is
//!   the single place `Seek` is needed).
//! * [`StreamReader`] walks sections off any `Read` source in file order,
//!   handing payload bytes out in caller-sized chunks while folding them
//!   into an incremental CRC that is verified at the section boundary.
//!
//! **Validation is incremental.** The reader can only validate what it has
//! seen, so corruption and truncation surface as typed errors *during
//! iteration* — a section's checksum mismatch is reported when its last
//! payload byte has been read, and a damaged or missing tail is reported by
//! [`StreamReader::finish`]. Callers must therefore treat any decoded data
//! as provisional until the section (or the whole stream) has been
//! verified; every codec ends its decode with `finish`.

use std::io::{Read, Seek, SeekFrom, Write};

use crate::container::{encode_header, parse_header, ArtifactKind, HEADER_LEN, MAX_SECTION_LEN};
use crate::crc::Crc32;
use crate::error::ArtifactError;
use crate::section::SectionWriter;

/// Wraps an IO failure on a seekable/readable stream that has no path.
fn io_stream(err: std::io::Error) -> ArtifactError {
    ArtifactError::Io { path: "<stream>".to_string(), message: err.to_string() }
}

/// `read_exact` that maps a clean EOF to [`ArtifactError::Truncated`] with
/// the given context and any other IO failure to [`ArtifactError::Io`].
fn read_exact_ctx<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), ArtifactError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ArtifactError::Truncated { context }
        } else {
            io_stream(e)
        }
    })
}

/// Writes an artifact section by section to a seekable sink.
///
/// The header is written immediately with a section count of zero, so a
/// writer that crashes mid-stream leaves a file the reader rejects
/// (`TrailingBytes`) rather than silently truncated data. [`finish`]
/// seeks back and patches the true count in; only then is the file valid.
///
/// [`finish`]: StreamWriter::finish
///
/// # Examples
///
/// ```
/// use std::io::Cursor;
/// use ispy_artifact::{ArtifactKind, SectionReader, SectionWriter, StreamReader, StreamWriter};
///
/// let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
/// let mut s = SectionWriter::new(1);
/// s.put_varint(42);
/// w.write_section(s).unwrap();
/// let bytes = w.finish().unwrap().into_inner();
///
/// let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
/// let payload = r.expect_section(1).unwrap();
/// assert_eq!(SectionReader::new(1, &payload).take_varint().unwrap(), 42);
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct StreamWriter<W: Write + Seek> {
    sink: W,
    /// Sink position of the header, where `finish` patches the count.
    start: u64,
    kind: ArtifactKind,
    count: u32,
    seen: Vec<u32>,
}

impl<W: Write + Seek> StreamWriter<W> {
    /// Starts a streamed artifact of the given kind, writing the provisional
    /// header (section count zero) at the sink's current position.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the sink cannot report its position or
    /// rejects the header write.
    pub fn new(mut sink: W, kind: ArtifactKind) -> Result<Self, ArtifactError> {
        let start = sink.stream_position().map_err(io_stream)?;
        sink.write_all(&encode_header(kind, 0)).map_err(io_stream)?;
        Ok(StreamWriter { sink, start, kind, count: 0, seen: Vec::new() })
    }

    /// Frames a finished section straight to the sink. Section ids must be
    /// unique per artifact; writing a duplicate is a programming error and
    /// panics.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the sink rejects the write.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate section id or a payload larger than the
    /// reader's allocation cap.
    pub fn write_section(&mut self, section: SectionWriter) -> Result<(), ArtifactError> {
        let (id, payload) = section.into_parts();
        assert!(!self.seen.contains(&id), "section {id} written twice");
        assert!(
            payload.len() as u64 <= MAX_SECTION_LEN,
            "section {id} payload exceeds the decoder cap"
        );
        self.seen.push(id);
        let id_bytes = id.to_le_bytes();
        let len_bytes = (payload.len() as u64).to_le_bytes();
        let mut crc = Crc32::new();
        crc.update(&id_bytes);
        crc.update(&len_bytes);
        crc.update(&payload);
        self.sink.write_all(&id_bytes).map_err(io_stream)?;
        self.sink.write_all(&len_bytes).map_err(io_stream)?;
        self.sink.write_all(&payload).map_err(io_stream)?;
        self.sink.write_all(&crc.finish().to_le_bytes()).map_err(io_stream)?;
        self.count += 1;
        Ok(())
    }

    /// Seeks back to patch the true section count into the header, flushes,
    /// and returns the sink. The artifact is only valid after this. The sink
    /// is left positioned just past the header.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if seeking, the header rewrite, or the flush
    /// fails.
    pub fn finish(mut self) -> Result<W, ArtifactError> {
        self.sink.seek(SeekFrom::Start(self.start)).map_err(io_stream)?;
        self.sink.write_all(&encode_header(self.kind, self.count)).map_err(io_stream)?;
        self.sink.flush().map_err(io_stream)?;
        Ok(self.sink)
    }
}

impl StreamWriter<std::io::BufWriter<std::fs::File>> {
    /// Opens a buffered streamed-artifact writer on `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on any filesystem failure.
    pub fn create(path: &std::path::Path, kind: ArtifactKind) -> Result<Self, ArtifactError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| ArtifactError::io(path, e))?;
            }
        }
        let file = std::fs::File::create(path).map_err(|e| ArtifactError::io(path, e))?;
        StreamWriter::new(std::io::BufWriter::new(file), kind)
    }
}

/// Encodes `sections`, in order, as a complete in-memory artifact through a
/// [`StreamWriter`] on a `Cursor<Vec<u8>>`.
pub fn encode_to_vec(
    kind: ArtifactKind,
    sections: impl IntoIterator<Item = SectionWriter>,
) -> Vec<u8> {
    const IN_MEMORY: &str = "an in-memory sink cannot fail";
    let mut w = StreamWriter::new(std::io::Cursor::new(Vec::new()), kind).expect(IN_MEMORY);
    for s in sections {
        w.write_section(s).expect(IN_MEMORY);
    }
    w.finish().expect(IN_MEMORY).into_inner()
}

/// The section currently being streamed out of a [`StreamReader`].
#[derive(Debug)]
struct CurrentSection {
    id: u32,
    remaining: u64,
    crc: Crc32,
}

/// Reads an artifact section by section off any byte stream.
///
/// The header is validated up front; sections are then walked in file order
/// with [`next_section`] / [`read_chunk`] (or [`expect_section`] when the
/// codec knows which section comes next). Each section's CRC is verified
/// when its last payload byte is consumed, and [`finish`] drains + verifies
/// everything left, so a caller that runs the reader to completion has
/// checked every byte of the file: framing, checksums, duplicate sections
/// and trailing bytes.
///
/// [`next_section`]: StreamReader::next_section
/// [`read_chunk`]: StreamReader::read_chunk
/// [`expect_section`]: StreamReader::expect_section
/// [`finish`]: StreamReader::finish
///
/// # Examples
///
/// ```
/// use std::io::Cursor;
/// use ispy_artifact::{ArtifactKind, SectionWriter, StreamReader, StreamWriter};
///
/// let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Plan).unwrap();
/// let mut s = SectionWriter::new(3);
/// s.put_str("hello");
/// w.write_section(s).unwrap();
/// let bytes = w.finish().unwrap().into_inner();
///
/// let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Plan).unwrap();
/// let (id, len) = r.next_section().unwrap().unwrap();
/// assert_eq!(id, 3);
/// let payload = r.take_payload().unwrap();
/// assert_eq!(payload.len() as u64, len);
/// assert_eq!(r.next_section().unwrap(), None);
/// r.finish().unwrap();
/// ```
#[derive(Debug)]
pub struct StreamReader<R: Read> {
    source: R,
    declared: u32,
    consumed: u32,
    seen: Vec<u32>,
    current: Option<CurrentSection>,
}

impl<R: Read> StreamReader<R> {
    /// Reads and validates the 20-byte header, checking the artifact is of
    /// `expected` kind.
    ///
    /// # Errors
    ///
    /// Bad magic, future version, wrong/unknown kind, header checksum,
    /// truncation, or [`ArtifactError::Io`] on read failure.
    pub fn new(mut source: R, expected: ArtifactKind) -> Result<Self, ArtifactError> {
        let mut header = [0u8; HEADER_LEN];
        read_exact_ctx(&mut source, &mut header, "header")?;
        let declared = parse_header(&header, expected)?;
        Ok(StreamReader { source, declared, consumed: 0, seen: Vec::new(), current: None })
    }

    /// Advances to the next section, returning its `(id, payload length)`,
    /// or `None` once all declared sections are consumed and the stream ends
    /// cleanly. Any unread payload of the previous section is drained and
    /// CRC-verified first, so skipping a section never skips its integrity
    /// check.
    ///
    /// # Errors
    ///
    /// Truncation, oversized/duplicate sections, checksum mismatches while
    /// draining, trailing bytes after the last section, or
    /// [`ArtifactError::Io`].
    pub fn next_section(&mut self) -> Result<Option<(u32, u64)>, ArtifactError> {
        while self.current.is_some() {
            let mut scratch = [0u8; 8192];
            self.read_chunk(&mut scratch)?;
        }
        if self.consumed == self.declared {
            return if self.at_eof()? { Ok(None) } else { Err(ArtifactError::TrailingBytes) };
        }
        let mut frame = [0u8; 12];
        read_exact_ctx(&mut self.source, &mut frame, "section frame")?;
        let id = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
        let mut len_raw = [0u8; 8];
        len_raw.copy_from_slice(&frame[4..12]);
        let len = u64::from_le_bytes(len_raw);
        if len > MAX_SECTION_LEN {
            return Err(ArtifactError::SectionTooLarge { id, len });
        }
        if self.seen.contains(&id) {
            return Err(ArtifactError::DuplicateSection { id });
        }
        self.seen.push(id);
        let mut crc = Crc32::new();
        crc.update(&frame);
        self.current = Some(CurrentSection { id, remaining: len, crc });
        if len == 0 {
            self.verify_trailer()?;
        }
        Ok(Some((id, len)))
    }

    /// Reads up to `buf.len()` payload bytes of the current section,
    /// returning how many were read — `0` once the section is exhausted (or
    /// none is open). The section's CRC is checked automatically as its last
    /// byte is delivered, so by the time the caller sees the final chunk the
    /// payload is verified.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Truncated`] if the stream ends mid-payload,
    /// [`ArtifactError::SectionChecksum`] on CRC mismatch at the section
    /// boundary, or [`ArtifactError::Io`].
    pub fn read_chunk(&mut self, buf: &mut [u8]) -> Result<usize, ArtifactError> {
        let Some(cur) = self.current.as_mut() else { return Ok(0) };
        let take = buf.len().min(usize::try_from(cur.remaining).unwrap_or(usize::MAX));
        if take == 0 {
            return Ok(0);
        }
        read_exact_ctx(&mut self.source, &mut buf[..take], "section payload")?;
        cur.crc.update(&buf[..take]);
        cur.remaining -= take as u64;
        if cur.remaining == 0 {
            self.verify_trailer()?;
        }
        Ok(take)
    }

    /// Buffers the remainder of the current section's payload and verifies
    /// its CRC. Allocation is bounded by the framing cap (the length field
    /// was range-checked in [`next_section`](StreamReader::next_section)).
    ///
    /// # Errors
    ///
    /// The same conditions as [`read_chunk`](StreamReader::read_chunk).
    pub fn take_payload(&mut self) -> Result<Vec<u8>, ArtifactError> {
        let remaining = self.current.as_ref().map_or(0, |c| c.remaining);
        let mut buf = vec![0u8; remaining as usize];
        let mut filled = 0;
        while filled < buf.len() {
            filled += self.read_chunk(&mut buf[filled..])?;
        }
        Ok(buf)
    }

    /// Advances to the next section and returns its whole payload, which
    /// must be section `id`: codecs read their sections in the order their
    /// writers emit them.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::MissingSection`] if the stream ends first,
    /// [`ArtifactError::Malformed`] (`"section order"`) if another section
    /// comes next, or any condition of [`next_section`] /
    /// [`take_payload`].
    ///
    /// [`next_section`]: StreamReader::next_section
    /// [`take_payload`]: StreamReader::take_payload
    pub fn expect_section(&mut self, id: u32) -> Result<Vec<u8>, ArtifactError> {
        match self.next_section()? {
            Some((found, _)) if found == id => self.take_payload(),
            Some((found, _)) => Err(ArtifactError::malformed(
                "section order",
                format!("expected section {id}, found {found}"),
            )),
            None => Err(ArtifactError::MissingSection { id }),
        }
    }

    /// Drains and verifies every remaining section, then checks the stream
    /// ends exactly at the last declared section. Returns the source.
    ///
    /// # Errors
    ///
    /// Any integrity failure in the unread tail: truncation, checksum
    /// mismatch, duplicate/oversized sections, trailing bytes, or
    /// [`ArtifactError::Io`].
    pub fn finish(mut self) -> Result<R, ArtifactError> {
        while self.next_section()?.is_some() {}
        Ok(self.source)
    }

    /// Reads the current section's trailing CRC and compares it against the
    /// running checksum, closing the section.
    fn verify_trailer(&mut self) -> Result<(), ArtifactError> {
        let cur = self.current.take().expect("no open section");
        let mut stored = [0u8; 4];
        read_exact_ctx(&mut self.source, &mut stored, "section checksum")?;
        if u32::from_le_bytes(stored) != cur.crc.finish() {
            return Err(ArtifactError::SectionChecksum { id: cur.id });
        }
        self.consumed += 1;
        Ok(())
    }

    /// Probes whether the source is exhausted (consuming at most one byte,
    /// and only when it is not).
    fn at_eof(&mut self) -> Result<bool, ArtifactError> {
        let mut byte = [0u8; 1];
        loop {
            match self.source.read(&mut byte) {
                Ok(0) => return Ok(true),
                Ok(_) => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_stream(e)),
            }
        }
    }
}

impl StreamReader<std::io::BufReader<std::fs::File>> {
    /// Opens a buffered streamed-artifact reader on `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise the same
    /// conditions as [`StreamReader::new`].
    pub fn open(path: &std::path::Path, expected: ArtifactKind) -> Result<Self, ArtifactError> {
        let file = std::fs::File::open(path).map_err(|e| ArtifactError::io(path, e))?;
        StreamReader::new(std::io::BufReader::new(file), expected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn streamed_sample() -> Vec<u8> {
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
        let mut meta = SectionWriter::new(1);
        meta.put_str("cassandra");
        meta.put_varint(99);
        w.write_section(meta).unwrap();
        let mut blocks = SectionWriter::new(2);
        for i in 0..1000u64 {
            blocks.put_delta(i * 7);
        }
        w.write_section(blocks).unwrap();
        w.write_section(SectionWriter::new(3)).unwrap(); // empty section
        w.finish().unwrap().into_inner()
    }

    #[test]
    fn sections_read_back_in_file_order() {
        let bytes = streamed_sample();
        let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        let meta = r.expect_section(1).unwrap();
        let mut meta = crate::section::SectionReader::new(1, &meta);
        assert_eq!(meta.take_str().unwrap(), "cassandra");
        assert_eq!(meta.take_varint().unwrap(), 99);
        meta.finish().unwrap();
        // Asking for a section other than the next one is a typed error.
        assert!(matches!(
            r.expect_section(3).unwrap_err(),
            ArtifactError::Malformed { context: "section order", .. }
        ));
        assert!(r.expect_section(3).unwrap().is_empty());
        assert_eq!(r.expect_section(4).unwrap_err(), ArtifactError::MissingSection { id: 4 });
    }

    #[test]
    fn streamed_bytes_follow_the_documented_layout() {
        // Header, then per section: id, length, payload, CRC of all three.
        let mut sw = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Profile).unwrap();
        let mut want = encode_header(ArtifactKind::Profile, 3).to_vec();
        for id in 1u32..=3 {
            let mut s = SectionWriter::new(id);
            s.put_str("x");
            s.put_varint(u64::from(id) * 1000);
            let (_, payload) = s.clone().into_parts();
            sw.write_section(s).unwrap();
            let frame_start = want.len();
            want.extend_from_slice(&id.to_le_bytes());
            want.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            want.extend_from_slice(&payload);
            let crc = crate::crc::crc32(&want[frame_start..]);
            want.extend_from_slice(&crc.to_le_bytes());
        }
        assert_eq!(sw.finish().unwrap().into_inner(), want);
    }

    #[test]
    fn artifact_after_a_prefix_reads_back_from_its_offset() {
        // `new` writes the header at the sink's current position, so
        // `finish` must patch it there, not at offset 0.
        let prefix = b"not an artifact".to_vec();
        let mut sink = Cursor::new(prefix.clone());
        sink.set_position(prefix.len() as u64);
        let mut w = StreamWriter::new(sink, ArtifactKind::Trace).unwrap();
        let mut s = SectionWriter::new(1);
        s.put_str("offset");
        w.write_section(s).unwrap();
        let bytes = w.finish().unwrap().into_inner();
        assert_eq!(bytes[..prefix.len()], prefix[..], "the prefix must survive");
        let mut r = StreamReader::new(&bytes[prefix.len()..], ArtifactKind::Trace).unwrap();
        let payload = r.expect_section(1).unwrap();
        assert_eq!(crate::section::SectionReader::new(1, &payload).take_str().unwrap(), "offset");
        r.finish().unwrap();
    }

    #[test]
    fn buffered_file_streams_back_chunk_by_chunk() {
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Plan).unwrap();
        let mut s = SectionWriter::new(9);
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for &b in &payload {
            s.put_u8(b);
        }
        w.write_section(s).unwrap();
        let bytes = w.finish().unwrap().into_inner();

        for chunk in [1usize, 7, 4096, 1 << 20] {
            let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Plan).unwrap();
            let (id, len) = r.next_section().unwrap().unwrap();
            assert_eq!((id, len), (9, payload.len() as u64));
            let mut got = Vec::new();
            let mut buf = vec![0u8; chunk];
            loop {
                let n = r.read_chunk(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                got.extend_from_slice(&buf[..n]);
            }
            assert_eq!(got, payload, "chunk size {chunk}");
            assert_eq!(r.next_section().unwrap(), None);
            r.finish().unwrap();
        }
    }

    #[test]
    fn skipping_a_section_still_verifies_it() {
        let mut bytes = streamed_sample();
        // Corrupt a byte deep inside section 2's payload (the file ends with
        // section 2's CRC, then the 16-byte empty section 3), then skip it.
        let sec2_payload_byte = bytes.len() - 16 - 4 - 200;
        bytes[sec2_payload_byte] ^= 0x40;
        let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.next_section().unwrap().unwrap().0, 1);
        assert_eq!(r.next_section().unwrap().unwrap().0, 2);
        // Skip section 2 entirely: the drain inside next_section must still
        // catch the corruption.
        assert_eq!(r.next_section().unwrap_err(), ArtifactError::SectionChecksum { id: 2 });
    }

    #[test]
    fn finish_drains_and_verifies_the_tail() {
        let bytes = streamed_sample();
        let r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        // Never touched a section: finish still walks and verifies all three.
        r.finish().unwrap();

        let mut truncated = bytes.clone();
        truncated.truncate(bytes.len() - 3);
        let r = StreamReader::new(truncated.as_slice(), ArtifactKind::Trace).unwrap();
        assert!(matches!(r.finish().unwrap_err(), ArtifactError::Truncated { .. }));

        let mut trailing = bytes;
        trailing.push(0);
        let r = StreamReader::new(trailing.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.finish().unwrap_err(), ArtifactError::TrailingBytes);
    }

    #[test]
    fn every_truncation_point_errors_eventually() {
        let bytes = streamed_sample();
        for cut in 0..bytes.len() {
            let result = StreamReader::new(&bytes[..cut], ArtifactKind::Trace)
                .and_then(|r| r.finish().map(|_| ()));
            assert!(result.is_err(), "prefix of {cut} bytes streamed successfully");
        }
    }

    #[test]
    fn every_single_bit_flip_errors_eventually() {
        let bytes = streamed_sample();
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte_idx] ^= 1 << bit;
                let result = StreamReader::new(corrupt.as_slice(), ArtifactKind::Trace)
                    .and_then(|r| r.finish().map(|_| ()));
                assert!(
                    result.is_err(),
                    "bit {bit} of byte {byte_idx} flipped but the stream verified"
                );
            }
        }
    }

    #[test]
    fn duplicate_section_id_is_rejected_mid_stream() {
        // Hand-splice a copy of the only frame and patch the header count.
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
        let mut s = SectionWriter::new(5);
        s.put_varint(7);
        w.write_section(s).unwrap();
        let mut bytes = w.finish().unwrap().into_inner();
        let frame = bytes[HEADER_LEN..].to_vec();
        bytes.extend_from_slice(&frame);
        bytes[..HEADER_LEN].copy_from_slice(&encode_header(ArtifactKind::Trace, 2));
        let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.next_section().unwrap().unwrap().0, 5);
        assert_eq!(r.next_section().unwrap_err(), ArtifactError::DuplicateSection { id: 5 });
    }

    #[test]
    fn unfinished_writer_output_is_rejected() {
        // Simulate a crash: sections written but `finish` never called, so
        // the header still claims zero sections.
        let mut w = StreamWriter::new(Cursor::new(Vec::new()), ArtifactKind::Trace).unwrap();
        let mut s = SectionWriter::new(1);
        s.put_varint(1);
        w.write_section(s).unwrap();
        let bytes = w.sink.into_inner();
        let r = StreamReader::new(bytes.as_slice(), ArtifactKind::Trace).unwrap();
        assert_eq!(r.finish().unwrap_err(), ArtifactError::TrailingBytes);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("ispy-stream-test-{}", std::process::id()));
        let path = dir.join("nested").join("sample.itrace");
        let mut w = StreamWriter::create(&path, ArtifactKind::Trace).unwrap();
        let mut s = SectionWriter::new(1);
        s.put_str("roundtrip");
        w.write_section(s).unwrap();
        w.finish().unwrap();
        let mut r = StreamReader::open(&path, ArtifactKind::Trace).unwrap();
        assert_eq!(r.next_section().unwrap().unwrap().0, 1);
        let payload = r.take_payload().unwrap();
        let mut sr = crate::section::SectionReader::new(1, &payload);
        assert_eq!(sr.take_str().unwrap(), "roundtrip");
        sr.finish().unwrap();
        r.finish().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            StreamReader::open(&path, ArtifactKind::Trace),
            Err(ArtifactError::Io { .. })
        ));
    }
}
