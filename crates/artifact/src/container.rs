//! The sectioned container format: header layout, framing, artifact kinds.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "ISPYART\0"
//! 8       2     format version
//! 10      2     artifact kind
//! 12      4     section count
//! 16      4     CRC-32 of bytes 0..16
//! 20      ...   sections
//! ```
//!
//! Each section is `(u32 id, u64 payload length, payload bytes, u32 CRC-32)`
//! where the CRC covers the id and length fields *and* the payload, so a bit
//! flip anywhere in the file — header, framing, payload, or a checksum
//! itself — is guaranteed to surface as a typed error. Sections are written
//! and read by [`StreamWriter`](crate::StreamWriter) and
//! [`StreamReader`](crate::StreamReader).

use crate::crc::crc32;
use crate::error::ArtifactError;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"ISPYART\0";

/// The newest container format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Fixed header length in bytes.
pub(crate) const HEADER_LEN: usize = 20;

/// Refuse to allocate payloads beyond this — a corrupt length field must not
/// become an OOM.
pub(crate) const MAX_SECTION_LEN: u64 = 1 << 30;

/// Serializes the fixed 20-byte header (magic, version, kind, section count,
/// header CRC).
pub(crate) fn encode_header(kind: ArtifactKind, section_count: u32) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[10..12].copy_from_slice(&kind.raw().to_le_bytes());
    out[12..16].copy_from_slice(&section_count.to_le_bytes());
    let header_crc = crc32(&out[..16]);
    out[16..20].copy_from_slice(&header_crc.to_le_bytes());
    out
}

/// Validates a 20-byte header against `expected` and returns the declared
/// section count.
pub(crate) fn parse_header(
    header: &[u8; HEADER_LEN],
    expected: ArtifactKind,
) -> Result<u32, ArtifactError> {
    if header[..8] != MAGIC {
        return Err(ArtifactError::BadMagic);
    }
    let version = u16::from_le_bytes([header[8], header[9]]);
    if version != FORMAT_VERSION {
        return Err(ArtifactError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let raw_kind = u16::from_le_bytes([header[10], header[11]]);
    let kind =
        ArtifactKind::from_raw(raw_kind).ok_or(ArtifactError::UnknownKind { found: raw_kind })?;
    let count = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    let stored_header_crc = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
    if crc32(&header[..16]) != stored_header_crc {
        return Err(ArtifactError::HeaderChecksum);
    }
    if kind != expected {
        return Err(ArtifactError::WrongKind { expected: expected.raw(), found: kind.raw() });
    }
    Ok(count)
}

/// What an artifact stores, written into the header and checked on read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A recorded program + block trace (`.itrace`).
    Trace = 1,
    /// A miss-annotated profile (`.iprof`).
    Profile = 2,
    /// An injection plan with provenance (`.iplan`).
    Plan = 3,
}

impl ArtifactKind {
    /// The on-disk kind value.
    pub fn raw(self) -> u16 {
        self as u16
    }

    /// Decodes a raw kind value.
    pub fn from_raw(raw: u16) -> Option<Self> {
        match raw {
            1 => Some(ArtifactKind::Trace),
            2 => Some(ArtifactKind::Profile),
            3 => Some(ArtifactKind::Plan),
            _ => None,
        }
    }

    /// The conventional file extension (without the dot).
    pub fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "itrace",
            ArtifactKind::Profile => "iprof",
            ArtifactKind::Plan => "iplan",
        }
    }
}

/// Conformance of the format's rules, checked through the one IO pair.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::{SectionReader, SectionWriter};
    use crate::stream::{encode_to_vec, StreamReader, StreamWriter};

    fn sample_artifact() -> Vec<u8> {
        let mut meta = SectionWriter::new(1);
        meta.put_str("wordpress");
        meta.put_varint(123_456);
        let mut stats = SectionWriter::new(2);
        for (i, v) in [1.5f64, -0.0, f64::INFINITY].iter().enumerate() {
            stats.put_delta(i as u64 * 1000);
            stats.put_f64(*v);
        }
        encode_to_vec(ArtifactKind::Profile, [meta, stats])
    }

    /// Walks every section of `bytes` to the end, returning `(id, payload)`
    /// pairs: the full strict parse.
    fn read_all(bytes: &[u8], kind: ArtifactKind) -> Result<Vec<(u32, Vec<u8>)>, ArtifactError> {
        let mut r = StreamReader::new(bytes, kind)?;
        let mut sections = Vec::new();
        while let Some((id, _)) = r.next_section()? {
            sections.push((id, r.take_payload()?));
        }
        r.finish()?;
        Ok(sections)
    }

    /// `bytes` with the header's 16-bit field at `at` set to `value` and the
    /// header CRC re-sealed, so the field check (not the CRC) fires.
    fn reseal(mut bytes: Vec<u8>, at: usize, value: u16) -> Vec<u8> {
        bytes[at..at + 2].copy_from_slice(&value.to_le_bytes());
        let crc = crc32(&bytes[..16]).to_le_bytes();
        bytes[16..20].copy_from_slice(&crc);
        bytes
    }

    #[test]
    fn multi_section_round_trip() {
        let bytes = sample_artifact();
        let mut r = StreamReader::new(bytes.as_slice(), ArtifactKind::Profile).unwrap();
        let payload = r.expect_section(1).unwrap();
        let mut meta = SectionReader::new(1, &payload);
        assert_eq!(meta.take_str().unwrap(), "wordpress");
        assert_eq!(meta.take_varint().unwrap(), 123_456);
        meta.finish().unwrap();
        let payload = r.expect_section(2).unwrap();
        let mut stats = SectionReader::new(2, &payload);
        for (i, v) in [1.5f64, -0.0, f64::INFINITY].iter().enumerate() {
            assert_eq!(stats.take_delta().unwrap(), i as u64 * 1000);
            assert_eq!(stats.take_f64().unwrap().to_bits(), v.to_bits());
        }
        stats.finish().unwrap();
        assert_eq!(r.expect_section(9).unwrap_err(), ArtifactError::MissingSection { id: 9 });
    }

    #[test]
    fn empty_artifact_round_trips() {
        let bytes = encode_to_vec(ArtifactKind::Plan, []);
        assert_eq!(bytes.len(), HEADER_LEN);
        assert!(read_all(&bytes, ArtifactKind::Plan).unwrap().is_empty());
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let bytes = sample_artifact();
        assert_eq!(
            read_all(&bytes, ArtifactKind::Trace).unwrap_err(),
            ArtifactError::WrongKind {
                expected: ArtifactKind::Trace.raw(),
                found: ArtifactKind::Profile.raw()
            }
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample_artifact();
        bytes[0] = b'X';
        assert_eq!(read_all(&bytes, ArtifactKind::Profile).unwrap_err(), ArtifactError::BadMagic);
    }

    #[test]
    fn future_version_is_rejected() {
        let bytes = reseal(sample_artifact(), 8, 0x7FFF);
        assert_eq!(
            read_all(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::UnsupportedVersion { found: 0x7FFF, supported: FORMAT_VERSION }
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let bytes = reseal(sample_artifact(), 10, 42);
        assert_eq!(
            read_all(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::UnknownKind { found: 42 }
        );
    }

    #[test]
    fn oversized_section_length_is_rejected_without_allocating() {
        let mut bytes = sample_artifact();
        // Corrupt section 1's length field to an absurd value: the reader
        // must refuse it before sizing any buffer from it.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_all(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::SectionTooLarge { id: 1, len: u64::MAX }
        );
    }

    #[test]
    fn duplicate_section_is_rejected() {
        // Hand-build a file with section 5 twice: serialize one section, then
        // splice a copy of its frame and patch the header count.
        let mut s = SectionWriter::new(5);
        s.put_varint(7);
        let mut bytes = encode_to_vec(ArtifactKind::Trace, [s]);
        let frame = bytes[HEADER_LEN..].to_vec();
        bytes.extend_from_slice(&frame);
        bytes[..HEADER_LEN].copy_from_slice(&encode_header(ArtifactKind::Trace, 2));
        assert_eq!(
            read_all(&bytes, ArtifactKind::Trace).unwrap_err(),
            ArtifactError::DuplicateSection { id: 5 }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample_artifact();
        bytes.push(0);
        assert_eq!(
            read_all(&bytes, ArtifactKind::Profile).unwrap_err(),
            ArtifactError::TrailingBytes
        );
    }

    #[test]
    fn every_truncation_point_errors() {
        let bytes = sample_artifact();
        for cut in 0..bytes.len() {
            let result = read_all(&bytes[..cut], ArtifactKind::Profile);
            assert!(result.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn every_single_bit_flip_errors() {
        // The header CRC covers bytes 0..16 and each section CRC covers its
        // frame (id + length + payload), so *no* single-bit corruption can
        // decode cleanly — flipping a checksum byte breaks the checksum too.
        let bytes = sample_artifact();
        for byte_idx in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[byte_idx] ^= 1 << bit;
                let result = read_all(&corrupt, ArtifactKind::Profile);
                assert!(
                    result.is_err(),
                    "bit {bit} of byte {byte_idx} flipped but the artifact still decoded"
                );
            }
        }
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join(format!("ispy-artifact-test-{}", std::process::id()));
        let path = dir.join("nested").join("sample.iprof");
        let mut w = StreamWriter::create(&path, ArtifactKind::Profile).unwrap();
        let mut s = SectionWriter::new(1);
        s.put_str("roundtrip");
        w.write_section(s).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let sections = read_all(&bytes, ArtifactKind::Profile).unwrap();
        assert_eq!(SectionReader::new(1, &sections[0].1).take_str().unwrap(), "roundtrip");
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            StreamReader::open(&path, ArtifactKind::Profile),
            Err(ArtifactError::Io { .. })
        ));
    }
}
