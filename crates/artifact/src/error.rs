//! Typed decode/IO errors. Corrupt input is an `Err`, never a panic.

use std::fmt;

/// Everything that can go wrong reading or writing an artifact.
///
/// The decoder is strict: any structural problem in the input maps to one of
/// these variants. The error is `Clone + PartialEq` so corruption tests can
/// assert on the exact failure class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The file does not start with the artifact magic.
    BadMagic,
    /// The header declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Newest version this build supports.
        supported: u16,
    },
    /// The header's kind field is not a known artifact kind.
    UnknownKind {
        /// Raw kind value found.
        found: u16,
    },
    /// The artifact is of a different kind than the caller asked for.
    WrongKind {
        /// Kind the caller expected (raw value).
        expected: u16,
        /// Kind the header declares (raw value).
        found: u16,
    },
    /// Input ended before the declared structure was complete.
    Truncated {
        /// What was being read when the input ran out.
        context: &'static str,
    },
    /// The header checksum does not match the header bytes.
    HeaderChecksum,
    /// A section's payload checksum does not match its payload bytes.
    SectionChecksum {
        /// Id of the corrupt section.
        id: u32,
    },
    /// The same section id appears twice.
    DuplicateSection {
        /// The repeated id.
        id: u32,
    },
    /// A section required by the codec is absent.
    MissingSection {
        /// The missing id.
        id: u32,
    },
    /// A section declares a payload longer than the decoder will allocate.
    SectionTooLarge {
        /// Id of the oversized section.
        id: u32,
        /// Declared payload length.
        len: u64,
    },
    /// Bytes remain after the last declared section.
    TrailingBytes,
    /// A payload violated its codec (bad varint, bad tag, out-of-range id,
    /// invariant failure after reconstruction, …).
    Malformed {
        /// What the decoder was parsing.
        context: &'static str,
        /// Human-readable detail.
        detail: String,
    },
    /// An underlying filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The rendered `std::io::Error`.
        message: String,
    },
}

impl ArtifactError {
    /// Convenience constructor for [`ArtifactError::Malformed`].
    pub fn malformed(context: &'static str, detail: impl Into<String>) -> Self {
        ArtifactError::Malformed { context, detail: detail.into() }
    }

    /// Wraps an IO error with the path it happened on.
    pub fn io(path: &std::path::Path, err: std::io::Error) -> Self {
        ArtifactError::Io { path: path.display().to_string(), message: err.to_string() }
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not an I-SPY artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(f, "artifact format version {found} is newer than supported {supported}")
            }
            ArtifactError::UnknownKind { found } => write!(f, "unknown artifact kind {found}"),
            ArtifactError::WrongKind { expected, found } => {
                write!(f, "expected artifact kind {expected}, found {found}")
            }
            ArtifactError::Truncated { context } => {
                write!(f, "artifact truncated while reading {context}")
            }
            ArtifactError::HeaderChecksum => write!(f, "artifact header checksum mismatch"),
            ArtifactError::SectionChecksum { id } => {
                write!(f, "section {id} payload checksum mismatch")
            }
            ArtifactError::DuplicateSection { id } => write!(f, "section {id} appears twice"),
            ArtifactError::MissingSection { id } => write!(f, "required section {id} is missing"),
            ArtifactError::SectionTooLarge { id, len } => {
                write!(f, "section {id} declares an implausible {len}-byte payload")
            }
            ArtifactError::TrailingBytes => {
                write!(f, "trailing bytes after the last declared section")
            }
            ArtifactError::Malformed { context, detail } => {
                write!(f, "malformed {context}: {detail}")
            }
            ArtifactError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Narrows a decoded varint to `T`, as a [`ArtifactError::Malformed`]
/// error naming `what` when the value does not fit, instead of a
/// panicking or truncating cast.
///
/// # Examples
///
/// ```
/// use ispy_artifact::narrow;
///
/// assert_eq!(narrow::<u8>(200, "width").unwrap(), 200);
/// assert!(narrow::<u8>(300, "width").is_err());
/// ```
pub fn narrow<T: TryFrom<u64>>(v: u64, what: &'static str) -> Result<T, ArtifactError> {
    T::try_from(v).map_err(|_| ArtifactError::malformed(what, format!("value {v} out of range")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let cases: Vec<ArtifactError> = vec![
            ArtifactError::BadMagic,
            ArtifactError::UnsupportedVersion { found: 9, supported: 1 },
            ArtifactError::UnknownKind { found: 77 },
            ArtifactError::WrongKind { expected: 1, found: 2 },
            ArtifactError::Truncated { context: "header" },
            ArtifactError::HeaderChecksum,
            ArtifactError::SectionChecksum { id: 3 },
            ArtifactError::DuplicateSection { id: 3 },
            ArtifactError::MissingSection { id: 4 },
            ArtifactError::SectionTooLarge { id: 1, len: u64::MAX },
            ArtifactError::TrailingBytes,
            ArtifactError::malformed("trace", "block id out of range"),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
