//! Typed errors for snapshot encoding, decoding and restore.

use std::fmt;

/// Why a snapshot could not be encoded, parsed or restored.
///
/// Loaders never panic on malformed input: every structural defect —
/// truncation, checksum damage, unknown format versions, dangling
/// cross-references — surfaces as one of these variants so callers can
/// distinguish "the file is damaged" from "the file is from a different
/// configuration" and react accordingly.
#[derive(Debug)]
pub enum SnapshotError {
    /// The byte stream does not start with the snapshot magic.
    BadMagic,
    /// The container declares a format version this loader does not
    /// implement. Loaders reject unknown versions loudly instead of
    /// guessing at the layout (see CONTRIBUTING's format-version policy).
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this loader supports.
        supported: u32,
    },
    /// The stream ended before the declared structure did.
    Truncated {
        /// What was being read when the bytes ran out.
        context: &'static str,
    },
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Tag of the damaged section.
        section: [u8; 4],
    },
    /// A required section is absent from the container.
    MissingSection {
        /// Tag of the missing section.
        section: [u8; 4],
    },
    /// The sections parsed but their contents are semantically
    /// inconsistent (dangling IDs, free-list disagreements, …).
    Corrupt {
        /// Description of the first inconsistency found.
        context: String,
    },
    /// A session snapshot was written under a different configuration
    /// fingerprint than the one attempting to restore it.
    ConfigMismatch {
        /// Fingerprint of the restoring configuration.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The operation is not available in this state: a capture into a log
    /// decoded from bytes, or a restore from a log with no base.
    Unsupported {
        /// What was attempted.
        context: &'static str,
    },
}

/// Renders a section tag for error messages (ASCII tags print as text).
fn tag(t: &[u8; 4]) -> String {
    if t.iter().all(|&b| b.is_ascii_graphic() || b == b' ') {
        String::from_utf8_lossy(t).into_owned()
    } else {
        format!("{t:02x?}")
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this loader supports up to \
                 {supported})"
            ),
            SnapshotError::Truncated { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section '{}'", tag(section))
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "missing required section '{}'", tag(section))
            }
            SnapshotError::Corrupt { context } => write!(f, "corrupt snapshot: {context}"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "config fingerprint mismatch: snapshot was written under {found:#018x}, \
                 restoring config is {expected:#018x}"
            ),
            SnapshotError::Unsupported { context } => write!(f, "unsupported: {context}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SnapshotError::ChecksumMismatch { section: *b"SCNE" };
        assert!(e.to_string().contains("SCNE"));
        let e = SnapshotError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains('9'));
        let e = SnapshotError::ConfigMismatch {
            expected: 1,
            found: 2,
        };
        assert!(e.to_string().contains("fingerprint"));
    }
}
