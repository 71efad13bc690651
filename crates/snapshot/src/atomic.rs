//! Crash-safe file writes: temp file + fsync + atomic rename.
//!
//! A snapshot overwritten in place can be *torn* by a crash mid-write —
//! the valid old bytes gone, a half-written file in their place. The
//! rename-based commit here guarantees a reader only ever sees the old
//! complete file or the new complete file; a crash leaves at worst a
//! stale `.tmp` sibling that no loader reads.

use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Suffix of the uncommitted sibling a crash can leave behind.
pub const TMP_SUFFIX: &str = ".tmp";

/// The temp-file sibling `write_file_atomic` stages `path`'s bytes in.
#[must_use]
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// Writes `bytes` to `path` crash-safely: the data goes to a `.tmp`
/// sibling first, is fsynced, and is renamed over `path` only once fully
/// on disk. A crash at any point leaves either the previous complete file
/// or the new complete file at `path` — never a truncated hybrid.
///
/// Assumes a single writer per path (concurrent writers would race on the
/// same `.tmp` sibling), which is how the stack uses it: one replication
/// primary owns each persisted log.
///
/// # Errors
///
/// Any I/O error of the create/write/sync/rename sequence; the `.tmp`
/// sibling is removed on a failed commit.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rtgs-atomic-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn commit_leaves_no_temp_behind() {
        let dir = test_dir("commit");
        let path = dir.join("file.bin");
        write_file_atomic(&path, b"hello").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overwrite_replaces_whole_file() {
        let dir = test_dir("overwrite");
        let path = dir.join("file.bin");
        write_file_atomic(&path, b"a longer first payload").unwrap();
        write_file_atomic(&path, b"short").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"short");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A stale temp from a crashed previous writer does not affect a later
    /// commit and is replaced by it.
    #[test]
    fn stale_temp_is_overwritten_by_next_commit() {
        let dir = test_dir("stale");
        let path = dir.join("file.bin");
        std::fs::write(tmp_path(&path), b"torn garbage").unwrap();
        write_file_atomic(&path, b"committed").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"committed");
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
