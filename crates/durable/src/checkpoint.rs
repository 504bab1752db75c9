//! Versioned checkpoint files.
//!
//! # File format
//!
//! A checkpoint file is a single header line followed by a JSON body:
//!
//! ```text
//! JITDSMS-CHECKPOINT v1\n
//! { ...body... }
//! ```
//!
//! Invariants the format relies on:
//!
//! * The header line is exactly [`MAGIC`], one space, `v` and the decimal
//!   [`FORMAT_VERSION`], terminated by a single `\n`. Anything else is
//!   [`CheckpointError::Corrupt`]; a well-formed header with an unsupported
//!   version is [`CheckpointError::VersionMismatch`] (never silently
//!   reinterpreted).
//! * The body is one JSON value over the workspace `serde::Content` model.
//!   Its schema is owned by the layer that produced it (executor, sharded
//!   session, serving registry); this module only guarantees that what
//!   [`write_checkpoint`] wrote, [`read_checkpoint`] returns bit-for-bit as
//!   the same `Content` tree.
//! * Writes go through a temporary sibling file (`<path>.tmp`) renamed into
//!   place, so a crash mid-write leaves either the old checkpoint or none —
//!   never a torn file that parses.
//! * Checkpoint *bodies* are deterministic by construction upstream (hash
//!   maps are serialised as key-sorted pair lists), so identical state
//!   produces identical bytes — useful for tests and content-addressed
//!   storage alike.

use serde::Content;
use std::fmt;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Magic string opening every checkpoint file.
pub(crate) const MAGIC: &str = "JITDSMS-CHECKPOINT";

/// Current (and only) supported format version.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not parse as a checkpoint (bad magic, truncated
    /// header, malformed JSON body).
    Corrupt(String),
    /// The file is a checkpoint, but from an unsupported format version.
    VersionMismatch {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The checkpoint parsed but does not match what the caller is trying
    /// to restore into (wrong backend kind, shard count, operator names…).
    Mismatch(String),
    /// The body parsed as JSON but not as the expected structure.
    Serde(serde::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(detail) => write!(f, "corrupt checkpoint: {detail}"),
            CheckpointError::VersionMismatch { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads v{supported})"
            ),
            CheckpointError::Mismatch(detail) => {
                write!(f, "checkpoint does not match the restore target: {detail}")
            }
            CheckpointError::Serde(e) => write!(f, "checkpoint body malformed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde::Error> for CheckpointError {
    fn from(e: serde::Error) -> Self {
        CheckpointError::Serde(e)
    }
}

/// Size and latency of one checkpoint write, for metrics surfacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Bytes written (header + body).
    pub bytes: u64,
    /// Wall-clock milliseconds spent serialising and writing.
    pub millis: u64,
}

/// Serialise `body` and write it to `path` atomically (via a `.tmp`
/// sibling renamed into place).
pub fn write_checkpoint(
    path: impl AsRef<Path>,
    body: &Content,
) -> Result<CheckpointStats, CheckpointError> {
    let path = path.as_ref();
    #[expect(
        clippy::disallowed_methods,
        reason = "a checkpoint write records its wall-clock duration as an operational stat, never fed back into the data plane"
    )]
    let started = Instant::now();
    let mut payload = format!("{MAGIC} v{FORMAT_VERSION}\n");
    payload.push_str(&serde_json::to_string(body)?);
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(payload.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(CheckpointStats {
        bytes: payload.len() as u64,
        millis: started.elapsed().as_millis() as u64,
    })
}

/// Read a checkpoint file back, validating the header, and return the body.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<Content, CheckpointError> {
    let text = std::fs::read_to_string(path.as_ref())?;
    let Some((header, body)) = text.split_once('\n') else {
        return Err(CheckpointError::Corrupt(
            "missing header line (file truncated?)".to_string(),
        ));
    };
    let Some(version_str) = header
        .strip_prefix(MAGIC)
        .and_then(|rest| rest.strip_prefix(" v"))
    else {
        return Err(CheckpointError::Corrupt(format!(
            "bad magic: expected `{MAGIC} v<N>`, found `{}`",
            // By characters: a byte cut could split one.
            header.chars().take(40).collect::<String>()
        )));
    };
    let found: u32 = version_str
        .parse()
        .map_err(|_| CheckpointError::Corrupt(format!("unparseable version `{version_str}`")))?;
    if found != FORMAT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found,
            supported: FORMAT_VERSION,
        });
    }
    serde_json::from_str(body)
        .map_err(|e| CheckpointError::Corrupt(format!("body is not valid JSON: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("jit-durable-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_body() -> Content {
        Content::Map(vec![
            ("kind".to_string(), Content::Str("test".to_string())),
            (
                "values".to_string(),
                Content::Seq(vec![Content::U64(1), Content::U64(2)]),
            ),
        ])
    }

    #[test]
    fn write_then_read_round_trips() {
        let path = tmp_path("round_trip.ckpt");
        let body = sample_body();
        let stats = write_checkpoint(&path, &body).unwrap();
        assert!(stats.bytes > 0);
        let read = read_checkpoint(&path).unwrap();
        assert_eq!(
            serde_json::to_string(&read).unwrap(),
            serde_json::to_string(&body).unwrap()
        );
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_checkpoint(tmp_path("does-not-exist.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)), "{err}");
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let path = tmp_path("bad_magic.ckpt");
        std::fs::write(&path, "NOT-A-CHECKPOINT v1\n{}").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    /// A bad header with a multi-byte character across byte 40 once
    /// panicked on the byte slice that quoted it.
    #[test]
    fn a_bad_header_is_quoted_by_characters() {
        let path = tmp_path("bad_magic_utf8.ckpt");
        let header = format!("{}é", "x".repeat(39));
        std::fs::write(&path, format!("{header}\n{{}}")).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(err.to_string().contains(&header), "{err}");
    }

    #[test]
    fn truncated_header_is_corrupt() {
        let path = tmp_path("truncated.ckpt");
        std::fs::write(&path, "JITDSMS-CHECK").unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn future_version_is_version_mismatch() {
        let path = tmp_path("future.ckpt");
        std::fs::write(&path, format!("{MAGIC} v999\n{{}}")).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        match err {
            CheckpointError::VersionMismatch { found, supported } => {
                assert_eq!(found, 999);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other}"),
        }
    }

    #[test]
    fn corrupted_body_is_corrupt() {
        let path = tmp_path("bad_body.ckpt");
        let body = sample_body();
        write_checkpoint(&path, &body).unwrap();
        // Flip bytes in the body region.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.truncate(text.len() - 3);
        std::fs::write(&path, text).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
    }

    #[test]
    fn identical_bodies_write_identical_bytes() {
        let a = tmp_path("det_a.ckpt");
        let b = tmp_path("det_b.ckpt");
        write_checkpoint(&a, &sample_body()).unwrap();
        write_checkpoint(&b, &sample_body()).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let path = tmp_path("clean.ckpt");
        write_checkpoint(&path, &sample_body()).unwrap();
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn errors_display_informatively() {
        let io = CheckpointError::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(io.to_string().contains("I/O"));
        let mismatch = CheckpointError::Mismatch("expected 4 shards, found 2".to_string());
        assert!(mismatch.to_string().contains("4 shards"));
        let serde_err = CheckpointError::from(serde::Error::expected("object", "Engine"));
        assert!(serde_err.to_string().contains("malformed"));
    }
}
