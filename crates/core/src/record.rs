//! Durable records: the one atomic file writer, and the one framed format
//! behind `checkpoint.bbck`, `snapshot.bbsn` and `heartbeat.bbhb`.
//!
//! **Writer.** Every file this crate puts on disk — CSV exports, checkpoint
//! manifests, serve snapshots, heartbeats — goes through
//! [`write_atomic_bytes`]: a same-directory temp file, renamed over the
//! target, so a crash mid-write never leaves a torn file behind. The
//! writer also hosts the deterministic disk-full injection point
//! ([`inject_enospc_at`]) that proves each caller fails closed.
//!
//! **Format.** The three campaign files share one line-framed shape:
//!
//! ```text
//! bbck/v1                      ← format tag
//! seed 42                      ← `name value` header lines, fixed order
//! scale full
//! ...
//! unit fig1 1 812 c0ffee...    ← blob line: label, byte length, FNV-1a 64
//! <812 raw bytes>\n
//! end
//! ```
//!
//! Blobs are raw and length-prefixed, so stdout, CSV and binary state
//! round-trip exactly with no escaping. Each format differs only in its
//! tag, its header fields and which blobs it carries; see
//! [`crate::checkpoint`] and [`crate::snapshot`] for theirs.
//!
//! **Keys.** A checkpoint or snapshot is valid only for the exact campaign
//! that wrote it. Both describe their key as the same list of header
//! fields, which the writer prints and `check_key` compares, naming the
//! first mismatching field.
//!
//! **Damage.** The reader tells two kinds of damage apart. A blob that runs
//! past EOF is a *torn tail* (`Ok(None)`), the one kind a checkpoint can
//! salvage by dropping the trailing record. A blob whose bytes are all
//! present but whose terminator, length or checksum is wrong is
//! *corruption*: an `Err` that names the blob's byte offset.

use crate::error::{BbError, BbResult};
use bb_topology::fnv1a;
use std::fmt::Display;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Output-schema version of the *code*. Bump whenever any experiment's
/// stdout or CSV format changes, so checkpoints and snapshots written by
/// older builds are rejected instead of replaying stale bytes.
pub const CODE_SCHEMA: u32 = 1;

/// Process-wide count of atomic-writer invocations: every write bumps it
/// exactly once per attempt, which is what makes the disk-full injection
/// below deterministic at `--jobs 1`.
static ATOMIC_WRITES: AtomicU64 = AtomicU64::new(0);

/// The atomic write (1-based, in [`ATOMIC_WRITES`] order) that fails with
/// an injected "No space left on device"; 0 = none.
static ENOSPC_AT: AtomicU64 = AtomicU64::new(0);

/// Arm the deterministic disk-full injection: the `n`-th atomic write of
/// the process fails before anything touches the filesystem (0 disarms).
/// `repro` arms it from its `BB_REPRO_ENOSPC=<n>` test hook at startup.
pub fn inject_enospc_at(n: u64) {
    ENOSPC_AT.store(n, Ordering::SeqCst);
}

/// Write pre-rendered `bytes` into `path` via a temp file + atomic rename,
/// with the full durability ladder.
///
/// The temp file lives in the same directory as `path` (renames across
/// filesystems are not atomic), named after the target with a `.tmp`
/// suffix so concurrent writes to different files never collide.
///
/// Durability ladder: the temp file is fsynced before the rename (so the
/// new name can never point at unwritten blocks), and the containing
/// directory is fsynced after it — the rename itself lives in the
/// directory's metadata, and without that second sync a power loss right
/// after this function returns can roll the directory entry back, making
/// the file vanish even though its data blocks reached disk.
pub fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> BbResult<()> {
    write_atomic(path, bytes, true)
}

/// [`write_atomic_bytes`], with the fsync ladder optional. Without it the
/// rename still guarantees that readers on the same system see whole
/// records only; only survival across power loss is given up.
///
/// The disk-full injection fails the write *before* the first filesystem
/// touch: the prior file at `path` is untouched, no `.tmp` sibling is left
/// behind, and no rename can tear.
fn write_atomic(path: &Path, bytes: &[u8], fsync: bool) -> BbResult<()> {
    let n = ATOMIC_WRITES.fetch_add(1, Ordering::SeqCst) + 1;
    if n == ENOSPC_AT.load(Ordering::SeqCst) {
        return Err(BbError::io(
            format!("write {}", path.display()),
            std::io::Error::other("No space left on device (injected by BB_REPRO_ENOSPC)"),
        ));
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut f = std::fs::File::create(&tmp)
        .map_err(|e| BbError::io(format!("create {}", tmp.display()), e))?;
    f.write_all(bytes)
        .map_err(|e| BbError::io(format!("write {}", tmp.display()), e))?;
    if fsync {
        f.sync_all()
            .map_err(|e| BbError::io(format!("sync {}", tmp.display()), e))?;
    }
    drop(f);
    std::fs::rename(&tmp, path)
        .map_err(|e| BbError::io(format!("rename {} -> {}", tmp.display(), path.display()), e))?;
    // Persist the rename: fsync the directory holding the new entry.
    // Unix-only — opening a directory for sync is not portable, and the
    // rename's atomicity (the visible guarantee) holds regardless.
    #[cfg(unix)]
    if fsync {
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(|e| BbError::io(format!("sync dir {}", dir.display()), e))?;
        }
    }
    Ok(())
}

/// Atomically replace `dir/name` with `bytes`, creating `dir` first.
/// `fsync` as in [`write_atomic`].
pub(crate) fn save(dir: &Path, name: &str, bytes: &[u8], fsync: bool) -> BbResult<()> {
    std::fs::create_dir_all(dir)
        .map_err(|e| BbError::io(format!("create dir {}", dir.display()), e))?;
    write_atomic(&dir.join(name), bytes, fsync)
}

/// The bytes of `dir/name`. A missing file is [`BbError::Io`], so callers
/// can tell "nothing saved yet" from a damaged record.
pub(crate) fn load(dir: &Path, name: &str) -> BbResult<Vec<u8>> {
    let path = dir.join(name);
    std::fs::read(&path).map_err(|e| BbError::io(format!("read {}", path.display()), e))
}

/// One framed-record format: its tag line and how diagnostics name it.
pub(crate) struct Format {
    /// First line of every record, e.g. `bbck/v1`.
    pub tag: &'static str,
    /// The record's name in diagnostics, e.g. `checkpoint`.
    pub noun: &'static str,
    /// How a diagnosis of damage ends: what the caller refuses to do with
    /// the record (`refusing to salvage`, `refusing to resume`).
    pub refusal: &'static str,
}

/// One key field's value, as the header writer prints it and
/// [`check_key`] compares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Value<'a> {
    Int(u64),
    Text(&'a str),
    /// Written `1`/`0`.
    Flag(bool),
    /// An `f64` as its raw IEEE bits, so it round-trips exactly. Its header
    /// line is `{name}_bits {bits}`; a mismatch shows the float.
    Bits(u64),
}

impl Value<'_> {
    fn shown(self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Text(s) => s.to_string(),
            Value::Flag(b) => u8::from(b).to_string(),
            Value::Bits(b) => f64::from_bits(b).to_string(),
        }
    }
}

/// A record key as `(name, value)` header fields, in header order.
pub(crate) type Key<'a> = [(&'static str, Value<'a>)];

/// Reject a record whose key `have` differs from this run's `want`,
/// naming the first mismatching field: `code_schema` first (a different
/// output schema makes every other comparison moot), then header order.
pub(crate) fn check_key(format: &Format, have: &Key<'_>, want: &Key<'_>) -> BbResult<()> {
    let first = have
        .iter()
        .zip(want)
        .filter(|(h, w)| h != w)
        .min_by_key(|((name, _), _)| *name != "code_schema");
    match first {
        None => Ok(()),
        Some(((name, have), (_, want))) => {
            let noun = format.noun;
            Err(BbError::checkpoint(format!(
                "{name} mismatch: {noun} has {}, this run wants {} \
                 (refusing to reuse a stale {noun})",
                have.shown(),
                want.shown()
            )))
        }
    }
}

/// Builds one framed record in memory.
pub(crate) struct Writer(Vec<u8>);

impl Writer {
    /// A record starting with its format `tag` line.
    pub(crate) fn new(tag: &str) -> Self {
        let mut w = Writer(Vec::new());
        let _ = writeln!(w.0, "{tag}");
        w
    }

    /// A `name value` header line.
    pub(crate) fn field(&mut self, name: impl Display, value: impl Display) -> &mut Self {
        let _ = writeln!(self.0, "{name} {value}");
        self
    }

    /// One header line per key field, in order.
    pub(crate) fn key(&mut self, key: &Key<'_>) -> &mut Self {
        for &(name, value) in key {
            match value {
                Value::Bits(bits) => self.field(format_args!("{name}_bits"), bits),
                value => self.field(name, value.shown()),
            };
        }
        self
    }

    /// A blob line `{label} {len} {fnv64}`, then the raw bytes and a `\n`.
    pub(crate) fn blob(&mut self, label: impl Display, bytes: &[u8]) -> &mut Self {
        let _ = writeln!(self.0, "{label} {} {:016x}", bytes.len(), fnv1a(bytes));
        self.0.extend_from_slice(bytes);
        self.0.push(b'\n');
        self
    }

    /// The finished record, closed by an `end` line.
    pub(crate) fn end(mut self) -> Vec<u8> {
        self.0.extend_from_slice(b"end\n");
        self.0
    }

    /// The finished record, header lines only (no `end`).
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Split a blob line into its label and the blob's length and checksum.
pub(crate) fn blob_line(line: &str) -> BbResult<(&str, usize, u64)> {
    let mut tok = line.rsplitn(3, ' ');
    let sum = tok.next().and_then(|t| u64::from_str_radix(t, 16).ok());
    let len = tok.next().and_then(|t| t.parse().ok());
    match (tok.next(), len, sum) {
        (Some(label), Some(len), Some(sum)) => Ok((label, len, sum)),
        _ => Err(BbError::checkpoint(format!("malformed blob line {line:?}"))),
    }
}

/// Reads one framed record front to back.
pub(crate) struct Reader<'a> {
    format: &'static Format,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `bytes` as a `format` record, past its tag line. An
    /// empty input and a foreign tag are rejected here.
    pub(crate) fn open(format: &'static Format, bytes: &'a [u8]) -> BbResult<Self> {
        let Format { tag, noun, refusal } = format;
        // A zero-length record is its own diagnosis: an atomic writer never
        // produces one, so something else created the file or filesystem
        // damage zeroed it. It is not a torn write.
        if bytes.is_empty() {
            return Err(BbError::checkpoint(format!(
                "{noun} is empty (0 bytes at byte offset 0) — not a torn write; {refusal}"
            )));
        }
        let mut r = Reader {
            format,
            bytes,
            pos: 0,
        };
        let found = r.line()?;
        if found != *tag {
            return Err(BbError::checkpoint(format!(
                "unsupported format {found:?} for a {noun}, this build reads {tag}"
            )));
        }
        Ok(r)
    }

    /// Byte offset of the next unread byte.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet read.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// "truncated {noun} ({what})": the strict reading of a torn record.
    pub(crate) fn torn(&self, what: &str) -> BbError {
        BbError::checkpoint(format!("truncated {} ({what})", self.format.noun))
    }

    /// Next `\n`-terminated line as UTF-8 (without the newline).
    /// Truncation (no newline before EOF) is `Ok(None)`, so callers can
    /// tell a torn tail from corrupt data; a complete line that is not
    /// UTF-8 is an error.
    pub(crate) fn line_opt(&mut self) -> BbResult<Option<String>> {
        let rest = &self.bytes[self.pos..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        self.pos += nl + 1;
        String::from_utf8(rest[..nl].to_vec())
            .map(Some)
            .map_err(|_| BbError::checkpoint("non-UTF-8 header line"))
    }

    /// Like [`Reader::line_opt`], but truncation is an error.
    pub(crate) fn line(&mut self) -> BbResult<String> {
        let at = self.pos;
        self.line_opt()?
            .ok_or_else(|| self.torn(&format!("missing newline at byte offset {at}")))
    }

    /// Header line `{name} {value}`, value parsed.
    pub(crate) fn field<T: std::str::FromStr>(&mut self, name: &str) -> BbResult<T> {
        let line = self.line()?;
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| BbError::checkpoint(format!("malformed {name} line {line:?}")))?;
        if key != name {
            return Err(BbError::checkpoint(format!(
                "expected {name} line, got {line:?}"
            )));
        }
        value
            .parse()
            .map_err(|_| BbError::checkpoint(format!("bad {name} value")))
    }

    /// Header line `{name} 1` or `{name} 0`.
    pub(crate) fn flag(&mut self, name: &str) -> BbResult<bool> {
        match self.field::<String>(name)?.as_str() {
            "1" => Ok(true),
            "0" => Ok(false),
            other => Err(BbError::checkpoint(format!("bad {name} flag {other:?}"))),
        }
    }

    /// The `len` blob bytes announced by a [`blob_line`], checked against
    /// `sum`, plus their `\n` terminator. A blob running past EOF is a torn
    /// tail, `Ok(None)`. With the bytes present, a wrong terminator (a bad
    /// length), a length whose end offset overflows, or a checksum
    /// mismatch is corruption — no torn write produces one.
    pub(crate) fn blob(&mut self, len: usize, sum: u64, what: &str) -> BbResult<Option<&'a [u8]>> {
        let at = self.pos;
        let end = at.checked_add(len).ok_or_else(|| {
            BbError::checkpoint(format!(
                "blob length {len} for {what} overflows (byte offset {at})"
            ))
        })?;
        if end >= self.bytes.len() {
            return Ok(None);
        }
        if self.bytes[end] != b'\n' {
            return Err(BbError::checkpoint(format!(
                "blob for {what} not newline-terminated (byte offset {at}, bad length?)"
            )));
        }
        let blob = &self.bytes[at..end];
        if fnv1a(blob) != sum {
            return Err(BbError::checkpoint(format!(
                "checksum mismatch in {what} (blob at byte offset {at}, mid-file \
                 corruption — not a torn tail; {})",
                self.format.refusal
            )));
        }
        self.pos = end + 1;
        Ok(Some(blob))
    }

    /// The closing `end` line.
    pub(crate) fn end(&mut self) -> BbResult<()> {
        match self.line_opt()? {
            Some(line) if line == "end" => Ok(()),
            other => Err(BbError::checkpoint(format!(
                "expected `end`, got {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST: Format = Format {
        tag: "bbxx/v1",
        noun: "record",
        refusal: "refusing to use it",
    };

    fn sample() -> Vec<u8> {
        let key = [
            ("seed", Value::Int(42)),
            ("scale", Value::Text("test")),
            ("eps", Value::Bits(0.02f64.to_bits())),
            ("csv", Value::Flag(true)),
        ];
        let mut w = Writer::new(TEST.tag);
        w.key(&key).field("extra", 7).blob("data", b"a\nb");
        w.end()
    }

    #[test]
    fn writer_frames_header_lines_and_checksummed_blobs() {
        let text = String::from_utf8(sample()).unwrap();
        let want = format!(
            "bbxx/v1\nseed 42\nscale test\neps_bits {}\ncsv 1\nextra 7\ndata 3 {:016x}\na\nb\nend\n",
            0.02f64.to_bits(),
            fnv1a(b"a\nb")
        );
        assert_eq!(text, want);
    }

    #[test]
    fn reader_reads_back_what_the_writer_wrote() {
        let bytes = sample();
        let mut r = Reader::open(&TEST, &bytes).unwrap();
        assert_eq!(r.field::<u64>("seed").unwrap(), 42);
        assert_eq!(r.field::<String>("scale").unwrap(), "test");
        assert_eq!(r.field::<u64>("eps_bits").unwrap(), 0.02f64.to_bits());
        assert!(r.flag("csv").unwrap());
        assert_eq!(r.field::<u32>("extra").unwrap(), 7);
        let line = r.line().unwrap();
        let (label, len, sum) = blob_line(&line).unwrap();
        assert_eq!(label, "data");
        assert_eq!(r.blob(len, sum, "data").unwrap(), Some(&b"a\nb"[..]));
        r.end().unwrap();
        assert_eq!(r.remaining(), 0);
    }

    /// A reader over `bytes` positioned at the blob starting at `blob_at`.
    fn at_blob(bytes: &[u8], blob_at: usize) -> Reader<'_> {
        let mut r = Reader::open(&TEST, bytes).unwrap();
        while r.pos() < blob_at {
            r.line().unwrap();
        }
        r
    }

    #[test]
    fn blob_tells_torn_tail_from_corruption() {
        let bytes = sample();
        let blob_at = bytes.windows(3).position(|w| w == b"a\nb").unwrap();
        let sum = fnv1a(b"a\nb");
        // Cut anywhere inside the blob or before its terminator: torn.
        for cut in blob_at..blob_at + 4 {
            assert_eq!(
                at_blob(&bytes[..cut], blob_at)
                    .blob(3, sum, "data")
                    .unwrap(),
                None
            );
        }
        // Bytes present, checksum wrong: corruption, offset named.
        let err = at_blob(&bytes, blob_at)
            .blob(3, sum ^ 1, "data")
            .unwrap_err()
            .to_string();
        assert!(err.contains("checksum mismatch in data"), "{err}");
        assert!(err.contains(&format!("byte offset {blob_at}")), "{err}");
        assert!(err.contains("refusing to use it"), "{err}");
        // Wrong length: the terminator is not where it should be.
        let err = at_blob(&bytes, blob_at)
            .blob(2, sum, "data")
            .unwrap_err()
            .to_string();
        assert!(err.contains("not newline-terminated"), "{err}");
        let err = at_blob(&bytes, blob_at)
            .blob(usize::MAX, sum, "data")
            .unwrap_err()
            .to_string();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn open_rejects_empty_and_foreign_records() {
        let err = Reader::open(&TEST, b"").err().unwrap().to_string();
        assert!(
            err.contains("record is empty (0 bytes at byte offset 0)"),
            "{err}"
        );
        let err = Reader::open(&TEST, b"bbxx/v2\n").err().unwrap().to_string();
        assert!(err.contains("unsupported format \"bbxx/v2\""), "{err}");
        let err = Reader::open(&TEST, b"bbxx").err().unwrap().to_string();
        assert!(
            err.contains("truncated record (missing newline at byte offset 0)"),
            "{err}"
        );
    }

    #[test]
    fn check_key_names_code_schema_first_then_header_order() {
        let key = |seed, eps: f64, schema| {
            [
                ("seed", Value::Int(seed)),
                ("eps", Value::Bits(eps.to_bits())),
                ("code_schema", Value::Int(schema)),
            ]
        };
        check_key(&TEST, &key(1, 0.5, 1), &key(1, 0.5, 1)).unwrap();
        let err = check_key(&TEST, &key(1, 0.5, 1), &key(2, 0.25, 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            BbError::checkpoint(
                "seed mismatch: record has 1, this run wants 2 \
                 (refusing to reuse a stale record)"
            )
            .to_string()
        );
        let err = check_key(&TEST, &key(1, 0.5, 1), &key(1, 0.25, 1)).unwrap_err();
        assert!(
            err.to_string()
                .contains("eps mismatch: record has 0.5, this run wants 0.25"),
            "{err}"
        );
        let err = check_key(&TEST, &key(1, 0.5, 1), &key(2, 0.25, 2)).unwrap_err();
        assert!(err.to_string().contains("code_schema mismatch"), "{err}");
    }

    #[test]
    fn atomic_writer_replaces_whole_files_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("bb_record_test_{}", std::process::id()));
        for fsync in [true, false] {
            save(&dir, "r.bin", b"first", fsync).unwrap();
            save(&dir, "r.bin", b"second", fsync).unwrap();
            assert_eq!(load(&dir, "r.bin").unwrap(), b"second");
            assert!(!dir.join("r.bin.tmp").exists());
        }
        assert!(matches!(load(&dir, "absent"), Err(BbError::Io { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }
}
