//! Serve snapshot epochs: versioned `bbsn/v1` state flushes.
//!
//! `repro serve` advances measurement windows forever and must survive a
//! SIGKILL at any instant without losing or corrupting results. Every K
//! windows (one *epoch*) it serializes its entire accumulated state — the
//! [`crate::serve::ServeState`] blob — into a `snapshot.bbsn` file in the
//! serve directory, written with the same atomic temp-file + fsync +
//! rename + dir-fsync ladder as every other artifact
//! ([`crate::export::write_atomic_bytes`]). A crash mid-flush leaves the
//! previous epoch's snapshot intact; a restart resumes from it and
//! replays forward to byte-identical eventual output.
//!
//! **Keying rule.** Like checkpoint manifests, a snapshot is valid only
//! for the exact campaign that wrote it. The [`ServeKey`] pins seed,
//! scale, fault profile, the sketch ε (as raw bits — `0` means exact
//! mode), the epoch size, CSV capture, and the code schema. The epoch
//! size is in the key because the resource governor coarsens sketches at
//! epoch boundaries: resuming with a different K would re-time degraded-
//! mode transitions and change output bytes. The *window target*
//! (`--windows`) is deliberately not in the key — extending a campaign
//! past its old horizon is the whole point of a streaming daemon, and
//! windows already sampled are never re-sampled.
//!
//! **Format.** `bbsn/v1` is the same line-oriented header +
//! length-prefixed checksummed blob shape as `bbck/v1`:
//!
//! ```text
//! bbsn/v1
//! seed 42
//! scale test
//! faults heavy
//! eps_bits 4576918229304087675
//! epoch_windows 25
//! csv 1
//! code_schema 1
//! windows_done 150
//! epochs 6
//! coarsenings 0
//! state 8192 c0ffee...          ← blob length, fnv64
//! <8192 raw state bytes>\n
//! end
//! ```
//!
//! Unlike the checkpoint manifest there is **no salvage path**: a
//! snapshot is always written atomically by this code, so a torn or
//! checksum-failing snapshot means filesystem damage or foreign bytes —
//! it is rejected outright and the daemon exits rather than resume from
//! a state it cannot trust.

use crate::checkpoint::{fnv1a, Parser, CODE_SCHEMA};
use crate::error::{BbError, BbResult};
use crate::export::write_atomic_bytes;
use std::fmt::Write as _;
use std::path::Path;

/// Snapshot file name inside a serve directory.
pub const SNAPSHOT_NAME: &str = "snapshot.bbsn";

/// On-disk format version (parser compatibility).
pub const FORMAT: &str = "bbsn/v1";

/// Identity of one serve campaign: a snapshot is valid only for an exact
/// match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeKey {
    pub seed: u64,
    /// Scale label (`test`/`full`/`large`).
    pub scale: String,
    /// Fault profile label (`off`/`light`/`heavy`).
    pub faults: String,
    /// Sketch ε as raw f64 bits; `0` (the bits of `0.0`) = exact mode.
    pub eps_bits: u64,
    /// Windows per snapshot epoch (governor decisions are epoch-aligned).
    pub epoch_windows: u64,
    /// Whether the run exports live CSV.
    pub csv: bool,
    /// [`CODE_SCHEMA`] of the build that wrote the snapshot.
    pub code_schema: u32,
}

impl ServeKey {
    pub fn new(
        seed: u64,
        scale: impl Into<String>,
        faults: impl Into<String>,
        eps: f64,
        epoch_windows: u64,
        csv: bool,
    ) -> Self {
        Self {
            seed,
            scale: scale.into(),
            faults: faults.into(),
            eps_bits: eps.to_bits(),
            epoch_windows,
            csv,
            code_schema: CODE_SCHEMA,
        }
    }

    /// The sketch ε this key declares (`0.0` = exact mode).
    pub fn eps(&self) -> f64 {
        f64::from_bits(self.eps_bits)
    }
}

/// One flushed serve epoch: the key, progress counters, and the opaque
/// [`crate::serve::ServeState`] blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    pub key: ServeKey,
    /// Windows fully ingested into `state`.
    pub windows_done: u64,
    /// Epochs flushed so far (this snapshot is the `epochs`-th).
    pub epochs: u64,
    /// Cumulative governor coarsening rounds applied to `state`.
    pub coarsenings: u64,
    /// Serialized serve state ([`crate::serve::ServeState::encode`]).
    pub state: Vec<u8>,
}

impl Snapshot {
    /// Reject the snapshot unless its key matches `expect` exactly,
    /// naming the first mismatching field.
    pub fn validate(&self, expect: &ServeKey) -> BbResult<()> {
        let k = &self.key;
        let mismatch = |field: &str, have: &str, want: &str| {
            Err(BbError::checkpoint(format!(
                "snapshot {field} mismatch: snapshot has {have}, this run wants {want} \
                 (refusing to resume from a stale snapshot)"
            )))
        };
        if k.code_schema != expect.code_schema {
            return mismatch(
                "code_schema",
                &k.code_schema.to_string(),
                &expect.code_schema.to_string(),
            );
        }
        if k.seed != expect.seed {
            return mismatch("seed", &k.seed.to_string(), &expect.seed.to_string());
        }
        if k.scale != expect.scale {
            return mismatch("scale", &k.scale, &expect.scale);
        }
        if k.faults != expect.faults {
            return mismatch("faults", &k.faults, &expect.faults);
        }
        if k.eps_bits != expect.eps_bits {
            return mismatch(
                "eps",
                &format!("{}", k.eps()),
                &format!("{}", expect.eps()),
            );
        }
        if k.epoch_windows != expect.epoch_windows {
            return mismatch(
                "epoch_windows",
                &k.epoch_windows.to_string(),
                &expect.epoch_windows.to_string(),
            );
        }
        if k.csv != expect.csv {
            return mismatch(
                "csv",
                if k.csv { "1" } else { "0" },
                if expect.csv { "1" } else { "0" },
            );
        }
        Ok(())
    }

    /// Serialize to `bbsn/v1` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let k = &self.key;
        let mut head = String::new();
        let _ = writeln!(head, "{FORMAT}");
        let _ = writeln!(head, "seed {}", k.seed);
        let _ = writeln!(head, "scale {}", k.scale);
        let _ = writeln!(head, "faults {}", k.faults);
        let _ = writeln!(head, "eps_bits {}", k.eps_bits);
        let _ = writeln!(head, "epoch_windows {}", k.epoch_windows);
        let _ = writeln!(head, "csv {}", if k.csv { 1 } else { 0 });
        let _ = writeln!(head, "code_schema {}", k.code_schema);
        let _ = writeln!(head, "windows_done {}", self.windows_done);
        let _ = writeln!(head, "epochs {}", self.epochs);
        let _ = writeln!(head, "coarsenings {}", self.coarsenings);
        let _ = writeln!(head, "state {} {:016x}", self.state.len(), fnv1a(&self.state));
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.state);
        out.push(b'\n');
        out.extend_from_slice(b"end\n");
        out
    }

    /// Parse `bbsn/v1` bytes. Strict: any damage — truncation included —
    /// is an error. Snapshots are written atomically, so there is no
    /// torn-tail case worth salvaging; a bad snapshot means the daemon
    /// must not resume from it.
    pub fn decode(bytes: &[u8]) -> BbResult<Snapshot> {
        if bytes.is_empty() {
            return Err(BbError::checkpoint(
                "snapshot is empty (0 bytes at byte offset 0) — an atomic \
                 writer never produces this; refusing to resume",
            ));
        }
        let mut p = Parser { bytes, pos: 0 };
        let version = p.line()?;
        if version != FORMAT {
            return Err(BbError::checkpoint(format!(
                "unsupported snapshot format {version:?}, this build reads {FORMAT}"
            )));
        }
        let seed: u64 = p.field("seed")?;
        let scale = p.field_str("scale")?;
        let faults = p.field_str("faults")?;
        let eps_bits: u64 = p.field("eps_bits")?;
        let epoch_windows: u64 = p.field("epoch_windows")?;
        let csv = match p.field_str("csv")?.as_str() {
            "1" => true,
            "0" => false,
            other => {
                return Err(BbError::checkpoint(format!("bad csv flag {other:?}")));
            }
        };
        let code_schema: u32 = p.field("code_schema")?;
        let windows_done: u64 = p.field("windows_done")?;
        let epochs: u64 = p.field("epochs")?;
        let coarsenings: u64 = p.field("coarsenings")?;
        let state_line = p.field_str("state")?;
        let mut tok = state_line.split(' ');
        let len: usize = tok
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| BbError::checkpoint("bad state length"))?;
        let sum = tok
            .next()
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .ok_or_else(|| BbError::checkpoint("bad state checksum"))?;
        let blob_at = p.pos;
        let state = match p.blob_opt(len, "serve state")? {
            Some(blob) => blob,
            None => {
                return Err(BbError::checkpoint(format!(
                    "state blob cut at EOF (byte offset {blob_at}) — snapshots \
                     are written atomically, refusing to resume from damage"
                )));
            }
        };
        if fnv1a(state) != sum {
            return Err(BbError::checkpoint(format!(
                "checksum mismatch in serve state (blob at byte offset {blob_at}) \
                 — refusing to resume from a corrupt snapshot"
            )));
        }
        match p.line_opt()? {
            Some(l) if l == "end" => {}
            other => {
                return Err(BbError::checkpoint(format!(
                    "expected `end` after state blob, got {other:?}"
                )));
            }
        }
        Ok(Snapshot {
            key: ServeKey {
                seed,
                scale,
                faults,
                eps_bits,
                epoch_windows,
                csv,
                code_schema,
            },
            windows_done,
            epochs,
            coarsenings,
            state: state.to_vec(),
        })
    }

    /// Atomically write the snapshot into `dir`.
    pub fn save(&self, dir: &Path) -> BbResult<()> {
        std::fs::create_dir_all(dir)
            .map_err(|e| BbError::io(format!("create serve dir {}", dir.display()), e))?;
        write_atomic_bytes(&dir.join(SNAPSHOT_NAME), &self.encode())
    }

    /// Load the snapshot from `dir`. Missing file is [`BbError::Io`] (the
    /// caller treats it as a fresh start); anything else that fails is a
    /// hard reject.
    pub fn load(dir: &Path) -> BbResult<Snapshot> {
        let path = dir.join(SNAPSHOT_NAME);
        let bytes = std::fs::read(&path)
            .map_err(|e| BbError::io(format!("read {}", path.display()), e))?;
        Self::decode(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            key: ServeKey::new(42, "test", "heavy", 0.02, 25, true),
            windows_done: 150,
            epochs: 6,
            coarsenings: 2,
            // Binary-ish payload: newlines, NULs, non-UTF-8.
            state: vec![0, 10, 255, b'e', b'n', b'd', 10, 0, 7],
        }
    }

    #[test]
    fn roundtrip_exact_bytes() {
        let s = sample();
        let bytes = s.encode();
        let back = Snapshot::decode(&bytes).expect("roundtrip");
        assert_eq!(back, s);
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn exact_mode_key_has_zero_eps_bits() {
        let k = ServeKey::new(1, "test", "off", 0.0, 10, false);
        assert_eq!(k.eps_bits, 0);
        assert_eq!(k.eps(), 0.0);
    }

    #[test]
    fn validate_names_first_mismatching_field() {
        let s = sample();
        let mut want = s.key.clone();
        want.epoch_windows = 50;
        let err = s.validate(&want).unwrap_err().to_string();
        assert!(err.contains("epoch_windows mismatch"), "{err}");
        assert!(err.contains("25") && err.contains("50"), "{err}");

        let mut want = s.key.clone();
        want.eps_bits = 0.05f64.to_bits();
        let err = s.validate(&want).unwrap_err().to_string();
        assert!(err.contains("eps mismatch"), "{err}");

        s.validate(&s.key).expect("matching key validates");
    }

    #[test]
    fn truncation_is_rejected_not_salvaged() {
        let bytes = sample().encode();
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 2] {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err().to_string();
            assert!(
                err.contains("refusing to resume")
                    || err.contains("truncated")
                    || err.contains("expected `end`"),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupt_state_blob_is_rejected_with_offset() {
        let s = sample();
        let mut bytes = s.encode();
        // Flip the first byte of the state blob: it starts right after the
        // `state <len> <sum>` line.
        let needle = b"state 9 ";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("state line");
        let blob_at = at + bytes[at..].iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[blob_at] ^= 0xff;
        let err = Snapshot::decode(&bytes).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(err.contains(&format!("byte offset {blob_at}")), "{err}");
    }

    #[test]
    fn overflowing_state_length_is_an_error_not_a_panic() {
        let text = String::from_utf8_lossy(&sample().encode()).into_owned();
        let line = text.lines().find(|l| l.starts_with("state ")).unwrap();
        let sum = line.rsplit(' ').next().unwrap();
        let bad = text.replacen(line, &format!("state {} {sum}", usize::MAX), 1);
        let err = Snapshot::decode(bad.as_bytes()).unwrap_err();
        assert!(matches!(err, BbError::Checkpoint { .. }), "{err:?}");
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn save_load_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("bbsn-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = sample();
        s.save(&dir).expect("save");
        let back = Snapshot::load(&dir).expect("load");
        assert_eq!(back, s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
