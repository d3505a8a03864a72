//! Cross-process sharding integration tests.
//!
//! The contract under test (ISSUE 7 acceptance criteria): a campaign split
//! into shards with `--shard I/N --checkpoint DIR` and stitched back with
//! `repro merge DIR...` produces stdout and CSV exports **byte-identical**
//! to the unsharded run at the same seed/scale — for `--jobs 1` and
//! `--jobs 4` alike — shards print nothing on stdout, and mismatched or
//! incomplete shard sets are rejected with exit 2, never silently merged.
//! A single experiment run on its own is the smallest slice: it must print
//! exactly its block of the full run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bb_shard_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    let mut cmd = repro();
    cmd.args(args);
    cmd.output().expect("spawn repro")
}

fn read_csvs(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect();
    files.sort();
    files
}

#[test]
fn three_shards_merge_byte_identical_across_job_counts() {
    for jobs in ["1", "4"] {
        let base = tmpdir(&format!("merge_j{jobs}"));
        let full_csv = base.join("full-csv");
        let merged_csv = base.join("merged-csv");

        let full = run(&[
            "all", "--scale", "test", "--seed", "42", "--jobs", jobs,
            "--csv", full_csv.to_str().unwrap(),
        ]);
        assert!(full.status.success(), "unsharded run failed (jobs {jobs})");

        let mut shard_dirs: Vec<PathBuf> = Vec::new();
        for i in 0..3 {
            let dir = base.join(format!("shard{i}"));
            let shard_csv = base.join(format!("shard{i}-csv"));
            let out = run(&[
                "all", "--scale", "test", "--seed", "42", "--jobs", jobs,
                "--shard", &format!("{i}/3"),
                "--checkpoint", dir.to_str().unwrap(),
                "--csv", shard_csv.to_str().unwrap(),
            ]);
            assert!(out.status.success(), "shard {i}/3 failed (jobs {jobs})");
            assert!(
                out.stdout.is_empty(),
                "shard {i}/3 printed {} bytes on stdout; shards must stay silent",
                out.stdout.len()
            );
            shard_dirs.push(dir);
        }

        let mut args: Vec<&str> = vec!["merge"];
        let dir_strs: Vec<String> = shard_dirs
            .iter()
            .map(|d| d.to_str().unwrap().to_string())
            .collect();
        args.extend(dir_strs.iter().map(String::as_str));
        args.extend(["--csv", merged_csv.to_str().unwrap()]);
        let merged = run(&args);
        assert!(merged.status.success(), "merge failed (jobs {jobs})");

        assert_eq!(
            merged.stdout, full.stdout,
            "merged stdout differs from unsharded run (jobs {jobs})"
        );
        assert_eq!(
            read_csvs(&merged_csv),
            read_csvs(&full_csv),
            "merged CSV exports differ from unsharded run (jobs {jobs})"
        );

        let _ = std::fs::remove_dir_all(&base);
    }
}

#[test]
fn standalone_xablate_prints_its_block_of_all() {
    // xablate's default congestion arm reads the shared egress study that
    // fig1 also uses. Run alone, no fig1 has computed it first, and the
    // rows must still match the full campaign's byte for byte.
    let all = run(&["all", "--scale", "test", "--seed", "42"]);
    assert!(all.status.success(), "full run failed");
    let alone = run(&["xablate", "--scale", "test", "--seed", "42"]);
    assert!(alone.status.success(), "standalone xablate failed");
    let (all, alone) = (
        String::from_utf8(all.stdout).unwrap(),
        String::from_utf8(alone.stdout).unwrap(),
    );
    assert!(alone.starts_with("X-ABLATE:"), "{alone}");
    assert!(alone.contains("correlated (default)"), "{alone}");
    assert!(alone.ends_with("\n\n"), "{alone:?}");
    assert_eq!(all.matches(alone.as_str()).count(), 1, "{alone}\nnot a block of\n{all}");
}

#[test]
fn merge_rejects_mismatched_and_incomplete_shards() {
    let base = tmpdir("reject");

    // Two of three shards of a seed-42 campaign, one shard of a seed-43 one.
    let mut dirs: Vec<PathBuf> = Vec::new();
    for (i, seed) in [(0usize, "42"), (1, "42"), (2, "43")] {
        let dir = base.join(format!("s{i}_{seed}"));
        let out = run(&[
            "all", "--scale", "test", "--seed", seed, "--jobs", "1",
            "--shard", &format!("{i}/3"),
            "--checkpoint", dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "shard {i}/3 seed {seed} failed");
        dirs.push(dir);
    }

    // A foreign shard in the set: keys mismatch, exit 2.
    let out = run(&[
        "merge",
        dirs[0].to_str().unwrap(),
        dirs[1].to_str().unwrap(),
        dirs[2].to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "mismatched shard set must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("seed mismatch"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "a rejected merge must print nothing");

    // A coverage gap (only 2 of 3 same-campaign shards): exit 2, names the
    // missing experiments.
    let out = run(&["merge", dirs[0].to_str().unwrap(), dirs[1].to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "incomplete shard set must exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing"), "stderr: {err}");
    assert!(out.stdout.is_empty(), "a rejected merge must print nothing");

    // A missing manifest directory: exit 2.
    let out = run(&["merge", base.join("nonexistent").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "unreadable manifest must exit 2");

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn shard_without_checkpoint_is_a_usage_error() {
    let out = run(&["all", "--scale", "test", "--shard", "0/3"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--shard requires --checkpoint"), "stderr: {err}");

    for bad in ["3/3", "4/3", "x/3", "1", "1/0", "/", ""] {
        let out = run(&["all", "--scale", "test", "--shard", bad, "--checkpoint", "/tmp/x"]);
        assert_eq!(out.status.code(), Some(2), "spec {bad:?} must exit 2");
    }
}

#[test]
fn crafted_unit_file_count_exits_2_for_merge_and_resume() {
    let base = tmpdir("filecount");
    let ck = base.join("ck");
    let seeded = run(&[
        "calib", "--scale", "test", "--seed", "42",
        "--checkpoint", ck.to_str().unwrap(),
    ]);
    assert!(seeded.status.success(), "{seeded:?}");
    let manifest = ck.join("checkpoint.bbck");
    let text = String::from_utf8(std::fs::read(&manifest).unwrap()).unwrap();
    let needle = "unit calib 0 ";
    assert!(text.contains(needle), "{text}");

    // A file count no manifest could hold once asked the allocator for
    // that many entries up front: an abort (10^12) or a capacity-overflow
    // panic (u64::MAX) instead of a named error.
    for count in ["1000000000000", "18446744073709551615"] {
        std::fs::write(&manifest, text.replacen(needle, &format!("unit calib {count} "), 1))
            .unwrap();
        for args in [
            vec!["merge", ck.to_str().unwrap()],
            vec!["calib", "--scale", "test", "--seed", "42", "--resume", ck.to_str().unwrap()],
        ] {
            let out = run(&args);
            assert_eq!(out.status.code(), Some(2), "{args:?} with {count} files: {out:?}");
            assert!(out.stdout.is_empty(), "{args:?}: a rejected manifest prints nothing");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("expected `file`"), "{args:?}: {err}");
        }
    }

    let _ = std::fs::remove_dir_all(&base);
}
