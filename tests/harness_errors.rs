//! Harness error paths: every usage error exits 2 with a one-line
//! diagnostic on stderr and prints nothing on stdout.

use std::process::Command;

fn repro(args: &[&str], env: &[(&str, &str)]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn repro")
}

fn assert_usage_error(args: &[&str], env: &[(&str, &str)], expect_in_stderr: &str) {
    let out = repro(args, env);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} should exit 2, got {:?}",
        out.status.code()
    );
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(expect_in_stderr),
        "{args:?} stderr missing {expect_in_stderr:?}:\n{stderr}"
    );
    // One-line diagnostic: users should not get a wall of text for a typo.
    assert_eq!(
        stderr.trim_end().lines().count(),
        1,
        "{args:?} diagnostic is not one line:\n{stderr}"
    );
}

#[test]
fn bad_scale_exits_2() {
    assert_usage_error(&["fig1", "--scale", "huge"], &[], "unknown scale");
    assert_usage_error(&["fig1", "--scale"], &[], "unknown scale");
}

#[test]
fn bad_seed_exits_2() {
    assert_usage_error(
        &["fig1", "--seed", "notanumber"],
        &[],
        "--seed needs a number",
    );
    assert_usage_error(&["fig1", "--seed", "-3"], &[], "--seed needs a number");
    assert_usage_error(&["fig1", "--seed"], &[], "--seed needs a number");
}

#[test]
fn bad_jobs_exits_2() {
    assert_usage_error(&["fig1", "--jobs", "many"], &[], "--jobs needs a number");
}

#[test]
fn bad_faults_level_exits_2() {
    assert_usage_error(
        &["fig1", "--faults", "catastrophic"],
        &[],
        "unknown fault level",
    );
    assert_usage_error(&["fig1", "--faults"], &[], "unknown fault level");
}

#[test]
fn unwritable_csv_dir_exits_2() {
    // A path that nests under a regular file can never be created.
    let blocker = std::env::temp_dir().join(format!("bb_csv_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let target = blocker.join("sub");
    let out = repro(
        &["fig1", "--scale", "test", "--csv", target.to_str().unwrap()],
        &[],
    );
    std::fs::remove_file(&blocker).ok();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status.code());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--csv: cannot create"), "{stderr}");
}

#[test]
fn unknown_experiment_exits_2() {
    assert_usage_error(&["figx"], &[], "unknown experiment 'figx'");
}

#[test]
fn conflicting_checkpoint_and_resume_exits_2() {
    // Silently preferring one directory over the other loses checkpoints;
    // disagreeing flags are a usage error, not a precedence rule.
    assert_usage_error(
        &["all", "--checkpoint", "/tmp/bb_ck_a", "--resume", "/tmp/bb_ck_b"],
        &[],
        "conflicts with --resume",
    );
}

#[test]
fn audit_with_checkpoint_or_resume_exits_2() {
    assert_usage_error(
        &["audit", "--checkpoint", "/tmp/bb_ck_a"],
        &[],
        "does not support --checkpoint/--resume",
    );
    assert_usage_error(
        &["audit", "--resume", "/tmp/bb_ck_a"],
        &[],
        "does not support --checkpoint/--resume",
    );
}

#[test]
fn unknown_audit_violate_rule_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["audit", "--scale", "test"])
        .env("BB_AUDIT_VIOLATE", "no.such.rule")
        .output()
        .expect("spawn repro");
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status.code());
    assert!(out.stdout.is_empty(), "printed to stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("unknown rule \"no.such.rule\""),
        "stderr missing rule diagnostic:\n{stderr}"
    );
}

#[test]
fn subcommand_flag_errors_exit_2() {
    for cmd in ["merge", "orchestrate", "serve", "propagate"] {
        assert_usage_error(&[cmd, "--bogus"], &[], "unknown flag \"--bogus\"");
        for (flag, bad) in [("--seed", "notanumber"), ("--scale", "huge")] {
            // `merge` takes neither flag: both are unknown there.
            let expect = if cmd == "merge" { "unknown flag" } else { flag };
            assert_usage_error(&[cmd, flag, bad], &[], expect);
            assert_usage_error(&[cmd, flag], &[], expect);
        }
    }
}

#[test]
fn every_subcommand_prints_help() {
    for cmd in [
        &[][..],
        &["merge"],
        &["orchestrate"],
        &["serve"],
        &["propagate"],
    ] {
        let args: Vec<&str> = cmd.iter().copied().chain(["--help"]).collect();
        let out = repro(&args, &[]);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        let usage = ["usage: repro", cmd.first().copied().unwrap_or("")].join(" ");
        assert!(stdout.starts_with(usage.trim_end()), "{args:?}:\n{stdout}");
        assert!(stdout.contains("exit codes:"), "{args:?}:\n{stdout}");
    }
}

#[test]
fn malformed_env_hooks_exit_2_for_every_subcommand() {
    for (var, bad) in [
        ("BB_REPRO_ENOSPC", "banana"),
        ("BB_REPRO_POISON", "fig1:many"),
        ("BB_REPRO_UNIT_LIMIT", "abc"),
        ("BB_REPRO_CRASH", "zz"),
        ("BB_REPRO_STALL", "fig1:long"),
        ("BB_AUDIT_VIOLATE", "no.such.rule"),
    ] {
        // Each command would otherwise do real work (or fail later, on a
        // different error): the hook must be rejected first.
        for cmd in [
            &["fig1", "--scale", "test"][..],
            &["propagate", "--scale", "test"],
            &["merge", "/nonexistent"],
            &["serve"],
            &["orchestrate", "1"],
        ] {
            assert_usage_error(cmd, &[(var, bad)], var);
        }
    }
}
