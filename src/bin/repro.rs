//! `repro` — regenerate every figure and statistic of the paper.
//!
//! ```text
//! usage: repro [EXPERIMENT] [--scale S] [--seed N] [--jobs N] [--faults L]
//!        [--snapshot PATH] [--csv DIR] [--keep-going] [--checkpoint DIR]
//!        [--resume DIR] [--shard I/N] [--timing] [--timing-json PATH]
//! usage: repro merge SHARD_DIR... [--csv DIR] [--report]
//! usage: repro orchestrate N [--scale S] [--seed N] [--jobs N] [--faults L]
//!        [--dir DIR] [--csv DIR] [--chaos L] [--hang-timeout SECS]
//!        [--timing-json PATH]
//! usage: repro serve [--scale S] [--seed N] [--jobs N] [--faults L] [--dir DIR]
//!        [--csv DIR] [--chaos] [--windows N] [--epoch K] [--epsilon E]
//!        [--mem-limit BYTES] [--epoch-deadline SECS] [--timing]
//!        [--timing-json PATH]
//! usage: repro propagate [--scale S] [--seed N] [--jobs N] [--snapshot PATH]
//!        [--csv DIR] [--origins K] [--prefixes K] [--timing] [--timing-json PATH]
//!
//! EXPERIMENT: all (default), audit, or one of
//!   calib fig1 fig2 s311 fig3 fig4 fig5 goodput xonenet xpeer xgroom xsites xecs
//!   xavail xhybrid xfabric xablate xsplit
//! ```
//!
//! These synopses are the first lines of each command's `--help`, which
//! is generated from one flag table ([`FLAGS`]): every flag is parsed in
//! one place, with one diagnostic, for every subcommand that accepts it.
//!
//! `repro propagate` is the planet-tier propagation smoke: it builds the
//! selected world (a generated preset, or a real AS-relationship snapshot
//! via `--snapshot`), fully propagates routes from `--origins K` eyeball
//! ASes sharded across `--jobs` workers, samples every table for
//! valley-freeness (exit 1 on violation), reports the interned-path RIB
//! memory against the naive per-AS `Vec<AsId>` encoding, and runs a
//! bounded spray slice over the first `--prefixes K` client prefixes.
//! Stdout and `--csv` exports are byte-identical for every `--jobs` value.
//!
//! `--snapshot PATH` (main campaign and `propagate`) replaces the
//! generated topology with one built from a CAIDA-style AS-relationship
//! snapshot (`<a>|<b>|-1` provider→customer, `<a>|<b>|0` peer links);
//! provider, workload, and congestion layers are grown on top of it
//! exactly as for a generated world. An unreadable or malformed snapshot
//! is a usage error (exit 2).
//!
//! Exit codes: 0 = every selected experiment succeeded; 1 = a runtime
//! failure (an experiment errored or panicked — with `--keep-going` the
//! survivors still print — an `audit` rule violated, or an orchestrated
//! shard exhausted its restarts); 2 = usage error (bad flag value, unknown
//! experiment, conflicting flags, stale checkpoint); 130 = interrupted
//! (SIGINT/SIGTERM drain — resumable when `--checkpoint` was set; an
//! orchestrated run kills its children and is resumable the same way).
//!
//! `repro orchestrate N` is the self-healing way to run a sharded
//! campaign: it spawns the N shard runs as child processes, watches each
//! child's heartbeat file (`heartbeat.bbhb`, progress counters rewritten
//! atomically during the run), and classifies failures as crashes (nonzero
//! exit), hangs (heartbeat content stale past `--hang-timeout`), or fatal
//! usage errors (exit 2, never retried). Crashed and hung shards are
//! restarted with bounded, seed-keyed backoff; every restart resumes from
//! that shard's own checkpoint — torn manifests are salvaged to their
//! valid prefix first — so the auto-invoked merge at the end is
//! byte-identical to an unsharded run no matter how many workers died.
//! `--chaos light|heavy` turns on a deterministic process-level fault
//! injector (children crashed, stalled, and one manifest torn, all keyed
//! on the seed) so the recovery machinery can be exercised reproducibly.
//!
//! `repro serve` is the streaming (daemon) shape of the §3.1 spray
//! campaign: it advances measurement windows on the simulated clock in
//! epochs of `--epoch K` windows, and at every epoch boundary flushes its
//! entire accumulated state to a versioned `snapshot.bbsn` file (atomic
//! temp-file + fsync + rename + dir-fsync), so a SIGKILL at any instant
//! costs at most one epoch of (deterministically resampled) work and a
//! restart with the same `--dir` resumes to *byte-identical* eventual
//! output. `--epsilon ε > 0` switches from exact row retention to
//! bounded-memory mergeable quantile sketches per ⟨PoP, prefix⟩ group
//! (O(1) memory per key no matter how many windows stream through);
//! `--mem-limit BYTES` arms a resource governor that coarsens every
//! sketch one level per round — halving memory, doubling ε — whenever the
//! counter-based resident accounting crosses the limit, so the daemon
//! degrades resolution instead of growing toward an OOM kill. Snapshot
//! resume is keyed (seed, scale, faults, ε, epoch size, CSV, code
//! schema); a mismatched snapshot is rejected (exit 2), never silently
//! reused. A per-epoch watchdog (`--epoch-deadline`) counts and reports
//! overruns without ever intervening — wall-clock never shapes output
//! bytes.
//!
//! `repro audit` builds the same shared worlds and studies as the figures
//! and sweeps them through `bb-audit`'s invariant rules (valley-free
//! paths, speed-of-light RTT bounds, timeout censoring, CDF monotonicity,
//! weight conservation, coverage accounting, churn-interval shape,
//! sketch quantile-error bounds at epoch boundaries) plus
//! four metamorphic relations on `Scale::Test` slices (faults-off
//! equivalence, jobs independence, ablation directionality, shard
//! independence).
//! `BB_AUDIT_VIOLATE=<rule>` injects a corrupt item into that rule's input
//! stream so CI can prove each rule fires.
//!
//! Experiments run concurrently on up to `--jobs` workers, but stdout is
//! assembled in a fixed order from per-experiment buffers, and every
//! random draw is keyed on `(seed, item)` rather than thread schedule —
//! so output is byte-identical for every `--jobs` value, including 1.
//! Worlds and studies shared by several experiments (the Facebook spray
//! campaign feeds fig1/fig2/s311/xfabric; the Microsoft world feeds
//! fig3/fig4 and five extensions) are built once and memoized.
//!
//! Experiments run *supervised* (`bb_exec::supervisor`): a panicked or
//! failed experiment is retried up to twice with deterministic seed-keyed
//! backoff under a campaign-wide retry budget. With `--checkpoint DIR`,
//! every completed experiment is flushed to a versioned `checkpoint.bbck`
//! manifest (atomic temp-file+rename), and `--resume DIR` replays
//! completed units byte-identically instead of recomputing them. SIGINT
//! and SIGTERM trigger a graceful drain: in-flight experiments finish,
//! the checkpoint is flushed, and the run exits 130 with an
//! `=== INTERRUPTED (resumable) ===` block on stderr.
//!
//! `--shard I/N` splits the selected campaign across processes: shard I
//! runs the contiguous slice `[I·n/N, (I+1)·n/N)` of the experiment list,
//! prints nothing on stdout, and writes its units into the standard
//! checkpoint manifest (`--checkpoint` is therefore required). Every shard
//! of one campaign carries an *identical* campaign key naming the full
//! experiment list, so `repro merge DIR...` can verify the shards belong
//! together, that they cover every experiment, and that duplicated units
//! agree byte-for-byte — then it reassembles stdout (and `--csv` exports)
//! byte-identical to the unsharded run. Any mismatch is a usage error
//! (exit 2), never a silent partial merge.

use beating_bgp::bench::PerfReport;
use beating_bgp::cdn::EgressController;
use beating_bgp::core::ext::{
    availability, ecs, fabric, grooming, hybrid, peering_reduction, single_network, site_count,
    split_tcp,
};
use beating_bgp::core::checkpoint::{CampaignKey, Checkpoint, Heartbeat, UnitResult};
use beating_bgp::core::{calibration, export, record, study_anycast, study_egress, study_tiers};
use beating_bgp::core::{BbResult, Scale, Scenario, ScenarioConfig};
use beating_bgp::exec::supervisor;
use beating_bgp::exec::timing;
use beating_bgp::netsim::FaultLevel;
use beating_bgp::measure::{BeaconConfig, ProbeConfig, SprayConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Names of every experiment in `repro all`, in output order. Must match
/// the `experiments` vec in `run_campaign` (debug-asserted there);
/// `run_orchestrate` slices this list to plan shard chaos without building
/// the closures.
const EXPERIMENT_NAMES: [&str; 18] = [
    "calib", "fig1", "fig2", "s311", "fig3", "fig4", "fig5", "goodput", "xonenet", "xpeer",
    "xgroom", "xsites", "xecs", "xavail", "xhybrid", "xfabric", "xablate", "xsplit",
];

/// The five entry points. Each is one bit, so a flag row names the set of
/// subcommands that accept it.
#[derive(Clone, Copy, PartialEq, Default)]
enum Cmd {
    /// `repro [EXPERIMENT]`: the supervised experiment campaign.
    #[default]
    Run = 1,
    Merge = 2,
    Orchestrate = 4,
    Serve = 8,
    Propagate = 16,
}

/// One subcommand's help: how it is invoked and what it does.
struct CmdSpec {
    cmd: Cmd,
    name: &'static str,
    /// Positional arguments in the synopsis.
    args: &'static str,
    about: &'static str,
    exits: &'static str,
}

/// The first entry is the default command, named by no subcommand word.
const CMDS: [CmdSpec; 5] = [
    CmdSpec {
        cmd: Cmd::Run,
        name: "",
        args: "[EXPERIMENT]",
        about: "regenerate the paper's figures and statistics; experiments run \
                concurrently and print in a fixed order, byte-identical for every --jobs",
        exits: "0 ok, 1 runtime failure, 2 usage error, 130 interrupted (resumable)",
    },
    CmdSpec {
        cmd: Cmd::Merge,
        name: "merge",
        args: "SHARD_DIR...",
        about: "validate the shard checkpoints written by `repro --shard I/N --checkpoint` \
                and print the campaign stdout, byte-identical to the unsharded run",
        exits: "0 ok, 2 shards invalid/incomplete/mismatched",
    },
    CmdSpec {
        cmd: Cmd::Orchestrate,
        name: "orchestrate",
        args: "N",
        about: "spawn N shard processes (repro all --shard I/N), restart crashed or hung \
                ones from their checkpoints (torn manifests are salvaged), then merge",
        exits: "0 ok, 1 shard failed permanently (checkpoints kept), 2 usage error, \
                130 interrupted (children killed, resumable)",
    },
    CmdSpec {
        cmd: Cmd::Serve,
        name: "serve",
        args: "",
        about: "streaming daemon: advance the spray campaign in epochs, snapshot state \
                atomically every epoch, resume after SIGKILL byte-identically",
        exits: "0 ok, 1 runtime failure, 2 usage error or stale snapshot, \
                130 interrupted (resumable)",
    },
    CmdSpec {
        cmd: Cmd::Propagate,
        name: "propagate",
        args: "",
        about: "planet-tier propagation smoke: propagate full tables from K eyeball \
                origins across --jobs workers, check valley-freeness, report interned vs \
                naive RIB bytes, spray the first K client prefixes",
        exits: "0 ok, 1 propagation invariant violated, 2 usage error",
    },
];

/// Every option of every subcommand, preset to its default; the flag
/// table's setters fill in what the command line names.
#[derive(Default)]
struct Opts {
    cmd: Cmd,
    /// The experiment (run), shard directories (merge), shard count
    /// (orchestrate).
    positional: Vec<String>,
    scale: Scale,
    seed: u64,
    /// Worker count for parallel sections; 0 = available cores.
    jobs: usize,
    faults: FaultLevel,
    csv_dir: Option<PathBuf>,
    timing: bool,
    timing_json: Option<PathBuf>,
    keep_going: bool,
    snapshot: Option<String>,
    checkpoint: Option<PathBuf>,
    resume: Option<PathBuf>,
    /// `(index, count)` from `--shard I/N`.
    shard: Option<(usize, usize)>,
    report: bool,
    dir: Option<PathBuf>,
    /// Orchestrate's chaos level; serve's `--chaos` switch sets `Light`.
    chaos: FaultLevel,
    hang_timeout: f64,
    windows: Option<u64>,
    epoch: u64,
    epsilon: f64,
    mem_limit: Option<u64>,
    epoch_deadline: f64,
    origins: usize,
    prefixes: usize,
}

/// One command-line flag: its spelling, value placeholder (`None` for a
/// switch), the subcommands that accept it, its help line, and the setter
/// that validates the value into [`Opts`]. A setter's `Err` is the flag's
/// one-line diagnostic.
struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    cmds: u8,
    help: &'static str,
    set: fn(&mut Opts, &str) -> Result<(), String>,
}

/// Store a validated value: the shape every [`Flag`] setter shares.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// `v` as a number accepted by `ok`, else the diagnostic `need`.
fn num<T: std::str::FromStr>(v: &str, ok: fn(&T) -> bool, need: &str) -> Result<T, String> {
    v.parse().ok().filter(ok).ok_or_else(|| need.to_string())
}

/// `v` as a path, else the diagnostic `need` (a missing value is empty).
fn path<P: for<'a> From<&'a str>>(v: &str, need: &str) -> Result<Option<P>, String> {
    match v {
        "" => Err(need.to_string()),
        v => Ok(Some(P::from(v))),
    }
}

/// `v` through `T`'s `FromStr` (a scale or fault level), the error
/// prefixed with the flag.
fn named<T: std::str::FromStr<Err = String>>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

const RUN: u8 = Cmd::Run as u8;
const MERGE: u8 = Cmd::Merge as u8;
const ORCH: u8 = Cmd::Orchestrate as u8;
const SERVE: u8 = Cmd::Serve as u8;
const PROP: u8 = Cmd::Propagate as u8;
/// The subcommands that build a world.
const WORLD: u8 = RUN | ORCH | SERVE | PROP;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--scale", value: Some("S"), cmds: WORLD,
        help: "world size: test | full (default) | large | planet",
        set: |o, v| put(&mut o.scale, named(v, "--scale")) },
    Flag { name: "--seed", value: Some("N"), cmds: WORLD,
        help: "seed of every random draw (default 42)",
        set: |o, v| put(&mut o.seed, num(v, |_| true, "--seed needs a number")) },
    Flag { name: "--jobs", value: Some("N"), cmds: WORLD,
        help: "worker threads (default: available cores); output is byte-identical for every N",
        set: |o, v| put(&mut o.jobs, num(v, |_| true, "--jobs needs a number")) },
    Flag { name: "--faults", value: Some("L"), cmds: RUN | ORCH | SERVE,
        help: "measurement faults (probe loss, timeouts, route churn): off (default) | light | \
               heavy; off is byte-identical to a build without the fault plane",
        set: |o, v| put(&mut o.faults, named(v, "--faults")) },
    Flag { name: "--snapshot", value: Some("PATH"), cmds: RUN | PROP,
        help: "build the worlds from a CAIDA-style AS-relationship snapshot (a|b|-1 \
               provider-customer, a|b|0 peer) instead of the generated topology",
        set: |o, v| put(&mut o.snapshot, path(v, "--snapshot needs a file path")) },
    Flag { name: "--dir", value: Some("DIR"), cmds: ORCH | SERVE,
        help: "state directory: orchestrate keeps the shard checkpoints here (default: a temp \
               dir keyed on seed and scale); serve keeps its snapshot here (required)",
        set: |o, v| put(&mut o.dir, path(v, "--dir needs a directory")) },
    Flag { name: "--csv", value: Some("DIR"), cmds: WORLD | MERGE,
        help: "also write the figure data as CSV files into DIR",
        set: |o, v| {
            let dir: Option<PathBuf> = path(v, "--csv needs a directory")?;
            if let Some(d) = &dir {
                std::fs::create_dir_all(d)
                    .map_err(|e| format!("--csv: cannot create {}: {e}", d.display()))?;
            }
            put(&mut o.csv_dir, Ok(dir))
        } },
    Flag { name: "--keep-going", value: None, cmds: RUN,
        help: "on experiment failure or panic, print a diagnostic and continue; survivors \
               print, exit code 1",
        set: |o, _| put(&mut o.keep_going, Ok(true)) },
    Flag { name: "--checkpoint", value: Some("DIR"), cmds: RUN,
        help: "flush a resumable checkpoint manifest after each completed experiment; \
               SIGINT/SIGTERM drain gracefully",
        set: |o, v| put(&mut o.checkpoint, path(v, "--checkpoint needs a directory")) },
    Flag { name: "--resume", value: Some("DIR"), cmds: RUN,
        help: "replay completed experiments from DIR's checkpoint (a stale one exits 2), \
               run the rest",
        set: |o, v| put(&mut o.resume, path(v, "--resume needs a directory")) },
    Flag { name: "--shard", value: Some("I/N"), cmds: RUN,
        help: "run slice I of N of the selected experiments into the checkpoint (no \
               stdout); `repro merge` stitches the shards",
        set: |o, v| match v.split_once('/').map(|(i, n)| (i.parse(), n.parse())) {
            Some((Ok(i), Ok(n))) if i < n => put(&mut o.shard, Ok(Some((i, n)))),
            _ => Err(format!("--shard: bad spec {v:?}; need I/N with 0 <= I < N")),
        } },
    Flag { name: "--report", value: None, cmds: MERGE,
        help: "print a per-shard diagnosis (salvaged/corrupt manifests, missing experiments, \
               key mismatches) before any failure exit",
        set: |o, _| put(&mut o.report, Ok(true)) },
    Flag { name: "--chaos", value: Some("L"), cmds: ORCH,
        help: "seed-keyed process faults: off (default) | light = one shard crashes | heavy = \
               one stalls, the rest crash, one manifest is torn",
        set: |o, v| put(&mut o.chaos, named(v, "--chaos")) },
    Flag { name: "--chaos", value: None, cmds: SERVE,
        help: "crash (exit 101) after a seed-keyed epoch's snapshot lands; fresh runs only",
        set: |o, _| put(&mut o.chaos, Ok(FaultLevel::Light)) },
    Flag { name: "--hang-timeout", value: Some("SECS"), cmds: ORCH,
        help: "restart a shard whose heartbeat has not changed for SECS (default 30)",
        set: |o, v| put(&mut o.hang_timeout,
            num(v, |s| s.is_finite() && *s >= 0.0, "--hang-timeout needs seconds >= 0")) },
    Flag { name: "--windows", value: Some("N"), cmds: SERVE,
        help: "stop after N measurement windows (default: the batch campaign's horizon)",
        set: |o, v| put(&mut o.windows, num(v, |_| true, "--windows needs a number").map(Some)) },
    Flag { name: "--epoch", value: Some("K"), cmds: SERVE,
        help: "windows per epoch; state is snapshotted at every epoch boundary (default 32)",
        set: |o, v| put(&mut o.epoch, num(v, |&k| k >= 1, "--epoch needs a window count >= 1")) },
    Flag { name: "--epsilon", value: Some("E"), cmds: SERVE,
        help: "0 (default) keeps every row; E > 0 folds rows into bounded-memory quantile \
               sketches",
        set: |o, v| put(&mut o.epsilon,
            num(v, |e| (0.0..1.0).contains(e), "--epsilon needs a value in [0, 1)")) },
    Flag { name: "--mem-limit", value: Some("BYTES"), cmds: SERVE,
        help: "coarsen the sketches (halve memory, double E) whenever resident state exceeds \
               BYTES; needs --epsilon E > 0",
        set: |o, v| put(&mut o.mem_limit,
            num(v, |&b| b > 0, "--mem-limit needs a byte count > 0").map(Some)) },
    Flag { name: "--epoch-deadline", value: Some("SECS"), cmds: SERVE,
        help: "count epochs slower than SECS (default 60); never changes the output",
        set: |o, v| put(&mut o.epoch_deadline,
            num(v, |s| s.is_finite() && *s > 0.0, "--epoch-deadline needs seconds > 0")) },
    Flag { name: "--origins", value: Some("K"), cmds: PROP,
        help: "eyeball ASes to propagate full tables from (default 16)",
        set: |o, v| put(&mut o.origins, num(v, |&n| n >= 1, "--origins needs a count >= 1")) },
    Flag { name: "--prefixes", value: Some("K"), cmds: PROP,
        help: "client prefixes in the spray slice (default 64)",
        set: |o, v| put(&mut o.prefixes, num(v, |&n| n >= 1, "--prefixes needs a count >= 1")) },
    Flag { name: "--timing", value: None, cmds: RUN | SERVE | PROP,
        help: "per-phase wall-clock, sample counters and cache stats on stderr",
        set: |o, _| put(&mut o.timing, Ok(true)) },
    Flag { name: "--timing-json", value: Some("PATH"), cmds: WORLD,
        help: "write the structured perf report (phases, counters, caches, samples/s) as JSON",
        set: |o, v| put(&mut o.timing_json, path(v, "--timing-json needs a file path")) },
];

/// Print a usage diagnostic for `cmd` — one line, nothing on stdout — and
/// exit 2, the CLI's usage-error contract.
fn usage(cmd: Cmd, msg: &str) -> ! {
    exit_with(cmd, msg, 2)
}

/// Print a runtime-failure diagnostic for `cmd` and exit 1.
fn fail(cmd: Cmd, msg: &str) -> ! {
    exit_with(cmd, msg, 1)
}

/// A durable write failed. The atomic writers never tear, so the last
/// complete state in `dir` is intact: say so, say how to resume, exit 1.
fn fail_closed(cmd: Cmd, what: &str, e: &dyn std::fmt::Display, dir: &std::path::Path) -> ! {
    let how = match cmd {
        Cmd::Run => "rerun with --resume",
        _ => "rerun the same command to resume",
    };
    let dir = dir.display();
    fail(
        cmd,
        &format!("{what} failed: {e}; the state in {dir} is intact — {how} after freeing space"),
    )
}

/// The drain report on stderr — `title` framing one indented line per
/// entry — then exit 130.
fn interrupted(title: &str, lines: &[String]) -> ! {
    eprintln!("=== {title} ===");
    for line in lines {
        eprintln!("  {line}");
    }
    eprintln!("=== END INTERRUPTED ===");
    std::process::exit(130);
}

fn exit_with(cmd: Cmd, msg: &str, code: i32) -> ! {
    match CMDS.iter().find(|c| c.cmd == cmd).map(|c| c.name) {
        Some("") | None => eprintln!("repro: {msg}"),
        Some(name) => eprintln!("repro {name}: {msg}"),
    }
    std::process::exit(code);
}

/// The one argv parse: pick the subcommand, then feed every flag through
/// its [`FLAGS`] row. A value-taking flag consumes the next argument (a
/// missing one reaches the setter as ""), so each flag has exactly one
/// diagnostic.
fn parse_args(argv: &[String]) -> Opts {
    let spec = match argv.first() {
        Some(a) => CMDS[1..].iter().find(|c| c.name == a).unwrap_or(&CMDS[0]),
        None => &CMDS[0],
    };
    let mut o = Opts {
        cmd: spec.cmd,
        seed: 42,
        hang_timeout: 30.0,
        epoch: 32,
        epoch_deadline: 60.0,
        origins: 16,
        prefixes: 64,
        ..Default::default()
    };
    let mut args = argv[usize::from(spec.cmd != Cmd::Run)..].iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            print!("{}", help(spec));
            std::process::exit(0);
        }
        if !arg.starts_with("--") {
            if spec.args.is_empty() {
                usage(spec.cmd, &format!("unexpected argument {arg:?}"));
            }
            o.positional.push(arg.clone());
            continue;
        }
        let flag = FLAGS
            .iter()
            .find(|f| f.name == arg && f.cmds & spec.cmd as u8 != 0)
            .unwrap_or_else(|| usage(spec.cmd, &format!("unknown flag {arg:?}")));
        let value = match flag.value {
            Some(_) => args.next().map_or("", String::as_str),
            None => "",
        };
        if let Err(msg) = (flag.set)(&mut o, value) {
            usage(spec.cmd, &msg);
        }
    }
    o
}

/// `--help` for one subcommand, generated from [`CMDS`] and [`FLAGS`].
fn help(spec: &CmdSpec) -> String {
    let flags: Vec<(String, &str)> = FLAGS
        .iter()
        .filter(|f| f.cmds & spec.cmd as u8 != 0)
        .map(|f| match f.value {
            Some(v) => (format!("{} {v}", f.name), f.help),
            None => (f.name.to_string(), f.help),
        })
        .collect();
    // Wrap the synopsis between words, never inside a `[--flag VALUE]`.
    let words = ["repro", spec.name, spec.args]
        .into_iter()
        .filter(|w| !w.is_empty());
    let brackets: Vec<String> = flags.iter().map(|(f, _)| format!("[{f}]")).collect();
    let synopsis = wrap(words.chain(brackets.iter().map(String::as_str)), 7);
    let mut out = format!(
        "usage: {synopsis}\n{}\n\n",
        wrap(spec.about.split_whitespace(), 0)
    );
    let width = flags.iter().map(|(f, _)| f.len()).max().unwrap_or(0) + 2;
    for (flag, text) in &flags {
        let _ = writeln!(
            out,
            "  {flag:width$}{}",
            wrap(text.split_whitespace(), width + 2)
        );
    }
    if spec.cmd == Cmd::Run {
        let _ = writeln!(
            out,
            "\nEXPERIMENT: all (default), audit, or one of\n  {}",
            wrap(EXPERIMENT_NAMES, 2)
        );
        let _ = writeln!(out, "\ncommands (`repro COMMAND --help` for each):");
        for c in &CMDS[1..] {
            let _ = writeln!(
                out,
                "  {:13}{}",
                c.name,
                wrap(c.about.split_whitespace(), 15)
            );
        }
    }
    let _ = writeln!(
        out,
        "\nexit codes: {}",
        wrap(spec.exits.split_whitespace(), 12)
    );
    out
}

/// Greedy word wrap at 80 columns for text starting at column `indent`;
/// continuation lines are indented to `indent`.
fn wrap<'a>(words: impl IntoIterator<Item = &'a str>, indent: usize) -> String {
    let mut out = String::new();
    let mut col = indent;
    for word in words {
        if col > indent && col + 1 + word.len() > 80 {
            let _ = write!(out, "\n{:indent$}", "");
            col = indent;
        } else if col > indent {
            out.push(' ');
            col += 1;
        }
        out.push_str(word);
        col += word.len();
    }
    out
}

/// Test and chaos hooks read from the environment. Every subcommand
/// validates all of them at startup, so a malformed value is a usage
/// error (exit 2) even when the hook would never fire.
#[derive(Default)]
struct Hooks {
    /// `BB_REPRO_POISON=<name>[:k]`: panic `name`'s first k attempts
    /// (every attempt without `:k`).
    poison: Option<(String, u32)>,
    /// `BB_REPRO_UNIT_LIMIT=<n>`: cancel the campaign after n finalized
    /// experiments — a deterministic stand-in for SIGTERM.
    unit_limit: Option<usize>,
    /// `BB_REPRO_CRASH=<n>`: exit 101 right after the n-th experiment is
    /// finalized and flushed — a deterministic worker crash.
    crash: Option<usize>,
    /// `BB_REPRO_STALL=<name>[:secs]`: sleep (default 30 s) before `name`,
    /// first attempt only — a deterministic hang.
    stall: Option<(String, f64)>,
    /// `BB_AUDIT_VIOLATE=<rule>`: corrupt one input of that audit rule.
    audit_violate: Option<String>,
}

/// `NAME[:N]` with a number after the colon, else the diagnostic `what`.
fn name_count<T: std::str::FromStr>(
    spec: &str,
    default: T,
    what: &str,
) -> Result<(String, T), String> {
    match spec.split_once(':') {
        None => Ok((spec.to_string(), default)),
        Some((name, n)) => match n.parse() {
            Ok(n) => Ok((name.to_string(), n)),
            Err(_) => Err(format!("bad {what} in {spec:?}")),
        },
    }
}

type HookParser = fn(&mut Hooks, &str) -> Result<(), String>;

/// Every env hook with its parser. `BB_REPRO_ENOSPC=<n>` arms `bb-core`'s
/// atomic-writer injection (the n-th write fails). `repro orchestrate`
/// scrubs all of them from its children's environment.
const HOOKS: [(&str, HookParser); 6] = [
    ("BB_REPRO_ENOSPC", |_, v| {
        num(v, |_| true, &format!("bad write count {v:?}")).map(record::inject_enospc_at)
    }),
    ("BB_REPRO_POISON", |h, v| {
        put(
            &mut h.poison,
            name_count(v, u32::MAX, "attempt count").map(Some),
        )
    }),
    ("BB_REPRO_UNIT_LIMIT", |h, v| {
        put(
            &mut h.unit_limit,
            num(v, |_| true, &format!("bad unit count {v:?}")).map(Some),
        )
    }),
    ("BB_REPRO_CRASH", |h, v| {
        put(
            &mut h.crash,
            num(v, |_| true, &format!("bad unit count {v:?}")).map(Some),
        )
    }),
    ("BB_REPRO_STALL", |h, v| {
        put(&mut h.stall, name_count(v, 30.0, "seconds").map(Some))
    }),
    ("BB_AUDIT_VIOLATE", |h, v| {
        let rules = beating_bgp::audit::RULE_NAMES;
        if !rules.contains(&v) {
            return Err(format!("unknown rule {v:?}; rules: {}", rules.join(" ")));
        }
        put(&mut h.audit_violate, Ok(Some(v.to_string())))
    }),
];

/// Parse every hook set in the environment; a malformed one exits 2.
fn read_hooks() -> Hooks {
    let mut hooks = Hooks::default();
    for (var, set) in HOOKS {
        if let Ok(value) = std::env::var(var) {
            if let Err(msg) = set(&mut hooks, &value) {
                eprintln!("{var}: {msg}");
                std::process::exit(2);
            }
        }
    }
    hooks
}

/// Write the `--timing-json` perf report, if one was asked for. Phases,
/// counters, the route cache, fault tallies and congestion races come from
/// the process-wide registry; `section` adds the subcommand's own part
/// (supervision, orchestration or serve).
fn write_timing_json(
    o: &Opts,
    experiment: &str,
    wall_s: f64,
    section: impl FnOnce(&mut PerfReport),
) {
    use beating_bgp::bench::{CounterSample, FaultStats, PhaseTiming, RouteCacheStats};
    let Some(path) = &o.timing_json else { return };
    let counters = timing::counters();
    let count = |label: &str| {
        counters
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |&(_, c)| c)
    };
    let (hits, misses, resident) = beating_bgp::exec::cache_stats();
    let mut report = PerfReport {
        experiment: experiment.to_string(),
        scale: o.scale.as_str().to_string(),
        seed: o.seed,
        jobs: beating_bgp::exec::jobs(),
        wall_s,
        phases: timing::snapshot()
            .into_iter()
            .map(|(label, total_s, calls)| PhaseTiming {
                label,
                total_s,
                calls,
            })
            .collect(),
        counters: counters
            .iter()
            .map(|(label, count)| CounterSample {
                label: label.clone(),
                count: *count,
            })
            .collect(),
        total_samples: 0,
        samples_per_sec: 0.0,
        plan_compile_s: 0.0,
        plan_query_s: 0.0,
        route_cache: RouteCacheStats {
            hits: hits as u64,
            misses: misses as u64,
            resident: resident as u64,
        },
        route_cache_by_experiment: Vec::new(),
        faults: FaultStats {
            samples_lost: count("faults:samples_lost"),
            timeouts: count("faults:timeouts"),
            retries: count("faults:retries"),
            windows_dropped: count("faults:windows_dropped"),
            panics_isolated: beating_bgp::exec::panics_isolated() as u64,
        },
        supervision: Default::default(),
        orchestration: None,
        serve: None,
        rib: None,
        congestion_races_closed: beating_bgp::netsim::materialize_races_closed() as u64,
    }
    .finalize();
    section(&mut report);
    if let Err(e) = std::fs::write(path, report.to_json()) {
        fail(
            o.cmd,
            &format!("--timing-json: cannot write {}: {e}", path.display()),
        );
    }
}

/// Set by the SIGINT/SIGTERM handlers; the supervisor's cancel hook reads
/// it before claiming each experiment, turning a kill into a graceful
/// drain: in-flight experiments finish, nothing new starts.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_signal_drain() {
    extern "C" fn on_signal(_sig: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }
    // `signal(2)` via the libc std already links — no new dependency. The
    // handler only stores to an AtomicBool (async-signal-safe).
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_drain() {}

/// Build a scenario, mapping usage-class failures (an unreadable or
/// malformed `--snapshot` file) to exit 2 per the CLI contract and any
/// other build failure to exit 1.
fn build_world_or_exit(cfg: ScenarioConfig) -> Scenario {
    match Scenario::try_build(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            let code = match e {
                beating_bgp::core::BbError::Usage { .. } => 2,
                _ => 1,
            };
            std::process::exit(code);
        }
    }
}

/// A study shared by several experiments, computed on first use. Every
/// caller sees the same value — or the same error.
fn shared<T>(cell: &OnceLock<BbResult<T>>, init: impl FnOnce() -> BbResult<T>) -> BbResult<&T> {
    cell.get_or_init(init).as_ref().map_err(Clone::clone)
}

fn spray_cfg(scale: Scale) -> SprayConfig {
    match scale {
        Scale::Test => SprayConfig {
            days: 1.0,
            window_stride: 8,
            ..Default::default()
        },
        Scale::Full => SprayConfig::default(),
        // Keep the Large run's row count comparable by sampling windows
        // more sparsely over the same ten days.
        Scale::Large => SprayConfig {
            window_stride: 8,
            ..Default::default()
        },
        // The planet world is ~10x Large in ASes; spray a single day with
        // a coarse stride so the campaign stays CI-sized while every
        // window still exercises the full interned-RIB path.
        Scale::Planet => SprayConfig {
            days: 1.0,
            window_stride: 16,
            sessions_per_window: 5,
            ..Default::default()
        },
    }
}

/// `repro merge SHARD_DIR... [--csv DIR] [--report]`: stitch shard
/// checkpoints into the campaign's stdout, byte-identical to the unsharded
/// run. Every validation failure — unreadable manifest, mismatched
/// campaign keys, coverage gaps, conflicting duplicate units, schema
/// drift — is a usage error (exit 2); a partial merge is never printed.
/// With `--report`, a per-shard diagnosis (salvaged/unreadable manifests,
/// key mismatches, which experiments are missing) is printed to stderr
/// before any exit-2, instead of only the first error encountered.
fn run_merge(o: &Opts) -> ! {
    let dirs: Vec<PathBuf> = o.positional.iter().map(PathBuf::from).collect();
    if dirs.is_empty() {
        usage(Cmd::Merge, "no shard directories given");
    }
    let shards = if o.report {
        merge_report(&dirs)
    } else {
        load_shards(Cmd::Merge, &dirs)
    };
    finish_merge(Cmd::Merge, &dirs, shards, o.csv_dir.as_deref())
}

/// Strict-load every shard manifest; any unreadable one is a usage error.
fn load_shards(cmd: Cmd, dirs: &[PathBuf]) -> Vec<Checkpoint> {
    let load = |d: &PathBuf| {
        Checkpoint::load(d).unwrap_or_else(|e| usage(cmd, &format!("{}: {e}", d.display())))
    };
    dirs.iter().map(load).collect()
}

/// The `--report` loading path: examine every shard directory with the
/// salvaging parser, print a per-shard diagnosis to stderr (load status,
/// units present, key mismatches, campaign-level coverage gaps), then
/// either return the usable manifests or exit 2 if any was unreadable.
/// Salvaged manifests proceed with their valid prefix — when the other
/// shards overlap the dropped units, the merge still completes.
fn merge_report(dirs: &[PathBuf]) -> Vec<Checkpoint> {
    use beating_bgp::core::checkpoint::Salvage;
    let loads: Vec<Result<(Checkpoint, Option<Salvage>), String>> = dirs
        .iter()
        .map(|d| Checkpoint::load_salvaging(d).map_err(|e| e.to_string()))
        .collect();
    eprintln!("[repro] merge report ({} shard dir(s)):", dirs.len());
    for (d, load) in dirs.iter().zip(&loads) {
        match load {
            Ok((ck, None)) => {
                let names: Vec<&str> = ck.units.keys().map(String::as_str).collect();
                eprintln!(
                    "  {}: ok — {} unit(s): {}",
                    d.display(),
                    ck.units.len(),
                    if names.is_empty() { "(none)".to_string() } else { names.join(",") }
                );
            }
            Ok((ck, Some(s))) => {
                eprintln!(
                    "  {}: SALVAGED — {s}; {} unit(s) usable",
                    d.display(),
                    ck.units.len()
                );
            }
            Err(e) => eprintln!("  {}: UNREADABLE — {e}", d.display()),
        }
    }
    // Campaign-level view against the first readable key: which
    // experiments no shard provides, and which shards disagree on the key.
    if let Some((first, _)) = loads.iter().flatten().next() {
        for (d, load) in dirs.iter().zip(&loads) {
            if let Ok((ck, _)) = load {
                if let Err(e) = ck.validate(&first.key) {
                    eprintln!("  {}: key mismatch — {e}", d.display());
                }
            }
        }
        let missing: Vec<&str> = first
            .key
            .experiments
            .split(',')
            .filter(|e| {
                !e.is_empty()
                    && !loads
                        .iter()
                        .flatten()
                        .any(|(ck, _)| ck.units.contains_key(*e))
            })
            .collect();
        if missing.is_empty() {
            eprintln!("  campaign: all {} experiments covered", first.key.experiments.split(',').count());
        } else {
            eprintln!("  campaign: missing {}", missing.join(","));
        }
    }
    let unreadable = loads.iter().filter(|l| l.is_err()).count();
    if unreadable > 0 {
        usage(
            Cmd::Merge,
            &format!("{unreadable} shard manifest(s) unreadable"),
        );
    }
    loads.into_iter().map(|l| l.unwrap().0).collect()
}

/// Validate and merge loaded shard manifests, emit the campaign stdout
/// (and captured CSVs), and exit. Shared by `repro merge` and the
/// auto-merge at the end of `repro orchestrate`. Merge failures exit 2.
fn finish_merge(
    cmd: Cmd,
    dirs: &[PathBuf],
    shards: Vec<Checkpoint>,
    csv_dir: Option<&std::path::Path>,
) -> ! {
    use beating_bgp::core::checkpoint;
    // `merge_shards` checks the shards against *each other*; the binary's
    // own schema must match too, or the stitched bytes would claim to be
    // this build's output.
    let schema = shards[0].key.code_schema;
    if schema != checkpoint::CODE_SCHEMA {
        let ours = checkpoint::CODE_SCHEMA;
        usage(
            cmd,
            &format!("manifest code_schema {schema} does not match this binary ({ours})"),
        );
    }
    let merged = checkpoint::merge_shards(&shards).unwrap_or_else(|e| usage(cmd, &e.to_string()));
    // Coverage is guaranteed by merge_shards, so assembling in the key's
    // experiment order reproduces the unsharded stdout exactly.
    let mut stdout = String::new();
    for name in merged.key.experiments.split(',') {
        let unit = merged
            .units
            .get(name)
            .expect("merge_shards verified coverage of every experiment");
        stdout.push_str(&unit.stdout);
        if let Some(dir) = &csv_dir {
            for (fname, bytes) in &unit.files {
                if let Err(e) = export::write_atomic_bytes(&dir.join(fname), bytes) {
                    fail(cmd, &format!("writing {fname}: {e}"));
                }
            }
        }
    }
    eprintln!(
        "[repro] merged {} shard manifest(s): {} experiments, seed {}, scale {}, faults {}",
        dirs.len(),
        merged.units.len(),
        merged.key.seed,
        merged.key.scale,
        merged.key.faults
    );
    print!("{stdout}");
    std::process::exit(0);
}

/// `repro orchestrate N`: the self-healing way to run a sharded campaign.
///
/// Spawns one `repro all --shard I/N --checkpoint` child per shard, watches
/// heartbeats, restarts crashed/hung children from their own checkpoints
/// (salvaging torn manifests first), then auto-merges — stdout is
/// byte-identical to the unsharded run. `--chaos light|heavy` switches on a
/// deterministic fault plan, keyed entirely on the seed:
///
/// * **light** — one derived shard crashes (exit 101) partway through its
///   slice on its first launch.
/// * **heavy** — one derived shard stalls (10-minute sleep → stale
///   heartbeat → killed), every other shard crashes partway through, and
///   the first crashed shard's manifest is torn by 16 bytes before its
///   restart, forcing the salvage path.
///
/// Faults are injected only into each shard's *first* launch (via the
/// child env hooks `BB_REPRO_CRASH` / `BB_REPRO_STALL`), and a crash can
/// only fire after a finalized unit was flushed — so every chaos plan
/// terminates, and recovery always has progress to resume from.
fn run_orchestrate(o: &Opts) -> ! {
    use beating_bgp::core::checkpoint::{HEARTBEAT_NAME, MANIFEST_NAME};
    use beating_bgp::exec::derive_seed;
    use beating_bgp::exec::orchestrator::{orchestrate, OrchestratorPolicy, ShardSpec};
    use std::process::{Command, Stdio};

    /// Fault injected into one shard's first launch.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// `BB_REPRO_CRASH`: exit 101 after this many finalized units.
        Crash { after_units: usize },
        /// `BB_REPRO_STALL`: sleep before this experiment, attempt 0 only.
        Stall { exp: &'static str },
    }

    let counts: Vec<usize> = o
        .positional
        .iter()
        .map(|c| {
            c.parse()
                .unwrap_or_else(|_| usage(Cmd::Orchestrate, &format!("bad shard count {c:?}")))
        })
        .collect();
    let Some(&n) = counts.last() else {
        usage(
            Cmd::Orchestrate,
            "shard count required (e.g. `repro orchestrate 3`)",
        );
    };
    if n == 0 || n > EXPERIMENT_NAMES.len() {
        usage(
            Cmd::Orchestrate,
            &format!(
                "shard count must be 1..={} (one experiment per shard at most)",
                EXPERIMENT_NAMES.len()
            ),
        );
    }
    let (seed, scale, faults) = (o.seed, o.scale.as_str(), o.faults.as_str());
    let base = o
        .dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("bb_orchestrate_{seed}_{scale}")));

    // --- Chaos plan: which shard gets which first-launch fault. ---
    // Victims and crash points are derived from the campaign seed alone, so
    // one seed replays one fault schedule. Slice bounds mirror the --shard
    // arithmetic over EXPERIMENT_NAMES (debug-asserted in `run_campaign` to
    // match the real experiment list).
    let slice = |i: usize| -> &'static [&'static str] {
        let total = EXPERIMENT_NAMES.len();
        &EXPERIMENT_NAMES[i * total / n..(i + 1) * total / n]
    };
    // Crash after 1..=slice_len finalized units: always after *some*
    // progress was flushed (so recovery resumes, never thrashes), possibly
    // after all of it (restart finds the shard complete — also legal).
    let crash_point =
        |i: usize| 1 + (derive_seed(seed, 0xC4A6 ^ i as u64) as usize) % slice(i).len().max(1);
    let victim = (derive_seed(seed, 0xC4A5) % n as u64) as usize;
    let stalled = (derive_seed(seed, 0x57A11) % n as u64) as usize;
    let plan: Vec<Fault> = (0..n)
        .map(|i| match o.chaos {
            FaultLevel::Light if i == victim => Fault::Crash {
                after_units: crash_point(i),
            },
            FaultLevel::Off | FaultLevel::Light => Fault::None,
            // Sleep far longer than any sane hang timeout right before the
            // slice's last experiment: the watcher must kill it, nothing
            // else will.
            FaultLevel::Heavy if i == stalled => Fault::Stall {
                exp: slice(i).last().unwrap_or(&"calib"),
            },
            FaultLevel::Heavy => Fault::Crash {
                after_units: crash_point(i),
            },
        })
        .collect();
    // Heavy chaos also tears the first crashing shard's manifest before its
    // restart, forcing the salvage path end to end.
    let tear_victim: Option<usize> = match o.chaos {
        FaultLevel::Heavy => plan.iter().position(|f| matches!(f, Fault::Crash { .. })),
        _ => None,
    };

    let shard_dir = |i: usize| base.join(format!("shard{i}"));
    let specs: Vec<ShardSpec> = (0..n)
        .map(|i| ShardSpec {
            label: format!("shard {i}/{n}"),
            heartbeat: shard_dir(i).join(HEARTBEAT_NAME),
        })
        .collect();
    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(Cmd::Orchestrate, &format!("cannot resolve own binary: {e}")));

    eprintln!(
        "[repro] orchestrate: {n} shard(s), scale {scale}, seed {seed}, faults {faults}, \
         chaos {}, dir {}",
        o.chaos.as_str(),
        base.display()
    );

    let mut salvages = 0u64;
    let mut torn = false;
    let mut spawn = |i: usize, attempt: u32| -> std::io::Result<std::process::Child> {
        let dir = shard_dir(i);
        std::fs::create_dir_all(&dir)?;
        let manifest = dir.join(MANIFEST_NAME);
        if attempt > 0 {
            if tear_victim == Some(i) && !torn {
                // Chaos tear: chop 16 bytes off the manifest tail, exactly
                // the damage an interrupted write leaves. The child's
                // salvaging --resume must absorb it.
                torn = true;
                if let Ok(bytes) = std::fs::read(&manifest) {
                    if bytes.len() > 16 {
                        let _ = std::fs::write(&manifest, &bytes[..bytes.len() - 16]);
                        eprintln!(
                            "[repro] chaos: tore 16 bytes off {} before restart",
                            manifest.display()
                        );
                    }
                }
            }
            // Count salvage events for the orchestration report: the child
            // re-saves the manifest whole, so peek before it launches.
            if let Ok((_, Some(s))) = Checkpoint::load_salvaging(&dir) {
                salvages += 1;
                eprintln!("[repro] shard {i}/{n}: manifest torn, will salvage ({s})");
            }
        }
        let mut cmd = Command::new(&exe);
        cmd.arg("all")
            .arg("--scale")
            .arg(scale)
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--faults")
            .arg(faults)
            .arg("--shard")
            .arg(format!("{i}/{n}"));
        // Resume whenever a manifest exists (even a torn one — the child
        // salvages it); otherwise start a fresh checkpoint.
        if manifest.exists() {
            cmd.arg("--resume").arg(&dir);
        } else {
            cmd.arg("--checkpoint").arg(&dir);
        }
        if o.jobs != 0 {
            cmd.arg("--jobs").arg(o.jobs.to_string());
        }
        // Shards must capture CSV exports in their manifests (the campaign
        // key records whether CSV was on) so the merge can re-emit them.
        if o.csv_dir.is_some() {
            let shard_csv = dir.join("csv");
            std::fs::create_dir_all(&shard_csv)?;
            cmd.arg("--csv").arg(&shard_csv);
        }
        // Never let the orchestrator's own env hooks leak into children;
        // chaos faults apply to each shard's first launch only.
        for (var, _) in HOOKS {
            cmd.env_remove(var);
        }
        if attempt == 0 {
            match plan[i] {
                Fault::None => {}
                Fault::Crash { after_units } => {
                    cmd.env("BB_REPRO_CRASH", after_units.to_string());
                }
                Fault::Stall { exp } => {
                    cmd.env("BB_REPRO_STALL", format!("{exp}:600"));
                }
            }
        }
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("stderr.log"))?;
        cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(log);
        cmd.spawn()
    };

    let policy = OrchestratorPolicy {
        max_restarts: 3,
        restart_budget: (2 * n as u32).max(4),
        backoff_base: std::time::Duration::from_millis(25),
        jitter_seed: seed,
        hang_timeout: std::time::Duration::from_secs_f64(o.hang_timeout),
        poll_interval: std::time::Duration::from_millis(25),
    };
    install_signal_drain();
    let t0 = std::time::Instant::now();
    let report = orchestrate(
        &specs,
        &policy,
        &|| INTERRUPTED.load(Ordering::Relaxed),
        &mut spawn,
    );
    let wall_s = t0.elapsed().as_secs_f64();

    // The structured report is written even for failed or interrupted
    // campaigns — partial results are exactly when the restart/salvage
    // tallies matter most.
    write_timing_json(o, "orchestrate", wall_s, |r| {
        r.orchestration = Some(beating_bgp::bench::OrchestrationStats {
            shards: report.shards.len() as u64,
            attempts: report.attempts,
            restarts: report.restarts,
            crashes_detected: report.crashes_detected,
            hangs_detected: report.hangs_detected,
            salvages,
            budget_exhausted: report.budget_exhausted,
            per_shard: report
                .shards
                .iter()
                .map(|s| beating_bgp::bench::ShardWall {
                    label: s.label.clone(),
                    attempts: s.attempts as u64,
                    wall_s: s.elapsed_s,
                    outcome: s.outcome.label().to_string(),
                })
                .collect(),
        })
    });
    eprintln!(
        "[repro] orchestrate: {} launch(es), {} restart(s), {} crash(es), {} hang(s), \
         {} salvage(s){}",
        report.attempts,
        report.restarts,
        report.crashes_detected,
        report.hangs_detected,
        salvages,
        if report.budget_exhausted { " — restart budget exhausted" } else { "" }
    );

    if report.cancelled {
        let dir = base.display();
        interrupted(
            "INTERRUPTED (resumable)",
            &[format!("children killed; shard checkpoints kept in {dir} — rerun the same command to resume")],
        );
    }
    if !report.all_completed() {
        for s in &report.shards {
            if s.outcome != beating_bgp::exec::orchestrator::ShardOutcome::Completed {
                eprintln!(
                    "  {}: {} after {} launch(es){} — log: {}",
                    s.label,
                    s.outcome.label(),
                    s.attempts,
                    s.error.as_deref().map(|e| format!(" ({e})")).unwrap_or_default(),
                    shard_dir(s.index).join("stderr.log").display()
                );
            }
        }
        eprintln!(
            "repro orchestrate: {}/{} shard(s) did not complete; finished shards' \
             checkpoints are kept in {} — rerun the same command to resume",
            report.shards.len() - report.count("completed"),
            report.shards.len(),
            base.display()
        );
        std::process::exit(1);
    }

    // Every shard completed: strict-load the manifests (salvage was a
    // restart-time concern; a completed shard's manifest must be whole)
    // and emit the campaign output.
    let dirs: Vec<PathBuf> = (0..n).map(shard_dir).collect();
    let shards = load_shards(Cmd::Orchestrate, &dirs);
    finish_merge(Cmd::Orchestrate, &dirs, shards, o.csv_dir.as_deref())
}

/// `repro serve`: the streaming (daemon) shape of the §3.1 spray campaign.
///
/// Advances measurement windows on the simulated clock in epochs of
/// `--epoch K` windows. At every epoch boundary the entire accumulated
/// state is flushed as a `bbsn/v1` snapshot (atomic temp-file + fsync +
/// rename + dir-fsync), so a SIGKILL at any instant costs at most one
/// epoch of deterministically-resampled work: restarting with the same
/// `--dir` resumes from the snapshot and the eventual output is
/// byte-identical to an uninterrupted run at the same (seed, scale,
/// window count) — for every `--jobs` value.
///
/// `--epsilon 0` (default) retains every window row and hands the final
/// dataset to the *batch* analyzer, so the figure (and `--csv` export) is
/// byte-identical to `repro fig1` over the same windows. `--epsilon ε > 0`
/// folds rows into bounded-memory mergeable quantile sketches; with
/// `--mem-limit BYTES` the governor coarsens the sketches (halving
/// memory, doubling ε) instead of letting resident state grow — decisions
/// land only at epoch boundaries, which the snapshot key pins, so
/// degraded-mode output is as deterministic and resumable as everything
/// else.
fn run_serve(o: &Opts) -> ! {
    use beating_bgp::core::serve::{Governor, ServeMode, ServeState};
    use beating_bgp::core::snapshot::{ServeKey, Snapshot, SNAPSHOT_NAME};
    use beating_bgp::measure::SprayEngine;

    let (seed, scale, epoch, epsilon) = (o.seed, o.scale, o.epoch, o.epsilon);
    let Some(dir) = &o.dir else {
        usage(
            Cmd::Serve,
            "--dir DIR is required: the serve directory holds the snapshot the daemon resumes from",
        );
    };
    if o.mem_limit.is_some() && epsilon == 0.0 {
        usage(
            Cmd::Serve,
            "--mem-limit needs --epsilon E > 0: exact mode retains every row by \
             contract and the governor refuses to discard data",
        );
    }

    install_signal_drain();
    let t0 = std::time::Instant::now();

    // Same world and spray compilation as the batch fig1 path: serve's
    // window universe is the batch universe (window_at(i) strides exactly
    // like batch_windows), which is what makes exact mode byte-identical
    // to `repro fig1` over the same window count.
    let mut cfg = ScenarioConfig::facebook(seed, scale);
    cfg.faults = o.faults.config();
    eprintln!("[repro] building Facebook-like world…");
    let scenario = timing::time("world:facebook", || Scenario::build(cfg));
    let spray_config = SprayConfig {
        targets_memo: Some(scenario.config.world_key()),
        ..spray_cfg(scale)
    };
    let engine = timing::time("serve:compile", || {
        SprayEngine::new(
            &scenario.topo,
            &scenario.provider,
            &scenario.workload,
            &scenario.congestion,
            &spray_config,
        )
    });
    let batch_horizon = engine.batch_windows().len() as u64;
    let total_windows = o.windows.unwrap_or(batch_horizon);
    let route_counts: Vec<usize> = engine.targets().iter().map(|t| t.routes.len()).collect();
    let mode = ServeMode::from_eps(epsilon);
    let key = ServeKey::new(
        seed,
        scale.as_str(),
        o.faults.as_str(),
        epsilon,
        epoch,
        o.csv_dir.is_some(),
    );

    // Fresh start or snapshot resume. A missing snapshot file is a fresh
    // start; anything else that fails — stale key, torn bytes, checksum
    // mismatch — is a hard reject (exit 2): resuming from state we cannot
    // trust would poison every epoch after it.
    let snapshot_path = dir.join(SNAPSHOT_NAME);
    let reject = |e: &dyn std::fmt::Display| -> ! {
        usage(Cmd::Serve, &format!("{}: {e}", snapshot_path.display()))
    };
    let (mut state, mut epochs_flushed, mut coarsenings, resumed) = if snapshot_path.exists() {
        let snap = Snapshot::load(dir).unwrap_or_else(|e| reject(&e));
        if let Err(e) = snap.validate(&key) {
            reject(&e);
        }
        let state = ServeState::decode(&snap.state).unwrap_or_else(|e| reject(&e));
        if state.windows_done() != snap.windows_done {
            reject(&format!(
                "snapshot header says {} windows but state blob carries {} — refusing to resume",
                snap.windows_done,
                state.windows_done()
            ));
        }
        eprintln!(
            "[repro] serve: resuming at window {}/{total_windows} (epoch {}, {} governor \
             coarsenings so far) from {}",
            snap.windows_done,
            snap.epochs,
            snap.coarsenings,
            snapshot_path.display()
        );
        (state, snap.epochs, snap.coarsenings, true)
    } else {
        (ServeState::new(mode, &route_counts), 0u64, 0u64, false)
    };

    let governor = o.mem_limit.map(Governor::new);
    // `--csv`: sketch mode rewrites `fig1.csv` at every epoch boundary (a
    // current figure is always cheap), exact mode writes it once at the end.
    let write_fig1 = |fig: &beating_bgp::core::figures::Fig1| {
        if let Some(csv) = &o.csv_dir {
            if let Err(e) =
                export::write_atomic_bytes(&csv.join("fig1.csv"), &export::fig1_csv_bytes(fig))
            {
                fail(Cmd::Serve, &format!("CSV export failed: {e}"));
            }
        }
    };
    let watchdog = beating_bgp::exec::watchdog::Watchdog::new(
        "serve:epoch",
        std::time::Duration::from_secs_f64(o.epoch_deadline),
    );
    // `--chaos`: deterministic self-crash (exit 101, like an escaped
    // panic) right after a seed-keyed epoch's snapshot lands — fresh runs
    // only, so the restarted daemon completes. Exercises the
    // kill-mid-campaign path without an external killer.
    let chaos_epoch = 1 + seed % 3;
    let mut deadline_misses = 0u64;
    let mut peak_resident = state.resident_bytes();

    while state.windows_done() < total_windows && !INTERRUPTED.load(Ordering::Relaxed) {
        let started = std::time::Instant::now();
        let lo = state.windows_done();
        let hi = (lo + epoch).min(total_windows);
        let chunk: Vec<beating_bgp::netsim::Window> =
            (lo..hi).map(|i| engine.window_at(i)).collect();
        let per_target = timing::time("serve:sample", || {
            engine.sample_windows(&chunk, scenario.fault_plane())
        });
        state.ingest(per_target, hi - lo);
        if let Some(gov) = &governor {
            let rounds = gov.enforce(&mut state);
            if rounds > 0 {
                coarsenings += rounds;
                eprintln!(
                    "[repro] serve: governor coarsened sketches {rounds} round(s) at \
                     window {} (resident {} bytes, limit {} bytes, eps now {})",
                    state.windows_done(),
                    state.resident_bytes(),
                    gov.limit_bytes,
                    state.current_eps()
                );
            }
        }
        peak_resident = peak_resident.max(state.resident_bytes());
        epochs_flushed += 1;
        let snap = Snapshot {
            key: key.clone(),
            windows_done: state.windows_done(),
            epochs: epochs_flushed,
            coarsenings,
            state: state.encode(),
        };
        // Snapshot and heartbeat writers fail closed (exit 1, named path):
        // the previous epoch's snapshot is still whole on disk, so a rerun
        // resumes from it and loses at most this epoch.
        if let Err(e) = timing::time("serve:flush", || snap.save(dir)) {
            fail_closed(Cmd::Serve, "snapshot flush", &e, dir);
        }
        let hb = Heartbeat::now(state.windows_done(), epochs_flushed);
        if let Err(e) = hb.save(dir) {
            fail_closed(Cmd::Serve, "heartbeat write", &e, dir);
        }
        // Live sketch-mode figure export. (Exact mode defers to the batch
        // analyzer at the end — recomputing bootstrap CIs per epoch would
        // swamp sampling.)
        if matches!(mode, ServeMode::Sketch { .. }) {
            if let Ok(fig) = state.sketch_fig1(engine.targets()) {
                write_fig1(&fig);
            }
        }
        if watchdog.observe(started) {
            deadline_misses += 1;
        }
        if o.chaos != FaultLevel::Off && !resumed && epochs_flushed == chaos_epoch {
            eprintln!(
                "[repro] serve: --chaos simulated crash after epoch {epochs_flushed} \
                 (snapshot flushed; rerun the same command to resume)"
            );
            std::process::exit(101);
        }
    }

    if state.windows_done() < total_windows {
        // Signal drain: the last completed epoch is on disk; mid-epoch
        // windows are resampled deterministically on resume.
        let (done, path) = (state.windows_done(), snapshot_path.display());
        interrupted(
            "INTERRUPTED (resumable)",
            &[
                format!("{done}/{total_windows} windows ingested; snapshot flushed to {path}"),
                "rerun the same command to resume".to_string(),
            ],
        );
    }

    // Campaign horizon reached: emit the figure.
    let mode_label = match mode {
        ServeMode::Exact => "exact",
        ServeMode::Sketch { .. } => "sketch",
    };
    let eps_in_force = state.current_eps();
    let resident_bytes = state.resident_bytes();
    let windows_done = state.windows_done();
    let render = match mode {
        ServeMode::Exact => {
            let rows = state
                .into_rows()
                .unwrap_or_else(|e| fail(Cmd::Serve, &e.to_string()));
            let dataset = beating_bgp::measure::SprayDataset {
                targets: engine.into_targets(),
                rows,
            };
            let study = timing::time("egress:analyze", || {
                study_egress::analyze(&scenario, &spray_config, dataset)
            })
            .unwrap_or_else(|e| fail(Cmd::Serve, &e.to_string()));
            write_fig1(&study.fig1);
            format!("{}\n", study.fig1.render())
        }
        ServeMode::Sketch { .. } => {
            let fig = state
                .sketch_fig1(engine.targets())
                .unwrap_or_else(|e| fail(Cmd::Serve, &e.to_string()));
            write_fig1(&fig);
            let mut s = fig.render();
            if let Some(note) = state.sketch_disclosure() {
                s.push_str(&note);
            }
            s.push('\n');
            s
        }
    };
    print!("{render}");

    let wall_s = t0.elapsed().as_secs_f64();
    if o.timing {
        eprint!("{}", timing::report());
        eprintln!(
            "serve: {windows_done} windows in {epochs_flushed} epochs, {coarsenings} \
             coarsening(s), resident {resident_bytes} bytes (peak {peak_resident})"
        );
    }
    write_timing_json(o, "serve", wall_s, |r| {
        r.serve = Some(beating_bgp::bench::ServeStats {
            mode: mode_label.to_string(),
            epsilon,
            epsilon_in_force: eps_in_force,
            windows_done,
            epochs_flushed,
            resident_bytes,
            peak_resident_bytes: peak_resident,
            governor_coarsenings: coarsenings,
            deadline_misses,
            resumed,
        })
    });
    std::process::exit(0);
}

/// `repro propagate`: the planet-tier propagation smoke. Builds the
/// selected world (generated preset or `--snapshot` AS-relationship file),
/// fully propagates routes from `--origins K` eyeball ASes sharded across
/// `--jobs` workers, samples every table for valley-freeness, reports the
/// interned-path RIB memory against the naive per-AS `Vec<AsId>` encoding,
/// and runs a bounded spray slice over the first `--prefixes K` client
/// prefixes. Output is assembled in origin order from per-worker results,
/// so stdout and `--csv` exports are byte-identical for every `--jobs`
/// value. Exit 0 = propagation complete and valley-free, 1 = a sampled
/// path violated valley-freeness or an AS was unreachable, 2 = usage.
fn run_propagate(o: &Opts) -> ! {
    use beating_bgp::bgp::{valley_free, Announcement};
    use beating_bgp::topology::{AsClass, AsId};

    let (seed, scale) = (o.seed, o.scale);
    let t0 = std::time::Instant::now();
    let mut cfg = ScenarioConfig::facebook(seed, scale);
    cfg.snapshot = o.snapshot.clone();
    eprintln!("[repro] building propagation world…");
    let scenario = timing::time("world:propagate", || build_world_or_exit(cfg));
    let topo = &scenario.topo;

    println!("=== PROPAGATE (scale {}, seed {seed}) ===", scale.as_str());
    println!(
        "world: {} ases, {} links, fingerprint {:016x}",
        topo.as_count(),
        topo.link_count(),
        topo.fingerprint()
    );

    // Deterministic origin choice: eyeballs in id order, spread evenly.
    let eyeballs: Vec<AsId> = topo.ases_of_class(AsClass::Eyeball).map(|n| n.id).collect();
    if eyeballs.is_empty() {
        fail(
            Cmd::Propagate,
            "world has no eyeball ases to originate from",
        );
    }
    let k = o.origins.min(eyeballs.len());
    let picks: Vec<AsId> = (0..k).map(|i| eyeballs[i * eyeballs.len() / k]).collect();
    println!("origins: {k} of {} eyeball ases", eyeballs.len());

    // One full propagation per origin, sharded across the worker pool.
    // `par_map` keys nothing on thread schedule and returns in item order,
    // and each table is a pure function of `(topology, announcement)`, so
    // the report below is byte-identical for every `--jobs` value.
    let stride = (topo.as_count() / 4096).max(1);
    let reports = timing::time("propagate:routes", || {
        beating_bgp::exec::par_map(&picks, |_, &asn| {
            let ann = Announcement::full(topo, asn);
            let table = beating_bgp::exec::cached_routes(topo, &ann);
            let mut sampled = 0usize;
            let mut violations = 0usize;
            for node in topo.ases().iter().step_by(stride) {
                match table.as_path(node.id) {
                    Some(path) => {
                        sampled += 1;
                        if !valley_free(topo, &path) {
                            violations += 1;
                        }
                    }
                    None => violations += 1,
                }
            }
            (
                table.reachable_count(),
                table.interned_path_bytes(),
                table.naive_path_bytes(),
                table.entry_pool_bytes(),
                sampled,
                violations,
            )
        })
    });

    let mut csv = String::from("origin,reachable,interned_bytes,naive_bytes,entry_pool_bytes\n");
    let (mut interned, mut naive, mut pool) = (0usize, 0usize, 0usize);
    let (mut sampled, mut violations, mut unreachable) = (0usize, 0usize, 0usize);
    for (&asn, &(reach, i_bytes, n_bytes, p_bytes, smp, bad)) in picks.iter().zip(&reports) {
        let name = &topo.asys(asn).name;
        println!(
            "origin {name}: reachable {reach}/{}, interned {i_bytes} B, naive {n_bytes} B",
            topo.as_count()
        );
        writeln!(csv, "{name},{reach},{i_bytes},{n_bytes},{p_bytes}").unwrap();
        interned += i_bytes;
        naive += n_bytes;
        pool += p_bytes;
        sampled += smp;
        violations += bad;
        unreachable += topo.as_count() - reach;
    }
    println!(
        "rib totals: {k} tables, interned {interned} B, naive {naive} B ({:.1}% of naive), \
         entry pool {pool} B",
        100.0 * interned as f64 / naive as f64
    );
    println!("valley-free: {sampled} sampled paths, {violations} violations, {unreachable} unreachable");

    // Bounded spray slice: truncating to the *first* K prefixes keeps
    // PrefixId indexing consistent (ids are dense positions in the list).
    let mut workload = scenario.workload.clone();
    let p = o.prefixes.min(workload.prefixes.len());
    workload.prefixes.truncate(p);
    workload.prefix_ldns.truncate(p);
    let dataset = timing::time("propagate:spray", || {
        beating_bgp::measure::spray(
            topo,
            &scenario.provider,
            &workload,
            &scenario.congestion,
            None,
            &spray_cfg(scale),
        )
    });
    let route_samples: u64 = dataset
        .rows
        .iter()
        .map(|r| r.route_samples.iter().map(|&s| u64::from(s)).sum::<u64>())
        .sum();
    println!(
        "spray slice: {p} prefixes -> {} targets, {} window rows, {route_samples} route samples",
        dataset.targets.len(),
        dataset.rows.len()
    );
    let failed = violations > 0 || unreachable > 0;
    println!(
        "=== PROPAGATE {} ===",
        if failed { "FAILED" } else { "OK" }
    );

    if let Some(dir) = &o.csv_dir {
        if let Err(e) = export::write_atomic_bytes(&dir.join("propagate.csv"), csv.as_bytes()) {
            fail(Cmd::Propagate, &format!("--csv: {e}"));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if o.timing {
        eprint!("{}", timing::report());
    }
    write_timing_json(o, "propagate", wall_s, |_| {});
    std::process::exit(if failed { 1 } else { 0 });
}

fn main() {
    // Fail fast on a malformed hook: a typo'd BB_REPRO_* value is a usage
    // error even when the chosen command would never read it.
    let hooks = read_hooks();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let o = parse_args(&argv);
    beating_bgp::exec::set_jobs(o.jobs);
    match o.cmd {
        Cmd::Run => run_campaign(&o, hooks),
        Cmd::Merge => run_merge(&o),
        Cmd::Orchestrate => run_orchestrate(&o),
        Cmd::Serve => run_serve(&o),
        Cmd::Propagate => run_propagate(&o),
    }
}

/// `repro [EXPERIMENT]`: run the selected experiments under supervision
/// and print their output in campaign order.
fn run_campaign(o: &Opts, hooks: Hooks) {
    let experiment = o.positional.last().map_or("all", String::as_str);
    // Flag-combination conflicts are usage errors (exit 2), never silent
    // precedence: `--resume DIR` already implies checkpointing back into
    // DIR, so a *different* `--checkpoint` directory contradicts it.
    if let (Some(c), Some(r)) = (&o.checkpoint, &o.resume) {
        if c != r {
            usage(
                Cmd::Run,
                &format!(
                    "--checkpoint {} conflicts with --resume {}; --resume already checkpoints \
                     back into the same directory",
                    c.display(),
                    r.display()
                ),
            );
        }
    }
    if experiment == "audit" && (o.checkpoint.is_some() || o.resume.is_some()) {
        usage(
            Cmd::Run,
            "audit runs standalone and does not support --checkpoint/--resume",
        );
    }
    if o.shard.is_some() && o.checkpoint.is_none() && o.resume.is_none() {
        usage(
            Cmd::Run,
            "--shard requires --checkpoint DIR: a shard's only output is its checkpoint \
             manifest (stitch the shards with `repro merge`)",
        );
    }
    let t0 = std::time::Instant::now();
    let want = |name: &str| experiment == "all" || experiment == name;
    // Injecting the fault level here (not inside ScenarioConfig's presets)
    // keeps library callers fault-free by default; every world the driver
    // builds — the shared ones below and the arms of xpeer/xablate — goes
    // through `with_faults`, so an xablate arm whose config `==` a shared
    // world's reuses that world and its study instead of rebuilding them.
    let with_faults = |mut cfg: ScenarioConfig| {
        cfg.faults = o.faults.config();
        cfg.snapshot = o.snapshot.clone();
        cfg
    };

    // --- Shared worlds and studies, built once on first use. ---
    // OnceLock::get_or_init blocks concurrent initializers, so when several
    // experiments race for the same world the build still happens exactly
    // once and everyone reads the same object.
    let (fb_cell, ms_cell, gg_cell) = (OnceLock::new(), OnceLock::new(), OnceLock::new());
    let build = |name: &str, preset: fn(u64, Scale) -> ScenarioConfig| {
        eprintln!("[repro] building {name}-like world…");
        let label = format!("world:{}", name.to_lowercase());
        timing::time(&label, || {
            build_world_or_exit(with_faults(preset(o.seed, o.scale)))
        })
    };
    let facebook = || fb_cell.get_or_init(|| build("Facebook", ScenarioConfig::facebook));
    let microsoft = || ms_cell.get_or_init(|| build("Microsoft", ScenarioConfig::microsoft));
    let google = || gg_cell.get_or_init(|| build("Google", ScenarioConfig::google));

    // Study cells hold `BbResult`: under heavy faults a shared study can
    // legitimately fail (e.g. every window of a figure degraded away), and
    // every experiment that shares it must see the same error.
    let (egress_cell, anycast_cell, tiers_cell) =
        (OnceLock::new(), OnceLock::new(), OnceLock::new());
    let egress_study = || {
        shared(&egress_cell, || {
            let scenario = facebook();
            eprintln!("[repro] spraying sessions across egress routes…");
            timing::time("study:egress", || {
                study_egress::run(scenario, &spray_cfg(o.scale))
            })
        })
    };
    let anycast_study = || {
        shared(&anycast_cell, || {
            let scenario = microsoft();
            eprintln!("[repro] running beacon campaign…");
            timing::time("study:anycast", || {
                study_anycast::run(scenario, &BeaconConfig::default())
            })
        })
    };
    let tiers_study = || {
        shared(&tiers_cell, || {
            let scenario = google();
            eprintln!("[repro] probing Premium/Standard tiers…");
            timing::time("study:tiers", || {
                study_tiers::run(scenario, &ProbeConfig::default())
            })
        })
    };

    // --- `repro audit`: invariant + metamorphic sweep, then exit. ---
    // Runs the same shared worlds/studies the figures are computed from
    // through bb-audit's rule catalog. Exit 0 = every rule held, exit 1 =
    // a violation (the build failed its own contract) or a study error.
    if experiment == "audit" {
        let run = || -> BbResult<beating_bgp::audit::AuditReport> {
            let egress = egress_study()?;
            let anycast = anycast_study()?;
            let tiers = tiers_study()?;
            Ok(beating_bgp::audit::run_audit(
                facebook(),
                egress,
                microsoft(),
                anycast,
                google(),
                tiers,
                &beating_bgp::audit::AuditOptions {
                    seed: o.seed,
                    scale: o.scale,
                    faults: o.faults.as_str(),
                    violate: hooks.audit_violate.clone(),
                },
            ))
        };
        match timing::time("audit", run) {
            Ok(report) => {
                print!("{}", report.render());
                if o.timing {
                    eprint!("{}", timing::report());
                }
                std::process::exit(if report.passed() { 0 } else { 1 });
            }
            Err(e) => fail(Cmd::Run, &format!("audit: shared study failed: {e}")),
        }
    }

    // --- Experiments: (name, closure → unit result), in output order. ---
    // Each closure returns the experiment's stdout chunk plus any files it
    // rendered (written immediately, and captured for the checkpoint so a
    // resumed run can replay them byte-identically without recomputing).
    let text = |stdout: String| -> BbResult<UnitResult> {
        Ok(UnitResult {
            stdout,
            files: Vec::new(),
        })
    };
    // A figure's stdout chunk plus, under `--csv`, its CSV export: written
    // now and captured so a resumed run can replay it. The bytes are
    // rendered only when the flag is set.
    let figure = |render: String, fname: &str, csv: &dyn Fn() -> Vec<u8>| -> BbResult<UnitResult> {
        let mut files = Vec::new();
        if let Some(dir) = &o.csv_dir {
            let bytes = csv();
            export::write_atomic_bytes(&dir.join(fname), &bytes)?;
            files.push((fname.to_string(), bytes));
        }
        Ok(UnitResult {
            stdout: format!("{render}\n"),
            files,
        })
    };
    type Exp<'a> = (&'static str, Box<dyn Fn() -> BbResult<UnitResult> + Sync + 'a>);
    let experiments: Vec<Exp> = vec![
        (
            "calib",
            Box::new(|| text(format!("{}\n", calibration::run(facebook()).render()))),
        ),
        (
            "fig1",
            Box::new(|| {
                let study = egress_study()?;
                figure(study.fig1.render(), "fig1.csv", &|| {
                    export::fig1_csv_bytes(&study.fig1)
                })
            }),
        ),
        (
            "fig2",
            Box::new(|| {
                let study = egress_study()?;
                figure(study.fig2.render(), "fig2.csv", &|| {
                    export::fig2_csv_bytes(&study.fig2)
                })
            }),
        ),
        (
            "s311",
            Box::new(|| {
                let study = egress_study()?;
                text(format!(
                    "{}\nS3.1 bandwidth: alternate improves goodput >=10% for {:.1}% of traffic \
                     (paper: \"qualitatively similar results for bandwidth\")\n\n",
                    study.episodes.render(),
                    study.bandwidth_improvable * 100.0
                ))
            }),
        ),
        (
            "fig3",
            Box::new(|| {
                let study = anycast_study()?;
                figure(study.fig3.render(), "fig3.csv", &|| {
                    export::fig3_csv_bytes(&study.fig3)
                })
            }),
        ),
        (
            "fig4",
            Box::new(|| {
                let study = anycast_study()?;
                figure(study.fig4.render(), "fig4.csv", &|| {
                    export::fig4_csv_bytes(&study.fig4)
                })
            }),
        ),
        (
            "fig5",
            Box::new(|| {
                let study = tiers_study()?;
                figure(study.fig5.render(), "fig5.csv", &|| {
                    export::fig5_csv_bytes(&study.fig5)
                })
            }),
        ),
        (
            "goodput",
            Box::new(|| {
                text(format!(
                    "S4 goodput: weighted median 10MB transfer-time difference \
                     (standard - premium): {:+.2} s\n\n",
                    tiers_study()?.goodput_diff_s
                ))
            }),
        ),
        (
            "xonenet",
            Box::new(|| {
                let mut out =
                    String::from("X-ONENET (§3.3.2): latency inflation vs single-network share\n");
                for b in single_network::run(google(), None) {
                    writeln!(out, "{}", b.render_row()).unwrap();
                }
                out.push('\n');
                text(out)
            }),
        ),
        (
            "xpeer",
            Box::new(|| {
                let mut out =
                    String::from("X-PEER (§3.1.3): reduced peering footprint sweep\n");
                let base = with_faults(ScenarioConfig::facebook(o.seed, o.scale));
                for step in peering_reduction::run(&base, &[0.05, 0.12, 0.3, 0.6, 1.1]) {
                    writeln!(out, "{}", step.render_row()).unwrap();
                }
                out.push('\n');
                text(out)
            }),
        ),
        (
            "xgroom",
            Box::new(|| {
                let mut out =
                    String::from("X-GROOM (§3.2.2): grooming an ungroomed anycast prefix\n");
                let scenario = microsoft();
                for step in grooming::run(scenario, o.seed ^ 0x_9700, 12) {
                    writeln!(out, "{}", step.render_row()).unwrap();
                }
                let baseline = grooming::groomed_baseline(scenario);
                writeln!(out, "  fully-groomed baseline: {}", baseline.render_row()).unwrap();
                out.push('\n');
                text(out)
            }),
        ),
        (
            "xsites",
            Box::new(|| {
                let mut out =
                    String::from("X-SITES (§3.2.2): anycast latency vs number of sites\n");
                for p in site_count::run(microsoft(), &[1, 2, 4, 8, 16, 32, 64]) {
                    writeln!(out, "{}", p.render_row()).unwrap();
                }
                out.push('\n');
                text(out)
            }),
        ),
        (
            "xecs",
            Box::new(|| {
                let mut out =
                    String::from("X-ECS (§3.2.1): Fig 4 vs ISP EDNS-Client-Subnet adoption\n");
                for p in ecs::run(microsoft(), &BeaconConfig::default(), &[0.0, 0.25, 0.5, 1.0])? {
                    writeln!(out, "{}", p.render_row()).unwrap();
                }
                out.push('\n');
                text(out)
            }),
        ),
        (
            "xavail",
            Box::new(|| {
                let r = availability::run(
                    microsoft(),
                    o.seed ^ 0x_a1a,
                    &availability::RecoveryConfig::default(),
                );
                text(format!("{}\n", r.render()))
            }),
        ),
        (
            "xhybrid",
            Box::new(|| {
                let mut out =
                    String::from("X-HYBRID (§4): anycast vs DNS vs hybrid vs oracle\n");
                for s in hybrid::run(microsoft(), &BeaconConfig::default(), 10.0) {
                    writeln!(out, "{}", s.render_row()).unwrap();
                }
                out.push('\n');
                text(out)
            }),
        ),
        (
            "xfabric",
            Box::new(|| {
                // Reuse the egress study's spray dataset (same scenario,
                // same spray config) instead of re-running the campaign.
                let study = egress_study()?;
                let r = fabric::evaluate(&study.dataset, &EgressController::default());
                text(format!("{}\n", r.render()))
            }),
        ),
        (
            "xablate",
            Box::new(|| {
                let mut out =
                    String::from("X-ABLATE: modeling-mechanism ablations (quality deltas)\n");

                // An arm whose config equals a shared world's reads that
                // world (and, for egress, its study) instead of rebuilding
                // it. Every other arm is one-shot: built, studied and
                // dropped here, never memoised, since a second resident
                // spray dataset would cost peak memory. One-shot arms run
                // before the wait on the shared egress study, so under
                // `--jobs > 1` they overlap fig1's run of it.

                // (1) Correlated congestion: without shared destination-side
                // keys, performance-aware routing finds far more exploitable
                // windows — the pre-2010 literature's world.
                let egress_row = |label: &str, study: &study_egress::EgressStudy| {
                    format!(
                        "    {label:<22} median-improvable>=5ms {:.1}%  windows-improvable {:.1}%  degrade-together {:.0}%",
                        study.fig1.frac_improvable_5ms * 100.0,
                        study.episodes.frac_windows_improvable * 100.0,
                        study.episodes.degrade_together * 100.0
                    )
                };
                // A `None` row is served by the shared egress study, below.
                let mut congestion_rows = Vec::new();
                for (label, metro, lastmile, link) in [
                    ("correlated (default)", 0.10, 0.35, 0.25),
                    ("independent", 0.0, 0.0, 2.0),
                ] {
                    let mut cfg = with_faults(ScenarioConfig::facebook(o.seed, o.scale));
                    cfg.congestion.metro_events_per_day = metro;
                    cfg.congestion.lastmile_events_per_day = lastmile;
                    cfg.congestion.link_events_per_day = link;
                    if label == "independent" {
                        // Early-literature world: long, severe, route-specific
                        // congestion episodes.
                        cfg.congestion.event_duration_mean_min = 90.0;
                        cfg.congestion.event_severity = (0.35, 0.7);
                    }
                    let row = if cfg == facebook().config {
                        None
                    } else {
                        let scenario = Scenario::try_build(cfg)?;
                        let study = study_egress::run(&scenario, &spray_cfg(o.scale))?;
                        Some(egress_row(label, &study))
                    };
                    congestion_rows.push((label, row));
                }

                // (2) Exit fidelity: perfectly geographic exits kill most
                // anycast misdirection. Each arm runs its own short beacon
                // campaign, on the shared world when the config matches.
                let mut exit_rows = String::new();
                for (label, factor) in [("sloppy (default)", 0.72_f64), ("perfect geo", 1.0)] {
                    let mut cfg = with_faults(ScenarioConfig::microsoft(o.seed, o.scale));
                    cfg.exit_fidelity_factor = factor;
                    let fresh;
                    let scenario = if cfg == microsoft().config {
                        microsoft()
                    } else {
                        fresh = Scenario::try_build(cfg)?;
                        &fresh
                    };
                    let study = study_anycast::run(
                        scenario,
                        &BeaconConfig {
                            rounds: 4,
                            ..Default::default()
                        },
                    )?;
                    writeln!(
                        exit_rows,
                        "    {label:<22} anycast within 10ms {:.1}%  tail>=100ms {:.1}%",
                        study.fig3.frac_within_10ms * 100.0,
                        study.fig3.frac_gt_100ms * 100.0
                    )
                    .unwrap();
                }

                out.push_str("  [correlated congestion]\n");
                for (label, row) in congestion_rows {
                    let row = match row {
                        Some(row) => row,
                        None => egress_row(label, egress_study()?),
                    };
                    writeln!(out, "{row}").unwrap();
                }
                out.push_str("  [exit fidelity]\n");
                out.push_str(&exit_rows);
                out.push('\n');
                text(out)
            }),
        ),
        (
            "xsplit",
            Box::new(|| {
                let mut out = String::from("X-SPLIT (§4): split-TCP backend comparison\n");
                let scenario = google();
                for bytes in [30e3, 300e3, 3e6] {
                    writeln!(out, "{}", split_tcp::run(scenario, bytes, None).render()).unwrap();
                }
                text(out)
            }),
        ),
    ];

    let selected: Vec<Exp> = experiments.into_iter().filter(|(n, _)| want(n)).collect();
    if selected.is_empty() {
        usage(
            Cmd::Run,
            &format!("unknown experiment '{experiment}' — try --help"),
        );
    }
    let names: Vec<&'static str> = selected.iter().map(|(n, _)| *n).collect();
    // The orchestrator plans shard slices and chaos against
    // `EXPERIMENT_NAMES` without building the closures; the two lists must
    // stay identical, in the same order.
    if experiment == "all" {
        debug_assert_eq!(names, EXPERIMENT_NAMES, "EXPERIMENT_NAMES is out of date");
    }

    // --- Sharding: run one contiguous slice of the campaign. ---
    // The slice bounds are `[I·n/N, (I+1)·n/N)`, so the N slices tile the
    // list exactly. The campaign key (below) still names the FULL selected
    // list: every shard of one campaign carries an identical key, which is
    // what lets `repro merge` verify the manifests belong together and
    // that, combined, they cover everything.
    let shard_names: Vec<&'static str> = match o.shard {
        Some((idx, n)) => {
            let lo = idx * names.len() / n;
            let hi = (idx + 1) * names.len() / n;
            eprintln!(
                "[repro] shard {idx}/{n}: running {} of {} experiments: {}",
                hi - lo,
                names.len(),
                names[lo..hi].join(",")
            );
            names[lo..hi].to_vec()
        }
        None => names.clone(),
    };

    // --- Checkpoint / resume wiring. ---
    // The campaign key pins everything that feeds unit output; a manifest
    // whose key mismatches is rejected (exit 2), never silently reused.
    // `--resume DIR` implies continuing to checkpoint into DIR.
    let ckpt_dir = o.resume.clone().or_else(|| o.checkpoint.clone());
    let campaign_key = CampaignKey::new(
        o.seed,
        o.scale.as_str(),
        o.faults.as_str(),
        names.join(","),
        o.csv_dir.is_some(),
    );
    let mut replay: std::collections::BTreeMap<&'static str, UnitResult> =
        std::collections::BTreeMap::new();
    let ck_shared: Option<Arc<(std::path::PathBuf, Mutex<Checkpoint>)>> = match &ckpt_dir {
        None => None,
        Some(dir) => {
            install_signal_drain();
            let ck = if o.resume.is_some() {
                match Checkpoint::load_salvaging(dir).and_then(|(ck, salvage)| {
                    ck.validate(&campaign_key)?;
                    Ok((ck, salvage))
                }) {
                    Ok((ck, salvage)) => {
                        if let Some(s) = &salvage {
                            // A manifest torn by a crash mid-write is
                            // salvaged to its valid prefix; re-save it whole
                            // immediately, so a second crash before the
                            // first flush cannot tear the torn file further.
                            eprintln!("[repro] warning: checkpoint salvaged: {s}");
                            if let Err(e) = ck.save(dir) {
                                eprintln!(
                                    "[repro] warning: could not re-save salvaged checkpoint: {e}"
                                );
                            }
                        }
                        for name in &names {
                            if let Some(unit) = ck.get(name) {
                                replay.insert(name, unit.clone());
                            }
                        }
                        eprintln!(
                            "[repro] resuming: {}/{} experiments already completed in {}",
                            replay.len(),
                            names.len(),
                            dir.display()
                        );
                        ck
                    }
                    Err(e) => usage(Cmd::Run, &format!("--resume: {e}")),
                }
            } else {
                Checkpoint::new(campaign_key.clone())
            };
            Some(Arc::new((dir.clone(), Mutex::new(ck))))
        }
    };
    // Checkpoint writers fail *closed*: a flush that cannot land means the
    // manifest on disk is stale, and limping on would silently discard
    // completed experiments at the next resume. The atomic writer
    // guarantees the previous manifest is still whole, so exiting 1 here
    // (with the failing path in the message) loses at most the window
    // since the last successful flush — rerunning resumes from it.
    let flush = |shared: &(std::path::PathBuf, Mutex<Checkpoint>)| {
        let mut ck = shared.1.lock().unwrap_or_else(|e| e.into_inner());
        ck.windows_done = beating_bgp::measure::progress::windows_done();
        timing::time("checkpoint:flush", || {
            if let Err(e) = ck.save(&shared.0) {
                fail_closed(Cmd::Run, "checkpoint flush", &e, &shared.0);
            }
        });
    };
    // Liveness heartbeat: a tiny progress record (`heartbeat.bbhb`)
    // rewritten atomically but *without* fsync — the orchestrator watches
    // its content for change to tell a slow shard from a hung one.
    // `units_done` counts finalized experiments, bumped in `on_final`
    // below. Like the manifest flush it fails closed: a heartbeat that
    // cannot be written is the same disk failure that will eat the next
    // manifest flush, and a clean exit 1 now (prior artifacts intact)
    // beats a torn write later.
    let units_done = Arc::new(AtomicUsize::new(0));
    let beat = {
        let units = Arc::clone(&units_done);
        move |shared: &(std::path::PathBuf, Mutex<Checkpoint>)| {
            let hb = Heartbeat::now(
                beating_bgp::measure::progress::windows_done(),
                units.load(Ordering::Relaxed) as u64,
            );
            // Beats come from the progress hook and from `on_final` on
            // different workers, and every save goes through the same
            // `heartbeat.bbhb.tmp`: unserialized, one writer's rename can
            // move the other's temp file away and fail its rename.
            let _serial = shared.1.lock().unwrap_or_else(|e| e.into_inner());
            timing::time("checkpoint:heartbeat", || {
                if let Err(e) = hb.save(&shared.0) {
                    fail_closed(Cmd::Run, "heartbeat write", &e, &shared.0);
                }
            });
        }
    };
    // Window-granular progress inside a study: every 2048 completed
    // measurement windows the heartbeat is refreshed (cheap: ~60 bytes, no
    // fsync), and every 32768 the full manifest is re-flushed, so even a
    // kill in the middle of one long experiment leaves a fresh manifest.
    // Without --checkpoint no hook is installed and the pipelines pay one
    // relaxed counter increment per window — nothing else. The flush
    // interval is sized so periodic flushes stay well under the 2%
    // wall-clock budget the bench smoke enforces (each flush rewrites and
    // fsyncs the whole manifest).
    if let Some(shared) = &ck_shared {
        // Startup heartbeat: the orchestrator sees liveness before the
        // first window completes (world-building can take a while).
        beat(shared);
        let s = Arc::clone(shared);
        let b = beat.clone();
        beating_bgp::measure::progress::set_hook(
            2_048,
            Arc::new(move |n| {
                b(&s);
                if n % 32_768 == 0 {
                    flush(&s);
                }
            }),
        );
    }

    // Experiments still to run (this shard's slice, minus anything already
    // replayed from a checkpoint).
    let run_list: Vec<&Exp> = selected
        .iter()
        .filter(|(n, _)| !replay.contains_key(n) && shard_names.contains(n))
        .collect();

    let Hooks {
        poison,
        unit_limit,
        crash: crash_after,
        stall,
        ..
    } = hooks;
    let finalized = AtomicUsize::new(0);
    let cancel = || {
        INTERRUPTED.load(Ordering::Relaxed)
            || unit_limit.is_some_and(|limit| finalized.load(Ordering::Relaxed) >= limit)
    };
    let on_final = |i: usize, outcome: &Result<BbResult<UnitResult>, _>| {
        if let (Ok(Ok(unit)), Some(shared)) = (outcome, &ck_shared) {
            {
                let mut ck = shared.1.lock().unwrap_or_else(|e| e.into_inner());
                ck.record(run_list[i].0, unit.clone());
            }
            units_done.fetch_add(1, Ordering::Relaxed);
            flush(shared);
            beat(shared);
            // The injected crash fires only after the unit was flushed, so
            // every crash leaves resumable progress behind — the property
            // the orchestrator's restart path depends on.
            if crash_after.is_some_and(|n| units_done.load(Ordering::Relaxed) >= n) {
                eprintln!(
                    "[repro] BB_REPRO_CRASH: simulated crash after {} finalized unit(s)",
                    units_done.load(Ordering::Relaxed)
                );
                std::process::exit(101);
            }
        }
        finalized.fetch_add(1, Ordering::Relaxed);
    };

    // Run concurrently under supervision, print in order: stdout bytes do
    // not depend on the worker count or the schedule, one experiment's
    // panic cannot take down its siblings, and a failed/panicked experiment
    // is retried (bounded, deterministic backoff) before being declared
    // dead. The deadline stays advisory (None): experiments are never
    // killed mid-flight, so cancellation is always a clean drain.
    let policy = supervisor::RetryPolicy {
        max_retries: 2,
        backoff_base: std::time::Duration::from_millis(50),
        retry_budget: 8,
        jitter_seed: o.seed,
    };
    // Per-experiment route-cache attribution: snapshot the process-wide
    // counters around each closure. At `--jobs 1` the deltas are exact; with
    // concurrent experiments the counters interleave, so a lookup lands on
    // whichever experiment was on the clock (documented in the report).
    let cache_deltas: Mutex<std::collections::BTreeMap<&'static str, (u64, u64)>> =
        Mutex::new(std::collections::BTreeMap::new());
    let (outcomes, sup_report) = supervisor::supervise(
        &run_list,
        &policy,
        None,
        &cancel,
        &on_final,
        |_, attempt, (name, run)| {
            if poison
                .as_ref()
                .is_some_and(|(p, k)| p == name && attempt < *k)
            {
                panic!("poisoned by BB_REPRO_POISON (attempt {attempt})");
            }
            if let Some((stall_name, secs)) = &stall {
                if stall_name == name && attempt == 0 {
                    eprintln!("[repro] BB_REPRO_STALL: stalling {name} for {secs}s (attempt 0)");
                    std::thread::sleep(std::time::Duration::from_secs_f64(*secs));
                }
            }
            let (h0, m0, _) = beating_bgp::exec::cache_stats();
            let out = timing::time(&format!("exp:{name}"), run);
            let (h1, m1, _) = beating_bgp::exec::cache_stats();
            let mut map = cache_deltas.lock().unwrap_or_else(|e| e.into_inner());
            let entry = map.entry(*name).or_insert((0, 0));
            entry.0 += h1.saturating_sub(h0) as u64;
            entry.1 += m1.saturating_sub(m0) as u64;
            out
        });
    // Campaign output order, restricted to experiments that actually ran.
    let cache_by_exp: Vec<beating_bgp::bench::ExperimentCacheStats> = {
        let map = cache_deltas.lock().unwrap_or_else(|e| e.into_inner());
        names
            .iter()
            .filter_map(|n| {
                map.get(n).map(|&(hits, misses)| beating_bgp::bench::ExperimentCacheStats {
                    experiment: n.to_string(),
                    hits,
                    misses,
                })
            })
            .collect()
    };
    beating_bgp::measure::progress::reset();

    // A drain that skipped work means the campaign is incomplete: flush the
    // final manifest, say how to pick the run back up, and exit 130 with
    // NOTHING on stdout — partial stdout is worse than none, and the resume
    // path reproduces the full byte-identical output anyway.
    if outcomes.iter().any(|o| o.is_none()) {
        let Some(shared) = &ck_shared else {
            interrupted(
                "INTERRUPTED",
                &[
                    "campaign stopped early with no --checkpoint directory; completed work was \
                   discarded"
                        .to_string(),
                ],
            );
        };
        flush(shared);
        let done = shared
            .1
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .units
            .len();
        let (dir, total) = (shared.0.display(), selected.len());
        let shard = o
            .shard
            .map(|(idx, n)| format!(" --shard {idx}/{n}"))
            .unwrap_or_default();
        let (seed, scale, faults) = (o.seed, o.scale.as_str(), o.faults.as_str());
        interrupted(
            "INTERRUPTED (resumable)",
            &[
                format!("completed {done}/{total} experiments; checkpoint flushed to {dir}"),
                format!(
                    "resume with: repro {experiment} --resume {dir} --seed {seed} --scale {scale} \
                     --faults {faults}{shard}"
                ),
            ],
        );
    }

    // Assemble stdout in selection order: replayed units contribute their
    // cached bytes (and re-write their cached CSV files), fresh units
    // contribute what they just computed.
    let mut computed: std::collections::HashMap<&str, Result<BbResult<UnitResult>, _>> = run_list
        .iter()
        .map(|(n, _)| *n)
        .zip(outcomes)
        .map(|(n, o)| (n, o.expect("non-interrupted run finalizes every unit")))
        .collect();
    let mut stdout = String::new();
    let mut failures: Vec<(&str, String)> = Vec::new();
    for name in &shard_names {
        if let Some(unit) = replay.get(name) {
            stdout.push_str(&unit.stdout);
            if let Some(dir) = &o.csv_dir {
                for (fname, bytes) in &unit.files {
                    if let Err(e) = export::write_atomic_bytes(&dir.join(fname), bytes) {
                        failures.push((name, format!("replaying cached export: {e}")));
                    }
                }
            }
            continue;
        }
        match computed.remove(name).expect("every selected unit ran or replayed") {
            Ok(Ok(unit)) => stdout.push_str(&unit.stdout),
            Ok(Err(e)) => failures.push((name, e.to_string())),
            Err(f) => failures.push((
                name,
                format!(
                    "panicked: {} (final attempt died after {:.3}s)",
                    f.message,
                    f.elapsed.as_secs_f64()
                ),
            )),
        }
    }

    // Diagnostics go to stderr so surviving experiments' stdout stays
    // byte-stable with or without failures elsewhere in the run.
    for (name, message) in &failures {
        eprintln!("=== EXPERIMENT FAILED: {name} ===");
        eprintln!("  {message}");
        eprintln!(
            "  (seed {}, scale {:?}, faults {:?})",
            o.seed, o.scale, o.faults
        );
        eprintln!("=== END {name} ===");
    }
    if !failures.is_empty() && !o.keep_going {
        eprintln!(
            "{} of {} experiments failed; rerun with --keep-going to print survivors",
            failures.len(),
            shard_names.len()
        );
        std::process::exit(1);
    }
    // A shard's stdout is withheld: `repro merge` reassembles the campaign's
    // full output from the manifests, byte-identical to an unsharded run —
    // partial per-shard stdout would only invite accidental concatenation.
    if o.shard.is_none() {
        print!("{stdout}");
    } else if let Some(shared) = &ck_shared {
        eprintln!(
            "[repro] shard complete: {} experiment(s) checkpointed to {}; \
             stitch the shards with `repro merge`",
            shard_names.len(),
            shared.0.display()
        );
    }

    let wall_s = t0.elapsed().as_secs_f64();
    if o.timing {
        eprint!("{}", timing::report());
        if !cache_by_exp.is_empty() {
            eprintln!(
                "route cache by experiment (deltas{}):",
                if beating_bgp::exec::jobs() == 1 {
                    ""
                } else {
                    "; approximate under --jobs > 1"
                }
            );
            for e in &cache_by_exp {
                eprintln!(
                    "  {:<8} hits {:>6}  misses {:>6}  rate {:>5.1}%",
                    e.experiment,
                    e.hits,
                    e.misses,
                    e.hit_rate() * 100.0
                );
            }
        }
        eprintln!(
            "congestion races closed: {}",
            beating_bgp::netsim::materialize_races_closed()
        );
        eprintln!(
            "supervision: {} attempts, {} retries ({} recovered, {} failed, {} replayed)",
            sup_report.attempts,
            sup_report.retries,
            sup_report.count("recovered"),
            sup_report.count("failed"),
            replay.len()
        );
    }
    write_timing_json(o, experiment, wall_s, |r| {
        r.route_cache_by_experiment = cache_by_exp;
        r.supervision = beating_bgp::bench::SupervisionStats {
            attempts: sup_report.attempts,
            retries: sup_report.retries,
            panics_absorbed: sup_report.panics_absorbed,
            recovered: sup_report.count("recovered") as u64,
            failed: sup_report.count("failed") as u64,
            skipped: sup_report.count("skipped") as u64,
            budget_exhausted: sup_report.budget_exhausted,
        };
    });
    if !failures.is_empty() {
        // Partial run under --keep-going: survivors printed, but the run
        // as a whole did not reproduce everything asked of it.
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The synopsis block in the module doc and in the README is the head
    /// of the generated `--help`, so neither can drift from [`FLAGS`].
    #[test]
    fn documented_synopses_match_generated_help() {
        let synopses: String = CMDS
            .iter()
            .flat_map(|c| {
                let head: Vec<String> = help(c)
                    .lines()
                    .take_while(|l| l.starts_with("usage: ") || l.starts_with("       "))
                    .map(|l| format!("{l}\n"))
                    .collect();
                head
            })
            .collect();
        let module_doc: String = include_str!("repro.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .map(|l| format!("{}\n", l.strip_prefix(' ').unwrap_or(l)))
            .collect();
        assert!(
            module_doc.contains(&synopses),
            "module doc is stale:\n{synopses}"
        );
        assert!(
            include_str!("../../README.md").contains(&synopses),
            "README is stale:\n{synopses}"
        );
    }

    /// Two rows with one name for the same subcommand would make the
    /// second unreachable.
    #[test]
    fn no_flag_is_defined_twice_for_one_command() {
        for c in &CMDS {
            let mut names: Vec<&str> = FLAGS
                .iter()
                .filter(|f| f.cmds & c.cmd as u8 != 0)
                .map(|f| f.name)
                .collect();
            let n = names.len();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), n, "duplicate flag for `repro {}`", c.name);
        }
    }
}
