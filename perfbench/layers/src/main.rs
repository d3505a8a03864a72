//! Per-layer replayer of the repository benchmark.
//!
//! ```text
//! bb-perfbench-layers setup --workload W --seed N --scale S
//! bb-perfbench-layers calib
//! bb-perfbench-layers trace --workload W --seed N --scale S --dir D
//!       [--windows W] [--sketch-windows W] [--epsilon E] [--origins K] [--prefixes P]
//! ```
//!
//! `setup` times the workload's world build and spray-engine compile once,
//! from a cold route cache in a fresh process as `repro` pays it, and
//! prints the time as one JSON line. `calib` times a fixed calibration
//! loop. `trace` replays the workload the way `repro`
//! runs it, but through each crate's public functions, timing every call
//! as a named span (`<crate>.<layer>_s`), and prints one JSON line with the
//! span totals, the traced wall time, and the figure text it rendered (the
//! benchmark checks that text against the `repro` run of the same seed).
//!
//! Spans live in the replayer only: where one public call covers two layers
//! (`SprayEngine::new` builds targets and compiles plans; the egress
//! analysis runs the bootstrap), the split comes from the phase timers the
//! program already keeps in `bb_exec::timing`.

use bb_cdn::{AnycastDeployment, EgressController, Tier, TierDeployment};
use bb_core::checkpoint::{CampaignKey, Checkpoint, Heartbeat, UnitResult};
use bb_core::export;
use bb_core::ext::{
    availability, ecs, fabric, grooming, hybrid, peering_reduction, single_network, site_count,
    split_tcp,
};
use bb_core::serve::{ServeMode, ServeState};
use bb_core::snapshot::{ServeKey, Snapshot, SNAPSHOT_NAME};
use bb_core::study_anycast::{self, AnycastStudy};
use bb_core::study_egress::{self, EgressStudy};
use bb_core::study_tiers::{self, TiersStudy};
use bb_core::{calibration, Scale, Scenario, ScenarioConfig};
use bb_measure::{BeaconConfig, ProbeConfig, SprayConfig, SprayDataset, SprayEngine};
use bb_stats::QuantileSketch;
use bb_topology::{AsClass, AsId};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------- tracer --

/// Span totals, keyed by layer name: (seconds, calls).
struct Tracer {
    depth: usize,
    totals: BTreeMap<&'static str, (f64, u64)>,
    /// Time covered by outermost spans.
    root_s: f64,
    /// Time spent building inputs for probes of layers the program path
    /// does not call; excluded from the traced wall.
    probe_s: f64,
}

static TRACE: Mutex<Tracer> = Mutex::new(Tracer {
    depth: 0,
    totals: BTreeMap::new(),
    root_s: 0.0,
    probe_s: 0.0,
});

fn tracer() -> std::sync::MutexGuard<'static, Tracer> {
    TRACE
        .lock()
        .expect("tracer lock poisoned by a panicking span")
}

/// Time `f` as one call of layer `name`. Spans nest; all of them are
/// opened on the replayer's main thread (worker threads only run inside
/// `par_map`, never open spans).
fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let depth = {
        let mut t = tracer();
        t.depth += 1;
        t.depth
    };
    let start = Instant::now();
    let out = f();
    let secs = start.elapsed().as_secs_f64();
    let mut t = tracer();
    t.depth -= 1;
    let e = t.totals.entry(name).or_default();
    e.0 += secs;
    e.1 += 1;
    if depth == 1 {
        t.root_s += secs;
    }
    out
}

/// Record a child span whose duration a program phase timer measured.
fn child(name: &'static str, secs: f64) {
    let mut t = tracer();
    let e = t.totals.entry(name).or_default();
    e.0 += secs;
    e.1 += 1;
}

/// Total seconds the program's own phase timer `label` has accumulated.
fn phase_total(label: &str) -> f64 {
    bb_exec::timing::snapshot()
        .into_iter()
        .find(|(l, _, _)| l == label)
        .map_or(0.0, |(_, s, _)| s)
}

fn counter(label: &str) -> u64 {
    bb_exec::timing::counters()
        .into_iter()
        .find(|(l, _)| l == label)
        .map_or(0, |(_, c)| c)
}

// ----------------------------------------------------------------- args --

struct Args {
    command: String,
    workload: String,
    seed: u64,
    scale: Scale,
    scale_label: String,
    dir: PathBuf,
    windows: u64,
    sketch_windows: u64,
    epsilon: f64,
    origins: usize,
    prefixes: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("bb-perfbench-layers: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        command: argv
            .first()
            .cloned()
            .unwrap_or_else(|| usage("need setup|trace")),
        workload: String::new(),
        seed: 42,
        scale: Scale::Full,
        scale_label: "full".into(),
        dir: PathBuf::new(),
        windows: 0,
        sketch_windows: 0,
        epsilon: 0.0,
        origins: 0,
        prefixes: 0,
    };
    let mut i = 1;
    while i < argv.len() {
        let val = argv
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| usage("flag needs a value"));
        let num = |v: &str| -> u64 { v.parse().unwrap_or_else(|_| usage("bad number")) };
        match argv[i].as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = num(&val),
            "--scale" => {
                args.scale = match val.as_str() {
                    "test" => Scale::Test,
                    "full" => Scale::Full,
                    "planet" => Scale::Planet,
                    _ => usage("scale must be test|full|planet"),
                };
                args.scale_label = val;
            }
            "--dir" => args.dir = PathBuf::from(val),
            "--windows" => args.windows = num(&val),
            "--sketch-windows" => args.sketch_windows = num(&val),
            "--epsilon" => args.epsilon = val.parse().unwrap_or_else(|_| usage("bad epsilon")),
            "--origins" => args.origins = num(&val) as usize,
            "--prefixes" => args.prefixes = num(&val) as usize,
            other => usage(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    args
}

// ---------------------------------------------------------------- worlds --

/// The spray campaign `repro` runs at each scale.
fn spray_cfg(scale: Scale) -> SprayConfig {
    match scale {
        Scale::Test => SprayConfig {
            days: 1.0,
            window_stride: 8,
            ..Default::default()
        },
        Scale::Full => SprayConfig::default(),
        Scale::Large => SprayConfig {
            window_stride: 8,
            ..Default::default()
        },
        Scale::Planet => SprayConfig {
            days: 1.0,
            window_stride: 16,
            sessions_per_window: 5,
            ..Default::default()
        },
    }
}

/// `Scenario::try_build` for a generated world, one span per layer.
fn world(config: ScenarioConfig) -> Scenario {
    let mut topo = span("topology.generate_s", || {
        bb_topology::generate(&config.topology)
    });
    if config.exit_fidelity_factor < 1.0 {
        let ids: Vec<_> = topo
            .ases()
            .iter()
            .map(|a| (a.id, a.exit_fidelity))
            .collect();
        for (id, f) in ids {
            topo.set_exit_fidelity(id, f * config.exit_fidelity_factor);
        }
    }
    let provider = span("cdn.build_provider_s", || {
        bb_cdn::build_provider(&mut topo, &config.provider)
    });
    let workload = span("workload.generate_s", || {
        bb_workload::generate_workload(&topo, &config.workload)
    });
    let congestion =
        bb_netsim::CongestionModel::new(config.seed ^ 0x_c01d, config.congestion.clone());
    Scenario {
        config,
        topo,
        provider,
        workload,
        congestion,
        faults: None,
    }
}

/// Propagate (through the process-wide route cache) the full tables the
/// spray targets of `workload` need: one per distinct client AS, the same
/// calls `build_targets` makes, made first so they time as the BGP layer.
fn warm_routes(scn: &Scenario, workload: &bb_workload::Workload) {
    let mut seen = std::collections::HashSet::new();
    let asns: Vec<AsId> = workload
        .prefixes
        .iter()
        .map(|p| p.asn)
        .filter(|a| seen.insert(*a))
        .collect();
    span("bgp.compute_routes_s", || {
        bb_exec::par_map(&asns, |_, &asn| {
            let ann = bb_bgp::Announcement::full(&scn.topo, asn);
            bb_exec::cached_routes(&scn.topo, &ann);
        })
    });
}

/// `SprayEngine::new`, split into target building and plan compilation by
/// the engine's own phase timers.
fn engine(scn: &Scenario, workload: &bb_workload::Workload, cfg: &SprayConfig) -> SprayEngine {
    let (t0, p0) = (phase_total("spray:targets"), phase_total("spray:plan"));
    let engine = span("measure.engine_new_s", || {
        SprayEngine::new(&scn.topo, &scn.provider, workload, &scn.congestion, cfg)
    });
    child("measure.build_targets_s", phase_total("spray:targets") - t0);
    child("netsim.plan_compile_s", phase_total("spray:plan") - p0);
    engine
}

/// `study_egress::analyze`, with the bootstrap split out by its timer.
fn analyze(scn: &Scenario, cfg: &SprayConfig, dataset: SprayDataset) -> EgressStudy {
    let b0 = phase_total("egress:fig1-ci");
    let study = span("stats.egress_analyze_s", || {
        study_egress::analyze(scn, cfg, dataset)
    })
    .expect("egress analysis of a fault-free campaign");
    child("stats.bootstrap_s", phase_total("egress:fig1-ci") - b0);
    study
}

/// `study_egress::run`, layer by layer.
fn egress_study(scn: &Scenario, scale: Scale) -> EgressStudy {
    span("core.study_egress_s", || {
        let cfg = SprayConfig {
            targets_memo: Some(scn.config.world_key()),
            ..spray_cfg(scale)
        };
        let engine = engine(scn, &scn.workload, &cfg);
        let windows = engine.batch_windows();
        let per_target = span("measure.sample_windows_s", || {
            engine.sample_windows(&windows, None)
        });
        let dataset = SprayDataset {
            rows: per_target.into_iter().flatten().collect(),
            targets: engine.into_targets(),
        };
        analyze(scn, &cfg, dataset)
    })
}

/// `study_anycast::run`, layer by layer.
fn anycast_study(scn: &Scenario, beacon: &BeaconConfig) -> AnycastStudy {
    span("core.study_anycast_s", || {
        let sites = scn.provider.pops.clone();
        let anycast = AnycastDeployment::deploy(&scn.topo, &scn.provider, &sites);
        let unicast =
            bb_measure::beacon::build_unicast_deployments(&scn.topo, &scn.provider, &sites);
        let m = span("measure.run_beacons_s", || {
            bb_measure::run_beacons(
                &scn.topo,
                &scn.provider,
                &anycast,
                &unicast,
                &scn.workload,
                &scn.congestion,
                None,
                beacon,
            )
        });
        study_anycast::analyze(scn, m).expect("anycast analysis of a fault-free campaign")
    })
}

/// `study_tiers::run`, layer by layer.
fn tiers_study(scn: &Scenario) -> TiersStudy {
    span("core.study_tiers_s", || {
        let (us, _) = bb_geo::country::by_code("US").expect("US exists");
        let us_metro = scn.topo.atlas.main_metro(us).id;
        let dc = if scn.provider.has_pop(us_metro) {
            us_metro
        } else {
            scn.provider.pops[0]
        };
        let premium = TierDeployment::deploy(&scn.topo, &scn.provider, dc, Tier::Premium);
        let standard = TierDeployment::deploy(&scn.topo, &scn.provider, dc, Tier::Standard);
        let vps = bb_measure::select_vantage_points(&scn.topo, scn.config.seed ^ 0x_77);
        let probes = span("measure.probe_tiers_s", || {
            bb_measure::probe_tiers(
                &scn.topo,
                &scn.provider,
                &premium,
                &standard,
                &vps,
                &scn.congestion,
                None,
                &ProbeConfig::default(),
            )
        });
        study_tiers::analyze(scn, dc, vps, probes).expect("tiers analysis of a fault-free campaign")
    })
}

// ------------------------------------------------------------- workloads --

/// Output of a traced run: figure text to check against `repro`.
type Renders = Vec<String>;

/// `repro all --jobs 1 --csv DIR --checkpoint DIR`: every experiment in
/// output order, each unit recorded and flushed to the checkpoint, with
/// the same window-granular heartbeat/flush hooks.
fn full_campaign(a: &Args) -> Renders {
    let (seed, scale) = (a.seed, a.scale);
    let csv_dir = a.dir.join("csv");
    let ck_dir = a.dir.join("ck");
    std::fs::create_dir_all(&csv_dir).expect("create csv dir");
    std::fs::create_dir_all(&ck_dir).expect("create checkpoint dir");
    let names = [
        "calib", "fig1", "fig2", "s311", "fig3", "fig4", "fig5", "goodput", "xonenet", "xpeer",
        "xgroom", "xsites", "xecs", "xavail", "xhybrid", "xfabric", "xablate", "xsplit",
    ];
    let key = CampaignKey::new(seed, a.scale_label.clone(), "off", names.join(","), true);
    let ck = Arc::new(Mutex::new(Checkpoint::new(key)));
    let units = Arc::new(AtomicU64::new(0));
    let beat = {
        let (dir, units) = (ck_dir.clone(), Arc::clone(&units));
        move || {
            let hb = Heartbeat::now(
                bb_measure::progress::windows_done(),
                units.load(Ordering::Relaxed),
            );
            span("core.heartbeat_save_s", || hb.save(&dir)).expect("heartbeat save");
        }
    };
    let flush = {
        let (dir, ck) = (ck_dir.clone(), Arc::clone(&ck));
        move || {
            let mut c = ck.lock().expect("checkpoint lock");
            c.windows_done = bb_measure::progress::windows_done();
            span("core.checkpoint_save_s", || c.save(&dir)).expect("checkpoint save");
        }
    };
    beat();
    {
        let (beat, flush) = (beat.clone(), flush.clone());
        bb_measure::progress::set_hook(
            2_048,
            Arc::new(move |n| {
                beat();
                if n % 32_768 == 0 {
                    flush();
                }
            }),
        );
    }
    let finish = |name: &str, stdout: String, files: Vec<(String, Vec<u8>)>| {
        ck.lock()
            .expect("checkpoint lock")
            .record(name, UnitResult { stdout, files });
        units.fetch_add(1, Ordering::Relaxed);
        flush();
        beat();
    };
    let csv = |name: &str, bytes: Vec<u8>| -> Vec<(String, Vec<u8>)> {
        span("core.csv_write_s", || {
            export::write_atomic_bytes(&csv_dir.join(name), &bytes)
        })
        .expect("csv write");
        vec![(name.to_string(), bytes)]
    };
    let rows = |title: &str, rows: Vec<String>| {
        let mut out = format!("{title}\n");
        for r in rows {
            writeln!(out, "{r}").expect("write to String");
        }
        out
    };
    let ext = |f: &mut dyn FnMut() -> String| span("core.extensions_s", f);

    let fb = world(ScenarioConfig::facebook(seed, scale));
    warm_routes(&fb, &fb.workload);
    let out = ext(&mut || calibration::run(&fb).render());
    finish("calib", out, Vec::new());
    let egress = egress_study(&fb, scale);
    finish(
        "fig1",
        egress.fig1.render(),
        csv("fig1.csv", export::fig1_csv_bytes(&egress.fig1)),
    );
    finish(
        "fig2",
        egress.fig2.render(),
        csv("fig2.csv", export::fig2_csv_bytes(&egress.fig2)),
    );
    finish("s311", egress.episodes.render(), Vec::new());
    let ms = world(ScenarioConfig::microsoft(seed, scale));
    let anycast = anycast_study(&ms, &BeaconConfig::default());
    finish(
        "fig3",
        anycast.fig3.render(),
        csv("fig3.csv", export::fig3_csv_bytes(&anycast.fig3)),
    );
    finish(
        "fig4",
        anycast.fig4.render(),
        csv("fig4.csv", export::fig4_csv_bytes(&anycast.fig4)),
    );
    let gg = world(ScenarioConfig::google(seed, scale));
    let tiers = tiers_study(&gg);
    finish(
        "fig5",
        tiers.fig5.render(),
        csv("fig5.csv", export::fig5_csv_bytes(&tiers.fig5)),
    );
    finish(
        "goodput",
        format!("{:+.2}", tiers.goodput_diff_s),
        Vec::new(),
    );

    let out = ext(&mut || {
        rows(
            "X-ONENET",
            single_network::run(&gg, None)
                .iter()
                .map(|b| b.render_row())
                .collect(),
        )
    });
    finish("xonenet", out, Vec::new());
    let out = ext(&mut || {
        let base = ScenarioConfig::facebook(seed, scale);
        let steps = peering_reduction::run(&base, &[0.05, 0.12, 0.3, 0.6, 1.1]);
        rows("X-PEER", steps.iter().map(|s| s.render_row()).collect())
    });
    finish("xpeer", out, Vec::new());
    let out = ext(&mut || {
        let mut r: Vec<String> = grooming::run(&ms, seed ^ 0x_9700, 12)
            .iter()
            .map(|s| s.render_row())
            .collect();
        r.push(grooming::groomed_baseline(&ms).render_row());
        rows("X-GROOM", r)
    });
    finish("xgroom", out, Vec::new());
    let out = ext(&mut || {
        let pts = site_count::run(&ms, &[1, 2, 4, 8, 16, 32, 64]);
        rows("X-SITES", pts.iter().map(|p| p.render_row()).collect())
    });
    finish("xsites", out, Vec::new());
    let out = ext(&mut || {
        let pts = ecs::run(&ms, &BeaconConfig::default(), &[0.0, 0.25, 0.5, 1.0])
            .expect("ecs sweep of a fault-free world");
        rows("X-ECS", pts.iter().map(|p| p.render_row()).collect())
    });
    finish("xecs", out, Vec::new());
    let out = ext(&mut || {
        availability::run(&ms, seed ^ 0x_a1a, &availability::RecoveryConfig::default()).render()
    });
    finish("xavail", out, Vec::new());
    let out = ext(&mut || {
        let s = hybrid::run(&ms, &BeaconConfig::default(), 10.0);
        rows("X-HYBRID", s.iter().map(|s| s.render_row()).collect())
    });
    finish("xhybrid", out, Vec::new());
    let out = ext(&mut || fabric::evaluate(&egress.dataset, &EgressController::default()).render());
    finish("xfabric", out, Vec::new());

    // xablate: two congestion arms of the egress study and two
    // exit-fidelity arms of the anycast study, each on a fresh world.
    let mut out = String::from("X-ABLATE\n");
    for (metro, lastmile, link, independent) in [(0.10, 0.35, 0.25, false), (0.0, 0.0, 2.0, true)] {
        let mut cfg = ScenarioConfig::facebook(seed, scale);
        cfg.congestion.metro_events_per_day = metro;
        cfg.congestion.lastmile_events_per_day = lastmile;
        cfg.congestion.link_events_per_day = link;
        if independent {
            cfg.congestion.event_duration_mean_min = 90.0;
            cfg.congestion.event_severity = (0.35, 0.7);
        }
        let scn = world(cfg);
        warm_routes(&scn, &scn.workload);
        let study = egress_study(&scn, scale);
        writeln!(out, "{:.1}", study.fig1.frac_improvable_5ms * 100.0).expect("write to String");
    }
    for factor in [0.72_f64, 1.0] {
        let mut cfg = ScenarioConfig::microsoft(seed, scale);
        cfg.exit_fidelity_factor = factor;
        let scn = world(cfg);
        let study = anycast_study(
            &scn,
            &BeaconConfig {
                rounds: 4,
                ..Default::default()
            },
        );
        writeln!(out, "{:.1}", study.fig3.frac_within_10ms * 100.0).expect("write to String");
    }
    finish("xablate", out, Vec::new());
    let out = ext(&mut || {
        let r = [30e3, 300e3, 3e6].map(|b| split_tcp::run(&gg, b, None).render());
        r.join("\n")
    });
    finish("xsplit", out, Vec::new());
    bb_measure::progress::reset();

    vec![
        egress.fig1.render(),
        egress.fig2.render(),
        anycast.fig3.render(),
        anycast.fig4.render(),
        tiers.fig5.render(),
    ]
}

/// `repro propagate --scale planet --jobs 2 --origins K --prefixes P`.
fn planet_propagate(a: &Args) -> Renders {
    let scn = world(ScenarioConfig::facebook(a.seed, a.scale));
    let topo = &scn.topo;
    let eyeballs: Vec<AsId> = topo.ases_of_class(AsClass::Eyeball).map(|n| n.id).collect();
    let k = a.origins.min(eyeballs.len());
    let picks: Vec<AsId> = (0..k).map(|i| eyeballs[i * eyeballs.len() / k]).collect();
    let stride = (topo.as_count() / 4096).max(1);
    let reports = span("bgp.compute_routes_s", || {
        bb_exec::par_map(&picks, |_, &asn| {
            let table = bb_exec::cached_routes(topo, &bb_bgp::Announcement::full(topo, asn));
            let mut sampled = 0usize;
            let mut bad = 0usize;
            for node in topo.ases().iter().step_by(stride) {
                match table.as_path(node.id) {
                    Some(path) => {
                        sampled += 1;
                        bad += usize::from(!bb_bgp::valley_free(topo, &path));
                    }
                    None => bad += 1,
                }
            }
            (table.reachable_count(), sampled, bad)
        })
    });
    let (mut sampled, mut bad, mut unreachable) = (0, 0, 0);
    for &(reach, s, b) in &reports {
        sampled += s;
        bad += b;
        unreachable += topo.as_count() - reach;
    }
    let mut workload = scn.workload.clone();
    let p = a.prefixes.min(workload.prefixes.len());
    workload.prefixes.truncate(p);
    workload.prefix_ldns.truncate(p);
    warm_routes(&scn, &workload);
    let cfg = spray_cfg(a.scale);
    let engine = engine(&scn, &workload, &cfg);
    let windows = engine.batch_windows();
    let per_target = span("measure.sample_windows_s", || {
        engine.sample_windows(&windows, None)
    });
    let route_samples: u64 = per_target
        .iter()
        .flatten()
        .map(|r| r.route_samples.iter().map(|&s| u64::from(s)).sum::<u64>())
        .sum();
    let rows: usize = per_target.iter().map(Vec::len).sum();
    vec![
        format!(
            "valley-free: {sampled} sampled paths, {bad} violations, {unreachable} unreachable\n"
        ),
        format!(
            "spray slice: {p} prefixes -> {} targets, {rows} window rows, {route_samples} route samples\n",
            engine.targets().len()
        ),
    ]
}

/// The `repro serve` epoch loop from `state` up to `total` windows:
/// sample, ingest, encode, snapshot, heartbeat, once per 32-window epoch.
fn serve_epochs(
    engine: &SprayEngine,
    state: &mut ServeState,
    key: &ServeKey,
    dir: &Path,
    total: u64,
    mut epochs: u64,
    merged: &mut Option<Vec<QuantileSketch>>,
) {
    const EPOCH: u64 = 32;
    let sketch = matches!(state.mode(), ServeMode::Sketch { .. });
    while state.windows_done() < total {
        let lo = state.windows_done();
        let hi = (lo + EPOCH).min(total);
        let chunk: Vec<bb_netsim::Window> = (lo..hi).map(|i| engine.window_at(i)).collect();
        let per_target = span("measure.sample_windows_s", || {
            engine.sample_windows(&chunk, None)
        });
        if let Some(merged) = merged.as_mut() {
            merge_probe(&per_target, merged, state.mode().eps());
        }
        if sketch {
            span("stats.sketch_ingest_s", || {
                state.ingest(per_target, hi - lo)
            });
        } else {
            state.ingest(per_target, hi - lo);
        }
        epochs += 1;
        let blob = span("core.snapshot_encode_s", || state.encode());
        let snap = Snapshot {
            key: key.clone(),
            windows_done: state.windows_done(),
            epochs,
            coarsenings: 0,
            state: blob,
        };
        span("core.snapshot_save_s", || snap.save(dir)).expect("snapshot save");
        let hb = Heartbeat::now(state.windows_done(), epochs);
        span("core.heartbeat_save_s", || hb.save(dir)).expect("heartbeat save");
    }
}

/// Probe of the sketch merge layer, which the serve path never calls: fold
/// each epoch's per-target preferred-minus-best-alternate diffs (the rows
/// `ServeState::ingest` sketches) into a chunk sketch, then time merging
/// it into the campaign sketch. Building the chunk counts as probe time.
fn merge_probe(per_target: &[Vec<bb_measure::WindowRow>], merged: &mut [QuantileSketch], eps: f64) {
    let start = Instant::now();
    let chunks: Vec<QuantileSketch> = per_target
        .iter()
        .map(|rows| {
            let mut s = QuantileSketch::new(eps);
            for row in rows.iter().filter(|r| r.route_median_ms.len() >= 2) {
                let best_alt = bb_stats::min_finite(row.route_median_ms[1..].iter().copied());
                let diff = row.route_median_ms[0] - best_alt;
                if diff.is_finite() {
                    s.add(diff, 1.0);
                }
            }
            s
        })
        .collect();
    tracer().probe_s += start.elapsed().as_secs_f64();
    let start = Instant::now();
    for (m, c) in merged.iter_mut().zip(&chunks) {
        m.merge(c);
    }
    let secs = start.elapsed().as_secs_f64();
    child("stats.sketch_merge_s", secs);
    tracer().probe_s += secs;
}

/// One `repro serve --dir D --jobs 1 [--epsilon E] --windows W` process,
/// resuming from the snapshot in `dir` when one is there. A fresh process
/// starts with a cold route cache, so this leg does too.
fn serve_leg(a: &Args, dir: &Path, windows: u64, epsilon: f64) -> String {
    std::fs::create_dir_all(dir).expect("create serve dir");
    bb_exec::clear_route_cache();
    let scn = world(ScenarioConfig::facebook(a.seed, a.scale));
    warm_routes(&scn, &scn.workload);
    // No target memo: the memo is process-wide, and each leg of `repro`
    // is a fresh process that builds its targets.
    let cfg = spray_cfg(a.scale);
    let engine = engine(&scn, &scn.workload, &cfg);
    let route_counts: Vec<usize> = engine.targets().iter().map(|t| t.routes.len()).collect();
    let mode = ServeMode::from_eps(epsilon);
    let key = ServeKey::new(a.seed, a.scale_label.clone(), "off", epsilon, 32, false);
    let (mut state, epochs) = if dir.join(SNAPSHOT_NAME).exists() {
        span("core.snapshot_load_s", || {
            let snap = Snapshot::load(dir).expect("snapshot load");
            snap.validate(&key).expect("snapshot key");
            (
                ServeState::decode(&snap.state).expect("snapshot state"),
                snap.epochs,
            )
        })
    } else {
        (ServeState::new(mode, &route_counts), 0)
    };
    let mut merged = match mode {
        ServeMode::Sketch { .. } => Some(
            route_counts
                .iter()
                .map(|_| QuantileSketch::new(epsilon))
                .collect(),
        ),
        ServeMode::Exact => None,
    };
    serve_epochs(&engine, &mut state, &key, dir, windows, epochs, &mut merged);
    match mode {
        ServeMode::Exact => {
            let rows = state.into_rows().expect("exact state keeps rows");
            let dataset = SprayDataset {
                targets: engine.into_targets(),
                rows,
            };
            let cfg = SprayConfig {
                targets_memo: Some(scn.config.world_key()),
                ..cfg
            };
            format!("{}\n", analyze(&scn, &cfg, dataset).fig1.render())
        }
        ServeMode::Sketch { .. } => {
            let fig = state.sketch_fig1(engine.targets()).expect("sketch figure");
            let mut s = fig.render();
            s.push_str(&state.sketch_disclosure().expect("sketch mode discloses"));
            s.push('\n');
            s
        }
    }
}

/// Build every world (and spray engine) the workload builds, from a cold
/// route cache; returns seconds. The planet workload's set-up is its world.
fn setup_once(a: &Args) -> f64 {
    bb_exec::clear_route_cache();
    let start = Instant::now();
    let cfg = SprayConfig {
        targets_memo: None,
        ..spray_cfg(a.scale)
    };
    let build = |c: ScenarioConfig| Scenario::try_build(c).expect("world build");
    match a.workload.as_str() {
        "planet-propagate" => drop(std::hint::black_box(build(ScenarioConfig::facebook(
            a.seed, a.scale,
        )))),
        "full-campaign" | "serve" => {
            let fb = build(ScenarioConfig::facebook(a.seed, a.scale));
            let e = SprayEngine::new(&fb.topo, &fb.provider, &fb.workload, &fb.congestion, &cfg);
            std::hint::black_box(e.targets().len());
            if a.workload == "full-campaign" {
                std::hint::black_box(build(ScenarioConfig::microsoft(a.seed, a.scale)));
                std::hint::black_box(build(ScenarioConfig::google(a.seed, a.scale)));
            }
        }
        w => usage(&format!("unknown workload {w}")),
    }
    start.elapsed().as_secs_f64()
}

/// Nanoseconds for a fixed integer/float loop: a machine-speed reference
/// recorded beside every run so drift between two sets of runs shows.
fn calib_ns() -> f64 {
    let mut best = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let (mut x, mut acc) = (0x_9e37_79b9_7f4a_7c15_u64, 0.0_f64);
        for _ in 0..std::hint::black_box(20_000_000u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += (x >> 11) as f64 * 1e-16;
        }
        std::hint::black_box((x, acc));
        best.push(start.elapsed().as_nanos() as f64);
    }
    median(&mut best)
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let a = parse_args();
    match a.command.as_str() {
        "setup" => {
            bb_exec::set_jobs(if a.workload == "planet-propagate" {
                2
            } else {
                1
            });
            println!("{{\"setup_s\": {:.9}}}", setup_once(&a));
        }
        "calib" => println!("{{\"calib_ns\": {:.1}}}", calib_ns()),
        "trace" => {
            bb_exec::set_jobs(if a.workload == "planet-propagate" {
                2
            } else {
                1
            });
            std::fs::create_dir_all(&a.dir).expect("create work dir");
            let start = Instant::now();
            let renders = match a.workload.as_str() {
                "full-campaign" => full_campaign(&a),
                "planet-propagate" => planet_propagate(&a),
                "serve" => {
                    let exact = a.dir.join("exact");
                    serve_leg(&a, &exact, a.windows / 2, 0.0);
                    vec![
                        serve_leg(&a, &exact, a.windows, 0.0),
                        serve_leg(&a, &a.dir.join("sketch"), a.sketch_windows, a.epsilon),
                    ]
                }
                w => usage(&format!("unknown workload {w}")),
            };
            let elapsed = start.elapsed().as_secs_f64();
            let t = tracer();
            let spans: Vec<String> = t
                .totals
                .iter()
                .map(|(name, (s, calls))| format!("{}: [{s:.9}, {calls}]", json_str(name)))
                .collect();
            let renders: Vec<String> = renders.iter().map(|r| json_str(r)).collect();
            println!(
                "{{\"wall_s\": {:.9}, \"root_s\": {:.9}, \"spans\": {{{}}}, \
                 \"samples_spray\": {}, \"renders\": [{}]}}",
                elapsed - t.probe_s,
                t.root_s,
                spans.join(", "),
                counter("samples:spray"),
                renders.join(", ")
            );
        }
        other => usage(&format!("unknown command {other}")),
    }
}
