//! Bing-style client beacons (§2.3.2, §3.2).
//!
//! "This earlier work instrumented millions of Bing search results with
//! JavaScript to measure from the client to both the anycast address and to
//! a number of nearby unicast addresses." Each beacon measurement therefore
//! carries, for one client prefix at one time, the anycast RTT plus the RTT
//! to the N unicast front-ends nearest the client.

use bb_cdn::{AnycastDeployment, Provider};
use bb_geo::{CityId, Region};
use bb_netsim::{
    sample_min_rtt, CongestionKey, CongestionModel, CongestionPlan, FaultPlane, PathPlan,
    RttModel, SimTime,
};
use bb_topology::Topology;
use bb_workload::{PrefixId, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// Front-end processing time added to every request, ms.
pub const FRONTEND_PROCESS_MS: f64 = 0.5;

/// Beacon campaign configuration.
#[derive(Debug, Clone)]
pub struct BeaconConfig {
    pub seed: u64,
    /// Unicast front-ends measured per client (paper: "a number of nearby
    /// unicast addresses").
    pub n_nearest_unicast: usize,
    /// Measurement rounds (each at a different time of day).
    pub rounds: usize,
    /// Hours between rounds.
    pub round_spacing_h: f64,
    /// Jittered RTT samples per measurement.
    pub samples: usize,
}

impl Default for BeaconConfig {
    fn default() -> Self {
        Self {
            seed: 0x_000b_eac0,
            n_nearest_unicast: 4,
            rounds: 8,
            round_spacing_h: 7.0, // co-prime with 24h: sweeps the day
            samples: 3,
        }
    }
}

/// One beacon observation: a client prefix's side-by-side measurements.
#[derive(Debug, Clone)]
pub struct BeaconMeasurement {
    pub prefix: PrefixId,
    pub weight: f64,
    pub region: Region,
    pub time: SimTime,
    pub anycast_rtt_ms: f64,
    /// Which front-end anycast landed on.
    pub anycast_front_end: CityId,
    /// (site, RTT) for the measured nearby unicast front-ends.
    pub unicast_rtt_ms: Vec<(CityId, f64)>,
}

impl BeaconMeasurement {
    /// RTT of the best measured unicast front-end. Beacons lost to the
    /// fault plane carry `NaN` and are skipped; with *every* unicast beacon
    /// lost this is `NaN` (and the measurement is incomplete).
    pub fn best_unicast_ms(&self) -> f64 {
        bb_stats::min_finite(self.unicast_rtt_ms.iter().map(|&(_, r)| r))
    }

    /// Whether both sides of the comparison survived the fault plane: the
    /// anycast beacon reported and at least one unicast beacon did too.
    pub fn is_complete(&self) -> bool {
        self.anycast_rtt_ms.is_finite() && self.best_unicast_ms().is_finite()
    }

    /// Paper's Fig 3 quantity: anycast − best unicast (positive = anycast
    /// slower). `NaN` when the measurement is incomplete.
    pub fn anycast_penalty_ms(&self) -> f64 {
        self.anycast_rtt_ms - self.best_unicast_ms()
    }
}

/// Run a beacon campaign against an anycast deployment plus per-site
/// unicast deployments.
///
/// `unicast` maps each site to its single-site deployment (built once by
/// the caller; they're reused across rounds and clients).
pub fn run_beacons(
    topo: &Topology,
    provider: &Provider,
    anycast: &AnycastDeployment,
    unicast: &HashMap<CityId, AnycastDeployment>,
    workload: &Workload,
    congestion: &CongestionModel,
    faults: Option<&FaultPlane>,
    cfg: &BeaconConfig,
) -> Vec<BeaconMeasurement> {
    let rtt_model = RttModel::default();

    // One task per prefix; the RNG is keyed on (seed, prefix id, round), so
    // output is identical for every worker count, and the in-order flatten
    // reproduces the sequential prefix-major row order.
    let per_prefix = bb_exec::par_map(&workload.prefixes, |_, prefix| {
        let lastmile = CongestionKey::LastMile(prefix.id.lastmile_code());
        // Cache the services once per prefix (routing is static).
        let any_svc = anycast.serve(topo, provider, prefix.asn, prefix.city)?;
        // Nearby sites: by great-circle distance from the client.
        let mut sites: Vec<(CityId, f64)> = anycast
            .sites
            .iter()
            .map(|&s| {
                (
                    s,
                    topo.atlas
                        .city(s)
                        .location
                        .distance_km(&topo.atlas.city(prefix.city).location),
                )
            })
            .collect();
        sites.sort_by(|a, b| a.1.total_cmp(&b.1));
        let uni_svcs: Vec<(CityId, _)> = sites
            .iter()
            .take(cfg.n_nearest_unicast)
            .filter_map(|&(s, _)| {
                unicast
                    .get(&s)
                    .and_then(|dep| dep.serve(topo, provider, prefix.asn, prefix.city))
                    .map(|svc| (s, svc))
            })
            .collect();
        if uni_svcs.is_empty() {
            return None;
        }

        // Compile each service's path once; rounds then query the plans.
        let cplan = CongestionPlan::new(congestion);
        let compile = |svc: &bb_cdn::anycast::ClientService| {
            cplan.compile_path(topo, &svc.path, Some(lastmile))
        };
        let any_plan = compile(&any_svc);
        let uni_plans: Vec<(CityId, PathPlan, f64)> = uni_svcs
            .iter()
            .map(|(s, svc)| (*s, compile(svc), svc.wan_extra_ms))
            .collect();

        let mut tally = crate::FaultTally::default();
        let mut rows = Vec::with_capacity(cfg.rounds);
        for round in 0..cfg.rounds {
            let t = SimTime::from_hours(round as f64 * cfg.round_spacing_h);
            let (anycast_rtt_ms, unicast_rtt_ms) = match faults {
                None => {
                    let mut rng = StdRng::seed_from_u64(
                        cfg.seed ^ (prefix.id.0 as u64) << 20 ^ round as u64,
                    );
                    let measure = |plan: &PathPlan, wan_extra_ms: f64, rng: &mut StdRng| {
                        let det = plan.rtt_ms(t) + 2.0 * wan_extra_ms + FRONTEND_PROCESS_MS;
                        sample_min_rtt(det, &rtt_model, cfg.samples, rng)
                    };
                    let any = measure(&any_plan, any_svc.wan_extra_ms, &mut rng);
                    let uni: Vec<(CityId, f64)> = uni_plans
                        .iter()
                        .map(|(s, plan, wan)| (*s, measure(plan, *wan, &mut rng)))
                        .collect();
                    (any, uni)
                }
                Some(fp) => {
                    // Beacons lost to the fault plane report NaN; the row
                    // is still emitted so analysis can count coverage.
                    // `fe_tag` identifies the front-end (u64::MAX =
                    // anycast); churn is keyed per ⟨prefix, front-end⟩
                    // route, loss per ⟨route, round⟩ beacon.
                    let fe_measure = |plan: &PathPlan,
                                          wan_extra_ms: f64,
                                          fe_tag: u64,
                                          tally: &mut crate::FaultTally| {
                        let route_key =
                            FaultPlane::stream_key(&[prefix.id.0 as u64, fe_tag]);
                        if fp.route_withdrawn(route_key, t) {
                            tally.lost += 1;
                            return f64::NAN;
                        }
                        let probe_key = FaultPlane::stream_key(&[route_key, round as u64]);
                        crate::faulted_attempts(fp, probe_key, tally, |attempt| {
                            let ta = t + attempt as f64 * fp.config().retry_backoff_min;
                            let mut rng = StdRng::seed_from_u64(bb_exec::derive_seed(
                                cfg.seed ^ probe_key,
                                attempt as u64,
                            ));
                            let det =
                                plan.rtt_ms(ta) + 2.0 * wan_extra_ms + FRONTEND_PROCESS_MS;
                            sample_min_rtt(det, &rtt_model, cfg.samples, &mut rng)
                        })
                        .unwrap_or(f64::NAN)
                    };
                    let any =
                        fe_measure(&any_plan, any_svc.wan_extra_ms, u64::MAX, &mut tally);
                    let uni: Vec<(CityId, f64)> = uni_plans
                        .iter()
                        .map(|(s, plan, wan)| {
                            (*s, fe_measure(plan, *wan, s.0 as u64, &mut tally))
                        })
                        .collect();
                    (any, uni)
                }
            };

            rows.push(BeaconMeasurement {
                prefix: prefix.id,
                weight: prefix.weight,
                region: topo.atlas.city(prefix.city).region,
                time: t,
                anycast_rtt_ms,
                anycast_front_end: any_svc.front_end,
                unicast_rtt_ms,
            });
            crate::progress::window_done();
        }
        Some((rows, tally))
    });
    let mut tally = crate::FaultTally::default();
    let mut measurements: Vec<BeaconMeasurement> = Vec::new();
    for (prefix_rows, prefix_tally) in per_prefix.into_iter().flatten() {
        measurements.extend(prefix_rows);
        tally.merge(prefix_tally);
    }
    if faults.is_some() {
        tally.publish();
    }
    let draws: usize = measurements.iter().map(|m| 1 + m.unicast_rtt_ms.len()).sum();
    bb_exec::timing::add_count("samples:beacon", draws * cfg.samples);
    measurements
}

/// Build the per-site unicast deployments for a set of sites.
pub fn build_unicast_deployments(
    topo: &Topology,
    provider: &Provider,
    sites: &[CityId],
) -> HashMap<CityId, AnycastDeployment> {
    bb_exec::par_map(sites, |_, &s| (s, AnycastDeployment::unicast(topo, provider, s)))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_cdn::{build_provider, ProviderConfig};
    use bb_netsim::CongestionConfig;
    use bb_topology::{generate, TopologyConfig};
    use bb_workload::{generate_workload, WorkloadConfig};

    fn campaign() -> (Topology, Vec<BeaconMeasurement>) {
        let mut topo = generate(&TopologyConfig::small(91));
        let provider = build_provider(&mut topo, &ProviderConfig::microsoft_like(9));
        let workload = generate_workload(&topo, &WorkloadConfig::default());
        let congestion = CongestionModel::new(9, CongestionConfig::default());
        let sites = provider.pops.clone();
        let anycast = AnycastDeployment::deploy(&topo, &provider, &sites);
        let unicast = build_unicast_deployments(&topo, &provider, &sites);
        let cfg = BeaconConfig {
            rounds: 2,
            ..Default::default()
        };
        let ms = run_beacons(
            &topo, &provider, &anycast, &unicast, &workload, &congestion, None, &cfg,
        );
        (topo, ms)
    }

    #[test]
    fn beacons_cover_most_prefixes() {
        let _ticks = crate::progress::test_lock();
        let (_, ms) = campaign();
        assert!(!ms.is_empty());
        let prefixes: std::collections::HashSet<_> = ms.iter().map(|m| m.prefix).collect();
        assert!(prefixes.len() > 50, "got {}", prefixes.len());
    }

    #[test]
    fn measurements_are_positive_and_bounded() {
        let _ticks = crate::progress::test_lock();
        let (_, ms) = campaign();
        for m in &ms {
            assert!(m.anycast_rtt_ms > 0.0 && m.anycast_rtt_ms < 1000.0);
            for &(_, r) in &m.unicast_rtt_ms {
                assert!(r > 0.0 && r < 1500.0);
            }
            assert!(m.best_unicast_ms().is_finite());
        }
    }

    #[test]
    fn anycast_mostly_close_to_best_unicast() {
        let _ticks = crate::progress::test_lock();
        // §3.2.1's headline: "most of the time, anycast performs as well as
        // the best possible unicast front-end". With everything announcing
        // everywhere, the catchment is usually the nearby site.
        let (_, ms) = campaign();
        let close = ms
            .iter()
            .filter(|m| m.anycast_penalty_ms() < 10.0)
            .count();
        assert!(
            close * 10 >= ms.len() * 5,
            "anycast within 10ms for {close}/{}",
            ms.len()
        );
    }

    #[test]
    fn unicast_count_respects_config() {
        let _ticks = crate::progress::test_lock();
        let (_, ms) = campaign();
        for m in &ms {
            assert!(m.unicast_rtt_ms.len() <= 4);
            assert!(!m.unicast_rtt_ms.is_empty());
        }
    }

    #[test]
    fn rounds_have_distinct_times() {
        let _ticks = crate::progress::test_lock();
        let (_, ms) = campaign();
        let times: std::collections::HashSet<u64> =
            ms.iter().map(|m| m.time.minutes().to_bits()).collect();
        assert_eq!(times.len(), 2);
    }

    #[test]
    fn deterministic() {
        let _ticks = crate::progress::test_lock();
        let (_, a) = campaign();
        let (_, b) = campaign();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.anycast_rtt_ms, y.anycast_rtt_ms);
        }
    }

    #[test]
    fn faulted_beacons_flag_incomplete_rows() {
        let _ticks = crate::progress::test_lock();
        use bb_netsim::{FaultConfig, FaultPlane};
        let mut topo = generate(&TopologyConfig::small(91));
        let provider = build_provider(&mut topo, &ProviderConfig::microsoft_like(9));
        let workload = generate_workload(&topo, &WorkloadConfig::default());
        let congestion = CongestionModel::new(9, CongestionConfig::default());
        let sites = provider.pops.clone();
        let anycast = AnycastDeployment::deploy(&topo, &provider, &sites);
        let unicast = build_unicast_deployments(&topo, &provider, &sites);
        let cfg = BeaconConfig {
            rounds: 4,
            ..Default::default()
        };
        let plane = FaultPlane::new(
            21,
            FaultConfig {
                probe_loss: 0.30,
                max_retries: 0,
                ..FaultConfig::heavy()
            },
        );
        let run = || {
            run_beacons(
                &topo, &provider, &anycast, &unicast, &workload, &congestion, Some(&plane),
                &cfg,
            )
        };
        let ms = run();
        let incomplete = ms.iter().filter(|m| !m.is_complete()).count();
        let complete = ms.len() - incomplete;
        assert!(incomplete > 0, "30% loss must kill some beacons");
        assert!(complete > incomplete, "most beacons still report");
        for m in &ms {
            if m.is_complete() {
                assert!(m.anycast_penalty_ms().is_finite());
            } else {
                assert!(m.anycast_penalty_ms().is_nan());
            }
        }
        // Cached churn processes in the same plane object: a repeat run is
        // byte-identical.
        let again = run();
        assert_eq!(format!("{ms:?}"), format!("{again:?}"));
    }
}
