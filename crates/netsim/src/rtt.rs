//! RTT assembly: propagation + queueing + last mile + measurement noise.
//!
//! An RTT sample over a realized path at time `t` is
//!
//! ```text
//! rtt(t) = 2·propagation + Σ_links queue(link, t) + queue(metro(dst), t)
//!          + queue(lastmile, t) + per-hop router cost + access delay + noise
//! ```
//!
//! Queueing terms are counted once per entity (bottleneck queues form in the
//! congested direction; we don't model direction asymmetry). TCP's MinRTT
//! over a session takes the minimum of several samples, which strips most of
//! the noise but none of the standing queueing — matching how the §3.1
//! dataset (TCP MinRTT) still sees congestion.

use crate::congestion::{CongestionKey, CongestionModel};
use crate::path::RealizedPath;
use crate::time::SimTime;
use bb_topology::Topology;
use rand::Rng;

/// Fixed per-AS-boundary router/processing cost, ms (both directions).
pub const PER_HOP_MS: f64 = 0.25;

/// Client access (DSL/cable/wireless serialization) baseline RTT cost, ms.
pub const ACCESS_BASE_MS: f64 = 2.0;

/// Knobs for RTT sampling.
#[derive(Debug, Clone)]
pub struct RttModel {
    /// Log-normal jitter sigma (per sample).
    pub jitter_sigma: f64,
    /// Median of the jitter distribution, ms.
    pub jitter_median_ms: f64,
}

impl Default for RttModel {
    fn default() -> Self {
        Self {
            jitter_sigma: 0.8,
            jitter_median_ms: 1.0,
        }
    }
}

/// Deterministic part of a path's RTT at time `t` (no jitter), given the
/// client's last-mile congestion key.
pub fn path_rtt_ms(
    topo: &Topology,
    model: &CongestionModel,
    path: &RealizedPath,
    lastmile: Option<CongestionKey>,
    t: SimTime,
) -> f64 {
    let mut rtt = path_base_rtt_ms(topo, path);

    // Interconnect queueing.
    for &l in &path.links {
        let city = topo.link(l).city;
        let offset = topo.atlas.city(city).region.utc_offset_hours();
        rtt += model.queueing_delay_ms(CongestionKey::Link(l), offset, t);
    }
    // Destination metro queueing (shared by all routes ending there).
    let final_city = path.final_city();
    let offset = topo.atlas.city(final_city).region.utc_offset_hours();
    rtt += model.queueing_delay_ms(CongestionKey::Metro(final_city), offset, t);
    // Last mile (shared by all routes to this client prefix).
    if let Some(lm) = lastmile {
        rtt += model.queueing_delay_ms(lm, offset, t);
    }
    rtt
}

/// Congestion-free floor of a path's RTT: propagation + hop costs + access.
pub fn path_base_rtt_ms(topo: &Topology, path: &RealizedPath) -> f64 {
    2.0 * path.propagation_ms(topo) + PER_HOP_MS * path.hop_count() as f64 + ACCESS_BASE_MS
}

/// TCP MinRTT over `samples` probes: deterministic RTT plus the minimum of
/// `samples` log-normal jitter draws.
pub fn sample_min_rtt(
    deterministic_rtt_ms: f64,
    rtt_model: &RttModel,
    samples: usize,
    rng: &mut impl Rng,
) -> f64 {
    assert!(samples >= 1);
    if rtt_model.jitter_sigma >= 0.0 && rtt_model.jitter_median_ms >= 0.0 {
        // x ↦ median · exp(sigma · x) is monotone for sigma, median ≥ 0, so
        // the minimum jitter is the jitter of the minimum normal draw: one
        // exp per session instead of one per sample, same bits.
        let mut min_z = f64::INFINITY;
        for _ in 0..samples {
            min_z = min_z.min(normal_draw(rng));
        }
        let min_jitter = rtt_model.jitter_median_ms * (rtt_model.jitter_sigma * min_z).exp();
        return deterministic_rtt_ms + min_jitter;
    }
    let mut min_jitter = f64::INFINITY;
    for _ in 0..samples {
        let z = normal_draw(rng);
        let jitter = rtt_model.jitter_median_ms * (rtt_model.jitter_sigma * z).exp();
        min_jitter = min_jitter.min(jitter);
    }
    deterministic_rtt_ms + min_jitter
}

/// One standard-normal draw; Box-Muller from two uniforms keeps us off
/// rand_distr.
#[inline]
fn normal_draw(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Reused buffers for [`batch_session_min_z`]: the Box-Muller radius and
/// angle lanes of one batch. Hoisted out of the window loop by callers so
/// the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct JitterScratch {
    /// `u1` on fill, replaced in place by the radius `√(−2·ln u1)`.
    r: Vec<f64>,
    /// The raw `u2` uniforms (angle lane).
    u2: Vec<f64>,
}

/// Batched session sampling: draw `sessions × samples_per_session` standard
/// normals from `rng` — in exactly the stream order of `sessions` repeated
/// [`sample_min_rtt`] calls — and write each session's minimum deviate into
/// `out_min_z`. Returns the number of `cos` evaluations skipped.
///
/// The structure-of-arrays pass splits Box-Muller into lanes: one pass
/// draws the uniforms (two `next_u64` per deviate, same consumption as the
/// scalar path), one pass folds the radius lane `√(−2·ln u1)`, and the
/// min-reduce pass evaluates the angle `cos(τ·u2)` only when it can affect
/// the session minimum: since `z = r·cos(·) ≥ −r`, a deviate with
/// `−r > min` so far can only land strictly above the running minimum, so
/// skipping its `cos` leaves the fold bit-identical (strict inequality —
/// ties still evaluate and fold through the same `f64::min`).
pub fn batch_session_min_z(
    rng: &mut impl Rng,
    sessions: usize,
    samples_per_session: usize,
    scratch: &mut JitterScratch,
    out_min_z: &mut Vec<f64>,
) -> usize {
    let n = sessions * samples_per_session;
    scratch.r.clear();
    scratch.u2.clear();
    scratch.r.reserve(n);
    scratch.u2.reserve(n);
    for _ in 0..n {
        scratch.r.push(rng.gen_range(f64::EPSILON..1.0));
        scratch.u2.push(rng.gen::<f64>());
    }
    for u1 in scratch.r.iter_mut() {
        *u1 = (-2.0 * u1.ln()).sqrt();
    }
    let mut skipped = 0usize;
    out_min_z.clear();
    out_min_z.reserve(sessions);
    for s in 0..sessions {
        let mut min_z = f64::INFINITY;
        for i in s * samples_per_session..(s + 1) * samples_per_session {
            let r = scratch.r[i];
            if -r > min_z {
                skipped += 1;
                continue;
            }
            let z = r * (std::f64::consts::TAU * scratch.u2[i]).cos();
            min_z = min_z.min(z);
        }
        out_min_z.push(min_z);
    }
    skipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::path::{realize_path, RealizeSpec};
    use bb_bgp::{compute_routes, Announcement};
    use bb_topology::{generate, AsClass, TopologyConfig, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (Topology, RealizedPath) {
        let topo = generate(&TopologyConfig::small(17));
        let eye = topo.ases_of_class(AsClass::Eyeball).next().unwrap();
        let origin = eye.id;
        let dst_city = eye.footprint[0];
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        let src = topo
            .ases()
            .iter()
            .find(|a| a.id != origin && table.as_path(a.id).is_some_and(|p| p.len() >= 3))
            .expect("some multi-hop source");
        let path = table.as_path(src.id).unwrap();
        let spec = RealizeSpec {
            as_path: &path,
            src_city: src.footprint[0],
            dst_city: Some(dst_city),
            first_link: None,
            final_entry_links: None,
        };
        let p = realize_path(&topo, &spec);
        (topo, p)
    }

    #[test]
    fn base_rtt_includes_floor_terms() {
        let (topo, p) = world();
        let base = path_base_rtt_ms(&topo, &p);
        assert!(base >= ACCESS_BASE_MS + PER_HOP_MS * p.hop_count() as f64);
        assert!(base >= 2.0 * p.propagation_ms(&topo));
    }

    #[test]
    fn congestion_only_adds() {
        let (topo, p) = world();
        let model = CongestionModel::new(1, CongestionConfig::default());
        let base = path_base_rtt_ms(&topo, &p);
        for h in [0.0, 6.0, 12.0, 20.0] {
            let rtt = path_rtt_ms(&topo, &model, &p, Some(CongestionKey::LastMile(9)), SimTime::from_hours(h));
            assert!(rtt >= base, "rtt {rtt} < base {base}");
        }
    }

    #[test]
    fn lastmile_key_shifts_rtt() {
        let (topo, p) = world();
        let model = CongestionModel::new(1, CongestionConfig::default());
        let t = SimTime::from_hours(20.0);
        let a = path_rtt_ms(&topo, &model, &p, Some(CongestionKey::LastMile(1)), t);
        let b = path_rtt_ms(&topo, &model, &p, None, t);
        assert!(a > b);
    }

    #[test]
    fn min_rtt_decreases_with_more_samples() {
        let rm = RttModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let avg = |n: usize, rng: &mut StdRng| {
            (0..200)
                .map(|_| sample_min_rtt(10.0, &rm, n, rng))
                .sum::<f64>()
                / 200.0
        };
        let one = avg(1, &mut rng);
        let ten = avg(10, &mut rng);
        assert!(ten < one, "min of 10 samples {ten} must beat 1 sample {one}");
        assert!(ten >= 10.0, "jitter is non-negative");
    }

    #[test]
    fn min_rtt_never_below_deterministic() {
        let rm = RttModel::default();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            assert!(sample_min_rtt(42.0, &rm, 5, &mut rng) >= 42.0);
        }
    }

    #[test]
    fn batch_min_z_matches_scalar_sample_min_rtt() {
        let rm = RttModel::default();
        let mut scratch = JitterScratch::default();
        let mut min_z = Vec::new();
        for (sessions, samples) in [(1, 1), (3, 5), (7, 5), (8, 4), (5, 1)] {
            for seed in 0..50u64 {
                let mut scalar_rng = StdRng::seed_from_u64(seed);
                let scalar: Vec<f64> = (0..sessions)
                    .map(|_| sample_min_rtt(10.0, &rm, samples, &mut scalar_rng))
                    .collect();
                let mut batch_rng = StdRng::seed_from_u64(seed);
                batch_session_min_z(&mut batch_rng, sessions, samples, &mut scratch, &mut min_z);
                assert_eq!(min_z.len(), sessions);
                for (s, &z) in scalar.iter().zip(&min_z) {
                    let batch_v = 10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp();
                    assert_eq!(s.to_bits(), batch_v.to_bits(), "seed {seed}");
                }
                // Same stream position afterwards: the batch consumed
                // exactly the scalar path's draws.
                use crate::rtt::tests::next_of;
                assert_eq!(next_of(&mut scalar_rng), next_of(&mut batch_rng));
            }
        }
    }

    pub(crate) fn next_of(rng: &mut StdRng) -> u64 {
        use rand::RngCore;
        rng.next_u64()
    }

    #[test]
    fn deterministic_rtt_same_inputs_same_output() {
        let (topo, p) = world();
        let m1 = CongestionModel::new(3, CongestionConfig::default());
        let m2 = CongestionModel::new(3, CongestionConfig::default());
        let t = SimTime::from_hours(13.0);
        let k = Some(CongestionKey::LastMile(2));
        assert_eq!(
            path_rtt_ms(&topo, &m1, &p, k, t),
            path_rtt_ms(&topo, &m2, &p, k, t)
        );
    }
}
