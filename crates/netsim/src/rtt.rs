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
    exact_z(u1, u2)
}

/// The Box-Muller deviate of one uniform pair, through libm `ln` and `cos`:
/// the one formula every jitter path reports.
#[inline]
fn exact_z(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Margin ε of the batch kernels' bound argument. Every approximate
/// deviate is within [`APPROX_Z_ERROR`] of the exact one, far inside ε, so
/// an approximate session minimum is within ε of the exact one and a
/// sample whose approximate deviate exceeds a session's approximate
/// minimum by more than 2ε cannot be that session's minimum.
const BOUND_MARGIN: f64 = 1e-6;

/// Bound on `|approx_z(u1, u2) − exact_z(u1, u2)|` over `u1 ∈ [2⁻⁵², 1]`,
/// `u2 ∈ [0, 1)`. The radius `r = √(−2·ln u1)` is off by the `ln` error
/// over `r`: at most 1.8e-11/0.83, where that error peaks. The cosine is
/// off by at most 6.1e-12, times `r ≤ √(2·52·ln 2) ≈ 8.5`. That is 7.4e-11
/// in all; the edge-input sweep in the tests measures 5.3e-11.
const APPROX_Z_ERROR: f64 = 1e-10;

// The bound argument needs the error far inside the margin.
const _: () = assert!(APPROX_Z_ERROR <= BOUND_MARGIN / 100.0);

/// `ln u` for normal positive `u ≤ 1`, within 2e-11 (plus rounding).
///
/// Exponent split `u = 2^e·m` with `m ∈ [√½, √2)` — integer adds on the
/// bits, offset so the mantissa wraps at √2 — then `ln m = 2·atanh s`,
/// `s = (m − 1)/(m + 1)`, `|s| ≤ 0.1716`, summed through `s¹¹`; the first
/// omitted term bounds the rest: `2·s¹³/13/(1 − s²) ≤ 1.8e-11`.
/// Branch-free, so the lane vectorises.
#[inline]
fn ln_approx(u: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    // The bits of √½.
    const SQRT_HALF: u64 = 0x3fe6_a09e_667f_3bcd;
    // 2⁵² as an f64: or-ing a small integer into its mantissa adds it.
    const TWO_52: u64 = 0x4330_0000_0000_0000;
    // The offset carries into the exponent field exactly when the mantissa
    // reaches √2, so `e` and `m` come out re-centred without a compare.
    let ix = u.to_bits() + (1.0f64.to_bits() - SQRT_HALF);
    let e = f64::from_bits((ix >> 52) | TWO_52) - (f64::from_bits(TWO_52) + 1023.0);
    let m = f64::from_bits((ix & MANTISSA) + SQRT_HALF);
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let atanh2 = s
        * (2.0
            + s2 * (2.0 / 3.0
                + s2 * (2.0 / 5.0 + s2 * (2.0 / 7.0 + s2 * (2.0 / 9.0 + s2 * (2.0 / 11.0))))));
    e * std::f64::consts::LN_2 + atanh2
}

/// `cos(τ·u)` for `u ∈ [0, 1]`, within 6.1e-12 (plus rounding).
///
/// Quadrant fold `cos τu = −cos τ(u − ½) = sin τb`, `b = |u − ½| − ¼ ∈
/// [−¼, ¼]` (both subtractions exact or off by one ulp of ½), then the
/// Taylor series of `sin θ`, `θ = τb ∈ [−π/2, π/2]`, through `θ¹⁵`; it
/// alternates with falling terms, so the error is below the first omitted
/// one: `(π/2)¹⁷/17! ≤ 6.1e-12`. Each coefficient carries its `τ^k`.
#[inline]
fn cos_tau_approx(u: f64) -> f64 {
    use std::f64::consts::TAU;
    const T2: f64 = TAU * TAU;
    const C1: f64 = TAU;
    const C3: f64 = -C1 * T2 / (2.0 * 3.0);
    const C5: f64 = -C3 * T2 / (4.0 * 5.0);
    const C7: f64 = -C5 * T2 / (6.0 * 7.0);
    const C9: f64 = -C7 * T2 / (8.0 * 9.0);
    const C11: f64 = -C9 * T2 / (10.0 * 11.0);
    const C13: f64 = -C11 * T2 / (12.0 * 13.0);
    const C15: f64 = -C13 * T2 / (14.0 * 15.0);
    let b = (u - 0.5).abs() - 0.25;
    let b2 = b * b;
    b * (C1 + b2 * (C3 + b2 * (C5 + b2 * (C7 + b2 * (C9 + b2 * (C11 + b2 * (C13 + b2 * C15)))))))
}

/// The approximate deviate `z̃`, within [`APPROX_Z_ERROR`] of
/// [`exact_z`]. The radius argument is clamped at 0 so `u1` at (or
/// rounding to) 1 yields 0, never NaN.
#[inline]
fn approx_z(u1: f64, u2: f64) -> f64 {
    (-2.0 * ln_approx(u1)).max(0.0).sqrt() * cos_tau_approx(u2)
}

/// Reused buffers for the batch jitter kernels ([`batch_session_min_z`],
/// [`batch_median_min_z`]). Hoisted out of the window loop by callers so
/// the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct JitterScratch {
    /// The `u1` uniforms (radius lane).
    u1: Vec<f64>,
    /// The `u2` uniforms (angle lane).
    u2: Vec<f64>,
    /// The approximate deviate `z̃` of every draw.
    approx: Vec<f64>,
    /// The approximate minimum of every session.
    approx_min: Vec<f64>,
    /// Session indices, partially ordered by approximate minimum.
    order: Vec<usize>,
    /// Exact session minima on the median kernel's fallback.
    exact_min: Vec<f64>,
}

impl JitterScratch {
    /// Draw `sessions × samples` uniform pairs from `rng` — in exactly the
    /// stream order of `sessions` repeated [`sample_min_rtt`] calls — and
    /// compute every draw's approximate deviate and every session's
    /// approximate minimum.
    fn fill(&mut self, rng: &mut impl Rng, sessions: usize, samples: usize) {
        assert!(samples >= 1);
        let n = sessions * samples;
        self.u1.resize(n, 0.0);
        self.u2.resize(n, 0.0);
        for (u1, u2) in self.u1.iter_mut().zip(&mut self.u2) {
            *u1 = rng.gen_range(f64::EPSILON..1.0);
            *u2 = rng.gen::<f64>();
        }
        self.approx.clear();
        self.approx.extend(
            self.u1
                .iter()
                .zip(&self.u2)
                .map(|(&u1, &u2)| approx_z(u1, u2)),
        );
        self.approx_min.clear();
        self.approx_min.extend(
            self.approx
                .chunks_exact(samples)
                .map(|c| c.iter().fold(f64::INFINITY, |m, &z| m.min(z))),
        );
    }

    /// Session `s`'s exact minimum deviate, evaluating `ln` and `cos` only
    /// for draws within `2·margin` of the session's approximate minimum;
    /// returns it with the number of exact evaluations. The draw that
    /// holds the exact minimum always passes the cut, and the exact fold
    /// over a subset holding the minimum is the fold over all draws.
    fn exact_session_min(&self, s: usize, samples: usize, margin: f64) -> (f64, usize) {
        let cut = self.approx_min[s] + 2.0 * margin;
        let mut min_z = f64::INFINITY;
        let mut evals = 0;
        for i in s * samples..(s + 1) * samples {
            if self.approx[i] <= cut {
                evals += 1;
                min_z = min_z.min(exact_z(self.u1[i], self.u2[i]));
            }
        }
        (min_z, evals)
    }

    /// Every session's [`exact_session_min`](Self::exact_session_min), in
    /// session order, into `out`; returns the number of exact evaluations.
    fn exact_minima(&self, samples: usize, margin: f64, out: &mut Vec<f64>) -> usize {
        out.clear();
        let mut evals = 0;
        for s in 0..self.approx_min.len() {
            let (z, e) = self.exact_session_min(s, samples, margin);
            evals += e;
            out.push(z);
        }
        evals
    }
}

/// Batched session sampling: draw `sessions × samples_per_session` standard
/// normals from `rng` — in exactly the stream order of `sessions` repeated
/// [`sample_min_rtt`] calls — and write each session's minimum deviate into
/// `out_min_z`, bit-identical to the scalar fold. Returns the number of
/// exact `cos` evaluations skipped.
///
/// Every draw first gets a cheap polynomial deviate (see [`approx_z`]);
/// libm `ln` and `cos` then run only for the draws that can hold their
/// session's minimum (see [`BOUND_MARGIN`]), usually one per session.
pub fn batch_session_min_z(
    rng: &mut impl Rng,
    sessions: usize,
    samples_per_session: usize,
    scratch: &mut JitterScratch,
    out_min_z: &mut Vec<f64>,
) -> usize {
    scratch.fill(rng, sessions, samples_per_session);
    let evals = scratch.exact_minima(samples_per_session, BOUND_MARGIN, out_min_z);
    sessions * samples_per_session - evals
}

/// Result of [`batch_median_min_z`].
#[derive(Debug, Clone, Copy)]
pub struct MedianMinZ {
    /// The median over sessions of each session's minimum deviate.
    pub z: f64,
    /// Exact `cos` evaluations skipped.
    pub cos_skipped: usize,
    /// Whether the approximate minima were too close to name the median
    /// session, so every session's minimum was computed exactly.
    pub fell_back: bool,
}

/// The window median of [`batch_session_min_z`]'s per-session minima for
/// an odd `sessions`, bit-identical to `quantile_select(min_z, 0.5)` and
/// consuming the same draws.
///
/// Ranks the sessions by approximate minimum. When the middle one is more
/// than 2ε from both neighbours, no error of at most ε per minimum can
/// reorder them, so the exact median is that session's exact minimum and
/// only its candidate draws see libm. Otherwise every session's minimum is
/// computed exactly and the middle one selected.
pub fn batch_median_min_z(
    rng: &mut impl Rng,
    sessions: usize,
    samples_per_session: usize,
    scratch: &mut JitterScratch,
) -> MedianMinZ {
    median_min_z_with_margin(rng, sessions, samples_per_session, scratch, BOUND_MARGIN)
}

/// [`batch_median_min_z`] with the bound margin as an argument, so tests
/// can force the fallback.
fn median_min_z_with_margin(
    rng: &mut impl Rng,
    sessions: usize,
    samples: usize,
    scratch: &mut JitterScratch,
    margin: f64,
) -> MedianMinZ {
    assert!(
        sessions % 2 == 1,
        "the median kernel needs an odd session count"
    );
    scratch.fill(rng, sessions, samples);
    let n = sessions * samples;
    let mid = sessions / 2;
    let approx_min = &scratch.approx_min;
    scratch.order.clear();
    scratch.order.extend(0..sessions);
    let (below, &mut median_session, above) = scratch
        .order
        .select_nth_unstable_by(mid, |&a, &b| approx_min[a].total_cmp(&approx_min[b]));
    let m = approx_min[median_session];
    let isolated = below.iter().all(|&s| m - approx_min[s] > 2.0 * margin)
        && above.iter().all(|&s| approx_min[s] - m > 2.0 * margin);
    if isolated {
        let (z, evals) = scratch.exact_session_min(median_session, samples, margin);
        return MedianMinZ {
            z,
            cos_skipped: n - evals,
            fell_back: false,
        };
    }
    let mut exact_min = std::mem::take(&mut scratch.exact_min);
    let evals = scratch.exact_minima(samples, margin, &mut exact_min);
    let (_, &mut z, _) = exact_min.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
    scratch.exact_min = exact_min;
    MedianMinZ {
        z,
        cos_skipped: n - evals,
        fell_back: true,
    }
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

    /// The scalar reference for one cell: each session's min deviate
    /// through [`normal_draw`], as `sessions` [`sample_min_rtt`] calls
    /// fold them.
    fn scalar_min_z(rng: &mut StdRng, sessions: usize, samples: usize) -> Vec<f64> {
        (0..sessions)
            .map(|_| (0..samples).fold(f64::INFINITY, |m, _| m.min(normal_draw(rng))))
            .collect()
    }

    /// The middle order statistic under `total_cmp`: `quantile_select(_,
    /// 0.5)` for an odd count.
    fn middle(mut v: Vec<f64>) -> f64 {
        let mid = v.len() / 2;
        *v.select_nth_unstable_by(mid, |a, b| a.total_cmp(b)).1
    }

    #[test]
    fn batch_min_z_matches_scalar_sample_min_rtt() {
        let rm = RttModel::default();
        let jitter = |z: f64| 10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp();
        let mut scratch = JitterScratch::default();
        let mut min_z = Vec::new();
        for (sessions, samples) in [(1, 1), (3, 5), (7, 5), (8, 4), (5, 1), (9, 3), (15, 8)] {
            for seed in 0..50u64 {
                let mut scalar_rng = StdRng::seed_from_u64(seed);
                let scalar: Vec<f64> = (0..sessions)
                    .map(|_| sample_min_rtt(10.0, &rm, samples, &mut scalar_rng))
                    .collect();
                let mut batch_rng = StdRng::seed_from_u64(seed);
                batch_session_min_z(&mut batch_rng, sessions, samples, &mut scratch, &mut min_z);
                assert_eq!(min_z.len(), sessions);
                for (s, &z) in scalar.iter().zip(&min_z) {
                    assert_eq!(s.to_bits(), jitter(z).to_bits(), "seed {seed}");
                }
                // Same stream position afterwards: the batch consumed
                // exactly the scalar path's draws.
                let scalar_next = next_of(&mut scalar_rng.clone());
                assert_eq!(scalar_next, next_of(&mut batch_rng));
                if sessions % 2 == 1 {
                    let mut median_rng = StdRng::seed_from_u64(seed);
                    let got = batch_median_min_z(&mut median_rng, sessions, samples, &mut scratch);
                    assert_eq!(
                        middle(scalar.clone()).to_bits(),
                        jitter(got.z).to_bits(),
                        "median, seed {seed}"
                    );
                    assert_eq!(scalar_next, next_of(&mut median_rng));
                }
            }
        }
    }

    pub(crate) fn next_of(rng: &mut StdRng) -> u64 {
        use rand::RngCore;
        rng.next_u64()
    }

    #[test]
    fn median_fallback_is_bit_identical() {
        // A margin wider than any gap between deviates forces the fallback
        // on every multi-session cell and lets every draw past the cut.
        let mut scratch = JitterScratch::default();
        for (sessions, samples) in [(1, 5), (3, 1), (7, 5), (15, 8)] {
            for seed in 0..200u64 {
                let mut scalar_rng = StdRng::seed_from_u64(seed);
                let want = middle(scalar_min_z(&mut scalar_rng, sessions, samples));
                let mut rng = StdRng::seed_from_u64(seed);
                let got = median_min_z_with_margin(&mut rng, sessions, samples, &mut scratch, 1e9);
                assert_eq!(got.z.to_bits(), want.to_bits(), "seed {seed}");
                assert_eq!(got.fell_back, sessions > 1);
                assert_eq!(
                    got.cos_skipped, 0,
                    "a huge margin evaluates every draw exactly"
                );
                assert_eq!(next_of(&mut scalar_rng), next_of(&mut rng));
            }
        }
    }

    #[test]
    fn median_kernel_evaluates_about_one_draw_per_cell() {
        let mut scratch = JitterScratch::default();
        let (mut skipped, mut fallbacks) = (0, 0);
        let cells = 2000u64;
        for seed in 0..cells {
            let got = batch_median_min_z(&mut StdRng::seed_from_u64(seed), 7, 5, &mut scratch);
            skipped += got.cos_skipped;
            fallbacks += got.fell_back as u64;
        }
        let evals = cells as usize * 35 - skipped;
        assert!(
            evals < cells as usize * 11 / 10,
            "{evals} exact evaluations"
        );
        assert!(fallbacks * 100 < cells, "{fallbacks} fallbacks");
    }

    /// Edge inputs of the approximations: `u1` at the draw floor, at
    /// powers of two, either side of the √2 mantissa split and at or just
    /// below 1; `u2` at the quadrant boundaries and just below 1.
    fn edge_inputs() -> (Vec<f64>, Vec<f64>) {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let above = |x: f64| f64::from_bits(x.to_bits() + 1);
        let mut u1 = vec![f64::EPSILON, above(f64::EPSILON), below(1.0), 1.0];
        for k in 1..=52 {
            let p = 0.5f64.powi(k);
            u1.extend([p, below(p), above(p)]);
            let split = std::f64::consts::SQRT_2 * p;
            u1.extend([split, below(split), above(split)]);
        }
        let mut u2 = vec![0.0, below(1.0)];
        for q in [0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875] {
            u2.extend([q, below(q), above(q)]);
        }
        u1.retain(|&u| (f64::EPSILON..=1.0).contains(&u));
        (u1, u2)
    }

    #[test]
    fn approximations_stay_within_their_stated_bounds() {
        let (mut u1, mut u2) = edge_inputs();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..500 {
            u1.push(rng.gen_range(f64::EPSILON..1.0));
            u2.push(rng.gen::<f64>());
        }
        let mut worst = [0.0f64; 3];
        for &u in &u1 {
            worst[0] = worst[0].max((ln_approx(u) - u.ln()).abs());
        }
        for &u in &u2 {
            worst[1] = worst[1].max((cos_tau_approx(u) - (std::f64::consts::TAU * u).cos()).abs());
        }
        for &a in &u1 {
            for &b in &u2 {
                let approx = approx_z(a, b);
                assert!(!approx.is_nan(), "NaN at ({a:e}, {b:e})");
                worst[2] = worst[2].max((approx - exact_z(a, b)).abs());
            }
        }
        assert!(worst[0] <= 2e-11, "ln error {:e}", worst[0]);
        assert!(worst[1] <= 7e-12, "cos error {:e}", worst[1]);
        assert!(worst[2] <= APPROX_Z_ERROR, "z error {:e}", worst[2]);
    }

    /// Volume check of the batch kernels against the scalar reference
    /// (which the previous libm-everywhere kernel matched bit for bit):
    /// 2M cells per shape. Run with `cargo test --release -p bb-netsim --
    /// --ignored`.
    #[test]
    #[ignore]
    fn kernels_match_scalar_on_two_million_cells_per_shape() {
        let mut scratch = JitterScratch::default();
        let mut min_z = Vec::new();
        for (sessions, samples) in [(7, 5), (1, 5), (8, 4), (3, 1)] {
            let mut fallbacks = 0u64;
            for cell in 0..2_000_000u64 {
                let seed =
                    cell.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (sessions * 16 + samples) as u64;
                let mut scalar_rng = StdRng::seed_from_u64(seed);
                let want = scalar_min_z(&mut scalar_rng, sessions, samples);
                let scalar_next = next_of(&mut scalar_rng);
                let mut rng = StdRng::seed_from_u64(seed);
                batch_session_min_z(&mut rng, sessions, samples, &mut scratch, &mut min_z);
                assert_eq!(next_of(&mut rng), scalar_next);
                for (w, z) in want.iter().zip(&min_z) {
                    assert_eq!(
                        w.to_bits(),
                        z.to_bits(),
                        "cell {cell} of {sessions}×{samples}"
                    );
                }
                if sessions % 2 == 1 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let got = batch_median_min_z(&mut rng, sessions, samples, &mut scratch);
                    assert_eq!(next_of(&mut rng), scalar_next);
                    assert_eq!(
                        middle(want).to_bits(),
                        got.z.to_bits(),
                        "median, cell {cell}"
                    );
                    fallbacks += got.fell_back as u64;
                }
            }
            eprintln!("{sessions}×{samples}: {fallbacks} bound fallbacks in 2M cells");
        }
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
