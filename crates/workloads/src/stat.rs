//! The analytic (statistical) job model for fleet-scale simulation.
//!
//! For a page accessed as a Poisson process with rate λ, the steady-state
//! idle time is exponentially distributed, so the kstaled age distribution
//! and the would-be promotion rates have closed forms:
//!
//! * `P(age ≥ k scans) = exp(-λ · 120k) = q^k` with `q = exp(-120λ)`;
//! * the rate of accesses that find the page at age `k` is
//!   `λ · (q^k − q^{k+1})`.
//!
//! Summing over the profile's rate buckets gives the exact expected
//! cold-age histogram, promotion histogram, and working set for any window
//! — no per-page state. Slowly-varying multiplicative noise (AR(1) in log
//! space) and the diurnal multiplier supply the variance the fleet figures
//! need. A validation test in `tests/` checks this model against the
//! page-level kernel simulation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::profile::JobProfile;
use sdfm_types::histogram::{ColdAgeHistogram, PromotionHistogram, AGE_BUCKETS, MAX_AGE_SCANS};
use sdfm_types::size::PageCount;
use sdfm_types::time::{SimDuration, SimTime, KSTALED_SCAN_PERIOD};

/// One window's synthetic kernel-view observation of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowObservation {
    /// Window end.
    pub at: SimTime,
    /// Window length.
    pub window: SimDuration,
    /// Working set (pages accessed within one scan period).
    pub working_set: PageCount,
    /// Expected cold-age histogram at window end.
    pub cold_hist: ColdAgeHistogram,
    /// Would-be promotions during the window, by age at access.
    pub promo_delta: PromotionHistogram,
}

/// Generates per-window observations for one job from its profile.
#[derive(Debug)]
pub struct StatJobModel {
    profile: JobProfile,
    rng: StdRng,
    /// Per-bucket slowly-varying multiplier, AR(1) in log space.
    bucket_noise: Vec<f64>,
    /// AR(1) persistence per step.
    rho: f64,
    /// The AR(1) innovation; `None` when sigma is 0 (no noise, no draws).
    innovation: Option<Normal<f64>>,
    /// The last moment every page was touched at once: job start, or the
    /// most recent full-memory burst. Page ages cannot exceed the time
    /// since this.
    last_reset: SimTime,
}

// Fleet simulators step job models for disjoint job sets on worker
// threads; the model (including its per-job RNG) must stay plain owned
// data.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StatJobModel>();
};

impl StatJobModel {
    /// Default log-noise sigma (≈ ±20% rate wobble).
    pub const DEFAULT_SIGMA: f64 = 0.2;

    /// Creates a model with the default noise.
    pub fn new(profile: JobProfile, seed: u64) -> Self {
        Self::with_noise(profile, seed, Self::DEFAULT_SIGMA)
    }

    /// Creates a model with explicit log-noise sigma (0 disables noise,
    /// making observations deterministic expectations).
    ///
    /// # Panics
    ///
    /// If `sigma` is negative or not finite.
    pub fn with_noise(profile: JobProfile, seed: u64, sigma: f64) -> Self {
        let n = profile.rate_buckets.len();
        let rho: f64 = 0.9;
        let innovation = (sigma != 0.0).then(|| {
            // The stationary log-noise has standard deviation `sigma`.
            let innov_sd = sigma * (1.0 - rho * rho).sqrt();
            // sdfm-lint: allow(P1) reason="innovation sd is finite and non-negative for rho in [0, 1]"
            Normal::new(0.0, innov_sd).expect("positive sd")
        });
        StatJobModel {
            profile,
            rng: StdRng::seed_from_u64(seed),
            bucket_noise: vec![1.0; n],
            rho,
            innovation,
            last_reset: SimTime::ZERO,
        }
    }

    /// Declares when the job started (all pages age from here). Also used
    /// by tests to place the model deep in steady state.
    pub fn set_start(&mut self, at: SimTime) {
        self.last_reset = at;
    }

    /// The underlying profile.
    pub fn profile(&self) -> &JobProfile {
        &self.profile
    }

    /// Produces the observation for the window ending at `at`.
    ///
    /// Age distributions are the steady-state exponentials truncated at
    /// the time since the last full reset (job start or burst). With
    /// probability `window / burst_interval` the window carries a
    /// full-memory burst: every page is touched — the promotion histogram
    /// receives the entire pre-burst age distribution, the working set
    /// spikes to the whole job, and ages restart.
    ///
    /// The order of the RNG draws is part of the determinism contract:
    /// per-bucket noise, the burst coin, then per bucket per age the cold
    /// cell, the promotion cell, and last the collapsed tail.
    pub fn observe(&mut self, at: SimTime, window: SimDuration) -> WindowObservation {
        let diurnal = self.profile.diurnal.multiplier(at);
        self.advance_noise();
        let scan_secs = KSTALED_SCAN_PERIOD.as_secs() as f64;
        let window_secs = window.as_secs() as f64;
        let cap = (at.saturating_duration_since(self.last_reset).as_secs()
            / KSTALED_SCAN_PERIOD.as_secs())
        .min(MAX_AGE_SCANS as u64) as u8;
        let burst = match self.profile.burst_interval {
            Some(interval) if interval > SimDuration::ZERO => {
                let p = (window_secs / interval.as_secs() as f64).clamp(0.0, 1.0);
                self.rng.gen_bool(p)
            }
            _ => false,
        };

        let mut cold = ColdAgeHistogram::new();
        let mut promo = PromotionHistogram::new();
        // Cut to the constant length, a `u8` age indexes these unchecked.
        let cold_slots = &mut cold.slots_mut()[..AGE_BUCKETS];
        let promo_slots = &mut promo.slots_mut()[..AGE_BUCKETS];
        let mut wss = 0.0f64;
        // A local copy keeps the generator's state in registers while the
        // cells store into the histograms.
        let mut rng = self.rng.clone();

        for (bucket, noise) in self.profile.rate_buckets.iter().zip(&self.bucket_noise) {
            let lambda = bucket.rate_per_sec * diurnal * noise;
            let n = bucket.pages as f64;
            let q = (-lambda * scan_secs).exp();
            if burst {
                // Every page is accessed at its current age, however thin
                // the tail.
                walk_ages(
                    q,
                    cap,
                    |_| false,
                    |k, p_age_k| {
                        if k >= 1 {
                            promo_slots[usize::from(k)] += stochastic_round(&mut rng, n * p_age_k);
                        }
                    },
                );
            } else {
                wss += n * (1.0 - q);
                let accesses = n * lambda * window_secs;
                let tail = walk_ages(
                    q,
                    cap,
                    |qk1| qk1 * n < 1e-3,
                    |k, p_age_k| {
                        cold_slots[usize::from(k)] += stochastic_round(&mut rng, n * p_age_k);
                        if k >= 1 {
                            // Regular accesses arriving this window find
                            // pages at age k with probability mass p_age_k.
                            promo_slots[usize::from(k)] +=
                                stochastic_round(&mut rng, accesses * p_age_k);
                        }
                    },
                );
                if let Some((k, qk)) = tail {
                    // Sub-milli-page tail: collapsed to one age.
                    cold_slots[usize::from(k)] += stochastic_round(&mut rng, n * qk);
                }
            }
        }
        self.rng = rng;

        if burst {
            // Post-burst: every page hot, the whole job is the working set.
            let total_pages = self.profile.total_pages().get();
            cold_slots[0] = total_pages;
            wss = total_pages as f64;
            self.last_reset = at;
        }

        WindowObservation {
            at,
            window,
            working_set: PageCount::new(wss.round() as u64),
            cold_hist: cold,
            promo_delta: promo,
        }
    }

    fn advance_noise(&mut self) {
        let Some(innovation) = self.innovation else {
            return;
        };
        for x in &mut self.bucket_noise {
            let ln = self.rho * x.ln() + innovation.sample(&mut self.rng);
            *x = ln.exp().clamp(0.05, 20.0);
        }
    }
}

/// Walks `q^k` over one bucket's age distribution truncated at `cap`,
/// handing `cell` each age `k` with the probability mass at that age. At
/// `k == cap` all remaining mass sits at exactly that age (untouched since
/// the last reset). When `negligible(q^(k+1))` says what lies past age `k`
/// no longer matters the walk stops early and returns the age and the
/// mass the unvisited tail collapses to.
#[inline(always)]
fn walk_ages(
    q: f64,
    cap: u8,
    negligible: impl Fn(f64) -> bool,
    mut cell: impl FnMut(u8, f64),
) -> Option<(u8, f64)> {
    let mut qk = 1.0; // q^0
    let mut k = 0u8;
    loop {
        let qk1 = qk * q;
        let at_cap = k >= cap;
        // One call site, so the cell is inlined and what it captures stays
        // in registers.
        cell(k, if at_cap { qk } else { qk - qk1 });
        if at_cap {
            return None;
        }
        if negligible(qk1) {
            return (qk1 > 0.0).then_some((k + 1, qk1));
        }
        qk = qk1;
        k += 1;
    }
}

/// Stochastic rounding keeps sub-unit expectations unbiased: `floor(v)`,
/// plus one with probability `v - floor(v)`. Makes exactly one draw for
/// every `v` that is not `<= 0`, and none otherwise.
#[inline(always)]
fn stochastic_round(rng: &mut StdRng, v: f64) -> u64 {
    /// From here up an `f64` has no fractional part.
    const INTEGRAL_FROM: f64 = (1u64 << 52) as f64;
    if v <= 0.0 {
        return 0;
    }
    let u: f64 = rng.gen();
    if v < 1.0 {
        // Four cells in five hold less than a page: the floor is 0 and
        // the fraction is `v` itself.
        return u64::from(u < v);
    }
    if v >= INTEGRAL_FROM {
        return v as u64;
    }
    // `v as i64` is `floor(v)` on [1, 2^52), and the signed cast is one
    // instruction where the unsigned one is a compare-and-fix-up sequence.
    let base = v as i64;
    let frac = v - base as f64;
    base as u64 + u64::from(u < frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{DiurnalPattern, JobPriority, RateBucket};
    use sdfm_compress::gen::CompressibilityMix;
    use sdfm_types::histogram::PageAge;
    use sdfm_types::time::MINUTE;

    fn profile(buckets: Vec<RateBucket>, diurnal: DiurnalPattern) -> JobProfile {
        JobProfile {
            template: "test".into(),
            rate_buckets: buckets,
            diurnal,
            mix: CompressibilityMix::fleet_default(),
            cpu_cores: 1.0,
            write_fraction: 0.2,
            burst_interval: None,
            priority: JobPriority::Batch,
            lifetime: SimDuration::from_hours(100),
        }
    }

    #[test]
    fn histogram_totals_match_page_count() {
        let p = profile(
            vec![
                RateBucket {
                    pages: 5_000,
                    rate_per_sec: 0.05,
                },
                RateBucket {
                    pages: 5_000,
                    rate_per_sec: 1e-7,
                },
            ],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::with_noise(p, 1, 0.0);
        let obs = m.observe(SimTime::from_secs(3600), MINUTE * 5);
        let total = obs.cold_hist.total_pages();
        assert!(
            (9_900..=10_100).contains(&total),
            "histogram total {total} far from 10k pages"
        );
    }

    #[test]
    fn hot_bucket_is_working_set_frozen_bucket_is_cold() {
        let p = profile(
            vec![
                RateBucket {
                    pages: 1_000,
                    rate_per_sec: 0.5, // ~60 accesses per scan period
                },
                RateBucket {
                    pages: 9_000,
                    rate_per_sec: 1e-9,
                },
            ],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::with_noise(p, 2, 0.0);
        let obs = m.observe(SimTime::from_secs(7200), MINUTE);
        let wss = obs.working_set.get();
        assert!((900..=1100).contains(&wss), "wss {wss}");
        let cold = obs.cold_hist.pages_colder_than(PageAge::from_scans(1));
        assert!((8_800..=9_200).contains(&cold), "cold {cold}");
    }

    #[test]
    fn promotion_rate_matches_analytic_form() {
        // One bucket at λ = 1/600 s (idle mean 10 min). Promotions at
        // T = 1 scan over one minute: n·λ·60·q with q = exp(-0.2).
        let lam = 1.0 / 600.0;
        let p = profile(
            vec![RateBucket {
                pages: 100_000,
                rate_per_sec: lam,
            }],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::with_noise(p, 3, 0.0);
        let obs = m.observe(SimTime::from_secs(120), MINUTE);
        let got = obs
            .promo_delta
            .promotions_colder_than(PageAge::from_scans(1)) as f64;
        let expect = 100_000.0 * lam * 60.0 * (-lam * 120.0).exp();
        let rel = (got - expect).abs() / expect;
        assert!(rel < 0.05, "promotions {got} vs analytic {expect}");
    }

    #[test]
    fn diurnal_trough_reduces_working_set() {
        let d = DiurnalPattern {
            amplitude: 0.8,
            phase_secs: 0,
        };
        let p = profile(
            vec![RateBucket {
                pages: 50_000,
                rate_per_sec: 0.005,
            }],
            d,
        );
        let mut m = StatJobModel::with_noise(p.clone(), 4, 0.0);
        let peak = m.observe(SimTime::from_secs(0), MINUTE).working_set.get();
        let mut m = StatJobModel::with_noise(p, 5, 0.0);
        let trough = m
            .observe(SimTime::from_secs(43_200), MINUTE)
            .working_set
            .get();
        assert!(
            trough < peak * 7 / 10,
            "trough wss {trough} not below peak {peak}"
        );
    }

    #[test]
    fn noise_makes_windows_vary_but_preserves_scale() {
        let p = profile(
            vec![RateBucket {
                pages: 10_000,
                rate_per_sec: 0.01,
            }],
            DiurnalPattern::FLAT,
        );
        let mut m = StatJobModel::new(p, 6);
        let wss: Vec<u64> = (0..20)
            .map(|i| {
                m.observe(SimTime::from_secs(i * 300), MINUTE * 5)
                    .working_set
                    .get()
            })
            .collect();
        let distinct: std::collections::HashSet<_> = wss.iter().collect();
        assert!(distinct.len() > 5, "noise produced no variation: {wss:?}");
        let mean = wss.iter().sum::<u64>() as f64 / wss.len() as f64;
        assert!((4_000.0..9_900.0).contains(&mean), "wss mean {mean}");
    }

    #[test]
    fn deterministic_per_seed() {
        let p = profile(
            vec![RateBucket {
                pages: 1_000,
                rate_per_sec: 0.01,
            }],
            DiurnalPattern::FLAT,
        );
        let mut a = StatJobModel::new(p.clone(), 42);
        let mut b = StatJobModel::new(p, 42);
        let oa = a.observe(SimTime::from_secs(300), MINUTE * 5);
        let ob = b.observe(SimTime::from_secs(300), MINUTE * 5);
        assert_eq!(oa, ob);
    }

    #[test]
    fn rounding_matches_the_floor_clamp_gen_bool_spelling_draw_for_draw() {
        // What `stochastic_round` replaced, spelled out; callers skipped
        // it for `v <= 0`.
        fn reference(rng: &mut StdRng, v: f64) -> u64 {
            let base = v.floor();
            let frac = v - base;
            base as u64 + u64::from(rng.gen_bool(frac.clamp(0.0, 1.0)))
        }
        let two_52 = (1u64 << 52) as f64;
        let mut values = vec![
            f64::MIN_POSITIVE,
            1e-300,
            0.5,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            1.5,
            two_52 - 0.5,
            two_52,
            (1u64 << 60) as f64,
            1.8e19,
        ];
        let mut seeder = StdRng::seed_from_u64(7);
        // Log-uniform over 2^-70 .. 2^66: far below one page to past
        // `u64::MAX`.
        values.extend((0..10_000).map(|_| seeder.gen_range(-70.0..66.0f64).exp2()));
        let mut new_rng = StdRng::seed_from_u64(8);
        let mut old_rng = new_rng.clone();
        for v in values {
            assert_eq!(
                stochastic_round(&mut new_rng, v),
                reference(&mut old_rng, v),
                "v = {v:e}"
            );
            assert_eq!(new_rng, old_rng, "RNG position after v = {v:e}");
        }
        // No draw for a cell with no mass.
        for v in [0.0, -0.0, -1.5] {
            assert_eq!(stochastic_round(&mut new_rng, v), 0);
            assert_eq!(new_rng, old_rng, "v = {v} must not draw");
        }
    }
}
