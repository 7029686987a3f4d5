//! Discounting Rate Estimator (DRE).
//!
//! CONGA's link-load estimator, reused here for three purposes: CONGA's own
//! congestion metric, the utilization INT switches stamp into packets, and
//! general link-utilization reporting. A register `X` accumulates bytes as
//! they are transmitted and decays multiplicatively by a factor `(1 - α)`
//! every `period`; the estimated rate is `X · α / period`, which tracks a
//! recent exponentially-weighted window of τ = period/α.
//!
//! Decay is applied *lazily* from timestamps, so the estimator costs no
//! simulation events — important because every link has one.

use clove_sim::{Duration, Time};

/// DRE gain α.
pub const DRE_ALPHA: f64 = 0.1;

/// DRE decay period: with [`DRE_ALPHA`] a time constant of ≈ 400 µs.
pub const DRE_PERIOD: Duration = Duration::from_micros(40);

const _: () = assert!(DRE_ALPHA > 0.0 && DRE_ALPHA <= 1.0 && !DRE_PERIOD.is_zero());

/// A discounting rate estimator for one link direction.
#[derive(Debug, Clone)]
pub struct Dre {
    x_bytes: f64,
    last_decay: Time,
    capacity_bps: u64,
}

impl Dre {
    /// `capacity_bps` is the link rate used to normalize utilization.
    pub fn new(capacity_bps: u64) -> Dre {
        assert!(capacity_bps > 0, "capacity must be positive");
        Dre { x_bytes: 0.0, last_decay: Time::ZERO, capacity_bps }
    }

    /// Apply all decay steps that elapsed up to `now`.
    fn decay_to(&mut self, now: Time) {
        if now <= self.last_decay {
            return;
        }
        let steps = now.saturating_since(self.last_decay).as_nanos() / DRE_PERIOD.as_nanos();
        if steps == 0 {
            return;
        }
        // (1-alpha)^steps with exponentiation by squaring via powi for
        // moderate step counts; large counts collapse to ~0 quickly.
        if steps > 4096 {
            self.x_bytes = 0.0;
        } else {
            self.x_bytes *= (1.0 - DRE_ALPHA).powi(steps as i32);
        }
        self.last_decay += Duration::from_nanos(steps * DRE_PERIOD.as_nanos());
    }

    /// Account `bytes` transmitted at `now`.
    pub fn on_transmit(&mut self, now: Time, bytes: u32) {
        self.decay_to(now);
        self.x_bytes += bytes as f64;
    }

    /// Estimated transmit rate in bits per second.
    pub fn rate_bps(&mut self, now: Time) -> f64 {
        self.decay_to(now);
        self.x_bytes * 8.0 * DRE_ALPHA / DRE_PERIOD.as_secs_f64()
    }

    /// Estimated utilization in `[0, ~]` of link capacity (can transiently
    /// exceed 1.0 during bursts).
    pub fn utilization(&mut self, now: Time) -> f64 {
        self.rate_bps(now) / self.capacity_bps as f64
    }

    /// Utilization in per-mille, saturating at 2000 (200%) — the form INT
    /// stamps into packets.
    pub fn utilization_pm(&mut self, now: Time) -> u16 {
        (self.utilization(now) * 1000.0).round().clamp(0.0, 2000.0) as u16
    }

    /// CONGA's 3-bit quantized congestion metric (0..=7).
    pub fn quantized(&mut self, now: Time, bits: u8) -> u8 {
        let max = (1u16 << bits) - 1;
        (self.utilization(now).clamp(0.0, 1.0) * max as f64).round() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dre() -> Dre {
        // alpha = 0.1, period = 40us => window ~ 400us, 1 Gbps capacity
        Dre::new(1_000_000_000)
    }

    #[test]
    fn steady_stream_estimates_rate() {
        let mut d = dre();
        // Send 5 KB per 40us = 1 Gbps for 4 ms.
        let mut t = Time::ZERO;
        for _ in 0..100 {
            d.on_transmit(t, 5_000);
            t += DRE_PERIOD;
        }
        let u = d.utilization(t);
        assert!((0.8..1.2).contains(&u), "utilization {u}");
    }

    #[test]
    fn idle_decays_to_zero() {
        let mut d = dre();
        d.on_transmit(Time::ZERO, 50_000);
        let u0 = d.utilization(Time::from_micros(40));
        let u1 = d.utilization(Time::from_millis(10));
        assert!(u1 < u0 * 0.01, "u0={u0} u1={u1}");
    }

    #[test]
    fn long_idle_collapses() {
        let mut d = dre();
        d.on_transmit(Time::ZERO, 1_000_000);
        assert_eq!(d.utilization(Time::from_secs(100)), 0.0);
    }

    #[test]
    fn half_rate_is_half_utilization() {
        let mut full = dre();
        let mut half = dre();
        let mut t = Time::ZERO;
        for _ in 0..200 {
            full.on_transmit(t, 5_000);
            half.on_transmit(t, 2_500);
            t += DRE_PERIOD;
        }
        let r = half.utilization(t) / full.utilization(t);
        assert!((r - 0.5).abs() < 0.01, "ratio {r}");
    }

    #[test]
    fn per_mille_and_quantized() {
        let mut d = dre();
        let mut t = Time::ZERO;
        for _ in 0..200 {
            d.on_transmit(t, 5_000);
            t += DRE_PERIOD;
        }
        let pm = d.utilization_pm(t);
        assert!((900..=1100).contains(&pm), "pm {pm}");
        let q = d.quantized(t, 3);
        assert!(q >= 6, "q {q}");
    }

    #[test]
    fn quantized_zero_when_idle() {
        let mut d = dre();
        assert_eq!(d.quantized(Time::from_secs(1), 3), 0);
    }
}
