//! Arrival-rate math: translating a target network load into per-connection
//! Poisson rates.
//!
//! The paper tunes "the inter-arrival rate of the flows on a connection ...
//! from an exponential distribution whose mean is tuned by the desired load
//! on the network" (§5), with load measured against the full bisection
//! bandwidth. With `C` client connections each launching jobs of mean size
//! `S` bytes at rate `λ` per second, the offered load is `C · λ · 8S`
//! bits/s; solving for λ gives the per-connection rate.

/// The per-connection job arrival rate (jobs/second) that offers
/// `load_fraction` of `bisection_bps`, given `connections` persistent
/// connections and `mean_flow_bytes` mean job size.
pub fn load_to_rate(load_fraction: f64, bisection_bps: u64, connections: u32, mean_flow_bytes: f64) -> f64 {
    assert!(load_fraction > 0.0 && load_fraction <= 1.5, "load fraction out of range");
    assert!(connections > 0 && mean_flow_bytes > 0.0);
    let offered_bps = load_fraction * bisection_bps as f64;
    offered_bps / (connections as f64 * mean_flow_bytes * 8.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_checks_out() {
        // 16 Gbps bisection, 64 connections, 1 MB mean flows, 50% load:
        // 8e9 bps / (64 * 8e6 bits) = 15.625 jobs/s/conn.
        let r = load_to_rate(0.5, 16_000_000_000, 64, 1_000_000.0);
        assert!((r - 15.625).abs() < 1e-9, "rate {r}");
    }

    #[test]
    fn load_scales_linearly() {
        let r1 = load_to_rate(0.2, 1_000_000_000, 10, 100_000.0);
        let r2 = load_to_rate(0.8, 1_000_000_000, 10, 100_000.0);
        assert!((r2 / r1 - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_load() {
        load_to_rate(0.0, 1, 1, 1.0);
    }
}
