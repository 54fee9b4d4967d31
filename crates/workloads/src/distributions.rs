//! Flow-size distributions from the literature the paper samples:
//! DCTCP (web search) [Alizadeh et al., SIGCOMM'10], VL2 [Greenberg et
//! al., SIGCOMM'09], and Facebook's CACHE / HADOOP / WEB clusters
//! [Roy et al., SIGCOMM'15]. Piecewise log-linear CDFs approximated from
//! the published figures — the relevant property for the reproduction is
//! their very different mean sizes and tail weights.

use fet_netsim::rng::Pcg32;

/// A named empirical flow-size CDF.
#[derive(Debug, Clone)]
pub struct FlowSizeDist {
    /// Workload name as the paper labels it.
    pub name: &'static str,
    /// (size bytes, cumulative probability), strictly increasing in both.
    pub(crate) points: &'static [(f64, f64)],
}

/// DCTCP / web-search.
pub const DCTCP: FlowSizeDist = FlowSizeDist {
    name: "DCTCP",
    points: &[
        (1_000.0, 0.0),
        (10_000.0, 0.15),
        (20_000.0, 0.20),
        (50_000.0, 0.40),
        (100_000.0, 0.53),
        (500_000.0, 0.60),
        (1_000_000.0, 0.70),
        (2_000_000.0, 0.80),
        (5_000_000.0, 0.90),
        (10_000_000.0, 0.97),
        (30_000_000.0, 1.0),
    ],
};

/// VL2 measured DC traffic.
pub(crate) const VL2: FlowSizeDist = FlowSizeDist {
    name: "VL2",
    points: &[
        (100.0, 0.0),
        (1_000.0, 0.50),
        (10_000.0, 0.80),
        (100_000.0, 0.92),
        (1_000_000.0, 0.95),
        (10_000_000.0, 0.98),
        (100_000_000.0, 1.0),
    ],
};

/// Facebook cache cluster: overwhelmingly small request/response flows.
pub const CACHE: FlowSizeDist = FlowSizeDist {
    name: "CACHE",
    points: &[
        (100.0, 0.0),
        (700.0, 0.30),
        (1_000.0, 0.50),
        (10_000.0, 0.90),
        (100_000.0, 0.97),
        (1_000_000.0, 1.0),
    ],
};

/// Facebook Hadoop cluster.
pub(crate) const HADOOP: FlowSizeDist = FlowSizeDist {
    name: "HADOOP",
    points: &[
        (100.0, 0.0),
        (1_000.0, 0.30),
        (10_000.0, 0.70),
        (100_000.0, 0.90),
        (1_000_000.0, 0.95),
        (100_000_000.0, 1.0),
    ],
};

/// Facebook web cluster.
pub const WEB: FlowSizeDist = FlowSizeDist {
    name: "WEB",
    points: &[
        (100.0, 0.0),
        (1_000.0, 0.60),
        (10_000.0, 0.85),
        (100_000.0, 0.95),
        (1_000_000.0, 0.99),
        (10_000_000.0, 1.0),
    ],
};

/// All five workloads, in the order the paper's figures list them.
pub const ALL_WORKLOADS: [&FlowSizeDist; 5] = [&DCTCP, &VL2, &CACHE, &HADOOP, &WEB];

impl FlowSizeDist {
    /// Sample a flow size in bytes (inverse-CDF with log-size
    /// interpolation between the published points).
    pub(crate) fn sample(&self, rng: &mut Pcg32) -> u64 {
        let u = rng.next_f64();
        let pts = self.points;
        if u <= pts[0].1 {
            return pts[0].0 as u64;
        }
        for w in pts.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let frac = if p1 > p0 { (u - p0) / (p1 - p0) } else { 1.0 };
                let ln = s0.ln() + frac * (s1.ln() - s0.ln());
                return ln.exp().max(1.0) as u64;
            }
        }
        pts[pts.len() - 1].0 as u64
    }

    /// Numeric mean of the distribution (for arrival-rate sizing).
    pub(crate) fn mean_bytes(&self) -> f64 {
        // Integrate the piecewise log-linear inverse CDF numerically.
        let n = 10_000;
        let mut acc = 0.0;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            acc += self.quantile(u);
        }
        acc / n as f64
    }

    /// The u-th quantile in bytes.
    pub(crate) fn quantile(&self, u: f64) -> f64 {
        let pts = self.points;
        if u <= pts[0].1 {
            return pts[0].0;
        }
        for w in pts.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let frac = if p1 > p0 { (u - p0) / (p1 - p0) } else { 1.0 };
                return (s0.ln() + frac * (s1.ln() - s0.ln())).exp();
            }
        }
        pts[pts.len() - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_within_support() {
        let mut rng = Pcg32::new(1, 1);
        for d in ALL_WORKLOADS {
            let lo = d.points[0].0 as u64;
            let hi = d.points[d.points.len() - 1].0 as u64;
            for _ in 0..1_000 {
                let s = d.sample(&mut rng);
                assert!(s >= lo.min(1) && s <= hi, "{}: {s} not in [{lo},{hi}]", d.name);
            }
        }
    }

    #[test]
    fn cdfs_are_monotone() {
        for d in ALL_WORKLOADS {
            for w in d.points.windows(2) {
                assert!(w[0].0 < w[1].0, "{} sizes not increasing", d.name);
                assert!(w[0].1 <= w[1].1, "{} probs not monotone", d.name);
            }
            assert_eq!(d.points.last().unwrap().1, 1.0);
        }
    }

    #[test]
    fn workload_means_are_ordered_sensibly() {
        // CACHE/WEB are small-flow workloads; DCTCP is the heavy one.
        let mean = |d: &FlowSizeDist| d.mean_bytes();
        assert!(mean(&CACHE) < mean(&DCTCP));
        assert!(mean(&WEB) < mean(&DCTCP));
        assert!(mean(&DCTCP) > 500_000.0, "DCTCP mean {}", mean(&DCTCP));
        assert!(mean(&CACHE) < 50_000.0, "CACHE mean {}", mean(&CACHE));
    }

    #[test]
    fn empirical_mean_tracks_analytic() {
        let mut rng = Pcg32::new(2, 2);
        let d = &WEB;
        let n = 50_000;
        let emp: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
        let ana = d.mean_bytes();
        assert!((emp - ana).abs() / ana < 0.15, "emp {emp} vs ana {ana}");
    }

    #[test]
    fn quantiles_bracket_medians() {
        // VL2 median is ~1KB per its 0.5 point.
        let m = VL2.quantile(0.5);
        assert!((900.0..=1_100.0).contains(&m), "VL2 median {m}");
    }
}
