//! Sample summaries for the benchmark's reports.
//!
//! Percentiles take `q` on the `[0, 100]` scale and interpolate linearly
//! between closest ranks (the same rule as numpy's default). Every
//! reported percentile carries how many samples lie strictly beyond it,
//! so a reader can tell how many observations a tail figure rests on.

use serde::Value;

/// An immutable, sorted, finite sample.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarize `values`. Non-finite values are a measurement bug and
    /// are rejected.
    pub fn new(mut values: Vec<f64>) -> Result<Self, String> {
        if values.is_empty() {
            return Err("empty sample".into());
        }
        if let Some(bad) = values.iter().find(|v| !v.is_finite()) {
            return Err(format!("non-finite sample value {bad}"));
        }
        values.sort_by(f64::total_cmp);
        Ok(Summary { sorted: values })
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// The arithmetic mean. The exact mean lies in `[min, max]`; the clamp
    /// removes summation rounding that can push it a few ulps past either
    /// end on near-constant samples.
    pub fn mean(&self) -> f64 {
        (self.sorted.iter().sum::<f64>() / self.sorted.len() as f64).clamp(self.min(), self.max())
    }

    /// The `q`-th percentile, `q ∈ [0, 100]`.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(
            (0.0..=100.0).contains(&q),
            "percentile q={q} outside [0, 100]"
        );
        let rank = q / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        // min/max clamp keeps the interpolation inside its two neighbours
        // when rounding would push it a ulp outside.
        (self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * frac)
            .clamp(self.sorted[lo], self.sorted[hi])
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Samples strictly greater than the `q`-th percentile.
    pub fn beyond(&self, q: f64) -> usize {
        let p = self.percentile(q);
        self.sorted.len() - self.sorted.partition_point(|&v| v <= p)
    }

    /// The ordering every emitted report must satisfy:
    /// `min ≤ p25 ≤ p50 ≤ p75 ≤ p90 ≤ max` and `min ≤ mean ≤ max`.
    pub fn check(&self) -> Result<(), String> {
        let ps = [
            self.min(),
            self.percentile(25.0),
            self.percentile(50.0),
            self.percentile(75.0),
            self.percentile(90.0),
            self.max(),
        ];
        if ps.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("percentiles out of order: {ps:?}"));
        }
        let mean = self.mean();
        if mean < self.min() || mean > self.max() {
            return Err(format!(
                "mean {mean} outside [{}, {}]",
                self.min(),
                self.max()
            ));
        }
        Ok(())
    }

    /// The summary as a JSON object for the run record.
    pub fn to_value(&self) -> Value {
        let num = |k: &str, v: f64| (k.to_string(), Value::Num(v));
        Value::Map(vec![
            num("n", self.len() as f64),
            num("min", self.min()),
            num("q1", self.percentile(25.0)),
            num("median", self.median()),
            num("q3", self.percentile(75.0)),
            num("p90", self.percentile(90.0)),
            num("max", self.max()),
            num("mean", self.mean()),
            num("beyond_p50", self.beyond(50.0) as f64),
            num("beyond_p90", self.beyond(90.0) as f64),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn percentiles_use_the_0_to_100_scale() {
        let s = Summary::new((1..=101).map(f64::from).collect()).unwrap();
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.median(), 51.0);
        assert_eq!(s.percentile(90.0), 91.0);
        assert_eq!(s.percentile(100.0), 101.0);
        assert_eq!(s.beyond(50.0), 50);
        assert_eq!(s.beyond(90.0), 10);
    }

    #[test]
    fn interpolates_between_ranks() {
        let s = Summary::new(vec![4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.percentile(25.0), 1.75);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn rejects_q_above_100() {
        Summary::new(vec![1.0]).unwrap().percentile(150.0);
    }

    #[test]
    fn rejects_empty_and_non_finite_samples() {
        assert!(Summary::new(Vec::new()).is_err());
        assert!(Summary::new(vec![1.0, f64::NAN]).is_err());
        assert!(Summary::new(vec![f64::INFINITY]).is_err());
    }

    #[test]
    fn ordering_holds_on_random_and_degenerate_samples() {
        let mut rng = StdRng::seed_from_u64(11);
        for trial in 0..500 {
            let n = rng.gen_range(1..200usize);
            let values: Vec<f64> = match trial % 4 {
                0 => (0..n).map(|_| rng.gen_range(0.0..1.0)).collect(),
                // heavy tail, like request latencies
                1 => (0..n)
                    .map(|_| (-(rng.gen_range(1e-9..1.0f64)).ln()).powi(3))
                    .collect(),
                // constant sample: mean rounding must stay in range
                2 => vec![0.1 + trial as f64 * 1e-3; n],
                _ => (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect(),
            };
            let s = Summary::new(values).unwrap();
            s.check().unwrap();
            assert!(s.min() <= s.median() && s.median() <= s.percentile(90.0));
            assert!(s.percentile(90.0) <= s.max());
            assert!(s.beyond(50.0) <= s.len() / 2 + 1);
        }
    }
}
