//! Order statistics over latency samples.

/// The `q`-quantile (0..=1) of `samples` by nearest rank; 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median, p99 and count of a latency sample set, in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub p50: f64,
    pub p99: f64,
    pub count: usize,
}

impl Summary {
    pub fn of(samples_us: &[f64]) -> Summary {
        let mut sorted = samples_us.to_vec();
        Summary {
            p50: quantile(&mut sorted, 0.5),
            p99: quantile(&mut sorted, 0.99),
            count: samples_us.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut samples, 0.5), 50.0);
        assert_eq!(quantile(&mut samples, 0.99), 99.0);
        assert_eq!(quantile(&mut samples, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
