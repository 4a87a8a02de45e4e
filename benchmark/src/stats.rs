//! The statistics the protocol rests on: quantiles, the quiet level, ratios
//! of quiet levels, and the mirrored order of pieces in a block.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, allocations).
    Lower,
    /// Larger is better (rates, speed-ups).
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// the two nearest order statistics. Panics on an empty slice: every caller
/// has at least one block.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How far into the fast side the quiet level lies: the fast-side quartile.
pub const QUIET: f64 = 0.25;

/// The quiet level of a per-block quantity: its [`QUIET`] quantile on the
/// fast side (low for times, high for rates). The host this benchmark has to
/// live on switches, every few seconds, between states in which a
/// single-threaded computation runs at 1x, 1.3x or 1.7x its best time, and
/// the pooled engines follow those states by another factor than the
/// interpreter does. Interference only ever slows a block down, so the fast
/// end of the distribution is the level a run is most likely to visit, and
/// ratios of two lanes' quiet levels repeat better than ratios of their
/// medians do.
pub fn quiet_level(values: &[f64], better: Better) -> f64 {
    match better {
        Better::Lower => quantile(values, QUIET),
        Better::Higher => quantile(values, 1.0 - QUIET),
    }
}

/// `base / new` for two times: above 1 when `new` is the faster side. Every
/// gated timing metric is this (or its reciprocal) applied to two quiet
/// levels taken from the same blocks.
pub fn speedup(base_time: f64, new_time: f64) -> f64 {
    base_time / new_time
}

/// The order in which block `block` visits its `pieces` pieces: forward on
/// even blocks, reversed on odd ones, so that a drift that is linear in
/// time adds the same amount to every piece over a pair of blocks.
pub fn block_order(block: usize, pieces: usize) -> Vec<usize> {
    if block.is_multiple_of(2) {
        (0..pieces).collect()
    } else {
        (0..pieces).rev().collect()
    }
}

/// The nearest-rank `p`-th percentile (0 < p ≤ 100) of latencies inside one
/// piece; `scratch` is sorted in place.
pub fn percentile_in_place(scratch: &mut [f64], p: f64) -> f64 {
    assert!(!scratch.is_empty(), "percentile of no samples");
    scratch.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * scratch.len() as f64).ceil() as usize;
    scratch[rank.clamp(1, scratch.len()) - 1]
}

/// A small deterministic generator (SplitMix64) for seed-driven inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn quiet_level_takes_the_fast_side_in_both_directions() {
        // Twenty-one blocks: a host that is quiet a third of the time.
        let mut times: Vec<f64> = (0..7).map(|i| 10.0 + f64::from(i) * 0.1).collect();
        times.extend((0..14).map(|i| 14.0 + f64::from(i)));
        let level = quiet_level(&times, Better::Lower);
        assert!((level - 10.5).abs() < 1e-9, "{level}");
        let rates: Vec<f64> = times.iter().map(|t| 1000.0 / t).collect();
        let rate = quiet_level(&rates, Better::Higher);
        assert!((rate - 1000.0 / 10.5).abs() < 1e-9, "{rate}");
        // A host that is quiet twice as often moves the median, not the level.
        let mut calmer: Vec<f64> = (0..14).map(|i| 10.0 + f64::from(i) * 0.05).collect();
        calmer.extend((0..7).map(|i| 14.0 + f64::from(i)));
        let calm_level = quiet_level(&calmer, Better::Lower);
        assert!((calm_level - level).abs() / level < 0.03, "{calm_level}");
        assert!(median(&times) > 1.3 * median(&calmer));
    }

    #[test]
    fn speedup_is_above_one_when_the_new_side_is_faster() {
        assert_eq!(speedup(200.0, 100.0), 2.0);
        assert!(speedup(100.0, 125.0) < 1.0);
    }

    #[test]
    fn block_order_is_mirrored_on_alternate_blocks() {
        assert_eq!(block_order(0, 4), vec![0, 1, 2, 3]);
        assert_eq!(block_order(1, 4), vec![3, 2, 1, 0]);
        assert_eq!(block_order(2, 5), vec![0, 1, 2, 3, 4]);
        // Over a pair of blocks every piece has the same mean position.
        for piece in 0..4 {
            let at = |b| block_order(b, 4).iter().position(|&p| p == piece).unwrap();
            assert_eq!(at(0) + at(1), 3);
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile_in_place(&mut v, 50.0), 10.0);
        assert_eq!(percentile_in_place(&mut v, 90.0), 18.0);
        assert_eq!(percentile_in_place(&mut v, 100.0), 20.0);
    }

    #[test]
    fn shuffle_is_a_permutation_fixed_by_the_seed() {
        let mut a: Vec<u32> = (0..64).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        Rng::new(8).shuffle(&mut c);
        assert_eq!(a, b);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..64).collect::<Vec<_>>());
    }
}
