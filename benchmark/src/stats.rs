//! Order statistics, the geometric mean and the seeded Zipf draw.

use crate::layers::Draw;

/// Nearest-rank percentile of an ascending slice (`p` in 1..=100): the
/// sample at rank ceil(p·n/100).
fn percentile_sorted(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p as usize * sorted.len()).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn percentile(values: &[f64], p: u32) -> f64 {
    percentile_sorted(&sorted(values), p)
}

/// Median as the mean of the two middle samples (0 for no samples, so a
/// layer that never ran reports 0).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of the samples ranked between the `(p − half)`th and the
/// `(p + half)`th percentile: a percentile smoothed over a window.
///
/// Op latencies are a mixture of per-statement clusters. A plain
/// percentile that falls near the boundary between two clusters (16 ms
/// and 28 ms on `replay-dop`, 2.3 ms and 4.3 ms at the 95th percentile
/// of `serve-mixed`) jumps from one to the other when the mix moves by
/// 0.2 %; the window mean moves by a proportionate amount instead, and
/// is still blind to everything beyond the window.
pub fn window_mean(values: &[f64], p: f64, half: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len() as f64;
    let lo = (((p - half) / 100.0 * n).floor() as usize).min(v.len() - 1);
    let hi = (((p + half) / 100.0 * n).ceil() as usize).clamp(lo + 1, v.len());
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The highest of p50/p90/p95/p99 that still has [`MIN_BEYOND`] samples
/// beyond it, with the sample count it was picked from — what a tail
/// latency may honestly be quoted at.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(u32, f64, usize)> {
    let n = values.len();
    let v = sorted(values);
    [99u32, 95, 90, 50]
        .into_iter()
        .find(|&p| n - (p as usize * n).div_ceil(100) >= MIN_BEYOND)
        .map(|p| (p, percentile_sorted(&v, p), n))
}

/// Geometric mean of positive ratios (1 for none).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// A deck of `~size` cards over ranks `0..n` that holds rank `k` in
/// proportion to its Zipf(s) weight `1/(k+1)^s` (and at least once).
/// Dealing shuffled decks is a stratified Zipf draw: every deck has the
/// exact mix, so the mix does not wander from run to run the way
/// independent draws make it (±3 % on a statement of weight 0.03 in
/// 30 000 ops, which is what moved `serve-mixed`'s tail latency).
pub fn zipf_deck(n: usize, s: f64, size: usize) -> Vec<usize> {
    let weight = |k: usize| 1.0 / ((k + 1) as f64).powf(s);
    let total: f64 = (0..n).map(weight).sum();
    (0..n)
        .flat_map(|k| {
            let cards = (size as f64 * weight(k) / total).round().max(1.0) as usize;
            std::iter::repeat_n(k, cards)
        })
        .collect()
}

/// Fisher–Yates on the seeded draw.
pub fn shuffle<T>(items: &mut [T], draw: &mut Draw) {
    for i in (1..items.len()).rev() {
        items.swap(i, (draw.unit() * (i + 1) as f64) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 95), 95.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn window_mean_is_smooth_where_a_percentile_jumps() {
        // Two clusters, 1 ms and 9 ms, meeting just below the median.
        let mix = |ones: usize| {
            let mut v = vec![1.0; ones];
            v.resize(1000, 9.0);
            v
        };
        assert_eq!(percentile(&mix(499), 50), 9.0);
        assert_eq!(percentile(&mix(501), 50), 1.0);
        let (a, b) = (
            window_mean(&mix(499), 50.0, 5.0),
            window_mean(&mix(501), 50.0, 5.0),
        );
        assert!((a - b).abs() < 0.2 && a > 4.0 && a < 6.0, "{a} {b}");
        // Outliers beyond the window do not move it.
        let mut v = mix(499);
        v[999] = 1e9;
        assert_eq!(window_mean(&v, 50.0, 5.0), a);
        assert_eq!(window_mean(&[3.0], 95.0, 2.5), 3.0);
        assert_eq!(window_mean(&[], 95.0, 2.5), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let of = |n: usize| {
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            highest_supported_percentile(&v).map(|(p, _, count)| (p, count))
        };
        assert_eq!(of(19), None);
        assert_eq!(of(20), Some((50, 20)));
        assert_eq!(of(100), Some((90, 100)));
        assert_eq!(of(199), Some((90, 199)));
        assert_eq!(of(200), Some((95, 200)));
        assert_eq!(of(1000), Some((99, 1000)));
    }

    #[test]
    fn geometric_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn zipf_deck_is_skewed_and_its_shuffle_deterministic_per_seed() {
        let deck = zipf_deck(60, 1.0, 500);
        let count = |k| deck.iter().filter(|&&x| x == k).count();
        // Rank 0 carries 1/H(60) ≈ 21.4 % of the mass, rank 59 1/60 of that.
        assert_eq!((count(0), count(1), count(59)), (107, 53, 2));
        assert!((480..=520).contains(&deck.len()), "{}", deck.len());
        assert!((0..60).all(|k| count(k) >= 1));
        let dealt = |seed| {
            let (mut deck, mut draw) = (deck.clone(), Draw::new(seed));
            shuffle(&mut deck, &mut draw);
            deck
        };
        assert_eq!(dealt(7), dealt(7));
        assert_ne!(dealt(7), dealt(8));
        assert_ne!(dealt(7), deck);
        let mut sorted = dealt(7);
        sorted.sort_unstable();
        assert_eq!(sorted, deck);
    }
}
