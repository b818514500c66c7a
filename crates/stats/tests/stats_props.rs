//! Property tests for the statistics substrate: the streaming summary
//! agrees with naive two-pass computation, CDFs are monotone, batch
//! means match direct averaging, and ratio estimates are exact for
//! proportional tallies.

use busarb_stats::{BatchMeans, BatchMeansConfig, BatchTally, Cdf, Summary};
use proptest::prelude::*;

fn reasonable_f64() -> impl Strategy<Value = f64> {
    // Bounded magnitudes keep naive two-pass arithmetic meaningful.
    -1e6..1e6f64
}

/// Samples that sit on and around integer boundaries: zeros, exact
/// integers, fractional and negative values, and values past every
/// `limit` the tests probe.
fn boundary_sample() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (0u32..50).prop_map(f64::from),
        0.0..50.0f64,
        -3.0..0.0f64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn summary_matches_two_pass(values in prop::collection::vec(reasonable_f64(), 1..200)) {
        let s: Summary = values.iter().copied().collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        prop_assert_eq!(s.count() as usize, values.len());
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()));
        prop_assert!((s.population_variance() - var).abs() <= 1e-4 * (1.0 + var.abs()));
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.min(), Some(min));
        prop_assert_eq!(s.max(), Some(max));
    }

    #[test]
    fn summary_merge_is_order_insensitive(
        a in prop::collection::vec(reasonable_f64(), 0..100),
        b in prop::collection::vec(reasonable_f64(), 0..100),
    ) {
        let mut ab: Summary = a.iter().copied().collect();
        ab.merge(&b.iter().copied().collect());
        let mut ba: Summary = b.iter().copied().collect();
        ba.merge(&a.iter().copied().collect());
        prop_assert_eq!(ab.count(), ba.count());
        prop_assert!((ab.mean() - ba.mean()).abs() <= 1e-6 * (1.0 + ab.mean().abs()));
        prop_assert!(
            (ab.sample_variance() - ba.sample_variance()).abs()
                <= 1e-4 * (1.0 + ab.sample_variance().abs())
        );
    }

    #[test]
    fn cdf_is_monotone_and_bounded(
        samples in prop::collection::vec(reasonable_f64(), 1..100),
        probes in prop::collection::vec(reasonable_f64(), 1..20),
    ) {
        let mut cdf: Cdf = samples.iter().copied().collect();
        let mut probes = probes;
        probes.sort_by(f64::total_cmp);
        let mut last = 0.0;
        for &p in &probes {
            let v = cdf.eval(p);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v >= last, "cdf must be monotone");
            last = v;
        }
        // Extremes.
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(cdf.eval(max), 1.0);
    }

    #[test]
    fn cdf_quantile_inverts_eval(samples in prop::collection::vec(reasonable_f64(), 1..100)) {
        let mut cdf: Cdf = samples.iter().copied().collect();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let x = cdf.quantile(q).unwrap();
            // At least a q-fraction of samples are <= quantile(q).
            prop_assert!(cdf.eval(x) + 1e-12 >= q, "q = {q}");
        }
    }

    #[test]
    fn integer_evaluation_equals_eval(
        samples in prop::collection::vec(boundary_sample(), 0..120),
        limit in 0u32..40,
    ) {
        let mut cdf: Cdf = samples.iter().copied().collect();
        let at = cdf.eval_integers(limit);
        prop_assert_eq!(at.len(), limit as usize + 1);
        // One pass leaves the recorded order alone.
        prop_assert_eq!(cdf.samples(), &samples[..]);
        for x in 0..=limit {
            let eval = cdf.eval(f64::from(x));
            prop_assert_eq!(at[x as usize].to_bits(), eval.to_bits(), "x = {}", x);
        }
    }

    #[test]
    fn selected_quantiles_equal_sorted_quantiles(
        samples in prop::collection::vec(boundary_sample(), 0..120),
        (a, b, c) in (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=1.0f64),
    ) {
        let qs = [a, 0.0, 0.5, b, 0.9, 0.99, c, 1.0, a];
        let mut selected: Cdf = samples.iter().copied().collect();
        let mut sorted: Cdf = samples.iter().copied().collect();
        match selected.quantiles(qs) {
            None => prop_assert!(samples.is_empty()),
            Some(values) => {
                for (&q, &v) in qs.iter().zip(&values) {
                    prop_assert_eq!(Some(v), sorted.quantile(q), "q = {}", q);
                }
                // Already-sorted samples are read, not selected again.
                prop_assert_eq!(sorted.quantiles(qs), Some(values));
            }
        }
    }

    #[test]
    fn batch_means_point_estimate_is_the_grand_mean(
        values in prop::collection::vec(reasonable_f64(), 20..200),
    ) {
        // Use batches that exactly divide the stream; the batch-means
        // point estimate then equals the grand mean of the used prefix.
        let spb = values.len() / 10;
        prop_assume!(spb >= 1);
        let mut bm = BatchMeans::new(BatchMeansConfig {
            batches: 10,
            samples_per_batch: spb,
            confidence: 0.9,
        })
        .unwrap();
        for &x in &values {
            bm.record(x);
        }
        let used = &values[..10 * spb];
        let grand = used.iter().sum::<f64>() / used.len() as f64;
        let est = bm.estimate().unwrap();
        prop_assert!((est.mean - grand).abs() <= 1e-6 * (1.0 + grand.abs()));
        prop_assert!(est.halfwidth >= 0.0);
    }

    #[test]
    fn proportional_tallies_have_exact_ratios(
        base in prop::collection::vec(1u64..200, 5),
        k in 1u64..10,
    ) {
        let mut tally = BatchTally::new(2, 5).unwrap();
        for &count in &base {
            for _ in 0..count {
                tally.record(0);
            }
            for _ in 0..count * k {
                tally.record(1);
            }
            tally.close_batch();
        }
        let r = tally.ratio(1, 0, 0.9).unwrap();
        prop_assert!((r.estimate.mean - k as f64).abs() < 1e-9);
        prop_assert!(r.estimate.halfwidth < 1e-9);
    }
}
