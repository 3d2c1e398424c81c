//! Re-construction error (RCE) and its optimality guarantees.
//!
//! `RCE = Σ_{t ∈ T} Err_t` (Equation 13) measures how well the published
//! tables let a researcher re-model the microdata. Theorem 2: any pair of
//! anatomized tables has `RCE ≥ n(1 − 1/l)`. Theorem 4: `Anatomize` meets
//! the bound exactly when `l | n`, and otherwise exceeds it by the factor
//! `1 + r/(n(l−1)) ≤ 1 + 1/n` where `r = n mod l`.

use crate::partition::Partition;
use crate::published::AnatomizedTables;
use anatomy_tables::Microdata;

/// Theorem 2's lower bound: `n (1 − 1/l)`, evaluated as the integer
/// `n − ⌊n/l⌋` less the fraction `(n mod l)/l`, so it is exact whenever
/// `l | n` (the equality case of Theorem 4).
pub fn rce_lower_bound(n: usize, l: usize) -> f64 {
    assert!(l >= 1);
    (n - n / l) as f64 - (n % l) as f64 / l as f64
}

/// One QI-group's share of Equation 13, in closed form.
///
/// Each of the `c(v)` tuples carrying `v` in a group of QIT size `s`
/// errs by `(1 − c(v)/s)² + Σ_{u≠v} (c(u)/s)²`, so the group contributes
///
/// `Σ_v c(v)(1 − c(v)/s)² + c(v)(Σc² − c(v)²)/s² = (m·s² − 2·s·Σc² + m·Σc²) / s²`
///
/// where `m = Σ c(v)` is the group's ST mass and `sum_sq = Σ c(v)²`. The
/// identity holds for any `m`, so it also scores corrupt parts whose ST
/// mass disagrees with the QIT size. The numerator is an exact integer and
/// is divided once, so the result is exact whenever the term is an
/// integer — all counts 1 gives `s − 1`, Theorem 4's equality case. A
/// group of size 0 contributes nothing.
pub fn rce_group_term(size: u64, mass: u64, sum_sq: u128) -> f64 {
    if size == 0 {
        return 0.0;
    }
    let exact = || -> Option<f64> {
        let (s, m, q) = (size as i128, mass as i128, i128::try_from(sum_sq).ok()?);
        let s2 = s.checked_mul(s)?;
        let num = m
            .checked_mul(s2)?
            .checked_add(m.checked_mul(q)?)?
            .checked_sub(s.checked_mul(q)?.checked_mul(2)?)?;
        // The sum of squares above is never negative, so neither is
        // `num`; split off the integer quotient so it is not rounded
        // together with the remainder.
        Some((num / s2) as f64 + (num % s2) as f64 / s2 as f64)
    };
    // Only corrupt parts leave i128 (say 2^16 rows whose counts are near
    // u32::MAX); there the same identity is evaluated in floating point.
    exact().unwrap_or_else(|| {
        let (s, m, q) = (size as f64, mass as f64, sum_sq as f64);
        m - 2.0 * q / s + m * q / (s * s)
    })
}

/// Theorem 4's predicted RCE for the output of `Anatomize`:
/// `(n − r)(1 − 1/l) + r` with `r = n mod l`.
pub fn rce_predicted_anatomize(n: usize, l: usize) -> f64 {
    let r = n % l;
    rce_lower_bound(n - r, l) + r as f64
}

/// Exact RCE of an arbitrary partition over `md` (Equations 12–13), summed
/// group by group from each group's sensitive histogram.
pub fn rce_of_partition(md: &Microdata, partition: &Partition) -> f64 {
    (0..partition.group_count() as u32)
        .map(|j| {
            let hist = partition.sensitive_histogram(md, j);
            let sum_sq: u128 = hist.nonzero().map(|(_, c)| (c as u128).pow(2)).sum();
            let size = hist.total() as u64;
            rce_group_term(size, size, sum_sq)
        })
        .fold(0.0, |total, term| total + term)
}

/// Exact RCE computed from a published QIT/ST pair alone (the ST determines
/// every group's histogram, and each tuple's error depends only on its
/// group's histogram and its own value — summing `c(v) · Err(v)` over ST
/// records needs no microdata).
pub fn rce_of_anatomized(tables: &AnatomizedTables) -> f64 {
    (0..tables.group_count() as u32)
        .map(|j| {
            let (mass, sum_sq) = tables.st_of(j).iter().fold((0u64, 0u128), |(m, q), r| {
                (m + r.count as u64, q + (r.count as u128).pow(2))
            });
            rce_group_term(tables.group_size(j) as u64, mass, sum_sq)
        })
        .fold(0.0, |total, term| total + term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anatomize::{anatomize, AnatomizeConfig};
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md_from_sensitive(codes: &[u32], domain: u32) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 10_000),
            Attribute::categorical("S", domain),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (i, &c) in codes.iter().enumerate() {
            b.push_row(&[i as u32, c]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    #[test]
    fn lower_bound_formula() {
        assert!((rce_lower_bound(100, 10) - 90.0).abs() < 1e-12);
        assert!((rce_lower_bound(8, 2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_is_exact_when_l_divides_n() {
        // Every divisor of a spread of n up to 10^9: powers of two and
        // ten, highly composite numbers, and a pseudo-random sample.
        let mut ns: Vec<usize> = (0..30).map(|k| 1usize << k).collect();
        ns.extend((0..=9).map(|k| 10usize.pow(k)));
        ns.extend([720_720, 735_134_400, 997_920_000, 999_999_937]);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ns.push(1 + (x % 1_000_000_000) as usize);
        }
        for n in ns {
            let mut d = 1;
            while d * d <= n {
                if n % d == 0 {
                    for l in [d, n / d] {
                        assert_eq!(
                            rce_lower_bound(n, l),
                            (n - n / l) as f64,
                            "n = {n}, l = {l}"
                        );
                    }
                }
                d += 1;
            }
        }
    }

    /// Equation 13 for one group, summed tuple by tuple.
    fn group_term_per_tuple(size: u64, counts: &[u32]) -> f64 {
        let s = size as f64;
        let sum_sq: f64 = counts.iter().map(|&c| (c as f64).powi(2)).sum();
        counts
            .iter()
            .map(|&c| {
                let c = c as f64;
                c * ((1.0 - c / s).powi(2) + (sum_sq - c * c) / (s * s))
            })
            .sum()
    }

    #[test]
    fn group_term_matches_the_per_tuple_sum() {
        let cases: &[(u64, &[u32])] = &[
            (4, &[1, 1, 1, 1]),
            (5, &[2, 1, 1, 1]),
            (7, &[3, 2, 2]),
            (1, &[1]),
            (9, &[9]),
            // Corrupt shapes: mass above and below the QIT size, zero
            // counts, no ST rows at all.
            (3, &[4, 4, 1]),
            (10, &[1, 0, 2]),
            (6, &[]),
            (2, &[u32::MAX, 7]),
        ];
        for &(size, counts) in cases {
            let mass = counts.iter().map(|&c| c as u64).sum();
            let sum_sq = counts.iter().map(|&c| (c as u128).pow(2)).sum();
            let closed = rce_group_term(size, mass, sum_sq);
            let direct = group_term_per_tuple(size, counts);
            assert!(
                (closed - direct).abs() <= 1e-12 * direct.abs().max(1.0),
                "s = {size}, counts = {counts:?}: closed {closed} vs direct {direct}"
            );
        }
        assert_eq!(rce_group_term(0, 5, 25), 0.0);

        // 2^16 rows of count u32::MAX: m·Σc² passes i128, so the term
        // falls back to floating point instead of overflowing.
        let counts = vec![u32::MAX; 1 << 16];
        let mass = counts.iter().map(|&c| c as u64).sum();
        let sum_sq = counts.iter().map(|&c| (c as u128).pow(2)).sum();
        let closed = rce_group_term(3, mass, sum_sq);
        let direct = group_term_per_tuple(3, &counts);
        assert!(
            (closed - direct).abs() <= 1e-9 * direct,
            "{closed} vs {direct}"
        );
    }

    #[test]
    fn group_term_is_exact_at_theorem_4_equality() {
        // All counts 1: the group contributes exactly s − 1.
        for s in [1u64, 2, 10, 19, 1 << 20, 1 << 40] {
            assert_eq!(rce_group_term(s, s, s as u128), (s - 1) as f64);
        }
        // 10^5 groups of 10 sum to exactly 90 000 — the per-tuple float
        // sum lands below it.
        let total: f64 = (0..100_000 / 10).map(|_| rce_group_term(10, 10, 10)).sum();
        assert_eq!(total, 90_000.0);
        assert_eq!(total, rce_lower_bound(100_000, 10));
    }

    #[test]
    fn predicted_equals_bound_when_l_divides_n() {
        assert_eq!(rce_predicted_anatomize(100, 10), rce_lower_bound(100, 10));
        assert_eq!(rce_predicted_anatomize(99, 3), rce_lower_bound(99, 3));
    }

    #[test]
    fn predicted_exceeds_bound_by_at_most_1_plus_1_over_n() {
        for n in [10usize, 11, 57, 100, 101, 999] {
            for l in [2usize, 3, 7, 10] {
                let predicted = rce_predicted_anatomize(n, l);
                let bound = rce_lower_bound(n, l);
                assert!(predicted + 1e-9 >= bound);
                assert!(
                    predicted <= bound * (1.0 + 1.0 / n as f64) + 1e-9,
                    "n={n} l={l}: predicted {predicted} vs bound {bound}"
                );
            }
        }
    }

    #[test]
    fn anatomize_rce_matches_theorem_4_exactly() {
        // n divisible by l.
        let codes: Vec<u32> = (0..60).map(|i| i % 6).collect();
        let md = md_from_sensitive(&codes, 6);
        let p = anatomize(&md, &AnatomizeConfig::new(3)).unwrap();
        assert_eq!(rce_of_partition(&md, &p), rce_lower_bound(60, 3));

        // n not divisible by l: RCE equals the Theorem 4 closed form.
        let codes: Vec<u32> = (0..61).map(|i| i % 7).collect();
        let md = md_from_sensitive(&codes, 7);
        let p = anatomize(&md, &AnatomizeConfig::new(3)).unwrap();
        let rce = rce_of_partition(&md, &p);
        assert!(
            (rce - rce_predicted_anatomize(61, 3)).abs() < 1e-9,
            "rce = {rce}, predicted = {}",
            rce_predicted_anatomize(61, 3)
        );
    }

    #[test]
    fn rce_from_tables_matches_rce_from_partition() {
        let codes: Vec<u32> = (0..97).map(|i| (i * 11) % 8).collect();
        let md = md_from_sensitive(&codes, 8);
        let p = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
        let t = crate::published::AnatomizedTables::publish(&md, &p, 4).unwrap();
        let a = rce_of_partition(&md, &p);
        let b = rce_of_anatomized(&t);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn suboptimal_partition_has_higher_rce() {
        // With l = 2, groups holding λ = 4 distinct values have per-tuple
        // error 1 - 1/4 = 0.75 instead of the optimal 1 - 1/2 = 0.5
        // (Theorem 2's proof: the minimum needs λ = l).
        let codes = [0u32, 1, 2, 3, 0, 1, 2, 3];
        let md = md_from_sensitive(&codes, 4);
        let p = anatomize(&md, &AnatomizeConfig::new(2)).unwrap();
        let optimal = rce_of_partition(&md, &p);
        assert!((optimal - 4.0).abs() < 1e-9); // 8 * 0.5

        let coarse = Partition::new(vec![(0..8).collect()], 8).unwrap();
        let coarse_rce = rce_of_partition(&md, &coarse);
        assert!((coarse_rce - 6.0).abs() < 1e-9); // 8 * 0.75
        assert!(coarse_rce > optimal);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// Theorem 2 + Theorem 4: for every eligible input, Anatomize's
            /// RCE lies in [bound, bound * (1 + 1/n)].
            #[test]
            fn theorem_2_and_4_hold(
                codes in proptest::collection::vec(0u32..10, 6..150),
                l in 2usize..5,
                seed in 0u64..100,
            ) {
                let md = md_from_sensitive(&codes, 10);
                let config = AnatomizeConfig::new(l).with_seed(seed);
                if let Ok(p) = anatomize(&md, &config) {
                    let n = codes.len();
                    let rce = rce_of_partition(&md, &p);
                    let bound = rce_lower_bound(n, l);
                    prop_assert!(rce + 1e-9 >= bound, "rce {} below bound {}", rce, bound);
                    prop_assert!(
                        rce <= bound * (1.0 + 1.0 / n as f64) + 1e-9,
                        "rce {} above (1+1/n) * bound {}",
                        rce,
                        bound
                    );
                    // And the exact closed form of Theorem 4.
                    let predicted = rce_predicted_anatomize(n, l);
                    prop_assert!((rce - predicted).abs() < 1e-6);
                }
            }
        }
    }
}
