//! First-party deterministic PRNG for every seeded code path.
//!
//! FoundationDB-style deterministic simulation only works if a printed
//! seed reproduces the *same byte-for-byte run on any build of any
//! version of this workspace*. External PRNGs cannot promise that:
//! `rand`'s `StdRng` is explicitly documented as non-portable — its
//! algorithm may change between `rand` releases — so a seed logged by
//! CI last month could become unreproducible after a dependency bump.
//! Owning the generator removes that risk and removes `rand` from the
//! dependency tree entirely.
//!
//! [`DetRng`] is splitmix64 (Steele, Lea & Flood, *Fast Splittable
//! Pseudorandom Number Generators*, OOPSLA 2014): one 64-bit state
//! word, an additive Weyl sequence and a 3-round mix. It is fast
//! (~1 ns/draw), equidistributed over 64-bit outputs, and trivially
//! seedable — ample for delay/loss sampling, weighted routing draws and
//! synthetic workload generation. It is **not** cryptographic.
//!
//! ## Stability contract
//!
//! The output sequence for a given seed is part of this crate's public
//! API: changing it invalidates every recorded scenario seed, so any
//! algorithm change must be treated as a breaking change and called out
//! loudly in release notes.

/// Deterministic splitmix64 generator. The same seed always yields the
/// same sequence, on every platform and every build of this workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

/// The splitmix64 Weyl increment (golden ratio * 2^64).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

impl DetRng {
    /// Create a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            state: seed.wrapping_add(GOLDEN_GAMMA),
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value from an integer or float range (half-open `a..b`
    /// or inclusive `a..=b`). Panics on an empty range.
    #[inline]
    pub fn random_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`. Panics unless
    /// `0.0 <= p <= 1.0`.
    #[inline]
    pub fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.unit_f64() < p
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Derive an independent generator for a sub-stream (per link, per
    /// worker, ...) so adding one consumer never perturbs the draws of
    /// another — the property that keeps seeded scenarios stable as the
    /// topology changes.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> DetRng {
        // Mix the stream tag through one splitmix round so adjacent
        // tags yield uncorrelated states.
        let mut tag = stream ^ self.next_u64();
        tag = (tag ^ (tag >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        DetRng { state: tag }
    }

    /// Any `u64` for a property test, with the boundary values
    /// over-drawn: 0, 1 and `u64::MAX` each come up once in sixteen
    /// draws — where overflow and off-by-one bugs live, and where a
    /// uniform draw never lands.
    pub fn any_u64(&mut self) -> u64 {
        match self.next_u64() % 16 {
            0 => 0,
            1 => 1,
            2 => u64::MAX,
            _ => self.next_u64(),
        }
    }

    /// [`any_u64`](Self::any_u64) narrowed; truncation keeps 0, 1 and
    /// the all-ones maximum.
    pub fn any_u32(&mut self) -> u32 {
        self.any_u64() as u32
    }

    /// [`any_u64`](Self::any_u64) narrowed to a byte.
    pub fn any_u8(&mut self) -> u8 {
        self.any_u64() as u8
    }
}

/// Check a property on `cases` generated inputs: `body` draws its input
/// from the generator it is handed and asserts on it.
///
/// Every case has a seed of its own, chained from `seed`, and draws from
/// a stream forked off it, so a case's input depends on nothing the
/// cases before it drew. When `body` panics, the panic is raised again
/// with the case's index and seed in front of its message; running the
/// property with that seed and `cases = 1` replays the one failing case.
/// There is no shrinking: the replayed input is the one that failed.
///
/// # Panics
/// When `body` does, for the first case that fails.
pub fn for_each_case(seed: u64, cases: u32, mut body: impl FnMut(&mut DetRng)) {
    let mut case_seed = seed;
    for case in 0..cases {
        let mut root = DetRng::seed_from_u64(case_seed);
        let next_seed = root.next_u64();
        let mut rng = root.fork(0);
        let run = std::panic::AssertUnwindSafe(|| body(&mut rng));
        if let Err(cause) = std::panic::catch_unwind(run) {
            let why = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("(panic payload is not a string)");
            panic!(
                "case {case} of {cases} from seed {seed:#x} failed: {why}\n\
                 replay it alone: for_each_case({case_seed:#x}, 1, ..)"
            );
        }
        case_seed = next_seed;
    }
}

/// Types drawable uniformly from a range by [`DetRng::random_range`].
pub trait SampleUniform: Copy {
    /// Uniform draw from `[lo, hi)` (or `[lo, hi]` when `inclusive`).
    fn sample_uniform(lo: Self, hi: Self, inclusive: bool, rng: &mut DetRng) -> Self;
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_uniform(lo: Self, hi: Self, inclusive: bool, rng: &mut DetRng) -> Self {
                let span = (hi as i128 - lo as i128) + if inclusive { 1 } else { 0 };
                assert!(span > 0, "empty range in random_range");
                let off = (rng.next_u64() as u128) % span as u128;
                (lo as i128 + off as i128) as $t
            }
        }
    )*};
}

int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_uniform(lo: Self, hi: Self, inclusive: bool, rng: &mut DetRng) -> Self {
        if !inclusive {
            assert!(lo < hi, "empty range in random_range");
        }
        lo + (hi - lo) * rng.unit_f64()
    }
}

/// Range shapes accepted by [`DetRng::random_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_from(self, rng: &mut DetRng) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample_from(self, rng: &mut DetRng) -> T {
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_from(self, rng: &mut DetRng) -> T {
        T::sample_uniform(*self.start(), *self.end(), true, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequence for a fixed seed is frozen: these values are the
    /// crate's cross-build reproducibility contract (splitmix64 test
    /// vectors for state 1234567 + k*gamma). If this test ever needs
    /// updating, every recorded scenario seed in CI logs, bug reports
    /// and BENCH baselines is invalidated — treat as a breaking change.
    #[test]
    fn sequence_is_frozen() {
        let mut rng = DetRng::seed_from_u64(1234567);
        let expected = [
            0x2c73_f084_5854_0fa5u64,
            0x883e_bce5_a3f2_7c77,
            0x3fbe_f740_e917_7b3f,
        ];
        for e in expected {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = DetRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = rng.random_range(10u64..20);
            assert!((10..20).contains(&v));
            let w = rng.random_range(-5i64..=5);
            assert!((-5..=5).contains(&w));
            let f = rng.random_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&f));
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = DetRng::seed_from_u64(9);
        for _ in 0..100 {
            assert!(!rng.random_bool(0.0));
            assert!(rng.random_bool(1.0));
        }
    }

    #[test]
    fn unit_f64_stays_in_unit_interval() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        // Mean of 10k uniforms is within a few std errors of 0.5.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    /// The inputs of every case, as `for_each_case(seed, cases, ..)`
    /// hands them out.
    fn case_stream(seed: u64, cases: u32) -> Vec<[u64; 3]> {
        let mut drawn = Vec::new();
        for_each_case(seed, cases, |rng| {
            drawn.push([rng.any_u64(), rng.next_u64(), rng.random_range(0..1_000)]);
        });
        drawn
    }

    #[test]
    fn same_seed_gives_the_same_case_stream() {
        let a = case_stream(0xFEED, 64);
        assert_eq!(a, case_stream(0xFEED, 64));
        assert_ne!(a, case_stream(0xFEEE, 64));
        assert_eq!(a[..8], case_stream(0xFEED, 8)[..], "a prefix of cases");
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 64, "cases draw from distinct streams");
    }

    /// What a failing property prints is enough to run the failing case
    /// again by itself: its index, and a seed whose case 0 it is.
    #[test]
    fn failing_case_reports_its_index_and_replay_seed() {
        let fails = |v: u64| v % 7 == 3;
        let property = |seed: u64, cases: u32| {
            std::panic::catch_unwind(|| {
                for_each_case(seed, cases, |rng| {
                    let v = rng.next_u64();
                    assert!(!fails(v), "drew {v}");
                });
            })
        };
        let mut first_draws = Vec::new();
        for_each_case(0xBAD, 200, |rng| first_draws.push(rng.next_u64()));
        let first_failure = first_draws.iter().position(|&v| fails(v));
        let cause = property(0xBAD, 200).expect_err("one case in seven fails");
        let message = cause.downcast_ref::<String>().expect("a formatted panic");
        let index = first_failure.expect("some case fails");
        assert!(
            message.starts_with(&format!(
                "case {index} of 200 from seed 0xbad failed: drew "
            )),
            "{message}"
        );
        let replay = message
            .rsplit("for_each_case(0x")
            .next()
            .and_then(|tail| tail.split(',').next())
            .map(|hex| u64::from_str_radix(hex, 16).expect("a hex seed"))
            .expect("a replay seed");
        let again = property(replay, 1).expect_err("the replayed case fails too");
        let again = again.downcast_ref::<String>().unwrap();
        let drew = |m: &str| {
            m.split("drew ")
                .nth(1)
                .unwrap()
                .lines()
                .next()
                .unwrap()
                .to_owned()
        };
        assert_eq!(
            drew(message),
            drew(again),
            "the replay draws the same input"
        );
        assert!(again.starts_with("case 0 of 1 "), "{again}");
    }

    #[test]
    fn any_integers_hit_the_boundaries() {
        let mut rng = DetRng::seed_from_u64(5);
        let drawn: Vec<u64> = (0..2_000).map(|_| rng.any_u64()).collect();
        for edge in [0, 1, u64::MAX] {
            let share = drawn.iter().filter(|&&v| v == edge).count();
            assert!((60..200).contains(&share), "{edge}: {share} of 2000");
        }
        assert!(drawn.iter().filter(|&&v| v > 1 && v < u64::MAX).count() > 1_500);
        let narrow: Vec<u8> = (0..2_000).map(|_| rng.any_u8()).collect();
        assert!(narrow.contains(&0) && narrow.contains(&1) && narrow.contains(&u8::MAX));
        assert!((0..2_000).any(|_| rng.any_u32() == u32::MAX));
    }

    #[test]
    fn forked_streams_are_independent_of_sibling_count() {
        let mut parent_a = DetRng::seed_from_u64(1);
        let fork_a = parent_a.fork(77);
        let mut parent_b = DetRng::seed_from_u64(1);
        let fork_b = parent_b.fork(77);
        assert_eq!(fork_a, fork_b);
    }
}
