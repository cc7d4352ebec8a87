//! Source pacing: emit tuples at a configured sensing rate.
//!
//! The evaluation drives sources at fixed frame rates (24 FPS video,
//! §VI-A). [`Pacer`] converts a rate into precise emission deadlines in
//! the shared microsecond timebase, avoiding cumulative rounding drift,
//! and supports mid-stream rate changes (Fig. 2 varies the input rate).

/// Deadline generator for a fixed-rate source.
#[derive(Debug, Clone, PartialEq)]
pub struct Pacer {
    /// Emission interval in microseconds (fractional for exactness).
    interval_us: f64,
    /// Deadline of the next emission.
    next_due_us: f64,
    emitted: u64,
}

impl Pacer {
    /// Create a pacer emitting `rate_per_sec` tuples per second, with the
    /// first tuple due at `start_us`.
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite.
    #[must_use]
    pub fn new(rate_per_sec: f64, start_us: u64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "pacer rate must be positive and finite, got {rate_per_sec}"
        );
        Pacer {
            interval_us: 1_000_000.0 / rate_per_sec,
            next_due_us: start_us as f64,
            emitted: 0,
        }
    }

    /// Current rate in tuples per second.
    #[must_use]
    pub fn rate_per_sec(&self) -> f64 {
        1_000_000.0 / self.interval_us
    }

    /// Change the rate; the next deadline is preserved.
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite.
    pub fn set_rate(&mut self, rate_per_sec: f64) {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "pacer rate must be positive and finite, got {rate_per_sec}"
        );
        self.interval_us = 1_000_000.0 / rate_per_sec;
    }

    /// Deadline of the next emission, in microseconds.
    #[must_use]
    pub fn next_due_us(&self) -> u64 {
        self.next_due_us.round() as u64
    }

    /// Number of tuples whose deadlines have been consumed so far.
    #[must_use]
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Consume and return every deadline that is due at or before
    /// `now_us`. An idle period therefore produces a burst, exactly like a
    /// sensor buffer being drained.
    pub fn due(&mut self, now_us: u64) -> Vec<u64> {
        let mut out = Vec::new();
        while self.next_due_us <= now_us as f64 {
            out.push(self.next_due_us.round() as u64);
            self.next_due_us += self.interval_us;
            self.emitted += 1;
        }
        out
    }

    /// Consume exactly one deadline and return it (used by event-driven
    /// schedulers that wake exactly at [`next_due_us`](Self::next_due_us)).
    pub fn consume_next(&mut self) -> u64 {
        let due = self.next_due_us.round() as u64;
        self.next_due_us += self.interval_us;
        self.emitted += 1;
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_at_exact_rate_without_drift() {
        let mut p = Pacer::new(24.0, 0);
        let due = p.due(1_000_000); // one second
        assert_eq!(due.len(), 25); // t=0 plus 24 intervals
                                   // After 10 simulated seconds the count is exact up to one deadline
                                   // of floating-point boundary slack, with no cumulative drift.
        let due = p.due(10_000_000);
        assert_eq!(p.emitted() as usize, due.len() + 25);
        assert!((240..=241).contains(&p.emitted()), "{}", p.emitted());
    }

    #[test]
    fn deadlines_are_evenly_spaced() {
        let mut p = Pacer::new(10.0, 500);
        let due = p.due(1_000_500);
        assert_eq!(due[0], 500);
        for w in due.windows(2) {
            let gap = w[1] - w[0];
            assert!((99_999..=100_001).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn rate_change_takes_effect_for_subsequent_deadlines() {
        let mut p = Pacer::new(5.0, 0);
        p.due(400_000); // consume a few at 200 ms spacing
        p.set_rate(20.0);
        assert!((p.rate_per_sec() - 20.0).abs() < 1e-9);
        let before = p.emitted();
        p.due(1_400_000);
        let after = p.emitted();
        // Next deadline was already scheduled at 600 ms; the remaining
        // 800 ms at 20/s yields 17 deadlines (600, 650, ..., 1400 ms).
        assert!((16..=18).contains(&(after - before)), "{}", after - before);
    }

    #[test]
    fn consume_next_advances_one_deadline() {
        let mut p = Pacer::new(24.0, 0);
        let first = p.consume_next();
        let second = p.consume_next();
        assert_eq!(first, 0);
        assert!((41_600..41_700).contains(&second));
        assert_eq!(p.emitted(), 2);
    }

    #[test]
    fn nothing_due_before_start() {
        let mut p = Pacer::new(24.0, 1_000_000);
        assert!(p.due(999_999).is_empty());
        assert_eq!(p.next_due_us(), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = Pacer::new(0.0, 0);
    }
}
