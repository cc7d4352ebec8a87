//! Feature extraction: a Goertzel filterbank over short windows —
//! the compute core of the recognizer (PocketSphinx's role of turning
//! audio into per-frame acoustic scores).

use crate::voice::signal::SAMPLE_RATE_HZ;

/// Samples per analysis window (25 ms at 8 kHz).
pub const WINDOW_SAMPLES: usize = 200;

/// Filters the bank advances together. Each filter's recurrence is a
/// serial multiply → add → subtract chain, so one filter alone runs at
/// floating-point latency; a block of independent chains in stack
/// arrays lets the compiler pack them two to a vector and the CPU
/// overlap the vectors. Best of 40 interleaved trials for the 36-filter
/// standard bank, baseline x86-64 (SSE2), µs per 72 kB frame:
/// 4 → 1 000, 6 → 710, 8 → 580, 12 → 375, 18 → 305, 36 → 305 (and 36
/// wastes most on a small vocabulary); one filter at a time, 3 560.
const BLOCK: usize = 18;

// `for_each_window` steps two samples at a time.
const _: () = assert!(WINDOW_SAMPLES.is_multiple_of(2));

/// The Goertzel coefficient `2·cos ω` of `freq_hz` over an `n`-sample window.
fn goertzel_coeff(n: usize, freq_hz: f64) -> f64 {
    let k = (0.5 + n as f64 * freq_hz / SAMPLE_RATE_HZ as f64).floor();
    let omega = 2.0 * std::f64::consts::PI * k / n as f64;
    2.0 * omega.cos()
}

/// Power of one frequency in a sample window (Goertzel algorithm).
///
/// The single-filter form: what every filter of a [`FilterBank`]
/// computes, and the oracle its tests compare against bit for bit.
#[must_use]
pub fn goertzel_power(samples: &[i16], freq_hz: f64) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let coeff = goertzel_coeff(n, freq_hz);
    let mut s0;
    let mut s1 = 0.0f64;
    let mut s2 = 0.0f64;
    for &x in samples {
        s0 = x as f64 + coeff * s1 - s2;
        s2 = s1;
        s1 = s0;
    }
    let power = s1 * s1 + s2 * s2 - coeff * s1 * s2;
    power / (n as f64 * n as f64)
}

/// A bank of Goertzel filters over [`WINDOW_SAMPLES`]-sample windows,
/// coefficients computed once.
///
/// Every filter performs exactly [`goertzel_power`]'s operations in
/// sample order — `(x + c·s1) − s2`, no fused multiply-add, no
/// reassociation — so each energy equals the single-filter form bit for
/// bit; only the order *across* filters changed.
#[derive(Debug, Clone)]
pub struct FilterBank {
    /// Coefficients in blocks; the last block is padded with zeros
    /// (a padding lane computes a finite value nobody reads).
    blocks: Vec<[f64; BLOCK]>,
    filters: usize,
}

impl FilterBank {
    /// One filter per frequency, in order.
    #[must_use]
    pub fn new(freqs: &[f64]) -> Self {
        let blocks = freqs
            .chunks(BLOCK)
            .map(|chunk| {
                let mut c = [0.0; BLOCK];
                for (c, &f) in c.iter_mut().zip(chunk) {
                    *c = goertzel_coeff(WINDOW_SAMPLES, f);
                }
                c
            })
            .collect();
        FilterBank {
            blocks,
            filters: freqs.len(),
        }
    }

    /// Call `on_window` with the per-filter powers of each window of a
    /// 16-bit little-endian PCM frame, in order. Windows do not
    /// overlap; a trailing partial window (or odd byte) is dropped.
    pub fn for_each_window(&self, pcm: &[u8], mut on_window: impl FnMut(&[f64])) {
        let mut x = [0.0f64; WINDOW_SAMPLES];
        let mut powers = vec![[0.0f64; BLOCK]; self.blocks.len()];
        for window in pcm.chunks_exact(WINDOW_SAMPLES * 2) {
            for (x, b) in x.iter_mut().zip(window.chunks_exact(2)) {
                *x = f64::from(i16::from_le_bytes([b[0], b[1]]));
            }
            for (c, out) in self.blocks.iter().zip(&mut powers) {
                block_powers(c, &x, out);
            }
            on_window(&powers.as_flattened()[..self.filters]);
        }
    }
}

/// The powers of one block of filters over one window.
///
/// Never inlined: this loop is > 90% of the recognizer's time, and
/// whether LLVM keeps the lanes packed depended on the caller it was
/// inlined into (the same source ran at 315 or 630 µs a frame from one
/// instantiation of `for_each_window` to the next). Compiled alone it
/// has one shape.
#[inline(never)]
fn block_powers(c: &[f64; BLOCK], x: &[f64; WINDOW_SAMPLES], out: &mut [f64; BLOCK]) {
    const SCALE: f64 = (WINDOW_SAMPLES * WINDOW_SAMPLES) as f64;
    // Two steps per iteration, the arrays trading roles, so no state
    // moves between them: after each pair `s1` holds the newest value
    // and `s2` the one before, as in `goertzel_power`.
    let mut s1 = [0.0f64; BLOCK];
    let mut s2 = [0.0f64; BLOCK];
    for pair in x.chunks_exact(2) {
        for j in 0..BLOCK {
            s2[j] = pair[0] + c[j] * s1[j] - s2[j];
        }
        for j in 0..BLOCK {
            s1[j] = pair[1] + c[j] * s2[j] - s1[j];
        }
    }
    for j in 0..BLOCK {
        let power = s1[j] * s1[j] + s2[j] * s2[j] - c[j] * s1[j] * s2[j];
        out[j] = power / SCALE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voice::signal::{AudioGenerator, Vocabulary};
    use swing_core::rng::DetRng;

    fn tone(freq: f64, n: usize, amp: f64) -> Vec<i16> {
        (0..n)
            .map(|i| {
                let t = i as f64 / SAMPLE_RATE_HZ as f64;
                ((2.0 * std::f64::consts::PI * freq * t).sin() * amp) as i16
            })
            .collect()
    }

    fn to_pcm(samples: &[i16]) -> Vec<u8> {
        samples.iter().flat_map(|s| s.to_le_bytes()).collect()
    }

    /// One row per window, one power per frequency.
    fn window_energies(pcm: &[u8], freqs: &[f64]) -> Vec<Vec<f64>> {
        let mut rows = Vec::new();
        FilterBank::new(freqs).for_each_window(pcm, |row| rows.push(row.to_vec()));
        rows
    }

    #[test]
    fn goertzel_finds_the_tone_frequency() {
        let samples = tone(1_000.0, WINDOW_SAMPLES, 8_000.0);
        let on = goertzel_power(&samples, 1_000.0);
        let off = goertzel_power(&samples, 1_640.0);
        assert!(on > 100.0 * off, "on {on} off {off}");
    }

    #[test]
    fn power_scales_with_amplitude() {
        let quiet = goertzel_power(&tone(900.0, WINDOW_SAMPLES, 1_000.0), 900.0);
        let loud = goertzel_power(&tone(900.0, WINDOW_SAMPLES, 4_000.0), 900.0);
        let ratio = loud / quiet;
        assert!((12.0..20.0).contains(&ratio), "ratio {ratio}"); // ~16x
    }

    #[test]
    fn empty_window_is_zero() {
        assert_eq!(goertzel_power(&[], 1_000.0), 0.0);
    }

    #[test]
    fn window_energies_shape() {
        let samples = tone(700.0, WINDOW_SAMPLES * 3 + 50, 5_000.0);
        let rows = window_energies(&to_pcm(&samples), &[700.0, 1_500.0]);
        assert_eq!(rows.len(), 3); // partial window dropped
        for row in &rows {
            assert_eq!(row.len(), 2);
            assert!(row[0] > 10.0 * row[1]);
        }
    }

    #[test]
    fn chord_lights_up_both_frequencies() {
        let a = tone(800.0, WINDOW_SAMPLES, 4_000.0);
        let b = tone(2_300.0, WINDOW_SAMPLES, 4_000.0);
        let chord: Vec<i16> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x.saturating_add(y))
            .collect();
        let rows = window_energies(&to_pcm(&chord), &[800.0, 2_300.0, 3_100.0]);
        assert!(rows[0][0] > 50.0 * rows[0][2]);
        assert!(rows[0][1] > 50.0 * rows[0][2]);
    }

    /// Every energy the bank produces is the single-filter form's, to
    /// the bit: inputs that cross every window-walking edge, bank sizes
    /// that leave a block remainder (13 words = 26 filters) and that
    /// fill less than one block (1 and 5 words).
    #[test]
    fn bank_matches_single_filter_bitwise() {
        let vocab = Vocabulary::standard();
        let mut inputs: Vec<(String, Vec<u8>)> = (1..=8)
            .map(|seed| {
                let pcm = AudioGenerator::new(vocab.clone(), seed)
                    .next_utterance()
                    .pcm;
                (format!("utterance seed {seed}"), pcm)
            })
            .collect();
        let mut rng = DetRng::seed_from_u64(3);
        let noise: Vec<i16> = (0..WINDOW_SAMPLES * 20)
            .map(|_| rng.random_range(-2_000..2_000))
            .collect();
        inputs.push(("noise".into(), to_pcm(&noise)));
        let extremes: Vec<i16> = [i16::MIN, i16::MAX, -1, 0, 1]
            .into_iter()
            .cycle()
            .take(WINDOW_SAMPLES * 2)
            .collect();
        inputs.push(("full-scale".into(), to_pcm(&extremes)));
        inputs.push(("silence".into(), vec![0; 72_000]));
        let whole = inputs[0].1.clone();
        inputs.push(("truncated".into(), whole[..whole.len() / 2].to_vec()));
        inputs.push(("odd byte count".into(), whole[..1_001].to_vec()));
        inputs.push(("empty".into(), Vec::new()));

        for words in [1, 5, 13, 18] {
            let freqs: Vec<f64> = (0..words)
                .flat_map(|w| <[f64; 2]>::from(vocab.freqs(w)))
                .collect();
            for (name, pcm) in &inputs {
                let samples: Vec<i16> = pcm
                    .chunks_exact(2)
                    .map(|c| i16::from_le_bytes([c[0], c[1]]))
                    .collect();
                let rows = window_energies(pcm, &freqs);
                assert_eq!(rows.len(), samples.len() / WINDOW_SAMPLES, "{name}");
                for (w, (row, window)) in rows
                    .iter()
                    .zip(samples.chunks_exact(WINDOW_SAMPLES))
                    .enumerate()
                {
                    assert_eq!(row.len(), freqs.len());
                    for (&got, &f) in row.iter().zip(&freqs) {
                        let want = goertzel_power(window, f);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name}, {words} words, window {w}, {f} Hz: {got:e} vs {want:e}"
                        );
                    }
                }
            }
        }
    }
}
