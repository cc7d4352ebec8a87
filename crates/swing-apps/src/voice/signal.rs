//! Synthetic microphone: English sentences encoded as tone chords.

use swing_core::rng::DetRng;

/// Audio sample rate, hertz.
pub const SAMPLE_RATE_HZ: usize = 8_000;
/// 16-bit samples per frame; 36 000 samples × 2 bytes = 72.0 kB, the
/// paper's audio-frame size.
pub const FRAME_SAMPLES: usize = 36_000;
/// Bytes per audio frame.
pub const FRAME_BYTES: usize = FRAME_SAMPLES * 2;
/// Samples per encoded word (250 ms).
pub const WORD_SAMPLES: usize = SAMPLE_RATE_HZ / 4;
/// Words per frame.
pub const WORDS_PER_FRAME: usize = FRAME_SAMPLES / WORD_SAMPLES;

/// The app vocabulary: each English word owns a unique frequency pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Vocabulary {
    words: Vec<&'static str>,
    /// (f1, f2) hertz per word.
    freqs: Vec<(f64, f64)>,
}

/// The built-in English vocabulary.
pub const WORDS: [&str; 18] = [
    "hello", "good", "morning", "where", "is", "the", "station", "please", "thank", "you", "water",
    "help", "my", "friend", "today", "now", "left", "right",
];

impl Vocabulary {
    /// The standard vocabulary with well-separated frequency pairs.
    #[must_use]
    pub fn standard() -> Self {
        let words = WORDS.to_vec();
        // Frequencies on a grid with >= 70 Hz spacing, well inside the
        // 4 kHz Nyquist limit; pair (i) = (500 + 70i, 2000 + 70i).
        let freqs = (0..words.len())
            .map(|i| (500.0 + 70.0 * i as f64, 2_000.0 + 70.0 * i as f64))
            .collect();
        Vocabulary { words, freqs }
    }

    /// Number of words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The word at index `i`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn word(&self, i: usize) -> &'static str {
        self.words[i]
    }

    /// The frequency pair of word `i`.
    ///
    /// # Panics
    /// Panics if out of range.
    #[must_use]
    pub fn freqs(&self, i: usize) -> (f64, f64) {
        self.freqs[i]
    }

    /// Index of a word, if in vocabulary.
    #[must_use]
    pub fn index_of(&self, word: &str) -> Option<usize> {
        self.words.iter().position(|&w| w == word)
    }
}

/// Ground truth for one generated frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Utterance {
    /// 16-bit little-endian PCM, [`FRAME_BYTES`] long.
    pub pcm: Vec<u8>,
    /// The spoken words, in order.
    pub words: Vec<&'static str>,
}

/// Deterministic audio-frame stream.
#[derive(Debug)]
pub struct AudioGenerator {
    vocab: Vocabulary,
    rng: DetRng,
    /// Peak amplitude of each tone (of i16 full scale).
    amplitude: f64,
    /// Additive noise amplitude.
    noise: f64,
}

impl AudioGenerator {
    /// A generator over the given vocabulary, seeded for reproducibility.
    #[must_use]
    pub fn new(vocab: Vocabulary, seed: u64) -> Self {
        AudioGenerator {
            vocab,
            rng: DetRng::seed_from_u64(seed),
            amplitude: 9_000.0,
            noise: 900.0,
        }
    }

    /// The vocabulary in use.
    #[must_use]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Synthesize the next frame: [`WORDS_PER_FRAME`] random words.
    pub fn next_utterance(&mut self) -> Utterance {
        let word_ids: Vec<usize> = (0..WORDS_PER_FRAME)
            .map(|_| self.rng.random_range(0..self.vocab.len()))
            .collect();
        let mut samples = Vec::with_capacity(FRAME_SAMPLES);
        for &w in &word_ids {
            let (f1, f2) = self.vocab.freqs(w);
            for n in 0..WORD_SAMPLES {
                let t = n as f64 / SAMPLE_RATE_HZ as f64;
                // Short fade at word boundaries avoids clicks and makes
                // window boundaries less clean for the recognizer.
                let edge = (n.min(WORD_SAMPLES - n) as f64 / 80.0).min(1.0);
                let tone = (2.0 * std::f64::consts::PI * f1 * t).sin()
                    + (2.0 * std::f64::consts::PI * f2 * t).sin();
                let noise = self.rng.random_range(-1.0..1.0) * self.noise;
                let v = tone * self.amplitude * 0.5 * edge + noise;
                samples.push(v.clamp(i16::MIN as f64, i16::MAX as f64) as i16);
            }
        }
        let mut pcm = Vec::with_capacity(FRAME_BYTES);
        for s in samples {
            pcm.extend_from_slice(&s.to_le_bytes());
        }
        Utterance {
            pcm,
            words: word_ids.iter().map(|&w| self.vocab.word(w)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_are_seventy_two_kilobytes() {
        let mut g = AudioGenerator::new(Vocabulary::standard(), 1);
        let u = g.next_utterance();
        assert_eq!(u.pcm.len(), 72_000);
        assert_eq!(FRAME_BYTES, 72_000);
        assert_eq!(u.words.len(), WORDS_PER_FRAME);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = AudioGenerator::new(Vocabulary::standard(), 5);
        let mut b = AudioGenerator::new(Vocabulary::standard(), 5);
        assert_eq!(a.next_utterance(), b.next_utterance());
    }

    #[test]
    fn vocabulary_frequencies_are_distinct_and_below_nyquist() {
        let v = Vocabulary::standard();
        let mut all = Vec::new();
        for i in 0..v.len() {
            let (f1, f2) = v.freqs(i);
            assert!(f2 < SAMPLE_RATE_HZ as f64 / 2.0, "word {i} above Nyquist");
            all.push(f1);
            all.push(f2);
        }
        all.sort_by(f64::total_cmp);
        for w in all.windows(2) {
            assert!(
                w[1] - w[0] >= 60.0,
                "frequencies too close: {} {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn index_of_roundtrips_words() {
        let v = Vocabulary::standard();
        for i in 0..v.len() {
            assert_eq!(v.index_of(v.word(i)), Some(i));
        }
        assert_eq!(v.index_of("zebra"), None);
    }

    #[test]
    fn signal_energy_is_substantial() {
        let mut g = AudioGenerator::new(Vocabulary::standard(), 2);
        let u = g.next_utterance();
        let samples = u
            .pcm
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]));
        let rms =
            (samples.map(|s| f64::from(s).powi(2)).sum::<f64>() / FRAME_SAMPLES as f64).sqrt();
        assert!(rms > 2_000.0, "rms {rms}");
    }
}
