//! Word recognition: score every vocabulary word per window, then
//! decode the word sequence with run-length smoothing.

use crate::voice::features::{FilterBank, WINDOW_SAMPLES};
use crate::voice::signal::{Vocabulary, WORD_SAMPLES};

/// Decoder for tone-chord encoded speech.
#[derive(Debug, Clone)]
pub struct Recognizer {
    vocab: Vocabulary,
    /// Filters `2w` and `2w + 1` are word `w`'s chord `(f1, f2)`.
    bank: FilterBank,
}

impl Recognizer {
    /// Build a recognizer over the vocabulary.
    #[must_use]
    pub fn new(vocab: Vocabulary) -> Self {
        let freqs: Vec<f64> = (0..vocab.len())
            .flat_map(|i| <[f64; 2]>::from(vocab.freqs(i)))
            .collect();
        let bank = FilterBank::new(&freqs);
        Recognizer { vocab, bank }
    }

    /// The vocabulary being decoded.
    #[must_use]
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Decode an audio frame (16-bit LE PCM) into the spoken words.
    #[must_use]
    pub fn decode(&self, pcm: &[u8]) -> Vec<&'static str> {
        let mut runs = Runs::default();
        self.bank
            .for_each_window(pcm, |row| runs.push(self.vote(row)));
        let words = runs.finish().into_iter();
        words.map(|w| self.vocab.word(w)).collect()
    }

    /// The word one window votes for: the one whose chord (f1 AND f2)
    /// carries the most combined energy, gated geometrically so a
    /// single loud frequency cannot win alone.
    fn vote(&self, row: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        let total: f64 = row.iter().sum::<f64>() + 1e-9;
        for w in 0..self.vocab.len() {
            let p1 = row[2 * w];
            let p2 = row[2 * w + 1];
            let score = (p1 * p2).sqrt();
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((w, score));
            }
        }
        // Reject silent / ambiguous windows.
        best.filter(|&(w, s)| {
            let share = (row[2 * w] + row[2 * w + 1]) / total;
            s > 50.0 && share > 0.5
        })
        .map(|(w, _)| w)
    }
}

/// Collapses per-window votes into words as they arrive: a word is
/// emitted for every run of at least `MIN_RUN` consistent windows.
#[derive(Debug, Default)]
struct Runs {
    /// The run in progress: (word, length).
    run: Option<(usize, usize)>,
    words: Vec<usize>,
}

impl Runs {
    /// Half a word's windows; a shorter run is a boundary artefact.
    const MIN_RUN: usize = WORD_SAMPLES / WINDOW_SAMPLES / 2;

    fn push(&mut self, vote: Option<usize>) {
        match (vote, self.run) {
            (Some(w), Some((rw, len))) if w == rw => self.run = Some((rw, len + 1)),
            (Some(w), _) => {
                self.flush();
                self.run = Some((w, 1));
            }
            (None, _) => self.flush(),
        }
    }

    fn flush(&mut self) {
        if let Some((w, len)) = self.run.take() {
            if len >= Self::MIN_RUN {
                self.words.push(w);
            }
        }
    }

    fn finish(mut self) -> Vec<usize> {
        self.flush();
        self.words
    }
}

/// Convenience: decode a frame with a fresh recognizer.
#[must_use]
pub fn recognize_words(vocab: &Vocabulary, pcm: &[u8]) -> Vec<&'static str> {
    Recognizer::new(vocab.clone()).decode(pcm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::voice::signal::AudioGenerator;

    #[test]
    fn decodes_generated_utterances_exactly() {
        let vocab = Vocabulary::standard();
        let recognizer = Recognizer::new(vocab.clone());
        let mut gen = AudioGenerator::new(vocab, 17);
        let mut exact = 0;
        let n = 10;
        for _ in 0..n {
            let u = gen.next_utterance();
            let decoded = recognizer.decode(&u.pcm);
            // Consecutive repeated words merge into one run; compare
            // against the deduplicated truth.
            let mut truth = Vec::new();
            for &w in &u.words {
                if truth.last() != Some(&w) {
                    truth.push(w);
                }
            }
            if decoded == truth {
                exact += 1;
            }
        }
        assert!(exact >= n - 1, "only {exact}/{n} frames decoded exactly");
    }

    #[test]
    fn silence_decodes_to_nothing() {
        let recognizer = Recognizer::new(Vocabulary::standard());
        let pcm = vec![0u8; 72_000];
        assert!(recognizer.decode(&pcm).is_empty());
    }

    #[test]
    fn pure_noise_decodes_to_mostly_nothing() {
        use swing_core::rng::DetRng;
        let mut rng = DetRng::seed_from_u64(3);
        let recognizer = Recognizer::new(Vocabulary::standard());
        let mut pcm = Vec::with_capacity(72_000);
        for _ in 0..36_000 {
            let s: i16 = rng.random_range(-2_000..2_000);
            pcm.extend_from_slice(&s.to_le_bytes());
        }
        let words = recognizer.decode(&pcm);
        assert!(words.len() <= 2, "noise decoded to {words:?}");
    }

    #[test]
    fn truncated_frames_are_handled() {
        let vocab = Vocabulary::standard();
        let recognizer = Recognizer::new(vocab.clone());
        let mut gen = AudioGenerator::new(vocab, 9);
        let u = gen.next_utterance();
        // Half a frame decodes to roughly the first half of the words.
        let words = recognizer.decode(&u.pcm[..u.pcm.len() / 2]);
        assert!(!words.is_empty());
        assert!(words.len() <= u.words.len());
        // Odd byte counts must not panic.
        let _ = recognizer.decode(&u.pcm[..1001]);
        let _ = recognizer.decode(&[]);
    }
}
