//! The voice-translation sensing app (paper §VI-A).
//!
//! Four function units, as the paper splits them: "reading audio frames
//! from files (source); recognizing audio streams into English words
//! (based on CMU Pocketsphinx); translating those words into Spanish
//! (based on Apertium); and displaying results (sink). The size of each
//! audio frame is 72.0 kB."
//!
//! The synthetic microphone encodes English sentences as sequences of
//! tone chords (each vocabulary word owns a unique pair of frequencies),
//! 16-bit PCM at 8 kHz, 36 000 samples = 72 000 bytes per frame. The
//! recognizer runs a Goertzel filterbank over 25 ms windows (all
//! filters of a block advancing together, see [`FilterBank`]) and
//! decodes the word sequence; the translator maps it to Spanish with a
//! dictionary plus simple reordering rules.

mod features;
mod recognize;
mod signal;
mod translate;
mod units;

pub use features::{goertzel_power, FilterBank, WINDOW_SAMPLES};
pub use recognize::{recognize_words, Recognizer};
pub use signal::{
    AudioGenerator, Utterance, Vocabulary, FRAME_BYTES, FRAME_SAMPLES, SAMPLE_RATE_HZ,
    WORDS_PER_FRAME, WORD_SAMPLES,
};
pub use translate::{translate, Translator};
pub use units::{
    install, AudioSource, RecognizeUnit, TranslateUnit, TranslationSink, VoiceAppConfig,
    STAGE_DISPLAY, STAGE_RECOGNIZE, STAGE_SOURCE, STAGE_TRANSLATE,
};

use swing_core::graph::AppGraph;

/// Build the paper's four-stage voice-translation dataflow graph.
#[must_use]
pub fn app_graph() -> AppGraph {
    let mut g = AppGraph::new("voice-translation");
    let src = g.add_source(STAGE_SOURCE);
    let rec = g.add_operator(STAGE_RECOGNIZE);
    let tra = g.add_operator(STAGE_TRANSLATE);
    let dsp = g.add_sink(STAGE_DISPLAY);
    g.connect(src, rec).expect("valid edge");
    g.connect(rec, tra).expect("valid edge");
    g.connect(tra, dsp).expect("valid edge");
    g.set_target_rate(24.0);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_graph_is_valid_and_four_staged() {
        let g = app_graph();
        g.validate().unwrap();
        assert_eq!(g.stage_count(), 4);
    }
}
