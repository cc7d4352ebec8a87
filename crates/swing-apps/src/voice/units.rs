//! Swing function units wrapping the voice kernels.

use crate::voice::recognize::Recognizer;
use crate::voice::signal::{AudioGenerator, Vocabulary};
use crate::voice::translate::Translator;
use swing_core::unit::{Context, FunctionUnit, SinkUnit, SourceUnit};
use swing_core::Tuple;
use swing_runtime::registry::UnitRegistry;

/// Stage name of the microphone source.
pub const STAGE_SOURCE: &str = "microphone";
/// Stage name of the speech-recognition operator.
pub const STAGE_RECOGNIZE: &str = "speech-recognize";
/// Stage name of the translation operator.
pub const STAGE_TRANSLATE: &str = "translate";
/// Stage name of the display sink.
pub const STAGE_DISPLAY: &str = "subtitle";

/// Tuple field holding the raw PCM audio bytes.
pub const FIELD_AUDIO: &str = "audio";
/// Tuple field holding the recognized English text.
pub const FIELD_ENGLISH: &str = "english";
/// Tuple field holding the translated Spanish text.
pub const FIELD_SPANISH: &str = "spanish";

/// App-level configuration shared by all voice units.
#[derive(Debug, Clone)]
pub struct VoiceAppConfig {
    /// Vocabulary spoken and decoded.
    pub vocabulary: Vocabulary,
    /// Audio-generator seed.
    pub seed: u64,
}

impl Default for VoiceAppConfig {
    fn default() -> Self {
        VoiceAppConfig {
            vocabulary: Vocabulary::standard(),
            seed: 42,
        }
    }
}

/// Source unit: the synthetic microphone ("reading audio frames").
#[derive(Debug)]
pub struct AudioSource {
    gen: AudioGenerator,
}

impl AudioSource {
    /// Build from the app config.
    #[must_use]
    pub fn new(config: &VoiceAppConfig) -> Self {
        AudioSource {
            gen: AudioGenerator::new(config.vocabulary.clone(), config.seed),
        }
    }
}

impl SourceUnit for AudioSource {
    fn next_tuple(&mut self, _now_us: u64) -> Option<Tuple> {
        let u = self.gen.next_utterance();
        Some(Tuple::new().with(FIELD_AUDIO, u.pcm))
    }
}

/// Operator unit: "recognizing audio streams into English words".
#[derive(Debug)]
pub struct RecognizeUnit {
    recognizer: Recognizer,
}

impl RecognizeUnit {
    /// Build from the app config.
    #[must_use]
    pub fn new(config: &VoiceAppConfig) -> Self {
        RecognizeUnit {
            recognizer: Recognizer::new(config.vocabulary.clone()),
        }
    }
}

impl FunctionUnit for RecognizeUnit {
    fn process_data(&mut self, data: Tuple, ctx: &mut Context<'_>) {
        let Ok(pcm) = data.bytes(FIELD_AUDIO) else {
            return;
        };
        let words = self.recognizer.decode(pcm);
        ctx.send(Tuple::new().with(FIELD_ENGLISH, words.join(" ")));
    }
}

/// Operator unit: "translating those words into Spanish".
#[derive(Debug, Default)]
pub struct TranslateUnit {
    translator: Translator,
}

impl TranslateUnit {
    /// Build the standard translator unit.
    #[must_use]
    pub fn new() -> Self {
        TranslateUnit::default()
    }
}

impl FunctionUnit for TranslateUnit {
    fn process_data(&mut self, data: Tuple, ctx: &mut Context<'_>) {
        let Ok(english) = data.str(FIELD_ENGLISH) else {
            return;
        };
        let words: Vec<&str> = english.split_whitespace().collect();
        let spanish = self.translator.translate_words(&words);
        ctx.send(data.with(FIELD_SPANISH, spanish));
    }
}

/// Sink unit: shows the subtitle pair via a callback.
pub struct TranslationSink<F: FnMut(&str, &str) + Send> {
    on_subtitle: F,
}

impl<F: FnMut(&str, &str) + Send> std::fmt::Debug for TranslationSink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranslationSink").finish_non_exhaustive()
    }
}

impl<F: FnMut(&str, &str) + Send> TranslationSink<F> {
    /// Build with an `(english, spanish)` callback.
    pub fn new(on_subtitle: F) -> Self {
        TranslationSink { on_subtitle }
    }
}

impl<F: FnMut(&str, &str) + Send> SinkUnit for TranslationSink<F> {
    fn consume(&mut self, data: Tuple, _now_us: u64) {
        if let (Ok(en), Ok(es)) = (data.str(FIELD_ENGLISH), data.str(FIELD_SPANISH)) {
            (self.on_subtitle)(en, es);
        }
    }
}

/// Install all four voice stages into a runtime registry.
pub fn install(registry: &mut UnitRegistry, config: VoiceAppConfig) {
    let c1 = config.clone();
    registry.register_source(STAGE_SOURCE, move || AudioSource::new(&c1));
    let c2 = config.clone();
    registry.register_operator(STAGE_RECOGNIZE, move || RecognizeUnit::new(&c2));
    registry.register_operator(STAGE_TRANSLATE, TranslateUnit::new);
    registry.register_sink(STAGE_DISPLAY, move || TranslationSink::new(|_, _| {}));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_translates_generated_speech() {
        let config = VoiceAppConfig::default();
        let mut source = AudioSource::new(&config);
        let mut rec = RecognizeUnit::new(&config);
        let mut tra = TranslateUnit::new();

        let tuple = source.next_tuple(0).unwrap();
        assert_eq!(tuple.bytes(FIELD_AUDIO).unwrap().len(), 72_000);

        let mut mid = Vec::new();
        {
            let mut ctx = Context::new(0, &mut mid);
            rec.process_data(tuple, &mut ctx);
        }
        assert_eq!(mid.len(), 1);
        let english = mid[0].str(FIELD_ENGLISH).unwrap().to_owned();
        assert!(!english.is_empty());

        let mut out = Vec::new();
        {
            let mut ctx = Context::new(0, &mut out);
            tra.process_data(mid.remove(0), &mut ctx);
        }
        let spanish = out[0].str(FIELD_SPANISH).unwrap();
        assert!(!spanish.is_empty());
        // Every decoded word was in-vocabulary, so nothing is starred.
        assert!(!spanish.contains('*'), "unknown words in `{spanish}`");
    }

    #[test]
    fn malformed_tuples_are_dropped() {
        let config = VoiceAppConfig::default();
        let mut rec = RecognizeUnit::new(&config);
        let mut tra = TranslateUnit::new();
        let mut out = Vec::new();
        let mut ctx = Context::new(0, &mut out);
        rec.process_data(Tuple::new().with("x", 1i64), &mut ctx);
        tra.process_data(Tuple::new().with("x", 1i64), &mut ctx);
        assert!(out.is_empty());
    }

    #[test]
    fn sink_invokes_callback_with_both_texts() {
        let mut pairs = Vec::new();
        {
            let mut sink = TranslationSink::new(|en: &str, es: &str| {
                pairs.push((en.to_owned(), es.to_owned()))
            });
            sink.consume(
                Tuple::new()
                    .with(FIELD_ENGLISH, "hello friend")
                    .with(FIELD_SPANISH, "hola amigo"),
                0,
            );
        }
        assert_eq!(
            pairs,
            vec![("hello friend".to_owned(), "hola amigo".to_owned())]
        );
    }

    #[test]
    fn install_registers_all_stages() {
        let mut r = UnitRegistry::new();
        install(&mut r, VoiceAppConfig::default());
        for stage in [
            STAGE_SOURCE,
            STAGE_RECOGNIZE,
            STAGE_TRANSLATE,
            STAGE_DISPLAY,
        ] {
            assert!(r.contains(stage), "{stage} missing");
        }
    }
}
