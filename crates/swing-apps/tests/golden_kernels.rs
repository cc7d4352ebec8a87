//! The app kernels' outputs, pinned against the commit before the
//! blocked Goertzel bank and the pixel-major face templates (PR 21).
//!
//! `swing-benchmark` checks a workload's output against a reference run
//! of the *same* kernels, so a kernel that drifted would still agree
//! with itself there. The constants below were recorded by running this
//! file, unchanged, at the parent commit; a restructured kernel that
//! reorders one floating-point addition moves a `confidence` bit and
//! fails here. `cargo test --release -p swing-apps` runs it on the
//! optimised build the benchmark measures.

use swing_apps::face::{
    self, detect_faces, DetectUnit, DetectorConfig, FaceAppConfig, FrameGenerator,
    RecognitionMethod, FRAME_W,
};
use swing_apps::voice::{self, AudioGenerator, Translator, Vocabulary};
use swing_core::unit::{Context, FunctionUnit};
use swing_core::Tuple;

const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;
const DRAWS_PER_SEED: usize = 4; // 8 seeds x 4 = 32 utterances / scenes

const GOLDEN_VOICE: u64 = 0x41b2_3489_b202_4146;
const GOLDEN_FACE_CORRELATION: u64 = 0xbb25_a262_783e_c072;
const GOLDEN_FACE_EIGENFACES: u64 = 0x988c_7a52_6b32_472e;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn decoded_and_translated_text_matches_the_parent() {
    let vocab = Vocabulary::standard();
    let recognizer = voice::Recognizer::new(vocab.clone());
    let translator = Translator::new();
    let mut text = String::new();
    let mut words_seen = 0;
    for seed in SEEDS {
        let mut gen = AudioGenerator::new(vocab.clone(), seed);
        for _ in 0..DRAWS_PER_SEED {
            let words = recognizer.decode(&gen.next_utterance().pcm);
            words_seen += words.len();
            text += &words.join(" ");
            text += "\n";
            text += &translator.translate_words(&words);
            text += "\n";
        }
    }
    assert!(words_seen > 32 * 10, "only {words_seen} words decoded");
    let hash = fnv1a(text.as_bytes());
    assert_eq!(hash, GOLDEN_VOICE, "decoded text hashes to {hash:#018x}");
}

#[test]
fn correlation_recognitions_match_the_parent_bit_for_bit() {
    let config = FaceAppConfig::default();
    let recognizer = face::Recognizer::new(config.gallery.clone());
    let mut doc: Vec<u64> = Vec::new();
    let mut seen = 0;
    for seed in SEEDS {
        let mut gen = FrameGenerator::new(config.gallery.clone(), seed);
        for _ in 0..DRAWS_PER_SEED {
            let scene = gen.next_scene();
            let detections = detect_faces(&scene.pixels, &DetectorConfig::default());
            let recs = face::recognize(&recognizer, &scene.pixels, FRAME_W, &detections);
            seen += recs.len();
            doc.push(recs.len() as u64);
            for r in &recs {
                let (x, y) = r.at;
                doc.extend([r.person as u64, r.confidence.to_bits(), x as u64, y as u64]);
            }
        }
    }
    assert!(seen >= 16, "only {seen} recognitions in 32 scenes");
    let bytes: Vec<u8> = doc.iter().flat_map(|v| v.to_le_bytes()).collect();
    let hash = fnv1a(&bytes);
    assert_eq!(
        hash, GOLDEN_FACE_CORRELATION,
        "recognitions hash to {hash:#018x}"
    );
}

/// The eigenface matcher reports through the unit's label only
/// (`name@(x,y)` per accepted face); its distances stay behind the
/// acceptance threshold, so the labels are what can be pinned.
#[test]
fn eigenface_labels_match_the_parent() {
    let config = FaceAppConfig {
        method: RecognitionMethod::Eigenfaces,
        ..FaceAppConfig::default()
    };
    let mut detect = DetectUnit::new(&config);
    let mut recognize = face::RecognizeUnit::new(&config);
    let mut labels = String::new();
    let mut named = 0;
    for seed in SEEDS {
        let mut gen = FrameGenerator::new(config.gallery.clone(), seed);
        for _ in 0..DRAWS_PER_SEED {
            let frame = Tuple::new().with("frame", gen.next_scene().pixels);
            let mut detected = Vec::new();
            detect.process_data(frame, &mut Context::new(0, &mut detected));
            let mut out = Vec::new();
            recognize.process_data(detected.remove(0), &mut Context::new(0, &mut out));
            let label = out[0].str("result").expect("a label per frame");
            named += usize::from(label != "no-face");
            labels += label;
            labels += "\n";
        }
    }
    assert!(named >= 16, "only {named} of 32 scenes named a face");
    let hash = fnv1a(labels.as_bytes());
    assert_eq!(
        hash, GOLDEN_FACE_EIGENFACES,
        "eigenface labels hash to {hash:#018x}"
    );
}
