//! Swing function units wrapping the face kernels, mirroring the
//! paper's Java `FunctionUnitAPI` example code (§IV-A).

use crate::face::detect::{detect_faces, Detection, DetectorConfig};
use crate::face::eigen::EigenSpace;
use crate::face::frame::{FrameGenerator, FRAME_W};
use crate::face::gallery::{Gallery, FACE_SIZE};
use crate::face::recognize::{recognize, Recognizer};
use std::sync::Arc;
use swing_core::unit::{Context, FunctionUnit, SinkUnit, SourceUnit};
use swing_core::Tuple;
use swing_runtime::registry::UnitRegistry;

/// Stage name of the camera source.
pub const STAGE_SOURCE: &str = "camera";
/// Stage name of the detector operator.
pub const STAGE_DETECT: &str = "detect";
/// Stage name of the recognizer operator.
pub const STAGE_RECOGNIZE: &str = "recognize";
/// Stage name of the display sink.
pub const STAGE_DISPLAY: &str = "display";

/// Tuple field holding the raw frame bytes (the paper's `"value1"`).
pub const FIELD_FRAME: &str = "frame";
/// Tuple field holding detections as `(x, y, score)` triples.
pub const FIELD_DETECTIONS: &str = "detections";
/// Tuple field holding the final label string (the paper's `"value2"`).
pub const FIELD_RESULT: &str = "result";

/// Subspace distance above which an eigenface match is rejected as
/// unknown (calibrated on the synthetic gallery's noise level).
const EIGEN_MATCH_THRESHOLD: f64 = 800.0;

/// Which matcher the recognize stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecognitionMethod {
    /// Normalized-correlation nearest neighbour (fast).
    #[default]
    Correlation,
    /// Eigenfaces: PCA-subspace nearest neighbour, like OpenCV's default
    /// `FaceRecognizer` in the paper's app.
    Eigenfaces,
}

/// App-level configuration shared by all face units.
#[derive(Debug, Clone)]
pub struct FaceAppConfig {
    /// Gallery of known identities.
    pub gallery: Gallery,
    /// Frame-generator seed.
    pub seed: u64,
    /// Detector tuning.
    pub detector: DetectorConfig,
    /// Matcher used by the recognize stage.
    pub method: RecognitionMethod,
}

impl Default for FaceAppConfig {
    fn default() -> Self {
        FaceAppConfig {
            gallery: Gallery::standard(),
            seed: 42,
            detector: DetectorConfig::default(),
            method: RecognitionMethod::Correlation,
        }
    }
}

/// Source unit: the synthetic camera ("reading video frames").
#[derive(Debug)]
pub struct FrameSource {
    gen: FrameGenerator,
}

impl FrameSource {
    /// Build from the app config.
    #[must_use]
    pub fn new(config: &FaceAppConfig) -> Self {
        FrameSource {
            gen: FrameGenerator::new(config.gallery.clone(), config.seed),
        }
    }
}

impl SourceUnit for FrameSource {
    fn next_tuple(&mut self, _now_us: u64) -> Option<Tuple> {
        let scene = self.gen.next_scene();
        Some(Tuple::new().with(FIELD_FRAME, scene.pixels))
    }
}

/// Operator unit: "detecting faces from frames".
#[derive(Debug)]
pub struct DetectUnit {
    config: DetectorConfig,
}

impl DetectUnit {
    /// Build from the app config.
    #[must_use]
    pub fn new(config: &FaceAppConfig) -> Self {
        DetectUnit {
            config: config.detector,
        }
    }
}

impl FunctionUnit for DetectUnit {
    fn process_data(&mut self, data: Tuple, ctx: &mut Context<'_>) {
        let Ok(frame) = data.bytes(FIELD_FRAME) else {
            return; // malformed tuple: drop
        };
        let detections = detect_faces(frame, &self.config);
        let mut flat = Vec::with_capacity(detections.len() * 3);
        for d in &detections {
            flat.push(d.x as f32);
            flat.push(d.y as f32);
            flat.push(d.score as f32);
        }
        ctx.send(data.with(FIELD_DETECTIONS, flat));
    }
}

/// Operator unit: "matching faces with databases".
#[derive(Debug)]
pub struct RecognizeUnit {
    recognizer: Recognizer,
    /// Shared across every recognizer instance in the process: training
    /// runs once per (gallery, parameters), not once per activation.
    eigen: Option<Arc<EigenSpace>>,
    /// Reused patch buffer for the alignment search (one allocation per
    /// unit instead of one per candidate position).
    patch: Vec<u8>,
}

impl RecognizeUnit {
    /// Build from the app config (loads the eigenface subspace from the
    /// shared training cache if that method is selected, training it on
    /// first activation only).
    #[must_use]
    pub fn new(config: &FaceAppConfig) -> Self {
        let eigen = match config.method {
            RecognitionMethod::Correlation => None,
            RecognitionMethod::Eigenfaces => Some(EigenSpace::train_shared(&config.gallery, 12, 3)),
        };
        RecognizeUnit {
            recognizer: Recognizer::new(config.gallery.clone()),
            eigen,
            patch: vec![0u8; FACE_SIZE * FACE_SIZE],
        }
    }

    fn label_eigen(&mut self, frame: &[u8], detections: &[Detection]) -> String {
        let space = self.eigen.as_ref().expect("eigen method selected");
        let h = frame.len() / FRAME_W;
        let mut hits = Vec::new();
        for d in detections {
            // The detector localizes to within its stride; search a
            // small alignment neighbourhood like the correlation matcher.
            let mut best: Option<(usize, &str, f64, usize, usize)> = None;
            for dy in -3i64..=3 {
                for dx in -3i64..=3 {
                    let x = d.x as i64 + dx;
                    let y = d.y as i64 + dy;
                    if x < 0
                        || y < 0
                        || x as usize + FACE_SIZE > FRAME_W
                        || y as usize + FACE_SIZE > h
                    {
                        continue;
                    }
                    let (x, y) = (x as usize, y as usize);
                    for (row, out) in self.patch.chunks_exact_mut(FACE_SIZE).enumerate() {
                        let start = (y + row) * FRAME_W + x;
                        out.copy_from_slice(&frame[start..start + FACE_SIZE]);
                    }
                    if let Some((person, name, dist)) = space.classify(&self.patch) {
                        let _ = person;
                        if best.map(|(_, _, bd, _, _)| dist < bd).unwrap_or(true) {
                            best = Some((person, name, dist, x, y));
                        }
                    }
                }
            }
            if let Some((_, name, dist, x, y)) = best {
                if dist < EIGEN_MATCH_THRESHOLD {
                    hits.push(format!("{name}@({x},{y})"));
                }
            }
        }
        if hits.is_empty() {
            "no-face".to_owned()
        } else {
            hits.join(";")
        }
    }
}

impl FunctionUnit for RecognizeUnit {
    fn process_data(&mut self, data: Tuple, ctx: &mut Context<'_>) {
        let (Ok(frame), Ok(flat)) = (data.bytes(FIELD_FRAME), data.f32_vec(FIELD_DETECTIONS))
        else {
            return;
        };
        let detections: Vec<Detection> = flat
            .chunks_exact(3)
            .map(|c| Detection {
                x: c[0] as usize,
                y: c[1] as usize,
                score: c[2] as i64,
            })
            .collect();
        let label = if self.eigen.is_some() {
            self.label_eigen(frame, &detections)
        } else {
            let recs = recognize(&self.recognizer, frame, FRAME_W, &detections);
            if recs.is_empty() {
                "no-face".to_owned()
            } else {
                recs.iter()
                    .map(|r| format!("{}@({},{})", r.name, r.at.0, r.at.1))
                    .collect::<Vec<_>>()
                    .join(";")
            }
        };
        // Pass only the result downstream — the frame has served its
        // purpose, results are tiny (like the paper's name strings).
        ctx.send(Tuple::new().with(FIELD_RESULT, label));
    }
}

/// Sink unit: "displaying results" — invokes a callback per result.
pub struct DisplaySink<F: FnMut(&str) + Send> {
    on_result: F,
}

impl<F: FnMut(&str) + Send> std::fmt::Debug for DisplaySink<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DisplaySink").finish_non_exhaustive()
    }
}

impl<F: FnMut(&str) + Send> DisplaySink<F> {
    /// Build with a result callback.
    pub fn new(on_result: F) -> Self {
        DisplaySink { on_result }
    }
}

impl<F: FnMut(&str) + Send> SinkUnit for DisplaySink<F> {
    fn consume(&mut self, data: Tuple, _now_us: u64) {
        if let Ok(label) = data.str(FIELD_RESULT) {
            (self.on_result)(label);
        }
    }
}

/// Install all four face stages into a runtime registry ("each device
/// downloads and installs the app", §IV-B step 1).
///
/// The config (which owns the gallery's kilobytes of templates) is put
/// behind one `Arc` shared by every factory closure instead of being
/// deep-cloned per stage.
pub fn install(registry: &mut UnitRegistry, config: FaceAppConfig) {
    let config = Arc::new(config);
    let c = Arc::clone(&config);
    registry.register_source(STAGE_SOURCE, move || FrameSource::new(&c));
    let c = Arc::clone(&config);
    registry.register_operator(STAGE_DETECT, move || DetectUnit::new(&c));
    let c = Arc::clone(&config);
    registry.register_operator(STAGE_RECOGNIZE, move || RecognizeUnit::new(&c));
    registry.register_sink(STAGE_DISPLAY, move || DisplaySink::new(|_| {}));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_pipeline_with(config: FaceAppConfig, n: usize) -> Vec<String> {
        let mut source = FrameSource::new(&config);
        let mut detect = DetectUnit::new(&config);
        let mut recognize = RecognizeUnit::new(&config);
        let mut results = Vec::new();
        for _ in 0..n {
            let tuple = source.next_tuple(0).unwrap();
            let mut mid = Vec::new();
            {
                let mut ctx = Context::new(0, &mut mid);
                detect.process_data(tuple, &mut ctx);
            }
            for t in mid {
                let mut out = Vec::new();
                {
                    let mut ctx = Context::new(0, &mut out);
                    recognize.process_data(t, &mut ctx);
                }
                for o in out {
                    results.push(o.str(FIELD_RESULT).unwrap().to_owned());
                }
            }
        }
        results
    }

    fn run_pipeline(n: usize) -> Vec<String> {
        run_pipeline_with(FaceAppConfig::default(), n)
    }

    #[test]
    fn eigenface_pipeline_names_most_frames() {
        let config = FaceAppConfig {
            method: RecognitionMethod::Eigenfaces,
            ..FaceAppConfig::default()
        };
        let results = run_pipeline_with(config, 30);
        assert_eq!(results.len(), 30);
        let named = results.iter().filter(|r| r.contains("person-")).count();
        assert!(named >= 15, "eigenfaces named only {named}/30 frames");
    }

    #[test]
    fn both_methods_mostly_agree_on_identities() {
        let base = FaceAppConfig::default();
        let corr = run_pipeline_with(base.clone(), 25);
        let eig = run_pipeline_with(
            FaceAppConfig {
                method: RecognitionMethod::Eigenfaces,
                ..base
            },
            25,
        );
        // Same seed, same frames: when both name someone, they should
        // usually name the same person.
        let mut both = 0;
        let mut agree = 0;
        for (c, e) in corr.iter().zip(&eig) {
            let cn = c.split('@').next().unwrap_or("");
            let en = e.split('@').next().unwrap_or("");
            if cn.starts_with("person-") && en.starts_with("person-") {
                both += 1;
                if cn == en {
                    agree += 1;
                }
            }
        }
        assert!(both >= 10, "only {both} frames named by both methods");
        assert!(
            agree * 10 >= both * 8,
            "methods agree on {agree}/{both} frames"
        );
    }

    #[test]
    fn pipeline_produces_one_result_per_frame() {
        let results = run_pipeline(30);
        assert_eq!(results.len(), 30);
        // Most frames contain a face (prob 0.8) and most get recognized.
        let named = results.iter().filter(|r| r.contains("person-")).count();
        assert!(named >= 15, "only {named}/30 frames produced a name");
    }

    #[test]
    fn results_are_compact() {
        for r in run_pipeline(10) {
            assert!(r.len() < 200, "oversized result `{r}`");
        }
    }

    #[test]
    fn source_frames_are_six_kilobytes() {
        let config = FaceAppConfig::default();
        let mut source = FrameSource::new(&config);
        let t = source.next_tuple(0).unwrap();
        assert_eq!(t.bytes(FIELD_FRAME).unwrap().len(), 6_000);
    }

    #[test]
    fn malformed_tuples_are_dropped_not_panicked() {
        let config = FaceAppConfig::default();
        let mut detect = DetectUnit::new(&config);
        let mut recognize = RecognizeUnit::new(&config);
        let mut out = Vec::new();
        let mut ctx = Context::new(0, &mut out);
        detect.process_data(Tuple::new().with("bogus", 1i64), &mut ctx);
        recognize.process_data(Tuple::new().with("bogus", 1i64), &mut ctx);
        assert!(out.is_empty());
    }

    #[test]
    fn display_sink_invokes_callback() {
        let mut seen = Vec::new();
        {
            let mut sink = DisplaySink::new(|s: &str| seen.push(s.to_owned()));
            sink.consume(Tuple::new().with(FIELD_RESULT, "person-1@(3,4)"), 0);
            sink.consume(Tuple::new().with("other", 1i64), 0); // ignored
        }
        assert_eq!(seen, vec!["person-1@(3,4)"]);
    }

    #[test]
    fn install_registers_all_stages() {
        let mut r = UnitRegistry::new();
        install(&mut r, FaceAppConfig::default());
        for stage in [STAGE_SOURCE, STAGE_DETECT, STAGE_RECOGNIZE, STAGE_DISPLAY] {
            assert!(r.contains(stage), "{stage} missing");
        }
    }
}
