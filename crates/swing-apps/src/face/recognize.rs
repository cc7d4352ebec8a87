//! Face recognition: normalized-correlation nearest neighbour against
//! the gallery — the role of OpenCV's `FaceRecognizer` in the paper.

use crate::face::detect::Detection;
use crate::face::gallery::{Gallery, FACE_SIZE};

/// The outcome of matching one detection.
#[derive(Debug, Clone, PartialEq)]
pub struct Recognition {
    /// Gallery id of the best match.
    pub person: usize,
    /// Name of the best match.
    pub name: String,
    /// Normalized correlation in `[-1, 1]`; higher is more confident.
    pub confidence: f64,
    /// Where the face was found.
    pub at: (usize, usize),
}

/// Pixels in a face patch.
const PATCH: usize = FACE_SIZE * FACE_SIZE;

/// Templates correlated together. One template's correlation is a
/// serial chain of 400 dependent additions; a block of independent
/// chains, one lane per template, runs as packed arithmetic. The
/// standard gallery's 8 identities are one block.
const LANES: usize = 8;

/// Nearest-neighbour matcher over normalized face patches.
#[derive(Debug, Clone)]
pub struct Recognizer {
    gallery: Gallery,
    /// Pre-normalized gallery templates (zero mean, unit norm), stored
    /// pixel-major in blocks of [`LANES`] templates: lane `l` of
    /// `templates[b * PATCH + p]` is pixel `p` of template
    /// `b * LANES + l`. The last block's spare lanes are zero.
    templates: Vec<[f64; LANES]>,
    /// Matches below this correlation are rejected as unknown.
    pub min_confidence: f64,
}

impl Recognizer {
    /// Build a matcher for the gallery.
    #[must_use]
    pub fn new(gallery: Gallery) -> Self {
        let mut templates = vec![[0.0; LANES]; gallery.len().div_ceil(LANES) * PATCH];
        for i in 0..gallery.len() {
            let block = &mut templates[i / LANES * PATCH..][..PATCH];
            for (row, t) in block.iter_mut().zip(normalize(gallery.face(i))) {
                row[i % LANES] = t;
            }
        }
        Recognizer {
            gallery,
            templates,
            min_confidence: 0.55,
        }
    }

    /// The gallery being matched against.
    #[must_use]
    pub fn gallery(&self) -> &Gallery {
        &self.gallery
    }

    /// Match the patch at `detection` inside `pixels` (row-major, width
    /// `w`). Returns `None` for unknown faces or out-of-bounds patches.
    ///
    /// The detector localizes only to within its stride, so the matcher
    /// searches a small alignment neighbourhood (±3 px) around the
    /// detection and keeps the best-correlating offset — the alignment
    /// step real recognizers perform, and the bulk of this unit's
    /// compute cost.
    #[must_use]
    pub fn match_patch(
        &self,
        pixels: &[u8],
        w: usize,
        detection: &Detection,
    ) -> Option<Recognition> {
        let h = pixels.len() / w;
        let mut best: Option<(usize, f64, usize, usize)> = None;
        let mut pixels_at = [0u8; PATCH];
        let mut patch = [0.0f64; PATCH];
        const SEARCH: i64 = 3;
        for dy in -SEARCH..=SEARCH {
            for dx in -SEARCH..=SEARCH {
                let x = detection.x as i64 + dx;
                let y = detection.y as i64 + dy;
                if x < 0 || y < 0 || x as usize + FACE_SIZE > w || y as usize + FACE_SIZE > h {
                    continue;
                }
                let (x, y) = (x as usize, y as usize);
                for (row, out) in pixels_at.chunks_exact_mut(FACE_SIZE).enumerate() {
                    let start = (y + row) * w + x;
                    out.copy_from_slice(&pixels[start..start + FACE_SIZE]);
                }
                normalize_into(&pixels_at, &mut patch);
                // Templates in gallery order, ties to the earlier one.
                for (b, block) in self.templates.chunks_exact(PATCH).enumerate() {
                    let corrs = correlate(&patch, block);
                    for (i, &corr) in (b * LANES..self.gallery.len()).zip(&corrs) {
                        if best.map(|(_, c, _, _)| corr > c).unwrap_or(true) {
                            best = Some((i, corr, x, y));
                        }
                    }
                }
            }
        }
        let (person, confidence, x, y) = best?;
        if confidence < self.min_confidence {
            return None;
        }
        Some(Recognition {
            person,
            name: self.gallery.name(person).to_owned(),
            confidence,
            at: (x, y),
        })
    }
}

/// Match every detection in a frame.
#[must_use]
pub fn recognize(
    recognizer: &Recognizer,
    pixels: &[u8],
    w: usize,
    detections: &[Detection],
) -> Vec<Recognition> {
    detections
        .iter()
        .filter_map(|d| recognizer.match_patch(pixels, w, d))
        .collect()
}

/// Correlation of one normalized patch with each template of a block.
///
/// Lane `l` adds `patch[p] * template_l[p]` in pixel order onto `-0.0`,
/// the value `Sum for f64` starts from, so it equals
/// `patch.iter().zip(template_l).map(|(a, b)| a * b).sum::<f64>()` to
/// the bit, sign of zero included.
fn correlate(patch: &[f64; PATCH], block: &[[f64; LANES]]) -> [f64; LANES] {
    let mut acc = [-0.0f64; LANES];
    for (&a, row) in patch.iter().zip(block) {
        for (acc, &t) in acc.iter_mut().zip(row) {
            *acc += a * t;
        }
    }
    acc
}

/// Zero-mean, unit-norm projection of an 8-bit patch.
fn normalize(patch: &[u8]) -> Vec<f64> {
    let mut v = vec![0.0; patch.len()];
    normalize_into(patch, &mut v);
    v
}

/// [`normalize`] into a buffer of the patch's length.
fn normalize_into(patch: &[u8], out: &mut [f64]) {
    // Pixel sums are integers far below 2^53: the integer sum is the
    // float sum exactly, without its chain of dependent additions.
    let sum: u64 = patch.iter().map(|&p| u64::from(p)).sum();
    let mean = sum as f64 / patch.len() as f64;
    for (x, &p) in out.iter_mut().zip(patch) {
        *x = p as f64 - mean;
    }
    let norm = out.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 1e-9 {
        for x in out {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::face::detect::{detect_faces, DetectorConfig};
    use crate::face::frame::{FrameGenerator, FRAME_W};

    #[test]
    fn recognizes_planted_identities() {
        let gallery = Gallery::standard();
        let recognizer = Recognizer::new(gallery.clone());
        let mut gen = FrameGenerator::new(gallery, 21);
        gen.set_face_prob(1.0);
        let mut correct = 0;
        let mut attempts = 0;
        for _ in 0..60 {
            let scene = gen.next_scene();
            let (truth, fx, fy) = scene.faces[0];
            let dets = detect_faces(&scene.pixels, &DetectorConfig::default());
            let Some(det) = dets.iter().find(|d| {
                (d.x as i64 - fx as i64).abs() <= 3 && (d.y as i64 - fy as i64).abs() <= 3
            }) else {
                continue; // detector miss; recognition accuracy only
            };
            attempts += 1;
            if let Some(rec) = recognizer.match_patch(&scene.pixels, FRAME_W, det) {
                if rec.person == truth {
                    correct += 1;
                }
            }
        }
        assert!(attempts >= 30, "too few detections ({attempts})");
        assert!(
            correct * 10 >= attempts * 8,
            "accuracy {correct}/{attempts}"
        );
    }

    #[test]
    fn exact_template_matches_with_high_confidence() {
        let gallery = Gallery::standard();
        let recognizer = Recognizer::new(gallery.clone());
        // A frame that IS the template.
        let pixels = gallery.face(2).to_vec();
        let det = Detection {
            x: 0,
            y: 0,
            score: 0,
        };
        let rec = recognizer
            .match_patch(&pixels, FACE_SIZE, &det)
            .expect("template should match itself");
        assert_eq!(rec.person, 2);
        assert_eq!(rec.name, "person-2");
        assert!(rec.confidence > 0.99);
    }

    #[test]
    fn flat_noise_is_rejected_as_unknown() {
        let recognizer = Recognizer::new(Gallery::standard());
        let pixels = vec![128u8; FACE_SIZE * FACE_SIZE];
        let det = Detection {
            x: 0,
            y: 0,
            score: 0,
        };
        assert!(recognizer.match_patch(&pixels, FACE_SIZE, &det).is_none());
    }

    #[test]
    fn out_of_bounds_detection_is_none() {
        let recognizer = Recognizer::new(Gallery::standard());
        let pixels = vec![0u8; FACE_SIZE * FACE_SIZE];
        let det = Detection {
            x: 5,
            y: 0,
            score: 0,
        };
        assert!(recognizer.match_patch(&pixels, FACE_SIZE, &det).is_none());
    }

    /// The blocked accumulators against the serial `Sum` they replaced,
    /// where only the start value can tell them apart: products that
    /// are all zeros of either sign (a flat patch normalizes to `+0.0`
    /// everywhere) or that cancel exactly.
    #[test]
    fn flat_patch_and_zero_correlation_keep_their_sign() {
        let mut rng = swing_core::rng::DetRng::seed_from_u64(9);
        let mut block = vec![[0.0f64; LANES]; PATCH];
        for row in &mut block {
            for t in row.iter_mut() {
                *t = rng.random_range(-1.0..1.0);
            }
            // One lane of each sign, so every product of a zero patch
            // is `-0.0` in one of them: the sum stays `-0.0` only if
            // the accumulator started there.
            (row[0], row[1]) = (row[0].abs(), -row[1].abs());
        }
        block[1] = block[0];

        let mut flat = [1.0; PATCH];
        normalize_into(&[128; PATCH], &mut flat);
        assert!(flat.iter().all(|x| x.to_bits() == 0.0f64.to_bits()));
        let mut cancelling = [0.0; PATCH];
        (cancelling[0], cancelling[1]) = (1.0, -1.0); // t − t: an exact +0.0
        let mut ramp = [0.0; PATCH];
        for (p, x) in ramp.iter_mut().enumerate() {
            *x = p as f64 / 7.0 - 20.0;
        }
        for (name, patch) in [
            ("flat", flat),
            ("negative zeros", [-0.0; PATCH]),
            ("cancelling", cancelling),
            ("ramp", ramp),
        ] {
            let got = correlate(&patch, &block);
            for lane in 0..LANES {
                let want: f64 = patch.iter().zip(&block).map(|(a, t)| a * t[lane]).sum();
                assert_eq!(got[lane].to_bits(), want.to_bits(), "{name}, lane {lane}");
            }
        }
    }

    /// 11 identities: a full block of templates and a partly filled one.
    #[test]
    fn every_identity_of_a_two_block_gallery_matches_itself() {
        let gallery = Gallery::generate(11, 5);
        let recognizer = Recognizer::new(gallery.clone());
        let det = Detection {
            x: 0,
            y: 0,
            score: 0,
        };
        for person in 0..gallery.len() {
            let rec = recognizer
                .match_patch(gallery.face(person), FACE_SIZE, &det)
                .expect("a template matches itself");
            assert_eq!(rec.person, person);
            assert!(rec.confidence > 0.99);
        }
    }

    #[test]
    fn normalize_is_zero_mean_unit_norm() {
        let v = normalize(&[10, 20, 30, 40]);
        let mean: f64 = v.iter().sum::<f64>() / 4.0;
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(mean.abs() < 1e-12);
        assert!((norm - 1.0).abs() < 1e-12);
        // Constant patches normalize to zero without dividing by zero.
        let z = normalize(&[7; 16]);
        assert!(z.iter().all(|&x| x == 0.0));
    }
}
