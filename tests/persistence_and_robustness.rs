//! Cross-crate persistence round-trips and failure-injection tests: the
//! detector must survive serialization exactly, and must fail loudly —
//! never silently — on malformed inputs.

use novelty::{
    load_detector, save_detector, ClassifierConfig, NoveltyDetector, NoveltyDetectorBuilder,
    ReconstructionObjective,
};
use saliency_novelty::prelude::*;

fn trained_detector() -> (NoveltyDetector, DrivingDataset) {
    let data = DatasetConfig::indoor()
        .with_len(20)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(8);
    let detector = NoveltyDetectorBuilder::paper()
        .classifier_config(ClassifierConfig {
            hidden: vec![16, 8, 16],
            epochs: 4,
            warmup_epochs: 1,
            batch_size: 8,
            learning_rate: 3e-3,
            objective: ReconstructionObjective::Ssim { window: 7 },
        })
        .cnn_epochs(1)
        .seed(6)
        .train(&data)
        .unwrap();
    (detector, data)
}

#[test]
fn detector_file_roundtrip_preserves_everything_observable() {
    let (detector, data) = trained_detector();
    let dir = std::env::temp_dir().join("saliency_novelty_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip_detector.json");

    save_detector(&detector, &path).unwrap();
    let reloaded = load_detector(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(reloaded.threshold(), detector.threshold());
    assert_eq!(reloaded.preprocessing(), detector.preprocessing());
    assert_eq!(reloaded.training_scores(), detector.training_scores());
    for frame in data.frames().iter().take(5) {
        assert_eq!(
            reloaded.score(&frame.image).unwrap(),
            detector.score(&frame.image).unwrap()
        );
        assert_eq!(
            reloaded.predict_steering(&frame.image).unwrap(),
            detector.predict_steering(&frame.image).unwrap()
        );
    }
}

#[test]
fn non_finite_weights_are_rejected_at_load() {
    let (detector, _) = trained_detector();
    let dir = std::env::temp_dir().join("saliency_novelty_integration_nonfinite");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overflowing_weight.json");
    save_detector(&detector, &path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    // The first number of the first weight tensor's data becomes 1e39,
    // which overflows f32 to +inf when parsed.
    let weight = json.find("\"weight\"").expect("detector has weights");
    let start = weight + json[weight..].find("\"data\":[").unwrap() + "\"data\":[".len();
    let end = start + json[start..].find([',', ']']).unwrap();
    std::fs::write(&path, format!("{}1e39{}", &json[..start], &json[end..])).unwrap();
    let loaded = NoveltyDetector::load(&path);
    std::fs::remove_file(&path).ok();
    let err = loaded.expect_err("a non-finite weight must not load");
    assert!(err.to_string().contains("non-finite"), "{err}");
}

#[test]
fn wrong_image_sizes_error_instead_of_misclassifying() {
    let (detector, _) = trained_detector();
    let too_small = Image::new(10, 10).unwrap();
    assert!(detector.score(&too_small).is_err());
    assert!(detector.classify(&too_small).is_err());
    assert!(detector.reconstruct(&too_small).is_err());
    assert!(detector.predict_steering(&too_small).is_err());
}

#[test]
fn non_finite_pixels_are_rejected() {
    let (detector, data) = trained_detector();
    let mut poisoned = data.frames()[0].image.clone();
    poisoned.put(3, 3, f32::NAN);
    assert!(
        detector.score(&poisoned).is_err(),
        "NaN input must not produce a silent verdict"
    );
    let mut inf = data.frames()[0].image.clone();
    inf.put(0, 0, f32::INFINITY);
    assert!(detector.classify(&inf).is_err());
}

#[test]
fn corrupted_detector_files_are_rejected() {
    let dir = std::env::temp_dir().join("saliency_novelty_integration_corrupt");
    std::fs::create_dir_all(&dir).unwrap();

    // Truncated JSON.
    let path = dir.join("truncated.json");
    let (detector, _) = trained_detector();
    save_detector(&detector, &path).unwrap();
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() / 2]).unwrap();
    assert!(load_detector(&path).is_err());

    // Valid JSON, wrong schema.
    std::fs::write(&path, "{\"layers\": []}").unwrap();
    assert!(load_detector(&path).is_err());
    std::fs::remove_file(&path).ok();
}

#[test]
fn empty_and_degenerate_datasets_fail_loudly() {
    let empty = DatasetConfig::outdoor().with_len(0).generate(0);
    assert!(NoveltyDetectorBuilder::paper().train(&empty).is_err());

    // A train fraction of zero leaves nothing to fit.
    let tiny = DatasetConfig::outdoor()
        .with_len(4)
        .with_size(40, 80)
        .with_supersample(1)
        .generate(1);
    assert!(NoveltyDetectorBuilder::paper()
        .train_fraction(0.0)
        .train(&tiny)
        .is_err());
}

#[test]
fn network_json_is_stable_under_reserialization() {
    // Serialize → deserialize → serialize must be a fixed point (weights
    // survive the f32 decimal round-trip exactly).
    let (detector, _) = trained_detector();
    let spec1 = novelty::save_detector(&detector, std::env::temp_dir().join("sn_fixpoint.json"));
    assert!(spec1.is_ok());
    let path = std::env::temp_dir().join("sn_fixpoint.json");
    let d2 = load_detector(&path).unwrap();
    let path2 = std::env::temp_dir().join("sn_fixpoint2.json");
    save_detector(&d2, &path2).unwrap();
    let a = std::fs::read_to_string(&path).unwrap();
    let b = std::fs::read_to_string(&path2).unwrap();
    assert_eq!(a, b, "reserialization must be a fixed point");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&path2).ok();
}
