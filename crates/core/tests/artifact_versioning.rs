//! Model artifact versioning contract: legacy files, future format
//! versions and device mismatches each produce a distinct typed error,
//! and the save → load → predict round trip is lossless.

use gpufreq_core::{
    Corpus, Error, ModelArtifact, ModelConfig, Planner, TrainedPlanner, MODEL_FORMAT_VERSION,
};
use gpufreq_ml::SvrParams;
use gpufreq_sim::Device;

fn fast_planner(device: Device) -> TrainedPlanner {
    let config = ModelConfig {
        speedup: SvrParams {
            c: 10.0,
            max_iter: 100_000,
            ..SvrParams::paper_speedup()
        },
        energy: SvrParams {
            c: 10.0,
            max_iter: 100_000,
            ..SvrParams::paper_energy()
        },
    };
    Planner::builder()
        .device(device)
        .corpus(Corpus::Fast)
        .settings(8)
        .model_config(config)
        .train()
        .expect("fast training succeeds")
}

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("gpufreq-artifact-test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn legacy_bare_model_json_is_a_typed_error() {
    // A pre-versioning file held the bare FreqScalingModel JSON; the
    // planner must refuse it with a retrain hint, not guess a device.
    let planner = fast_planner(Device::TitanX);
    let bare_model_json = planner.model().to_json();
    let err = ModelArtifact::from_json(&bare_model_json).unwrap_err();
    assert!(matches!(err, Error::LegacyArtifact), "{err}");
    assert!(err.to_string().contains("retrain"), "{err}");
}

#[test]
fn future_format_version_is_a_typed_error() {
    let planner = fast_planner(Device::TitanX);
    let future = planner.artifact().to_json().replacen(
        &format!("\"format_version\":{MODEL_FORMAT_VERSION}"),
        "\"format_version\":9999",
        1,
    );
    assert!(future.contains("9999"), "substitution failed: {future}");
    let err = ModelArtifact::from_json(&future).unwrap_err();
    match err {
        Error::UnsupportedFormatVersion { found, supported } => {
            assert_eq!(found, 9999);
            assert_eq!(supported, MODEL_FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedFormatVersion, got {other}"),
    }
}

#[test]
fn different_device_artifact_is_a_typed_error() {
    let planner = fast_planner(Device::TeslaK20c);
    let path = temp_path("k20c.json");
    planner.save(&path).unwrap();
    let err = TrainedPlanner::load_for_device(&path, Device::TitanX).unwrap_err();
    match err {
        Error::DeviceMismatch {
            artifact,
            requested,
        } => {
            assert_eq!(artifact, Device::TeslaK20c);
            assert_eq!(requested, Device::TitanX);
        }
        other => panic!("expected DeviceMismatch, got {other}"),
    }
    // Loading without a device expectation uses the recorded one.
    let loaded = TrainedPlanner::load(&path).unwrap();
    assert_eq!(loaded.device(), Device::TeslaK20c);
}

#[test]
fn non_model_objects_are_malformed_not_legacy() {
    // Only the bare-model shape (top-level `domains` + `scaler`) earns
    // the "retrain" hint; an arbitrary JSON object is just malformed.
    let err = ModelArtifact::from_json("{\"hello\": 1}").unwrap_err();
    assert!(matches!(err, Error::MalformedArtifact { .. }), "{err}");
    assert!(err.to_string().contains("format_version"), "{err}");
}

#[test]
fn envelope_disagreeing_with_model_is_rejected() {
    let planner = fast_planner(Device::TitanX);
    let json = planner.artifact().to_json();
    let edited = json.replacen("\"num_samples\":", "\"num_samples\":9", 1);
    assert_ne!(json, edited, "substitution failed");
    let err = ModelArtifact::from_json(&edited).unwrap_err();
    assert!(matches!(err, Error::MalformedArtifact { .. }), "{err}");
    assert!(err.to_string().contains("envelope metadata"), "{err}");
}

#[test]
fn corrupt_and_missing_files_are_typed_errors() {
    let path = temp_path("corrupt.json");
    std::fs::write(&path, "{\"format_version\": \"one\"}").unwrap();
    let err = ModelArtifact::load(&path).unwrap_err();
    assert!(matches!(err, Error::MalformedArtifact { .. }), "{err}");

    let err = ModelArtifact::load(temp_path("does-not-exist.json")).unwrap_err();
    assert!(matches!(err, Error::Io { .. }), "{err}");

    std::fs::write(&path, "[1, 2, 3]").unwrap();
    let err = ModelArtifact::load(&path).unwrap_err();
    assert!(matches!(err, Error::MalformedArtifact { .. }), "{err}");
}

#[test]
fn artifact_with_no_trained_domains_is_rejected() {
    // A structurally valid envelope around a degenerate (zero-domain)
    // model must fail at load time, not panic at prediction time.
    let planner = fast_planner(Device::TitanX);
    let json = planner.artifact().to_json();
    let gutted = json.replacen("\"domains\":[{", "\"domains\":[], \"unused\":[{", 1);
    assert_ne!(json, gutted, "substitution failed");
    let err = ModelArtifact::from_json(&gutted).unwrap_err();
    assert!(matches!(err, Error::MalformedArtifact { .. }), "{err}");
    assert!(
        err.to_string().contains("no trained memory domains"),
        "{err}"
    );
}

#[test]
fn round_trip_preserves_metadata_and_predictions() {
    let planner = fast_planner(Device::TitanX);
    let path = temp_path("titan-x.json");
    planner.save(&path).unwrap();
    let loaded = TrainedPlanner::load(&path).unwrap();

    let artifact = loaded.artifact();
    assert_eq!(artifact.format_version, MODEL_FORMAT_VERSION);
    assert_eq!(artifact.device, Device::TitanX);
    assert_eq!(artifact.trained_domains, planner.model().trained_domains());
    assert_eq!(artifact.num_samples, planner.model().trained_on());
    assert_eq!(artifact, planner.artifact());

    // Predictions from the reloaded planner are bit-identical.
    let features = gpufreq_workloads::workload("aes")
        .expect("aes is one of the twelve benchmarks")
        .static_features();
    assert_eq!(
        planner.predict(&features).unwrap(),
        loaded.predict(&features).unwrap()
    );
}

#[test]
fn polynomial_kernel_artifact_is_a_typed_error() {
    // The SVR kernels are linear and RBF; an artifact whose head names
    // the removed polynomial kernel is malformed, not silently read as
    // another kernel.
    let planner = fast_planner(Device::TitanX);
    let json = planner.artifact().to_json();
    let rbf = "{\"Rbf\":{\"gamma\":0.1}}";
    assert!(json.contains(rbf), "no RBF head in {json}");
    let polynomial = json.replacen(
        rbf,
        "{\"Polynomial\":{\"gamma\":0.1,\"coef0\":1.0,\"degree\":2}}",
        1,
    );
    let err = ModelArtifact::from_json(&polynomial).unwrap_err();
    assert!(matches!(err, Error::MalformedArtifact { .. }), "{err}");
    assert!(err.to_string().contains("Polynomial"), "{err}");
}
