//! End-to-end tests of the `saliency-novelty` CLI binary: generate →
//! train → info/classify/eval against real subprocess invocations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_saliency-novelty")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("binary launches")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("saliency_novelty_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a tiny detector once; several tests reuse the file.
fn trained_detector_path() -> &'static Path {
    use std::sync::OnceLock;
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = temp_dir("train");
        let detector = dir.join("detector.json");
        let out = run(&[
            "train",
            "--world",
            "outdoor",
            "--len",
            "30",
            "--seed",
            "3",
            "--cnn-epochs",
            "1",
            "--ae-epochs",
            "3",
            "--out",
            detector.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "train failed: {}\n{}",
            stdout(&out),
            stderr(&out)
        );
        detector
    })
}

#[test]
fn help_is_printed_without_arguments() {
    let out = run(&[]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
    let out = run(&["--help"]);
    assert!(stdout(&out).contains("COMMANDS"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn usage_errors_exit_2_and_runtime_errors_exit_1() {
    // Usage class: unknown command, unknown flag, unparseable value,
    // missing required flag, bad --threads.
    for args in [
        vec!["frobnicate"],
        vec!["generate", "--frobnicate", "1"],
        vec!["generate", "--len", "many"],
        vec!["classify"],
        vec!["eval", "--detector", "x.json", "--threads", "0"],
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
    }
    // Runtime class: well-formed invocation, missing file.
    let out = run(&["info", "--detector", "/nonexistent.json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let out = run(&["report", "--file", "/nonexistent.json"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

#[test]
fn deeply_nested_detector_file_is_a_runtime_error() {
    // A million `[` must fail the load with a message (exit 1), not
    // overflow the reader's stack (abort, exit 134).
    let dir = temp_dir("deep");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
    let out = run(&[
        "classify",
        "--detector",
        path.to_str().unwrap(),
        "--image",
        dir.join("frame.pgm").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("nesting deeper than 128 levels"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn generate_writes_frames_and_index() {
    let dir = temp_dir("generate");
    let out = run(&[
        "generate",
        "--world",
        "indoor",
        "--len",
        "4",
        "--seed",
        "9",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    for i in 0..4 {
        assert!(dir.join(format!("frame_{i:04}.pgm")).exists());
    }
    let csv = std::fs::read_to_string(dir.join("angles.csv")).unwrap();
    assert!(csv.starts_with("frame,angle"));
    assert_eq!(csv.lines().count(), 5);
    // Frames are readable images of the paper's geometry.
    let img = vision::io::load_pgm(dir.join("frame_0000.pgm")).unwrap();
    assert_eq!((img.height(), img.width()), (60, 160));
}

#[test]
fn generate_rejects_bad_flags() {
    let out = run(&["generate", "--world", "mars"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown world"));
    let out = run(&["generate", "--len", "many"]);
    assert!(!out.status.success());
    let out = run(&["generate", "--len"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("missing its value"));
}

#[test]
fn train_then_info_and_classify_roundtrip() {
    let detector = trained_detector_path();
    let out = run(&["info", "--detector", detector.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("backend:       vbp+ssim"));
    assert!(text.contains("preprocessing: vbp"));
    assert!(text.contains("objective:     ssim"));
    assert!(text.contains("steering CNN"));

    // Classify a freshly generated frame.
    let dir = temp_dir("classify");
    let gen = run(&[
        "generate",
        "--world",
        "outdoor",
        "--len",
        "1",
        "--seed",
        "77",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let out = run(&[
        "classify",
        "--detector",
        detector.to_str().unwrap(),
        "--image",
        dir.join("frame_0000.pgm").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"is_novel\""), "{json}");
    assert!(json.contains("\"backend\": \"vbp+ssim\""), "{json}");
    assert!(
        json.contains("\"votes\": \"0/1\"") || json.contains("\"votes\": \"1/1\""),
        "{json}"
    );
}

#[test]
fn eval_prints_separation_report() {
    let detector = trained_detector_path();
    let out = run(&[
        "eval",
        "--detector",
        detector.to_str().unwrap(),
        "--len",
        "6",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("AUROC"));
}

#[test]
fn classify_requires_its_flags() {
    let out = run(&["classify"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--detector"));
    let out = run(&[
        "classify",
        "--detector",
        "/nonexistent.json",
        "--image",
        "x.pgm",
    ]);
    assert!(!out.status.success());
}

#[test]
fn classify_json_emits_full_verdict() {
    let detector = trained_detector_path();
    let dir = temp_dir("classify_json");
    let gen = run(&[
        "generate",
        "--world",
        "outdoor",
        "--len",
        "1",
        "--seed",
        "78",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let out = run(&[
        "classify",
        "--detector",
        detector.to_str().unwrap(),
        "--image",
        dir.join("frame_0000.pgm").to_str().unwrap(),
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    for field in [
        "\"is_novel\"",
        "\"score\"",
        "\"threshold\"",
        "\"percentile_rank\"",
        "\"backend\"",
        "\"novel_votes\"",
        "\"total_votes\"",
    ] {
        assert!(json.contains(field), "missing {field} in {json}");
    }
}

#[test]
fn backends_subcommand_lists_the_registry() {
    let out = run(&["backends"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for id in ["raw+mse", "vbp+mse", "vbp+ssim", "model-char"] {
        assert!(text.contains(id), "missing {id} in {text}");
    }
    assert!(text.contains("layer-stats"), "{text}");
    // The subcommand takes no flags.
    let out = run(&["backends", "--json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

/// Trains a tiny ensemble once; the ensemble tests reuse the file.
fn trained_ensemble_path() -> &'static Path {
    use std::sync::OnceLock;
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let dir = temp_dir("train_ensemble");
        let ensemble = dir.join("ensemble.json");
        let out = run(&[
            "train",
            "--ensemble",
            "--world",
            "outdoor",
            "--len",
            "30",
            "--seed",
            "3",
            "--cnn-epochs",
            "1",
            "--ae-epochs",
            "3",
            "--out",
            ensemble.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "ensemble train failed: {}\n{}",
            stdout(&out),
            stderr(&out)
        );
        assert!(stdout(&out).contains("quorum"), "{}", stdout(&out));
        ensemble
    })
}

#[test]
fn ensemble_train_classify_and_member_selection() {
    let ensemble = trained_ensemble_path();
    let ens = ensemble.to_str().unwrap();

    let out = run(&["info", "--detector", ens]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("ensemble"), "{text}");
    assert!(text.contains("quorum"), "{text}");
    assert!(text.contains("member model-char:"), "{text}");

    let dir = temp_dir("ensemble_classify");
    let gen = run(&[
        "generate",
        "--world",
        "outdoor",
        "--len",
        "1",
        "--seed",
        "79",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(gen.status.success());
    let image = dir.join("frame_0000.pgm");
    let img = image.to_str().unwrap();

    // Fused verdict carries every member's vote.
    let out = run(&["classify", "--detector", ens, "--image", img, "--json"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"backend\":\"ensemble\""), "{json}");
    assert!(json.contains("\"total_votes\":4"), "{json}");

    // --backend selects a single member of the ensemble file.
    let out = run(&[
        "classify",
        "--detector",
        ens,
        "--image",
        img,
        "--backend",
        "vbp+mse",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("\"backend\":\"vbp+mse\""),
        "{}",
        stdout(&out)
    );

    // Unknown backend ids are usage errors (exit 2).
    let out = run(&[
        "classify",
        "--detector",
        ens,
        "--image",
        img,
        "--backend",
        "warp-core",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown backend"), "{}", stderr(&out));

    // --backend and --ensemble together make no sense (exit 2).
    let out = run(&[
        "classify",
        "--detector",
        ens,
        "--image",
        img,
        "--backend",
        "vbp+ssim",
        "--ensemble",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    // --ensemble against a single-backend file is a runtime error.
    let single = trained_detector_path();
    let out = run(&[
        "classify",
        "--detector",
        single.to_str().unwrap(),
        "--image",
        img,
        "--ensemble",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));

    // --backend against a single file of a different backend fails too.
    let out = run(&[
        "classify",
        "--detector",
        single.to_str().unwrap(),
        "--image",
        img,
        "--backend",
        "raw+mse",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

#[test]
fn ensemble_eval_reports_fused_separation() {
    let ensemble = trained_ensemble_path();
    let out = run(&[
        "eval",
        "--detector",
        ensemble.to_str().unwrap(),
        "--ensemble",
        "--len",
        "6",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"auroc\""), "{json}");
}

#[test]
fn eval_json_and_threads_flags_work() {
    let detector = trained_detector_path();
    let out = run(&[
        "eval",
        "--detector",
        detector.to_str().unwrap(),
        "--len",
        "6",
        "--threads",
        "2",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    assert!(json.contains("\"auroc\""), "{json}");
    assert!(json.contains("\"novel_detection_rate\""), "{json}");
}

#[test]
fn stream_with_faults_recovers_and_writes_byte_identical_logs() {
    let detector = trained_detector_path();
    let dir = temp_dir("stream");
    let log_a = dir.join("alarms_a.json");
    let log_b = dir.join("alarms_b.json");
    let report = dir.join("stream_report.json");
    let stream_args = |log: &Path, extra: &[&str]| -> Vec<String> {
        let mut v: Vec<String> = [
            "stream",
            "--detector",
            detector.to_str().unwrap(),
            "--len",
            "60",
            "--seed",
            "11",
            "--faults",
            "nan@10+8,freeze@30+6",
            "--alarm-log",
            log.to_str().unwrap(),
            "--require-recovery",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        v.extend(extra.iter().map(|s| s.to_string()));
        v
    };

    let args_a = stream_args(&log_a, &["--obs-out", report.to_str().unwrap()]);
    let out = run(&args_a.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(out.status.success(), "{}\n{}", stdout(&out), stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("gate rejections"), "{text}");
    assert!(text.contains("recovery check passed"), "{text}");

    // Same seed and schedule → byte-identical alarm log.
    let args_b = stream_args(&log_b, &[]);
    let out = run(&args_b.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(out.status.success(), "{}", stderr(&out));
    let bytes_a = std::fs::read(&log_a).unwrap();
    let bytes_b = std::fs::read(&log_b).unwrap();
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "alarm logs differ between identical runs");
    // The log is JSON and records the injected fault classes.
    let log_text = String::from_utf8(bytes_a).unwrap();
    assert!(log_text.contains("\"non-finite-pixels\""), "{log_text}");
    assert!(log_text.contains("\"fail-safe\"") || log_text.contains("\"degraded\""));

    // The obs report carries the stream-score stage.
    let out = run(&[
        "report",
        "--file",
        report.to_str().unwrap(),
        "--expect",
        "stream-score",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("all expected stages present"));
}

#[test]
fn stream_json_summary_and_fault_free_recovery_check() {
    let detector = trained_detector_path();
    let out = run(&[
        "stream",
        "--detector",
        detector.to_str().unwrap(),
        "--len",
        "10",
        "--json",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let json = stdout(&out);
    for field in ["\"frames\": 10", "\"final_health\"", "\"gate_rejections\""] {
        assert!(json.contains(field), "missing {field} in {json}");
    }

    // --require-recovery on a fault-free run fails: nothing degraded.
    let out = run(&[
        "stream",
        "--detector",
        detector.to_str().unwrap(),
        "--len",
        "10",
        "--require-recovery",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("never degraded"));
}

#[test]
fn stream_rejects_malformed_fault_specs() {
    let detector = trained_detector_path();
    let det = detector.to_str().unwrap();
    for (extra, needle) in [
        (vec!["--faults", "warp@3+2"], "unknown fault kind"),
        (vec!["--faults", "nan-3"], "must look like"),
        (vec!["--faults", "nan@3+0"], "zero length"),
        (vec!["--fallback", "yolo"], "unknown fallback policy"),
        (vec!["--fault-rate", "1.5"], "must be in [0, 1]"),
    ] {
        let mut args = vec!["stream", "--detector", det];
        args.extend(&extra);
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {}", stderr(&out));
        assert!(stderr(&out).contains(needle), "{extra:?}: {}", stderr(&out));
    }
}

#[test]
fn train_obs_out_then_report_roundtrip() {
    let dir = temp_dir("obs");
    let detector = dir.join("detector.json");
    let report = dir.join("report.json");
    let out = run(&[
        "train",
        "--world",
        "outdoor",
        "--len",
        "24",
        "--seed",
        "4",
        "--cnn-epochs",
        "1",
        "--ae-epochs",
        "2",
        "--out",
        detector.to_str().unwrap(),
        "--obs-out",
        report.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(report.exists(), "train --obs-out wrote no report");

    // `report` pretty-prints and verifies the expected stages.
    let out = run(&[
        "report",
        "--file",
        report.to_str().unwrap(),
        "--expect",
        "cnn-train,vbp,ae-train,calibration,scoring",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("all expected stages present"), "{text}");
    assert!(text.contains("cnn-train"), "{text}");

    // A stage the run never produced fails the check at runtime (exit 1).
    let out = run(&[
        "report",
        "--file",
        report.to_str().unwrap(),
        "--expect",
        "warp-drive",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("warp-drive"));
}
