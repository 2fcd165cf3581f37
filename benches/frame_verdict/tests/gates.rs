//! The benchmark's own gates, driven through the binary in quick mode:
//! every metric `BENCHMARK.json` names is printed with its unit, and the
//! verdict and allocation checks fire on planted defects.

use std::process::{Command, Output};

use serde::Deserialize;

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

fn spec() -> Spec {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: bool, plant: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_frame-verdict"));
    cmd.args(["--workload", workload, "--seed", "5", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--quick"]);
    if let Some(plant) = plant {
        cmd.args(["--plant", plant]);
    }
    cmd.output().expect("the benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn quick_mode_prints_every_named_metric_with_its_unit() {
    let spec = spec();
    for workload in &spec.workloads {
        for (trace, metrics) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let out = run(&workload.name, trace, None);
            let text = stdout(&out);
            assert!(
                out.status.success(),
                "{} trace={trace} failed: {}\n{text}",
                workload.name,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = text.lines().last().expect("a result line");
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
            for m in metrics.iter() {
                let line = text
                    .lines()
                    .find(|l| l.split(' ').nth(1) == Some(m.name.as_str()))
                    .unwrap_or_else(|| panic!("{} trace={trace}: no {}", workload.name, m.name));
                assert!(
                    line.starts_with("metric ") && line.ends_with(&format!(" {}", m.unit)),
                    "{line}"
                );
                assert!(
                    result.contains(&format!("\"{}\": {{\"value\": ", m.name))
                        && result.contains(&format!("\"unit\": \"{}\"", m.unit)),
                    "{} missing from {result}",
                    m.name
                );
            }
            assert_eq!(
                result.matches("\"value\"").count(),
                metrics.len(),
                "the result carries exactly the named metrics: {result}"
            );
            assert!(text.contains("metric failed_frac 0 fraction"), "{text}");
            assert!(text.contains(&format!("verdict_digest {} ", workload.name)));
        }
    }
}

#[test]
fn a_wrong_reference_score_fails_the_run() {
    let out = run("stream-b1", false, Some("wrong-ref"));
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("differ from NoveltyDetector::score"));
    let text = stdout(&out);
    assert!(text
        .lines()
        .last()
        .unwrap()
        .starts_with("{\"correct\": false"));
}

#[test]
fn a_per_frame_allocation_fails_stream_b1() {
    let out = run("stream-b1", false, Some("alloc"));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warmed stream-b1 made"), "{stderr}");
}
