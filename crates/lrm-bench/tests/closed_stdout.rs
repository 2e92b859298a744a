//! `lrm-bench` with its standard output closed before it writes
//! (`lrm-bench ... | head` after `head` exits): it still writes its file
//! and exits 0.

use std::path::PathBuf;
use std::process::{Command, ExitStatus};

/// A fresh directory of this test's own under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lrm-bench-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `lrm-bench args` with a standard output whose reading end is
/// already closed.
fn run_with_closed_stdout(args: &[&str]) -> ExitStatus {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_lrm-bench"))
        .args(args)
        .stdout(writer)
        .status()
        .expect("run lrm-bench")
}

#[test]
fn record_writes_its_file_and_exits_0_with_stdout_closed() {
    let dir = scratch("record");
    let path = |f: &str| dir.join(f).to_str().expect("utf-8 path").to_string();
    std::fs::write(
        path("BENCHMARK.json"),
        r#"{"workloads": [{"name": "w1"}],
            "end_to_end": [{"name": "mbps", "unit": "MB/s", "better": "higher", "bound": 0.25}],
            "per_layer": []}"#,
    )
    .expect("write benchmark");
    let run = |mbps: f64| {
        format!(
            r#"{{"correct": true, "attempted": 3, "failed": 0, "metrics": {{"mbps": {{"value": {mbps}, "unit": "MB/s"}}}}}}"#
        )
    };
    std::fs::write(path("parent.txt"), run(10.0)).expect("write run");
    std::fs::write(path("change.txt"), run(12.0)).expect("write run");
    let out = path("record.json");
    let status = run_with_closed_stdout(&[
        "record",
        "--benchmark",
        &path("BENCHMARK.json"),
        "--out",
        &out,
        "--pair",
        "w1",
        &path("parent.txt"),
        &path("change.txt"),
    ]);
    assert!(status.success(), "record: {status}");
    let text = std::fs::read_to_string(&out).expect("record written");
    let rec = lrm_bench::record::Record::from_json(&text).expect("record parses");
    assert_eq!(rec.workloads[0].metrics[0].change.median, 12.0);

    // The check's status is its verdict, whoever reads the table.
    let status = run_with_closed_stdout(&["record", "--check", &out, "--claim", "w1", "mbps"]);
    assert_eq!(status.code(), Some(1), "one pair cannot carry a claim");
    let status = run_with_closed_stdout(&["record", "--check", &out]);
    assert!(status.success(), "check: {status}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}

#[test]
fn the_codec_run_writes_its_file_and_exits_0_with_stdout_closed() {
    let dir = scratch("run");
    let out = dir.join("bench.json");
    let out = out.to_str().expect("utf-8 path");
    let status = run_with_closed_stdout(&["--quick", "--reps", "1", "--out", out]);
    assert!(status.success(), "run: {status}");
    let text = std::fs::read_to_string(out).expect("results written");
    assert_eq!(lrm_bench::from_json(&text).expect("results parse").len(), 3);
    std::fs::remove_dir_all(&dir).expect("clean up");
}
