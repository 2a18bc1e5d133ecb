//! The benchmark's own tests: smoke-size runs of every workload, traced and
//! untraced, through the built binary, plus its argument handling.
//!
//! ```text
//! cargo test --release --manifest-path servebench/Cargo.toml
//! ```

use std::process::Command;

fn servebench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

#[test]
fn smoke_mode_drives_every_workload_and_passes_its_checks() {
    let out = servebench(&["--smoke"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in ["replay_inproc", "replay_tcp", "attack_loop"] {
        for trace in [0, 1] {
            assert!(
                stdout.contains(&format!("smoke: {workload} trace={trace}")),
                "{workload} trace={trace} did not run"
            );
        }
    }
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect();
    assert_eq!(results.len(), 6, "one result line per workload and mode");
    for line in results {
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(line.contains("\"failed\": 0, \"metrics\": {"));
    }
    assert_eq!(stdout.lines().last(), Some("smoke OK"));
}

#[test]
fn unknown_workload_and_bad_flags_exit_with_usage() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "replay_inproc", "--trace", "2"][..],
        &["--seconds", "-1"][..],
        &["--frobnicate"][..],
    ] {
        let out = servebench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
