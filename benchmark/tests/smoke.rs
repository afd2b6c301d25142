//! Drives the built binary the way the driver does: every workload, traced
//! and untraced, at `--smoke` size (one pass of 10 k-instruction cells).

use std::process::{Command, Output};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bh-benchmark")).args(args).output().expect("the binary runs")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_runs_traced_and_untraced_in_smoke_mode() {
    #[allow(clippy::disallowed_methods)] // a test's own time limit, not simulation code
    let started = std::time::Instant::now();
    for workload in ["attack_paper", "benign_paper", "scaled_4ch", "campaign_sweep"] {
        for trace in ["0", "1"] {
            let output = benchmark(&[
                "run",
                "--workload",
                workload,
                "--seed",
                "7",
                "--trace",
                trace,
                "--smoke",
            ]);
            let result = last_line(&output);
            assert!(output.status.success(), "{workload} trace={trace}: {result}");
            assert!(result.starts_with("{\"correct\": true, \"attempted\": "), "{result}");
            assert!(result.contains("\"failed\": 0,"), "{result}");
            let expected = if trace == "1" { "\"sim.run_ms\"" } else { "\"setup_s\"" };
            assert!(result.contains(expected), "{result}");
            // Every other line of the report is `workload metric value unit`.
            let stdout = String::from_utf8_lossy(&output.stdout);
            assert!(stdout.lines().any(|l| l.starts_with(&format!("{workload} "))));
        }
    }
    assert!(started.elapsed().as_secs() < 10, "smoke mode took {:?}", started.elapsed());
}

#[test]
fn a_set_knob_or_a_bad_argument_is_refused() {
    let refused = Command::new(env!("CARGO_BIN_EXE_bh-benchmark"))
        .args(["run", "--workload", "scaled_4ch", "--smoke"])
        .env("BH_EPOCH_WORKERS", "4")
        .output()
        .expect("the binary runs");
    assert_eq!(refused.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&refused.stderr).contains("BH_EPOCH_WORKERS"));
    assert!(last_line(&refused).is_empty(), "no result line when refusing");

    for args in [&["run", "--workload", "nope"][..], &["run", "--trace", "2"], &["frobnicate"], &[]]
    {
        assert_eq!(benchmark(args).status.code(), Some(2), "{args:?}");
    }
}
