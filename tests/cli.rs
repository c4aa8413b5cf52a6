//! End-to-end tests of the `pinocchio-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pinocchio-cli"))
}

#[test]
fn stats_prints_dataset_summary() {
    let out = cli()
        .args(["stats", "--dataset", "small"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("user count"), "{text}");
    assert!(
        text.contains("300"),
        "default small world has 300 users: {text}"
    );
}

#[test]
fn solve_reports_best_candidate() {
    let out = cli()
        .args([
            "solve",
            "--dataset",
            "small",
            "--algo",
            "pin-vo",
            "--tau",
            "0.7",
            "--candidates",
            "50",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("best candidate"), "{text}");
    assert!(text.contains("max influence"), "{text}");
}

#[test]
fn solve_algorithms_agree_via_cli() {
    let influence_of = |algo: &str| -> String {
        let out = cli()
            .args(["solve", "--dataset", "small", "--algo", algo, "--seed", "5"])
            .output()
            .unwrap();
        assert!(out.status.success(), "algo {algo}");
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("max influence"))
            .unwrap()
            .to_string()
    };
    let na = influence_of("na");
    assert_eq!(na, influence_of("pin"));
    assert_eq!(na, influence_of("pin-vo"));
    assert_eq!(na, influence_of("pin-vo*"));
}

#[test]
fn solve_threads_flag_reaches_every_parallel_solver() {
    let influence_of = |algo: &str, threads: &str| -> String {
        let out = cli()
            .args([
                "solve",
                "--dataset",
                "small",
                "--algo",
                algo,
                "--seed",
                "5",
                "--threads",
                threads,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "algo {algo} threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("max influence"))
            .unwrap()
            .to_string()
    };
    let sequential = influence_of("pin-vo", "1");
    for algo in ["na", "pin", "pin-vo", "pin-vo*", "pin-join"] {
        assert_eq!(sequential, influence_of(algo, "4"), "algo {algo}");
    }

    let out = cli()
        .args(["solve", "--dataset", "small", "--threads", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--threads 0 must be rejected");
}

#[test]
fn generate_writes_loadable_csv() {
    let dir = std::env::temp_dir().join(format!("pinocchio-cli-gen-{}", std::process::id()));
    let out = cli()
        .args([
            "generate",
            "--dataset",
            "small",
            "--out",
            dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let d = pinocchio::data::io::load_dataset(
        "reload",
        &dir.join("checkins.csv"),
        Some(&dir.join("venues.csv")),
    )
    .unwrap();
    assert_eq!(d.objects().len(), 300);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn solve_top_lists_k_candidates() {
    let out = cli()
        .args(["solve", "--dataset", "small", "--top", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 3, "{text}");
    assert!(text.contains("  1. candidate"), "{text}");
}

#[test]
fn approx_reports_sample_size() {
    let out = cli()
        .args([
            "approx",
            "--dataset",
            "small",
            "--epsilon",
            "0.2",
            "--candidates",
            "40",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sample size"), "{text}");
    assert!(text.contains("best candidate"), "{text}");
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = cli()
        .args(["solve", "--algo", "warp-drive"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));

    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));

    let out = cli().args(["solve", "--tau", "1.5"]).output().unwrap();
    assert!(!out.status.success(), "tau out of range must be rejected");
}
