//! The `muri` binary's usage errors: malformed `--scale`, `--machines`
//! and `--degraded-slowdown` values exit 2 before any work starts, on
//! every subcommand that takes them.
#![allow(clippy::expect_used)] // test code: panics are failures

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_muri"))
        .args(args)
        .output()
        .expect("run the muri binary")
        .status
        .code()
}

#[test]
fn out_of_range_scales_are_usage_errors() {
    for cmd in [&["sim", "muri-l"][..], &["verify"][..]] {
        for scale in ["0", "-3", "nan", "inf", "100"] {
            let args: Vec<&str> = cmd.iter().copied().chain(["--scale", scale]).collect();
            assert_eq!(exit_code(&args), Some(2), "muri {}", args.join(" "));
        }
    }
}

#[test]
fn zero_machines_is_a_usage_error() {
    for cmd in [&["sim", "muri-l"][..], &["verify"][..], &["serve"][..]] {
        let args: Vec<&str> = cmd.iter().copied().chain(["--machines", "0"]).collect();
        assert_eq!(exit_code(&args), Some(2), "muri {}", args.join(" "));
    }
}

#[test]
fn non_finite_degraded_slowdowns_are_usage_errors() {
    for cmd in [&["sim", "muri-l"][..], &["verify"][..]] {
        for factor in ["nan", "inf"] {
            let args: Vec<&str> = cmd
                .iter()
                .copied()
                .chain(["--degraded", "1", "--degraded-slowdown", factor])
                .collect();
            assert_eq!(exit_code(&args), Some(2), "muri {}", args.join(" "));
        }
    }
}

#[test]
fn small_simulation_succeeds() {
    assert_eq!(
        exit_code(&["sim", "muri-l", "--trace", "1", "--scale", "0.02"]),
        Some(0)
    );
}
