//! Exit codes of the `bdsmaj` command line: 0 ok, 2 usage error (checked
//! at parse time, before any synthesis), 3 completed degraded.

use std::process::Command;

/// Runs `bdsmaj` with `args` and returns its exit code.
fn exit_code(args: &[&str]) -> i32 {
    let out = Command::new(env!("CARGO_BIN_EXE_bdsmaj"))
        .args(args)
        .output()
        .expect("bdsmaj runs");
    out.status.code().expect("bdsmaj exits with a code")
}

#[test]
fn a_benchmark_run_exits_0() {
    assert_eq!(exit_code(&["--bench", "alu2"]), 0);
}

#[test]
fn bad_or_repeated_flags_exit_2() {
    let dir = std::env::temp_dir();
    let a = dir.join("bdsmaj_cli_a.blif");
    let b = dir.join("bdsmaj_cli_b.blif");
    let (a, b) = (a.to_str().expect("utf-8"), b.to_str().expect("utf-8"));
    for args in [
        &["--bench", "alu2", "--flow", "bogus"][..],
        &["--bench", "alu2", "--flow", "abc", "--flow", "dc"],
        &["--bench", "alu2", "-o", a, "-o", b],
        &["--bench", "alu2", "--bench", "alu4"],
        &["--bench", "alu2", "--reorder", "sift"],
        &["--bench", "alu2", "--no-such-option"],
    ] {
        assert_eq!(exit_code(args), 2, "bdsmaj {}", args.join(" "));
    }
}

#[test]
fn a_starved_budget_exits_3() {
    assert_eq!(exit_code(&["--bench", "alu2", "--step-limit", "2"]), 3);
}

/// misex3's degraded cones carry its 22- to 24-input ORs through
/// verbatim; the BLIF must still read back, and equal the input.
#[test]
fn a_degraded_run_writes_a_blif_that_reads_back() {
    let path = std::env::temp_dir().join("bdsmaj_cli_misex3.blif");
    let p = path.to_str().expect("utf-8");
    let args = [
        "--bench",
        "misex3",
        "--node-limit",
        "1000",
        "--step-limit",
        "300",
        "-o",
        p,
    ];
    assert_eq!(exit_code(&args), 3);
    let text = std::fs::read_to_string(&path).expect("the BLIF was written");
    let back = logic::parse_blif(&text).expect("the BLIF parses");
    let net = circuits::suite::benchmark("misex3").expect("a suite circuit");
    assert_eq!(logic::equiv_exact(&net, &back, 1 << 20), Some(true));
}
