//! Exit codes of the `bdsmaj` command line: 0 ok, 1 failed, 2 usage
//! error (checked at parse time, before any synthesis), 3 completed
//! degraded; and the files its single- and multi-file modes write.

use std::path::{Path, PathBuf};
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

/// The AIG flow keeps the circuit's input names: alu2's abc BLIF reads
/// back with alu2's inputs, in order, and computes alu2.
#[test]
fn the_abc_flow_keeps_the_input_names() {
    let path = std::env::temp_dir().join("bdsmaj_cli_alu2_abc.blif");
    let p = path.to_str().expect("utf-8");
    assert_eq!(exit_code(&["--bench", "alu2", "--flow", "abc", "-o", p]), 0);
    let text = std::fs::read_to_string(&path).expect("the BLIF was written");
    let back = logic::parse_blif(&text).expect("the BLIF parses");
    let net = circuits::suite::benchmark("alu2").expect("a suite circuit");
    let names = |n: &logic::Network| -> Vec<String> {
        n.inputs().iter().map(|&i| n.signal_name(i)).collect()
    };
    assert_eq!(names(&back), names(&net));
    assert_eq!(logic::equiv_exact(&net, &back, 1 << 20), Some(true));
}

/// An input named like a gate's positional name (`n5`, the name gate 5
/// would take): the written BLIF defines every name once, drives no
/// input, and reads back equal to the input circuit.
#[test]
fn the_written_blif_defines_every_name_once() {
    let dir = std::env::temp_dir();
    let input = dir.join("bdsmaj_cli_names_in.blif");
    let output = dir.join("bdsmaj_cli_names_out.blif");
    // y = a·b ⊕ n5, z = a·n5
    let text = ".model clash\n.inputs a b n5\n.outputs y z\n\
                .names a b n5 y\n110 1\n001 1\n101 1\n011 1\n\
                .names a n5 z\n11 1\n.end\n";
    std::fs::write(&input, text).expect("the input BLIF is written");
    let (i, o) = (
        input.to_str().expect("utf-8"),
        output.to_str().expect("utf-8"),
    );
    assert_eq!(exit_code(&["--flow", "bds-maj", "-o", o, i]), 0);
    let written = std::fs::read_to_string(&output).expect("the BLIF was written");
    let mut defined: Vec<&str> = written
        .lines()
        .filter(|l| l.starts_with(".names"))
        .map(|l| l.split_whitespace().last().expect("a .names output"))
        .collect();
    let count = defined.len();
    defined.sort_unstable();
    defined.dedup();
    assert_eq!(defined.len(), count, "a name is defined twice:\n{written}");
    for input in ["a", "b", "n5"] {
        assert!(
            !defined.contains(&input),
            "a cover drives input {input}:\n{written}"
        );
    }
    let net = logic::parse_blif(text).expect("the input parses");
    let back = logic::parse_blif(&written).expect("the BLIF parses");
    assert_eq!(logic::equiv_exact(&net, &back, 1 << 16), Some(true));
}

/// A fresh directory under the system temp dir holding the
/// suite circuits `names` as BLIF files, one per subdirectory `in<k>`
/// (so two equal names make two inputs with one basename). Returns the
/// directory and the input paths.
fn suite_blifs(dir: &str, names: &[&str]) -> (PathBuf, Vec<String>) {
    let dir = std::env::temp_dir().join(dir);
    let _ = std::fs::remove_dir_all(&dir);
    let inputs = names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let net = circuits::suite::benchmark(name).expect("a suite circuit");
            let sub = dir.join(format!("in{k}"));
            std::fs::create_dir_all(&sub).expect("the input directory is created");
            let path = sub.join(format!("{name}.blif"));
            std::fs::write(&path, logic::write_blif(&net)).expect("the input BLIF is written");
            path.to_str().expect("utf-8").to_string()
        })
        .collect();
    (dir, inputs)
}

/// Multi-file mode on two suite circuits: each run exits 0 and writes
/// `DIR/<basename>` per input, which reads back equal to that input, and
/// the files are byte-identical at one and at two workers.
#[test]
fn multi_file_mode_writes_each_input_at_any_worker_count() {
    let names = ["alu2", "f51m"];
    let (dir, inputs) = suite_blifs("bdsmaj_cli_multi", &names);
    let run = |jobs: &str| -> PathBuf {
        let out = dir.join(format!("out_jobs{jobs}"));
        let o = out.to_str().expect("utf-8");
        let mut args = vec!["--jobs", jobs, "-o", o];
        args.extend(inputs.iter().map(String::as_str));
        assert_eq!(exit_code(&args), 0, "bdsmaj {}", args.join(" "));
        out
    };
    let (one, two) = (run("1"), run("2"));
    let read = |dir: &Path, name: &str| {
        std::fs::read_to_string(dir.join(format!("{name}.blif"))).expect("the BLIF was written")
    };
    for name in names {
        let text = read(&one, name);
        assert_eq!(
            text,
            read(&two, name),
            "{name}: --jobs 1 and --jobs 2 differ"
        );
        let back = logic::parse_blif(&text).expect("the BLIF parses");
        let net = circuits::suite::benchmark(name).expect("a suite circuit");
        assert_eq!(
            logic::equiv_exact(&net, &back, 1 << 20),
            Some(true),
            "{name}"
        );
    }
}

/// Two inputs with one basename would write one output file: the run
/// refuses before synthesis and exits 1.
#[test]
fn multi_file_inputs_with_one_basename_exit_1() {
    let (dir, inputs) = suite_blifs("bdsmaj_cli_clash", &["alu2", "alu2"]);
    let out = dir.join("out");
    let o = out.to_str().expect("utf-8");
    assert_eq!(exit_code(&["-o", o, &inputs[0], &inputs[1]]), 1);
    assert!(!out.exists(), "nothing is written");
}
