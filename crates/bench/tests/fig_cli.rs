//! The `fig` binary's command line, driven as a user would.

use std::process::{Command, Output};

fn fig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig"))
        .args(args)
        .env("GEX_SMS", "2")
        .env_remove("GEX_SIM_CACHE")
        .output()
        .expect("fig runs")
}

#[test]
fn an_unknown_id_exits_2_and_lists_the_valid_ids() {
    let out = fig(&["10,15", "test"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the ids are validated");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown id \"15\""), "{err}");
    for id in ["10", "11", "12", "13", "14", "lp", "mt", "scalability", "table1", "table2"] {
        assert!(err.contains(id), "{id} missing from: {err}");
    }
}

/// A cap that does not parse must not degrade to an uncapped run, and a
/// mistyped flag must not be dropped.
#[test]
fn a_malformed_command_line_exits_2_before_anything_runs() {
    for (args, names) in [
        (&["10", "test", "--max-cycles=abc"][..], "--max-cycles"),
        (&["10", "test", "--bogus"][..], "--bogus"),
    ] {
        let out = fig(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed before the flags were validated");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(names), "{args:?}: {err}");
    }
    let out = fig(&["table2", "--max-cycles", "5000"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty());
}

/// The fig10 → fig11 sharing contract through the CLI: both figures in
/// one process, so Figure 11 simulates only its operand-log points and
/// answers every one of its 11 baselines from the result cache.
#[test]
fn fig_10_11_answers_every_fig11_baseline_from_the_result_cache() {
    let out = fig(&["10,11", "test"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("Table 1:"), "fig 10 leads with Table 1");
    let sweeps: Vec<&str> = text.lines().filter(|l| l.starts_with("sweep:")).collect();
    assert_eq!(
        sweeps,
        [
            "sweep: 44 point(s) simulated (0 from result cache), 0 resumed from journal",
            "sweep: 55 point(s) simulated (11 from result cache), 0 resumed from journal",
        ]
    );
}
