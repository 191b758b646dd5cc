//! `-h`/`--help` anywhere on the command line prints the usage alone and
//! exits the way `trackdown --help` does.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_trackdown"))
        .args(args)
        .output()
        .expect("run trackdown");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_after_a_subcommand_prints_the_usage_alone() {
    let (code, usage) = run(&["--help"]);
    assert!(usage.contains("USAGE:"), "{usage}");
    for args in [
        &["campaign", "--help"][..],
        &["profile", "--scale", "small", "-h"],
        &["localize", "--dataset", "d.json", "--help"],
    ] {
        assert_eq!(run(args), (code, usage.clone()), "{args:?}");
    }
}
