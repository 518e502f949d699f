//! `cres_demo` writes results to stdout and its wall-clock line to stderr,
//! so a `--report` run's stdout is the same bytes at any worker count.

use std::process::Command;

fn demo_stdout(jobs: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_cres_demo"))
        .args(["--seed", "1", "--seed", "2", "--attack", "code-injection"])
        .args(["--report", "--jobs", jobs])
        .output()
        .expect("cres_demo starts");
    assert!(
        out.status.success(),
        "cres_demo --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn report_stdout_does_not_depend_on_worker_count() {
    let one = demo_stdout("1");
    assert!(one.contains("-- seed=1"), "{one}");
    assert_eq!(one, demo_stdout("2"));
}
