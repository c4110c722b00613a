//! Byte-identity of the quick evaluation: `tables --all --quick
//! --serial` with host wall-clock cells redacted must reproduce the
//! committed golden exactly. Tables B and H carry answers computed on
//! worker processes over the socket transport, so this also pins what
//! crosses the procs wire.
//!
//! After a deliberate change to a table, regenerate the golden with
//!
//! ```text
//! CK_TABLES_REDACT_HOST=1 cargo run --release -p ck_bench --bin tables -- \
//!     --all --quick --serial > crates/ck_bench/tests/golden/tables_quick.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/tables_quick.txt");

#[test]
fn quick_tables_match_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(["--all", "--quick", "--serial"])
        .env("CK_TABLES_REDACT_HOST", "1")
        .output()
        .expect("run the tables binary");
    assert!(
        out.status.success(),
        "tables exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    if got == GOLDEN {
        return;
    }
    let (want, have) = (GOLDEN.lines(), got.lines());
    let at = want
        .clone()
        .zip(have.clone())
        .position(|(w, h)| w != h)
        .unwrap_or_else(|| want.clone().count().min(have.clone().count()));
    panic!(
        "tables output differs from the golden at line {}:\n  golden: {:?}\n  got:    {:?}",
        at + 1,
        want.clone().nth(at),
        have.clone().nth(at)
    );
}
