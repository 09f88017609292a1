//! The golden-snapshot helper shared by the harness's golden tests.
//!
//! A golden test renders its output to a string and hands it to
//! [`check_golden`], which compares it byte-for-byte with the checked-in
//! file under `tests/golden/`. With `UPDATE_GOLDEN` set in the
//! environment the file is (re)written instead, which is the only way a
//! snapshot should change.

use std::fs;
use std::path::PathBuf;

/// The checked-in snapshot `tests/golden/<file>`.
fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Compares `got` with the snapshot `tests/golden/<file>`, or writes it
/// there under `UPDATE_GOLDEN`. A mismatch names the first line that
/// differs, so a large snapshot fails readably.
pub fn check_golden(file: &str, got: &str) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    if got == want {
        return;
    }
    let want_lines: Vec<&str> = want.split('\n').collect();
    let got_lines: Vec<&str> = got.split('\n').collect();
    let i = (0..want_lines.len().max(got_lines.len()))
        .find(|&i| want_lines.get(i) != got_lines.get(i))
        .expect("unequal strings differ in some line");
    panic!(
        "{file} diverged from {path:?} at line {}:\n  want: {:?}\n   got: {:?}\n\
         ({} bytes expected, {} produced); \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1",
        i + 1,
        want_lines.get(i),
        got_lines.get(i),
        want.len(),
        got.len()
    );
}
