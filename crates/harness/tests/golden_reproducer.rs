//! Golden minimal-reproducer snapshots.
//!
//! Three real soak failures are shrunk and their minimal reproducer
//! text plus the violating-timeline digest are compared byte-for-byte
//! against checked-in snapshots in `tests/golden/`:
//!
//! * `soak_cell(1, 63)` and `soak_cell(1, 130)` — the two
//!   `rate-recovery` failures of soak seed 1, minimized on the chaos
//!   plane;
//! * `soak_cell(7, 361)` — a `freeze-termination` failure that carries
//!   a feedback-corruption schedule, minimized on the corruption plane.
//!
//! To regenerate after an intentional behavior change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p ravel-harness --test golden_reproducer
//! ```

use std::fs;
use std::path::PathBuf;

use ravel_harness::{shrink_cell, soak_cell, violating_timeline};
use ravel_net::{ChaosSchedule, CorruptSchedule};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.repro"))
}

fn render(reproducer: &str, timeline: &str) -> String {
    format!("== reproducer ==\n{reproducer}== timeline ==\n{timeline}")
}

fn check(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, got).unwrap();
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden snapshot {path:?} ({e}); regenerate with UPDATE_GOLDEN=1")
    });
    assert_eq!(
        got, want,
        "{name} reproducer diverged from {path:?}; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

fn chaos_golden(index: u64, segments: usize) {
    let cell = soak_cell(1, index);
    let spec = cell.cfg.chaos.expect("soak cell carries a chaos spec");
    let schedule = ChaosSchedule::generate(spec, cell.cfg.duration);
    let min = shrink_cell(&cell, &schedule).expect("the soak failure reproduces");
    assert_eq!(min.segments.len(), segments, "{}", min.reproducer());
    let got = render(&min.reproducer(), &violating_timeline(&cell, &min));
    check(&format!("soak-s1-c{index}"), &got);
}

#[test]
fn soak_s1_c63_minimizes_to_its_golden_reproducer() {
    chaos_golden(63, 2);
}

#[test]
fn soak_s1_c130_minimizes_to_its_golden_reproducer() {
    chaos_golden(130, 4);
}

#[test]
fn soak_s7_c361_corruption_minimizes_to_its_golden_reproducer() {
    let cell = soak_cell(7, 361);
    let spec = cell
        .cfg
        .corrupt
        .expect("soak cell carries a corruption spec");
    let schedule = CorruptSchedule::generate(spec, cell.cfg.duration);
    let min = shrink_cell(&cell, &schedule).expect("the soak failure reproduces");
    assert_eq!(min.segments.len(), 2, "{}", min.reproducer());
    let got = render(&min.reproducer(), &violating_timeline(&cell, &min));
    check("soak-s7-c361-corrupt", &got);
}
