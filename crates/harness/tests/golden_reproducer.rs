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

mod common;

use ravel_harness::{shrink_cell, soak_cell, violating_timeline};
use ravel_net::{ChaosSchedule, CorruptSchedule};

fn render(reproducer: &str, timeline: &str) -> String {
    format!("== reproducer ==\n{reproducer}== timeline ==\n{timeline}")
}

fn chaos_golden(index: u64, segments: usize) {
    let cell = soak_cell(1, index);
    let spec = cell.cfg.chaos.expect("soak cell carries a chaos spec");
    let schedule = ChaosSchedule::generate(spec, cell.cfg.duration);
    let min = shrink_cell(&cell, &schedule).expect("the soak failure reproduces");
    assert_eq!(min.segments.len(), segments, "{}", min.reproducer());
    let got = render(&min.reproducer(), &violating_timeline(&cell, &min));
    common::check_golden(&format!("soak-s1-c{index}.repro"), &got);
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
    common::check_golden("soak-s7-c361-corrupt.repro", &got);
}
