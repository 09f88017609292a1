//! CLI for the parallel experiment harness.
//!
//! ```text
//! cargo run --release -p ravel-harness -- --jobs 8 --experiments e1,e2
//! cargo run --release -p ravel-harness -- --faults chaos:25@7
//! cargo run --release -p ravel-harness -- --soak 30 --soak-seed 1
//! ```
//!
//! Deterministic output (experiment tables) goes to stdout — two runs
//! over the same grid diff clean regardless of `--jobs`. Timing goes to
//! stderr, and the structured report to `--out` (default
//! `BENCH_harness.json`).
//!
//! Each run has one mode: the experiment grid (the default), a fault
//! sweep, a soak, or the isolation fixture. A second, different mode
//! flag is an error.
//!
//! A fault sweep (`--faults PLANE:N[@SEED]`) replaces the experiment
//! selection with an N-cell seeded sweep on one fault plane. On the
//! `chaos` (data) plane, any cell that fails — invariant violation,
//! panic, runaway — is minimized with the shrinker and its reproducer
//! spec is printed; the process then exits nonzero so CI gates on it.
//! The `corrupt` (control) plane is the analogue for feedback
//! corruption: failures (invariant violations *or* broken recovery
//! contracts) shrink to a minimal corruption schedule the same way.
//!
//! In every mode, cells that carry recovery contracts (E21, the corrupt
//! sweep) report their verdicts; any failed clause fails the run.
//!
//! Soak mode (`--soak SECS`) streams randomized cells through the
//! fault-isolated pool until the wall budget expires; see
//! `ravel_harness::soak`.
//!
//! In every mode, any cell that does not complete `ok` (panicked,
//! timed out, runaway) is listed in a failure summary table and the
//! process exits nonzero.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use ravel_harness::{
    default_jobs, experiments, render_json, render_timeline, run_soak, run_suite_opts, shrink_cell,
    violating_timeline, BatchMode, Cell, CellRun, FaultPlane, ObsMode, PoolOptions, RunReport,
    SoakOptions, FIXTURE_FAULT_AT,
};
use ravel_metrics::Table;
use ravel_net::{CorruptKind, FaultKind, Schedule};
use ravel_pipeline::InjectedFault;

const USAGE: &str = "\
ravel-harness — run the E1-E22 grid on a deterministic thread pool

USAGE:
    ravel-harness [OPTIONS]

One mode per run: the experiment grid (default), --faults, --soak or
--fixture.

OPTIONS:
    --jobs N             worker threads (default: all cores)
    --batch N|auto       grid positions a worker claims per pass and
                         runs as one interleaved session population
                         through the shared-queue kernel (default:
                         auto, sized from the grid and worker count;
                         1 = one cell per kernel call; output is
                         byte-identical at any batch size)
    --experiments LIST   comma-separated ids, e.g. e1,e4,e17 (default: all)
    --controller LIST    restrict the E22 arena grid to a comma-separated
                         controller list (gcc, nada, bbr, loss-ema);
                         requires e22 in the selected experiments
    --faults PLANE:N[@SEED]
                         run an N-cell seeded fault sweep instead of the
                         experiment grid; cell i uses seed SEED+i
                         (default SEED: 1), so the spec names the sweep.
                         PLANE chaos: forward-link faults, exits nonzero
                         if any session invariant is violated. PLANE
                         corrupt: feedback corruption, every cell
                         carries a recovery contract. Failing schedules
                         are shrunk and printed as minimal reproducers
    --soak SECS          stream seeded random chaos x impairment x
                         content cells through the fault-isolated pool
                         for SECS seconds of wall clock; prints merged
                         status/violation tallies and exits nonzero on
                         any failing cell (no JSON report, no --list)
    --soak-seed S        soak stream seed (default: 1); requires --soak
    --soak-cells N       stop the soak after exactly N cells even with
                         budget left, so coverage is independent of
                         host speed (CI smoke runs the exact same,
                         pre-validated cell range everywhere);
                         requires --soak
    --deadline SECS      per-cell wall-clock deadline: overdue sessions
                         are cancelled by the pool supervisor and
                         reported as timed_out
    --fixture KIND       run the injected-fault isolation fixture grid
                         (KIND: panic or runaway) — the faulty cell must
                         be quarantined while the rest of the grid
                         completes; exits nonzero
    --obs MODE           observability: off (default, zero overhead),
                         counters (per-subsystem tallies), or full
                         (every event recorded; prints a per-cell
                         timeline digest after each experiment and
                         writes the JSONL timeline to --obs-out)
    --obs-out PATH       JSONL timeline path for --obs full
                         (default: OBS_timeline.jsonl)
    --out PATH           JSON report path (default: BENCH_harness.json)
    --timing-free        omit wall-clock fields from the JSON report
                         (the remainder is byte-identical at any --jobs
                         except the 'jobs' header field itself)
    --no-json            skip writing the JSON report
    --no-cache           simulate every grid position, even duplicates
                         (cold-run benchmarking; default memoizes by
                         content address so each unique cell runs once)
    --list               list experiments and their cell counts, then exit
    --help               this text
";

/// The fault plane a `--faults` sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    /// Forward-link chaos ([`experiments::chaos_sweep`]).
    Chaos,
    /// Feedback corruption ([`experiments::corrupt_sweep`]).
    Corrupt,
}

impl Plane {
    fn name(self) -> &'static str {
        match self {
            Plane::Chaos => "chaos",
            Plane::Corrupt => "corrupt",
        }
    }
}

/// What one run does. Each mode flag sets it; a second, different mode
/// is an error.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// The experiment grid (`--experiments`, default all).
    Grid,
    /// `--faults PLANE:N[@SEED]`: an N-cell sweep whose cell i uses
    /// seed SEED+i.
    Faults { plane: Plane, cells: u64, seed: u64 },
    /// `--soak SECS`: a randomized stream for SECS of wall clock.
    Soak(u64),
    /// `--fixture KIND`: the injected-fault isolation grid.
    Fixture(InjectedFault),
}

impl Mode {
    /// The flag that selected this mode; `None` for the grid.
    fn flag(self) -> Option<&'static str> {
        match self {
            Mode::Grid => None,
            Mode::Faults { .. } => Some("--faults"),
            Mode::Soak(_) => Some("--soak"),
            Mode::Fixture(_) => Some("--fixture"),
        }
    }
}

#[derive(Debug)]
struct Args {
    jobs: usize,
    batch: BatchMode,
    mode: Mode,
    experiments: Option<String>,
    controller: Option<String>,
    soak_seed: Option<u64>,
    soak_cells: Option<u64>,
    deadline: Option<Duration>,
    obs: ObsMode,
    obs_out: String,
    out: String,
    write_json: bool,
    timing_free: bool,
    use_cache: bool,
    list: bool,
    help: bool,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        jobs: default_jobs(),
        batch: BatchMode::Auto,
        mode: Mode::Grid,
        experiments: None,
        controller: None,
        soak_seed: None,
        soak_cells: None,
        deadline: None,
        obs: ObsMode::Off,
        obs_out: "OBS_timeline.jsonl".to_string(),
        out: "BENCH_harness.json".to_string(),
        write_json: true,
        timing_free: false,
        use_cache: true,
        list: false,
        help: false,
    };
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--jobs" | "-j" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs expects a positive integer".to_string())?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--batch" => {
                let v = value("--batch")?;
                args.batch = if v == "auto" {
                    BatchMode::Auto
                } else {
                    let n: usize = v
                        .parse()
                        .map_err(|_| "--batch expects a positive integer or 'auto'".to_string())?;
                    if n == 0 {
                        return Err("--batch must be at least 1".into());
                    }
                    BatchMode::Fixed(n)
                };
            }
            "--experiments" | "-e" => args.experiments = Some(value("--experiments")?),
            "--controller" => args.controller = Some(value("--controller")?),
            "--faults" => {
                let mode = parse_faults(&value("--faults")?)?;
                set_mode(&mut args.mode, mode)?;
            }
            "--soak" => {
                let secs: u64 = value("--soak")?.parse().map_err(|_| {
                    "--soak expects a whole, positive number of seconds".to_string()
                })?;
                if secs == 0 {
                    return Err("--soak must be at least 1 second".into());
                }
                set_mode(&mut args.mode, Mode::Soak(secs))?;
            }
            "--soak-seed" => {
                args.soak_seed = Some(
                    value("--soak-seed")?
                        .parse()
                        .map_err(|_| "--soak-seed expects an unsigned integer".to_string())?,
                );
            }
            "--soak-cells" => {
                let n: u64 = value("--soak-cells")?
                    .parse()
                    .map_err(|_| "--soak-cells expects a positive cell count".to_string())?;
                if n == 0 {
                    return Err("--soak-cells must be at least 1".into());
                }
                args.soak_cells = Some(n);
            }
            "--deadline" => {
                let secs: f64 = value("--deadline")?
                    .parse()
                    .map_err(|_| "--deadline expects seconds, e.g. 2.5".to_string())?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--deadline must be a positive number of seconds".into());
                }
                let deadline = Duration::try_from_secs_f64(secs).map_err(|_| {
                    format!(
                        "--deadline must be at most {} seconds",
                        Duration::MAX.as_secs()
                    )
                })?;
                args.deadline = Some(deadline);
            }
            "--fixture" => {
                let kind = value("--fixture")?;
                let fault = match kind.as_str() {
                    "panic" => InjectedFault::Panic {
                        at: FIXTURE_FAULT_AT,
                    },
                    "runaway" => InjectedFault::Runaway {
                        at: FIXTURE_FAULT_AT,
                    },
                    other => {
                        return Err(format!("--fixture expects panic or runaway, got '{other}'"))
                    }
                };
                set_mode(&mut args.mode, Mode::Fixture(fault))?;
            }
            "--obs" => {
                let mode = value("--obs")?;
                args.obs = ObsMode::parse(&mode)
                    .ok_or_else(|| format!("--obs expects off, counters or full, got '{mode}'"))?;
            }
            "--obs-out" => args.obs_out = value("--obs-out")?,
            "--out" | "-o" => args.out = value("--out")?,
            "--no-json" => args.write_json = false,
            "--timing-free" => args.timing_free = true,
            "--no-cache" => args.use_cache = false,
            "--list" => args.list = true,
            "--help" | "-h" => args.help = true,
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
    }
    validate(&args)?;
    Ok(args)
}

/// Parses a `--faults` spec, `PLANE:N[@SEED]`: N >= 1 cells on plane
/// `chaos` or `corrupt`, first seed SEED (default 1). Cell i uses seed
/// SEED+i, so SEED+N-1 must fit in a u64 for the spec to name exactly
/// one sweep.
fn parse_faults(spec: &str) -> Result<Mode, String> {
    let (plane, rest) = spec
        .split_once(':')
        .ok_or_else(|| format!("--faults expects PLANE:N[@SEED], e.g. chaos:25@7, got '{spec}'"))?;
    let plane = match plane {
        "chaos" => Plane::Chaos,
        "corrupt" => Plane::Corrupt,
        other => {
            return Err(format!(
                "--faults plane must be chaos or corrupt, got '{other}'"
            ))
        }
    };
    let (cells, seed) = match rest.split_once('@') {
        Some((cells, seed)) => (cells, Some(seed)),
        None => (rest, None),
    };
    let cells: u64 = cells
        .parse()
        .map_err(|_| format!("--faults expects a positive cell count, got '{cells}'"))?;
    if cells == 0 {
        return Err("--faults cell count must be at least 1".into());
    }
    let seed: u64 = match seed {
        Some(s) => s
            .parse()
            .map_err(|_| format!("--faults seed must be an unsigned integer, got '{s}'"))?,
        None => 1,
    };
    if seed.checked_add(cells - 1).is_none() {
        return Err(format!(
            "--faults seeds {seed}..={seed}+{} overflow u64; the first seed may be at most {}",
            cells - 1,
            u64::MAX - (cells - 1)
        ));
    }
    Ok(Mode::Faults { plane, cells, seed })
}

/// Sets the run mode; a second, different mode is an error.
fn set_mode(mode: &mut Mode, new: Mode) -> Result<(), String> {
    if *mode != Mode::Grid && *mode != new {
        return Err(
            "--faults, --soak and --fixture are mutually exclusive (one mode per run)".into(),
        );
    }
    *mode = new;
    Ok(())
}

/// Cross-flag validation: grid-only flags conflict with the other
/// modes, and soak-scoped flags require the soak.
fn validate(args: &Args) -> Result<(), String> {
    if let Some(mode) = args.mode.flag() {
        if args.experiments.is_some() {
            return Err(format!("--experiments cannot be combined with {mode}"));
        }
        if args.controller.is_some() {
            return Err(format!("--controller cannot be combined with {mode}"));
        }
    }
    if matches!(args.mode, Mode::Soak(_)) {
        if args.obs != ObsMode::Off {
            return Err("--soak cannot be combined with --obs (soak cells are unobserved)".into());
        }
        if args.list {
            return Err("--soak cannot be combined with --list (a soak has no fixed grid)".into());
        }
    } else {
        if args.soak_seed.is_some() {
            return Err("--soak-seed requires --soak".into());
        }
        if args.soak_cells.is_some() {
            return Err("--soak-cells requires --soak".into());
        }
    }
    if args.deadline.is_some() {
        if let BatchMode::Fixed(n) = args.batch {
            if n > 1 {
                return Err(
                    "--batch above 1 cannot be combined with --deadline (per-cell \
                     cancellation needs per-cell kernel calls; use --batch 1 or auto)"
                        .into(),
                );
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    let selected = match args.mode {
        Mode::Soak(budget_s) => return run_soak_mode(&args, budget_s),
        Mode::Faults { plane, cells, seed } => vec![match plane {
            Plane::Chaos => experiments::chaos_sweep(cells, seed),
            Plane::Corrupt => experiments::corrupt_sweep(cells, seed),
        }],
        Mode::Fixture(fault) => vec![experiments::fixture(fault)],
        Mode::Grid => match experiments::select(args.experiments.as_deref().unwrap_or("all")) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // --controller narrows the E22 arena grid in place; every other
    // experiment is controller-fixed by construction.
    let selected = if let Some(list) = &args.controller {
        let Some(pos) = selected.iter().position(|e| e.id == "e22") else {
            eprintln!(
                "error: --controller only applies to the e22 arena grid; add e22 to --experiments"
            );
            return ExitCode::FAILURE;
        };
        match experiments::e22_subset(list) {
            Ok(sub) => {
                let mut selected = selected;
                selected[pos] = sub;
                selected
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        selected
    };

    if args.list {
        for e in &selected {
            println!("{:<4} {:>3} cells  {}", e.id, e.cells.len(), e.title);
        }
        let total: usize = selected.iter().map(|e| e.cells.len()).sum();
        println!("     {total:>3} cells total");
        return ExitCode::SUCCESS;
    }

    let total_cells: usize = selected.iter().map(|e| e.cells.len()).sum();
    eprintln!(
        "running {} experiments / {} cells on {} workers...",
        selected.len(),
        total_cells,
        args.jobs
    );

    let started = Instant::now();
    let opts = PoolOptions {
        use_cache: args.use_cache,
        obs: args.obs,
        deadline: args.deadline,
        batch: args.batch,
    };
    let (runs, stats) = run_suite_opts(&selected, args.jobs, opts);
    let report = RunReport {
        jobs: args.jobs,
        total_wall: started.elapsed(),
        stats,
        experiments: runs,
    };

    for run in &report.experiments {
        println!("=== {}: {} ===", run.id, run.title);
        println!("{}", run.output.render());
        // Per-cell timeline digests ride below each experiment's table.
        // Printed only when observation is on, so `--obs off` stdout is
        // byte-identical to a build without the obs layer at all.
        if args.obs != ObsMode::Off {
            for cell in &run.cells {
                println!("{}", cell.result.obs.digest(&cell.label));
            }
        }
    }

    // Any cell that did not complete `ok` — panicked, timed out,
    // runaway — is summarized and fails the run, in every mode.
    let failing: Vec<&CellRun> = report
        .experiments
        .iter()
        .flat_map(|r| r.cells.iter())
        .filter(|c| !c.ok())
        .collect();
    if !failing.is_empty() {
        println!("=== failure summary ===");
        let mut t = Table::new(&["cell", "status", "digest", "detail"]);
        for run in &failing {
            let failure = run.failure.as_ref().expect("non-ok cells carry a failure");
            t.row_owned(vec![
                run.label.clone(),
                run.status.name().to_string(),
                failure.digest(),
                failure.detail.clone(),
            ]);
        }
        println!("{}", t.render());
    }

    // In a fault sweep, shrink every failing cell — invariant
    // violation, broken recovery contract, or quarantined
    // panic/runaway — to a minimal reproducer on the sweep's plane
    // before deciding the exit code.
    let mut violating_cells = 0usize;
    if let Mode::Faults { plane, .. } = args.mode {
        for (exp, run) in selected.iter().zip(&report.experiments) {
            for (cell, cell_run) in exp.cells.iter().zip(&run.cells) {
                let broken = cell_run.failed_contracts();
                if cell_run.ok() && cell_run.result.violations.is_empty() && broken.is_empty() {
                    continue;
                }
                violating_cells += 1;
                println!(
                    "FAILING CELL {} [{}]:",
                    cell_run.label,
                    cell_run.status.name()
                );
                if let Some(failure) = &cell_run.failure {
                    println!("  {}", failure.detail);
                }
                for v in &cell_run.result.violations {
                    println!("  {v}");
                }
                for verdict in &broken {
                    println!("  contract {}: {}", verdict.name, verdict.detail);
                }
                match plane {
                    Plane::Chaos => print_reproducer::<FaultKind>(cell, "minimal reproducer"),
                    Plane::Corrupt => {
                        print_reproducer::<CorruptKind>(cell, "minimal corruption reproducer")
                    }
                }
            }
        }
    }

    // Recovery contracts gate every mode: a failed clause anywhere in
    // the grid (E21 carries them by default) fails the run.
    let failed_clauses: Vec<(&CellRun, &ravel_pipeline::ContractVerdict)> = report
        .experiments
        .iter()
        .flat_map(|r| r.cells.iter())
        .flat_map(|c| c.failed_contracts().into_iter().map(move |v| (c, v)))
        .collect();
    if !failed_clauses.is_empty() {
        println!("=== contract failures ===");
        let mut t = Table::new(&["cell", "contract", "detail"]);
        for (run, verdict) in &failed_clauses {
            t.row_owned(vec![
                run.label.clone(),
                verdict.name.to_string(),
                verdict.detail.clone(),
            ]);
        }
        println!("{}", t.render());
    }

    eprintln!(
        "{} cells ({} unique, {} executed, {} cache hits), {:.0} simulated seconds in {:.2} s wall ({:.1} sim-s/s, {:.2e} events/s, jobs={})",
        stats.total_cells,
        stats.unique_cells,
        stats.executed,
        stats.cache_hits,
        report.sim_seconds(),
        report.total_wall.as_secs_f64(),
        report.sim_rate(),
        report.events_rate(),
        report.jobs
    );

    if args.obs == ObsMode::Full {
        let jsonl = render_timeline(&report.experiments);
        if let Err(e) = std::fs::write(&args.obs_out, &jsonl) {
            eprintln!("error: writing {}: {e}", args.obs_out);
            return ExitCode::FAILURE;
        }
        eprintln!(
            "timeline ({} events) written to {}",
            jsonl.lines().count(),
            args.obs_out
        );
    }

    if args.write_json {
        let json = render_json(&report, !args.timing_free);
        if let Err(e) = std::fs::write(&args.out, json) {
            eprintln!("error: writing {}: {e}", args.out);
            return ExitCode::FAILURE;
        }
        eprintln!("report written to {}", args.out);
    }

    if let Mode::Faults { plane, .. } = args.mode {
        if violating_cells > 0 {
            eprintln!("error: {violating_cells} {} cells failed", plane.name());
            return ExitCode::FAILURE;
        }
    }
    if !failing.is_empty() {
        eprintln!("error: {} cells did not complete ok", failing.len());
        return ExitCode::FAILURE;
    }
    if !failed_clauses.is_empty() {
        eprintln!(
            "error: {} recovery contract clauses failed",
            failed_clauses.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Shrinks `cell`'s failure on plane `K`, if the cell carries a
/// schedule there, and prints the minimal reproducer under `title`
/// followed by its violating timeline: the minimized schedule's
/// event-level story, re-run with full observability.
fn print_reproducer<K: FaultPlane>(cell: &Cell, title: &str) {
    let Some(spec) = K::spec_of(&cell.cfg) else {
        return;
    };
    let schedule = Schedule::<K>::generate(spec, cell.cfg.duration);
    match shrink_cell(cell, &schedule) {
        Some(min) => {
            let (seed, intensity) = K::seed_intensity(&spec);
            println!(
                "{title} (seed={seed} intensity={intensity}, {} of {} segments):",
                min.segments.len(),
                schedule.segments.len()
            );
            print!("{}", min.reproducer());
            println!("{}", violating_timeline(cell, &min));
        }
        None => println!("  (failure did not reproduce under re-run)"),
    }
}

/// `--soak SECS`: stream randomized cells until the wall budget
/// expires, then print the merged tallies and per-failure reproducers.
fn run_soak_mode(args: &Args, budget_s: u64) -> ExitCode {
    let opts = SoakOptions {
        budget: Duration::from_secs(budget_s),
        seed: args.soak_seed.unwrap_or(1),
        jobs: args.jobs,
        deadline: args.deadline,
        max_cells: args.soak_cells,
        batch: args.batch,
    };
    eprintln!(
        "soaking for {budget_s}s (seed {}, {} workers)...",
        opts.seed, opts.jobs
    );
    let outcome = run_soak(opts);
    print!("{}", outcome.summary());
    eprintln!(
        "{} soak cells in {} batches, {:.0} simulated seconds in {:.2} s wall ({} failing)",
        outcome.cells,
        outcome.batches,
        outcome.sim_seconds,
        outcome.wall.as_secs_f64(),
        outcome.failures.len()
    );
    if outcome.clean() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} soak cells failed", outcome.failures.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_are_sane() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.mode, Mode::Grid);
        assert_eq!(a.experiments, None);
        assert_eq!(a.soak_seed, None);
        assert_eq!(a.soak_cells, None);
        assert_eq!(a.deadline, None);
        assert!(a.write_json && a.use_cache && !a.list && !a.help);
    }

    #[test]
    fn parses_chaos_options() {
        let a = parse(&["--faults", "chaos:25@7", "--jobs", "2"]).unwrap();
        assert_eq!(
            a.mode,
            Mode::Faults {
                plane: Plane::Chaos,
                cells: 25,
                seed: 7
            }
        );
        assert_eq!(a.jobs, 2);
        // The seed defaults to 1.
        let a = parse(&["--faults", "chaos:3"]).unwrap();
        assert_eq!(
            a.mode,
            Mode::Faults {
                plane: Plane::Chaos,
                cells: 3,
                seed: 1
            }
        );
        assert!(!a.timing_free);
        let a = parse(&["--timing-free"]).unwrap();
        assert!(a.timing_free);
    }

    #[test]
    fn malformed_jobs_is_a_clear_error() {
        let e = parse(&["--jobs", "banana"]).unwrap_err();
        assert_eq!(e, "--jobs expects a positive integer");
        let e = parse(&["--jobs", "0"]).unwrap_err();
        assert_eq!(e, "--jobs must be at least 1");
        let e = parse(&["--jobs"]).unwrap_err();
        assert_eq!(e, "--jobs requires a value");
        let e = parse(&["-j", "-3"]).unwrap_err();
        assert_eq!(e, "--jobs expects a positive integer");
    }

    #[test]
    fn malformed_experiments_is_a_clear_error() {
        let e = parse(&["-e"]).unwrap_err();
        assert_eq!(e, "--experiments requires a value");
        // A bogus id parses fine here; `experiments::select` rejects it
        // in main with its own message.
        let a = parse(&["-e", "nope"]).unwrap();
        assert!(experiments::select(a.experiments.as_deref().unwrap()).is_err());
    }

    #[test]
    fn malformed_chaos_is_a_clear_error() {
        let e = parse(&["--faults", "chaos:zero"]).unwrap_err();
        assert_eq!(e, "--faults expects a positive cell count, got 'zero'");
        let e = parse(&["--faults", "chaos:0"]).unwrap_err();
        assert_eq!(e, "--faults cell count must be at least 1");
        let e = parse(&["--faults", "chaos:5@x"]).unwrap_err();
        assert_eq!(e, "--faults seed must be an unsigned integer, got 'x'");
        let e = parse(&["--faults", "chaos:3@"]).unwrap_err();
        assert_eq!(e, "--faults seed must be an unsigned integer, got ''");
        let e = parse(&["--faults", "chaos"]).unwrap_err();
        assert_eq!(
            e,
            "--faults expects PLANE:N[@SEED], e.g. chaos:25@7, got 'chaos'"
        );
        let e = parse(&["--faults"]).unwrap_err();
        assert_eq!(e, "--faults requires a value");
    }

    #[test]
    fn parses_controller_option() {
        let a = parse(&["--controller", "nada,bbr", "-e", "e22"]).unwrap();
        assert_eq!(a.controller.as_deref(), Some("nada,bbr"));
        let a = parse(&[]).unwrap();
        assert_eq!(a.controller, None);
        let e = parse(&["--controller"]).unwrap_err();
        assert_eq!(e, "--controller requires a value");
        // The list itself is validated by `e22_subset` in main.
        let a = parse(&["--controller", "quic"]).unwrap();
        assert!(experiments::e22_subset(a.controller.as_deref().unwrap()).is_err());
    }

    #[test]
    fn controller_conflicts_with_sweep_modes() {
        for mode in [
            ["--faults", "chaos:5"],
            ["--faults", "corrupt:5"],
            ["--soak", "5"],
            ["--fixture", "panic"],
        ] {
            let e = parse(&["--controller", "nada", mode[0], mode[1]]).unwrap_err();
            assert!(
                e.starts_with("--controller cannot be combined with"),
                "{mode:?}: {e}"
            );
        }
    }

    #[test]
    fn parses_corrupt_options() {
        let a = parse(&["--faults", "corrupt:40@9", "--jobs", "4"]).unwrap();
        assert_eq!(
            a.mode,
            Mode::Faults {
                plane: Plane::Corrupt,
                cells: 40,
                seed: 9
            }
        );
        assert_eq!(a.jobs, 4);
    }

    #[test]
    fn malformed_corrupt_is_a_clear_error() {
        let e = parse(&["--faults", "corrupt:lots"]).unwrap_err();
        assert_eq!(e, "--faults expects a positive cell count, got 'lots'");
        let e = parse(&["--faults", "corrupt:0@3"]).unwrap_err();
        assert_eq!(e, "--faults cell count must be at least 1");
        let e = parse(&["--faults", "corrupt:5@-1"]).unwrap_err();
        assert_eq!(e, "--faults seed must be an unsigned integer, got '-1'");
        let e = parse(&["--faults", "nope:3"]).unwrap_err();
        assert_eq!(e, "--faults plane must be chaos or corrupt, got 'nope'");
    }

    #[test]
    fn overflowing_fault_seed_ranges_are_rejected() {
        let max = u64::MAX.to_string();
        // One cell at the top seed is fine; a second would wrap.
        let a = parse(&["--faults", &format!("chaos:1@{max}")]).unwrap();
        assert_eq!(
            a.mode,
            Mode::Faults {
                plane: Plane::Chaos,
                cells: 1,
                seed: u64::MAX
            }
        );
        let e = parse(&["--faults", &format!("chaos:2@{max}")]).unwrap_err();
        assert_eq!(
            e,
            format!(
                "--faults seeds {max}..={max}+1 overflow u64; the first seed may be at most {}",
                u64::MAX - 1
            )
        );
        let e = parse(&["--faults", &format!("corrupt:{max}@2")]).unwrap_err();
        assert!(e.contains("overflow u64"), "{e}");
        assert!(parse(&["--faults", &format!("corrupt:{max}@1")]).is_ok());
    }

    #[test]
    fn parses_soak_options() {
        let a = parse(&[
            "--soak",
            "30",
            "--soak-seed",
            "9",
            "--soak-cells",
            "256",
            "--deadline",
            "2.5",
        ])
        .unwrap();
        assert_eq!(a.mode, Mode::Soak(30));
        assert_eq!(a.soak_seed, Some(9));
        assert_eq!(a.soak_cells, Some(256));
        assert_eq!(a.deadline, Some(Duration::from_secs_f64(2.5)));
    }

    #[test]
    fn malformed_soak_cells_are_rejected() {
        let e = parse(&["--soak", "30", "--soak-cells", "many"]).unwrap_err();
        assert_eq!(e, "--soak-cells expects a positive cell count");
        let e = parse(&["--soak", "30", "--soak-cells", "0"]).unwrap_err();
        assert_eq!(e, "--soak-cells must be at least 1");
        let e = parse(&["--soak-cells", "256"]).unwrap_err();
        assert_eq!(e, "--soak-cells requires --soak");
    }

    #[test]
    fn malformed_soak_budgets_are_rejected() {
        let e = parse(&["--soak"]).unwrap_err();
        assert_eq!(e, "--soak requires a value");
        let e = parse(&["--soak", "forever"]).unwrap_err();
        assert_eq!(e, "--soak expects a whole, positive number of seconds");
        let e = parse(&["--soak", "-5"]).unwrap_err();
        assert_eq!(e, "--soak expects a whole, positive number of seconds");
        let e = parse(&["--soak", "2.5"]).unwrap_err();
        assert_eq!(e, "--soak expects a whole, positive number of seconds");
        let e = parse(&["--soak", "0"]).unwrap_err();
        assert_eq!(e, "--soak must be at least 1 second");
    }

    #[test]
    fn parses_batch_modes() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.batch, BatchMode::Auto);
        let a = parse(&["--batch", "auto"]).unwrap();
        assert_eq!(a.batch, BatchMode::Auto);
        let a = parse(&["--batch", "1"]).unwrap();
        assert_eq!(a.batch, BatchMode::Fixed(1));
        let a = parse(&["--batch", "16"]).unwrap();
        assert_eq!(a.batch, BatchMode::Fixed(16));
    }

    #[test]
    fn malformed_batch_is_a_clear_error() {
        let e = parse(&["--batch", "lots"]).unwrap_err();
        assert_eq!(e, "--batch expects a positive integer or 'auto'");
        let e = parse(&["--batch", "0"]).unwrap_err();
        assert_eq!(e, "--batch must be at least 1");
        let e = parse(&["--batch"]).unwrap_err();
        assert_eq!(e, "--batch requires a value");
    }

    #[test]
    fn explicit_batch_conflicts_with_deadline() {
        let e = parse(&["--batch", "8", "--deadline", "2"]).unwrap_err();
        assert!(e.starts_with("--batch above 1 cannot be combined with --deadline"));
        // Batch 1 and auto stay compatible: auto resolves to 1 when a
        // deadline is set.
        assert!(parse(&["--batch", "1", "--deadline", "2"]).is_ok());
        assert!(parse(&["--batch", "auto", "--deadline", "2"]).is_ok());
    }

    #[test]
    fn malformed_deadline_is_rejected() {
        let e = parse(&["--deadline", "soon"]).unwrap_err();
        assert_eq!(e, "--deadline expects seconds, e.g. 2.5");
        let e = parse(&["--deadline", "0"]).unwrap_err();
        assert_eq!(e, "--deadline must be a positive number of seconds");
        let e = parse(&["--deadline", "-1"]).unwrap_err();
        assert_eq!(e, "--deadline must be a positive number of seconds");
        let e = parse(&["--deadline", "inf"]).unwrap_err();
        assert_eq!(e, "--deadline must be a positive number of seconds");
        // Finite but beyond what a Duration holds.
        let e = parse(&["--deadline", "1e30"]).unwrap_err();
        assert_eq!(
            e,
            format!("--deadline must be at most {} seconds", u64::MAX)
        );
    }

    #[test]
    fn parses_fixture_kinds() {
        let a = parse(&["--fixture", "panic"]).unwrap();
        assert_eq!(
            a.mode,
            Mode::Fixture(InjectedFault::Panic {
                at: FIXTURE_FAULT_AT
            })
        );
        let a = parse(&["--fixture", "runaway"]).unwrap();
        assert_eq!(
            a.mode,
            Mode::Fixture(InjectedFault::Runaway {
                at: FIXTURE_FAULT_AT
            })
        );
        let e = parse(&["--fixture", "oom"]).unwrap_err();
        assert_eq!(e, "--fixture expects panic or runaway, got 'oom'");
    }

    #[test]
    fn mode_seeds_require_their_mode() {
        let e = parse(&["--soak-seed", "7"]).unwrap_err();
        assert_eq!(e, "--soak-seed requires --soak");
        let e = parse(&["--faults", "chaos:5", "--soak-seed", "7"]).unwrap_err();
        assert_eq!(e, "--soak-seed requires --soak");
        // Fault sweep seeds live inside the --faults spec; the old
        // per-plane flags are gone.
        for gone in ["--chaos", "--chaos-seed", "--corrupt", "--corrupt-seed"] {
            let e = parse(&[gone, "7"]).unwrap_err();
            assert!(e.starts_with(&format!("unknown argument '{gone}'")), "{e}");
        }
    }

    #[test]
    fn conflicting_modes_are_rejected() {
        const ONE_MODE: &str =
            "--faults, --soak and --fixture are mutually exclusive (one mode per run)";
        for words in [
            &["--faults", "chaos:5", "--soak", "10"][..],
            &["--soak", "10", "--fixture", "panic"],
            &["--faults", "chaos:5", "--faults", "corrupt:5"],
            &["--faults", "chaos:5", "--faults", "chaos:6"],
            &["--fixture", "panic", "--fixture", "runaway"],
        ] {
            assert_eq!(parse(words).unwrap_err(), ONE_MODE, "{words:?}");
        }
        // Repeating the same mode is not a conflict.
        assert!(parse(&["--soak", "10", "--soak", "10"]).is_ok());
        let e = parse(&["--faults", "chaos:5", "-e", "e1"]).unwrap_err();
        assert_eq!(e, "--experiments cannot be combined with --faults");
        let e = parse(&["--soak", "10", "-e", "e1"]).unwrap_err();
        assert_eq!(e, "--experiments cannot be combined with --soak");
        let e = parse(&["--fixture", "panic", "-e", "e1"]).unwrap_err();
        assert_eq!(e, "--experiments cannot be combined with --fixture");
        let e = parse(&["--soak", "10", "--obs", "full"]).unwrap_err();
        assert_eq!(
            e,
            "--soak cannot be combined with --obs (soak cells are unobserved)"
        );
    }

    #[test]
    fn list_is_rejected_with_soak() {
        let e = parse(&["--soak", "1", "--list"]).unwrap_err();
        assert_eq!(
            e,
            "--soak cannot be combined with --list (a soak has no fixed grid)"
        );
        // Every fixed-grid mode still lists.
        assert!(parse(&["--faults", "corrupt:4", "--list"]).is_ok());
        assert!(parse(&["--fixture", "panic", "--list"]).is_ok());
    }

    #[test]
    fn parses_obs_options() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.obs, ObsMode::Off);
        assert_eq!(a.obs_out, "OBS_timeline.jsonl");
        let a = parse(&["--obs", "counters"]).unwrap();
        assert_eq!(a.obs, ObsMode::Counters);
        let a = parse(&["--obs", "full", "--obs-out", "t.jsonl"]).unwrap();
        assert_eq!(a.obs, ObsMode::Full);
        assert_eq!(a.obs_out, "t.jsonl");
    }

    #[test]
    fn malformed_obs_is_a_clear_error() {
        let e = parse(&["--obs", "loud"]).unwrap_err();
        assert_eq!(e, "--obs expects off, counters or full, got 'loud'");
        let e = parse(&["--obs"]).unwrap_err();
        assert_eq!(e, "--obs requires a value");
        let e = parse(&["--obs-out"]).unwrap_err();
        assert_eq!(e, "--obs-out requires a value");
    }

    #[test]
    fn unknown_arguments_are_rejected_with_usage() {
        let e = parse(&["--frobnicate"]).unwrap_err();
        assert!(e.starts_with("unknown argument '--frobnicate'"));
        assert!(e.contains("USAGE"));
    }

    #[test]
    fn help_is_a_flag_not_an_exit() {
        let a = parse(&["--help"]).unwrap();
        assert!(a.help);
        let a = parse(&["-h"]).unwrap();
        assert!(a.help);
    }

    const FLAGS: [&str; 22] = [
        "--jobs",
        "-j",
        "--batch",
        "--experiments",
        "-e",
        "--controller",
        "--faults",
        "--soak",
        "--soak-seed",
        "--soak-cells",
        "--deadline",
        "--fixture",
        "--obs",
        "--obs-out",
        "--out",
        "-o",
        "--no-json",
        "--timing-free",
        "--no-cache",
        "--list",
        "--help",
        "-h",
    ];

    const VALUES: [&str; 28] = [
        "1e30",
        "inf",
        "NaN",
        "-0",
        "18446744073709551615",
        "chaos:0",
        "corrupt:3@",
        "chaos:1@18446744073709551615",
        "chaos:2@18446744073709551615",
        ":",
        "",
        "débit→帯域",
        "0",
        "1",
        "2.5",
        "-1",
        "1e-300",
        "auto",
        "e1,e22",
        "all",
        "nada,bbr",
        "full",
        "panic",
        "chaos:25@7",
        "corrupt:12@3",
        "corrupt:18446744073709551615",
        "@",
        "--faults",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig {
            cases: 4096,
            ..proptest::ProptestConfig::default()
        })]

        /// Any argument vector built from the flag vocabulary and an
        /// adversarial value pool parses to `Ok` or `Err`, never a panic.
        #[test]
        fn no_argument_vector_panics(
            words in proptest::collection::vec((0..FLAGS.len(), 0..VALUES.len(), 0..4u8), 1..4)
        ) {
            let mut argv = Vec::new();
            for (flag, value, shape) in words {
                argv.push(FLAGS[flag]);
                // Mostly flag-value pairs; sometimes a bare flag, or a
                // pair followed by a stray value.
                match shape {
                    0 => {}
                    1 => {
                        argv.push(VALUES[value]);
                        argv.push(VALUES[(value + 1) % VALUES.len()]);
                    }
                    _ => argv.push(VALUES[value]),
                }
            }
            let parsed = std::panic::catch_unwind(|| parse(&argv).is_ok());
            proptest::prop_assert!(parsed.is_ok(), "parse_args panicked on {argv:?}");
        }
    }
}
