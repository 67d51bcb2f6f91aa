//! Smoke tests of the end-to-end run: every workload at 500 articles and
//! one repetition (through [`Params::smoke`] and [`Reps::ONE`] — there is
//! no CLI knob), plus the checks that keep `BENCHMARK.json` and this
//! package one thing. The traced run's smoke test is in its binary.

use crate::cli::{parse_args, work_root, Args};
use crate::end_to_end;
use crate::inputs::{Inputs, Params};
use crate::spec::Spec;
use crate::testkit::assert_reports;
use crate::workload::{
    dir_bytes, fresh_dir, hit_boundary_rule, thread_rule, Reps, Workload, WORKLOADS,
};
use ncexplorer::core::{NcExplorer, Parallelism};
use std::sync::Mutex;

/// The heavy tests take turns: each spawns load generators sized to the
/// machine, and two at once would break the thread rule they check.
static MACHINE: Mutex<()> = Mutex::new(());

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// What was printed equals what `BENCHMARK.json` lists: names, units and
/// (every workload reports every metric) the reporting workloads.
#[test]
fn every_workload_reports_exactly_the_listed_metrics() {
    let _turn = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let spec = Spec::load();
    assert_eq!(
        spec.workloads,
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>(),
        "BENCHMARK.json and WORKLOADS list the same workloads"
    );
    for wl in &WORKLOADS {
        let args = Args {
            workload: wl.name.to_string(),
            seed: 7,
            seconds: 1.0,
            trace: false,
        };
        let once = Workload {
            reps: Reps::ONE,
            ..*wl
        };
        let work = fresh_dir(&work_root().join(format!("test-{}", wl.name)));
        let (text, correct) =
            end_to_end(&args, &Params::smoke(), &spec, &once, &work).expect("run starts");
        let _ = std::fs::remove_dir_all(&work);
        assert!(correct, "{} is not correct:\n{text}", wl.name);
        assert_reports(&text, wl.name, &spec.end_to_end, true);
    }
}

#[test]
fn benchmark_json_keeps_the_contract() {
    let spec = Spec::load();
    assert!((2..=8).contains(&spec.workloads.len()));
    assert!((1..=16).contains(&spec.end_to_end.len()));
    assert!((1..=128).contains(&spec.per_layer.len()));
    let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(valid_unit(&m.unit), "unit `{}`", m.unit);
        names.push(&m.name);
    }
    for name in &names {
        assert!(valid_name(name), "name `{name}`");
    }
    let distinct: std::collections::BTreeSet<&&str> = names.iter().collect();
    assert_eq!(distinct.len(), names.len(), "a name is used twice");
    let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
    assert_eq!(setup.map(|m| m.unit.as_str()), Some("s"));
}

#[test]
fn thread_rule_and_hit_boundary_guard_fire() {
    assert!(thread_rule(1, 2, 2).is_ok());
    assert!(thread_rule(2, 1, 2).is_ok());
    // Two sessions over a pool two wide: three threads on two cores.
    assert!(thread_rule(2, 2, 2).unwrap_err().contains("thread rule"));
    assert!(thread_rule(2, 1, 1).is_err());

    assert!(hit_boundary_rule(0.05).is_ok());
    assert!(hit_boundary_rule(0.75).is_ok());
    assert!(hit_boundary_rule(0.58).unwrap_err().contains("p50"));
    assert!(hit_boundary_rule(0.88).unwrap_err().contains("p95"));
    assert!(hit_boundary_rule(1.0).is_err());

    // A workload that needs more threads than the machine has cores is
    // refused before anything runs.
    let rigged = Workload {
        explore_par: Parallelism::Fixed(crate::workload::nproc() + 1),
        ..WORKLOADS[1]
    };
    let args = Args {
        workload: rigged.name.into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
    };
    let refused = end_to_end(
        &args,
        &Params::smoke(),
        &Spec::load(),
        &rigged,
        &work_root(),
    );
    assert!(refused.unwrap_err().contains("thread rule"));
    assert!(Workload::by_name("no-such-workload").is_none());
}

#[test]
fn every_phase_gets_its_repetitions() {
    for cycles in 1..=15 {
        for r in 1..=cycles {
            let ran: Vec<usize> = (0..cycles).filter(|&i| Reps::due(r, i, cycles)).collect();
            assert_eq!(
                ran.len(),
                r,
                "{r} repetitions over {cycles} cycles: {ran:?}"
            );
            assert_eq!(ran[0], 0);
        }
    }
}

#[test]
fn arguments_are_checked() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&argv(
        "--workload explore-solo --seed 9 --seconds 20 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        ok,
        Args {
            workload: "explore-solo".into(),
            seed: 9,
            seconds: 20.0,
            trace: true
        }
    );
    for bad in [
        "--workload explore-solo --seed 9 --seconds 20",
        "--workload explore-solo --seed x --seconds 20 --trace 0",
        "--workload explore-solo --seed 9 --seconds 0 --trace 0",
        "--workload explore-solo --seed 9 --seconds 20 --trace 2",
        "--workload explore-solo --seed 9 --seconds 20 --trace 0 --articles 5",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}

/// Same seed, same inputs and same exact counts; another seed, another
/// corpus.
#[test]
fn inputs_and_counts_repeat_per_seed() {
    let _turn = MACHINE.lock().unwrap_or_else(|e| e.into_inner());
    let params = Params::smoke();
    let facts = |seed: u64| {
        let inputs = Inputs::generate(seed, &params);
        let engine = NcExplorer::build(
            inputs.kg.clone(),
            inputs.base.clone(),
            Workload::engine_config(Parallelism::Auto),
        );
        let dir = fresh_dir(&work_root().join(format!("test-repeat-{seed}")));
        engine.save(&dir).expect("snapshot saves");
        let bytes = dir_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (
            inputs.fingerprint,
            bytes,
            engine.index().num_postings(),
            engine.diagnostics().walk_stats.walks,
        )
    };
    let first = facts(11);
    assert_eq!(first, facts(11), "one seed, two different runs");
    assert_ne!(first.0, facts(12).0, "two seeds, one corpus");
}
