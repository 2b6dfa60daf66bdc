//! Integration tests for the staged `SearchSession` API: budget
//! truncation and runtime workload selection.

use nada::core::{
    Budget, CollectingObserver, Nada, NadaConfig, RunScale, SearchEvent, SearchSession,
    WorkloadRegistry,
};
use nada::llm::{DesignKind, MockLlm};
use nada::traces::dataset::DatasetKind;

fn tiny(kind: DatasetKind, seed: u64) -> Nada {
    Nada::new(NadaConfig::new(kind, RunScale::Tiny, seed))
}

/// Budget truncation is graceful: the search still ranks what it trained
/// and reports what it skipped.
#[test]
fn budget_truncated_search_still_yields_a_ranked_outcome() {
    let nada = tiny(DatasetKind::Fcc, 43);
    let mut llm = MockLlm::perfect(43);
    let collector = CollectingObserver::new();
    let mut session = SearchSession::new(&nada, DesignKind::State)
        .with_budget(Budget::unlimited().with_max_epochs(1));
    session.observe(&collector);
    let outcome = session.run(&mut llm).expect("budgeted run completes");

    assert!(!outcome.ranked.is_empty());
    assert!(outcome.best.test_score.is_finite());
    assert!(outcome.stats.skipped > 0);
    assert!(collector.count(|e| matches!(e, SearchEvent::BudgetExhausted { .. })) >= 1);
    // The spend respects causality: probes ran (first wave always does),
    // and nothing screened beyond the budget.
    assert!(outcome.stats.epochs_spent > 0);
}

/// A candidate budget caps the LLM batch itself (the generate hook), and
/// the search still completes end-to-end.
#[test]
fn candidate_budget_flows_through_generation() {
    let nada = tiny(DatasetKind::Fcc, 44);
    let mut llm = MockLlm::perfect(44);
    let mut session = SearchSession::new(&nada, DesignKind::State)
        .with_budget(Budget::unlimited().with_max_candidates(4));
    let outcome = session.run(&mut llm).expect("capped run completes");
    assert_eq!(outcome.precheck.total, 4);
    assert!(outcome.best.test_score.is_finite());
}

/// Both built-in workloads round-trip through the registry and produce a
/// working search — the seam the bench harnesses' `--workload` flag uses.
#[test]
fn workload_registry_round_trips_both_workloads() {
    let registry = WorkloadRegistry::builtin();
    assert_eq!(registry.names(), vec!["abr", "cc"]);

    for name in ["abr", "cc"] {
        let workload = registry
            .build(name, DatasetKind::Fcc)
            .unwrap_or_else(|| panic!("`{name}` must be registered"));
        assert_eq!(workload.name(), name);
        let nada = Nada::with_workload(
            NadaConfig::new(DatasetKind::Fcc, RunScale::Tiny, 45),
            workload,
        );
        let mut llm = MockLlm::perfect(45);
        let outcome = nada.run_state_search(&mut llm);
        assert!(outcome.best.test_score.is_finite(), "{name}");
        assert!(!outcome.ranked.is_empty(), "{name}");
    }
}

/// `--workload cc` parses and resolves to the CC workload through the same
/// path the harness binaries (including `run_all`) use.
#[test]
fn workload_cli_flag_selects_cc_through_the_registry() {
    let opts = nada_bench::cli::parse_args(
        ["bin", "--seed", "46", "--workload", "cc"]
            .iter()
            .map(|s| s.to_string()),
    );
    assert_eq!(opts.workload, "cc");
    let mut opts = opts;
    opts.scale = RunScale::Tiny;
    let nada = nada_bench::experiments::common::nada_for(DatasetKind::Fcc, &opts);
    assert_eq!(nada.workload().name(), "cc");
    // And the shared search funnel drives it end-to-end.
    let outcome = nada_bench::experiments::common::search_states(
        DatasetKind::Fcc,
        nada_bench::experiments::common::Model::Gpt4,
        &opts,
    );
    assert!(outcome.best.test_score.is_finite());
    assert!(outcome.best.code.contains("cwnd") || outcome.best.code.contains("rtt"));
}
