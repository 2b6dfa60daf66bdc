//! The staged `SearchSession` API: observe, budget, run stage by stage.
//!
//! ```sh
//! cargo run --release --example session_stages
//! ```
//!
//! Runs the same search as `quickstart`, but stage by stage through a
//! `SearchSession`: a live observer narrates progress and each stage's
//! wall time, and an epoch budget keeps the run small. (Interrupted
//! searches restart at a round boundary from a `SearchDriver`
//! checkpoint; see the `iterate` harness.)

use nada::core::{
    Budget, FnObserver, Nada, NadaConfig, RunScale, SearchEvent, SearchSession, WorkloadRegistry,
};
use nada::llm::{DesignKind, MockLlm};
use nada::traces::dataset::DatasetKind;

fn main() {
    // Workloads are picked at runtime by name — this is what the bench
    // harnesses' `--workload abr|cc` flag resolves through.
    let workload = WorkloadRegistry::builtin()
        .build("abr", DatasetKind::Starlink)
        .expect("abr is built in");
    let config = NadaConfig::new(DatasetKind::Starlink, RunScale::Tiny, 7);
    let nada = Nada::with_workload(config, workload);
    let mut llm = MockLlm::gpt4(7);

    // Stage by stage, with a narrator and a training-epoch allowance.
    let mut session = SearchSession::new(&nada, DesignKind::State)
        .with_budget(Budget::unlimited().with_max_epochs(400));
    session.observe(FnObserver(|e: &SearchEvent| match e {
        SearchEvent::StageStarted { stage } => println!("-> {}", stage.name()),
        SearchEvent::StageFinished { stage, elapsed } => {
            println!("   {} took {elapsed:.2?}", stage.name())
        }
        SearchEvent::PoolGenerated { n } => println!("   {n} candidates"),
        SearchEvent::BudgetExhausted { stage, skipped, .. } => {
            println!("   budget ran out in {} ({skipped} skipped)", stage.name())
        }
        _ => {}
    }));

    let n = session.generate(&mut llm).expect("fresh session");
    println!("   generated {n}");
    let stats = session.precheck().expect("after generate");
    println!(
        "   {}/{} compilable, {} normalized",
        stats.compilable, stats.total, stats.normalized
    );
    session.probe().expect("after precheck");
    session.screen().expect("after probe");
    let outcome = session.finalize().expect("after screen");

    println!(
        "\noriginal {:.3} -> best {:.3} ({:+.1}%), {} designs ranked, {} epochs spent",
        outcome.original.test_score,
        outcome.best.test_score,
        outcome.improvement_pct(),
        outcome.ranked.len(),
        outcome.stats.epochs_spent
    );
}
