//! `MetricsObserver` records the wall time each finish event carries, so
//! one observer shared by concurrently running sessions (the daemon's
//! scheduler lanes) gets one correct sample per stage and round. This is
//! its own test binary: nothing else here writes the global histograms, so
//! exact count and sum deltas hold.

use nada_core::{MetricsObserver, SearchEvent, SearchObserver, Stage};
use std::time::Duration;

#[test]
fn interleaved_stages_and_rounds_record_their_stamped_durations() {
    let obs = MetricsObserver::new();
    let stage = nada_obs::latency_histogram("pipeline_stage_probe_duration_ns");
    let round = nada_obs::latency_histogram("pipeline_round_duration_ns");
    let (a, b) = (Duration::from_millis(3), Duration::from_micros(1500));

    // Two lanes' probe stages overlap: A starts, B starts, A finishes,
    // B finishes.
    let (count0, sum0) = (stage.count(), stage.sum());
    for _ in 0..2 {
        obs.on_event(&SearchEvent::StageStarted {
            stage: Stage::Probe,
        });
    }
    for elapsed in [a, b] {
        obs.on_event(&SearchEvent::StageFinished {
            stage: Stage::Probe,
            elapsed,
        });
    }
    assert_eq!(stage.count(), count0 + 2);
    assert_eq!(stage.sum(), sum0 + (a + b).as_nanos() as u64);

    // Two drivers' rounds overlap the same way.
    let (count0, sum0) = (round.count(), round.sum());
    for r in 0..2 {
        obs.on_event(&SearchEvent::RoundStarted {
            round: r,
            rounds: 2,
        });
    }
    for (r, elapsed) in [a, b].into_iter().enumerate() {
        obs.on_event(&SearchEvent::RoundFinished {
            round: r,
            best_score: 0.0,
            best_so_far: 0.0,
            elapsed,
        });
    }
    assert_eq!(round.count(), count0 + 2);
    assert_eq!(round.sum(), sum0 + (a + b).as_nanos() as u64);
}
