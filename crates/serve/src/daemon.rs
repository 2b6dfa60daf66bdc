//! The TCP daemon: accept loop, per-connection handlers, graceful
//! shutdown.
//!
//! * The listener runs non-blocking and polls a stop flag, so a wire-level
//!   `Shutdown` request closes the accept loop promptly without signals
//!   (pure `std` has no signal handling; operators get graceful shutdown
//!   through the protocol instead).
//! * Each connection gets a handler thread with a short read timeout;
//!   idle timeouts poll the same stop flag, so handlers drain quickly
//!   once shutdown starts.
//! * Shutdown order: stop accepting → handlers finish → scheduler drains
//!   (every lane finishes and checkpoints its current round) →
//!   [`Daemon::run`] returns `Ok(())` and the bin exits 0. Queued work
//!   stays spooled for the next process.

use nada_core::feedback::RoundSummary;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::proto::{JobStatus, ProgressFrame, Request, Response, StatsReport};
use crate::scheduler::Scheduler;
use crate::spool::Spool;
use crate::wire::{read_frame, write_frame, WireError};

/// Gauges the daemon refreshes on every `Stats` request: they describe
/// point-in-time state (uptime, jobs per lifecycle stage), so scrape
/// time is the honest moment to sample them.
struct DaemonMetrics {
    uptime: Arc<nada_obs::Gauge>,
    queued: Arc<nada_obs::Gauge>,
    running: Arc<nada_obs::Gauge>,
    done: Arc<nada_obs::Gauge>,
    failed: Arc<nada_obs::Gauge>,
    cancelled: Arc<nada_obs::Gauge>,
}

fn daemon_metrics() -> &'static DaemonMetrics {
    static METRICS: OnceLock<DaemonMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DaemonMetrics {
        uptime: nada_obs::gauge("serve_uptime_seconds"),
        queued: nada_obs::gauge("serve_jobs_queued"),
        running: nada_obs::gauge("serve_jobs_running"),
        done: nada_obs::gauge("serve_jobs_done"),
        failed: nada_obs::gauge("serve_jobs_failed"),
        cancelled: nada_obs::gauge("serve_jobs_cancelled"),
    })
}

/// A bound, not-yet-running search daemon.
pub struct Daemon {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    stop: Arc<AtomicBool>,
    started: Instant,
}

impl Daemon {
    /// Binds `addr` (e.g. `127.0.0.1:0`) over `spool_root`, with the
    /// environment-derived lane count ([`nada_exec::scheduler_lanes`]).
    pub fn bind(
        addr: impl ToSocketAddrs,
        spool_root: impl Into<std::path::PathBuf>,
    ) -> io::Result<Self> {
        Self::bind_with_lanes(addr, spool_root, nada_exec::scheduler_lanes())
    }

    /// [`Daemon::bind`] with an explicit lane count (`0` = paused
    /// scheduler; jobs queue but nothing executes).
    pub fn bind_with_lanes(
        addr: impl ToSocketAddrs,
        spool_root: impl Into<std::path::PathBuf>,
        lanes: usize,
    ) -> io::Result<Self> {
        Self::bind_with_registry(
            addr,
            spool_root,
            lanes,
            Arc::new(nada_core::registry::WorkloadRegistry::builtin()),
        )
    }

    /// [`Daemon::bind_with_lanes`] against a caller-supplied workload
    /// registry, so workloads registered beyond the builtin set can be
    /// submitted over the wire.
    pub fn bind_with_registry(
        addr: impl ToSocketAddrs,
        spool_root: impl Into<std::path::PathBuf>,
        lanes: usize,
        registry: Arc<nada_core::registry::WorkloadRegistry>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let scheduler = Arc::new(Scheduler::with_registry(
            Spool::open(spool_root)?,
            lanes,
            registry,
        )?);
        Ok(Self {
            listener,
            scheduler,
            stop: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
        })
    }

    /// The actually-bound address (resolves `:0` port requests).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The scheduler behind this daemon (tests and benches poke it
    /// directly).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.scheduler
    }

    /// Serves until a `Shutdown` request arrives, then drains the
    /// scheduler and returns. Every round in flight at shutdown is
    /// finished and checkpointed first.
    pub fn run(self) -> io::Result<()> {
        let mut handlers = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let scheduler = self.scheduler.clone();
                    let stop = self.stop.clone();
                    let started = self.started;
                    handlers.push(std::thread::spawn(move || {
                        let _ = serve_connection(stream, &scheduler, &stop, started);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        self.scheduler.shutdown();
        Ok(())
    }
}

fn serve_connection(
    mut stream: TcpStream,
    scheduler: &Scheduler,
    stop: &AtomicBool,
    started: Instant,
) -> io::Result<()> {
    // Replies are small and latency-bound: without this, Nagle's algorithm
    // holds each reply until the client's delayed ACK (~40 ms).
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    loop {
        match read_frame(&mut stream) {
            Ok(Some(payload)) => {
                let request = match Request::decode(&payload) {
                    Ok(request) => request,
                    Err(e) => {
                        let response = Response::Error {
                            message: format!("bad request: {e}"),
                        };
                        if write_frame(&mut stream, &response.encode()).is_err() {
                            return Ok(());
                        }
                        continue;
                    }
                };
                // Subscribe is the one streaming request: many responses
                // for one frame, ending with a terminal `Status`.
                if let Request::Subscribe { id } = request {
                    if stream_progress(&mut stream, scheduler, stop, id).is_err() {
                        return Ok(());
                    }
                    continue;
                }
                let response = handle(request, scheduler, stop, started);
                let shutting_down = matches!(response, Response::ShuttingDown);
                if write_frame(&mut stream, &response.encode()).is_err() || shutting_down {
                    return Ok(());
                }
            }
            // Peer hung up cleanly.
            Ok(None) => return Ok(()),
            // Idle: poll the stop flag and keep waiting.
            Err(WireError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(_) => return Ok(()),
        }
    }
}

/// Streams one [`Response::Progress`] frame per completed round of job
/// `id` — already-finished rounds replay immediately, then new rounds
/// arrive as the scheduler's condvar announces them (no polling). Ends
/// with a [`Response::Status`] once the job is terminal, or early (with
/// the current status) when the daemon starts shutting down.
fn stream_progress(
    stream: &mut TcpStream,
    scheduler: &Scheduler,
    stop: &AtomicBool,
    id: u64,
) -> Result<(), WireError> {
    let mut seen = 0usize;
    loop {
        let Some((status, summaries)) =
            scheduler.wait_progress(id, seen, Duration::from_millis(200))
        else {
            let response = Response::Error {
                message: format!("no such job {id}"),
            };
            return write_frame(stream, &response.encode());
        };
        // One frame per summary index, even when several rounds landed
        // between wakeups — fast rounds never coalesce.
        while seen < summaries.len() {
            let frame = progress_frame(id, &status, &summaries, seen);
            write_frame(stream, &Response::Progress(frame).encode())?;
            seen += 1;
        }
        let terminal = matches!(status.state.as_str(), "done" | "failed" | "cancelled");
        if terminal || stop.load(Ordering::SeqCst) {
            return write_frame(stream, &Response::Status(status).encode());
        }
    }
}

fn progress_frame(
    id: u64,
    status: &JobStatus,
    summaries: &[RoundSummary],
    index: usize,
) -> ProgressFrame {
    let summary = &summaries[index];
    ProgressFrame {
        id,
        round: summary.round,
        rounds: status.rounds,
        best_score: summary.best_score,
        best_so_far: summary.best_so_far,
        // Summaries carry per-round stats; the frame reports the
        // cumulative spend through this round.
        epochs_spent: summaries[..=index]
            .iter()
            .map(|s| s.stats.epochs_spent)
            .sum(),
        cache_hits: status.cache_hits,
        cache_misses: status.cache_misses,
    }
}

fn handle(
    request: Request,
    scheduler: &Scheduler,
    stop: &AtomicBool,
    started: Instant,
) -> Response {
    match request {
        Request::Submit(spec) => match scheduler.submit(spec) {
            Ok(id) => Response::Submitted { id },
            Err(message) => Response::Error { message },
        },
        Request::Status { id } => match scheduler.status(id) {
            Some(status) => Response::Status(status),
            None => Response::Error {
                message: format!("no such job {id}"),
            },
        },
        Request::Result { id } => match scheduler.result(id) {
            Some(result) => Response::Result {
                id,
                result: Box::new((*result).clone()),
            },
            None => match scheduler.status(id) {
                Some(status) => Response::Error {
                    message: format!("job {id} is {}, not done", status.state),
                },
                None => Response::Error {
                    message: format!("no such job {id}"),
                },
            },
        },
        Request::Cancel { id } => match scheduler.cancel(id) {
            Ok(()) => Response::Cancelled { id },
            Err(message) => Response::Error { message },
        },
        Request::Stats => {
            let metrics = daemon_metrics();
            let (queued, running, done, failed, cancelled) = scheduler.job_counts();
            metrics.queued.set(queued as i64);
            metrics.running.set(running as i64);
            metrics.done.set(done as i64);
            metrics.failed.set(failed as i64);
            metrics.cancelled.set(cancelled as i64);
            let uptime_secs = started.elapsed().as_secs();
            metrics.uptime.set(uptime_secs as i64);
            Response::Stats(StatsReport::from_snapshot(
                uptime_secs,
                &nada_obs::MetricsRegistry::global().snapshot(),
            ))
        }
        // Streamed before `handle` is reached; answering the first frame
        // here keeps the match exhaustive if that ever changes.
        Request::Subscribe { id } => match scheduler.status(id) {
            Some(status) => Response::Status(status),
            None => Response::Error {
                message: format!("no such job {id}"),
            },
        },
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Response::ShuttingDown
        }
        Request::Ping => Response::Pong,
    }
}
