//! Full service loop over a real loopback socket: bind, serve, submit
//! both workloads, poll, fetch results, exercise the error paths, and
//! shut down gracefully.

use std::fs;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use nada_core::jobspec::JobSpec;
use nada_serve::{read_frame, write_frame, Client, ClientError, Daemon, Response};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nada-serve-e2e-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn daemon_serves_submit_poll_result_cancel_and_shutdown() {
    let root = scratch("loop");
    let daemon = Daemon::bind("127.0.0.1:0", root.clone()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let server = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("daemon answers ping");

    // One job per workload, one round each (spec defaults: tiny/mock).
    let abr = client.submit(JobSpec::new("abr", "FCC", 11)).unwrap();
    let cc = client.submit(JobSpec::new("cc", "FCC", 12)).unwrap();
    assert_ne!(abr, cc);

    // Error paths while real jobs run: unknown ids, bad specs, early
    // result fetches.
    match client.status(999) {
        Err(ClientError::Daemon(msg)) => assert!(msg.contains("no such job"), "{msg}"),
        other => panic!("expected daemon error, got {other:?}"),
    }
    match client.submit(JobSpec::new("tetris", "FCC", 1)) {
        Err(ClientError::Daemon(msg)) => assert!(msg.contains("unknown workload"), "{msg}"),
        other => panic!("expected daemon error, got {other:?}"),
    }
    let mut zero_rounds = JobSpec::new("abr", "FCC", 1);
    zero_rounds.rounds = 0;
    match client.submit(zero_rounds) {
        Err(ClientError::Daemon(msg)) => assert!(msg.contains("at least one round"), "{msg}"),
        other => panic!("expected daemon error, got {other:?}"),
    }

    // A second connection works concurrently with the first.
    let mut other = Client::connect(addr).unwrap();
    other.ping().expect("second connection answers ping");

    for id in [abr, cc] {
        let status = client.wait_terminal(id, Duration::from_secs(300)).unwrap();
        assert_eq!(status.state, "done", "job {id}: {:?}", status.error);
        let result = client.result(id).unwrap();
        assert_eq!(result.rounds.len(), 1);
        assert!(!result.hall.is_empty(), "a finished search ranks winners");
        assert!(result.cache_misses > 0, "a cold job evaluates candidates");
    }

    // Terminal jobs refuse cancellation; fetching them again still works.
    match client.cancel(abr) {
        Err(ClientError::Daemon(msg)) => assert!(msg.contains("already done"), "{msg}"),
        other => panic!("expected daemon error, got {other:?}"),
    }

    client.shutdown().expect("daemon acknowledges shutdown");
    server
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");

    // The spool still holds both finished jobs for the next process.
    let spooled = nada_serve::Spool::open(root.clone())
        .unwrap()
        .scan()
        .unwrap();
    assert_eq!(spooled.len(), 2);
    assert!(spooled.iter().all(|j| j.result.is_some()));
    let _ = fs::remove_dir_all(root);
}

/// A frame of a million `[` once overflowed the request decoder's stack
/// and aborted the whole daemon. It must get the same error reply as any
/// undecodable request, and the daemon must keep answering.
#[test]
fn deeply_nested_frame_is_refused_and_the_daemon_keeps_serving() {
    let root = scratch("deep");
    let daemon = Daemon::bind("127.0.0.1:0", root.clone()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let server = std::thread::spawn(move || daemon.run());

    let mut raw = TcpStream::connect(addr).unwrap();
    write_frame(&mut raw, &"[".repeat(1_000_000)).unwrap();
    let reply = read_frame(&mut raw).unwrap().expect("the daemon replies");
    match Response::decode(&reply).unwrap() {
        Response::Error { message } => {
            assert!(message.contains("bad request"), "{message}");
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected an error response, got {other:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    client.ping().expect("daemon still answers ping");
    client.shutdown().expect("daemon acknowledges shutdown");
    server
        .join()
        .expect("daemon thread joins")
        .expect("daemon exits cleanly");
    let _ = fs::remove_dir_all(root);
}
