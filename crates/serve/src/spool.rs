//! The on-disk spool: one directory, three files per job.
//!
//! ```text
//! spool/
//!   job-000001.spec    the JobSpec (written once at submit)
//!   job-000001.ckpt    latest DriverCheckpoint (rewritten every round)
//!   job-000001.result  the JobResult (written once at completion;
//!                      the .ckpt is removed alongside)
//! ```
//!
//! Every write goes through write-then-rename, so a `kill -9` at any
//! instant leaves each file either absent or fully valid — never torn.
//! [`Spool::scan`] is the recovery path: specs without results re-enqueue
//! (resuming from the checkpoint when one exists), results load as
//! finished jobs, and the next job id continues past the highest seen.

use nada_core::feedback::DriverCheckpoint;
use nada_core::jobspec::JobSpec;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::proto::JobResult;

/// A job reconstructed from spool files during recovery.
#[derive(Debug)]
pub struct SpooledJob {
    pub id: u64,
    pub spec: JobSpec,
    /// The last round boundary the job reached, if any.
    pub checkpoint: Option<DriverCheckpoint>,
    /// Present iff the job finished before the restart.
    pub result: Option<JobResult>,
}

/// Handle on one spool directory.
#[derive(Debug, Clone)]
pub struct Spool {
    root: PathBuf,
}

impl Spool {
    /// Opens (creating if needed) a spool directory.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, id: u64, ext: &str) -> PathBuf {
        self.root.join(format!("job-{id:06}.{ext}"))
    }

    /// Atomic write: temp file in the same directory, then rename.
    fn write_atomic(&self, path: &Path, text: &str) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, text)?;
        fs::rename(&tmp, path)
    }

    pub fn write_spec(&self, id: u64, spec: &JobSpec) -> io::Result<()> {
        self.write_atomic(&self.path(id, "spec"), &serde::text::to_string(spec))
    }

    pub fn write_checkpoint(&self, id: u64, ckpt: &DriverCheckpoint) -> io::Result<()> {
        self.write_atomic(&self.path(id, "ckpt"), &ckpt.encode())
    }

    pub fn write_result(&self, id: u64, result: &JobResult) -> io::Result<()> {
        self.write_atomic(&self.path(id, "result"), &serde::text::to_string(result))?;
        // The checkpoint is subsumed by the result; drop it so recovery
        // never resumes a finished job.
        match fs::remove_file(self.path(id, "ckpt")) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Removes every file belonging to `id` (cancellation).
    pub fn remove_job(&self, id: u64) -> io::Result<()> {
        for ext in ["spec", "ckpt", "result"] {
            match fs::remove_file(self.path(id, ext)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reconstructs every job on disk, id order. Corrupt files fail the
    /// scan loudly — silently skipping a tenant's job would be worse than
    /// refusing to start.
    pub fn scan(&self) -> io::Result<Vec<SpooledJob>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix("job-")
                .and_then(|rest| rest.strip_suffix(".spec"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        let mut jobs = Vec::with_capacity(ids.len());
        for id in ids {
            let decode_err =
                |what: &str, e: String| io::Error::other(format!("job {id} {what}: {e}"));
            let spec: JobSpec = serde::text::from_str(&fs::read_to_string(self.path(id, "spec"))?)
                .map_err(|e| decode_err("spec", e.to_string()))?;
            let checkpoint = match fs::read_to_string(self.path(id, "ckpt")) {
                Ok(text) => Some(
                    DriverCheckpoint::decode(&text)
                        .map_err(|e| decode_err("checkpoint", e.to_string()))?,
                ),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            };
            let result = match fs::read_to_string(self.path(id, "result")) {
                Ok(text) => Some(
                    serde::text::from_str::<JobResult>(&text)
                        .map_err(|e| decode_err("result", e.to_string()))?,
                ),
                Err(e) if e.kind() == io::ErrorKind::NotFound => None,
                Err(e) => return Err(e),
            };
            jobs.push(SpooledJob {
                id,
                spec,
                checkpoint,
                result,
            });
        }
        Ok(jobs)
    }

    /// The next unused job id (1-based; continues past everything spooled).
    pub fn next_id(&self) -> io::Result<u64> {
        Ok(self.scan()?.iter().map(|j| j.id).max().unwrap_or(0) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nada_core::pipeline::SearchStats;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nada-spool-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn scan_reconstructs_specs_checkpoints_and_results() {
        let spool = Spool::open(scratch("scan")).unwrap();
        let spec = JobSpec::new("abr", "FCC", 5);
        spool.write_spec(1, &spec).unwrap();
        spool.write_spec(2, &spec).unwrap();
        let result = JobResult {
            spec: spec.clone(),
            rounds: Vec::new(),
            hall: Vec::new(),
            stats: SearchStats::default(),
            cache_hits: 1,
            cache_misses: 2,
        };
        spool.write_result(2, &result).unwrap();

        let jobs = spool.scan().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].id, 1);
        assert!(jobs[0].result.is_none());
        assert_eq!(jobs[1].result.as_ref(), Some(&result));
        assert_eq!(spool.next_id().unwrap(), 3);

        spool.remove_job(1).unwrap();
        spool.remove_job(2).unwrap();
        assert!(spool.scan().unwrap().is_empty());
        assert_eq!(spool.next_id().unwrap(), 1);
        let _ = fs::remove_dir_all(spool.root());
    }

    #[test]
    fn corrupt_spool_files_fail_the_scan_loudly() {
        let spool = Spool::open(scratch("corrupt")).unwrap();
        fs::write(spool.root().join("job-000007.spec"), "not a spec").unwrap();
        let err = spool.scan().expect_err("corrupt spec must not be skipped");
        assert!(err.to_string().contains("job 7"), "{err}");
        let _ = fs::remove_dir_all(spool.root());
    }
}
