//! Crash-durable filesystem primitives shared by the campaign
//! engine, the distributed fabric and the service daemon.
//!
//! Every durable artifact in the workspace — campaign CSV/JSON,
//! fabric shards, leases, quarantine records, service journals,
//! `status.json` — is published with the same discipline:
//!
//! 1. write the bytes to a sibling temp file,
//! 2. `fsync` the temp file (the *data* is on disk),
//! 3. `rename` it over the final name (the publish is atomic),
//! 4. `fsync` the parent directory (the *name* is on disk).
//!
//! Steps 2 and 4 are what a plain tmp+rename lacks: after a power
//! loss, a rename alone may surface as a zero-length or stale file
//! (the data never hit the platter) or not at all (the directory
//! entry never did). With both fsyncs, a file that exists under its
//! final name always carries exactly the bytes that were written —
//! the invariant the fabric's resume and merge logic is built on.
//!
//! The module also hosts the test-only [`io_fault`] injection point:
//! integration tests arm a path-matching fault to prove that a failed
//! write or rename leaves campaigns resumable with no torn artifact
//! under a final name.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Injectable I/O failures for crash-safety tests.
///
/// Not part of the public API surface (hidden from docs): production
/// code never arms a fault, and the disarmed fast path is a single
/// relaxed atomic load.
#[doc(hidden)]
pub mod io_fault {
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard};

    static ARMED: AtomicBool = AtomicBool::new(false);
    static FAULT: Mutex<Option<Fault>> = Mutex::new(None);
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    /// Sole use of the hook for one test, from [`exclusive`]; dropping
    /// it disarms the hook, also when the test panics.
    pub struct Exclusive {
        _guard: MutexGuard<'static, ()>,
    }

    impl Drop for Exclusive {
        fn drop(&mut self) {
            disarm();
        }
    }

    /// Waits until no other test holds the hook. The hook is
    /// process-global, so every test that arms it holds this for its
    /// whole run: two tests arming it at once would fire, replace or
    /// disarm each other's faults.
    pub fn exclusive() -> Exclusive {
        Exclusive {
            // A test that panicked while holding the lock has already
            // disarmed the hook through its guard's drop.
            _guard: EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    struct Fault {
        /// Substring the failing path must contain.
        path_contains: String,
        /// Operations matching the substring that still succeed
        /// before the fault fires.
        skip: u32,
        /// Operations that fail once the fault fires (then disarms).
        fail: u32,
    }

    /// Arms a fault: after `skip` successful durable operations on
    /// paths containing `path_contains`, the next `fail` such
    /// operations return an injected error, then the fault disarms
    /// itself.
    pub fn arm(path_contains: &str, skip: u32, fail: u32) {
        *FAULT.lock().unwrap() = Some(Fault {
            path_contains: path_contains.to_string(),
            skip,
            fail,
        });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarms any armed fault.
    pub fn disarm() {
        *FAULT.lock().unwrap() = None;
        ARMED.store(false, Ordering::SeqCst);
    }

    /// Checked by every durable operation; `Err` is the injected
    /// failure.
    pub(super) fn check(path: &Path, op: &str) -> Result<(), String> {
        if !ARMED.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut guard = FAULT.lock().unwrap();
        let Some(fault) = guard.as_mut() else {
            return Ok(());
        };
        if !path.to_string_lossy().contains(&fault.path_contains) {
            return Ok(());
        }
        if fault.skip > 0 {
            fault.skip -= 1;
            return Ok(());
        }
        fault.fail -= 1;
        if fault.fail == 0 {
            *guard = None;
            ARMED.store(false, Ordering::SeqCst);
        }
        Err(format!(
            "injected I/O fault: {op} {} (io_fault test hook)",
            path.display()
        ))
    }
}

/// `fsync`s a directory so a rename into it survives power loss.
///
/// Failure is reported, not ignored: a service built on rename
/// atomicity cannot treat "the directory entry may not be on disk"
/// as success.
pub fn fsync_dir(dir: &Path) -> Result<(), String> {
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| format!("fsync dir {}: {e}", dir.display()))
}

/// A temp name unique to this (process, call): concurrent publishers
/// of the same final path — e.g. two fabric workers promoting the
/// same config to quarantine in the same instant — must not share a
/// temp file, or one worker's rename steals the bytes out from under
/// the other's (ENOENT on the loser's rename). Last rename wins; both
/// renames see their own fsynced temp.
fn tmp_sibling(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    path.with_extension(format!("tmp-{}-{seq}", std::process::id()))
}

/// Durably renames `from` onto `to`: rename, then parent-dir fsync.
/// The caller is responsible for having fsynced `from`'s contents.
pub fn rename_durable(from: &Path, to: &Path) -> Result<(), String> {
    io_fault::check(to, "rename")?;
    std::fs::rename(from, to).map_err(|e| format!("rename {}: {e}", to.display()))?;
    if let Some(parent) = to.parent() {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// Atomically and durably publishes `contents` under `path`:
/// tmp write → tmp fsync → rename → parent fsync. An interrupt at
/// any point leaves either the old file or the new one — never a
/// torn hybrid — and what survives a power loss is what the call
/// reported.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    io_fault::check(path, "write")?;
    let tmp = tmp_sibling(path);
    let publish = (|| {
        let mut file =
            std::fs::File::create(&tmp).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        file.write_all(contents.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        drop(file);
        rename_durable(&tmp, path)
    })();
    if publish.is_err() {
        // Best effort: never leave a half-written temp file for a
        // future directory scan to trip over.
        let _ = std::fs::remove_file(&tmp);
    }
    publish
}

/// Durably appends one `\n`-terminated record to `path` (creating
/// it if needed): `O_APPEND` write + fsync, plus a parent-dir fsync
/// when the file is new. Used by the service journal — a crash can
/// tear at most the final line, which replay discards.
pub fn append_durable(path: &Path, line: &str) -> Result<(), String> {
    io_fault::check(path, "append")?;
    debug_assert!(line.ends_with('\n'), "journal records are newline-framed");
    let existed = path.exists();
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("append {}: {e}", path.display()))?;
    file.write_all(line.as_bytes())
        .and_then(|()| file.sync_all())
        .map_err(|e| format!("append {}: {e}", path.display()))?;
    if !existed {
        if let Some(parent) = path.parent() {
            fsync_dir(parent)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qma-durable-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// True when any temp file (from any writer) lingers in `dir`.
    fn temps_linger(dir: &Path) -> bool {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .any(|e| e.file_name().to_string_lossy().contains(".tmp"))
    }

    #[test]
    fn write_atomic_replaces_and_survives_reread() {
        let dir = tmp_dir("basic");
        let path = dir.join("a.csv");
        write_atomic(&path, "one\n").unwrap();
        write_atomic(&path, "two\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two\n");
        assert!(!temps_linger(&dir), "tmp must not linger");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_durable_accumulates_lines() {
        let dir = tmp_dir("append");
        let path = dir.join("j.journal");
        append_durable(&path, "state=queued seq=1\n").unwrap();
        append_durable(&path, "state=expanding seq=2\n").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "state=queued seq=1\nstate=expanding seq=2\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_fault_fails_matching_writes_then_disarms() {
        let _hook = io_fault::exclusive();
        let dir = tmp_dir("fault");
        let path = dir.join("fault-target.csv");
        // One write_atomic crosses two checkpoints (write + rename):
        // skip both for the first call, fail the second call's write.
        io_fault::arm("fault-target", 2, 1);
        // First matching op is skipped…
        write_atomic(&path, "ok\n").unwrap();
        // …second fails with the injected error and leaves no tmp…
        let err = write_atomic(&path, "boom\n").unwrap_err();
        assert!(err.contains("injected I/O fault"), "{err}");
        assert!(!temps_linger(&dir));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "ok\n");
        // …and the fault has disarmed itself.
        write_atomic(&path, "after\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "after\n");
        io_fault::disarm();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_matching_paths_are_untouched_by_an_armed_fault() {
        let _hook = io_fault::exclusive();
        let dir = tmp_dir("nomatch");
        io_fault::arm("no-such-substring-anywhere", 0, 1);
        write_atomic(&dir.join("other.csv"), "fine\n").unwrap();
        io_fault::disarm();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
