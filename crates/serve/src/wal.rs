//! Durable, replayable session logs — the write-ahead log behind
//! dynamic-rescheduling sessions (`serve::session`).
//!
//! Every durable session owns one append-only file
//! `<wal_dir>/<session-id>.wal` holding length-prefixed, checksummed
//! records: a `session_open` header (or a `snapshot` after
//! compaction), then one `event` record per accepted disruption. A
//! record is framed as
//!
//! ```text
//! [u32 LE payload length][u64 LE FNV-1a of payload][payload JSON]
//! ```
//!
//! and appended — fsync'd when the WAL is configured to — *before* the
//! wire answer leaves the server, so an answered event is a durable
//! event. After `snapshot_every` events the log is compacted: the
//! whole session state (instance text, windows, clock, incumbent,
//! event journal) is rewritten as a single `snapshot` record via an
//! atomic tmp-file rename, bounding both file size and recovery time.
//!
//! **Recovery** ([`replay`]) rebuilds a [`SessionState`] bit-identical
//! to the pre-crash state: the header re-parses the instance and
//! installs the logged incumbent, then each event record re-derives
//! the instance/windows evolution through the live path's right-shift
//! repair (`serve::session::Repair`, the per-step transform
//! `shop::dynamic::fold_events` folds) and commits the *logged* winning
//! schedule — re-validated against the evolved instance, never trusted
//! blindly — through the live event commit. Storing the winner rather than
//! re-racing it is what makes recovery exact even for deadline-bound
//! events whose GA outcome was timing-dependent.
//!
//! **Corruption** never panics and never poisons recovery: framing
//! stops at the first bad frame (truncated tail, checksum mismatch),
//! replay stops at the first bad record (duplicate / out-of-order
//! sequence number, stale clock, infeasible schedule), the valid
//! prefix is salvaged, and the damaged file is quarantined to
//! `<session-id>.wal.corrupt` with the salvaged state rewritten as a
//! fresh snapshot. The fault-injection proptests in
//! `crates/serve/tests/wal_props.rs` drive byte soup, truncations and
//! bit flips through this contract.

use crate::json::{obj, Json};
use crate::obs::metrics::{Counter, Histogram, Registry};
use crate::protocol::{
    event_from_json, event_to_json, schedule_from_json, schedule_to_json, Objective, Solution,
};
use crate::server::{ServeConfig, ServiceStats};
use crate::session::{JournalEntry, Repair, SessionEntry, SessionState};
use shop::dynamic::{DownWindow, Event};
use shop::instance::hash::Fnv1a;
use shop::instance::parse::{parse_job_shop_ragged, write_job_shop_ragged};
use shop::instance::JobMeta;
use shop::schedule::Schedule;
use shop::Problem;
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Frame header size: u32 payload length + u64 FNV-1a checksum.
const FRAME_HEADER: usize = 12;

/// Upper bound on one record's payload. A corrupt length prefix must
/// never drive a multi-gigabyte allocation; real records (snapshot of
/// a large session) stay far below this.
pub const MAX_RECORD_BYTES: usize = 16 * 1024 * 1024;

/// Frames one record payload: `[u32 LE len][u64 LE FNV-1a][payload]`.
pub fn frame(payload: &str) -> Vec<u8> {
    let bytes = payload.as_bytes();
    let mut h = Fnv1a::default();
    h.write_bytes(bytes);
    let mut out = Vec::with_capacity(FRAME_HEADER + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&h.finish().to_le_bytes());
    out.extend_from_slice(bytes);
    out
}

/// Splits a log's bytes into record payloads. Stops at the first bad
/// frame — truncated header, oversized or truncated payload, checksum
/// mismatch, non-UTF-8 payload — returning every intact payload before
/// it plus a description of the damage (`None` when the whole buffer
/// framed cleanly). Total function: never panics, whatever the bytes.
pub fn read_frames(bytes: &[u8]) -> (Vec<String>, Option<String>) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        // panic-safe: pos < bytes.len() by the loop condition.
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER {
            return (
                out,
                Some(format!(
                    "truncated frame header at byte {pos}: {} of {FRAME_HEADER} bytes",
                    rest.len()
                )),
            );
        }
        // panic-safe: rest.len() >= FRAME_HEADER (12 bytes) was checked above.
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let sum = u64::from_le_bytes([
            // panic-safe: same FRAME_HEADER guard covers bytes 4..12.
            rest[4], rest[5], rest[6], rest[7], rest[8], rest[9], rest[10], rest[11],
        ]);
        if len > MAX_RECORD_BYTES {
            return (
                out,
                Some(format!(
                    "frame at byte {pos} claims {len} payload bytes (cap {MAX_RECORD_BYTES}); \
                     length prefix is corrupt"
                )),
            );
        }
        if rest.len() < FRAME_HEADER + len {
            return (
                out,
                Some(format!(
                    "truncated record at byte {pos}: header claims {len} payload bytes, \
                     {} available",
                    rest.len() - FRAME_HEADER
                )),
            );
        }
        // panic-safe: rest.len() >= FRAME_HEADER + len was checked just above.
        let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
        let mut h = Fnv1a::default();
        h.write_bytes(payload);
        if h.finish() != sum {
            return (
                out,
                Some(format!(
                    "checksum mismatch at byte {pos}: stored {sum:#018x}, computed {:#018x}",
                    h.finish()
                )),
            );
        }
        match std::str::from_utf8(payload) {
            Ok(s) => out.push(s.to_string()),
            Err(e) => return (out, Some(format!("non-UTF-8 payload at byte {pos}: {e}"))),
        }
        pos += FRAME_HEADER + len;
    }
    (out, None)
}

/// Job metadata rows `[release, due, weight]`. Due dates are encoded
/// as decimal strings: the neutral due is `Time::MAX`, far past what a
/// JSON number (f64) can carry exactly.
fn meta_to_json(meta: &JobMeta) -> Json {
    Json::Arr(
        (0..meta.release.len())
            .map(|j| {
                Json::Arr(vec![
                    meta.release[j].into(),         // panic-safe: j ranges over release.len()
                    meta.due[j].to_string().into(), // panic-safe: parallel arrays, one length
                    meta.weight[j].into(),          // panic-safe: parallel arrays, one length
                ])
            })
            .collect(),
    )
}

fn meta_from_json(v: &Json) -> Result<JobMeta, String> {
    let rows = v.as_arr().ok_or("meta must be an array")?;
    let mut meta = JobMeta {
        release: Vec::with_capacity(rows.len()),
        due: Vec::with_capacity(rows.len()),
        weight: Vec::with_capacity(rows.len()),
    };
    for row in rows {
        let f = row
            .as_arr()
            .filter(|f| f.len() == 3)
            .ok_or("meta row must be [release, due, weight]")?;
        meta.release
            .push(f[0].as_u64().ok_or("meta release not a u64")?); // panic-safe: len == 3 checked
        meta.due.push(
            f[1].as_str() // panic-safe: len == 3 checked
                .and_then(|s| s.parse().ok())
                .ok_or("meta due not a decimal string")?,
        );
        meta.weight
            .push(f[2].as_f64().ok_or("meta weight not a number")?); // panic-safe: len == 3 checked
    }
    Ok(meta)
}

/// Down-windows as `[machine, from, until]` rows — the log's and the
/// wire's shape.
pub(crate) fn windows_to_json(windows: &[DownWindow]) -> Json {
    Json::Arr(
        windows
            .iter()
            .map(|w| {
                Json::Arr(vec![
                    (w.machine as u64).into(),
                    w.from.into(),
                    w.until.into(),
                ])
            })
            .collect(),
    )
}

fn windows_from_json(v: &Json) -> Result<Vec<DownWindow>, String> {
    let rows = v.as_arr().ok_or("windows must be an array")?;
    rows.iter()
        .map(|row| {
            let f = row
                .as_arr()
                .filter(|f| f.len() == 3)
                .ok_or("window row must be [machine, from, until]")?;
            // panic-safe: f.len() == 3 by the filter above; i is 0, 1 or 2.
            let g = |i: usize| f[i].as_u64().ok_or("window entry not a u64");
            Ok(DownWindow {
                machine: g(0)? as usize,
                from: g(1)?,
                until: g(2)?,
            })
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(str::to_string)
}

/// One journal row — the log's snapshot shape and the `session_events`
/// wire row.
pub(crate) fn journal_entry_to_json(e: &JournalEntry) -> Json {
    obj([
        ("seq", e.seq.into()),
        ("event", event_to_json(&e.event)),
        ("winner", e.winner.as_str().into()),
        ("value", e.value.into()),
        ("makespan", e.makespan.into()),
        ("deadline_bound", e.deadline_bound.into()),
    ])
}

fn journal_entry_from_json(v: &Json) -> Result<JournalEntry, String> {
    let event = event_from_json(v.get("event").ok_or("journal entry needs an event")?)
        .map_err(|e| e.to_string())?;
    let u = |key: &str| {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("journal entry needs a u64 {key}"))
    };
    Ok(JournalEntry {
        seq: u("seq")?,
        event,
        winner: v
            .get("winner")
            .and_then(Json::as_str)
            .ok_or("journal entry needs a winner")?
            .to_string(),
        value: v
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("journal entry needs a value")?,
        makespan: u("makespan")?,
        deadline_bound: v
            .get("deadline_bound")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    })
}

/// Incumbent fields common to every record kind.
fn incumbent_fields(fields: &mut Vec<(String, Json)>, sol: &Solution, deadline_bound: bool) {
    fields.push(("value".into(), sol.value.into()));
    fields.push(("makespan".into(), sol.makespan.into()));
    fields.push(("model".into(), sol.model.as_str().into()));
    fields.push(("deadline_bound".into(), deadline_bound.into()));
    fields.push(("schedule".into(), schedule_to_json(&sol.schedule)));
}

/// The leading fields of a base record (`open` or `snapshot`): what a
/// session was opened with, and its instance as of `state`.
fn base_fields(kind: &str, session: &str, state: &SessionState) -> Vec<(String, Json)> {
    vec![
        ("kind".into(), kind.into()),
        ("session".into(), session.into()),
        ("objective".into(), state.objective.name().into()),
        ("seed".into(), state.seed.into()),
        ("ttl_ms".into(), state.ttl_ms.into()),
        ("instance".into(), write_job_shop_ragged(&state.inst).into()),
        ("meta".into(), meta_to_json(&state.inst.meta)),
    ]
}

/// Builds the `session_open` header record: everything needed to
/// reconstruct the session's birth state (instance text, objective,
/// seed, TTL request, initial incumbent).
pub fn open_record(session: &str, state: &SessionState) -> String {
    let mut fields = base_fields("open", session, state);
    incumbent_fields(&mut fields, &state.incumbent, state.deadline_bound);
    Json::Obj(fields).encode()
}

/// Builds one `event` record: the accepted disruption plus the winning
/// post-event incumbent. `seq` is 1-based and must equal the session's
/// event count after the event; replay enforces contiguity.
pub fn event_record(seq: u64, event: &Event, outcome: &crate::session::EventOutcome) -> String {
    let mut fields: Vec<(String, Json)> = vec![
        ("kind".into(), "event".into()),
        ("seq".into(), seq.into()),
        ("event".into(), event_to_json(event)),
        ("winner".into(), outcome.winner.into()),
    ];
    incumbent_fields(&mut fields, &outcome.solution, outcome.deadline_bound);
    Json::Obj(fields).encode()
}

/// Builds a `snapshot` record: the complete session state at one
/// instant (evolved instance text, windows, clock, event count,
/// incumbent, and the event journal so `session_events` survives
/// compaction). Replaces the whole log during compaction.
pub fn snapshot_record(session: &str, state: &SessionState) -> String {
    let mut fields = base_fields("snapshot", session, state);
    fields.extend([
        ("windows".into(), windows_to_json(&state.windows)),
        ("now".into(), state.now.into()),
        ("events".into(), state.events.into()),
        (
            "journal".into(),
            Json::Arr(state.journal.iter().map(journal_entry_to_json).collect()),
        ),
    ]);
    incumbent_fields(&mut fields, &state.incumbent, state.deadline_bound);
    Json::Obj(fields).encode()
}

/// A session rebuilt from its log.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The session id the log belongs to.
    pub session: String,
    /// The rebuilt state — bit-identical to the state that wrote the
    /// last intact record (incumbent, clock, windows, journal).
    pub state: SessionState,
    /// Records replayed (header plus intact event records).
    pub records: u64,
    /// `Some(description)` when the log was damaged and only a valid
    /// prefix was salvaged; `None` for a clean replay.
    pub salvaged: Option<String>,
}

fn incumbent_from_record(v: &Json, objective: Objective) -> Result<(Arc<Solution>, bool), String> {
    let schedule = schedule_from_json(v.get("schedule").ok_or("record needs a schedule")?)
        .map_err(|e| e.to_string())?;
    let value = v
        .get("value")
        .and_then(Json::as_f64)
        .ok_or("record needs a value")?;
    let makespan = v
        .get("makespan")
        .and_then(Json::as_u64)
        .ok_or("record needs a makespan")?;
    let model = v
        .get("model")
        .and_then(Json::as_str)
        .ok_or("record needs a model")?
        .to_string();
    let deadline_bound = v
        .get("deadline_bound")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    Ok((
        Arc::new(Solution {
            objective,
            value,
            makespan,
            model,
            schedule,
        }),
        deadline_bound,
    ))
}

/// Parses the base record (`open` or `snapshot`) into a session state.
fn base_state(v: &Json) -> Result<(String, SessionState), String> {
    let session = v
        .get("session")
        .and_then(Json::as_str)
        .ok_or("header record needs a session id")?
        .to_string();
    let objective = v
        .get("objective")
        .and_then(Json::as_str)
        .and_then(Objective::from_name)
        .ok_or("header record needs a valid objective")?;
    let text = v
        .get("instance")
        .and_then(Json::as_str)
        .ok_or("header record needs the instance text")?;
    let mut inst = parse_job_shop_ragged(text).map_err(|e| format!("header instance: {e}"))?;
    // Job metadata (release/due/weight) evolves with arrivals and must
    // survive the roundtrip exactly — a replayed repair leans on
    // release times.
    let meta = meta_from_json(v.get("meta").ok_or("header record needs meta")?)?;
    if meta.release.len() != inst.n_jobs() {
        return Err(format!(
            "meta rows ({}) do not match job count ({})",
            meta.release.len(),
            inst.n_jobs()
        ));
    }
    inst.meta = meta;
    let seed = v
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or("header record needs a seed")?;
    let ttl_ms = v.get("ttl_ms").and_then(Json::as_u64).unwrap_or(0);
    let (incumbent, deadline_bound) = incumbent_from_record(v, objective)?;
    Schedule::new(incumbent.schedule.clone())
        .validate_job(&inst)
        .map_err(|e| format!("header incumbent is infeasible: {e}"))?;
    let mut state = SessionState::opened(inst, objective, seed, incumbent, ttl_ms);
    state.deadline_bound = deadline_bound;
    if v.get("kind").and_then(Json::as_str) == Some("snapshot") {
        state.windows = windows_from_json(v.get("windows").ok_or("snapshot needs windows")?)?;
        state.now = v
            .get("now")
            .and_then(Json::as_u64)
            .ok_or("snapshot needs now")?;
        state.events = v
            .get("events")
            .and_then(Json::as_u64)
            .ok_or("snapshot needs events")?;
        state.journal = v
            .get("journal")
            .and_then(Json::as_arr)
            .ok_or("snapshot needs a journal")?
            .iter()
            .map(journal_entry_from_json)
            .collect::<Result<Vec<_>, _>>()?;
    }
    Ok((session, state))
}

/// Replays one record batch into a [`RecoveredSession`].
///
/// The first payload must be an `open` or `snapshot` header; each
/// following payload must be an `event` record whose `seq` extends the
/// count by exactly one (a duplicate or out-of-order record is
/// corruption, not a merge). Every event re-derives the
/// instance/window evolution through the live path's right-shift
/// repair ([`Repair::apply`], the per-step transform
/// `shop::dynamic::fold_events` folds) and commits the logged winning
/// schedule, re-validated against the evolved instance, through the
/// same state transition a live event commits through.
///
/// A bad header is unrecoverable (`Err`). A bad record *after* a valid
/// prefix salvages the prefix: the returned state reflects everything
/// up to the damage and [`RecoveredSession::salvaged`] describes it.
/// `frame_error` (damage the framing layer already found past the last
/// intact frame) is folded into the same salvage channel.
pub fn replay(
    payloads: &[String],
    frame_error: Option<String>,
) -> Result<RecoveredSession, String> {
    let Some(first) = payloads.first() else {
        return Err(frame_error.unwrap_or_else(|| "empty log".into()));
    };
    let head = crate::json::parse(first).map_err(|e| format!("header record is not JSON: {e}"))?;
    match head.get("kind").and_then(Json::as_str) {
        Some("open") | Some("snapshot") => {}
        other => return Err(format!("log must start with open/snapshot, got {other:?}")),
    }
    let (session, mut state) = base_state(&head)?;
    let mut records = 1u64;
    let mut salvaged = None;
    // panic-safe: payloads is non-empty — `payloads.first()` matched above.
    for payload in &payloads[1..] {
        match replay_event(&mut state, payload) {
            Ok(()) => records += 1,
            Err(e) => {
                salvaged = Some(format!("record {}: {e}", records + 1));
                break;
            }
        }
    }
    if salvaged.is_none() {
        salvaged = frame_error;
    }
    Ok(RecoveredSession {
        session,
        state,
        records,
        salvaged,
    })
}

/// Applies one `event` record to the state being rebuilt. Any error
/// leaves `state` untouched (the caller salvages the prefix).
fn replay_event(state: &mut SessionState, payload: &str) -> Result<(), String> {
    let v = crate::json::parse(payload).map_err(|e| format!("not JSON: {e}"))?;
    if v.get("kind").and_then(Json::as_str) != Some("event") {
        return Err("expected an event record".into());
    }
    let seq = v
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or("event record needs a seq")?;
    if seq != state.events + 1 {
        return Err(format!(
            "duplicate or out-of-order event: expected seq {}, got {seq}",
            state.events + 1
        ));
    }
    let event = event_from_json(v.get("event").ok_or("event record needs an event")?)
        .map_err(|e| format!("bad event body: {e}"))?;
    let winner = v
        .get("winner")
        .and_then(Json::as_str)
        .ok_or("event record needs a winner")?;
    let (incumbent, deadline_bound) = incumbent_from_record(&v, state.objective)?;
    // Re-derive the world exactly as the live path did: the repair
    // evolves (instance, windows) deterministically, and the logged
    // winner replaces the repaired schedule.
    let repair = Repair::apply(state, &event)?;
    Schedule::new(incumbent.schedule.clone())
        .validate_job(&repair.inst)
        .map_err(|e| format!("logged incumbent is infeasible: {e}"))?;
    state.commit(
        &event,
        repair.inst,
        repair.windows,
        incumbent,
        deadline_bound,
        winner,
    );
    Ok(())
}

/// WAL policy knobs (resolved from `ServeConfig`).
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding one `<session-id>.wal` file per durable
    /// session (created if missing).
    pub dir: PathBuf,
    /// Compact the log into a single snapshot record every this-many
    /// events (0 is resolved to 64 by the server).
    pub snapshot_every: u64,
    /// Whether appends fsync (`sync_data`) before the wire answer.
    /// Turning this off trades crash durability for event throughput —
    /// the bench lane in `serve_throughput` measures the gap.
    pub fsync: bool,
}

/// What [`Wal::recover_one`] found for a session id.
#[derive(Debug)]
pub enum RecoverOutcome {
    /// No log on disk (or the id is not a valid session id).
    Missing,
    /// The session was rebuilt — possibly from a salvaged prefix (see
    /// [`RecoveredSession::salvaged`], in which case the damaged file
    /// was quarantined and the salvaged state rewritten).
    Recovered(Box<RecoveredSession>),
    /// The log was unusable (bad header): quarantined, nothing
    /// rebuilt.
    Quarantined {
        /// Where the damaged file was moved.
        path: PathBuf,
        /// What was wrong with it.
        error: String,
    },
}

/// The per-session write-ahead log manager: appends on the event hot
/// path, snapshot/compaction, removal on close, and crash recovery.
/// All methods take `&self`; per-session write ordering is the
/// caller's (the server holds the session entry lock across an
/// append).
#[derive(Debug)]
pub struct Wal {
    config: WalConfig,
}

/// Session ids are server-minted (`sess-<n>`), but recovery paths are
/// reachable with client-supplied ids — only plain token ids may ever
/// touch the filesystem.
fn valid_session_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

impl Wal {
    /// Opens (creating if needed) the WAL directory.
    pub fn new(config: WalConfig) -> std::io::Result<Wal> {
        std::fs::create_dir_all(&config.dir)?;
        Ok(Wal { config })
    }

    /// The policy in force.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// The log path for a session id; `None` for ids that may not
    /// touch the filesystem.
    pub fn path(&self, session: &str) -> Option<PathBuf> {
        valid_session_id(session).then(|| self.config.dir.join(format!("{session}.wal")))
    }

    fn sync(&self, file: &std::fs::File) -> std::io::Result<()> {
        if self.config.fsync {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Starts a session's log: truncates any leftover file and writes
    /// the header record.
    pub fn begin(&self, session: &str, record: &str) -> std::io::Result<()> {
        let path = self.require(session)?;
        let mut file = std::fs::File::create(&path)?;
        file.write_all(&frame(record))?;
        self.sync(&file)
    }

    /// Appends one record to a session's log (fsync'd per
    /// [`WalConfig::fsync`]). The caller answers the wire only after
    /// this returns. Only an existing log is extended: a log removed by
    /// close fails with `NotFound` instead of coming back headerless.
    pub fn append(&self, session: &str, record: &str) -> std::io::Result<()> {
        let path = self.require(session)?;
        let mut file = std::fs::OpenOptions::new().append(true).open(&path)?;
        file.write_all(&frame(record))?;
        self.sync(&file)
    }

    /// Compacts a session's log to a single snapshot record, via an
    /// atomic tmp-file rename (a crash mid-compaction leaves either the
    /// old log or the new snapshot, never a torn file).
    pub fn rewrite(&self, session: &str, snapshot: &str) -> std::io::Result<()> {
        let path = self.require(session)?;
        let tmp = path.with_extension("wal.tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(&frame(snapshot))?;
            file.sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        // Make the rename itself durable (best effort — not every
        // platform lets a directory be fsync'd).
        if let Ok(dir) = std::fs::File::open(&self.config.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Deletes a session's log (explicit close: the session's life is
    /// over, nothing to recover). Missing files are fine.
    pub fn remove(&self, session: &str) -> std::io::Result<()> {
        let path = self.require(session)?;
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Moves a damaged log aside to `<session-id>.wal.corrupt` so it is
    /// never re-read (but stays inspectable). Returns the new path.
    pub fn quarantine(&self, session: &str) -> std::io::Result<PathBuf> {
        let path = self.require(session)?;
        let corrupt = path.with_extension("wal.corrupt");
        std::fs::rename(&path, &corrupt)?;
        Ok(corrupt)
    }

    fn require(&self, session: &str) -> std::io::Result<PathBuf> {
        self.path(session).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("invalid session id {session:?}"),
            )
        })
    }

    /// Recovers one session from its log, if present: frames, replays,
    /// and on damage salvages the valid prefix (quarantining the bad
    /// file and rewriting the salvaged state as a fresh snapshot) or
    /// quarantines outright when not even the header survived.
    pub fn recover_one(&self, session: &str) -> std::io::Result<RecoverOutcome> {
        let Some(path) = self.path(session) else {
            return Ok(RecoverOutcome::Missing);
        };
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(RecoverOutcome::Missing)
            }
            Err(e) => return Err(e),
        };
        let (payloads, frame_error) = read_frames(&bytes);
        match replay(&payloads, frame_error) {
            Ok(mut rec) => {
                // The file name is authoritative: a renamed log recovers
                // under the id it is reachable (and appendable) as.
                rec.session = session.to_string();
                if let Some(reason) = &rec.salvaged {
                    // Keep the evidence, then make the salvage durable
                    // so the damaged tail is never replayed again.
                    eprintln!("[serve::wal] {session}: salvaged valid prefix ({reason})");
                    let _ = self.quarantine(session);
                    self.rewrite(session, &snapshot_record(session, &rec.state))?;
                }
                Ok(RecoverOutcome::Recovered(Box::new(rec)))
            }
            Err(error) => {
                let path = self.quarantine(session)?;
                Ok(RecoverOutcome::Quarantined { path, error })
            }
        }
    }

    /// Session ids with a log on disk (sorted for deterministic
    /// recovery order).
    pub fn sessions_on_disk(&self) -> std::io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.config.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("wal") {
                continue;
            }
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if valid_session_id(stem) {
                    out.push(stem.to_string());
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Recovers every session with a log on disk. Returns the rebuilt
    /// sessions; unusable logs are quarantined and reported on stderr
    /// (a corrupt log must not stop the service from binding).
    pub fn recover_all(&self) -> std::io::Result<Vec<RecoveredSession>> {
        let mut out = Vec::new();
        for session in self.sessions_on_disk()? {
            match self.recover_one(&session)? {
                RecoverOutcome::Recovered(rec) => out.push(*rec),
                RecoverOutcome::Quarantined { path, error } => {
                    eprintln!(
                        "[serve::wal] {session}: unrecoverable log quarantined to {}: {error}",
                        path.display()
                    );
                }
                RecoverOutcome::Missing => {}
            }
        }
        Ok(out)
    }
}

/// One slot of the id map: the shared session entry plus recency
/// metadata, kept outside the entry mutex so touching never waits on a
/// running event.
struct Slot {
    stamp: u64,
    last_touch: Instant,
    ttl: Duration,
    entry: SessionEntry,
}

impl Slot {
    /// Whether a request still holds the entry (the map's own clone is
    /// one reference). A held slot is never expired or evicted: a
    /// request on the session is the last to leave it, so a later miss
    /// can never replay a second copy beside it.
    fn held(&self) -> bool {
        Arc::strong_count(&self.entry) > 1
    }
}

/// The whole session lifecycle: the id map with idle-TTL expiry and
/// LRU capacity eviction, plus the optional per-session [`Wal`].
///
/// * **Log before publishing.** [`SessionStore::open`] mints the id and
///   writes the open record before the id is reachable, and
///   [`SessionStore::record_event`] appends under the session lock
///   before the caller answers.
/// * **Fall back to memory on I/O failure, and heal.** A failed write
///   is counted in `errors` and the answer still ships: losing the
///   answer would be worse than losing durability. A failed event
///   append falls back to a full snapshot rewrite, so a log that went
///   missing comes back at the session's next event.
/// * **Never drop a held session.** Expiry and eviction skip a slot
///   whose entry a request still holds; when every slot is held at
///   capacity an open still succeeds and the map briefly exceeds
///   `max_sessions`.
/// * **Recover on a miss.** A session the map no longer holds (restart,
///   TTL expiry, LRU eviction) is replayed from its log by
///   [`SessionStore::entry`]; durability beats expiry.
/// * **Forget on close.** [`SessionStore::close`] takes the state out
///   under the session lock, deletes the log, then drops the id, so an
///   event ordered after the close answers `unknown_session` and
///   writes nothing.
///
/// Without a WAL directory the store keeps sessions in memory only.
/// The map lock is short and never held across a solve; session state
/// sits behind the per-session entry mutex.
pub struct SessionStore {
    wal: Option<Wal>,
    /// Default idle TTL; a requested `ttl_ms` is clamped to ten times it.
    ttl: Duration,
    max_sessions: usize,
    slots: Mutex<HashMap<String, Slot>>,
    /// Recency stamps for LRU order.
    clock: AtomicU64,
    next_id: AtomicU64,
    /// Orders every log-file transition against the map: an open's
    /// write-then-publish, a miss's replay, and a close's delete. Never
    /// taken on a hit.
    recovery: Mutex<()>,
    /// The service's session tallies, `wal_appends`, `wal_replays` and
    /// `errors` cells in the metrics registry.
    sessions_opened: Arc<Counter>,
    sessions_closed: Arc<Counter>,
    sessions_expired: Arc<Counter>,
    sessions_evicted: Arc<Counter>,
    sessions_recovered: Arc<Counter>,
    wal_appends: Arc<Counter>,
    wal_replays: Arc<Counter>,
    errors: Arc<Counter>,
    /// Per-record write latency (frame + write + fsync, plus the
    /// snapshot rewrite when one triggers), µs.
    append_us: Arc<Histogram>,
}

impl SessionStore {
    /// Builds the store from a resolved service configuration, counting
    /// straight into `registry`: the [`ServiceStats`] cells it owns and
    /// the `serve_wal_append_us` histogram. With a `wal_dir` it
    /// restores every log on disk before returning, so a client that
    /// reconnects right after a crash sees its session. A corrupt or
    /// unreadable log is quarantined, never fatal; only an unusable WAL
    /// directory is.
    pub fn new(config: &ServeConfig, registry: &Registry) -> std::io::Result<SessionStore> {
        let wal = config
            .wal_dir
            .as_ref()
            .map(|dir| {
                Wal::new(WalConfig {
                    dir: PathBuf::from(dir),
                    snapshot_every: config.wal_snapshot_every,
                    fsync: config.wal_fsync,
                })
            })
            .transpose()?;
        let ServiceStats {
            errors,
            wal_appends,
            wal_replays,
            sessions_opened,
            sessions_closed,
            sessions_expired,
            sessions_evicted,
            sessions_recovered,
            ..
        } = ServiceStats::new(registry);
        let store = SessionStore {
            wal,
            ttl: Duration::from_millis(config.session_ttl_ms.max(1)),
            max_sessions: config.max_sessions.max(1),
            slots: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            recovery: Mutex::new(()),
            sessions_opened,
            sessions_closed,
            sessions_expired,
            sessions_evicted,
            sessions_recovered,
            wal_appends,
            wal_replays,
            errors,
            append_us: registry.histogram(
                "serve_wal_append_us",
                "write-ahead-log append latency (write + fsync) in microseconds",
            ),
        };
        match store.wal.as_ref().map(Wal::recover_all).transpose() {
            Ok(recovered) => recovered.into_iter().flatten().for_each(|rec| {
                store.restore(rec);
            }),
            Err(e) => eprintln!("[serve::wal] recovery scan failed: {e}"),
        }
        Ok(store)
    }

    /// Sessions currently held in memory, read live: expired sessions
    /// are swept first, then the map is counted.
    pub fn open_count(&self) -> u64 {
        let mut slots = self.lock_slots();
        self.sweep(&mut slots);
        slots.len() as u64
    }

    /// Opens a fresh session under a newly minted id (`sess-<n>`) and
    /// returns the id. With a WAL the open record is written before the
    /// id is reachable, so even a session evicted before its opener
    /// answers can be recovered. The idle TTL is `state.ttl_ms` (0 means
    /// the default TTL).
    pub fn open(&self, state: SessionState) -> String {
        let id = format!("sess-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        // panic-safe: poisoned = a recovery already panicked; never replay on top of it.
        let _recovering = self.recovery.lock().expect("recovery lock poisoned");
        self.write(&id, "open append", |wal| {
            // A torn header must not be extended by later appends: drop
            // it, and the session's first event rewrites a full snapshot.
            wal.begin(&id, &open_record(&id, &state)).inspect_err(|_| {
                let _ = wal.remove(&id);
            })
        });
        self.insert(&id, state, &self.sessions_opened);
        id
    }

    /// Looks up (and touches) a session, replaying its log when the map
    /// no longer holds it. `None` when the session is unknown, closed,
    /// or its log is unusable (quarantined and counted in `errors`). A
    /// `Some` entry still holds `None` when a close won the entry lock
    /// first.
    pub fn entry(&self, id: &str) -> Option<SessionEntry> {
        if let Some(entry) = self.touch(id) {
            return Some(entry);
        }
        let wal = self.wal.as_ref()?;
        // panic-safe: as in `open`.
        let _recovering = self.recovery.lock().expect("recovery lock poisoned");
        // A request that waited here may find the session recovered.
        if let Some(entry) = self.touch(id) {
            return Some(entry);
        }
        let failure = match wal.recover_one(id) {
            Ok(RecoverOutcome::Recovered(rec)) => return Some(self.restore(*rec)),
            Ok(RecoverOutcome::Missing) => return None,
            Ok(RecoverOutcome::Quarantined { path, error }) => {
                format!("quarantined {} ({error})", path.display())
            }
            Err(e) => format!("recovery failed: {e}"),
        };
        eprintln!("[serve::wal] {id}: {failure}");
        self.errors.inc();
        None
    }

    /// Logs one accepted event, and writes the full state as a snapshot
    /// when the cadence triggers or the append failed. Call under the
    /// session's entry lock and before answering: appends stay ordered
    /// per session and an answered event is a durable event.
    ///
    /// The snapshot fallback heals a log that is gone (a failed open
    /// record, or a file deleted under the service): the session is
    /// durable again from this event on, and only a failed rewrite
    /// counts an error. It cannot revive a closed session: close takes
    /// the state out under the same entry lock this runs under.
    pub fn record_event(
        &self,
        id: &str,
        state: &SessionState,
        event: &Event,
        out: &crate::session::EventOutcome,
    ) {
        self.write(id, "append", |wal| {
            let appended = wal.append(id, &event_record(state.events, event, out));
            if let Err(e) = &appended {
                eprintln!("[serve::wal] {id}: append failed: {e} (rewriting a snapshot)");
            }
            let every = wal.config().snapshot_every;
            if appended.is_err() || (every > 0 && state.events.is_multiple_of(every)) {
                wal.rewrite(id, &snapshot_record(id, state))?;
            }
            Ok(())
        });
    }

    /// Closes a session (recovering it first if only its log is left)
    /// and returns its final state; `None` when unknown or already
    /// closed. The state is taken out under the entry lock, so close is
    /// ordered after any in-flight event on the session and before any
    /// later one; the log is deleted before the id is dropped, so
    /// nothing can replay it back.
    pub fn close(&self, id: &str) -> Option<SessionState> {
        let entry = self.entry(id)?;
        let mut slot = entry.lock().expect("session poisoned"); // panic-safe: poisoned = a handler already panicked; never serve corrupt state
        let state = slot.take()?;
        // panic-safe: as in `open`.
        let _recovering = self.recovery.lock().expect("recovery lock poisoned");
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.remove(id) {
                eprintln!("[serve::wal] {id}: remove failed: {e}");
                self.errors.inc();
            }
        }
        // This close holds the entry, so no sweep or eviction removed it.
        self.lock_slots().remove(id);
        self.sessions_closed.inc();
        Some(state)
    }

    /// Puts a session rebuilt from its log back under its *original*
    /// id and counts its replayed records. Keep-existing: when the id
    /// is already live the rebuilt state is dropped and the live entry
    /// returned, so a session never forks. The id minter is bumped past
    /// a recovered `sess-<n>`, so a later open never re-issues it.
    pub(crate) fn restore(&self, rec: RecoveredSession) -> SessionEntry {
        if let Some(salvaged) = &rec.salvaged {
            eprintln!("[serve::wal] {}: {salvaged}", rec.session);
        }
        self.wal_replays.add(rec.records);
        let minted = rec
            .session
            .strip_prefix("sess-")
            .and_then(|n| n.parse().ok());
        if let Some(n) = minted {
            self.next_id.fetch_max(n, Ordering::Relaxed);
        }
        self.insert(&rec.session, rec.state, &self.sessions_recovered)
    }

    /// Inserts `state` under `id` unless the id is already live,
    /// evicting least-recently-used unheld sessions down to capacity,
    /// and bumps `tally` when it inserted. The idle TTL comes from
    /// `state.ttl_ms`, clamped to ten times the default.
    fn insert(&self, id: &str, state: SessionState, tally: &Counter) -> SessionEntry {
        let ttl = match state.ttl_ms {
            0 => self.ttl,
            ms => Duration::from_millis(ms).min(self.ttl.saturating_mul(10)),
        };
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slots = self.lock_slots();
        self.sweep(&mut slots);
        if let Some(live) = slots.get(id) {
            return Arc::clone(&live.entry);
        }
        while slots.len() >= self.max_sessions {
            let lru = slots
                .iter()
                .filter(|(_, s)| !s.held())
                .min_by_key(|(_, s)| s.stamp)
                .map(|(k, _)| k.clone());
            let Some(lru) = lru else {
                break;
            };
            slots.remove(&lru);
            self.sessions_evicted.inc();
        }
        let entry = Arc::new(Mutex::new(Some(state)));
        slots.insert(
            id.to_string(),
            Slot {
                stamp,
                last_touch: Instant::now(),
                ttl,
                entry: Arc::clone(&entry),
            },
        );
        tally.inc();
        entry
    }

    /// The live entry for `id`, touched; `None` when the map does not
    /// hold it.
    fn touch(&self, id: &str) -> Option<SessionEntry> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut slots = self.lock_slots();
        self.sweep(&mut slots);
        slots.get_mut(id).map(|s| {
            s.stamp = stamp;
            s.last_touch = Instant::now();
            Arc::clone(&s.entry)
        })
    }

    /// Drops every unheld session idle past its TTL. Runs under the map
    /// lock on every map access.
    fn sweep(&self, slots: &mut HashMap<String, Slot>) {
        let before = slots.len();
        slots.retain(|_, s| s.held() || s.last_touch.elapsed() <= s.ttl);
        self.sessions_expired.add((before - slots.len()) as u64);
    }

    fn lock_slots(&self) -> std::sync::MutexGuard<'_, HashMap<String, Slot>> {
        // panic-safe: the map lock guards plain inserts and removes; poisoned = a panic mid-update, never serve a torn map.
        self.slots.lock().expect("session map poisoned")
    }

    /// Runs one log write, timing it and counting the outcome; a failure
    /// degrades to memory-only service for this record.
    fn write(&self, id: &str, what: &str, op: impl FnOnce(&Wal) -> std::io::Result<()>) {
        let Some(wal) = &self.wal else {
            return;
        };
        let started = Instant::now();
        let result = op(wal);
        self.append_us.observe(started.elapsed().as_micros() as u64);
        match result {
            Ok(()) => self.wal_appends.inc(),
            Err(e) => {
                eprintln!("[serve::wal] {id}: {what} failed: {e} (continuing without durability)");
                self.errors.inc();
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::scheduler::RacerPool;
    use crate::session::handle_event;
    use shop::dynamic::{fold_events, reschedule_suffix_with_windows};
    use shop::instance::classic;
    use shop::instance::Op;
    use shop::Problem;

    /// A deterministic session state with a cheaply built (greedy
    /// job-major dispatch) incumbent — no GA involved.
    pub(crate) fn seed_state() -> SessionState {
        let inst = classic::ft06().instance;
        let order: Vec<(usize, usize)> = (0..inst.n_jobs())
            .flat_map(|j| (0..inst.n_ops(j)).map(move |s| (j, s)))
            .collect();
        let schedule = reschedule_suffix_with_windows(&inst, &[], &order, &[], 0);
        let incumbent = Arc::new(Solution {
            objective: Objective::Makespan,
            value: schedule.makespan() as f64,
            makespan: schedule.makespan(),
            model: "greedy".into(),
            schedule: schedule.ops,
        });
        SessionState::opened(inst, Objective::Makespan, 7, incumbent, 0)
    }

    /// Applies `event` to `state` as a live event that admission
    /// control shed to repair alone, returning its log record.
    fn log_event(state: &mut SessionState, event: &Event) -> String {
        let pool = RacerPool::new(1);
        let deadline = Instant::now() + Duration::from_secs(5);
        let out = handle_event(&pool, state, event, deadline, 30, 1, true).unwrap();
        event_record(state.events, event, &out)
    }

    fn storm() -> Vec<Event> {
        vec![
            Event::Breakdown {
                machine: 2,
                from: 10,
                duration: 12,
            },
            Event::JobArrival {
                at: 20,
                route: vec![Op::new(0, 5), Op::new(3, 7)],
            },
            Event::Revision {
                at: 30,
                job: 1,
                op: 5,
                duration: 9,
            },
        ]
    }

    fn build_log(events: &[Event]) -> (Vec<String>, SessionState) {
        let mut state = seed_state();
        let mut payloads = vec![open_record("sess-1", &state)];
        for e in events {
            payloads.push(log_event(&mut state, e));
        }
        (payloads, state)
    }

    #[test]
    fn frame_roundtrips() {
        let records = ["{}", "{\"kind\":\"event\",\"seq\":1}", ""];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&frame(r));
        }
        let (back, err) = read_frames(&bytes);
        assert!(err.is_none(), "{err:?}");
        assert_eq!(back, records);
    }

    #[test]
    fn replay_rebuilds_the_exact_state_and_matches_fold_events() {
        let events = storm();
        let (payloads, live) = build_log(&events);
        let rec = replay(&payloads, None).unwrap();
        assert_eq!(rec.session, "sess-1");
        assert_eq!(rec.records, 4);
        assert!(rec.salvaged.is_none());
        assert_eq!(rec.state, live);
        // Because every logged winner here *is* the repair schedule,
        // replay must agree with folding the raw event sequence.
        let base = seed_state();
        let (inst, windows, folded) = fold_events(
            &base.inst,
            &Schedule::new(base.incumbent.schedule.clone()),
            &events,
        )
        .unwrap();
        assert_eq!(rec.state.inst.to_string(), inst.to_string());
        assert_eq!(rec.state.windows, windows);
        assert_eq!(rec.state.incumbent.schedule, folded.ops);
    }

    #[test]
    fn restored_session_keeps_the_ttl_it_was_opened_with() {
        let dir = std::env::temp_dir().join(format!("pga-wal-ttl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServeConfig {
            session_ttl_ms: 60_000,
            wal_dir: Some(dir.display().to_string()),
            wal_fsync: false,
            ..ServeConfig::default()
        };
        let registry = Registry::new();
        let open_store = || SessionStore::new(&config, &registry).unwrap();
        let id = open_store().open(SessionState {
            ttl_ms: 90_000,
            ..seed_state()
        });
        // A restart replays the open record, and the TTL rides in the
        // state it rebuilds.
        let restarted = open_store();
        assert_eq!(registry.value("serve_sessions_recovered_total"), Some(1));
        let ttl = restarted.lock_slots().get(&id).map(|slot| slot.ttl);
        assert_eq!(ttl, Some(Duration::from_millis(90_000)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_replays_identically() {
        let (payloads, live) = build_log(&storm());
        let snap = snapshot_record("sess-1", &live);
        let rec = replay(&[snap], None).unwrap();
        assert_eq!(rec.state, live);
        assert_eq!(rec.state.journal.len(), 3, "journal survives compaction");
        assert_eq!(rec.records, 1);
        // And the compacted log accepts further events.
        let mut more = vec![snapshot_record("sess-1", &live)];
        let mut cont = replay(&[more[0].clone()], None).unwrap().state;
        more.push(log_event(
            &mut cont,
            &Event::Breakdown {
                machine: 0,
                from: 50,
                duration: 5,
            },
        ));
        let rec2 = replay(&more, None).unwrap();
        assert_eq!(rec2.state, cont);
        let _ = payloads;
    }

    #[test]
    fn duplicate_and_out_of_order_records_salvage_the_prefix() {
        let (mut payloads, _) = build_log(&storm());
        // Duplicate the last event record.
        payloads.push(payloads.last().unwrap().clone());
        let rec = replay(&payloads, None).unwrap();
        assert_eq!(rec.records, 4);
        assert_eq!(rec.state.events, 3);
        let why = rec.salvaged.expect("duplicate must be flagged");
        assert!(why.contains("duplicate or out-of-order"), "{why}");
        // Swap two event records: replay stops at the gap.
        let (payloads, _) = build_log(&storm());
        let swapped = vec![
            payloads[0].clone(),
            payloads[2].clone(),
            payloads[1].clone(),
        ];
        let rec = replay(&swapped, None).unwrap();
        assert_eq!(rec.records, 1, "seq 2 cannot follow the header");
        assert!(rec.salvaged.is_some());
    }

    #[test]
    fn wal_files_roundtrip_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("pga-wal-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let wal = Wal::new(WalConfig {
            dir: dir.clone(),
            snapshot_every: 64,
            fsync: false,
        })
        .unwrap();
        let (payloads, live) = build_log(&storm());
        wal.begin("sess-1", &payloads[0]).unwrap();
        for p in &payloads[1..] {
            wal.append("sess-1", p).unwrap();
        }
        assert_eq!(wal.sessions_on_disk().unwrap(), vec!["sess-1"]);
        let RecoverOutcome::Recovered(rec) = wal.recover_one("sess-1").unwrap() else {
            panic!("expected recovery");
        };
        assert_eq!(rec.state, live);
        // Truncate the tail mid-record: the prefix is salvaged, the
        // damaged file is quarantined, and the rewritten log replays
        // to the prefix state cleanly.
        let path = wal.path("sess-1").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let RecoverOutcome::Recovered(rec) = wal.recover_one("sess-1").unwrap() else {
            panic!("expected salvage");
        };
        assert_eq!(rec.state.events, 2);
        assert!(rec.salvaged.is_some());
        assert!(path.with_extension("wal.corrupt").exists());
        let RecoverOutcome::Recovered(again) = wal.recover_one("sess-1").unwrap() else {
            panic!("rewritten salvage must replay");
        };
        assert!(again.salvaged.is_none());
        assert_eq!(again.state.events, 2);
        // Path traversal attempts never touch the filesystem.
        assert!(wal.path("../evil").is_none());
        assert!(matches!(
            wal.recover_one("../evil").unwrap(),
            RecoverOutcome::Missing
        ));
        // remove() ends the story.
        wal.remove("sess-1").unwrap();
        assert!(wal.sessions_on_disk().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
