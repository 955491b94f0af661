//! The watch hub: one frame log per watched race, followed by the
//! origin socket and by every attacher alike.
//!
//! ```text
//! racer threads ──emit──► WatchLog { frames, done } ──follow──► origin writer thread
//!                              (one mutex, one condvar) ──follow──► attacher connections
//! ```
//!
//! `emit` only appends a rendered line and wakes followers; it never
//! touches a socket, so a subscriber that stops reading can never stall
//! a racer thread (the [`WatchSink`] contract). Frames are dropped only
//! when nothing else holds them:
//!
//! * a race **without** an id is not attachable, so the origin is the
//!   log's only follower: it takes (and the log forgets) each batch it
//!   sends, at most [`WATCH_QUEUE_CAP`] unsent frames are held, and the
//!   rest are dropped and counted;
//! * a race **with** an id keeps its whole stream for attachers, so the
//!   origin follows it like any attacher and loses nothing — the
//!   origin's stream and an attached replay are the same log.
//!
//! A [`Subscription`] owns one race's log, its origin writer thread and
//! its id registration. [`Subscription::finish`] deregisters the id,
//! appends the answer frame, seals the log and joins the writer; its
//! `Drop` deregisters and seals on every path, so a handler that
//! unwinds mid-race still releases its followers and frees its id.

use crate::json::Json;
use crate::obs::trace::{Frame, WatchSink};
use crate::protocol::write_line;
use std::collections::HashMap;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Unsent frames a non-attachable race's log holds before new ones are
/// dropped. The cap bounds both memory and the damage a stalled
/// watcher can do: racer threads only ever append (or drop) and move on.
pub(crate) const WATCH_QUEUE_CAP: usize = 4096;

/// One watched race's frame log. Every lock here and in [`WatchHub`] is
/// poison-tolerant: each update (a push, a take, a counter bump,
/// setting `done`, a map insert or remove) leaves the state valid, and
/// teardown also runs on the unwind path, where followers must still be
/// released.
pub(crate) struct WatchLog {
    state: Mutex<LogState>,
    cond: Condvar,
    /// Registered under an id: the log keeps every frame for
    /// attachers. Otherwise its one follower takes what it sends.
    replayable: bool,
}

#[derive(Default)]
struct LogState {
    /// Rendered wire lines: the whole stream when replayable, else
    /// the frames not yet taken by the origin's writer.
    frames: Vec<String>,
    /// Sealed: the answer frame is in, the race unwound, or (when not
    /// replayable) the one follower is gone. Later emits are dropped,
    /// so nothing trails the answer.
    done: bool,
    /// Frames dropped at [`WATCH_QUEUE_CAP`].
    dropped: u64,
}

impl WatchLog {
    fn new(replayable: bool) -> WatchLog {
        WatchLog {
            state: Mutex::new(LogState::default()),
            cond: Condvar::new(),
            replayable,
        }
    }

    /// Appends `last` (exempt from the cap) unless already sealed,
    /// seals the log and wakes every follower. Returns the drop count.
    fn seal(&self, last: Option<String>) -> u64 {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if !s.done {
            s.frames.extend(last);
            s.done = true;
        }
        let dropped = s.dropped;
        drop(s);
        self.cond.notify_all();
        dropped
    }

    /// Streams the log to `sock` from its first frame: replays what is
    /// there, then blocks for live frames until the log is sealed and
    /// drained. Returns the first write error (a timed-out write to a
    /// subscriber that stopped reading included).
    pub(crate) fn follow(&self, sock: &mut TcpStream) -> std::io::Result<()> {
        let mut next = 0;
        loop {
            let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            while s.frames.len() == next && !s.done {
                s = self.cond.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            let batch: Vec<String> = if self.replayable {
                let batch = s.frames.iter().skip(next).cloned().collect();
                next = s.frames.len();
                batch
            } else {
                std::mem::take(&mut s.frames)
            };
            let done = s.done;
            drop(s);
            if batch.is_empty() && done {
                return Ok(());
            }
            for line in batch {
                write_line(sock, line)?;
            }
        }
    }
}

impl WatchSink for WatchLog {
    fn emit(&self, frame: &Frame) {
        let line = frame.to_json().encode();
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.done {
            return;
        }
        if !self.replayable && s.frames.len() >= WATCH_QUEUE_CAP {
            s.dropped += 1;
            return;
        }
        s.frames.push(line);
        drop(s);
        self.cond.notify_all();
    }
}

/// The in-flight watched races that carry a request id, for re-attach
/// (`{"cmd":"watch","request":ID}`). An entry lives exactly as long as
/// its race: registered by [`WatchHub::subscribe`], removed just before
/// the answer frame.
#[derive(Default)]
pub(crate) struct WatchHub {
    logs: Mutex<HashMap<String, Arc<WatchLog>>>,
}

impl WatchHub {
    /// Opens one watched race's log and starts the origin's writer
    /// thread following it onto `sock`. `Ok(None)` when another
    /// in-flight race holds `id`: attach must be unambiguous.
    pub(crate) fn subscribe<'a>(
        &'a self,
        id: Option<&'a str>,
        sock: &TcpStream,
    ) -> std::io::Result<Option<Subscription<'a>>> {
        let log = Arc::new(WatchLog::new(id.is_some()));
        if let Some(rid) = id {
            let mut logs = self.logs.lock().unwrap_or_else(PoisonError::into_inner);
            if logs.contains_key(rid) {
                return Ok(None);
            }
            logs.insert(rid.to_string(), Arc::clone(&log));
        }
        // From here on the guard's Drop rolls the registration back.
        let mut sub = Subscription {
            hub: self,
            id,
            log,
            writer: None,
        };
        let mut sock = sock.try_clone()?;
        let log = Arc::clone(&sub.log);
        let writer = std::thread::Builder::new()
            .name("serve-watch-writer".into())
            .spawn(move || {
                let result = log.follow(&mut sock);
                if result.is_err() && !log.replayable {
                    log.seal(None); // nothing else holds these frames
                }
                result
            })?;
        sub.writer = Some(writer);
        Ok(Some(sub))
    }

    /// The log of the in-flight race registered under `id`, if any.
    pub(crate) fn attach(&self, id: &str) -> Option<Arc<WatchLog>> {
        let logs = self.logs.lock().unwrap_or_else(PoisonError::into_inner);
        logs.get(id).cloned()
    }
}

/// One watched race's subscription: its log, the origin's writer
/// thread and its hub registration.
pub(crate) struct Subscription<'a> {
    hub: &'a WatchHub,
    id: Option<&'a str>,
    log: Arc<WatchLog>,
    writer: Option<JoinHandle<std::io::Result<()>>>,
}

impl Subscription<'_> {
    /// The sink the race emits into.
    pub(crate) fn sink(&self) -> Arc<dyn WatchSink> {
        Arc::clone(&self.log) as Arc<dyn WatchSink>
    }

    /// Ends the stream with `body` as the `{"frame":"answer",...}`
    /// line, seals the log and joins the origin's writer, so the socket
    /// is quiescent when the connection loop resumes. Returns the
    /// frames dropped at the cap, and an error when the origin's socket
    /// broke or timed out mid-stream — the connection may hold a
    /// half-written frame and must be closed, not reused.
    pub(crate) fn finish(mut self, body: Json) -> (u64, std::io::Result<()>) {
        let answer = match body {
            Json::Obj(mut fields) => {
                fields.insert(0, ("frame".into(), "answer".into()));
                Json::Obj(fields)
            }
            other => other,
        };
        // Deregister BEFORE the answer goes out: a client that has seen
        // it must find the id gone. An attacher that got the log just
        // before still follows it to the answer.
        self.deregister();
        let dropped = self.log.seal(Some(answer.encode()));
        let result = match self.writer.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(std::io::Error::other("watch writer panicked")),
            None => Ok(()),
        };
        (dropped, result)
    }

    /// Drops the id registration — only while the hub still maps it to
    /// *this* log (`Arc::ptr_eq`), so a late drop can never unhook
    /// another race that registered the id after ours left the map.
    fn deregister(&self) {
        let Some(rid) = self.id else { return };
        let mut logs = self.hub.logs.lock().unwrap_or_else(PoisonError::into_inner);
        if logs.get(rid).is_some_and(|l| Arc::ptr_eq(l, &self.log)) {
            logs.remove(rid);
        }
    }
}

impl Drop for Subscription<'_> {
    /// Idempotent after [`Subscription::finish`]; on the unwind path it
    /// frees the id and releases every follower (the origin's writer
    /// drains the sealed log and exits on its own — no join while
    /// unwinding).
    fn drop(&mut self) {
        self.deregister();
        self.log.seal(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::trace::Payload;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::time::Duration;

    /// A fresh localhost socket pair: the server side a log follows
    /// onto, and the client side a test reads (or stalls) at will.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        (server_side, client)
    }

    /// Reads `client` until EOF into (line count, hash of the line
    /// sequence, last line) — a 160k-frame stream compared without
    /// holding it in memory.
    fn digest_lines(client: TcpStream) -> std::thread::JoinHandle<(usize, u64, String)> {
        std::thread::spawn(move || {
            let mut h = DefaultHasher::new();
            let (mut n, mut last) = (0, String::new());
            for line in BufReader::new(client).lines().map_while(Result::ok) {
                line.hash(&mut h);
                n += 1;
                last = line;
            }
            (n, h.finish(), last)
        })
    }

    fn answer() -> Json {
        Json::Obj(vec![("status".into(), "ok".into())])
    }

    const ANSWER_LINE: &str = r#"{"frame":"answer","status":"ok"}"#;

    fn sample_frame() -> Frame {
        Frame {
            member: 1,
            model: "island",
            payload: Payload::Sample(ga::stats::GenerationSample {
                island: Some(3),
                generation: 1_000,
                evaluations: 48_000,
                best_cost: 1_234.0,
                mean_cost: 1_400.5,
                diversity: 0.123_456_789,
                since_improvement: 17,
                migration: true,
            }),
        }
    }

    /// A watcher that stops reading must cost the race nothing: 160k
    /// emits (~30 MB of sample frames, far beyond any kernel send +
    /// receive buffer) return while the client reads nothing. Without
    /// an id the log holds at most the cap plus the answer and drops
    /// (counts) the rest; with an id the log keeps the stream for
    /// attachers, so nothing is dropped: once the client reads, the
    /// origin gets every frame then the answer, and an attacher's
    /// replay of the same log is byte-identical to it.
    #[test]
    fn watch_sink_drops_frames_for_a_stalled_subscriber_without_blocking() {
        const EMITS: usize = 160_000;
        let frame = sample_frame();
        let full_stream = {
            let mut h = DefaultHasher::new();
            let line = frame.to_json().encode();
            for _ in 0..EMITS {
                line.hash(&mut h);
            }
            ANSWER_LINE.hash(&mut h);
            h.finish()
        };
        for id in [None, Some("stalled")] {
            let hub = WatchHub::default();
            let (server_side, client) = socket_pair();
            let sub = hub.subscribe(id, &server_side).unwrap().unwrap();
            let sink = sub.sink();
            let mut peak = 0;
            for _ in 0..EMITS {
                sink.emit(&frame);
                peak = peak.max(sub.log.state.lock().unwrap().frames.len());
            }
            let attached = id.map(|rid| hub.attach(rid).expect("registered"));
            let reader = digest_lines(client);
            let (dropped, io) = sub.finish(answer());
            io.unwrap();
            drop(server_side);
            let (n, hash, last) = reader.join().unwrap();
            assert_eq!(last, ANSWER_LINE, "{id:?}: the answer arrives, last");
            match attached {
                None => {
                    assert!(peak <= WATCH_QUEUE_CAP + 1, "held {peak} frames");
                    assert!(dropped > 0, "overflow beyond the cap is dropped");
                    assert!(n < EMITS + 1, "some frames were shed");
                }
                Some(log) => {
                    assert_eq!(dropped, 0, "an attachable log drops nothing");
                    assert_eq!((n, hash), (EMITS + 1, full_stream));
                    let (mut att_server, att_client) = socket_pair();
                    let replay = digest_lines(att_client);
                    log.follow(&mut att_server).unwrap();
                    drop(att_server);
                    assert_eq!(replay.join().unwrap(), (n, hash, last));
                }
            }
        }
    }

    /// A subscriber that never reads times the origin's writer out
    /// instead of pinning it: `finish` returns an error (the
    /// connection is then closed) rather than joining forever.
    #[test]
    fn finish_fails_instead_of_hanging_on_a_subscriber_that_never_reads() {
        let hub = WatchHub::default();
        let (server_side, _client) = socket_pair();
        server_side
            .set_write_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let sub = hub.subscribe(Some("stuck"), &server_side).unwrap().unwrap();
        let sink = sub.sink();
        for _ in 0..160_000 {
            sink.emit(&sample_frame());
        }
        let (dropped, io) = sub.finish(answer());
        assert_eq!(dropped, 0);
        assert!(io.is_err(), "a stalled subscriber fails the stream");
    }

    /// Emits after the answer — the straggler case: a pooled member
    /// popped just before cancellation can finish after `race`
    /// returned at the deadline — are dropped, so the answer frame
    /// stays the last line on the socket (framing of later requests on
    /// the connection survives) and in the log (attach replays match
    /// the origin stream).
    #[test]
    fn watch_sink_silences_straggler_emits_after_close() {
        let hub = WatchHub::default();
        let (server_side, client) = socket_pair();
        let sub = hub.subscribe(Some("late"), &server_side).unwrap().unwrap();
        let sink = sub.sink();
        let log = hub.attach("late").unwrap();
        let frame = |payload| Frame {
            member: 1,
            model: "island",
            payload,
        };
        sink.emit(&frame(Payload::Start { elapsed_us: 3 }));
        let reader = digest_lines(client);
        let (dropped, io) = sub.finish(answer());
        assert_eq!(dropped, 0);
        io.unwrap();
        sink.emit(&frame(Payload::Finish {
            elapsed_us: 9,
            best: 55.0,
        }));
        let s = log.state.lock().unwrap();
        assert!(s.done, "the answer seals the log");
        assert_eq!(s.frames.len(), 2, "nothing trails the answer");
        assert_eq!(s.frames[1], ANSWER_LINE);
        drop(s);
        drop(server_side);
        let (n, _, last) = reader.join().unwrap();
        assert_eq!((n, last.as_str()), (2, ANSWER_LINE));
    }

    /// A subscription deregisters twice: in `finish`, before the answer
    /// goes out, and again when dropped after joining its writer.
    /// Another race may claim the id in between; the late
    /// deregistration must leave that race registered.
    #[test]
    fn a_late_deregistration_never_unhooks_a_race_that_reused_the_id() {
        let hub = WatchHub::default();
        let (server_side, _client) = socket_pair();
        let first = hub
            .subscribe(Some("reused"), &server_side)
            .unwrap()
            .unwrap();
        first.deregister(); // as `finish` does before its answer
        let second = hub
            .subscribe(Some("reused"), &server_side)
            .unwrap()
            .unwrap();
        drop(first);
        let registered = hub.attach("reused").expect("the new race stays attachable");
        assert!(Arc::ptr_eq(&registered, &second.log));
    }
}
