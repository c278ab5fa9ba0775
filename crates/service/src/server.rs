//! The threaded server loop: one OS thread per connection over any
//! [`Transport`].
//!
//! ## Pipelining
//!
//! Every connection is pipelined: requests are handled **concurrently per
//! connection**. The reader thread keeps pulling lines while up to
//! `PIPELINE_MAX_INFLIGHT` (64) earlier requests execute on the
//! connection's request workers, and responses go out as each finishes —
//! possibly out of request order. Clients that pipeline keyed releases
//! match responses by the echoed `request_id`; clients that send one
//! request and wait (every pre-pipelining client) observe no difference.
//! This is what lets one connection keep the accountant's group committer
//! fed: k requests in flight land in the same fsync batch instead of
//! queuing one-per-sync. A connection whose send side
//! ([`Connection::writer`]) cannot be detached is closed unserved.
//!
//! Request workers are scoped threads that stay **parked** between
//! requests for the life of their connection. The reader parses each line
//! and hands the parsed value to a parked worker, and starts a new worker
//! only when every worker is busy and fewer than 64 requests are in
//! flight: a closed-loop connection runs on one worker throughout, and a
//! pipelined window of k requests starts at most k. When the reader stops
//! (end of stream, a receive error, a dead send side, an authorized
//! `shutdown`) it wakes every parked worker; they finish what was already
//! handed over and exit with the connection. A request whose parsed `op`
//! is `shutdown` is the one exception to the hand-over: the reader waits
//! for every earlier response, then runs it itself, so nothing races the
//! stop.
//!
//! Every request line is answered with exactly one response line. A line
//! that decodes but fails to parse or execute is answered in-band with the
//! typed error encoding and the connection stays open. So is a request
//! whose handler panics: the panic is caught and answered with the typed
//! `internal` error, and the thread that ran it keeps serving. Input after
//! which the line stream cannot be resynchronized (an over-long line, bytes
//! that are not UTF-8) is answered in-band best-effort and then the
//! connection is closed. A transient `accept` failure (e.g.
//! `ECONNABORTED`, or `EMFILE` under fd pressure) is logged and retried
//! with backoff rather than stopping the whole multi-tenant service; only
//! a persistently failing listener is fatal. An *authorized* `shutdown` request is
//! acknowledged to its sender, after which the transport stops accepting;
//! in-flight connections drain before [`Server::run`] returns.
//!
//! ## Overload shedding
//!
//! With a connection cap ([`ServerLimits`]), a connection accepted at the
//! cap is answered one in-band typed `overloaded` error and closed, and
//! no handler thread is spawned for it — bounding both thread count and
//! per-connection memory. Clients see the typed, retryable
//! [`ServiceError::Overloaded`] and back off; nothing is charged.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::error::ServiceError;
use crate::protocol::{error_response, parse_line, render_line, Request};
use crate::service::DpService;
use crate::transport::{Connection, Transport};
use serde::Value;

/// Consecutive `accept` failures tolerated (with backoff) before the
/// listener is declared dead and [`Server::run`] returns the error.
const MAX_ACCEPT_FAILURES: u32 = 64;

/// Requests one connection may have in flight at once, and so the most
/// request workers it ever starts; further lines wait in the reader
/// thread (natural backpressure through the socket).
const PIPELINE_MAX_INFLIGHT: usize = 64;

/// The pause after the `failures`-th consecutive accept failure: 10 ms
/// doubling to a 1.28 s ceiling — long enough for fd pressure to drain,
/// short enough to stay live.
fn accept_backoff(failures: u32) -> Duration {
    Duration::from_millis(10 << failures.saturating_sub(1).min(7))
}

/// Runs `f` with a panic caught and turned into the typed `internal`
/// error, so a panicking request never unwinds into its connection: the
/// thread, its in-flight slot and the connection survive, and a keyed
/// release it had already debited replays on retry.
fn catch_panic<R>(f: impl FnOnce() -> Result<R, ServiceError>) -> Result<R, ServiceError> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let reason = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("unknown cause");
        Err(ServiceError::Internal(format!(
            "request handler panicked: {reason}"
        )))
    })
}

/// The in-band reply line for a typed error. Rendered before a
/// connection's writer is locked, like every reply, so the lock covers
/// only the socket write.
fn error_line(error: &ServiceError) -> Arc<str> {
    render_line(&error_response(error)).into()
}

/// Resource bounds for a [`Server`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLimits {
    /// Connections served concurrently; further accepts are shed in-band
    /// with the typed `overloaded` error. `None` = unbounded (the
    /// pre-limits behavior).
    pub max_connections: Option<usize>,
}

/// A service bound to a transport (see the module docs).
pub struct Server<T: Transport> {
    service: DpService,
    transport: T,
    limits: ServerLimits,
    active: Arc<AtomicUsize>,
}

/// RAII decrement of the live-connection count.
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

impl<T: Transport> Server<T> {
    /// Couples `service` to `transport` with no resource bounds.
    pub fn new(service: DpService, transport: T) -> Server<T> {
        Server::with_limits(service, transport, ServerLimits::default())
    }

    /// Couples `service` to `transport` under explicit resource bounds.
    pub fn with_limits(service: DpService, transport: T, limits: ServerLimits) -> Server<T> {
        Server {
            service,
            transport,
            limits,
            active: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The dialable address of the underlying transport.
    pub fn addr(&self) -> String {
        self.transport.local_addr()
    }

    /// The service core (exposed for pre-loading data and for tests).
    pub fn service(&self) -> &DpService {
        &self.service
    }

    /// Asks the accept loop to stop (callable from any thread while
    /// [`Server::run`] blocks another).
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }

    /// Serves until an authorized `shutdown` request arrives (or
    /// [`Server::shutdown`] is called), then drains in-flight connections
    /// and returns. Transient accept failures are retried with capped
    /// exponential backoff; 64 consecutive failures are treated as an
    /// unrecoverable listener and returned as the error.
    pub fn run(&self) -> Result<(), ServiceError> {
        std::thread::scope(|scope| {
            let mut failures = 0u32;
            loop {
                match self.transport.accept() {
                    Ok(Some(conn)) => {
                        failures = 0;
                        if let Some(cap) = self.limits.max_connections {
                            if self.active.load(Ordering::SeqCst) >= cap {
                                // Shed in-band on the accept thread — no
                                // handler thread, no request read, no
                                // charge. The client sees the typed,
                                // retryable `overloaded` error.
                                let shed = ServiceError::Overloaded {
                                    scope: "connections".into(),
                                };
                                let _ = conn.writer().and_then(|mut w| w.send(&error_line(&shed)));
                                continue;
                            }
                        }
                        self.active.fetch_add(1, Ordering::SeqCst);
                        let slot = ConnSlot(Arc::clone(&self.active));
                        scope.spawn(move || {
                            let _slot = slot;
                            self.handle_connection(conn);
                        });
                    }
                    Ok(None) => return Ok(()),
                    Err(e) => {
                        failures += 1;
                        if failures >= MAX_ACCEPT_FAILURES {
                            return Err(e);
                        }
                        eprintln!("accept failed ({failures} consecutive), retrying: {e}");
                        // The unit tests script 64 failures in a row and
                        // skip the real wait; the schedule has its own test.
                        if !cfg!(test) {
                            std::thread::sleep(accept_backoff(failures));
                        }
                    }
                }
            }
        })
    }

    /// Answers one parsed line: the handler's reply line, or the typed
    /// error it is answered with in-band.
    fn execute(&self, parsed: Result<Value, ServiceError>) -> Result<Arc<str>, ServiceError> {
        parsed.and_then(|value| {
            catch_panic(|| {
                let credential = value.get_field("auth").and_then(Value::as_str);
                self.service
                    .respond(Request::from_value(&value)?, credential)
            })
        })
    }

    /// Serves one connection (see the module docs): the reader keeps
    /// pulling request lines, parses each, and hands it to a parked
    /// request worker of this connection, starting one only when none is
    /// free; each worker sends its own response through the shared writer
    /// as it finishes, so responses may leave out of request order.
    /// Returns how many workers the connection started.
    fn handle_connection(&self, mut conn: T::Conn) -> usize {
        let writer = match conn.writer() {
            Ok(writer) => Mutex::new(writer),
            Err(e) => {
                eprintln!("closing a connection whose send side cannot be detached: {e}");
                return 0;
            }
        };
        let send = |line: &str| -> bool {
            writer
                .lock()
                .expect("connection writer mutex poisoned")
                .send(line)
                .is_ok()
        };
        let pipeline = Pipeline::default();
        std::thread::scope(|scope| {
            // Every way out of this loop wakes the parked workers, so they
            // exit and the scope can join them.
            let _close = CloseOnDrop(&pipeline);
            loop {
                let line = match conn.receive() {
                    Ok(Some(line)) => line,
                    Ok(None) => return,
                    Err(e) => {
                        // Mid-line or undecodable: answer best-effort
                        // in-band and close (no way to resynchronize).
                        // In-flight workers still send theirs first-come.
                        let _ = send(&error_line(&e));
                        return;
                    }
                };
                if line.trim().is_empty() {
                    continue;
                }
                let parsed = catch_panic(|| parse_line(&line));
                // Shutdown is handled inline, after the pipeline drains:
                // every already-admitted request gets its response before
                // the acknowledgement, and nothing races the stop. The op
                // is the decoded string, so an escaped spelling routes the
                // same way.
                let is_shutdown = parsed.as_ref().is_ok_and(|value| {
                    value.get_field("op").and_then(Value::as_str) == Some("shutdown")
                });
                if is_shutdown {
                    let mut state = pipeline.lock();
                    while state.inflight > 0 {
                        state = pipeline.wait_for_workers(state);
                    }
                    drop(state);
                    let answer = self.execute(parsed);
                    // Only an *authorized* shutdown stops the listener; a
                    // refused one is just an error response like any other.
                    let stop = answer.is_ok();
                    if !send(&answer.unwrap_or_else(|e| error_line(&e))) {
                        return;
                    }
                    if stop {
                        self.transport.shutdown();
                        return;
                    }
                    continue;
                }
                let mut state = pipeline.lock();
                while state.inflight >= PIPELINE_MAX_INFLIGHT && !state.dead {
                    state = pipeline.wait_for_workers(state);
                }
                if state.dead {
                    return; // the socket is gone; stop reading
                }
                state.inflight += 1;
                state.queue.push_back(parsed);
                // Workers not executing are parked or about to look for
                // work; each takes one queued line. Start another only if
                // the queue outnumbers them (never past the in-flight cap:
                // queued + executing ≤ in flight ≤ 64).
                if state.queue.len() > state.workers - state.executing {
                    state.workers += 1;
                    drop(state);
                    let (pipeline, send) = (&pipeline, &send);
                    scope.spawn(move || self.serve_pipeline(pipeline, send));
                } else if state.parked > 0 {
                    pipeline.work.notify_one();
                }
            }
        });
        pipeline
            .state
            .into_inner()
            .expect("pipeline mutex poisoned")
            .workers
    }

    /// One request worker of a connection: takes handed-over lines until
    /// the reader has closed and none is left, parking while there is
    /// nothing to do.
    fn serve_pipeline(&self, pipeline: &Pipeline, send: &(dyn Fn(&str) -> bool + Sync)) {
        let mut state = pipeline.lock();
        loop {
            let Some(parsed) = state.queue.pop_front() else {
                if state.closed {
                    return;
                }
                state.parked += 1;
                state = pipeline.work.wait(state).expect("pipeline mutex poisoned");
                state.parked -= 1;
                continue;
            };
            state.executing += 1;
            drop(state);
            let response = self.execute(parsed).unwrap_or_else(|e| error_line(&e));
            // Free before the response leaves: a closed-loop client's next
            // line then always finds this worker instead of starting one.
            pipeline.lock().executing -= 1;
            let sent = send(&response);
            state = pipeline.lock();
            state.inflight -= 1;
            state.dead |= !sent;
            if state.reader_waiting {
                pipeline.freed.notify_one();
            }
        }
    }
}

/// What a connection's reader and its request workers share (see
/// [`Server::handle_connection`]).
#[derive(Default)]
struct Pipeline {
    state: Mutex<PipelineState>,
    /// Parked workers wait here for a line, or for the reader to close.
    work: Condvar,
    /// The reader waits here for an in-flight slot, or for the drain
    /// before an inline `shutdown`.
    freed: Condvar,
}

#[derive(Default)]
struct PipelineState {
    /// Parsed lines handed over by the reader that no worker has taken
    /// yet.
    queue: VecDeque<Result<Value, ServiceError>>,
    /// Requests admitted and not yet answered: queued, executing or
    /// being sent.
    inflight: usize,
    /// Workers started on this connection.
    workers: usize,
    /// Workers inside [`Server::execute`].
    executing: usize,
    /// Workers waiting on [`Pipeline::work`].
    parked: usize,
    /// The reader is waiting on [`Pipeline::freed`].
    reader_waiting: bool,
    /// A response failed to send: the connection is dead and the reader
    /// stops.
    dead: bool,
    /// The reader is done; workers exit once the queue is empty.
    closed: bool,
}

impl Pipeline {
    fn lock(&self) -> MutexGuard<'_, PipelineState> {
        self.state.lock().expect("pipeline mutex poisoned")
    }

    /// Blocks the reader until a worker answers a request.
    fn wait_for_workers<'a>(
        &self,
        mut state: MutexGuard<'a, PipelineState>,
    ) -> MutexGuard<'a, PipelineState> {
        state.reader_waiting = true;
        let mut state = self.freed.wait(state).expect("pipeline mutex poisoned");
        state.reader_waiting = false;
        state
    }
}

/// Marks its pipeline closed and wakes every parked worker when the
/// reader leaves, however it leaves.
struct CloseOnDrop<'a>(&'a Pipeline);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.closed = true;
        if state.parked > 0 {
            self.0.work.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accountant::Accountant;
    use crate::transport::ConnectionWriter;
    use std::sync::mpsc;

    const PING: &str = "{\"op\": \"ping\"}";

    /// The response lines a mock connection has been sent, in order.
    #[derive(Default)]
    struct Sink {
        lines: Mutex<Vec<String>>,
        grew: Condvar,
    }

    impl Sink {
        fn push(&self, line: &str) {
            self.lines.lock().unwrap().push(line.into());
            self.grew.notify_all();
        }
        fn lines(&self) -> MutexGuard<'_, Vec<String>> {
            self.lines.lock().unwrap()
        }
        fn wait_for(&self, n: usize) {
            let mut lines = self.lines();
            while lines.len() < n {
                lines = self.grew.wait(lines).unwrap();
            }
        }
    }

    /// The detached send side of a [`MockConn`]. With `hold_first`, the
    /// first send waits until that sink has a line.
    struct MockWriter {
        sink: Arc<Sink>,
        hold_first: Option<Arc<Sink>>,
    }

    impl ConnectionWriter for MockWriter {
        fn send(&mut self, line: &str) -> Result<(), ServiceError> {
            if let Some(gate) = self.hold_first.take() {
                gate.wait_for(1);
            }
            self.sink.push(line);
            Ok(())
        }
    }

    /// A scripted connection: canned request lines in, responses recorded.
    /// With `hold`, the first receive blocks until the test releases it —
    /// a deterministic way to keep a connection "in flight". With
    /// `lockstep` it is a closed-loop client, handing out each line only
    /// once every earlier one is answered. With `hang_up`, the first
    /// response is held until the reader has read to the end of the
    /// script.
    struct MockConn {
        requests: VecDeque<Result<Option<String>, ServiceError>>,
        responses: Arc<Sink>,
        hold: Option<mpsc::Receiver<()>>,
        lockstep: bool,
        hang_up: Option<Arc<Sink>>,
        handed: usize,
    }

    impl MockConn {
        /// A connection sending `lines` and then hanging up.
        fn new<'a>(lines: impl IntoIterator<Item = &'a str>, responses: &Arc<Sink>) -> MockConn {
            MockConn {
                requests: lines.into_iter().map(|l| Ok(Some(l.into()))).collect(),
                responses: Arc::clone(responses),
                hold: None,
                lockstep: false,
                hang_up: None,
                handed: 0,
            }
        }
    }

    impl Connection for MockConn {
        fn receive(&mut self) -> Result<Option<String>, ServiceError> {
            if let Some(gate) = self.hold.take() {
                let _ = gate.recv();
            }
            if self.lockstep {
                self.responses.wait_for(self.handed);
                if self.requests.is_empty() {
                    // Let the worker that sent the last answer park before
                    // hanging up on it.
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            self.handed += 1;
            let next = self.requests.pop_front().unwrap_or(Ok(None));
            if let (Ok(None), Some(hang_up)) = (&next, &self.hang_up) {
                hang_up.push("hung up");
            }
            next
        }
        fn writer(&self) -> Result<Box<dyn ConnectionWriter>, ServiceError> {
            Ok(Box::new(MockWriter {
                sink: Arc::clone(&self.responses),
                hold_first: self.hang_up.clone(),
            }))
        }
    }

    /// A transport whose `accept` replays a script of errors and
    /// connections, then reports shutdown.
    struct MockTransport {
        script: Mutex<VecDeque<Result<Option<MockConn>, ServiceError>>>,
    }

    impl Transport for MockTransport {
        type Conn = MockConn;
        fn accept(&self) -> Result<Option<MockConn>, ServiceError> {
            self.script.lock().unwrap().pop_front().unwrap_or(Ok(None))
        }
        fn local_addr(&self) -> String {
            "mock".into()
        }
        fn shutdown(&self) {}
    }

    impl MockTransport {
        fn serving(conns: impl IntoIterator<Item = MockConn>) -> MockTransport {
            MockTransport {
                script: Mutex::new(conns.into_iter().map(|c| Ok(Some(c))).collect()),
            }
        }
    }

    #[test]
    fn transient_accept_errors_do_not_stop_the_server() {
        let responses = Arc::new(Sink::default());
        let conn = MockConn::new([PING], &responses);
        let transport = MockTransport {
            script: Mutex::new(VecDeque::from([
                Err(ServiceError::Io("connection aborted".into())),
                Err(ServiceError::Io("too many open files".into())),
                Ok(Some(conn)),
                Ok(None),
            ])),
        };
        let server = Server::new(DpService::new(Accountant::in_memory()), transport);
        // Two transient failures, then a served connection, then shutdown.
        server.run().unwrap();
        let responses = responses.lines();
        assert_eq!(responses.len(), 1);
        assert!(responses[0].contains("\"pong\":true"));
    }

    #[test]
    fn persistent_accept_failure_is_eventually_fatal() {
        let script: VecDeque<_> = (0..MAX_ACCEPT_FAILURES)
            .map(|_| Err(ServiceError::Io("boom".into())))
            .collect();
        let transport = MockTransport {
            script: Mutex::new(script),
        };
        let server = Server::new(DpService::new(Accountant::in_memory()), transport);
        assert!(matches!(server.run(), Err(ServiceError::Io(_))));
    }

    #[test]
    fn accept_backoff_doubles_from_10_ms_to_a_1_28_s_ceiling() {
        let millis: Vec<u128> = (1..=10).map(|f| accept_backoff(f).as_millis()).collect();
        assert_eq!(millis, [10, 20, 40, 80, 160, 320, 640, 1280, 1280, 1280]);
        assert_eq!(accept_backoff(MAX_ACCEPT_FAILURES).as_millis(), 1280);
    }

    #[test]
    fn receive_errors_are_answered_in_band_before_closing() {
        let responses = Arc::new(Sink::default());
        // Lockstep: the ping is answered before the receive error arrives,
        // so the two responses have a fixed order.
        let conn = MockConn {
            requests: VecDeque::from([
                Ok(Some(PING.into())),
                Err(ServiceError::Protocol("request line too long".into())),
                // Never reached: the connection closes on the error above.
                Ok(Some(PING.into())),
            ]),
            lockstep: true,
            ..MockConn::new([], &responses)
        };
        let server = Server::new(
            DpService::new(Accountant::in_memory()),
            MockTransport::serving([conn]),
        );
        server.run().unwrap();
        let responses = responses.lines();
        assert_eq!(responses.len(), 2, "error answered, then closed");
        assert!(responses[0].contains("\"pong\":true"));
        assert!(responses[1].contains("\"code\":\"protocol\""));
    }

    #[test]
    fn an_unauthorized_shutdown_does_not_stop_accepting() {
        use crate::auth::Auth;
        let refused = Arc::new(Sink::default());
        let granted = Arc::new(Sink::default());
        let conn_refused = MockConn::new(["{\"op\": \"shutdown\"}"], &refused);
        let conn_granted = MockConn::new(["{\"op\": \"shutdown\", \"auth\": \"admin\"}"], &granted);
        let service = DpService::with_auth(Accountant::in_memory(), Auth::operator("admin"));
        Server::new(
            service,
            MockTransport::serving([conn_refused, conn_granted]),
        )
        .run()
        .unwrap();
        assert!(refused.lines()[0].contains("\"code\":\"unauthorized\""));
        assert!(granted.lines()[0].contains("\"shutdown\":true"));
    }

    #[test]
    fn connections_past_the_cap_are_shed_in_band() {
        let (release_first, gate) = mpsc::channel();
        let first_responses = Arc::new(Sink::default());
        let shed_responses = Arc::new(Sink::default());
        let held_conn = MockConn {
            hold: Some(gate),
            ..MockConn::new([PING], &first_responses)
        };
        let shed_conn = MockConn::new([PING], &shed_responses);
        let server = Server::with_limits(
            DpService::new(Accountant::in_memory()),
            MockTransport::serving([held_conn, shed_conn]),
            ServerLimits {
                max_connections: Some(1),
            },
        );
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run().unwrap());
            // The second connection is shed on the accept thread while the
            // first is still held in flight; wait for that, then release.
            shed_responses.wait_for(1);
            release_first.send(()).unwrap();
            running.join().unwrap();
        });
        let shed = shed_responses.lines();
        assert_eq!(shed.len(), 1, "shed connections get exactly one line");
        assert!(shed[0].contains("\"code\":\"overloaded\""), "{}", shed[0]);
        assert!(shed[0].contains("\"scope\":\"connections\""), "{}", shed[0]);
        // The held connection was served normally once released.
        assert!(first_responses.lines()[0].contains("\"pong\":true"));
    }

    /// Runs `body` on its own thread and fails the test if it has not
    /// returned within 120 s: a lost wake-up in the pipeline hand-off
    /// shows as this timeout, not as a hung test run.
    fn within_watchdog<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || done.send(body()));
        finished
            .recv_timeout(Duration::from_secs(120))
            .expect("the connection did not finish within 120 s (or its thread panicked)")
    }

    /// Serves one connection to its end under the watchdog and returns
    /// how many request workers it started.
    fn serve(conn: MockConn) -> usize {
        within_watchdog(move || {
            let server = Server::new(
                DpService::new(Accountant::in_memory()),
                MockTransport::serving([]),
            );
            server.handle_connection(conn)
        })
    }

    #[test]
    fn a_closed_loop_connection_runs_on_one_parked_worker() {
        let responses = Arc::new(Sink::default());
        let conn = MockConn {
            lockstep: true,
            ..MockConn::new([PING; 500], &responses)
        };
        assert_eq!(serve(conn), 1, "one worker, reused for every request");
        let responses = responses.lines();
        assert_eq!(responses.len(), 500);
        assert!(responses.iter().all(|r| r.contains("\"pong\":true")));
    }

    #[test]
    fn a_burst_gets_one_response_per_line_from_at_most_64_workers() {
        let responses = Arc::new(Sink::default());
        let workers = serve(MockConn::new([PING; 200], &responses));
        assert!(
            (1..=PIPELINE_MAX_INFLIGHT).contains(&workers),
            "{workers} workers started"
        );
        let responses = responses.lines();
        assert_eq!(responses.len(), 200, "exactly one response per line");
        assert!(responses.iter().all(|r| r.contains("\"pong\":true")));
    }

    #[test]
    fn end_of_stream_with_parked_workers_returns_from_the_server() {
        let responses = Arc::new(Sink::default());
        let conn = MockConn {
            lockstep: true,
            ..MockConn::new([PING; 3], &responses)
        };
        // The worker is parked when the peer hangs up; the reader must wake
        // it so the connection's scope joins and `run` returns.
        within_watchdog(move || {
            Server::new(
                DpService::new(Accountant::in_memory()),
                MockTransport::serving([conn]),
            )
            .run()
            .unwrap()
        });
        assert_eq!(responses.lines().len(), 3);
    }

    #[test]
    fn a_shutdown_after_a_burst_is_answered_after_every_earlier_response() {
        let responses = Arc::new(Sink::default());
        let mut lines = vec![PING; 100];
        lines.push("{\"op\": \"shutdown\"}");
        serve(MockConn::new(lines, &responses));
        let responses = responses.lines();
        assert_eq!(responses.len(), 101);
        assert!(responses[..100].iter().all(|r| r.contains("\"pong\":true")));
        assert!(
            responses[100].contains("\"shutdown\":true"),
            "{}",
            responses[100]
        );
    }

    #[test]
    fn a_tenant_named_shutdown_is_not_drained_behind_earlier_requests() {
        let responses = Arc::new(Sink::default());
        let open = "{\"op\": \"open_tenant\", \"tenant\": \"shutdown\", \
                    \"budget\": {\"epsilon\": 1.0}}";
        // The ping's response is held until the reader hangs up, so a
        // reader that drained the pipeline before running the second line
        // would never get there.
        let conn = MockConn {
            hang_up: Some(Arc::new(Sink::default())),
            ..MockConn::new([PING, open], &responses)
        };
        serve(conn);
        let responses = responses.lines();
        assert_eq!(responses.len(), 2);
        // Two workers may answer, in either order.
        let (pong, opened): (Vec<_>, Vec<_>) =
            responses.iter().partition(|r| r.contains("\"pong\":true"));
        assert_eq!(pong.len(), 1, "{responses:?}");
        assert!(opened[0].contains("\"ok\":true"), "{}", opened[0]);
        assert!(!opened[0].contains("\"shutdown\":true"), "{}", opened[0]);
    }
}
