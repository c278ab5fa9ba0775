//! The transport abstraction and its blocking TCP implementation.
//!
//! ## Why a trait, and why no async
//!
//! This workspace is built entirely against vendored, dependency-free
//! shims — there is no tokio (or any async runtime) to link. The service
//! therefore speaks blocking I/O on OS threads: [`Transport`] hands out
//! connections, and the server (see [`crate::server`]) runs one reader
//! thread per connection via `std::thread::scope`. Every [`Connection`]
//! detaches a send side ([`ConnectionWriter`]), which the connection's
//! request workers share, so every connection is pipelined. The traits
//! keep the service core and server loop independent of the socket layer,
//! so tests can drive the server over an in-process transport, and an
//! async or TLS front-end later only has to implement these three small
//! traits — nothing in the protocol or accounting layers would change.
//!
//! ## Request size cap
//!
//! A request line is read into memory before parsing, so an unbounded
//! line would let one peer grow the server's memory without limit.
//! [`TcpConnection::receive`] therefore refuses lines longer than
//! [`MAX_LINE_BYTES`] with a protocol error (answered in-band by the
//! server before the connection closes — the stream cannot be
//! resynchronized mid-line). The cap is far above any real request: plan
//! documents for the largest supported cubes are well under a megabyte.
//!
//! ## Shutdown
//!
//! `TcpListener::accept` has no portable timeout, so [`TcpTransport`]
//! stops by flipping an `AtomicBool` and then connecting to *itself* once:
//! the self-connection wakes the blocked `accept`, which observes the flag
//! and reports the transport closed.

use std::io::{BufRead as _, BufReader, IoSlice, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::error::ServiceError;
use crate::fail_point;

/// Maps a socket error to the typed service error: deadline expiries
/// become the retryable [`ServiceError::Timeout`] (`WouldBlock` is what
/// Unix returns for a timed-out read/write on a stream with a deadline;
/// `TimedOut` is the Windows spelling), everything else stays I/O.
fn io_to_service(e: std::io::Error, during: &str) -> ServiceError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ServiceError::Timeout(during.to_string())
        }
        _ => ServiceError::Io(e.to_string()),
    }
}

/// Longest accepted request line, in bytes (16 MiB). See the module docs.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// A send-only handle onto a connection, detachable from the receive
/// side so responses can be written from a different thread than the one
/// reading requests — the server uses this to handle a connection's
/// requests concurrently (pipelining).
pub trait ConnectionWriter: Send {
    /// Sends one response line.
    fn send(&mut self, line: &str) -> Result<(), ServiceError>;
}

/// One line-oriented peer connection: a receive side the server reads on
/// one thread, and a send side it detaches for the connection's request
/// workers.
pub trait Connection: Send {
    /// Receives the next request line, `None` when the peer hung up.
    fn receive(&mut self) -> Result<Option<String>, ServiceError>;
    /// A detached send side. An error means the connection cannot be
    /// served, and the server closes it.
    fn writer(&self) -> Result<Box<dyn ConnectionWriter>, ServiceError>;
}

/// A listener producing [`Connection`]s until shut down.
pub trait Transport: Sync {
    /// The connection type this transport produces.
    type Conn: Connection;
    /// Blocks for the next connection; `None` once the transport is shut
    /// down. Transient accept failures are reported as errors, not `None`.
    fn accept(&self) -> Result<Option<Self::Conn>, ServiceError>;
    /// The address clients should dial, as a display string.
    fn local_addr(&self) -> String;
    /// Asks `accept` to stop; idempotent, callable from any thread.
    fn shutdown(&self);
}

/// A line-delimited connection over one TCP stream.
pub struct TcpConnection {
    reader: BufReader<TcpStream>,
    writer: TcpWriter,
}

impl TcpConnection {
    /// Wraps an already-connected stream (the client side dials and then
    /// hands the stream here).
    pub fn from_stream(stream: TcpStream) -> Result<TcpConnection, ServiceError> {
        // One request line, one response line: Nagle buys nothing here and
        // its interaction with delayed ACKs costs tens of ms per call.
        stream.set_nodelay(true)?;
        let writer = TcpWriter {
            writer: stream.try_clone()?,
        };
        Ok(TcpConnection {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one line from the receiving thread (the client's side). A
    /// failure leaves the socket to the caller, which drops it.
    pub fn send(&mut self, line: &str) -> Result<(), ServiceError> {
        self.writer.try_send(line)
    }
}

impl Connection for TcpConnection {
    fn receive(&mut self) -> Result<Option<String>, ServiceError> {
        fail_point!("net.recv");
        let mut line = String::new();
        // `take` bounds how much one line can pull into memory; the one
        // extra byte distinguishes "exactly at the cap" from "over it".
        let n = match (&mut self.reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_line(&mut line)
        {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(ServiceError::Protocol(
                    "request line is not valid UTF-8".into(),
                ));
            }
            Err(e) => return Err(io_to_service(e, "read")),
        };
        if n == 0 {
            return Ok(None);
        }
        if n > MAX_LINE_BYTES && !line.ends_with('\n') {
            return Err(ServiceError::Protocol(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            )));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(Some(line))
    }

    fn writer(&self) -> Result<Box<dyn ConnectionWriter>, ServiceError> {
        Ok(Box::new(TcpWriter {
            writer: self.writer.writer.try_clone()?,
        }))
    }
}

/// The send side of a [`TcpConnection`] (another handle on the same
/// socket).
struct TcpWriter {
    writer: TcpStream,
}

impl TcpWriter {
    /// The one send body of both sides, so chaos schedules over the
    /// `net.send` failpoint see each line exactly once.
    fn try_send(&mut self, line: &str) -> Result<(), ServiceError> {
        fail_point!("net.send");
        write_line(&mut self.writer, line).map_err(|e| io_to_service(e, "write"))
    }
}

/// Writes `line` and its newline with one vectored write: one syscall and,
/// on a `TCP_NODELAY` socket, one segment train instead of a second
/// segment for the `\n`. A short write continues where it stopped.
fn write_line(out: &mut impl Write, line: &str) -> std::io::Result<()> {
    let line = line.as_bytes();
    let mut written = 0;
    while written <= line.len() {
        let sent = if written < line.len() {
            out.write_vectored(&[IoSlice::new(&line[written..]), IoSlice::new(b"\n")])
        } else {
            out.write(b"\n")
        };
        match sent {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl ConnectionWriter for TcpWriter {
    fn send(&mut self, line: &str) -> Result<(), ServiceError> {
        let result = self.try_send(line);
        if result.is_err() {
            // A response is now lost; the stream cannot be trusted. Close
            // both directions so the peer sees the drop *immediately*
            // (instead of timing out waiting for the lost line) and the
            // server's reader thread unblocks.
            let _ = self.writer.shutdown(std::net::Shutdown::Both);
        }
        result
    }
}

/// Blocking TCP transport (see the module docs for shutdown mechanics).
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
    stopping: AtomicBool,
}

impl TcpTransport {
    /// Binds the listener. Use port 0 to let the OS pick a free port;
    /// [`Transport::local_addr`] reports the resolved address.
    pub fn bind(addr: &str) -> Result<TcpTransport, ServiceError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport {
            listener,
            addr,
            stopping: AtomicBool::new(false),
        })
    }
}

impl Transport for TcpTransport {
    type Conn = TcpConnection;

    fn accept(&self) -> Result<Option<TcpConnection>, ServiceError> {
        if self.stopping.load(Ordering::SeqCst) {
            return Ok(None);
        }
        let (stream, _) = self.listener.accept()?;
        if self.stopping.load(Ordering::SeqCst) {
            // This is (or raced with) the self-connect wake-up.
            return Ok(None);
        }
        TcpConnection::from_stream(stream).map(Some)
    }

    fn local_addr(&self) -> String {
        self.addr.to_string()
    }

    fn shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop; failure just means nothing was blocked
        // (or the listener is already gone), which is fine.
        let _ = TcpStream::connect(self.addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_lines_roundtrip_and_shutdown_wakes_accept() {
        let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = transport.local_addr();

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut conn = transport.accept().unwrap().expect("one connection");
                let line = conn.receive().unwrap().unwrap();
                conn.send(&format!("echo:{line}")).unwrap();
                assert!(conn.receive().unwrap().is_none(), "peer hangs up");
            });

            let stream = TcpStream::connect(&addr).unwrap();
            let mut conn = TcpConnection::from_stream(stream).unwrap();
            conn.send("hello").unwrap();
            assert_eq!(conn.receive().unwrap().unwrap(), "echo:hello");
            drop(conn);
        });

        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| transport.accept().unwrap());
            transport.shutdown();
            assert!(waiter.join().unwrap().is_none());
            transport.shutdown(); // idempotent
        });
        assert!(transport.accept().unwrap().is_none(), "stays shut down");
    }

    /// Accepts at most `limit` bytes per call, across every buffer of a
    /// vectored write, the way a socket with a full send buffer returns
    /// short writes.
    struct Trickle {
        out: Vec<u8>,
        limit: usize,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for buf in bufs {
                let take = buf.len().min(self.limit - n);
                self.out.extend_from_slice(&buf[..take]);
                n += take;
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_line_and_its_newline_go_out_in_one_write_or_resume_after_a_short_one() {
        for (line, limit) in [("", 1), ("abc", 64), ("abc", 1), ("abc", 3), ("abcdef", 4)] {
            let mut out = Trickle {
                out: Vec::new(),
                limit,
                calls: 0,
            };
            write_line(&mut out, line).unwrap();
            assert_eq!(
                out.out,
                format!("{line}\n").as_bytes(),
                "{line:?} by {limit}"
            );
            if limit > line.len() {
                assert_eq!(out.calls, 1, "{line:?}: one write for line and newline");
            }
        }
    }

    #[test]
    fn oversized_lines_are_refused_without_buffering_them() {
        let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = transport.local_addr();

        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut conn = transport.accept().unwrap().expect("one connection");
                assert!(matches!(
                    conn.receive(),
                    Err(ServiceError::Protocol(m)) if m.contains("exceeds")
                ));
                // Dropping `conn` closes the socket, unblocking the writer.
            });

            let mut stream = TcpStream::connect(&addr).unwrap();
            let chunk = vec![b'a'; 1 << 20];
            // 17 MiB with no newline; the server stops reading at the cap
            // and closes, so later writes may fail — that is the point.
            for _ in 0..17 {
                use std::io::Write as _;
                if stream.write_all(&chunk).is_err() {
                    break;
                }
            }
            server.join().unwrap();
        });
    }

    #[test]
    fn non_utf8_input_is_a_protocol_error() {
        let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = transport.local_addr();

        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut conn = transport.accept().unwrap().expect("one connection");
                assert!(matches!(
                    conn.receive(),
                    Err(ServiceError::Protocol(m)) if m.contains("UTF-8")
                ));
            });

            let mut stream = TcpStream::connect(&addr).unwrap();
            use std::io::Write as _;
            stream.write_all(b"\xff\xfe{\"op\": \"ping\"}\n").unwrap();
        });
    }
}
