//! Transport abstraction (TCP or Unix-domain sockets) and a small
//! blocking request/response client used by the harness, the tests, and
//! the load generator's control path.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::proto::{
    encode_request, FrameError, FrameReader, RequestFrame, ResponseFrame, StatsWire, WireRequest,
    WireResponse,
};

/// Where a server listens or a client connects: `tcp:HOST:PORT` or
/// `uds:PATH`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP socket address (host:port; port 0 lets the kernel choose).
    Tcp(String),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl Endpoint {
    /// Parse `tcp:HOST:PORT` or `uds:PATH`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("tcp endpoint needs HOST:PORT".into());
            }
            Ok(Endpoint::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("uds:") {
            if path.is_empty() {
                return Err("uds endpoint needs a path".into());
            }
            Ok(Endpoint::Uds(PathBuf::from(path)))
        } else {
            Err(format!("endpoint {s:?} must start with tcp: or uds:"))
        }
    }

    /// Bind a listener; returns it plus the concrete bound endpoint
    /// (resolving a `tcp:...:0` port request).
    pub fn listen(&self) -> io::Result<(Listener, Endpoint)> {
        match self {
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let bound = Endpoint::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), bound))
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                // A previous unclean exit (SIGKILL) leaves the socket file
                // behind; re-binding over it is part of crash recovery.
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                Ok((Listener::Unix(l), self.clone()))
            }
            #[cfg(not(unix))]
            Endpoint::Uds(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are unix-only",
            )),
        }
    }

    /// Connect with a timeout (TCP honors it during connect; UDS connect
    /// is local and immediate).
    pub fn connect(&self, timeout: Duration) -> io::Result<Stream> {
        match self {
            Endpoint::Tcp(addr) => {
                let mut last = io::Error::new(io::ErrorKind::NotFound, "no address resolved");
                for sa in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sa, timeout) {
                        Ok(s) => {
                            s.set_nodelay(true)?;
                            return Ok(Stream::Tcp(s));
                        }
                        Err(e) => last = e,
                    }
                }
                Err(last)
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => Ok(Stream::Unix(UnixStream::connect(path)?)),
            #[cfg(not(unix))]
            Endpoint::Uds(_) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets are unix-only",
            )),
        }
    }
}

impl core::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// A bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Toggle non-blocking accepts (the accept loop waits in
    /// `Listener::wait_acceptable` between attempts).
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
        }
    }

    /// Wait up to `timeout` for a connection to accept. Returns when one
    /// is waiting, when the wait times out, or when a signal interrupts
    /// it, so an accept loop re-checks its shutdown flag at least once
    /// per `timeout`.
    pub(crate) fn wait_acceptable(&self, timeout: Duration) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::fd::AsRawFd;
            let fd = match self {
                Listener::Tcp(l) => l.as_raw_fd(),
                Listener::Unix(l) => l.as_raw_fd(),
            };
            crate::os::wait_readable(fd, timeout)
        }
        #[cfg(not(unix))]
        {
            std::thread::sleep(timeout.min(Duration::from_millis(5)));
            Ok(())
        }
    }

    /// Accept one connection.
    pub fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

/// A connected byte stream over either transport.
#[derive(Debug)]
pub enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    /// Clone the handle (shared underlying socket) so one thread can read
    /// while another writes.
    pub fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// Bound the time a single `read` may block.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Bound the time a single `write` may block.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// Close both directions.
    pub fn shutdown(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

fn frame_err(e: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Read frames from `stream` into `reader` until one response is
/// available or `deadline` passes.
pub fn read_response(
    stream: &mut Stream,
    reader: &mut FrameReader,
    deadline: Instant,
) -> io::Result<ResponseFrame> {
    loop {
        if let Some(resp) = reader.next_response().map_err(frame_err)? {
            return Ok(resp);
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "timed out waiting for a response frame",
            ));
        }
        stream.set_read_timeout(Some((deadline - now).min(Duration::from_millis(100))))?;
        match reader.fill_from(stream) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
}

/// A simple blocking one-request-at-a-time client.
#[derive(Debug)]
pub struct Client {
    stream: Stream,
    reader: FrameReader,
    scratch: Vec<u8>,
    next_id: u64,
    /// Per-call response deadline.
    pub timeout: Duration,
}

impl Client {
    /// Connect to `ep`.
    pub fn connect(ep: &Endpoint, timeout: Duration) -> io::Result<Self> {
        let stream = ep.connect(timeout)?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream,
            reader: FrameReader::new(),
            scratch: Vec::with_capacity(64),
            next_id: 1,
            timeout,
        })
    }

    /// Wrap an already-connected stream.
    pub fn from_stream(stream: Stream, timeout: Duration) -> Self {
        Self {
            stream,
            reader: FrameReader::new(),
            scratch: Vec::with_capacity(64),
            next_id: 1,
            timeout,
        }
    }

    /// Send raw bytes (fuzzing helper — deliberately not a valid frame).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Wait for the next response frame regardless of id.
    pub fn recv(&mut self) -> io::Result<ResponseFrame> {
        read_response(
            &mut self.stream,
            &mut self.reader,
            Instant::now() + self.timeout,
        )
    }

    /// Issue `req` and wait for its response.
    pub fn call(&mut self, req: WireRequest) -> io::Result<ResponseFrame> {
        let req_id = self.next_id;
        self.next_id += 1;
        self.scratch.clear();
        encode_request(&mut self.scratch, &RequestFrame { req_id, req });
        self.stream.write_all(&self.scratch)?;
        let deadline = Instant::now() + self.timeout;
        loop {
            let resp = read_response(&mut self.stream, &mut self.reader, deadline)?;
            if resp.req_id == req_id {
                return Ok(resp);
            }
            // A stale response from a previous timed-out call; skip it.
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(WireRequest::Ping)?.resp {
            WireResponse::Pong => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected Pong, got {other:?}"),
            )),
        }
    }

    /// Counter snapshot.
    pub fn stats(&mut self) -> io::Result<StatsWire> {
        match self.call(WireRequest::Stats)?.resp {
            WireResponse::StatsOk(s) => Ok(s),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected StatsOk, got {other:?}"),
            )),
        }
    }

    /// Read a line; the server's typed rejection becomes the `Err` of the
    /// inner result.
    pub fn read(&mut self, la: u64) -> io::Result<Result<srbsg_pcm::LineData, WireResponse>> {
        match self.call(WireRequest::Read { la })?.resp {
            WireResponse::ReadOk { data, .. } => Ok(Ok(data)),
            other => Ok(Err(other)),
        }
    }

    /// Write a line; `Ok(Ok(retries))` once the write is durable.
    pub fn write(
        &mut self,
        la: u64,
        data: srbsg_pcm::LineData,
    ) -> io::Result<Result<u32, WireResponse>> {
        match self.call(WireRequest::Write { la, data })?.resp {
            WireResponse::WriteOk { retries, .. } => Ok(Ok(retries)),
            other => Ok(Err(other)),
        }
    }

    /// Close the connection.
    pub fn close(self) {
        self.stream.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_parse_roundtrip() {
        let e = Endpoint::parse("tcp:127.0.0.1:0").unwrap();
        assert_eq!(e, Endpoint::Tcp("127.0.0.1:0".into()));
        assert_eq!(e.to_string(), "tcp:127.0.0.1:0");
        let u = Endpoint::parse("uds:/tmp/x.sock").unwrap();
        assert_eq!(u.to_string(), "uds:/tmp/x.sock");
        assert!(Endpoint::parse("http:foo").is_err());
        assert!(Endpoint::parse("tcp:").is_err());
        assert!(Endpoint::parse("uds:").is_err());
    }

    #[test]
    fn tcp_listen_resolves_port_zero() {
        let (l, bound) = Endpoint::parse("tcp:127.0.0.1:0")
            .unwrap()
            .listen()
            .unwrap();
        match &bound {
            Endpoint::Tcp(addr) => assert!(!addr.ends_with(":0"), "{addr}"),
            other => panic!("{other:?}"),
        }
        drop(l);
    }

    #[cfg(unix)]
    #[test]
    fn uds_listen_rebinds_over_stale_socket() {
        let path = std::env::temp_dir().join(format!("srbsg_uds_{}.sock", std::process::id()));
        let ep = Endpoint::Uds(path.clone());
        let (l1, _) = ep.listen().unwrap();
        drop(l1);
        // The socket file is still on disk; a crashed server must rebind.
        let (l2, _) = ep.listen().unwrap();
        drop(l2);
        let _ = std::fs::remove_file(&path);
    }
}
