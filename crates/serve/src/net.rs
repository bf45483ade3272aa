//! One listener type and one stream type over both transports, TCP and
//! Unix-domain sockets, shared by the daemon and the load client.

use crate::server::Endpoint;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// A bound, non-blocking listening socket. A Unix socket's file is
/// removed when its listener drops, so a daemon's shutdown leaves no
/// socket file behind.
pub(crate) enum Listener {
    Tcp(TcpListener),
    Uds(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `endpoint`. A socket file left at a Unix path by a dead
    /// process blocks bind; taking it over is standard daemon behavior.
    pub(crate) fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        let listener = match endpoint {
            Endpoint::Tcp(addr) => Listener::Tcp(TcpListener::bind(addr)?),
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(path);
                Listener::Uds(UnixListener::bind(path)?, path.clone())
            }
        };
        match &listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Uds(l, _) => l.set_nonblocking(true)?,
        }
        Ok(listener)
    }

    /// A TCP listener's bound address (useful with port 0).
    pub(crate) fn tcp_addr(&self) -> Option<io::Result<SocketAddr>> {
        match self {
            Listener::Tcp(l) => Some(l.local_addr()),
            Listener::Uds(..) => None,
        }
    }

    /// Takes one pending connection, or fails with `WouldBlock` when
    /// none is pending. TCP connections get `TCP_NODELAY`.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true).ok();
                Ok(Stream::Tcp(stream))
            }
            Listener::Uds(l, _) => l.accept().map(|(stream, _)| Stream::Uds(stream)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Uds(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A connected, blocking byte stream.
pub(crate) enum Stream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

/// Evaluates `$body` with `$s` bound to the socket `$stream` wraps.
macro_rules! on_socket {
    ($stream:expr, $s:ident => $body:expr) => {
        match $stream {
            Stream::Tcp($s) => $body,
            Stream::Uds($s) => $body,
        }
    };
}

impl Stream {
    /// Connects to `endpoint`. TCP connections get `TCP_NODELAY`.
    pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
        Ok(match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)?;
                stream.set_nodelay(true).ok();
                Stream::Tcp(stream)
            }
            Endpoint::Uds(path) => Stream::Uds(UnixStream::connect(path)?),
        })
    }

    /// A second handle on the same socket, e.g. its write half.
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            Stream::Uds(s) => Stream::Uds(s.try_clone()?),
        })
    }

    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        on_socket!(self, s => s.set_read_timeout(timeout))
    }

    /// Bounds how long one `write` may block without progress; it then
    /// fails with `WouldBlock` (or `TimedOut`). The timeout belongs to
    /// the socket, so it covers every handle on it.
    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        on_socket!(self, s => s.set_write_timeout(timeout))
    }

    /// Shuts both directions down, for every handle on the socket.
    pub(crate) fn shutdown(&self) -> io::Result<()> {
        on_socket!(self, s => s.shutdown(Shutdown::Both))
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        on_socket!(self, s => s.read(buf))
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        on_socket!(self, s => s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        on_socket!(self, s => s.flush())
    }
}
