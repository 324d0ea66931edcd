/// \file
/// Stream-socket transports and length-prefixed frame I/O.
///
/// The serving subsystem (server/) moves protocol messages as frames: a
/// little-endian u32 byte count followed by that many payload bytes
/// (the count excludes itself). This header owns the two halves every
/// peer needs — RAII file descriptors with listen/connect/accept on
/// AF_UNIX and TCP (AF_INET/AF_INET6) stream sockets, and
/// readFrame/writeFrame built on loop-until-done send/recv — so the
/// daemon, the client library, the fleet coordinator, and the protocol
/// tests all share one framing implementation regardless of transport.
/// Frame reads never trust the wire: the declared length is capped by
/// the caller, and short reads surface as distinct FrameStatus values
/// (docs/PROTOCOL.md specifies the behavior peers may rely on).
#pragma once

#include <cstdint>
#include <string>

namespace mira::net {

/// Owning wrapper around a POSIX file descriptor. Move-only; closes on
/// destruction. An fd of -1 means "no socket" (failed open, moved-from).
class Socket {
public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket &&other) noexcept;
  Socket &operator=(Socket &&other) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Close now (idempotent); valid() is false afterwards.
  void close();

  /// shutdown(2) the read half. A peer blocked in recv on the other end
  /// of this fd sees EOF; pending writes are unaffected. Used by the
  /// server to unblock idle connection readers at shutdown.
  void shutdownRead();

  /// shutdown(2) both halves. Our own blocked reads *and* writes return
  /// immediately. Used by the server to force-close connections that
  /// outlive the graceful-drain deadline.
  void shutdownBoth();

private:
  int fd_ = -1;
};

/// Bind and listen on a Unix-domain stream socket at `path`.
///
/// A stale socket file (left by a crashed daemon) is detected by
/// attempting to connect: connection-refused means no live listener, so
/// the file is unlinked and the path reused. If a listener answers, the
/// bind fails — two daemons must not fight over one path. On any
/// failure returns an invalid Socket and sets `error` to a description.
Socket listenUnix(const std::string &path, std::string &error);

/// Connect to a listening Unix-domain socket at `path`. Returns an
/// invalid Socket and sets `error` on failure.
Socket connectUnix(const std::string &path, std::string &error);

/// Accept one connection; blocks. Returns an invalid Socket when the
/// listening socket is closed or on error.
Socket acceptConnection(const Socket &listener);

/// Split a `HOST:PORT` endpoint spec on its *last* colon (so bracketed
/// or bare IPv6 literals keep their internal colons). Port 0 is allowed
/// for listeners (kernel-assigned port); empty host means "all
/// interfaces" for listeners. Returns false and sets `error` when the
/// spec has no colon or the port is not a number in [0, 65535].
bool parseHostPort(const std::string &spec, std::string &host,
                   std::uint16_t &port, std::string &error);

/// Bind and listen on a TCP stream socket at `host:port`.
///
/// `host` is resolved with getaddrinfo (numeric literals and names both
/// work; empty binds the wildcard address). `port` 0 asks the kernel
/// for an ephemeral port — read it back with boundPort(). SO_REUSEADDR
/// is set so restarts don't trip over TIME_WAIT. On any failure returns
/// an invalid Socket and sets `error` to a description.
Socket listenTcp(const std::string &host, std::uint16_t port,
                 std::string &error);

/// Connect to a TCP listener at `host:port`, failing after
/// `timeoutMillis` (<= 0 means block indefinitely). The connect runs
/// non-blocking under poll(2) so an unreachable host errors out in
/// bounded time; the returned socket is blocking with TCP_NODELAY set
/// (frames are latency-sensitive request/reply units). Returns an
/// invalid Socket and sets `error` on failure.
Socket connectTcp(const std::string &host, std::uint16_t port,
                  int timeoutMillis, std::string &error);

/// The locally bound port of a socket (listener or connection). Returns
/// 0 when the fd is invalid or not an inet socket — Unix-domain sockets
/// have no port. Lets callers pass port 0 to listenTcp and discover the
/// kernel-assigned port.
std::uint16_t boundPort(const Socket &sock);

/// Arm SO_RCVTIMEO so blocked recv calls fail with EAGAIN after
/// `millis` (<= 0 disables the timeout). Frame reads then surface as
/// FrameStatus::ioError instead of hanging forever on a stalled peer.
bool setReadTimeout(int fd, int millis);

/// Outcome of readFrame, in decreasing order of normality.
enum class FrameStatus {
  ok,        ///< a complete frame was read
  closed,    ///< clean EOF before any byte of this frame
  truncated, ///< peer closed (or errored) mid-frame
  oversized, ///< declared length exceeds the caller's cap
  ioError,   ///< recv failed outright
};

/// Write `payload.size()` as little-endian u32, then the payload bytes,
/// in one sendmsg when the socket takes them all. Loops over partial
/// sends; false on any send failure.
bool writeFrame(int fd, const std::string &payload);

/// Read one frame into `payload`. `maxBytes` caps the declared length;
/// an oversized declaration is reported *without* reading the body, so
/// the caller can answer with an error before closing. The body buffer
/// grows with the bytes received, not with the declared length. Anything
/// but FrameStatus::ok leaves `payload` empty.
FrameStatus readFrame(int fd, std::string &payload, std::uint32_t maxBytes);

} // namespace mira::net
