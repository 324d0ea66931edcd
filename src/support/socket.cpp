#include "support/socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "support/fault_injection.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

namespace mira::net {

namespace {

std::string errnoString(const std::string &what) {
  return what + ": " + std::strerror(errno);
}

/// Fill a sockaddr_un; false when `path` does not fit sun_path (the
/// kernel limit is ~108 bytes and silently truncating would bind a
/// different path than the one the operator asked for).
bool makeAddress(const std::string &path, sockaddr_un &addr,
                 std::string &error) {
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    error = "socket path '" + path + "' is empty or longer than " +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes";
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

} // namespace

Socket::~Socket() { close(); }

Socket::Socket(Socket &&other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket &Socket::operator=(Socket &&other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdownRead() {
  if (fd_ >= 0)
    ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdownBoth() {
  if (fd_ >= 0)
    ::shutdown(fd_, SHUT_RDWR);
}

Socket listenUnix(const std::string &path, std::string &error) {
  sockaddr_un addr;
  if (!makeAddress(path, addr, error))
    return Socket();

  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) {
    error = errnoString("socket");
    return Socket();
  }
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
             sizeof(addr)) != 0) {
    if (errno != EADDRINUSE) {
      error = errnoString("bind");
      return Socket();
    }
    // The path exists. Only ever reclaim an actual socket: a typo'd
    // --socket pointing at a regular file must fail loudly, not delete
    // the user's data.
    struct stat st;
    if (::lstat(path.c_str(), &st) != 0 || !S_ISSOCK(st.st_mode)) {
      error = "path '" + path + "' exists and is not a socket";
      return Socket();
    }
    // A live daemon answers a connect; a stale socket left by a crashed
    // daemon refuses it and is safe to reclaim.
    std::string probeError;
    Socket probe = connectUnix(path, probeError);
    if (probe.valid()) {
      error = "another daemon is already listening on '" + path + "'";
      return Socket();
    }
    if (::unlink(path.c_str()) != 0) {
      error = errnoString("unlink stale socket");
      return Socket();
    }
    if (::bind(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0) {
      error = errnoString("bind");
      return Socket();
    }
  }
  if (::listen(sock.fd(), 64) != 0) {
    error = errnoString("listen");
    ::unlink(path.c_str());
    return Socket();
  }
  return sock;
}

Socket connectUnix(const std::string &path, std::string &error) {
  sockaddr_un addr;
  if (!makeAddress(path, addr, error))
    return Socket();
  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) {
    error = errnoString("socket");
    return Socket();
  }
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr *>(&addr),
                sizeof(addr)) != 0) {
    error = errnoString("connect to '" + path + "'");
    return Socket();
  }
  return sock;
}

Socket acceptConnection(const Socket &listener) {
  for (;;) {
    int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      // Frames are request/reply units; on TCP connections Nagle
      // batching only adds latency. Harmlessly ENOTSUP on AF_UNIX.
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR)
      continue;
    return Socket();
  }
}

bool parseHostPort(const std::string &spec, std::string &host,
                   std::uint16_t &port, std::string &error) {
  // Split on the *last* colon so IPv6 literals ("::1:9000",
  // "[::1]:9000") keep their internal colons in the host part.
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    error = "endpoint '" + spec + "' is not HOST:PORT";
    return false;
  }
  std::string hostPart = spec.substr(0, colon);
  if (hostPart.size() >= 2 && hostPart.front() == '[' &&
      hostPart.back() == ']')
    hostPart = hostPart.substr(1, hostPart.size() - 2);
  const std::string portPart = spec.substr(colon + 1);
  if (portPart.empty() ||
      portPart.find_first_not_of("0123456789") != std::string::npos) {
    error = "endpoint '" + spec + "' has a non-numeric port";
    return false;
  }
  unsigned long value = 0;
  try {
    value = std::stoul(portPart);
  } catch (const std::exception &) {
    value = 65536; // overflow: fall through to the range check
  }
  if (value > 65535) {
    error = "endpoint '" + spec + "' port is out of range";
    return false;
  }
  host = hostPart;
  port = static_cast<std::uint16_t>(value);
  return true;
}

namespace {

/// getaddrinfo wrapper; the caller owns the returned list via
/// freeaddrinfo. `passive` selects listener semantics (wildcard bind
/// when host is empty).
addrinfo *resolve(const std::string &host, std::uint16_t port, bool passive,
                  std::string &error) {
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = passive ? AI_PASSIVE : 0;
  addrinfo *result = nullptr;
  const std::string portStr = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               portStr.c_str(), &hints, &result);
  if (rc != 0) {
    error = "resolve '" + host + "': " + ::gai_strerror(rc);
    return nullptr;
  }
  return result;
}

void setNoDelay(int fd) {
  // Frames are request/reply units; Nagle batching only adds latency.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

Socket listenTcp(const std::string &host, std::uint16_t port,
                 std::string &error) {
  addrinfo *list = resolve(host, port, /*passive=*/true, error);
  if (!list)
    return Socket();
  Socket sock;
  for (addrinfo *ai = list; ai; ai = ai->ai_next) {
    Socket candidate(
        ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) {
      error = errnoString("socket");
      continue;
    }
    int one = 1;
    ::setsockopt(candidate.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(candidate.fd(), ai->ai_addr, ai->ai_addrlen) != 0) {
      error = errnoString("bind " + host + ":" + std::to_string(port));
      continue;
    }
    if (::listen(candidate.fd(), 64) != 0) {
      error = errnoString("listen");
      continue;
    }
    sock = std::move(candidate);
    break;
  }
  ::freeaddrinfo(list);
  return sock;
}

Socket connectTcp(const std::string &host, std::uint16_t port,
                  int timeoutMillis, std::string &error) {
  addrinfo *list = resolve(host, port, /*passive=*/false, error);
  if (!list)
    return Socket();
  Socket sock;
  for (addrinfo *ai = list; ai; ai = ai->ai_next) {
    Socket candidate(
        ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) {
      error = errnoString("socket");
      continue;
    }
    if (timeoutMillis <= 0) {
      if (::connect(candidate.fd(), ai->ai_addr, ai->ai_addrlen) != 0) {
        error = errnoString("connect to " + host + ":" + std::to_string(port));
        continue;
      }
      sock = std::move(candidate);
      break;
    }
    // Bounded connect: go non-blocking, start the connect, poll for
    // writability, then check SO_ERROR for the real outcome.
    const int flags = ::fcntl(candidate.fd(), F_GETFL, 0);
    ::fcntl(candidate.fd(), F_SETFL, flags | O_NONBLOCK);
    int rc = ::connect(candidate.fd(), ai->ai_addr, ai->ai_addrlen);
    if (rc != 0 && errno != EINPROGRESS) {
      error = errnoString("connect to " + host + ":" + std::to_string(port));
      continue;
    }
    if (rc != 0) {
      pollfd pfd = {candidate.fd(), POLLOUT, 0};
      int ready;
      do {
        ready = ::poll(&pfd, 1, timeoutMillis);
      } while (ready < 0 && errno == EINTR);
      if (ready <= 0) {
        error = ready == 0 ? "connect to " + host + ":" +
                                 std::to_string(port) + ": timed out"
                           : errnoString("poll");
        continue;
      }
      int soError = 0;
      socklen_t len = sizeof(soError);
      ::getsockopt(candidate.fd(), SOL_SOCKET, SO_ERROR, &soError, &len);
      if (soError != 0) {
        error = "connect to " + host + ":" + std::to_string(port) + ": " +
                std::strerror(soError);
        continue;
      }
    }
    ::fcntl(candidate.fd(), F_SETFL, flags);
    sock = std::move(candidate);
    break;
  }
  ::freeaddrinfo(list);
  if (sock.valid())
    setNoDelay(sock.fd());
  return sock;
}

std::uint16_t boundPort(const Socket &sock) {
  if (!sock.valid())
    return 0;
  sockaddr_storage addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr *>(&addr), &len) != 0)
    return 0;
  if (addr.ss_family == AF_INET)
    return ntohs(reinterpret_cast<const sockaddr_in *>(&addr)->sin_port);
  if (addr.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<const sockaddr_in6 *>(&addr)->sin6_port);
  return 0;
}

bool setReadTimeout(int fd, int millis) {
  timeval tv;
  tv.tv_sec = millis > 0 ? millis / 1000 : 0;
  tv.tv_usec = millis > 0 ? (millis % 1000) * 1000 : 0;
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

namespace {

/// Send every byte of `parts[0, count)` with as few sendmsg calls as the
/// socket allows: one when its buffer has room for the whole frame, so a
/// reader blocked in recv wakes once per frame. Consumes `parts`.
bool sendAll(int fd, iovec *parts, std::size_t count) {
  while (count > 0) {
    msghdr message{};
    message.msg_iov = parts;
    message.msg_iovlen = count;
    // MSG_NOSIGNAL: a peer that vanished mid-reply must surface as a
    // failed send, not a process-killing SIGPIPE.
    ssize_t sent = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    auto left = static_cast<std::size_t>(sent);
    for (; count > 0 && left >= parts->iov_len; ++parts, --count)
      left -= parts->iov_len;
    if (count > 0) {
      parts->iov_base = static_cast<char *>(parts->iov_base) + left;
      parts->iov_len -= left;
    }
  }
  return true;
}

/// The first read of a frame body, in bytes; each later read at most
/// doubles what has arrived.
constexpr std::size_t kFirstBodyStep = 64 * 1024;

/// Read exactly `size` bytes. `sawAnyByte` distinguishes clean EOF (peer
/// closed between frames) from truncation (closed mid-frame).
FrameStatus recvAll(int fd, char *data, std::size_t size, bool &sawAnyByte) {
  while (size > 0) {
    ssize_t got = ::recv(fd, data, size, 0);
    if (got < 0) {
      if (errno == EINTR)
        continue;
      return FrameStatus::ioError;
    }
    if (got == 0)
      return sawAnyByte ? FrameStatus::truncated : FrameStatus::closed;
    sawAnyByte = true;
    data += got;
    size -= static_cast<std::size_t>(got);
  }
  return FrameStatus::ok;
}

} // namespace

bool writeFrame(int fd, const std::string &payload) {
  // Injection point: a failing/stalling frame write models a wedged or
  // vanished peer at an arbitrary point in the reply stream.
  if (fault::shouldFail("frame-write"))
    return false;
  char header[4];
  const auto size = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i)
    header[i] = static_cast<char>((size >> (8 * i)) & 0xff);
  iovec parts[2] = {{header, sizeof(header)},
                    {const_cast<char *>(payload.data()), payload.size()}};
  return sendAll(fd, parts, 2);
}

FrameStatus readFrame(int fd, std::string &payload, std::uint32_t maxBytes) {
  payload.clear();
  char header[4];
  bool sawAnyByte = false;
  FrameStatus status = recvAll(fd, header, sizeof(header), sawAnyByte);
  if (status != FrameStatus::ok)
    return status;
  std::uint32_t size = 0;
  for (int i = 3; i >= 0; --i)
    size = (size << 8) | static_cast<std::uint8_t>(header[i]);
  if (size > maxBytes)
    return FrameStatus::oversized;
  // The body buffer grows with the bytes received: each step asks for
  // at most max(kFirstBodyStep, received) more, so a header that claims
  // the cap and sends nothing costs the reader one step, not the claimed
  // size.
  std::string body;
  std::size_t received = 0;
  while (received < size) {
    const std::size_t step =
        std::min<std::size_t>(size - received,
                              std::max(kFirstBodyStep, received));
    body.resize(received + step);
    status = recvAll(fd, body.data() + received, step, sawAnyByte);
    if (status == FrameStatus::closed)
      status = FrameStatus::truncated; // header arrived, body did not
    if (status != FrameStatus::ok)
      return status;
    received += step;
  }
  payload = std::move(body);
  return FrameStatus::ok;
}

} // namespace mira::net
