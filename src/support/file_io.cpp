#include "support/file_io.h"

#include <cerrno>

#include <fcntl.h>
#include <unistd.h>

namespace mira {

bool readFile(const std::string &path, std::string &bytes) {
  // POSIX reads, not a stream: `in >> rdbuf()` reports a failed read of
  // a directory as an empty file, and an istreambuf_iterator throws out
  // of it.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0)
    return false;
  std::string out;
  char buffer[64 * 1024];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) != 0) {
    if (n < 0 && errno == EINTR)
      continue;
    if (n < 0)
      break; // EISDIR for a directory, EIO, ...
    out.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (n < 0)
    return false;
  bytes = std::move(out);
  return true;
}

} // namespace mira
