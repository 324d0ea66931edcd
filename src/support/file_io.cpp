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

bool replaceFile(const std::string &path, const std::string &bytes) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0)
    return false; // nothing was created, so nothing to remove
  bool ok = true;
  for (std::size_t done = 0; ok && done < bytes.size();) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0 && errno == EINTR)
      continue;
    ok = n > 0;
    if (ok)
      done += static_cast<std::size_t>(n);
  }
  // close() is where a full disk can surface on some file systems.
  ok = ::close(fd) == 0 && ok;
  if (ok && ::rename(tmp.c_str(), path.c_str()) == 0)
    return true;
  ::unlink(tmp.c_str());
  return false;
}

} // namespace mira
