#include "support/cache_store.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/binary_io.h"
#include "support/fault_injection.h"
#include "support/hash.h"

namespace mira {

namespace fs = std::filesystem;

namespace {

// Entry layout: [magic u32][version u32][payloadSize u64][payloadHash u64]
// followed by payloadSize payload bytes. All integers little-endian
// (written/read on the same architecture; the cache is host-local).
constexpr std::uint32_t kCacheMagic = 0x4172694d; // "MirA"
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 8;
constexpr const char *kEntrySuffix = ".mira";

std::string keyFileName(std::uint64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx%s",
                static_cast<unsigned long long>(key), kEntrySuffix);
  return buf;
}

bool isEntryName(const std::string &name) {
  const std::size_t suffixLen = std::strlen(kEntrySuffix);
  if (name.size() != 16 + suffixLen)
    return false;
  if (name.compare(16, suffixLen, kEntrySuffix) != 0)
    return false;
  return name.find_first_not_of("0123456789abcdef") == 16;
}

/// An in-flight (or orphaned) temporary from the write protocol below.
bool isTempName(const std::string &name) {
  return name.size() > 5 && name.front() == '.' &&
         name.compare(name.size() - 4, 4, ".tmp") == 0;
}

/// Unique-per-writer temporary name in the cache directory, so concurrent
/// stores (threads or processes) never scribble on each other's
/// half-written files; the final rename is what publishes an entry.
std::string tempFileName(std::uint64_t key) {
  static std::atomic<std::uint64_t> counter{0};
  const unsigned long pid = static_cast<unsigned long>(::getpid());
  char buf[96];
  std::snprintf(buf, sizeof(buf), ".%016llx.%lu.%llu.tmp",
                static_cast<unsigned long long>(key), pid,
                static_cast<unsigned long long>(
                    counter.fetch_add(1, std::memory_order_relaxed)));
  return buf;
}

} // namespace

CacheStore::CacheStore(std::string directory, std::uint64_t bytesLimit)
    : directory_(std::move(directory)), bytes_limit_(bytesLimit) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  usable_ = !directory_.empty() && fs::is_directory(directory_, ec);
  // approx_bytes_ only feeds the over-limit check, so an uncapped store
  // skips the seed scan (which on a large long-lived directory is the
  // whole construction cost).
  if (usable_ && bytes_limit_ != 0)
    approx_bytes_ = totalBytes(); // one scan; stores update incrementally
}

std::string CacheStore::pathForKey(std::uint64_t key) const {
  return (fs::path(directory_) / keyFileName(key)).string();
}

std::optional<std::string> CacheStore::load(std::uint64_t key) {
  return read(key, /*touch=*/true);
}

std::optional<std::string> CacheStore::peek(std::uint64_t key) {
  return read(key, /*touch=*/false);
}

std::optional<std::string> CacheStore::read(std::uint64_t key, bool touch) {
  const auto miss = [&]() -> std::optional<std::string> {
    if (!touch)
      return std::nullopt;
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  };
  if (!usable_)
    return miss();
  const std::string path = pathForKey(key);
  // POSIX reads, not an ifstream: a stream throws out of a failed read of
  // a directory, and opening a FIFO blocks until a writer comes. A
  // non-blocking open returns at once, and only a regular file is read;
  // anything else at an entry path is a miss and stays where it is.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK);
  if (fd < 0)
    return miss();
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode))
    return miss();
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR)
      continue;
    if (n < 0)
      return miss(); // EIO and friends: unreadable, not proven corrupt
    if (n == 0)
      break; // shorter than fstat said: the size check below rejects it
    got += static_cast<std::size_t>(n);
  }
  bytes.resize(got);

  // Every rejection below is some flavor of corruption (truncation, a
  // foreign file, a torn payload): unlink the entry so it cannot waste a
  // validation pass on every future lookup. A peek (touch == false) must
  // stay side-effect free even here — the next real load will do the
  // unlinking.
  const auto reject = [&]() -> std::optional<std::string> {
    if (!touch)
      return std::nullopt;
    std::error_code ec;
    fs::remove(path, ec);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.corrupt;
    ++stats_.misses;
    approx_bytes_ -= std::min<std::uint64_t>(approx_bytes_, bytes.size());
    return std::nullopt;
  };

  bio::Reader header{bytes, 0};
  std::uint32_t magic = 0, version = 0;
  std::uint64_t payloadSize = 0, payloadHash = 0;
  if (!header.u32(magic) || !header.u32(version) ||
      !header.u64(payloadSize) || !header.u64(payloadHash))
    return reject();
  if (magic != kCacheMagic)
    return reject();
  if (version != kCacheSchemaVersion) {
    // A well-formed entry from another schema version is not corrupt —
    // unlinking it would let two binary versions sharing one directory
    // destroy each other's caches. Miss; our own store() will replace
    // it with this version's result.
    return miss();
  }
  if (bytes.size() != kHeaderSize + payloadSize)
    return reject();
  if (fnv1a(bytes.data() + kHeaderSize, payloadSize) != payloadHash)
    return reject();

  if (touch) {
    // Touch the entry so mtime approximates recency for LRU eviction.
    ::futimens(fd, nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
  }
  bytes.erase(0, kHeaderSize); // the payload, in place
  return bytes;
}

std::vector<std::uint64_t> CacheStore::keys() const {
  std::vector<std::uint64_t> out;
  std::error_code ec;
  for (const auto &it : fs::directory_iterator(directory_, ec)) {
    const std::string name = it.path().filename().string();
    if (!isEntryName(name))
      continue;
    out.push_back(std::strtoull(name.substr(0, 16).c_str(), nullptr, 16));
  }
  return out;
}

bool CacheStore::remove(std::uint64_t key) {
  if (!usable_)
    return false;
  const std::string path = pathForKey(key);
  std::error_code sizeEc;
  const std::uint64_t size = fs::file_size(path, sizeEc);
  std::error_code ec;
  if (!fs::remove(path, ec) || ec)
    return false;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sizeEc)
    approx_bytes_ -= std::min(approx_bytes_, size);
  return true;
}

bool CacheStore::store(std::uint64_t key, const std::string &payload) {
  if (!usable_)
    return false;
  // Injection point: a failed store means "not cached" and callers
  // degrade to recompute, exactly like a full disk or unwritable dir.
  if (fault::shouldFail("cache-write"))
    return false;

  std::string bytes;
  bytes.reserve(kHeaderSize + payload.size());
  bio::putU32(bytes, kCacheMagic);
  bio::putU32(bytes, kCacheSchemaVersion);
  bio::putU64(bytes, payload.size());
  bio::putU64(bytes, fnv1a(payload));
  bytes += payload;

  const fs::path dir(directory_);
  const fs::path tmp = dir / tempFileName(key);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return false;
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  const fs::path target = dir / keyFileName(key);
  std::error_code sizeEc;
  const std::uint64_t replacedSize = fs::file_size(target, sizeEc);
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  bool overLimit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.stores;
    if (!sizeEc)
      approx_bytes_ -= std::min(approx_bytes_, replacedSize);
    approx_bytes_ += bytes.size();
    overLimit = bytes_limit_ != 0 && approx_bytes_ > bytes_limit_;
  }
  if (overLimit)
    evictToFit(key);
  return true;
}

void CacheStore::evictToFit(std::uint64_t protectedKey) {
  // One evictor at a time; loads and stores keep flowing meanwhile. The
  // scan below measures the real total, which also resynchronizes the
  // incremental approx_bytes_ estimate after any concurrent-replace
  // drift.
  std::lock_guard<std::mutex> evictLock(evict_mutex_);
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  // Temp files older than this are orphans of a crashed writer (live
  // writes last milliseconds); the eviction pass reclaims them so
  // repeated crashes cannot grow the directory without bound.
  const auto staleTempCutoff =
      fs::file_time_type::clock::now() - std::chrono::hours(1);
  for (const auto &it : fs::directory_iterator(directory_, ec)) {
    const std::string name = it.path().filename().string();
    if (!isEntryName(name)) {
      if (isTempName(name)) {
        std::error_code fec;
        const auto mtime = fs::last_write_time(it.path(), fec);
        if (!fec && mtime < staleTempCutoff)
          fs::remove(it.path(), fec);
      }
      continue;
    }
    std::error_code fec;
    const std::uint64_t size = it.file_size(fec);
    const auto mtime = fs::last_write_time(it.path(), fec);
    if (fec)
      continue; // raced with a concurrent remove; skip
    entries.push_back({it.path(), mtime, size});
    total += size;
  }
  std::size_t evicted = 0;
  if (total > bytes_limit_) {
    std::sort(entries.begin(), entries.end(), [](const Entry &a,
                                                 const Entry &b) {
      return a.mtime < b.mtime;
    });
    const std::string keep = keyFileName(protectedKey);
    for (const Entry &entry : entries) {
      if (total <= bytes_limit_)
        break;
      if (entry.path.filename().string() == keep)
        continue;
      std::error_code rec;
      if (fs::remove(entry.path, rec)) {
        total -= entry.size;
        ++evicted;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stats_.evictions += evicted;
  approx_bytes_ = total;
}

void CacheStore::clear() {
  if (!usable_)
    return;
  std::error_code ec;
  for (const auto &it : fs::directory_iterator(directory_, ec)) {
    const std::string name = it.path().filename().string();
    // Entries and write-protocol temp files (including orphans from
    // crashed writers) both go; a concurrent writer whose temp vanishes
    // sees a failed rename, i.e. "not cached" — clear is destructive by
    // intent. Anything else in the directory is foreign and kept.
    if (!isEntryName(name) && !isTempName(name))
      continue;
    std::error_code rec;
    fs::remove(it.path(), rec);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  approx_bytes_ = 0;
}

CacheStoreStats CacheStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t CacheStore::entryCount() const {
  std::size_t count = 0;
  std::error_code ec;
  for (const auto &it : fs::directory_iterator(directory_, ec))
    if (isEntryName(it.path().filename().string()))
      ++count;
  return count;
}

std::uint64_t CacheStore::totalBytes() const {
  std::size_t entries = 0;
  std::uint64_t total = 0;
  usage(entries, total);
  return total;
}

void CacheStore::usage(std::size_t &entries, std::uint64_t &bytes) const {
  entries = 0;
  bytes = 0;
  std::error_code ec;
  for (const auto &it : fs::directory_iterator(directory_, ec)) {
    if (!isEntryName(it.path().filename().string()))
      continue;
    ++entries;
    std::error_code fec;
    const std::uint64_t size = it.file_size(fec);
    if (!fec)
      bytes += size;
  }
}

} // namespace mira
