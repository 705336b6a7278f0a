#include "serve/disk_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace mcan::serve {
namespace {

constexpr std::string_view kPackName = "cells.pack";
constexpr std::string_view kRecordMagic = "MCPK";
constexpr std::size_t kHeaderSize = 24;
/// Longer than any CellKey::id(): a longer id field is a torn or rotted
/// header, not a record.
constexpr std::uint64_t kMaxIdLen = 256;

std::uint64_t record_hash(std::string_view id, std::string_view payload) {
  runner::Fingerprint fp;
  fp.mix_str(id);
  fp.mix_bytes(payload.data(), payload.size());
  return fp.digest();
}

void put_le(char* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<char>(v >> (8 * i));
  }
}

std::uint64_t get_le(const char* in, std::size_t bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

std::string encode_record(std::string_view id, std::string_view payload,
                          std::uint64_t hash) {
  std::string rec(kHeaderSize + id.size() + payload.size(), '\0');
  char* p = rec.data();
  std::memcpy(p, kRecordMagic.data(), kRecordMagic.size());
  put_le(p + 4, id.size(), 4);
  put_le(p + 8, payload.size(), 8);
  put_le(p + 16, hash, 8);
  std::memcpy(p + kHeaderSize, id.data(), id.size());
  std::memcpy(p + kHeaderSize + id.size(), payload.data(), payload.size());
  return rec;
}

/// Read exactly `len` bytes at `offset`; false on an error or end of file.
bool read_at(int fd, char* buf, std::size_t len, std::uint64_t offset) {
  while (len > 0) {
    const auto n = ::pread(fd, buf, len, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf += n;
    len -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

/// Write all of `bytes` at `offset`; false on an error.
bool write_at(int fd, std::string_view bytes, std::uint64_t offset) {
  while (!bytes.empty()) {
    const auto n =
        ::pwrite(fd, bytes.data(), bytes.size(), static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
  return true;
}

}  // namespace

DiskStore::DiskStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error(
        std::string{"DiskStore: cannot create cache dir "} + dir_.string());
  }
  const auto pack = dir_ / kPackName;
  fd_ = ::open(pack.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error(std::string{"DiskStore: cannot open "} +
                             pack.string() + ": " + std::strerror(errno));
  }
  if (::flock(fd_, LOCK_EX | LOCK_NB) != 0) {
    const int err = errno;
    ::close(fd_);
    throw std::runtime_error(
        err == EWOULDBLOCK
            ? std::string{"DiskStore: cache dir "} + dir_.string() +
                  " is in use by another store"
            : std::string{"DiskStore: cannot lock "} + pack.string() + ": " +
                  std::strerror(err));
  }
  try {
    index_pack();
  } catch (...) {
    ::close(fd_);
    throw;
  }
}

DiskStore::~DiskStore() { ::close(fd_); }

void DiskStore::index_pack() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    throw std::runtime_error(
        std::string{"DiskStore: cannot stat the pack in "} + dir_.string());
  }
  const auto size = static_cast<std::uint64_t>(st.st_size);
  // One read per record covers its header and key id; payloads are skipped.
  std::array<char, kHeaderSize + kMaxIdLen> buf{};
  std::uint64_t off = 0;
  while (off < size) {
    const auto avail = static_cast<std::size_t>(
        std::min<std::uint64_t>(buf.size(), size - off));
    if (avail < kHeaderSize || !read_at(fd_, buf.data(), avail, off) ||
        std::string_view{buf.data(), kRecordMagic.size()} != kRecordMagic) {
      break;
    }
    const auto id_len = get_le(buf.data() + 4, 4);
    const auto len = get_le(buf.data() + 8, 8);
    if (id_len == 0 || kHeaderSize + id_len > avail) break;
    const std::uint64_t payload = off + kHeaderSize + id_len;
    if (len > size - payload) break;
    put(std::string{buf.data() + kHeaderSize, static_cast<std::size_t>(id_len)},
        Slot{payload, len, get_le(buf.data() + 16, 8)});
    off = payload + len;
  }
  end_ = off;
  if (end_ < size) {
    // A torn tail: the record a killed run was appending.  Cut it so the
    // next append starts on a record boundary.
    ++stats_.corrupt;
    if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0) {
      throw std::runtime_error(
          std::string{"DiskStore: cannot truncate the torn tail of the pack "
                      "in "} +
          dir_.string());
    }
  }
}

void DiskStore::put(const std::string& id, const Slot& slot) {
  const auto [it, fresh] = index_.try_emplace(id, slot);
  if (!fresh) {
    stats_.bytes -= it->second.len;
    it->second = slot;
  }
  stats_.bytes += slot.len;
  stats_.entries = index_.size();
}

std::optional<std::string> DiskStore::fetch(const runner::CellKey& key) {
  const std::string id = key.id();
  Slot slot;
  {
    std::lock_guard<std::mutex> lock{mu_};
    const auto it = index_.find(id);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    slot = it->second;
  }
  // Indexed records are never rewritten, so the read and the hash run
  // outside the lock.
  std::string payload(static_cast<std::size_t>(slot.len), '\0');
  const bool ok = read_at(fd_, payload.data(), payload.size(), slot.offset) &&
                  record_hash(id, payload) == slot.hash;
  std::lock_guard<std::mutex> lock{mu_};
  if (ok) {
    ++stats_.hits;
    return payload;
  }
  // Truncated or rotted: drop the entry (unless a store has superseded it
  // meanwhile) and report a miss so the caller recomputes.  Never serve
  // bytes that fail their own hash.
  const auto it = index_.find(id);
  if (it != index_.end() && it->second.offset == slot.offset) {
    stats_.bytes -= it->second.len;
    index_.erase(it);
    stats_.entries = index_.size();
  }
  ++stats_.corrupt;
  ++stats_.misses;
  return std::nullopt;
}

void DiskStore::store(const runner::CellKey& key, std::string_view bytes) {
  const std::string id = key.id();
  const auto hash = record_hash(id, bytes);
  const std::string rec = encode_record(id, bytes, hash);

  std::lock_guard<std::mutex> lock{mu_};
  if (!write_at(fd_, rec, end_)) {
    // A cache write failure is non-fatal (the next run recomputes), but the
    // pack must end on a whole record.  If even this truncate fails, the
    // next append starts at the same offset, and the next open cuts
    // whatever is left past the last whole record.
    [[maybe_unused]] const int rc =
        ::ftruncate(fd_, static_cast<off_t>(end_));
    return;
  }
  put(id, Slot{end_ + kHeaderSize + id.size(), bytes.size(), hash});
  end_ += rec.size();
  ++stats_.stores;
}

runner::CellStore::Stats DiskStore::stats() const {
  std::lock_guard<std::mutex> lock{mu_};
  return stats_;
}

}  // namespace mcan::serve
