#include "engine/shard.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "util/error.h"

namespace mram::eng {

namespace fs = std::filesystem;

void ShardSpec::validate() const {
  if (count == 0) {
    throw util::ConfigError("shard spec is unset (count == 0)");
  }
  if (count > 4096) {
    throw util::ConfigError("shard count " + std::to_string(count) +
                            " is absurd (max 4096)");
  }
  if (index >= count) {
    throw util::ConfigError("shard index " + std::to_string(index) +
                            " out of range for " + std::to_string(count) +
                            " shards (indices are 0-based)");
  }
}

std::pair<std::size_t, std::size_t> ShardSpec::chunk_range(
    std::size_t n_chunks) const {
  validate();
  const std::size_t lo = index * n_chunks / count;
  const std::size_t hi = (index + 1) * n_chunks / count;
  return {lo, hi};
}

void ShardIo::validate() const {
  switch (mode) {
    case ShardMode::kOff:
      return;
    case ShardMode::kShard:
      shard.validate();
      break;
    case ShardMode::kMerge:
      if (merge_count == 0) {
        throw util::ConfigError("merge mode needs a shard count");
      }
      break;
    case ShardMode::kCheckpoint:
      if (checkpoint_chunk_stride == 0) {
        throw util::ConfigError("checkpoint chunk stride must be positive");
      }
      break;
  }
  if (dir.empty()) {
    throw util::ConfigError(
        "shard/merge/checkpoint mode needs a partials directory");
  }
}

namespace shard_detail {

namespace {

std::string call_prefix(const std::string& dir, std::uint64_t call) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "call-%06" PRIu64, call);
  return dir + "/" + buf;
}

}  // namespace

std::string shard_file(const std::string& dir, std::uint64_t call,
                       std::size_t shard, std::size_t count) {
  char buf[48];
  std::snprintf(buf, sizeof buf, ".shard-%03zu-of-%03zu", shard, count);
  return call_prefix(dir, call) + buf;
}

std::string done_file(const std::string& dir, std::uint64_t call) {
  return call_prefix(dir, call) + ".done";
}

std::string part_file(const std::string& dir, std::uint64_t call) {
  return call_prefix(dir, call) + ".part";
}

void write_header(std::ostream& os, const CallHeader& h) {
  os.write(reinterpret_cast<const char*>(&h), sizeof h);
  if (!os) throw util::ConfigError("failed to write dump header");
}

CallHeader read_header(std::istream& is, const std::string& path) {
  CallHeader h;
  is.read(reinterpret_cast<char*>(&h), sizeof h);
  if (is.gcount() != sizeof h || !is || h.magic != CallHeader::kMagic) {
    throw util::ConfigError("not a partials dump (bad header): " + path);
  }
  return h;
}

void check_header(const CallHeader& got, const CallHeader& want,
                  const std::string& path) {
  const auto mismatch = [&](const char* field, std::uint64_t g,
                            std::uint64_t w) {
    throw util::ConfigError(
        path + ": dump " + field + " " + std::to_string(g) +
        " does not match this run's " + std::to_string(w) +
        " -- produced with different options, code or seed?");
  };
  if (got.call != want.call) mismatch("call index", got.call, want.call);
  if (got.trials != want.trials) mismatch("trial count", got.trials,
                                          want.trials);
  if (got.chunk != want.chunk) mismatch("chunk size", got.chunk, want.chunk);
  if (got.n_chunks != want.n_chunks) mismatch("chunk count", got.n_chunks,
                                              want.n_chunks);
  if (got.seed != want.seed) mismatch("seed", got.seed, want.seed);
}

std::ifstream open_dump(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw util::ConfigError(
        "missing or unreadable partials dump " + path +
        " -- incomplete shard set, or the shards' control flow diverged");
  }
  return is;
}

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmp_(path_ + ".tmp") {
  os_.open(tmp_, std::ios::binary | std::ios::trunc);
  if (!os_) {
    throw util::ConfigError("cannot create dump file " + tmp_);
  }
}

AtomicFile::~AtomicFile() {
  if (!committed_) {
    os_.close();
    std::error_code ec;
    fs::remove(tmp_, ec);  // best effort; the target was never touched
  }
}

void AtomicFile::commit() {
  os_.flush();
  if (!os_) throw util::ConfigError("failed to write dump file " + tmp_);
  os_.close();
  std::error_code ec;
  fs::rename(tmp_, path_, ec);
  if (ec) {
    throw util::ConfigError("failed to commit dump file " + path_ + ": " +
                            ec.message());
  }
  committed_ = true;
}

void remove_file(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
}

std::size_t detect_shard_count(const std::string& dir) {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const auto pos = name.rfind("-of-");
    if (name.find(".shard-") == std::string::npos ||
        pos == std::string::npos) {
      continue;
    }
    const std::string count = name.substr(pos + 4);
    if (count.empty() ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::size_t n = 0;
    const auto parsed =
        std::from_chars(count.data(), count.data() + count.size(), n);
    if (parsed.ec != std::errc{} || n == 0) {
      throw util::ConfigError("shard dump " + entry.path().string() +
                              " names an invalid shard count '" + count +
                              "'");
    }
    return n;
  }
  return 0;
}

std::uint64_t call_count_in_dir(const std::string& dir) {
  std::uint64_t calls = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("call-", 0) != 0 || name.size() < 11) continue;
    const std::string index = name.substr(5, 6);
    if (index.find_first_not_of("0123456789") != std::string::npos) continue;
    calls = std::max(calls, static_cast<std::uint64_t>(
                                std::stoull(index)) + 1);
  }
  return calls;
}

}  // namespace shard_detail
}  // namespace mram::eng
