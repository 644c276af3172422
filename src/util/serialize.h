#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <type_traits>
#include <vector>

#include "util/error.h"

// Minimal binary serialization for Monte Carlo accumulators -- the dump/load
// half of the engine's shard/checkpoint protocol (engine/shard.h).
//
// A type is serializable when it is
//   * trivially copyable (raw little-endian image; every accumulator that is
//     a plain aggregate of counters, doubles and RunningStats/WeightedStats
//     qualifies with zero code), or
//   * a std::vector of a serializable element (u64 length prefix; trivially
//     copyable elements are written as one contiguous block), or
//   * a class with a `template <class Ar> void serialize(Ar& ar)` member
//     that forwards its fields: `ar(a, b, c);` -- one function serves both
//     directions, so dump and load cannot drift apart.
//
// Dumps are raw in-memory images: exact double-precision round-trips (the
// whole point -- a reloaded accumulator continues a bit-identical reduction),
// but tied to the producing build's ABI. They are transport between shards
// of one sweep and across a kill/resume, not an archival format; the shard
// file headers (engine/shard.h) carry the run geometry so a mismatched
// reload fails loudly instead of merging garbage.

namespace mram::util::io {

class BinWriter;
class BinReader;

namespace detail {

template <class T>
struct IsStdVector : std::false_type {};
template <class T, class A>
struct IsStdVector<std::vector<T, A>> : std::true_type {};

template <class Ar, class T>
concept HasSerialize = requires(T& t, Ar& ar) { t.serialize(ar); };

}  // namespace detail

/// True when BinWriter/BinReader can round-trip a T (see file comment for
/// the three supported shapes). The engine consults this to reject
/// shard/checkpoint runs of workloads whose accumulators cannot be dumped.
template <class T>
inline constexpr bool kSerializable = [] {
  if constexpr (detail::HasSerialize<BinWriter, T> &&
                detail::HasSerialize<BinReader, T>) {
    return true;
  } else if constexpr (detail::IsStdVector<T>::value) {
    return kSerializable<typename T::value_type>;
  } else {
    return std::is_trivially_copyable_v<T>;
  }
}();

/// Serializing archive: ar(a, b, c) appends the fields' binary images to the
/// stream. Throws util::ConfigError when the stream rejects a write.
class BinWriter {
 public:
  explicit BinWriter(std::ostream& os) : os_(&os) {}

  template <class... Ts>
  void operator()(Ts&... vs) {
    (field(vs), ...);
  }

 private:
  template <class T>
  void field(T& v) {
    static_assert(kSerializable<T>, "type does not satisfy the dump/load "
                                    "protocol (see util/serialize.h)");
    if constexpr (detail::HasSerialize<BinWriter, T>) {
      v.serialize(*this);
    } else if constexpr (detail::IsStdVector<T>::value) {
      std::uint64_t n = v.size();
      raw(&n, sizeof n);
      using Elem = typename T::value_type;
      if constexpr (std::is_trivially_copyable_v<Elem> &&
                    !detail::HasSerialize<BinWriter, Elem>) {
        if (n > 0) raw(v.data(), v.size() * sizeof(Elem));
      } else {
        for (auto& e : v) field(e);
      }
    } else {
      raw(&v, sizeof v);
    }
  }

  void raw(const void* p, std::size_t n) {
    os_->write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    if (!*os_) throw ConfigError("serialize: stream write failed");
  }

  std::ostream* os_;
};

/// Deserializing archive, the exact mirror of BinWriter. Throws
/// util::ConfigError on a short or failed read (truncated dump). Vector
/// length prefixes are bounded by the bytes actually left in the stream, so
/// a corrupt prefix fails before it can allocate more than the dump holds.
class BinReader {
 public:
  explicit BinReader(std::istream& is) : is_(&is), left_(bytes_left(is)) {}

  template <class... Ts>
  void operator()(Ts&... vs) {
    (field(vs), ...);
  }

  /// True when the stream is exactly exhausted -- the dump held nothing
  /// beyond what was read. The engine checks this after loading a partial so
  /// a layout mismatch cannot pass silently.
  bool at_end() {
    return is_->peek() == std::istream::traits_type::eof();
  }

 private:
  /// Largest step a vector grows by before its bytes are read. Bounds the
  /// up-front allocation on a stream whose length is unknown (not seekable);
  /// beyond that the vector grows only as its data actually arrives.
  static constexpr std::uint64_t kReadStepBytes = std::uint64_t{1} << 16;

  /// Bytes from the current position to the end of `is`, or UINT64_MAX when
  /// the stream cannot seek.
  static std::uint64_t bytes_left(std::istream& is) {
    const auto here = is.tellg();
    if (here < 0) return UINT64_MAX;
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    is.seekg(here);
    if (end < here || !is) throw ConfigError("serialize: unreadable dump");
    return static_cast<std::uint64_t>(end - here);
  }

  template <class T>
  void field(T& v) {
    static_assert(kSerializable<T>, "type does not satisfy the dump/load "
                                    "protocol (see util/serialize.h)");
    if constexpr (detail::HasSerialize<BinReader, T>) {
      v.serialize(*this);
    } else if constexpr (detail::IsStdVector<T>::value) {
      std::uint64_t n = 0;
      raw(&n, sizeof n);
      v.clear();
      using Elem = typename T::value_type;
      if constexpr (std::is_trivially_copyable_v<Elem> &&
                    !detail::HasSerialize<BinReader, Elem>) {
        if (n > left_ / sizeof(Elem)) {
          throw ConfigError("serialize: truncated dump (vector length "
                            "exceeds the bytes left)");
        }
        constexpr std::uint64_t kStep =
            std::max<std::uint64_t>(1, kReadStepBytes / sizeof(Elem));
        for (std::uint64_t todo = n; todo > 0;) {
          const std::size_t step =
              static_cast<std::size_t>(std::min(todo, kStep));
          const std::size_t at = v.size();
          v.resize(at + step);
          raw(v.data() + at, step * sizeof(Elem));
          todo -= step;
        }
      } else {
        // Every element decodes before the next is allocated.
        for (std::uint64_t i = 0; i < n; ++i) field(v.emplace_back());
      }
    } else {
      raw(&v, sizeof v);
    }
  }

  void raw(void* p, std::size_t n) {
    is_->read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (is_->gcount() != static_cast<std::streamsize>(n) || !*is_) {
      throw ConfigError("serialize: truncated or unreadable dump");
    }
    if (left_ != UINT64_MAX) left_ -= n;
  }

  std::istream* is_;
  std::uint64_t left_;  ///< bytes left in the stream (UINT64_MAX: unknown)
};

}  // namespace mram::util::io
