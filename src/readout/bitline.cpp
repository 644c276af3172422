#include "readout/bitline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <new>

#include "obs/metrics.h"
#include "util/error.h"

namespace mram::rdo {

void BitlineParams::validate() const {
  if (r_driver <= 0.0 || r_sink <= 0.0) {
    throw util::ConfigError("driver and sink resistances must be positive");
  }
  if (r_bl_segment < 0.0 || r_sl_segment < 0.0) {
    throw util::ConfigError("segment resistances must be non-negative");
  }
  if (r_leak <= 0.0) throw util::ConfigError("leak resistance must be positive");
  if (rows == 0) throw util::ConfigError("a column needs at least one row");
}

BitlinePath::BitlinePath(const BitlineParams& params,
                         const dev::ElectricalModel& cell)
    : params_(params) {
  params_.validate();
  // Sneak-path drops across off cells are millivolts, so the zero-bias
  // resistances are accurate and keep the leak branches linear (the network
  // solve stays a single linear system).
  r_leak_p_ = params_.r_leak + cell.resistance(dev::MtjState::kParallel, 0.0);
  r_leak_ap_ =
      params_.r_leak + cell.resistance(dev::MtjState::kAntiParallel, 0.0);
}

double BitlinePath::series_resistance(std::size_t row) const {
  MRAM_EXPECTS(row < params_.rows, "row out of range");
  const double hops = static_cast<double>(row);
  return params_.r_driver + params_.r_sink +
         hops * (params_.r_bl_segment + params_.r_sl_segment);
}

namespace {

// --- ladder solve ------------------------------------------------------------
//
// In-place Gaussian elimination without pivoting of the n x n conductance
// matrix, whose nonzeros lie within `band` of the diagonal, then back
// substitution for two right-hand sides. The read-column matrix is
// symmetric strictly diagonally dominant, for which elimination without
// pivoting is numerically stable.
//
// Every live entry gets exactly the updates a[r][c] -= f * a[col][c] of the
// full dense elimination, in the same pivot order, with each multiplier
// f = a[r][col] / a[col][col] computed from the same operands, and each
// back substitution sums its terms in the same order. The solution is
// therefore bit-identical to the dense solve (pinned by
// Bitline.BandLimitedSolveMatchesDenseEliminationBitwise). How the work is
// arranged is free, and so are these exact shortcuts:
//
// - Pivots go in groups of kGroup: a row below the group takes all of the
//   group's updates in one pass, pivot by pivot for each block of 8
//   entries, so it is loaded and stored once per group instead of once per
//   pivot. The group's own rows are brought up to date first, in order, and
//   a row's multipliers for the later pivots of the group come from its
//   entries in the group's columns updated the same way, x - f * p.
// - No entry is ever -0: stamps and differences of nonzero values give
//   nonzero values or +0, and so do x - f * (+0) and +0 / pivot. An update
//   x -= f * (+0) or x -= (+0) * p therefore leaves x unchanged bitwise,
//   and so does a back substitution term x -= (+0) * y. The kernel skips
//   whole 8-entry blocks of such updates (out-of-band entries, which
//   elimination without pivoting keeps at +0, and the zero run a ladder
//   pivot row carries between its chain neighbour and its fill), skips rows
//   whose multipliers are all +0, and applies the zero multipliers of a row
//   that has others.
// - Rows are padded to a multiple of 8 doubles and 64-byte aligned, and an
//   update sweeps whole aligned blocks: it may start left of the pivot
//   column and end past the band. The entries left of the pivot column are
//   already eliminated (never read again), the ones past the band are +0
//   in the pivot row, and the padding is +0 throughout.
//
// The update x - f * p is elementwise with fp contraction off, so vector
// width cannot move a bit: every instruction-set level computes the same
// solution.

constexpr std::size_t kBlock = 8;  // doubles per 64-byte block
constexpr std::size_t kGroup = 4;  // pivots per pass over a row

constexpr std::size_t round_up(std::size_t x) {
  return (x + kBlock - 1) / kBlock * kBlock;
}

// One block of 8 doubles. GCC lowers its arithmetic to one zmm, two ymm or
// four xmm instructions, whatever the function's instruction set.
typedef double Block __attribute__((vector_size(64), may_alias));
typedef std::uint64_t BlockBits __attribute__((vector_size(64), may_alias));

/// The system one solve works on: row r of the matrix at a + r * ld, the
/// two right-hand sides (column-major, stride ld), multiplier and live
/// segment scratch. All of it lives in the calling thread's workspace.
struct Ladder {
  double* a;
  double* rhs;
  double* f;         ///< [kGroup * ld]: the group's multipliers, by pivot
  std::size_t* seg;  ///< [ld / kBlock + 1]: live block segment bounds
  std::size_t n;
  std::size_t ld;    ///< row stride: n rounded up to whole blocks
  std::size_t band;
};

/// One past the last column an update from pivot row `col` touches.
inline std::size_t update_end(const Ladder& l, std::size_t col) {
  return std::min(l.ld, round_up(col + l.band + 1));
}

/// The columns [row_begin, row_end) of row r that the solve reads or
/// writes; the workspace zeroes exactly these.
inline std::size_t row_begin(const Ladder& l, std::size_t r) {
  return r > l.band + kGroup ? (r - l.band - kGroup) / kBlock * kBlock : 0;
}
inline std::size_t row_end(const Ladder& l, std::size_t r) {
  return update_end(l, r + kGroup - 1);
}

inline bool all_plus_zero(const double* block) {
  const BlockBits b = *reinterpret_cast<const BlockBits*>(block);
  std::uint64_t any = 0;
  for (std::size_t j = 0; j < kBlock; ++j) any |= b[j];
  return any == 0;
}

/// Applies pivot rows p[0], ..., p[M-1] in that order to `row`, over the
/// blocks of the segments [seg[0], seg[1]), [seg[2], seg[3]), ...
template <std::size_t M>
[[gnu::always_inline]] inline void apply(double* row, const double* const* p,
                                         const double* f,
                                         const std::size_t* seg,
                                         std::size_t n_seg) {
  for (std::size_t s = 0; s < n_seg; s += 2) {
    const std::size_t end = seg[s + 1];
    for (std::size_t c = seg[s]; c < end; c += kBlock) {
      Block x = *reinterpret_cast<const Block*>(row + c);
      for (std::size_t i = 0; i < M; ++i) {
        x = x - f[i] * *reinterpret_cast<const Block*>(p[i] + c);
      }
      *reinterpret_cast<Block*>(row + c) = x;
    }
  }
}

/// apply() of the first m < K pivot rows, over one segment.
template <std::size_t K>
[[gnu::always_inline]] inline void apply_first(std::size_t m, double* row,
                                               const double* const* p,
                                               const double* f,
                                               const std::size_t* seg) {
  if constexpr (K > 1) {
    if (m == K - 1) return apply<K - 1>(row, p, f, seg, 2);
    apply_first<K - 1>(m, row, p, f, seg);
  }
}

/// Eliminates columns col .. col + K - 1.
template <std::size_t K>
[[gnu::always_inline]] inline void eliminate_group(const Ladder& l,
                                                   std::size_t col) {
  double* const a = l.a;
  double* const rhs0 = l.rhs;
  double* const rhs1 = l.rhs + l.ld;
  const double* p[K];
  double pivot[K];
  for (std::size_t i = 0; i < K; ++i) p[i] = a + (col + i) * l.ld;
  const std::size_t c_begin = col / kBlock * kBlock;

  // The group's own rows: row col + i takes pivots col .. col + i - 1 and
  // is then final as a pivot row.
  for (std::size_t i = 0; i < K; ++i) {
    double* row = a + (col + i) * l.ld;
    if (i > 0) {
      double f[K];
      for (std::size_t j = 0; j < i; ++j) {
        double t = row[col + j];
        for (std::size_t m = 0; m < j; ++m) t -= f[m] * p[m][col + j];
        f[j] = t / pivot[j];
      }
      const std::size_t seg[2] = {c_begin, update_end(l, col + i - 1)};
      apply_first<K>(i, row, p, f, seg);
      for (std::size_t j = 0; j < i; ++j) {
        rhs0[col + i] -= f[j] * rhs0[col + j];
        rhs1[col + i] -= f[j] * rhs1[col + j];
      }
    }
    pivot[i] = row[col + i];
    MRAM_ENSURES(std::abs(pivot[i]) > 0.0, "singular read-column network");
  }

  // The pivot rows' blocks that hold anything but +0, as segments of
  // whole blocks, from the block of column col + K: a row below the group
  // never reads its columns left of that again.
  std::size_t n_seg = 0;
  const std::size_t c_end = update_end(l, col + K - 1);
  for (std::size_t c = (col + K) / kBlock * kBlock; c < c_end; c += kBlock) {
    bool zero = true;
    for (std::size_t i = 0; i < K; ++i) zero = zero && all_plus_zero(p[i] + c);
    if (zero) continue;
    if (n_seg > 0 && l.seg[n_seg - 1] == c) {
      l.seg[n_seg - 1] = c + kBlock;
    } else {
      l.seg[n_seg++] = c;
      l.seg[n_seg++] = c + kBlock;
    }
  }

  // The rows below the group: multipliers first (a row with +0 in all the
  // group's columns has only +0 multipliers), then one pass each.
  const std::size_t r_begin = col + K;
  const std::size_t r_end = std::min(l.n, col + K + l.band);
  for (std::size_t r = r_begin; r < r_end; ++r) {
    const double* row = a + r * l.ld + col;
    double* f = l.f + r;
    std::uint64_t any = 0;
    for (std::size_t j = 0; j < K; ++j) {
      any |= std::bit_cast<std::uint64_t>(row[j]);
    }
    if (any == 0) {
      for (std::size_t j = 0; j < K; ++j) f[j * l.ld] = 0.0;
      continue;
    }
    double fr[K];
    for (std::size_t j = 0; j < K; ++j) {
      double t = row[j];
      for (std::size_t m = 0; m < j; ++m) t -= fr[m] * p[m][col + j];
      fr[j] = t / pivot[j];
      f[j * l.ld] = fr[j];
    }
  }
  for (std::size_t r = r_begin; r < r_end; ++r) {
    double f[K];
    bool zero = true;
    for (std::size_t j = 0; j < K; ++j) {
      f[j] = l.f[j * l.ld + r];
      zero = zero && f[j] == 0.0;
    }
    if (zero) continue;
    apply<K>(a + r * l.ld, p, f, l.seg, n_seg);
    for (std::size_t j = 0; j < K; ++j) {
      rhs0[r] -= f[j] * rhs0[col + j];
      rhs1[r] -= f[j] * rhs1[col + j];
    }
  }
}

[[gnu::always_inline]] inline void eliminate_body(const Ladder& l) {
  std::size_t col = 0;
  for (; col + kGroup <= l.n; col += kGroup) eliminate_group<kGroup>(l, col);
  for (; col < l.n; ++col) eliminate_group<1>(l, col);

  // Back substitution, both right-hand sides in one pass: two independent
  // chains, each summed in column order.
  double* const rhs0 = l.rhs;
  double* const rhs1 = l.rhs + l.ld;
  for (std::size_t ri = l.n; ri-- > 0;) {
    const double* row = l.a + ri * l.ld;
    const std::size_t end = std::min(l.n, ri + l.band + 1);
    double x0 = rhs0[ri];
    double x1 = rhs1[ri];
    for (std::size_t c = ri + 1; c < end;) {
      const std::size_t block = c / kBlock * kBlock;
      const std::size_t block_end = std::min(end, block + kBlock);
      if (all_plus_zero(row + block)) {
        c = block_end;
        continue;
      }
      for (; c < block_end; ++c) {
        x0 -= row[c] * rhs0[c];
        x1 -= row[c] * rhs1[c];
      }
    }
    rhs0[ri] = x0 / row[ri];
    rhs1[ri] = x1 / row[ri];
  }
}

// Runtime-dispatched instruction set, as for ap_fixed_point (see
// read_error.cpp): target_clones emits an AVX-512F, an AVX2 and a baseline
// clone plus an ifunc resolver picked at load time. This file stays under
// LTO; the solve is a noinline file-local function, so its call still goes
// through the resolver.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define MRAM_LADDER_X86 1
#define MRAM_LADDER_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#else
#define MRAM_LADDER_X86 0
#define MRAM_LADDER_CLONES
#endif

/// The ladder solve of every port() call, the hot loop of every read-model
/// build. Its speed depends on where it lands in the binary: inlined, the
/// scalar solve it replaced moved by 10-21% with unrelated layout shifts of
/// the LTO build. noinline and aligned(64) hold for every clone, so each
/// starts on a cache line whatever code around it changes. In the Release
/// + LTO build, `nm` shows the avx512f, avx2 and default clones on 64-byte
/// boundaries and the call going through `[clone .resolver]`.
[[gnu::noinline, gnu::aligned(64)]] MRAM_LADDER_CLONES void eliminate_banded(
    const Ladder& l) {
  eliminate_body(l);
}

// The same body at one fixed level each, for port(SolveLevel, ...) in
// tests; port() itself only goes through the clones above.
#if MRAM_LADDER_X86
[[gnu::noinline]] __attribute__((target("avx512f"))) void eliminate_avx512(
    const Ladder& l) {
  eliminate_body(l);
}

[[gnu::noinline]] __attribute__((target("avx2"))) void eliminate_avx2(
    const Ladder& l) {
  eliminate_body(l);
}
#endif

[[gnu::noinline]] void eliminate_portable(const Ladder& l) {
  eliminate_body(l);
}

void eliminate_at(BitlinePath::SolveLevel level, const Ladder& l) {
#if MRAM_LADDER_X86
  if (level == BitlinePath::SolveLevel::kAvx512) return eliminate_avx512(l);
  if (level == BitlinePath::SolveLevel::kAvx2) return eliminate_avx2(l);
#endif
  (void)level;
  eliminate_portable(l);
}

struct AlignedDelete {
  void operator()(void* p) const {
    ::operator delete(p, std::align_val_t{64});
  }
};

/// The calling thread's solve storage, grown to the largest column it has
/// solved and never shrunk.
class Workspace {
 public:
  /// A system for n nodes at bandwidth `band`, with the matrix zeroed
  /// wherever the solve reads it and both right-hand sides zeroed.
  Ladder prepare(std::size_t n, std::size_t band) {
    Ladder l{};
    l.n = n;
    l.ld = round_up(n);
    l.band = band;
    const std::size_t a_len = n * l.ld;
    const std::size_t doubles = a_len + (2 + kGroup) * l.ld;
    const std::size_t segs = l.ld / kBlock + 1;
    const std::size_t bytes =
        doubles * sizeof(double) + segs * sizeof(std::size_t);
    if (bytes > capacity_) {
      storage_.reset(::operator new(bytes, std::align_val_t{64}));
      capacity_ = bytes;
    }
    auto* d = static_cast<double*>(storage_.get());
    l.a = d;
    l.rhs = d + a_len;
    l.f = l.rhs + 2 * l.ld;
    l.seg = reinterpret_cast<std::size_t*>(l.f + kGroup * l.ld);
    for (std::size_t r = 0; r < n; ++r) {
      std::fill(l.a + r * l.ld + row_begin(l, r),
                l.a + r * l.ld + row_end(l, r), 0.0);
    }
    std::fill(l.rhs, l.rhs + 2 * l.ld, 0.0);
    return l;
  }

 private:
  std::unique_ptr<void, AlignedDelete> storage_;
  std::size_t capacity_ = 0;
};

thread_local Workspace t_workspace;

}  // namespace

bool BitlinePath::solve_level_supported(SolveLevel level) {
#if MRAM_LADDER_X86
  __builtin_cpu_init();
  if (level == SolveLevel::kAvx512) return __builtin_cpu_supports("avx512f");
  if (level == SolveLevel::kAvx2) return __builtin_cpu_supports("avx2");
#endif
  return level == SolveLevel::kPortable;
}

ReadPort BitlinePath::port(std::size_t row, double v_read,
                           const std::vector<int>& column_data) const {
  return solve_port(std::nullopt, row, v_read, column_data);
}

ReadPort BitlinePath::port(SolveLevel level, std::size_t row, double v_read,
                           const std::vector<int>& column_data) const {
  MRAM_EXPECTS(solve_level_supported(level),
               "port: solve level not supported on this CPU");
  return solve_port(level, row, v_read, column_data);
}

ReadPort BitlinePath::solve_port(std::optional<SolveLevel> level,
                                 std::size_t row, double v_read,
                                 const std::vector<int>& column_data) const {
  MRAM_EXPECTS(row < params_.rows, "selected row out of range");
  MRAM_EXPECTS(v_read > 0.0, "read voltage must be positive");
  MRAM_EXPECTS(column_data.size() == params_.rows,
               "column data must cover every row");
  const obs::ScopedCount timed(obs::Counter::kReadoutLadderSolves,
                               obs::Counter::kReadoutLadderNanos);

  // Nodes: bitline node of row i at index i, source-line node at N + i.
  // Node i couples only to i +- 1 and i +- N: bandwidth N.
  const std::size_t n_rows = params_.rows;
  const std::size_t n = 2 * n_rows;
  const Ladder l = t_workspace.prepare(n, n_rows);
  double* const g = l.a;
  const std::size_t ld = l.ld;
  // Two right-hand sides through one factorization: (a) the driver forcing
  // v_read (open-circuit port voltage), (b) a unit test current into the
  // port with the driver shorted (port resistance).
  double* const rhs_v = l.rhs;
  double* const rhs_i = l.rhs + ld;

  auto stamp = [&](std::size_t i, std::size_t j, double conductance) {
    g[i * ld + i] += conductance;
    g[j * ld + j] += conductance;
    g[i * ld + j] -= conductance;
    g[j * ld + i] -= conductance;
  };
  auto stamp_ground = [&](std::size_t i, double conductance) {
    g[i * ld + i] += conductance;
  };

  // Driver into the head bitline node; sink from the head source-line node.
  const double g_driver = 1.0 / params_.r_driver;
  stamp_ground(0, g_driver);
  rhs_v[0] = v_read * g_driver;  // only in the voltage solve
  stamp_ground(n_rows, 1.0 / params_.r_sink);

  // Wire segments. A zero-resistance segment collapses to a strong tie so
  // the matrix stays nonsingular without special-casing ideal wires.
  const double g_bl = params_.r_bl_segment > 0.0
                          ? 1.0 / params_.r_bl_segment
                          : 1e12;
  const double g_sl = params_.r_sl_segment > 0.0
                          ? 1.0 / params_.r_sl_segment
                          : 1e12;
  for (std::size_t i = 0; i + 1 < n_rows; ++i) {
    stamp(i, i + 1, g_bl);
    stamp(n_rows + i, n_rows + i + 1, g_sl);
  }

  // Unselected rows: sneak branch bitline -> source line through the off
  // access transistor in series with that row's MTJ state resistance.
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (i == row) continue;  // the port; its branch is the unknown cell
    const double r_branch = column_data[i] ? r_leak_ap_ : r_leak_p_;
    stamp(i, n_rows + i, 1.0 / r_branch);
  }

  // Test-current solve: +1 A into the bitline port node, -1 A out of the
  // source-line port node, driver shorted (rhs_i[0] stays 0).
  rhs_i[row] = 1.0;
  rhs_i[n_rows + row] = -1.0;

  if (level) {
    eliminate_at(*level, l);
  } else {
    eliminate_banded(l);
  }

  ReadPort port;
  port.v_thevenin = rhs_v[row] - rhs_v[n_rows + row];
  port.r_thevenin = rhs_i[row] - rhs_i[n_rows + row];
  MRAM_ENSURES(port.r_thevenin > 0.0, "port resistance must be positive");
  return port;
}

}  // namespace mram::rdo
