#include "obs/metrics.h"

#include <cmath>

namespace mram::obs {

namespace detail {
std::atomic<Registry*> g_registry{nullptr};
constinit thread_local MetricsBlock* tl_block = nullptr;
}  // namespace detail

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kEngineCalls: return "engine.calls";
    case Counter::kEngineChunks: return "engine.chunks";
    case Counter::kEngineTrials: return "engine.trials";
    case Counter::kEngineBatchBlocks: return "engine.batch_blocks";
    case Counter::kEngineBatchLanes: return "engine.batch_lanes";
    case Counter::kEngineBusyNanos: return "engine.busy_ns";
    case Counter::kEngineWallNanos: return "engine.wall_ns";
    case Counter::kLlgNoiseBlocks: return "llg.noise_blocks";
    case Counter::kLlgLaneSteps: return "llg.lane_steps";
    case Counter::kLlgLaneStepCapacity: return "llg.lane_step_capacity";
    case Counter::kLlgLanesEntered: return "llg.lanes_entered";
    case Counter::kLlgLanesEarlyExit: return "llg.lanes_early_exit";
    case Counter::kLlgBlocksW8: return "llg.blocks_w8";
    case Counter::kLlgBlocksW16: return "llg.blocks_w16";
    case Counter::kLlgBlocksGeneric: return "llg.blocks_generic";
    case Counter::kLlgFlops: return "llg.flops";
    case Counter::kMagneticsKeValues: return "magnetics.ke_values";
    case Counter::kMagneticsKeLaneSlots: return "magnetics.ke_lane_slots";
    case Counter::kRareIsRounds: return "rare.is.rounds";
    case Counter::kRareSplitLevels: return "rare.split.levels";
    case Counter::kRareMcmcProposals: return "rare.mcmc.proposals";
    case Counter::kRareMcmcAccepts: return "rare.mcmc.accepts";
    case Counter::kReadoutLadderSolves: return "readout.ladder_solves";
    case Counter::kReadoutLadderNanos: return "readout.ladder_ns";
    case Counter::kSweepPoints: return "sweep.points";
    case Counter::kTraceSpansDropped: return "trace.spans_dropped";
    case Counter::kCount: break;
  }
  return "unknown";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kEngineThreads: return "engine.threads";
    case Gauge::kEngineChunkSize: return "engine.chunk_size";
    case Gauge::kLlgPreferredLanes: return "llg.preferred_lanes";
    case Gauge::kLlgFlopsPerStep: return "llg.flops_per_step";
    case Gauge::kPerfActive: return "perf.active";
    case Gauge::kPerfFallbackReason: return "perf.fallback_reason";
    case Gauge::kCount: break;
  }
  return "unknown";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kEngineChunkNanos: return "engine.chunk_ns";
    case Hist::kEngineCallNanos: return "engine.call_ns";
    case Hist::kSweepPointNanos: return "sweep.point_ns";
    case Hist::kCount: break;
  }
  return "unknown";
}

const char* perf_event_name(PerfEvent e) {
  switch (e) {
    case PerfEvent::kCycles: return "cycles";
    case PerfEvent::kInstructions: return "instructions";
    case PerfEvent::kCacheRefs: return "cache_refs";
    case PerfEvent::kCacheMisses: return "cache_misses";
    case PerfEvent::kBranchMisses: return "branch_misses";
    case PerfEvent::kStalledBackend: return "stalled_backend";
    case PerfEvent::kCount: break;
  }
  return "unknown";
}

const char* kernel_tag_name(KernelTag t) {
  switch (t) {
    case KernelTag::kUntagged: return "untagged";
    case KernelTag::kLlg: return "llg";
    case KernelTag::kReadout: return "readout";
    case KernelTag::kRare: return "rare";
    case KernelTag::kMixed: return "mixed";
    case KernelTag::kCount: break;
  }
  return "unknown";
}

double Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min);
  if (q >= 1.0) return static_cast<double>(max);
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double next = cum + static_cast<double>(buckets[b]);
    if (target <= next) {
      const double f = (target - cum) / static_cast<double>(buckets[b]);
      double v = b == 0 ? 2.0 * f
                        : std::exp2(static_cast<double>(b) + f);
      if (v < static_cast<double>(min)) v = static_cast<double>(min);
      if (v > static_cast<double>(max)) v = static_cast<double>(max);
      return v;
    }
    cum = next;
  }
  return static_cast<double>(max);
}

void Registry::merge_block(const MetricsBlock& block) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < block.counters.size(); ++i) {
    counters_[i] += block.counters[i];
  }
  if (block.chunk_nanos > 0 ||
      block.counters[static_cast<std::size_t>(Counter::kEngineChunks)] > 0) {
    counters_[static_cast<std::size_t>(Counter::kEngineBusyNanos)] +=
        block.chunk_nanos;
    hists_[static_cast<std::size_t>(Hist::kEngineChunkNanos)].record(
        block.chunk_nanos);
  }
  if (block.perf_begin.valid && block.perf_end.valid) {
    PerfAccum& acc = perf_[static_cast<std::size_t>(block.tag)];
    for (std::size_t e = 0; e < PerfSample::kEvents; ++e) {
      // A counter can appear to step backwards when the kernel reprograms
      // the group mid-chunk; clamp at zero rather than wrap.
      if (block.perf_end.value[e] > block.perf_begin.value[e]) {
        acc.value[e] += block.perf_end.value[e] - block.perf_begin.value[e];
      }
    }
    if (block.perf_end.time_enabled > block.perf_begin.time_enabled) {
      acc.time_enabled +=
          block.perf_end.time_enabled - block.perf_begin.time_enabled;
    }
    if (block.perf_end.time_running > block.perf_begin.time_running) {
      acc.time_running +=
          block.perf_end.time_running - block.perf_begin.time_running;
    }
    acc.chunks += 1;
  }
}

void Registry::add(Counter c, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[static_cast<std::size_t>(c)] += n;
}

void Registry::set(Gauge g, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  gauges_[static_cast<std::size_t>(g)] = v;
  gauge_set_[static_cast<std::size_t>(g)] = true;
}

void Registry::record(Hist h, std::uint64_t v) {
  std::lock_guard<std::mutex> lock(mutex_);
  hists_[static_cast<std::size_t>(h)].record(v);
}

void Registry::series_append(const std::string& name, double x, double y) {
  std::lock_guard<std::mutex> lock(mutex_);
  series_[name].emplace_back(x, y);
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] != 0) {
      snap.counters[counter_name(static_cast<Counter>(i))] = counters_[i];
    }
  }
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    if (gauge_set_[i]) {
      snap.gauges[gauge_name(static_cast<Gauge>(i))] = gauges_[i];
    }
  }
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].count > 0) {
      snap.histograms[hist_name(static_cast<Hist>(i))] = hists_[i];
    }
  }
  // Perf accumulations land in the counters map as plain u64s (event
  // counts, enabled/running times and chunk tallies). Per-tag keys first,
  // then the cross-tag totals under the bare "perf." prefix.
  PerfAccum total;
  for (std::size_t t = 0; t < perf_.size(); ++t) {
    const PerfAccum& acc = perf_[t];
    if (acc.chunks == 0) continue;
    const std::string prefix =
        std::string("perf.") + kernel_tag_name(static_cast<KernelTag>(t));
    snap.counters[prefix + ".chunks"] = acc.chunks;
    for (std::size_t e = 0; e < PerfSample::kEvents; ++e) {
      if (acc.value[e] != 0) {
        snap.counters[prefix + "." +
                      perf_event_name(static_cast<PerfEvent>(e))] =
            acc.value[e];
      }
      total.value[e] += acc.value[e];
    }
    total.time_enabled += acc.time_enabled;
    total.time_running += acc.time_running;
    total.chunks += acc.chunks;
  }
  if (total.chunks > 0) {
    snap.counters["perf.chunks"] = total.chunks;
    snap.counters["perf.time_enabled_ns"] = total.time_enabled;
    snap.counters["perf.time_running_ns"] = total.time_running;
    for (std::size_t e = 0; e < PerfSample::kEvents; ++e) {
      if (total.value[e] != 0) {
        snap.counters[std::string("perf.") +
                      perf_event_name(static_cast<PerfEvent>(e))] =
            total.value[e];
      }
    }
  }
  snap.series = series_;
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.fill(0);
  gauges_.fill(0.0);
  gauge_set_.fill(false);
  hists_.fill(Histogram{});
  perf_.fill(PerfAccum{});
  series_.clear();
}

}  // namespace mram::obs
