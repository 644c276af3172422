#include "probes.h"

#include <algorithm>
#include <vector>

#include "array/intercell.h"
#include "device/mtj_device.h"
#include "dynamics/llg_batch.h"
#include "dynamics/switching_sim.h"
#include "engine/rare_event.h"
#include "magnetics/disk_source.h"
#include "mram/retention.h"
#include "mram/wer.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "readout/read_error.h"
#include "readout/rer.h"
#include "sim/variation.h"
#include "sim/yield.h"
#include "workloads.h"

namespace mram::perfbench {

namespace {

using dev::SwitchDirection;
using eng::RareEventMethod;

/// Keeps probe results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

/// A trace span plus its own stopwatch: the span goes to the recorder when
/// one is installed, the elapsed time feeds the metric either way.
class Timed {
 public:
  explicit Timed(const char* name) : span_("probe", [name] { return name; }) {}
  double seconds() const { return watch_.seconds(); }
  double nanos() const { return static_cast<double>(watch_.nanos()); }

 private:
  obs::TraceSpan span_;
  obs::Stopwatch watch_;
};

// --- LLG kernel ceiling ------------------------------------------------------

void llg_ceiling_probe(std::uint64_t seed, MetricValues& out) {
  // read_disturb_vs_pulse's operating point: the weakened read-stress device
  // (delta0 = 14), stored AP at the far row of an all-P column, 0.12 V read.
  auto device = dev::MtjParams::reference_device(35e-9);
  device.delta0 = 14.0;
  rdo::ReadPathConfig path;
  path.v_read = 0.12;
  const double hz = dev::MtjDevice(device).intra_stray_field();
  const rdo::ReadErrorModel model(device, path);
  util::Rng pattern_rng(1);  // all-P column: the rng is not consumed
  const auto column = rdo::make_column_data(
      arr::PatternKind::kAllZero, path.bitline.rows, pattern_rng);
  const auto op = model.operating_point(path.bitline.rows - 1, column);
  const auto llg =
      dyn::llg_from_device_current(model.device(), op.i_ap, hz, 300.0);
  const double delta =
      model.device().delta(dev::MtjState::kAntiParallel, hz, 300.0);
  const double mz0 = dev::state_direction(dev::MtjState::kAntiParallel);

  // mz_stop = 2 lies outside the unit sphere, so no lane ever crosses it:
  // every block runs its whole window at full width.
  constexpr double kWindow = 20e-9, kDt = 1e-12, kNoStop = 2.0;
  constexpr std::size_t kReps = 24;
  dyn::BatchMacrospinSim sim(llg);
  for (const std::size_t lanes :
       {dyn::BatchMacrospinSim::kAvx512Lanes,
        dyn::BatchMacrospinSim::kDefaultLanes}) {
    std::vector<util::Rng> rngs(lanes);
    std::vector<num::Vec3> m0(lanes);
    std::vector<dyn::SwitchResult> res(lanes);
    const auto call = [&](std::size_t rep) {
      for (std::size_t l = 0; l < lanes; ++l) {
        rngs[l] = util::Rng::stream(seed, rep * lanes + l);
        m0[l] = dyn::thermal_initial_tilt(rngs[l], delta, mz0);
      }
      sim.run_until_switch(lanes, m0.data(), rngs.data(), kWindow, kDt,
                           res.data(), kNoStop);
      g_sink = g_sink + res[0].m_end.z;
    };
    // One counted call gives the exact lane-steps and flops per call.
    obs::Registry counts;
    {
      obs::ScopedRegistry guard(&counts);
      call(0);
    }
    const auto snap = counts.snapshot();
    const double lane_steps =
        static_cast<double>(snap.counters.at("llg.lane_steps"));
    std::vector<double> ns_per_step;
    {
      Timed timed(lanes == dyn::BatchMacrospinSim::kAvx512Lanes
                      ? "llg.probe_w16"
                      : "llg.probe_w8");
      for (std::size_t rep = 1; rep <= kReps; ++rep) {
        obs::Stopwatch sw;
        call(rep);
        ns_per_step.push_back(static_cast<double>(sw.nanos()) / lane_steps);
      }
    }
    if (lanes == dyn::BatchMacrospinSim::kAvx512Lanes) {
      out["llg.probe_ns_per_lane_step"] = median(ns_per_step);
      out["llg.flops_per_lane_step"] =
          static_cast<double>(snap.counters.at("llg.flops")) / lane_steps;
    } else {
      out["llg.probe8_ns_per_lane_step"] = median(ns_per_step);
    }
  }
}

// --- per-call set-up costs ---------------------------------------------------

/// pitch_yield's sweep: yield_vs_pitch's pitch grid at eCD = 35 nm.
const double kPitchMults[] = {1.5, 1.75, 2.0, 2.5, 3.0, 4.0};

void setup_probe(std::uint64_t seed, eng::MonteCarloRunner& runner,
                 MetricValues& out) {
  const auto nominal = dev::MtjParams::reference_device(35e-9);
  const sim::VariationModel variation;
  constexpr std::size_t kPerPitch = 48;

  // Parameter sets as estimate_yield draws them, skipping the samples that
  // do not fit the pitch (estimate_yield builds nothing for those).
  util::Rng rng(seed);
  std::vector<dev::MtjParams> params;
  std::vector<double> pitches;
  for (const double mult : kPitchMults) {
    for (std::size_t i = 0; i < kPerPitch; ++i) {
      auto p = variation.sample(nominal, rng);
      if (mult * 35e-9 < p.stack.ecd) continue;
      params.push_back(p);
      pitches.push_back(mult * 35e-9);
    }
  }
  const std::size_t n = params.size();
  const double dn = static_cast<double>(n);

  // Device set-up as estimate_yield does it per sample: construction plus
  // the intra-cell stray field.
  std::vector<dev::MtjDevice> devices;
  devices.reserve(n);
  std::vector<double> intra(n);
  {
    Timed t("device.build");
    for (std::size_t i = 0; i < n; ++i) {
      devices.emplace_back(params[i]);
      intra[i] = devices[i].intra_stray_field();
    }
    out["device.build_us"] = t.nanos() / dn / 1e3;
  }

  std::vector<arr::InterCellSolver> solvers;
  solvers.reserve(n);
  {
    Timed t("array.intercell_build");
    for (std::size_t i = 0; i < n; ++i) {
      solvers.emplace_back(params[i].stack, pitches[i]);
    }
    out["array.intercell_build_us"] = t.nanos() / dn / 1e3;
  }
  out["array.intercell_builds"] = dn;

  {
    // A neighbour's free layer seen from the victim's free-layer centre.
    constexpr int kReps = 8;
    Timed t("magnetics.disk_field");
    double hz = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        const auto& stack = params[i].stack;
        const double z = stack.layer_center_z(dev::Layer::kFreeLayer);
        const auto src = stack.source_for(dev::Layer::kFreeLayer,
                                          {pitches[i], 0.0, 0.0});
        hz += mag::disk_field(src, {0.0, 0.0, z}).z;
      }
    }
    out["magnetics.disk_field_ns"] = t.nanos() / (kReps * dn);
    g_sink = g_sink + hz;
  }

  {
    // Read-model set-up as sense_margin_ir_drop does it per sample: the
    // model plus the far-row operating point (the bitline ladder solve).
    const rdo::ReadPathConfig path;
    const std::size_t far = path.bitline.rows - 1;
    util::Rng pattern_rng(1);  // all-P column: the rng is not consumed
    const auto column = rdo::make_column_data(arr::PatternKind::kAllZero,
                                              path.bitline.rows, pattern_rng);
    Timed t("readout.model_build");
    double margin = 0.0;
    for (const auto& p : params) {
      const rdo::ReadErrorModel model(p, path);
      margin += model.operating_point(far, column).margin;
    }
    out["readout.model_build_us"] = t.nanos() / dn / 1e3;
    out["readout.model_builds"] = dn;
    g_sink = g_sink + margin;
  }

  {
    std::vector<double> h_worst(n);
    for (std::size_t i = 0; i < n; ++i) {
      h_worst[i] = intra[i] + solvers[i].field_for(arr::Np8::all_parallel());
    }
    constexpr int kReps = 16;
    Timed t("device.switching_time");
    double tw = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        tw += devices[i].switching_time(SwitchDirection::kApToP, 0.9,
                                        h_worst[i]);
      }
    }
    out["device.switching_time_us"] = t.nanos() / (kReps * dn) / 1e3;
    g_sink = g_sink + tw;
  }

  {
    constexpr std::size_t kSamples = 200;
    const sim::YieldSpec spec;
    Timed t("sim.estimate_yield");
    double yield = 0.0;
    std::uint64_t point = 0;
    for (const double mult : kPitchMults) {
      util::Rng yield_rng(eng::derive_seed(seed, ++point));
      yield += sim::estimate_yield(nominal, variation, mult * 35e-9, spec,
                                   kSamples, yield_rng, runner)
                   .yield;
    }
    out["sim.us_per_sample"] =
        t.nanos() / (std::size(kPitchMults) * kSamples) / 1e3;
    g_sink = g_sink + yield;
  }
}

// --- rare-event driver replays -----------------------------------------------

struct RareTotals {
  double simulated = 0.0;
  double effective = 0.0;
  double max_rel_error = 0.0;

  void add(const eng::RareEventEstimate& e) {
    simulated += e.simulated_trials;
    effective += e.effective_trials;
    max_rel_error = std::max(max_rel_error, e.rel_error);
  }
};

constexpr RareEventMethod kRareMethods[] = {
    RareEventMethod::kImportanceSampling, RareEventMethod::kSplitting};

void rare_replays(std::uint64_t seed, eng::MonteCarloRunner& runner,
                  MetricValues& out) {
  RareTotals totals;
  std::uint64_t call = 0;
  const auto next_rng = [&] { return util::Rng(eng::derive_seed(seed, call++)); };

  {  // wer_deep: Vp = 0.9 V AP->P, 5x5 all-0 array at 1.5 x eCD.
    mem::WerConfig cfg;
    cfg.array.device = dev::MtjParams::reference_device(35e-9);
    cfg.array.pitch = 1.5 * 35e-9;
    cfg.array.rows = cfg.array.cols = 5;
    cfg.pulse.voltage = 0.9;
    cfg.direction = SwitchDirection::kApToP;
    cfg.trials = 1500;
    const dev::MtjDevice device(cfg.array.device);
    const double tw = device.switching_time(SwitchDirection::kApToP, 0.9,
                                            device.intra_stray_field());
    Timed t("mram.wer");
    for (const double frac : {1.6, 2.4, 3.2, 4.2, 5.2}) {
      for (const auto method : kRareMethods) {
        auto c = cfg;
        c.pulse.width = frac * tw;
        c.rare.method = method;
        util::Rng rng = next_rng();
        totals.add(mem::measure_wer(c, rng, runner).rare);
      }
    }
    out["mram.wer_s"] = t.seconds();
  }

  {  // retention_deep: hot 4x4 all-0 array over a 1 s hold.
    mem::RetentionEnsembleConfig cfg;
    cfg.array.device = dev::MtjParams::reference_device(35e-9);
    cfg.array.pitch = 1.5 * 35e-9;
    cfg.array.rows = cfg.array.cols = 4;
    cfg.array.temperature = 380.0;
    cfg.pattern = arr::PatternKind::kAllZero;
    cfg.hold = 1.0;
    cfg.trials = 1200;
    Timed t("mram.retention");
    for (const double delta0 : {40.0, 52.0, 64.0, 76.0, 88.0}) {
      for (const auto method : kRareMethods) {
        auto c = cfg;
        c.array.device.delta0 = delta0;
        c.rare.method = method;
        util::Rng rng = next_rng();
        totals.add(mem::measure_retention_faults(c, rng, runner).rare);
      }
    }
    out["mram.retention_s"] = t.seconds();
  }

  {  // rer_deep: nominal device, far-row AP read of a checkerboard column.
    rdo::RerConfig cfg;
    cfg.trials = 1500;
    cfg.hz_stray = dev::MtjDevice(cfg.device).intra_stray_field();
    Timed t("readout.rer");
    for (const double v_read : {0.04, 0.06, 0.08, 0.12, 0.18}) {
      for (const auto method : kRareMethods) {
        auto c = cfg;
        c.path.v_read = v_read;
        c.rare.method = method;
        util::Rng rng = next_rng();
        totals.add(rdo::measure_rer(c, rng, runner).rare);
      }
    }
    out["readout.rer_s"] = t.seconds();
  }

  out["rare.simulated_trials"] = totals.simulated;
  out["rare.eff_per_simulated"] =
      totals.simulated > 0.0 ? totals.effective / totals.simulated : 0.0;
  out["rare.max_rel_error"] = totals.max_rel_error;
}

}  // namespace

void run_layer_probes(std::uint64_t seed, eng::MonteCarloRunner& runner,
                      MetricValues& out) {
  llg_ceiling_probe(eng::derive_seed(seed, 1), out);
  setup_probe(eng::derive_seed(seed, 2), runner, out);
  rare_replays(eng::derive_seed(seed, 3), runner, out);
}

}  // namespace mram::perfbench
