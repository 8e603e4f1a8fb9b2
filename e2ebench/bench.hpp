#pragma once

// Shared declarations of the end-to-end benchmark: the workload table, the
// per-seed world a workload runs against, output digests, the oracle check,
// and the traced per-layer replay.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "core/scenario.hpp"

namespace e2e {

enum class Entry {
  kInferredCampaign,  ///< InferencePipeline::run_inferred_campaign
  kOracleCampaign,    ///< core::run_campaign
  kPipeline,          ///< InferencePipeline::run, terminal 0
};

/// Simulated minutes one entry-point call covers: 60 slots per terminal,
/// with one of the pipeline's 10-minute dish resets inside the window.
inline constexpr double kCallMinutes = 15.0;

struct WorkloadSpec {
  const char* name;
  bool gen2;            ///< 9,636-satellite Gen2 catalogue, else Gen1 (4,236)
  bool all_terminals;   ///< the paper's four terminals, else Iowa only
  int threads;          ///< exec pool size, capped at the host's core count
  Entry entry;
  int fail_worlds;      ///< set-ups whose terminal-slots are fail_rate's base
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
[[nodiscard]] const WorkloadSpec* find_workload(std::string_view name);

/// Everything one set-up builds from a seed. The library only ever sees the
/// generated scenario and configs.
struct World {
  std::unique_ptr<starlab::core::Scenario> scenario;
  std::unique_ptr<starlab::core::InferencePipeline> pipeline;  ///< identify only
  starlab::core::CampaignConfig campaign;  ///< the call window of every entry
  std::size_t terminal_slots = 0;  ///< terminal-slots one call processes
};

/// Build world `k` of a run with benchmark seed `seed` (every world of every
/// run has its own inputs): the scenario (synthesis, TLE round-trip, SGP4
/// init, SoA store, spatial index), the pipeline and the exec pool. This is
/// the work setup_s times.
[[nodiscard]] World build_world(const WorkloadSpec& spec, std::uint64_t seed,
                                int k, double scale, int threads);

/// Output rows of one entry-point call (exactly one member is filled).
struct Rows {
  starlab::core::CampaignData campaign;
  starlab::core::PipelineResult pipeline;
  bool is_pipeline = false;
};

/// One closed-loop call of the workload's top-level entry point.
[[nodiscard]] Rows call_entry(const WorkloadSpec& spec, const World& world);

/// FNV-1a over the bit patterns of every output field, in row order.
[[nodiscard]] std::uint64_t digest(const Rows& rows);

/// Oracle truth per (terminal, slot): the norad id the global scheduler
/// allocates, or -1 when it allocates none, over the call window. Computed
/// outside any timed region.
using Truth = std::map<std::pair<std::size_t, std::int64_t>, int>;
[[nodiscard]] Truth oracle_truth(const World& world);

/// Terminal-slots attempted and failed, over one call. Identify workloads:
/// a terminal-slot fails when its answer is missing (no output row, as for
/// the slot after each dish reset, or an abstention) or differs from the
/// oracle. Campaign: when no satellite was chosen.
struct FailCount {
  std::size_t slots = 0;    ///< terminal-slots attempted
  std::size_t failed = 0;   ///< terminal-slots failed
  std::size_t rows = 0;     ///< output rows
  std::size_t decided = 0;  ///< identify rows that named a satellite
  std::size_t agreed = 0;   ///< ... and named the oracle's satellite
};
[[nodiscard]] FailCount count_failures(const WorkloadSpec& spec, const World& world,
                                       const Rows& rows, const Truth& truth);

/// One metric as printed: value, unit, direction.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
};

/// Nanoseconds on steady_clock: the clock the caller reads around a traced
/// replay and the tracer's spans both use.
[[nodiscard]] std::uint64_t wall_ns();

/// The traced replay: the same slot loop driven through each layer's public
/// functions with the benchmark's own spans around every call.
struct Trace;  ///< the replay's spans, counts and ephemeris cache (replay.cpp)
struct ReplayResult {
  Rows rows;
  std::shared_ptr<const Trace> trace;
};
[[nodiscard]] ReplayResult traced_replay(const WorkloadSpec& spec,
                                         const World& world);

/// Per-layer metrics of one traced replay, reconciled against the interval
/// [t0, t1] (wall_ns) that the caller measured around traced_replay. Throws
/// when the spans do not fit that interval (see replay.cpp).
struct ReplaySummary {
  std::vector<Metric> metrics;  ///< per-layer metrics but slot.* and overhead
  std::vector<double> slot_ms;  ///< wall time of each slot-loop iteration
};
[[nodiscard]] ReplaySummary summarize_replay(const World& world, const ReplayResult& replay,
                                             std::uint64_t t0, std::uint64_t t1);

}  // namespace e2e
