// The traced replay: the entry points' slot loops re-driven through the
// public functions of each layer, with the benchmark's own spans around
// every layer call. The replay must reproduce the entry point's rows
// exactly (main.cpp compares digests), so a later change to a layer API or
// to the loop's semantics makes the traced run fail instead of drifting.
//
// Each loop keeps its entry point's threading: the pipeline's slot loop runs
// on the calling thread (layer calls use the exec pool inside), and the
// campaign's slots are chunked over the pool exactly as run_campaign chunks
// them. Spans are recorded per lane: the calling thread, or one pool chunk.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "constellation/ephemeris_cache.hpp"
#include "exec/thread_pool.hpp"
#include "fault/injectors.hpp"
#include "match/identifier.hpp"
#include "obsmap/painter.hpp"
#include "sun/solar_ephemeris.hpp"

namespace e2e {

namespace sc = starlab::core;
namespace cn = starlab::constellation;
namespace tm = starlab::time;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// In-memory span recorder for the calling thread. Spans nest by a stack;
/// each one keeps its parent, wall interval and process CPU interval.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    std::uint64_t t0, t1, cpu0, cpu1;
  };

  int open(const char* name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, wall_ns(), 0, process_cpu_ns(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.cpu1 = process_cpu_ns();
    s.t1 = wall_ns();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scoped {
 public:
  Scoped(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scoped() { t_.close(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer& t_;
  int id_;
};

/// Span names: structural spans (the replay root, one per pool chunk of the
/// campaign, one per slot-loop iteration) and the layer spans whose self
/// time the layers own.
constexpr const char* kRoot = "replay";
constexpr const char* kChunk = "exec.chunk";
constexpr const char* kSlot = "slot";
constexpr const char* kPropagate = "constellation.propagate";
constexpr const char* kCandidates = "ground.candidates";
constexpr const char* kAllocate = "scheduler.allocate";
constexpr const char* kRecord = "obsmap.record";
constexpr const char* kIdentify = "match.identify";
constexpr const char* kAppend = "core.append_inferred_rows";

/// Counts taken at the same boundaries as the spans.
struct Counts {
  std::uint64_t sats_propagated = 0;
  std::uint64_t candidates_returned = 0;
  std::uint64_t identify_candidates = 0;
  std::uint64_t trajectory_pixels = 0;
  struct DtwSlot {
    std::size_t terminal;
    tm::SlotIndex slot;
    std::size_t trajectory;
  };
  std::vector<DtwSlot> dtw_slots;  ///< identify calls that reached DTW

  void absorb(const Counts& o) {
    sats_propagated += o.sats_propagated;
    candidates_returned += o.candidates_returned;
    identify_candidates += o.identify_candidates;
    trajectory_pixels += o.trajectory_pixels;
    dtw_slots.insert(dtw_slots.end(), o.dtw_slots.begin(), o.dtw_slots.end());
  }
};

/// One thread's run of spans: the calling thread, or one pool chunk.
struct Lane {
  Tracer tracer;
  Counts counts;
};

std::vector<cn::Catalog::Snapshot> propagate(Lane& lane, const sc::Scenario& scn,
                                             const tm::JulianDate& jd) {
  const Scoped s(lane.tracer, kPropagate);
  std::vector<cn::Catalog::Snapshot> snaps = scn.catalog().propagate_all(jd);
  lane.counts.sats_propagated += snaps.size();
  return snaps;
}

std::vector<starlab::ground::Candidate> candidates(
    Lane& lane, const sc::Scenario& scn, const starlab::ground::Terminal& terminal,
    const std::vector<cn::Catalog::Snapshot>& snaps, const tm::JulianDate& jd) {
  const Scoped s(lane.tracer, kCandidates);
  std::vector<starlab::ground::Candidate> out =
      terminal.candidates_from_snapshots(scn.catalog(), snaps, jd);
  lane.counts.candidates_returned += out.size();
  return out;
}

/// Mirror of InferencePipeline::run for one terminal.
sc::PipelineResult replay_run(Lane& c, const sc::Scenario& scn,
                              const sc::InferencePipeline& pipeline,
                              cn::EphemerisCache& cache, std::size_t terminal_index,
                              double duration_sec) {
  const sc::PipelineConfig config;  // the pipeline under test uses defaults
  const starlab::ground::Terminal& terminal = scn.terminal(terminal_index);
  const tm::SlotGrid& grid = scn.grid();

  sc::PipelineResult result;
  starlab::obsmap::MapRecorder recorder(
      scn.catalog(), terminal, grid,
      starlab::obsmap::TrajectoryPainter(pipeline.geometry()));
  starlab::match::SatelliteIdentifier identifier(
      scn.catalog(), pipeline.geometry(), grid, config.identifier);
  recorder.set_ephemeris_cache(&cache);
  identifier.set_ephemeris_cache(&cache);
  const starlab::fault::FrameFaultInjector frame_faults(scn.fault_plan());

  const tm::SlotIndex first = scn.first_slot();
  const auto num_slots =
      static_cast<tm::SlotIndex>(duration_sec / grid.period_seconds());
  const auto slots_per_reset = static_cast<tm::SlotIndex>(
      config.reset_interval_sec / grid.period_seconds());

  std::optional<starlab::obsmap::ObstructionMap> prev_frame;
  std::size_t polls_missed_since_prev = 0;
  for (tm::SlotIndex s = first; s < first + num_slots; ++s) {
    const Scoped slot_span(c.tracer, kSlot);
    if (slots_per_reset > 0 && (s - first) % slots_per_reset == 0 && s != first) {
      recorder.reset();
      prev_frame.reset();
      polls_missed_since_prev = 0;
    }
    const tm::JulianDate jd_mid = tm::JulianDate::from_unix_seconds(grid.slot_mid(s));
    const std::vector<cn::Catalog::Snapshot> snaps = propagate(c, scn, jd_mid);
    const std::vector<starlab::ground::Candidate> cands =
        candidates(c, scn, terminal, snaps, jd_mid);
    const std::optional<starlab::scheduler::Allocation> truth = [&] {
      const Scoped a(c.tracer, kAllocate);
      return scn.global_scheduler().allocate_from(terminal, s, cands);
    }();
    starlab::obsmap::ObstructionMap frame = [&] {
      const Scoped r(c.tracer, kRecord);
      return recorder.record_slot(truth);
    }();

    sc::SlotIdentification row;
    row.slot = s;
    if (truth.has_value()) row.truth_norad = truth->norad_id;
    if (frame_faults.frame_dropped(terminal_index, s)) {
      row.quality |= sc::quality::kFrameMissing;
    } else if (frame_faults.corrupt(frame, terminal_index, s) > 0) {
      row.quality |= sc::quality::kFrameCorrupted;
    }
    if ((row.quality & sc::quality::kFrameMissing) != 0) {
      result.rows.push_back(row);
      ++polls_missed_since_prev;
      continue;
    }
    if (prev_frame.has_value()) {
      if (polls_missed_since_prev > 0) row.quality |= sc::quality::kStaleBaseline;
      const starlab::match::Identification id = [&] {
        const Scoped m(c.tracer, kIdentify);
        return identifier.identify(terminal, s, *prev_frame, frame, snaps);
      }();
      c.counts.identify_candidates += static_cast<std::uint64_t>(id.num_candidates);
      c.counts.trajectory_pixels += id.trajectory_pixels;
      using starlab::match::AbstainReason;
      if (id.abstain != AbstainReason::kStarvedTrajectory &&
          id.abstain != AbstainReason::kAmbiguousComponents) {
        c.counts.dtw_slots.push_back({terminal_index, s, id.trajectory_pixels});
      }
      row.num_candidates = id.num_candidates;
      row.trajectory_pixels = id.trajectory_pixels;
      row.confidence = id.confidence;
      row.abstain = id.abstain;
      if (id.abstained()) row.quality |= sc::quality::kAbstained;
      if (id.reset_detected) row.quality |= sc::quality::kResetDetected;
      if (id.best.has_value()) {
        row.inferred_norad = id.best->norad_id;
        row.dtw = id.best->dtw;
      }
      result.rows.push_back(row);
    }
    prev_frame = std::move(frame);
    polls_missed_since_prev = 0;
  }
  return result;
}

/// Mirror of InferencePipeline::append_inferred_rows.
void replay_append(Lane& c, const sc::Scenario& scn, sc::CampaignData& data,
                   const sc::PipelineResult& result, std::size_t terminal_index) {
  const Scoped span(c.tracer, kAppend);
  const starlab::ground::Terminal& terminal = scn.terminal(terminal_index);
  const tm::SlotGrid& grid = scn.grid();
  for (const sc::SlotIdentification& row : result.rows) {
    const double t_mid = grid.slot_mid(row.slot);
    const tm::JulianDate jd = tm::JulianDate::from_unix_seconds(t_mid);
    sc::SlotObs obs;
    obs.slot = row.slot;
    obs.terminal_index = terminal_index;
    obs.unix_mid = t_mid;
    obs.local_hour = starlab::sun::local_solar_hour(terminal.site().longitude_deg, t_mid);
    obs.quality = row.quality;
    obs.confidence = row.inferred_norad.has_value() ? row.confidence : 0.0;
    std::vector<starlab::ground::Candidate> usable =
        candidates(c, scn, terminal, propagate(c, scn, jd), jd);
    std::erase_if(usable, [](const starlab::ground::Candidate& k) { return !k.usable(); });
    for (const starlab::ground::Candidate& k : usable) {
      if (row.inferred_norad.has_value() && k.sky.norad_id == *row.inferred_norad) {
        obs.chosen = static_cast<int>(obs.available.size());
      }
      obs.available.push_back({k.sky.norad_id, k.sky.look.azimuth_deg,
                               k.sky.look.elevation_deg, k.sky.age_days, k.sky.sunlit});
    }
    data.slots.push_back(std::move(obs));
  }
}

/// Mirror of core::run_campaign: the same slot chunks on the same pool, one
/// lane per chunk.
sc::CampaignData replay_campaign(std::vector<Lane>& lanes, const sc::Scenario& scn,
                                 const sc::CampaignConfig& config) {
  sc::CampaignData data;
  for (const starlab::ground::Terminal& t : scn.terminals()) {
    data.terminal_names.push_back(t.name());
  }
  const starlab::fault::SlotDropoutInjector dropout(scn.fault_plan());
  const bool inject_dropout =
      scn.fault_plan().intensity > 0.0 && scn.fault_plan().dropout.rate > 0.0;
  const std::size_t records = sc::campaign_recorded_slots(scn, config);
  std::vector<std::vector<sc::SlotObs>> per_slot(records);
  std::mutex lanes_mu;
  constexpr std::size_t kMinSlotsPerChunk = 4;  // run_campaign's grain
  starlab::exec::default_pool().parallel_for_chunks(
      records, kMinSlotsPerChunk, [&](std::size_t begin, std::size_t end) {
        Lane c;
        {
          const Scoped chunk(c.tracer, kChunk);
          for (std::size_t r = begin; r < end; ++r) {
            const Scoped slot_span(c.tracer, kSlot);
            const tm::SlotIndex s = sc::campaign_record_slot(scn, config, r);
            const double t_mid = scn.grid().slot_mid(s);
            const tm::JulianDate jd = tm::JulianDate::from_unix_seconds(t_mid);
            const std::vector<cn::Catalog::Snapshot> snaps = propagate(c, scn, jd);
            for (std::size_t ti = 0; ti < scn.terminals().size(); ++ti) {
              const starlab::ground::Terminal& terminal = scn.terminal(ti);
              std::vector<starlab::ground::Candidate> cands =
                  candidates(c, scn, terminal, snaps, jd);
              bool any_dropped = false;
              if (inject_dropout) {
                const auto removed = std::remove_if(
                    cands.begin(), cands.end(), [&](const starlab::ground::Candidate& k) {
                      return dropout.dropped(k.sky.norad_id, s);
                    });
                any_dropped = removed != cands.end();
                cands.erase(removed, cands.end());
              }
              sc::SlotObs obs;
              obs.slot = s;
              obs.terminal_index = ti;
              obs.unix_mid = t_mid;
              obs.local_hour =
                  starlab::sun::local_solar_hour(terminal.site().longitude_deg, t_mid);
              if (any_dropped) obs.quality |= sc::quality::kCandidateDropout;
              for (const starlab::ground::Candidate& k : cands) {
                if (!k.usable()) continue;
                obs.available.push_back({k.sky.norad_id, k.sky.look.azimuth_deg,
                                         k.sky.look.elevation_deg, k.sky.age_days,
                                         k.sky.sunlit});
              }
              const std::optional<starlab::scheduler::Allocation> alloc = [&] {
                const Scoped a(c.tracer, kAllocate);
                return scn.global_scheduler().allocate_from(terminal, s, cands);
              }();
              if (alloc.has_value()) {
                for (std::size_t i = 0; i < obs.available.size(); ++i) {
                  if (obs.available[i].norad_id == alloc->norad_id) {
                    obs.chosen = static_cast<int>(i);
                    break;
                  }
                }
              }
              if (!obs.has_choice()) obs.confidence = 0.0;
              per_slot[r].push_back(std::move(obs));
            }
          }
        }
        const std::lock_guard<std::mutex> lock(lanes_mu);
        lanes.push_back(std::move(c));
      });
  for (std::vector<sc::SlotObs>& rows : per_slot) {
    for (sc::SlotObs& row : rows) data.slots.push_back(std::move(row));
  }
  return data;
}

/// DP cells the banded DTW kernel (match/dtw.cpp) visits for an n x m
/// problem: the Sakoe-Chiba window around the slope-normalized diagonal,
/// stopping where the band becomes infeasible.
std::uint64_t band_cells(std::size_t n, std::size_t m, int band) {
  if (n == 0 || m == 0) return 0;
  const double slope = static_cast<double>(m) / static_cast<double>(n);
  std::uint64_t cells = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const double center = static_cast<double>(i) * slope;
    const auto lo = static_cast<std::size_t>(std::max(1.0, std::ceil(center - band)));
    const auto hi = static_cast<std::size_t>(
        std::min(static_cast<double>(m), std::floor(center + band)));
    if (lo > hi) break;
    cells += hi - lo + 1;
  }
  return cells;
}

/// DTW cells of every identify call that reached the DTW stage: both
/// traversals of the trajectory against every candidate's non-empty path.
/// Runs after the traced loop, outside every span.
std::uint64_t dtw_cells(const sc::Scenario& scn, const sc::InferencePipeline& pipeline,
                        const std::vector<Counts::DtwSlot>& slots) {
  const starlab::match::IdentifierConfig config = sc::PipelineConfig{}.identifier;
  const starlab::match::SatelliteIdentifier identifier(scn.catalog(), pipeline.geometry(),
                                                       scn.grid(), config);
  std::uint64_t cells = 0;
  for (const Counts::DtwSlot& d : slots) {
    const starlab::ground::Terminal& terminal = scn.terminal(d.terminal);
    const tm::JulianDate jd =
        tm::JulianDate::from_unix_seconds(scn.grid().slot_mid(d.slot));
    for (const cn::SkyEntry& e :
         scn.catalog().visible_from(terminal.site(), jd, config.min_elevation)) {
      const std::size_t m = identifier.candidate_path(e.catalog_index, terminal, d.slot).size();
      if (m > 0) cells += 2 * band_cells(d.trajectory, m, config.dtw_band);
    }
  }
  return cells;
}

struct SpanTotals {
  std::uint64_t calls = 0, wall = 0, self = 0, cpu = 0;
};

/// Share of the caller's measured interval the replay's root span must
/// cover. Outside the root span the replay only allocates its lanes and
/// returns, which takes microseconds against a replay of a second or more.
constexpr double kRootCoverage = 0.99;

}  // namespace

struct Trace {
  std::vector<Lane> lanes;  ///< lanes[0] is the calling thread; then pool chunks
  std::optional<cn::EphemerisCache> cache;
};

ReplayResult traced_replay(const WorkloadSpec& spec, const World& world) {
  const sc::Scenario& scn = *world.scenario;
  ReplayResult out;
  auto trace = std::make_shared<Trace>();
  const double seconds = kCallMinutes * 60.0;
  // The campaign adds one lane per chunk once the root span has closed.
  std::vector<Lane>& lanes = trace->lanes;
  lanes.resize(1);
  std::vector<Lane> chunk_lanes;
  {
    const Scoped root(lanes[0].tracer, kRoot);
    switch (spec.entry) {
      case Entry::kInferredCampaign: {
        // One cache across terminals, as the pipeline keeps one per instance.
        cn::EphemerisCache& cache = trace->cache.emplace(scn.catalog());
        sc::CampaignData& data = out.rows.campaign;
        for (const starlab::ground::Terminal& t : scn.terminals()) {
          data.terminal_names.push_back(t.name());
        }
        for (std::size_t ti = 0; ti < scn.terminals().size(); ++ti) {
          const sc::PipelineResult r =
              replay_run(lanes[0], scn, *world.pipeline, cache, ti, seconds);
          replay_append(lanes[0], scn, data, r, ti);
        }
        break;
      }
      case Entry::kOracleCampaign:
        out.rows.campaign = replay_campaign(chunk_lanes, scn, world.campaign);
        break;
      case Entry::kPipeline:
        out.rows.pipeline = replay_run(lanes[0], scn, *world.pipeline,
                                       trace->cache.emplace(scn.catalog()), 0, seconds);
        out.rows.is_pipeline = true;
        break;
    }
  }
  for (Lane& lane : chunk_lanes) lanes.push_back(std::move(lane));
  out.trace = std::move(trace);
  return out;
}

ReplaySummary summarize_replay(const World& world, const ReplayResult& replay,
                               std::uint64_t t0, std::uint64_t t1) {
  const sc::Scenario& scn = *world.scenario;
  const Trace& trace = *replay.trace;
  const std::vector<Lane>& lanes = trace.lanes;
  ReplaySummary out;

  // Aggregate per name; a span's self time is its wall time minus its
  // children's. Structural spans' self time is unattributed.
  std::map<std::string, SpanTotals> totals;
  std::uint64_t lane_top_wall = 0;  // summed wall of each lane's top spans
  Counts counts;
  for (const Lane& lane : lanes) {
    counts.absorb(lane.counts);
    const std::vector<Tracer::Span>& spans = lane.tracer.spans();
    std::vector<std::uint64_t> child_wall(spans.size(), 0);
    for (const Tracer::Span& s : spans) {
      if (s.parent >= 0) child_wall[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Tracer::Span& s = spans[i];
      SpanTotals& t = totals[s.name];
      ++t.calls;
      t.wall += s.t1 - s.t0;
      t.self += (s.t1 - s.t0) - child_wall[i];
      t.cpu += s.cpu1 - s.cpu0;
      if (std::string_view(s.name) == kSlot) {
        out.slot_ms.push_back(static_cast<double>(s.t1 - s.t0) / 1e6);
      }
      if (s.parent < 0) {
        if (s.t0 < t0 || s.t1 > t1) {
          throw std::runtime_error(std::string("trace does not reconcile: span ") + s.name +
                                   " lies outside the interval measured around the replay");
        }
        if (!(lanes.size() > 1 && std::string_view(s.name) == kRoot)) {
          lane_top_wall += s.t1 - s.t0;
        }
      }
    }
  }

  // Reconciliation against the caller's clock, not the tracer's: capacity is
  // the measured wall time on every lane that can run at once (one for the
  // pipeline loop, the pool's threads for the campaign's chunks). The root
  // span must cover nearly all of the measured interval, so no traced work
  // escapes the spans, and the lanes' spans must fit in the capacity. The
  // unattributed remainder is the capacity the layer spans' self time leaves:
  // loop bookkeeping, span overhead and idle pool lanes.
  const int threads = starlab::exec::default_num_threads();
  const std::uint64_t measured = t1 - t0;
  const std::uint64_t capacity = measured * (lanes.size() > 1 ? threads : 1);
  const std::uint64_t root_wall = totals[kRoot].wall;
  std::uint64_t layer_self = 0;
  for (const auto& [name, t] : totals) {
    if (name != kSlot && name != kChunk && name != kRoot) layer_self += t.self;
  }
  if (static_cast<double>(root_wall) < kRootCoverage * static_cast<double>(measured) ||
      lane_top_wall > capacity) {
    throw std::runtime_error(
        "trace does not reconcile: root span " + std::to_string(root_wall) + " ns of " +
        std::to_string(measured) + " ns measured; lanes' spans " +
        std::to_string(lane_top_wall) + " ns of capacity " + std::to_string(capacity) + " ns");
  }
  const std::uint64_t unattributed = capacity - layer_self;

  const double ts = static_cast<double>(world.terminal_slots);
  const auto self_ms = [&](const char* n) {
    return static_cast<double>(totals[n].self) / 1e6 / ts;
  };
  const auto util = [&](const char* n) {
    const SpanTotals& t = totals[n];
    return t.wall == 0 ? 0.0
                       : static_cast<double>(t.cpu) /
                             (static_cast<double>(t.wall) * threads);
  };
  const auto per = [](double num, double den) { return den == 0.0 ? 0.0 : num / den; };
  const auto calls = [&](const char* n) { return static_cast<double>(totals[n].calls); };

  const cn::EphemerisCache::Stats cs =
      trace.cache ? trace.cache->stats() : cn::EphemerisCache::Stats{};
  const double lookups = static_cast<double>(cs.hits + cs.misses + cs.bypasses);
  const double cells =
      world.pipeline
          ? static_cast<double>(dtw_cells(scn, *world.pipeline, counts.dtw_slots))
          : 0.0;

  out.metrics = {
      {"constellation.propagate.self_ms_per_slot", self_ms(kPropagate), "ms", "lower"},
      {"constellation.propagate.calls_per_slot", calls(kPropagate) / ts, "count", "lower"},
      {"constellation.propagate.sats_per_call",
       per(static_cast<double>(counts.sats_propagated), calls(kPropagate)), "count", "lower"},
      {"constellation.propagate.cpu_util", util(kPropagate), "ratio", "higher"},
      {"ground.candidates.self_ms_per_slot", self_ms(kCandidates), "ms", "lower"},
      {"ground.candidates.calls_per_slot", calls(kCandidates) / ts, "count", "lower"},
      {"ground.candidates.visible_per_call",
       per(static_cast<double>(counts.candidates_returned), calls(kCandidates)), "count",
       "lower"},
      {"ground.candidates.cpu_util", util(kCandidates), "ratio", "higher"},
      {"scheduler.allocate.self_ms_per_slot", self_ms(kAllocate), "ms", "lower"},
      {"scheduler.allocate.cpu_util", util(kAllocate), "ratio", "higher"},
      {"obsmap.record.self_ms_per_slot", self_ms(kRecord), "ms", "lower"},
      {"match.identify.self_ms_per_slot", self_ms(kIdentify), "ms", "lower"},
      {"match.identify.cpu_util", util(kIdentify), "ratio", "higher"},
      {"match.identify.candidates_per_slot",
       static_cast<double>(counts.identify_candidates) / ts, "count", "lower"},
      {"match.identify.trajectory_pixels",
       per(static_cast<double>(counts.trajectory_pixels), calls(kIdentify)), "px", "lower"},
      {"match.dtw.cells_per_slot", cells / ts, "cells", "lower"},
      {"constellation.ephemeris_cache.hit_ratio", per(static_cast<double>(cs.hits), lookups),
       "ratio", "higher"},
      {"constellation.ephemeris_cache.hits", static_cast<double>(cs.hits), "count", "higher"},
      {"constellation.ephemeris_cache.lookups", lookups, "count", "lower"},
      {"core.append_inferred_rows.self_ms_per_slot", self_ms(kAppend), "ms", "lower"},
      {"trace.unattributed_frac",
       static_cast<double>(unattributed) / static_cast<double>(capacity), "ratio", "lower"},
  };
  return out;
}

}  // namespace e2e
