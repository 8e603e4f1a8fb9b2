#include <algorithm>
#include <bit>

#include "bench.hpp"
#include "exec/thread_pool.hpp"

namespace e2e {

namespace sc = starlab::core;

const std::vector<WorkloadSpec>& workloads() {
  // README.md explains each choice. The fail worlds are sized so that their
  // base finishes well inside BENCHMARK.json's run_seconds on a 4-core host.
  static const std::vector<WorkloadSpec> table = {
      {"identify-gen1", false, true, 2, Entry::kInferredCampaign, 14},
      {"campaign-gen2", true, true, 2, Entry::kOracleCampaign, 32},
      {"identify-gen2-serial", true, false, 1, Entry::kPipeline, 40},
  };
  return table;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

World build_world(const WorkloadSpec& spec, std::uint64_t bench_seed, int k,
                  double scale, int threads) {
  starlab::exec::configure(starlab::exec::Config{threads});
  const std::uint64_t seed = splitmix64(bench_seed) ^ static_cast<std::uint64_t>(k);

  sc::ScenarioConfig cfg = sc::Scenario::default_config(scale);
  cfg.constellation.gen2 = spec.gen2;
  cfg.seed = splitmix64(seed);
  cfg.constellation.seed = splitmix64(seed ^ 0x5EEDC0DEULL);
  if (!spec.all_terminals) cfg.terminals.resize(1);  // Iowa comes first

  World world;
  world.scenario = std::make_unique<sc::Scenario>(std::move(cfg));
  if (spec.entry != Entry::kOracleCampaign) {
    world.pipeline = std::make_unique<sc::InferencePipeline>(*world.scenario);
  }
  world.campaign.duration_hours = kCallMinutes / 60.0;
  if (spec.entry == Entry::kOracleCampaign) {
    // The campaign is the one entry point with a start parameter: the seed
    // also picks which quarter hour of the first day it observes. The
    // pipeline always starts at the scenario epoch.
    world.campaign.start_offset_hours =
        0.25 * static_cast<double>(splitmix64(seed ^ 0x0FF5E7ULL) % 96);
  }
  world.terminal_slots =
      sc::campaign_recorded_slots(*world.scenario, world.campaign) *
      world.scenario->terminals().size();
  return world;
}

Rows call_entry(const WorkloadSpec& spec, const World& world) {
  Rows rows;
  const double seconds = kCallMinutes * 60.0;
  switch (spec.entry) {
    case Entry::kInferredCampaign:
      rows.campaign = world.pipeline->run_inferred_campaign(seconds);
      break;
    case Entry::kOracleCampaign:
      rows.campaign = sc::run_campaign(*world.scenario, world.campaign);
      break;
    case Entry::kPipeline:
      rows.pipeline = world.pipeline->run(0, seconds);
      rows.is_pipeline = true;
      break;
  }
  return rows;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001B3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
};

}  // namespace

std::uint64_t digest(const Rows& rows) {
  Fnv f;
  if (rows.is_pipeline) {
    for (const sc::SlotIdentification& r : rows.pipeline.rows) {
      f.i64(r.slot);
      f.i64(r.truth_norad.value_or(-1));
      f.i64(r.inferred_norad.value_or(-1));
      f.f64(r.dtw);
      f.i64(r.num_candidates);
      f.u64(r.trajectory_pixels);
      f.u64(r.quality);
      f.f64(r.confidence);
      f.i64(static_cast<std::int64_t>(r.abstain));
    }
    return f.h;
  }
  for (const std::string& name : rows.campaign.terminal_names) f.str(name);
  for (const sc::SlotObs& s : rows.campaign.slots) {
    f.i64(s.slot);
    f.u64(s.terminal_index);
    f.f64(s.unix_mid);
    f.f64(s.local_hour);
    f.i64(s.chosen);
    f.u64(s.quality);
    f.f64(s.confidence);
    f.u64(s.available.size());
    for (const sc::CandidateObs& c : s.available) {
      f.i64(c.norad_id);
      f.f64(c.azimuth_deg);
      f.f64(c.elevation_deg);
      f.f64(c.age_days);
      f.u64(c.sunlit ? 1 : 0);
    }
  }
  return f.h;
}

Truth oracle_truth(const World& world) {
  // The scheduler's own per-slot entry (indexed sky query), an independent
  // path from the whole-catalogue snapshots the pipeline allocates from.
  // Spread over the world's pool; allocate() is a pure function of its
  // arguments.
  const sc::Scenario& scn = *world.scenario;
  const std::size_t records = sc::campaign_recorded_slots(scn, world.campaign);
  const std::size_t terminals = scn.terminals().size();
  std::vector<int> norad(records * terminals, -1);
  starlab::exec::default_pool().parallel_for(norad.size(), [&](std::size_t i) {
    const starlab::time::SlotIndex s =
        sc::campaign_record_slot(scn, world.campaign, i % records);
    const auto alloc = scn.global_scheduler().allocate(scn.terminal(i / records), s);
    if (alloc.has_value()) norad[i] = alloc->norad_id;
  });
  Truth truth;
  for (std::size_t i = 0; i < norad.size(); ++i) {
    truth[{i / records, sc::campaign_record_slot(scn, world.campaign, i % records)}] =
        norad[i];
  }
  return truth;
}

namespace {

/// One identify row against the oracle: -1 stands for "no satellite".
void tally(FailCount& fc, int inferred, int truth) {
  ++fc.rows;
  if (inferred >= 0) ++fc.decided;
  if (inferred >= 0 && inferred == truth) {
    ++fc.agreed;
  } else {
    ++fc.failed;
  }
}

int truth_of(const Truth& truth, std::size_t terminal, std::int64_t slot) {
  const auto it = truth.find({terminal, slot});
  return it == truth.end() ? -1 : it->second;
}

}  // namespace

FailCount count_failures(const WorkloadSpec& spec, const World& world,
                         const Rows& rows, const Truth& truth) {
  FailCount fc;
  switch (spec.entry) {
    case Entry::kOracleCampaign:
      for (const sc::SlotObs& s : rows.campaign.slots) {
        ++fc.rows;
        if (!s.has_choice()) ++fc.failed;
      }
      break;
    case Entry::kInferredCampaign:
      for (const sc::SlotObs& s : rows.campaign.slots) {
        tally(fc,
              s.has_choice() ? s.chosen_candidate().norad_id : -1,
              truth_of(truth, s.terminal_index, s.slot));
      }
      break;
    case Entry::kPipeline:
      for (const sc::SlotIdentification& r : rows.pipeline.rows) {
        tally(fc, r.inferred_norad.value_or(-1), truth_of(truth, 0, r.slot));
      }
      break;
  }
  fc.slots = world.terminal_slots;
  fc.failed += fc.slots - std::min(fc.slots, fc.rows);
  return fc;
}

}  // namespace e2e
