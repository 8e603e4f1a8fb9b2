// Committed golden digests of the top-level outputs.
//
// A refactor that claims to preserve behaviour has to reproduce these bytes:
// the campaign CSV of the oracle campaign, the campaign CSV of the inferred
// (§4-labelled) campaign, and a fixed-precision rendering of one terminal's
// pipeline rows, each pinned as (CRC-32, byte length) for Gen1 and Gen2.
// The 1/8-scale digests (ctest label `goldens`) are checked at 1 and 4 pool
// threads and with observability fully off and fully on, so a pass also
// re-proves the thread-count and null-sink guarantees against a fixed
// reference rather than against another run of the same code. The
// full-scale digests (label `perfgate`, the slower set) pin the catalogue
// sizes the benchmarks run at, at 1 and 4 threads with observability off.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <string>

#include "core/campaign.hpp"
#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "io/campaign_io.hpp"
#include "io/journal_io.hpp"
#include "obs/config.hpp"
#include "obs/prof.hpp"
#include "obs/trace.hpp"

namespace starlab {
namespace {

struct Digest {
  std::uint32_t crc = 0;
  std::size_t bytes = 0;
};

struct Goldens {
  Digest campaign;  ///< save_campaign(run_campaign(0.25 h))
  Digest inferred;  ///< save_campaign(run_inferred_campaign(900 s))
  Digest pipeline;  ///< render(InferencePipeline::run(0, 900 s))
};

Digest digest_of(const std::string& bytes) {
  return {io::crc32(bytes), bytes.size()};
}

std::string campaign_csv(const core::CampaignData& data) {
  std::ostringstream out;
  io::save_campaign(out, data);
  return out.str();
}

/// One line per row, every field at a fixed precision (the campaign CSV's
/// six decimals for the doubles).
std::string render(const core::PipelineResult& result) {
  std::string out;
  char line[256];
  for (const core::SlotIdentification& r : result.rows) {
    std::snprintf(line, sizeof(line), "%lld,%d,%d,%.6f,%d,%zu,%u,%.6f,%d\n",
                  static_cast<long long>(r.slot), r.truth_norad.value_or(-1),
                  r.inferred_norad.value_or(-1), r.dtw, r.num_candidates,
                  r.trajectory_pixels, r.quality, r.confidence,
                  static_cast<int>(r.abstain));
    out += line;
  }
  return out;
}

core::ScenarioConfig golden_config(double scale, bool gen2) {
  core::ScenarioConfig cfg = core::Scenario::default_config(scale);
  cfg.constellation.gen2 = gen2;
  cfg.constellation.seed = 20230601;
  cfg.seed = 7;
  return cfg;
}

/// Restores the pool size and the observability switches on scope exit, and
/// drops whatever the instrumented runs recorded.
struct EnvGuard {
  obs::Config saved = obs::config();
  ~EnvGuard() {
    obs::set_config(saved);
    obs::TraceRecorder::instance().clear();
    obs::Profiler::instance().clear();
    exec::configure({});
  }
};

void expect_digest(const Digest& got, const Digest& want, const char* what) {
  EXPECT_EQ(got.crc, want.crc) << what << " crc32 (bytes=" << got.bytes
                               << ")";
  EXPECT_EQ(got.bytes, want.bytes) << what << " byte length";
}

void check_goldens(double scale, bool gen2, const Goldens& want,
                   std::initializer_list<bool> obs_modes) {
  const EnvGuard guard;
  const core::Scenario scenario(golden_config(scale, gen2));
  const core::InferencePipeline pipeline(scenario);
  core::CampaignConfig campaign;
  campaign.duration_hours = 0.25;

  for (const int threads : {1, 4}) {
    for (const bool obs_on : obs_modes) {
      SCOPED_TRACE(::testing::Message()
                   << (gen2 ? "gen2" : "gen1") << " threads=" << threads
                   << " obs=" << (obs_on ? "all" : "disabled"));
      exec::configure({threads});
      obs::set_config(obs_on ? obs::Config::all() : obs::Config::disabled());
      expect_digest(
          digest_of(campaign_csv(core::run_campaign(scenario, campaign))),
          want.campaign, "run_campaign");
      expect_digest(
          digest_of(campaign_csv(pipeline.run_inferred_campaign(900.0))),
          want.inferred, "run_inferred_campaign");
      expect_digest(digest_of(render(pipeline.run(0, 900.0))), want.pipeline,
                    "InferencePipeline::run");
    }
  }
}

TEST(Goldens, Gen1EighthScale) {
  check_goldens(0.125, false,
                {.campaign = {0xbf809baau, 71687},
                 .inferred = {0x1c64866fu, 69060},
                 .pipeline = {0xb4149d97u, 2774}},
                {false, true});
}

TEST(Goldens, Gen2EighthScale) {
  check_goldens(0.125, true,
                {.campaign = {0x853e9ca4u, 161827},
                 .inferred = {0x24ae7846u, 156299},
                 .pipeline = {0x9df42750u, 2820}},
                {false, true});
}

TEST(Goldens, Gen1FullScale) {
  check_goldens(1.0, false,
                {.campaign = {0xd0fe87dau, 549832},
                 .inferred = {0x99a22272u, 532046},
                 .pipeline = {0x0d21822du, 2845}},
                {false});
}

TEST(Goldens, Gen2FullScale) {
  check_goldens(1.0, true,
                {.campaign = {0x683e3f5au, 1289359},
                 .inferred = {0xc55d5ce2u, 1247128},
                 .pipeline = {0x825422beu, 2851}},
                {false});
}

}  // namespace
}  // namespace starlab
