// Sky watch: what the scheduler sees. Renders a terminal's field of view as
// an ASCII polar plot — available satellites, the GSO exclusion arc, the
// obstruction mask and the scheduler's pick — for a few consecutive slots,
// plus a world map of the constellation's sub-satellite points and the
// gateway network.
//
// Usage: sky_watch [terminal_index 0..3] [num_slots]

#include <cstdio>
#include <cstdlib>

#include "core/starlab.hpp"
#include "ground/gateway.hpp"
#include "viz/sky_plot.hpp"
#include "viz/world_map.hpp"

using namespace starlab;

int main(int argc, char** argv) {
  const std::size_t terminal_index =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) % 4 : 0;
  const int num_slots = argc > 2 ? std::atoi(argv[2]) : 3;

  const core::Scenario scenario(core::Scenario::default_config(0.5));
  const ground::Terminal& terminal = scenario.terminal(terminal_index);

  std::printf("Sky over %s  (. rim | # obstruction | g GSO arc | o available"
              " | x excluded | @ PICK)\n\n",
              terminal.name().c_str());

  for (time::SlotIndex s = scenario.first_slot();
       s < scenario.first_slot() + num_slots; ++s) {
    const auto jd =
        time::JulianDate::from_unix_seconds(scenario.grid().slot_mid(s));
    std::vector<viz::SkyMark> marks;

    // Obstruction mask horizon (sampled) and GSO arc first, so satellites
    // draw over them.
    for (double az = 0.0; az < 360.0; az += 3.0) {
      const double horizon = terminal.mask().horizon_at(geo::Deg(az)).value();
      if (horizon > 25.0) marks.push_back({az, horizon, '#'});
    }
    for (const geo::LookAngles& p : terminal.gso_arc().samples()) {
      if (p.elevation_deg >= 25.0) {
        marks.push_back({p.azimuth_deg, p.elevation_deg, 'g'});
      }
    }

    for (const ground::Candidate& c :
         terminal.candidates(scenario.catalog(), jd)) {
      marks.push_back({c.sky.look.azimuth_deg, c.sky.look.elevation_deg,
                       c.usable() ? 'o' : 'x'});
    }

    const auto pick = scenario.global_scheduler().allocate(terminal, s);
    if (pick.has_value()) {
      marks.push_back(
          {pick->look.azimuth_deg, pick->look.elevation_deg, '@'});
    }

    const auto when =
        time::UtcTime::from_unix_seconds(scenario.grid().slot_start(s));
    std::printf("--- slot @ %s ---\n%s", when.to_hms().c_str(),
                viz::render_sky(marks).c_str());
    if (pick.has_value()) {
      std::printf("pick: NORAD %d at az %.0f / el %.0f (%s)\n\n",
                  pick->norad_id, pick->look.azimuth_deg,
                  pick->look.elevation_deg,
                  pick->sunlit ? "sunlit" : "dark");
    }
  }

  // World view: constellation subpoints, gateways, terminals.
  std::printf("Constellation snapshot (s satellites | G gateways | T "
              "terminals):\n");
  viz::WorldMap map(100, 32);
  const auto jd =
      time::JulianDate::from_unix_seconds(scenario.epoch_unix());
  const auto& catalog = scenario.catalog();
  for (std::size_t i = 0; i < catalog.size(); i += 7) {  // thin for legibility
    const geo::Geodetic sp = sgp4::Ephemeris(catalog.record(i).tle).subpoint(jd);
    map.plot(geo::Deg(sp.latitude_deg), geo::Deg(sp.longitude_deg), 's');
  }
  const ground::GatewayNetwork network =
      ground::GatewayNetwork::paper_region_network();
  for (const ground::Gateway& g : network.gateways()) {
    map.plot(geo::Deg(g.site.latitude_deg), geo::Deg(g.site.longitude_deg), 'G');
  }
  for (const ground::Terminal& t : scenario.terminals()) {
    map.plot(geo::Deg(t.site().latitude_deg), geo::Deg(t.site().longitude_deg), 'T');
  }
  std::printf("%s", map.render().c_str());
  return 0;
}
