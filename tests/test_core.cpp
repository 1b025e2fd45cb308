// Flow-level tests: the five configurations end-to-end, metric
// consistency, heterogeneous invariants, enhancement flags, frequency
// search, and determinism.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "gen/designs.hpp"
#include "part/fm.hpp"
#include "place/place.hpp"
#include "tech/library_factory.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

namespace mc = m3d::core;
namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mp = m3d::part;

namespace {

class Quiet : public ::testing::Test {
 protected:
  void SetUp() override {
    m3d::util::set_log_level(m3d::util::LogLevel::Silent);
  }
};

using CoreFlow = Quiet;

mn::Netlist small(const char* which = "netcard", double scale = 0.05) {
  mg::GenOptions g;
  g.scale = scale;
  return mg::make_design(which, g);
}

mc::FlowOptions fast_opts(double period = 1.2) {
  mc::FlowOptions o;
  o.clock_period_ns = period;
  o.opt.max_sizing_rounds = 2;
  o.repart.max_iters = 3;
  return o;
}

}  // namespace

TEST_F(CoreFlow, ConfigNamesAndKinds) {
  EXPECT_STREQ(mc::config_name(mc::Config::TwoD9T), "2D-9T");
  EXPECT_STREQ(mc::config_name(mc::Config::Hetero3D), "Hetero-3D");
  EXPECT_FALSE(mc::config_is_3d(mc::Config::TwoD12T));
  EXPECT_TRUE(mc::config_is_3d(mc::Config::ThreeD9T));
  EXPECT_TRUE(mc::config_is_3d(mc::Config::Hetero3D));
}

TEST_F(CoreFlow, AllConfigsProduceSaneMetrics) {
  const auto nl = small();
  for (auto cfg : {mc::Config::TwoD9T, mc::Config::TwoD12T,
                   mc::Config::ThreeD9T, mc::Config::ThreeD12T,
                   mc::Config::Hetero3D}) {
    const auto r = mc::run_flow(nl, cfg, fast_opts());
    const auto& m = r.metrics;
    EXPECT_GT(m.total_power_mw, 0.0) << m.config_name;
    EXPECT_GT(m.silicon_area_mm2, 0.0) << m.config_name;
    EXPECT_GT(m.wirelength_m, 0.0) << m.config_name;
    EXPECT_GT(m.density_pct, 20.0) << m.config_name;
    EXPECT_LT(m.density_pct, 101.0) << m.config_name;
    EXPECT_GT(m.ppc, 0.0) << m.config_name;
    EXPECT_TRUE(std::isfinite(m.wns_ns)) << m.config_name;
    EXPECT_NEAR(m.pdp_pj, m.total_power_mw * m.effective_delay_ns, 1e-6)
        << m.config_name;
    EXPECT_NEAR(m.effective_delay_ns, m.clock_period_ns - m.wns_ns, 1e-9);
    r.design.nl().validate();
    // Placement must end legal.
    EXPECT_LT(m3d::place::max_overlap_um2(r.design), 1e-6)
        << m.config_name;
  }
}

TEST_F(CoreFlow, ThreeDUsesMivsTwoDDoesNot) {
  const auto nl = small();
  EXPECT_EQ(mc::run_flow(nl, mc::Config::TwoD12T, fast_opts()).metrics.mivs,
            0);
  EXPECT_GT(
      mc::run_flow(nl, mc::Config::ThreeD12T, fast_opts()).metrics.mivs, 0);
}

TEST_F(CoreFlow, HeteroUsesBothLibraries) {
  const auto r = mc::run_flow(small(), mc::Config::Hetero3D, fast_opts());
  const auto& d = r.design;
  EXPECT_EQ(d.lib(mn::kBottomTier).tracks(), 12);
  EXPECT_EQ(d.lib(mn::kTopTier).tracks(), 9);
  EXPECT_GT(d.tier_std_cell_area(mn::kBottomTier), 0.0);
  EXPECT_GT(d.tier_std_cell_area(mn::kTopTier), 0.0);
  EXPECT_GT(r.timing_part.pinned_cells, 0);
}

TEST_F(CoreFlow, HeteroSlowTierStagesAreSlower) {
  // Paper Table VIII: on the hetero critical path the 9-track stages cost
  // roughly twice the 12-track stages (~45 vs ~19 ps) — per-cell delay on
  // the top tier must exceed the bottom tier whenever both appear.
  const auto r =
      mc::run_flow(small("cpu", 0.15), mc::Config::Hetero3D, fast_opts(0.7));
  const auto& cp = r.metrics.critical_path;
  if (cp.cells_on_tier[0] > 0 && cp.cells_on_tier[1] > 0) {
    const double avg_bottom = cp.delay_on_tier[0] / cp.cells_on_tier[0];
    const double avg_top = cp.delay_on_tier[1] / cp.cells_on_tier[1];
    EXPECT_GT(avg_top, avg_bottom);
  }
  // And the most critical pinned cells really sit on the fast tier.
  EXPECT_GT(r.timing_part.pinned_cells, 0);
}

TEST_F(CoreFlow, DisablingTimingPartitionFallsBackToMincut) {
  auto opts = fast_opts();
  opts.enable_timing_partition = false;
  const auto r = mc::run_flow(small(), mc::Config::Hetero3D, opts);
  EXPECT_EQ(r.timing_part.pinned_cells, 0);
  EXPECT_GT(r.timing_part.cut, 0);
}

TEST_F(CoreFlow, DisablingRepartitionSkipsEco) {
  auto opts = fast_opts();
  opts.enable_repartition = false;
  const auto r = mc::run_flow(small(), mc::Config::Hetero3D, opts);
  EXPECT_EQ(r.repart.iterations, 0);
}

TEST_F(CoreFlow, PathBasedCriticalityFlagWorks) {
  auto opts = fast_opts();
  opts.path_based_criticality = true;
  const auto r = mc::run_flow(small("cpu", 0.12), mc::Config::Hetero3D,
                              opts);
  EXPECT_GT(r.timing_part.pinned_cells, 0);
}

TEST_F(CoreFlow, DeterministicAcrossRuns) {
  const auto nl = small();
  const auto a = mc::run_flow(nl, mc::Config::Hetero3D, fast_opts());
  const auto b = mc::run_flow(nl, mc::Config::Hetero3D, fast_opts());
  EXPECT_DOUBLE_EQ(a.metrics.wns_ns, b.metrics.wns_ns);
  EXPECT_DOUBLE_EQ(a.metrics.total_power_mw, b.metrics.total_power_mw);
  EXPECT_DOUBLE_EQ(a.metrics.wirelength_m, b.metrics.wirelength_m);
  EXPECT_EQ(a.metrics.mivs, b.metrics.mivs);
}

TEST_F(CoreFlow, TighterPeriodLowersSlack) {
  const auto nl = small();
  const auto loose = mc::run_flow(nl, mc::Config::TwoD12T, fast_opts(2.0));
  const auto tight = mc::run_flow(nl, mc::Config::TwoD12T, fast_opts(0.5));
  EXPECT_GT(loose.metrics.wns_ns, tight.metrics.wns_ns);
}

TEST_F(CoreFlow, NineTrackSlowerThanTwelveTrack) {
  const auto nl = small();
  const auto r9 = mc::run_flow(nl, mc::Config::TwoD9T, fast_opts(0.8));
  const auto r12 = mc::run_flow(nl, mc::Config::TwoD12T, fast_opts(0.8));
  EXPECT_LT(r9.metrics.wns_ns, r12.metrics.wns_ns);
}

TEST_F(CoreFlow, FindMaxFrequencyBrackets) {
  const auto nl = small("netcard", 0.04);
  auto opts = fast_opts();
  const double f =
      mc::find_max_frequency(nl, mc::Config::TwoD12T, opts, 0.3, 3.0, 3);
  EXPECT_GE(f, 0.3);
  EXPECT_LE(f, 3.0);
  // The found frequency must itself meet the acceptance rule.
  opts.clock_period_ns = 1.0 / f;
  const auto r = mc::run_flow(nl, mc::Config::TwoD12T, opts);
  EXPECT_GE(r.metrics.wns_ns, -0.07 * opts.clock_period_ns - 1e-9);
}

TEST_F(CoreFlow, PctDelta) {
  EXPECT_DOUBLE_EQ(mc::pct_delta(90.0, 100.0), -10.0);
  EXPECT_DOUBLE_EQ(mc::pct_delta(110.0, 100.0), 10.0);
  EXPECT_THROW(mc::pct_delta(1.0, 0.0), m3d::util::Error);
}

TEST_F(CoreFlow, MemoryNetReportOnCpu) {
  const auto r =
      mc::run_flow(small("cpu", 0.12), mc::Config::Hetero3D, fast_opts(1.0));
  const auto& mem = r.metrics.memory_nets;
  EXPECT_GT(mem.input_nets, 0);
  EXPECT_GT(mem.output_nets, 0);
  EXPECT_GT(mem.switching_uw, 0.0);
}

TEST_F(CoreFlow, ClockReportPopulated) {
  const auto r = mc::run_flow(small(), mc::Config::Hetero3D, fast_opts());
  EXPECT_GT(r.metrics.clock.buffer_count, 0);
  EXPECT_GT(r.metrics.clock.max_latency_ns, 0.0);
  EXPECT_GT(r.metrics.clock_power_mw, 0.0);
}

// Frozen run_flow metrics, recorded with the table-6/7 golden CSVs in
// the tree (which byte-match the pre-arena seed build). Any hot-path
// optimization — the SoA netlist arena, the bucketed legalizer, the
// spatial router, batched CTS detach — must reproduce these doubles
// bit-for-bit; a change here is a determinism break, not noise, and has
// to be called out with a golden regeneration.
TEST_F(CoreFlow, GoldenMetricsMatchSeedFlow) {
  struct Golden {
    mc::Config cfg;
    double wns_ns, wirelength_m;
    long long mivs;
    double total_power_mw, clock_power_mw, silicon_area_mm2;
    double density_pct, die_cost_e6, ppc;
  };
  const Golden goldens[] = {
      {mc::Config::TwoD12T, 0.85562949063245786, 0.015928954297995134, 0,
       1.1654664692609398, 0.51186347465710447, 0.002140800000000036,
       70.644618834080688, 0.030631393374721348, 23342.760709221533},
      {mc::Config::Hetero3D, 0.76450296212855939, 0.013365063274424643, 816,
       0.98225908688071162, 0.47439879384803718, 0.0020097138461538373,
       64.812659896472951, 0.031046163849613635, 27326.546758843091},
  };
  for (const auto& g : goldens) {
    const auto r = mc::run_flow(small("aes"), g.cfg, fast_opts());
    const auto& m = r.metrics;
    EXPECT_EQ(m.wns_ns, g.wns_ns) << m.config_name;
    EXPECT_EQ(m.tns_ns, 0.0) << m.config_name;
    EXPECT_EQ(m.wirelength_m, g.wirelength_m) << m.config_name;
    EXPECT_EQ(m.mivs, g.mivs) << m.config_name;
    EXPECT_EQ(m.total_power_mw, g.total_power_mw) << m.config_name;
    EXPECT_EQ(m.clock_power_mw, g.clock_power_mw) << m.config_name;
    EXPECT_EQ(m.silicon_area_mm2, g.silicon_area_mm2) << m.config_name;
    EXPECT_EQ(m.density_pct, g.density_pct) << m.config_name;
    EXPECT_EQ(m.die_cost_e6, g.die_cost_e6) << m.config_name;
    EXPECT_EQ(m.ppc, g.ppc) << m.config_name;
  }
}

namespace {

/// One complete ("X") span of a chrome trace written by util::trace_end().
struct TraceSpanRec {
  std::string name;
  long long tid = 0, ts = 0, dur = 0;
};

std::vector<TraceSpanRec> read_spans(const std::string& path) {
  std::vector<TraceSpanRec> out;
  std::ifstream in(path);
  std::string line;
  auto field = [&](const char* key) {
    const std::size_t at = line.find(key);
    return at == std::string::npos ? std::string::npos
                                   : at + std::string(key).size();
  };
  while (std::getline(in, line)) {
    if (line.rfind("{\"name\":\"", 0) != 0) continue;
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    TraceSpanRec r;
    const std::size_t n0 = field("\"name\":\"");
    r.name = line.substr(n0, line.find('"', n0) - n0);
    r.tid = std::stoll(line.substr(field("\"tid\":")));
    r.ts = std::stoll(line.substr(field("\"ts\":")));
    r.dur = std::stoll(line.substr(field("\"dur\":")));
    out.push_back(r);
  }
  return out;
}

/// Spans named `child` nested inside `parent` (same thread, inside its
/// time window).
int nested_count(const std::vector<TraceSpanRec>& spans,
                 const TraceSpanRec& parent, const std::string& child) {
  int n = 0;
  for (const auto& s : spans)
    if (s.name == child && s.tid == parent.tid && s.ts >= parent.ts &&
        s.ts + s.dur <= parent.ts + parent.dur)
      ++n;
  return n;
}

int count_named(const std::vector<TraceSpanRec>& spans,
                const std::string& name) {
  int n = 0;
  for (const auto& s : spans) n += s.name == name;
  return n;
}

}  // namespace

// Deterministic work counters of one traced Hetero-3D flow: the sizing
// loops route once and build one timing graph, whatever their round
// count, and the flow as a whole routes seven times (partition, the two
// routed optimizations, ECO, rebalance, fix-up ECO, finalize).
TEST_F(CoreFlow, TracedHeteroFlowRoutesAndBuildsTimingGraphsOnce) {
  const std::string path =
      ::testing::TempDir() + "m3d_core_work_counters.json";
  m3d::util::trace_begin(path);
  { mc::run_flow(small("aes"), mc::Config::Hetero3D, fast_opts()); }
  m3d::util::trace_end();
  const auto spans = read_spans(path);
  std::remove(path.c_str());

  EXPECT_EQ(count_named(spans, "flow"), 1);
  EXPECT_EQ(count_named(spans, "route_pass"), 7);
  // synth, partition, two routed optimizations, ECO, rebalance, fix-up
  // ECO and finalize each build exactly one timing graph.
  EXPECT_EQ(count_named(spans, "sta_build"), 8);
  int routed_opts = 0;
  for (const auto& s : spans) {
    if (s.name == "synth") {
      EXPECT_EQ(nested_count(spans, s, "route_pass"), 0);
      EXPECT_EQ(nested_count(spans, s, "sta_build"), 1);
    }
    if (s.name != "post_place_opt" && s.name != "post_cts_opt") continue;
    ++routed_opts;
    EXPECT_EQ(nested_count(spans, s, "route_pass"), 1) << s.name;
    EXPECT_EQ(nested_count(spans, s, "sta_build"), 1) << s.name;
  }
  EXPECT_EQ(routed_opts, 2);
}
