// End-to-end flow benchmark: runs one workload of full core::run_flow calls
// for a fixed time, checks every flow result with the checks in checks.hpp,
// and prints its metrics as one JSON line (the last line of stdout).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --derive-periods [--gen-seed <n>] [--scale <x>] [--netlists a,b]
//
// A run always uses the netlists of the generator's reference seed 7, at
// the fixed periods derived for them; --gen-seed belongs to
// --derive-periods only.
//
// Workloads (README.md has the make-up, the periods and reference figures):
//   paper_hetero  Hetero-3D on aes, ldpc, netcard, cpu at scale 0.5, one
//                 after another on a 1-worker pool, fixed periods.
//   iso_sweep     the Table VI/VII method at scale 0.25: per netlist a
//                 2D-12T frequency search, then all five configurations at
//                 the period it finds, fanned out through an exec::TaskGraph
//                 with a fresh exec::FlowCache per unit, on a 1-worker pool
//                 (the worker and the helping caller run flows side by side).
//   large_hetero  one Hetero-3D flow on netcard at scale 1, on a pool whose
//                 workers plus the helping caller make nproc threads.
//
// The untraced run (--trace 0) reports the end-to-end metrics; the traced
// run (--trace 1) alternates untraced units with units traced through the
// program's span sink, and reports the per-layer metrics.

#include <sched.h>
#include <unistd.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/flow.hpp"
#include "exec/flow_cache.hpp"
#include "exec/pool.hpp"
#include "exec/task_graph.hpp"
#include "gen/designs.hpp"
#include "util/log.hpp"
#include "util/trace.hpp"

#ifndef M3D_BENCH_BUILD_TYPE
#define M3D_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef M3D_BENCH_COMPILER
#define M3D_BENCH_COMPILER "unknown"
#endif

namespace m3d::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using core::Config;
using ResultPtr = std::shared_ptr<const core::FlowResult>;

// ---- workload definitions --------------------------------------------------

/// The frequency search of the paper's method (as bench::target_period_ns):
/// 2D-12T, bisection over [0.4, 4.0] GHz, 6 steps, WNS within 5 % of the
/// period.
constexpr double kSearchLoGhz = 0.4;
constexpr double kSearchHiGhz = 4.0;
constexpr int kSearchIters = 6;
constexpr double kWnsBudget = 0.05;

/// Fixed iso-performance frequencies (GHz) of the generator's reference
/// seed 7, as `perfbench --derive-periods --scale 0.5` (paper_hetero) and
/// `--scale 1 --netlists netcard` (large_hetero) print them. The period is
/// 1 / f.
double fixed_ghz(const std::string& netlist, double scale) {
  if (scale == 1.0 && netlist == "netcard") return 0.90625000000000011;
  static const std::map<std::string, double> kHalfScale = {
      {"aes", 2.5375000000000005},
      {"ldpc", 1.75},
      {"netcard", 1.1875},
      {"cpu", 1.5249999999999999}};
  return kHalfScale.at(netlist);
}

struct Workload {
  std::string name;
  std::vector<std::string> netlists;
  double scale = 0.5;
  bool sweep = false;  ///< iso_sweep: search + five configurations
  int pool_threads = 1;
};

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return 1;
}

/// Worker count such that the workers plus the helping caller make nproc.
int all_core_workers() { return std::max(1, nproc() - 1); }

bool make_workload(const std::string& name, Workload& w) {
  w.name = name;
  if (name == "paper_hetero") {
    w.netlists = {"aes", "ldpc", "netcard", "cpu"};
    w.pool_threads = 1;
  } else if (name == "iso_sweep") {
    w.netlists = {"netcard", "aes", "ldpc", "cpu"};
    w.scale = 0.25;
    w.sweep = true;
    w.pool_threads = 1;
  } else if (name == "large_hetero") {
    w.netlists = {"netcard"};
    w.scale = 1.0;
    w.pool_threads = all_core_workers();
  } else {
    return false;
  }
  return true;
}

const std::vector<Config>& all_configs() {
  static const std::vector<Config> kConfigs = {
      Config::TwoD9T, Config::TwoD12T, Config::ThreeD9T, Config::ThreeD12T,
      Config::Hetero3D};
  return kConfigs;
}

/// Bench flow options: LDPC runs at 50 % utilization (the paper's
/// wire-dominance observation), everything else at the defaults.
core::FlowOptions flow_options(const std::string& netlist, double period_ns,
                               exec::Pool* pool) {
  core::FlowOptions o;
  o.clock_period_ns = period_ns;
  if (netlist == "ldpc") o.utilization = 0.50;
  o.pool = pool;
  return o;
}

// ---- process probes --------------------------------------------------------

double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
}

int thread_count() {
  int n = 0;
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec))
    ++n;
  return n;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += std::log(x);
  return v.empty() ? 0.0 : std::exp(s / static_cast<double>(v.size()));
}

// ---- one unit of work ------------------------------------------------------

/// One flow output of a unit, with what its checks need.
struct FlowOut {
  std::string netlist;
  Config cfg = Config::Hetero3D;
  std::size_t nl_index = 0;
  ResultPtr result;
  std::string error;  ///< exception text when the flow threw
};

/// A frequency search of an iso_sweep unit.
struct SearchOut {
  std::size_t nl_index = 0;
  double ghz = 0.0;
};

struct UnitOut {
  std::vector<FlowOut> flows;
  std::vector<SearchOut> searches;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int threads_max = 0;
  exec::Pool::Stats pool;       ///< pool counters over the unit
  exec::FlowCacheStats cache;   ///< iso_sweep only
  long long flows_computed = 0;
  long long flows_used = 0;
  std::string search_error;     ///< iso_sweep: rule-check findings
};

exec::Pool::Stats stats_delta(const exec::Pool::Stats& a,
                              const exec::Pool::Stats& b) {
  return {b.posted - a.posted, b.local_pops - a.local_pops,
          b.steals - a.steals};
}

struct Bench {
  Workload w;
  std::uint64_t seed = 0;
  std::vector<netlist::Netlist> nls;
  std::unique_ptr<exec::Pool> pool;  ///< serial workloads' one pool

  /// Serial units: run_flow on each netlist in turn, no cache.
  UnitOut run_serial_unit() {
    UnitOut u;
    const auto p0 = pool->stats();
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < nls.size(); ++i) {
      FlowOut f;
      f.netlist = w.netlists[i];
      f.nl_index = i;
      try {
        util::TraceSpan span("bench.core", f.netlist);
        const double period = 1.0 / fixed_ghz(f.netlist, w.scale);
        f.result = std::make_shared<const core::FlowResult>(core::run_flow(
            nls[i], Config::Hetero3D,
            flow_options(f.netlist, period, pool.get())));
      } catch (const std::exception& e) {
        f.error = e.what();
      }
      u.flows.push_back(std::move(f));
    }
    u.wall_s = seconds_since(t0);
    u.cpu_s = cpu_seconds() - c0;
    u.threads_max = thread_count();
    u.pool = stats_delta(p0, pool->stats());
    u.flows_computed = static_cast<long long>(nls.size());
    u.flows_used = u.flows_computed;
    return u;
  }

  /// iso_sweep unit. The pool lives for the unit: on a pool of more than one
  /// worker find_max_frequency speculates, and the pool's destructor joins
  /// the workers, so a speculative flow still running when the graph drains
  /// is waited for (and timed) before the unit's cache goes away.
  UnitOut run_sweep_unit() {
    UnitOut u;
    const std::size_t n = nls.size();
    const std::size_t c = all_configs().size();
    std::vector<double> ghz(n, 0.0);
    u.flows.resize(n * c);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      exec::FlowCache cache(256);
      {
        exec::Pool upool(w.pool_threads);
        exec::Ctx ctx{&upool, &cache};
        exec::TaskGraph graph;
        for (std::size_t i = 0; i < n; ++i) {
          const std::string& name = w.netlists[i];
          const auto search = graph.add("bench.search:" + name, [&, i] {
            util::TraceSpan span("bench.exec", w.netlists[i]);
            ghz[i] = core::find_max_frequency(
                nls[i], Config::TwoD12T,
                flow_options(w.netlists[i], 1.0, &upool), kSearchLoGhz,
                kSearchHiGhz, kSearchIters, kWnsBudget, &ctx);
          });
          for (std::size_t j = 0; j < c; ++j) {
            graph.add(
                "bench.flow:" + name,
                [&, i, j] {
                  FlowOut& f = u.flows[i * c + j];
                  f.netlist = w.netlists[i];
                  f.cfg = all_configs()[j];
                  f.nl_index = i;
                  try {
                    util::TraceSpan span("bench.core", f.netlist);
                    f.result = cache.get_or_run(
                        nls[i], f.cfg,
                        flow_options(f.netlist, 1.0 / ghz[i], &upool));
                  } catch (const std::exception& e) {
                    f.error = e.what();
                  }
                },
                {search});
          }
        }
        try {
          graph.run(upool);
        } catch (const std::exception& e) {
          u.search_error = std::string(" search threw: ") + e.what();
        }
        u.threads_max = thread_count();
        u.pool = upool.stats();
      }  // joins the unit's workers
      u.wall_s = seconds_since(t0);
      u.cpu_s = cpu_seconds() - c0;
      u.cache = cache.stats_snapshot();
      u.flows_computed =
          static_cast<long long>(u.cache.misses + u.cache.bypasses);

      // The search's answer must meet the 5 %-of-period WNS rule; its flow
      // is read back from the unit's cache. Flows whose results the search
      // or the sweep used: the bisection path (recovered from the answer:
      // a step "met" exactly when the answer is at or above its midpoint)
      // plus the five configuration flows, deduplicated.
      for (std::size_t i = 0; i < n; ++i) {
        u.searches.push_back({i, ghz[i]});
        const auto opt = flow_options(w.netlists[i], 1.0 / ghz[i], nullptr);
        const auto res = cache.lookup(nls[i], Config::TwoD12T, opt);
        if (!res) {
          u.search_error +=
              " " + w.netlists[i] + ": no cached flow at the answer";
        } else if (-res->metrics.wns_worst_corner_ns >
                   kWnsBudget * opt.clock_period_ns) {
          u.search_error +=
              " " + w.netlists[i] + ": answer misses the WNS rule";
        }
        std::set<std::pair<int, double>> used;
        double lo = kSearchLoGhz, hi = kSearchHiGhz;
        for (int s = 0; s < kSearchIters; ++s) {
          const double mid = 0.5 * (lo + hi);
          used.insert({static_cast<int>(Config::TwoD12T), 1.0 / mid});
          (ghz[i] >= mid ? lo : hi) = mid;
        }
        for (Config cfg : all_configs())
          used.insert({static_cast<int>(cfg), 1.0 / ghz[i]});
        u.flows_used += static_cast<long long>(used.size());
      }
    }
    return u;
  }

  UnitOut run_unit() { return w.sweep ? run_sweep_unit() : run_serial_unit(); }
};

// ---- QoR -------------------------------------------------------------------

/// The design-quality numbers whose bitwise identity across repeats (and
/// between traced and untraced units) the benchmark checks.
std::vector<double> qor_vector(const UnitOut& u) {
  std::vector<double> q;
  for (const FlowOut& f : u.flows) {
    if (!f.result) {
      q.push_back(-1.0);
      continue;
    }
    const auto& m = f.result->metrics;
    for (double v : {m.wns_ns, m.tns_ns, m.total_power_mw, m.wirelength_m,
                     static_cast<double>(m.mivs), m.footprint_mm2,
                     m.die_cost_e6, m.ppc,
                     static_cast<double>(m.std_cells)})
      q.push_back(v);
  }
  for (const SearchOut& s : u.searches) q.push_back(s.ghz);
  return q;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Qor {
  double ppc = 0, power_mw = 0, eff_freq_ghz = 0, wl_m = 0;
};

/// Geometric means over the unit's Hetero-3D results.
Qor hetero_qor(const UnitOut& u) {
  std::vector<double> ppc, pw, ef, wl;
  for (const FlowOut& f : u.flows) {
    if (f.cfg != Config::Hetero3D || !f.result) continue;
    const auto& m = f.result->metrics;
    ppc.push_back(m.ppc);
    pw.push_back(m.total_power_mw);
    ef.push_back(1.0 / (m.clock_period_ns - m.wns_ns));
    wl.push_back(m.wirelength_m);
  }
  return {geomean(ppc), geomean(pw), geomean(ef), geomean(wl)};
}

// ---- checks of one unit ----------------------------------------------------

struct UnitCheck {
  long long attempted = 0;
  long long failed = 0;
  long long bad_cells = 0;  ///< legality: distinct cells in violation
  double seconds = 0.0;
};

UnitCheck check_unit(const Bench& b, const UnitOut& u, bool verbose) {
  util::TraceSpan span("bench.check", b.w.name);
  const auto t0 = Clock::now();
  UnitCheck uc;
  for (const FlowOut& f : u.flows) {
    ++uc.attempted;
    std::string why;
    if (!f.result) {
      why = " flow threw: " + (f.error.empty() ? "no result" : f.error);
    } else {
      const FlowCheck fc = check_flow(b.nls[f.nl_index], *f.result, b.seed);
      uc.bad_cells += fc.legality.bad_cells;
      why = fc.summary();
    }
    if (!why.empty()) {
      ++uc.failed;
      if (verbose)
        std::cerr << "perfbench: FAILED " << f.netlist << " "
                  << core::config_name(f.cfg) << ":" << why << "\n";
    }
  }
  if (b.w.sweep) {
    // One operation per frequency search: its answer meets the rule.
    uc.attempted += static_cast<long long>(u.searches.size());
    if (!u.search_error.empty()) {
      uc.failed += static_cast<long long>(u.searches.size());
      if (verbose)
        std::cerr << "perfbench: FAILED search:" << u.search_error << "\n";
    }
  }
  uc.seconds = seconds_since(t0);
  return uc;
}

// ---- trace digest ----------------------------------------------------------

struct Span {
  std::string name;
  int tid = 0;
  long long ts = 0, dur = 0;
};

/// Parse the complete ("X") events of a trace written by util::trace_end.
std::vector<Span> read_spans(const std::string& path) {
  std::vector<Span> out;
  std::ifstream is(path);
  std::string line;
  auto field = [&](const char* key, long long& v) {
    const auto p = line.find(key);
    if (p == std::string::npos) return false;
    v = std::atoll(line.c_str() + p + std::strlen(key));
    return true;
  };
  while (std::getline(is, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const auto p = line.find("{\"name\":\"");
    if (p == std::string::npos) continue;
    const auto b = p + 9;
    const auto e = line.find('"', b);
    Span s;
    s.name = line.substr(b, e - b);
    long long tid = 0;
    if (!field("\"tid\":", tid) || !field("\"ts\":", s.ts) ||
        !field("\"dur\":", s.dur))
      continue;
    s.tid = static_cast<int>(tid);
    out.push_back(std::move(s));
  }
  return out;
}

struct SpanDigest {
  std::map<std::string, double> seconds;  ///< excluding nested flows
  std::map<std::string, double> total;    ///< including them
  std::map<std::string, long long> calls;
  double opt_self_s = 0.0;

  void add(const SpanDigest& o) {
    for (const auto& [k, v] : o.seconds) seconds[k] += v;
    for (const auto& [k, v] : o.total) total[k] += v;
    for (const auto& [k, v] : o.calls) calls[k] += v;
    opt_self_s += o.opt_self_s;
  }
};

/// Totals per span name and the opt stages' self time. Spans of one thread
/// nest, and a thread that helps its pool while it waits can run another
/// flow inside any span: every span's time here excludes the flows nested
/// in it. The opt stages' self time is the synth, post-placement and
/// post-CTS optimization spans minus all their child spans (STA, route,
/// helped tasks).
SpanDigest digest(std::vector<Span> spans) {
  SpanDigest d;
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts != b.ts) return a.ts < b.ts;
    return a.dur > b.dur;
  });
  const std::size_t n = spans.size();
  std::vector<std::vector<std::size_t>> children(n);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    while (!stack.empty() &&
           (spans[stack.back()].tid != spans[i].tid ||
            spans[stack.back()].ts + spans[stack.back()].dur <= spans[i].ts))
      stack.pop_back();
    if (!stack.empty()) children[stack.back()].push_back(i);
    stack.push_back(i);
  }
  // Children follow their parents in this order, so a reverse sweep sees
  // every child before its parent.
  std::vector<long long> flows_inside(n, 0);
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t c : children[i])
      flows_inside[i] +=
          spans[c].name == "flow" ? spans[c].dur : flows_inside[c];
  auto excl = [&](std::size_t i) {
    return 1e-6 * static_cast<double>(spans[i].dur - flows_inside[i]);
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    d.seconds[s.name] += excl(i);
    d.total[s.name] += 1e-6 * static_cast<double>(s.dur);
    ++d.calls[s.name];
    if (s.name != "synth" && s.name != "post_place_opt" &&
        s.name != "post_cts_opt")
      continue;
    double self = excl(i);
    for (std::size_t c : children[i])
      if (spans[c].name != "flow") self -= excl(c);
    d.opt_self_s += self;
  }
  return d;
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0.0;
};

void print_result(bool correct, long long attempted, long long failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---- commands --------------------------------------------------------------

/// Generator seed of the netlists of every run: the reference seed of the
/// committed tables and of the fixed periods in fixed_ghz(). The flows that
/// fail by the known legality faults must run on the same inputs in every
/// run, so --seed (the logic-check vectors) does not change the netlists.
constexpr unsigned kReferenceGenSeed = 7;

struct Args {
  std::string workload;
  unsigned seed = 1;
  unsigned gen_seed = kReferenceGenSeed;  ///< --derive-periods only
  bool gen_seed_set = false;
  int seconds = 10;
  bool trace = false;
  bool derive = false;
  double scale = 0.5;
  std::string netlists = "netcard,aes,ldpc,cpu";
};

int usage() {
  std::cerr << "usage: perfbench --workload paper_hetero|iso_sweep|"
               "large_hetero --seed N --seconds S --trace 0|1\n"
               "       perfbench --derive-periods [--gen-seed G] [--scale X] "
               "[--netlists a,b,...]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--derive-periods") {
      a.derive = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
      if (*end != '\0') return false;
    } else if (k == "--gen-seed") {
      a.gen_seed = static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
      if (*end != '\0') return false;
      a.gen_seed_set = true;
    } else if (k == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--scale") {
      a.scale = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.scale > 0.0)) return false;
    } else if (k == "--netlists") {
      a.netlists = v;
    } else {
      return false;
    }
  }
  // Runs use kReferenceGenSeed: the fixed periods belong to its netlists.
  if (!a.derive && a.gen_seed_set) return false;
  return a.derive || !a.workload.empty();
}

/// Print each netlist's fixed iso-performance frequency and period for the
/// generator seed --gen-seed: the 2D-12T search of the paper's method.
int derive_periods(const Args& a) {
  exec::Pool pool(all_core_workers());
  exec::FlowCache cache(256);
  exec::Ctx ctx{&pool, &cache};
  std::stringstream ss(a.netlists);
  std::string name;
  std::cout << "gen_seed " << a.gen_seed << ", scale " << a.scale << "\n";
  while (std::getline(ss, name, ',')) {
    gen::GenOptions g;
    g.scale = a.scale;
    g.seed = a.gen_seed;
    const auto nl = gen::make_design(name, g);
    const double f = core::find_max_frequency(
        nl, Config::TwoD12T, flow_options(name, 1.0, &pool), kSearchLoGhz,
        kSearchHiGhz, kSearchIters, kWnsBudget, &ctx);
    std::cout.precision(17);
    std::cout << name << " cells " << nl.stats().cells << " freq_ghz " << f
              << " period_ns " << 1.0 / f << std::endl;
  }
  return 0;
}

int run(const Args& a) {
  Bench b;
  if (!make_workload(a.workload, b.w)) return usage();
  b.seed = a.seed;
  std::cerr << "perfbench: workload " << b.w.name << " seed " << a.seed
            << " gen_seed " << kReferenceGenSeed << " seconds " << a.seconds
            << " trace " << a.trace << " nproc " << nproc() << " pool "
            << b.w.pool_threads << " build " << M3D_BENCH_BUILD_TYPE
            << " compiler " << M3D_BENCH_COMPILER << "\n";

  const std::string trace_dir = ".bench_build/perfbench-trace";
  const std::string trace_path =
      trace_dir + "/" + b.w.name + "-" + std::to_string(::getpid()) + ".json";
  if (a.trace) std::filesystem::create_directories(trace_dir);

  // ---- set-up: netlists and the workload's pool ------------------------
  // One set-up takes 5-20 ms, too short to time steadily on its own. A
  // sample is therefore the time per set-up over back-to-back set-ups
  // filling at least kSetupSampleS (teardown of the previous one not
  // timed). Samples are taken a few times up front and once more after
  // every unit, so that their median covers the same stretch of the run as
  // the units do.
  constexpr double kSetupSampleS = 0.25;
  std::vector<double> setup_s;
  int setups_done = 0;
  auto set_up = [&](std::vector<netlist::Netlist>& nls,
                    std::unique_ptr<exec::Pool>& pool) {
    double spent = 0.0;
    int reps = 0;
    do {
      pool.reset();
      nls.clear();
      const auto t0 = Clock::now();
      for (const std::string& name : b.w.netlists) {
        util::TraceSpan span("bench.gen", name);
        gen::GenOptions g;
        g.scale = b.w.scale;
        g.seed = kReferenceGenSeed;
        nls.push_back(gen::make_design(name, g));
      }
      if (!b.w.sweep) pool = std::make_unique<exec::Pool>(b.w.pool_threads);
      spent += seconds_since(t0);
      ++reps;
    } while (spent < kSetupSampleS);
    setup_s.push_back(spent / reps);
    setups_done += reps;
  };
  auto set_up_again = [&] {
    std::vector<netlist::Netlist> nls;
    std::unique_ptr<exec::Pool> pool;
    set_up(nls, pool);
  };
  if (a.trace) util::trace_begin(trace_path);
  constexpr int kSetups = 3;
  for (int rep = 0; rep < kSetups; ++rep) set_up(b.nls, b.pool);
  double gen_traced_s = 0.0;
  if (a.trace) {
    util::trace_end();
    for (const Span& s : read_spans(trace_path))
      if (s.name == "bench.gen")
        gen_traced_s += 1e-6 * static_cast<double>(s.dur);
    gen_traced_s /= setups_done;
    std::filesystem::remove(trace_path);
  }
  long long cells = 0, nets = 0;
  for (std::size_t i = 0; i < b.nls.size(); ++i) {
    const auto st = b.nls[i].stats();
    cells += st.cells;
    nets += st.nets;
    std::cerr << "perfbench: netlist " << b.w.netlists[i] << " scale "
              << b.w.scale << " cells " << st.cells << " nets " << st.nets;
    if (!b.w.sweep)
      std::cerr << " period_ns " << 1.0 / fixed_ghz(b.w.netlists[i], b.w.scale);
    std::cerr << "\n";
  }

  bool correct = true;
  long long attempted = 0, failed = 0;
  const int expected_threads = 1 + b.w.pool_threads;
  int threads_max = 0;
  auto account = [&](const UnitOut& u, const UnitCheck& uc) {
    attempted += uc.attempted;
    failed += uc.failed;
    threads_max = std::max(threads_max, u.threads_max);
    if (u.threads_max > expected_threads) {
      std::cerr << "perfbench: " << u.threads_max << " threads, expected "
                << expected_threads << ": a second pool appeared\n";
      correct = false;
    }
  };

  // ---- warm-up (untimed), the reference QoR ------------------------------
  const UnitOut warm = b.run_unit();
  const UnitCheck warm_check = check_unit(b, warm, true);
  account(warm, warm_check);
  set_up_again();
  const std::vector<double> ref_qor = qor_vector(warm);
  const Qor qor = hetero_qor(warm);
  auto same_qor = [&](const UnitOut& u) {
    if (bitwise_equal(qor_vector(u), ref_qor)) return true;
    std::cerr << "perfbench: QoR differs from the warm-up unit\n";
    correct = false;
    return false;
  };

  // The untraced run times every unit. The traced run alternates an
  // untraced and a traced unit, so that bench.trace_overhead_s compares
  // medians over the same stretch of the run; each traced unit (with its
  // checks) is one trace, digested as soon as it is written.
  std::vector<double> wall, cpu, check_s, bad_cells, untraced_wall;
  std::vector<UnitOut> units;
  SpanDigest sd;
  auto measure = [&](bool traced) {
    if (traced) util::trace_begin(trace_path);
    UnitOut u = b.run_unit();
    const UnitCheck uc = check_unit(b, u, false);
    if (traced) {
      util::trace_end();
      sd.add(digest(read_spans(trace_path)));
      std::filesystem::remove(trace_path);
    }
    account(u, uc);
    same_qor(u);
    set_up_again();
    if (a.trace && !traced) {
      untraced_wall.push_back(u.wall_s);
      return;
    }
    wall.push_back(u.wall_s);
    cpu.push_back(u.cpu_s);
    check_s.push_back(uc.seconds);
    bad_cells.push_back(static_cast<double>(uc.bad_cells));
    u.flows.erase(u.flows.begin(), u.flows.end());  // drop the designs
    units.push_back(std::move(u));
  };
  const auto t_measure = Clock::now();
  do {
    if (a.trace) measure(false);
    measure(a.trace);
  } while (seconds_since(t_measure) < a.seconds);

  std::vector<Metric> out;
  if (!a.trace) {
    out = {{"wall_s", "s", median(wall)},
           {"cpu_s", "s", median(cpu)},
           {"setup_s", "s", median(setup_s)},
           {"peak_rss_mb", "MB", peak_rss_mb()},
           {"ppc", "GHz/W/1e-6C", qor.ppc},
           {"power_mw", "mW", qor.power_mw},
           {"eff_freq_ghz", "GHz", qor.eff_freq_ghz},
           {"wl_m", "m", qor.wl_m}};
  } else {
    const double n = static_cast<double>(units.size());
    auto per_unit_s = [&](const char* span) {
      auto it = sd.seconds.find(span);
      return it == sd.seconds.end() ? 0.0 : it->second / n;
    };
    auto per_unit_calls = [&](const char* span) {
      auto it = sd.calls.find(span);
      return it == sd.calls.end() ? 0.0 : static_cast<double>(it->second) / n;
    };
    // Work counters of the flows (identical in every unit: checked QoR).
    double upsized = 0, downsized = 0, buffers = 0, eco_iters = 0,
           eco_moved = 0, eco_undone = 0, cts_buffers = 0, cts_wl = 0,
           cells_final = 0, nets_final = 0;
    for (const FlowOut& f : warm.flows) {
      if (!f.result) continue;
      const auto& r = *f.result;
      upsized += r.opt.cells_upsized;
      downsized += r.opt.cells_downsized;
      buffers += r.opt.buffers_added;
      eco_iters += r.repart.iterations;
      eco_moved += r.repart.cells_moved;
      eco_undone += r.repart.moves_undone;
      cts_buffers += r.metrics.clock.buffer_count;
      cts_wl += r.metrics.clock.wirelength_um;
      cells_final += r.design.nl().cell_count();
      nets_final += r.design.nl().net_count();
    }
    double computed = 0, used = 0, hits = 0, joins = 0, posted = 0,
           steals = 0;
    for (const UnitOut& u : units) {
      computed += static_cast<double>(u.flows_computed);
      used += static_cast<double>(u.flows_used);
      hits += static_cast<double>(u.cache.hits);
      joins += static_cast<double>(u.cache.joins);
      posted += static_cast<double>(u.pool.posted);
      steals += static_cast<double>(u.pool.steals);
    }
    out = {
        {"core.synth_s", "s", per_unit_s("synth")},
        {"core.place_s", "s", per_unit_s("place")},
        {"core.partition_s", "s", per_unit_s("partition")},
        {"core.post_place_opt_s", "s", per_unit_s("post_place_opt")},
        {"core.cts_s", "s", per_unit_s("cts")},
        {"core.post_cts_opt_s", "s", per_unit_s("post_cts_opt")},
        {"core.repartition_eco_s", "s", per_unit_s("repartition_eco")},
        {"core.finalize_s", "s", per_unit_s("finalize")},
        {"sta.forward_s", "s", per_unit_s("sta_forward")},
        {"sta.forward_calls", "count", per_unit_calls("sta_forward")},
        {"sta.backward_s", "s", per_unit_s("sta_backward")},
        {"sta.retime_s", "s", per_unit_s("sta_retime")},
        {"sta.retime_calls", "count", per_unit_calls("sta_retime")},
        {"route.pass_s", "s", per_unit_s("route_pass")},
        {"route.pass_calls", "count", per_unit_calls("route_pass")},
        {"place.relax_s", "s", per_unit_s("relax_pass")},
        {"place.spread_s", "s", per_unit_s("spread_pass")},
        {"place.unplaced_cells", "count", median(bad_cells)},
        {"part.fm_s", "s", per_unit_s("fm_pass") + per_unit_s("kway_pass")},
        {"part.fm_passes", "count",
         per_unit_calls("fm_pass") + per_unit_calls("kway_pass")},
        {"part.eco_iterations", "count", eco_iters},
        {"part.eco_cells_moved", "count", eco_moved},
        {"part.eco_moves_undone", "count", eco_undone},
        {"opt.self_s", "s", sd.opt_self_s / n},
        {"opt.cells_upsized", "count", upsized},
        {"opt.cells_downsized", "count", downsized},
        {"opt.buffers_added", "count", buffers},
        {"cts.buffers", "count", cts_buffers},
        {"cts.wirelength_um", "um", cts_wl},
        {"exec.flows_computed", "count", computed / n},
        {"exec.cache_hits", "count", hits / n},
        {"exec.cache_joins", "count", joins / n},
        {"exec.useful_flow_ratio", "ratio", computed > 0 ? used / computed : 0},
        {"exec.speculative_flows", "count", per_unit_calls("speculative_flow")},
        {"exec.search_s", "s",
         sd.total.count("find_max_frequency")
             ? sd.total.at("find_max_frequency") / n
             : 0.0},
        {"exec.pool_posted", "count", posted / n},
        {"exec.pool_steals", "count", steals / n},
        {"exec.threads_max", "count", static_cast<double>(threads_max)},
        {"gen.s", "s", gen_traced_s},
        {"netlist.cells_final", "count", cells_final},
        {"netlist.nets_final", "count", nets_final},
        {"bench.check_s", "s", median(check_s)},
        {"bench.trace_overhead_s", "s", median(wall) - median(untraced_wall)},
    };
  }
  std::cerr << "perfbench: setup_s";
  for (double v : setup_s) std::cerr << " " << v;
  std::cerr << "\nperfbench: unit wall_s";
  for (double v : wall) std::cerr << " " << v;
  if (a.trace) {
    std::cerr << "\nperfbench: untraced unit wall_s";
    for (double v : untraced_wall) std::cerr << " " << v;
  }
  std::cerr << "\nperfbench: unit cpu_s";
  for (double v : cpu) std::cerr << " " << v;
  std::cerr << "\nperfbench: units " << wall.size() << " wall_s median "
            << median(wall) << " attempted " << attempted << " failed "
            << failed << " input cells " << cells << " nets " << nets
            << " threads_max " << threads_max << "\n";
  print_result(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace m3d::perfbench

int main(int argc, char** argv) {
  using namespace m3d::perfbench;
  // The run must not pick up knobs that change what it measures: tracing,
  // disk caching, checkpoints, pool sizes or signoff corners from the
  // environment.
  for (const char* knob :
       {"M3D_TRACE", "M3D_FLOW_CACHE_DIR", "M3D_FLOW_CACHE_CAP",
        "M3D_CHECKPOINT_DIR", "M3D_FAULT_AT", "M3D_THREADS",
        "M3D_STA_CORNERS", "M3D_TIER_SIGMA", "M3D_TIER_DERATE",
        "M3D_FM_SPECULATE"})
    ::unsetenv(knob);
  m3d::util::set_log_level(m3d::util::LogLevel::Error);
  Args a;
  if (!parse_args(argc, argv, a)) return usage();
  try {
    return a.derive ? derive_periods(a) : run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
