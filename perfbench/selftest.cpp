// Tests of the benchmark's output checks (checks.hpp): every check passes on
// small legal flows, and each catches one injected violation:
//   legality — a cell moved onto its neighbour;
//   logic    — one gate's function swapped, feeding a flop and feeding
//              only a macro input pin;
//   cost     — the reported die cost (and PPC) off by 1 %;
//   MIVs     — one cell's tier flipped, on a 3-D and on a 2-D design.
// It also checks that a flow's QoR and placement are bitwise the same on a
// 1-worker pool and on a pool of nproc - 1 (at least 2) workers.
//
//   python3 perfbench/run.py --selftest     (exit code 0 when all hold)

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/flow.hpp"
#include "exec/pool.hpp"
#include "gen/designs.hpp"
#include "util/log.hpp"

namespace m3d::perfbench {
namespace {

using netlist::CellId;
using netlist::CellKind;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::Netlist;
using netlist::PinId;

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s %s\n", cond ? "PASS" : "FAIL", what.c_str());
  if (!cond) ++g_failures;
}

/// Rebuild `nl` cell by cell and net by net through its construction API,
/// with cell `swap` given function `func`. Ids come out identical.
Netlist rebuild_with_func(const Netlist& nl, CellId swap, tech::CellFunc func) {
  Netlist out(nl.name());
  for (int b = 1; b < nl.block_count(); ++b) out.add_block(nl.block_name(b));
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    const auto& cc = nl.cell(c);
    switch (cc.kind) {
      case CellKind::Comb:
        out.add_comb(cc.name, c == swap ? func : cc.func, cc.drive, cc.block);
        break;
      case CellKind::Seq:
        out.add_dff(cc.name, cc.drive, cc.block);
        break;
      case CellKind::Macro:
        out.add_macro(cc.name, cc.macro_name,
                      static_cast<int>(nl.input_pins_of(c).size()),
                      static_cast<int>(nl.output_pins_of(c).size()), cc.block);
        break;
      case CellKind::PrimaryIn:
        out.add_input_port(cc.name);
        break;
      case CellKind::PrimaryOut:
        out.add_output_port(cc.name);
        break;
    }
    if (cc.fixed) out.set_fixed(c, true);
  }
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const auto& net = nl.net(n);
    const NetId m = out.add_net(net.name, net.is_clock);
    out.set_activity(m, net.activity);
    for (PinId p : nl.net(n).pins) out.connect(m, p);
  }
  return out;
}

/// The complement of a gate's function, where the library has one: a gate
/// swapped for it differs on every input vector.
bool complement(tech::CellFunc f, tech::CellFunc& out) {
  using tech::CellFunc;
  switch (f) {
    case CellFunc::Inv: out = CellFunc::Buf; return true;
    case CellFunc::Buf: out = CellFunc::Inv; return true;
    case CellFunc::Nand2: out = CellFunc::And2; return true;
    case CellFunc::And2: out = CellFunc::Nand2; return true;
    case CellFunc::Nor2: out = CellFunc::Or2; return true;
    case CellFunc::Or2: out = CellFunc::Nor2; return true;
    case CellFunc::Xor2: out = CellFunc::Xnor2; return true;
    case CellFunc::Xnor2: out = CellFunc::Xor2; return true;
    default: return false;
  }
}

/// A gate with a complement that drives a flop's D pin directly, so
/// swapping its function shows at an observation point.
CellId gate_into_flop(const Netlist& nl, tech::CellFunc& swapped) {
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!nl.cell(c).is_sequential()) continue;
    const NetId n = nl.pin(nl.input_pin(c, 0)).net;
    if (n == kInvalidId || nl.net_driver(n) == kInvalidId) continue;
    const CellId g = nl.pin(nl.net_driver(n)).cell;
    if (nl.cell(g).is_comb() && complement(nl.cell(g).func, swapped))
      return g;
  }
  return kInvalidId;
}

/// A gate with a complement whose output net feeds macro input pins and
/// nothing else, so only the macro observation points can see a swap.
CellId gate_into_macro_only(const Netlist& nl, tech::CellFunc& swapped) {
  for (CellId g = 0; g < nl.cell_count(); ++g) {
    if (!nl.cell(g).is_comb() || !complement(nl.cell(g).func, swapped))
      continue;
    const NetId n = nl.pin(nl.output_pin(g)).net;
    if (n == kInvalidId || nl.net(n).pins.size() < 2) continue;
    bool only_macros = true;
    nl.for_each_sink(n, [&](PinId s) {
      only_macros &= nl.cell_kind(nl.pin(s).cell) == CellKind::Macro;
    });
    if (only_macros) return g;
  }
  return kInvalidId;
}

/// A combinational cell all of whose nets lie on its own tier: flipping its
/// tier can only add MIVs.
CellId single_tier_cell(const netlist::Design& d) {
  const auto& nl = d.nl();
  for (CellId c = 0; c < nl.cell_count(); ++c) {
    if (!nl.cell(c).is_comb()) continue;
    bool ok = true;
    for (PinId p : nl.cell(c).pins) {
      const NetId n = nl.pin(p).net;
      if (n == kInvalidId || nl.net_is_clock(n)) {
        ok = false;
        break;
      }
      for (PinId q : nl.net(n).pins)
        ok &= d.tier(nl.pin(q).cell) == d.tier(c);
    }
    if (ok) return c;
  }
  return kInvalidId;
}

/// QoR numbers, then every cell's position and tier, of a flow result.
std::vector<double> qor_and_placement(const core::FlowResult& r) {
  const auto& m = r.metrics;
  std::vector<double> q = {m.wns_ns, m.tns_ns, m.total_power_mw,
                           m.wirelength_m, static_cast<double>(m.mivs),
                           m.footprint_mm2, m.die_cost_e6, m.ppc,
                           static_cast<double>(m.std_cells)};
  const auto& d = r.design;
  for (CellId c = 0; c < d.nl().cell_count(); ++c) {
    q.push_back(d.pos(c).x);
    q.push_back(d.pos(c).y);
    q.push_back(static_cast<double>(d.tier(c)));
  }
  return q;
}

/// One Hetero-3D flow on a 1-worker pool and on a multi-worker pool: the
/// benchmark's QoR identity checks compare units on one pool size only.
void check_pool_independence() {
  gen::GenOptions g;
  g.scale = 0.25;
  g.seed = 7;
  const Netlist nl = gen::make_design("netcard", g);
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  const int wide = std::max(2, cpus - 1);
  std::vector<std::vector<double>> q;
  for (int workers : {1, wide}) {
    exec::Pool pool(workers);
    core::FlowOptions opt;
    opt.clock_period_ns = 1.0;
    opt.pool = &pool;
    q.push_back(qor_and_placement(
        core::run_flow(nl, core::Config::Hetero3D, opt)));
  }
  expect(q[0].size() == q[1].size() &&
             std::memcmp(q[0].data(), q[1].data(),
                         q[0].size() * sizeof(double)) == 0,
         "netcard Hetero-3D: QoR and placement bitwise equal on 1 and " +
             std::to_string(wide) + " workers");
}

/// The logic check sees a gate whose only sinks are macro input pins.
void check_macro_observation(std::uint64_t seed) {
  gen::GenOptions g;
  g.scale = 0.2;
  g.seed = 7;
  const Netlist cpu = gen::make_design("cpu", g);
  tech::CellFunc func = tech::CellFunc::Inv;
  const CellId gate = gate_into_macro_only(cpu, func);
  expect(gate != kInvalidId, "cpu: found a gate feeding only macro pins");
  if (gate == kInvalidId) return;
  const Netlist same = rebuild_with_func(cpu, gate, cpu.cell(gate).func);
  const Netlist swapped = rebuild_with_func(cpu, gate, func);
  expect(check_logic(same, cpu, seed).ok(),
         "cpu: the rebuilt netlist matches the generated one");
  expect(!check_logic(swapped, cpu, seed).ok(),
         "cpu: logic check catches a swapped gate feeding only a macro");
}

void run() {
  util::set_log_level(util::LogLevel::Error);
  gen::GenOptions g;
  g.scale = 0.2;
  g.seed = 7;
  const Netlist golden = gen::make_design("aes", g);
  exec::Pool pool(1);
  core::FlowOptions opt;
  opt.clock_period_ns = 1.0;
  opt.pool = &pool;
  const std::uint64_t seed = 12345;

  for (core::Config cfg : {core::Config::Hetero3D, core::Config::TwoD12T}) {
    const std::string tag = core::config_name(cfg);
    const core::FlowResult r = core::run_flow(golden, cfg, opt);
    const FlowCheck clean = check_flow(golden, r, seed);
    expect(clean.legality.ok(), tag + ": legality passes on a legal flow");
    expect(clean.logic.ok(), tag + ": logic check passes on the flow output");
    expect(clean.cost.ok, tag + ": cost check passes on the flow output");
    expect(clean.mivs.ok, tag + ": MIV check passes on the flow output");

    // A cell moved onto its neighbour on the same tier.
    {
      core::FlowResult bad = r;
      auto& d = bad.design;
      CellId a = kInvalidId, b = kInvalidId;
      for (CellId c = 0; c < d.nl().cell_count() && b == kInvalidId; ++c) {
        if (!d.nl().cell(c).is_comb()) continue;
        if (a == kInvalidId)
          a = c;
        else if (d.tier(c) == d.tier(a))
          b = c;
      }
      d.set_pos(a, d.pos(b));
      expect(!check_legality(d).ok(),
             tag + ": legality catches a stacked cell");
    }

    // One gate's function swapped.
    {
      tech::CellFunc func = tech::CellFunc::Inv;
      const CellId gate = gate_into_flop(golden, func);
      expect(gate != kInvalidId, tag + ": found a gate feeding a flop");
      if (gate != kInvalidId) {
        const Netlist same =
            rebuild_with_func(golden, gate, golden.cell(gate).func);
        const Netlist swapped = rebuild_with_func(golden, gate, func);
        expect(check_logic(same, r.design.nl(), seed).ok(),
               tag + ": the rebuilt netlist matches the flow output");
        expect(!check_logic(swapped, r.design.nl(), seed).ok(),
               tag + ": logic check catches " +
                   tech::func_name(golden.cell(gate).func) + " -> " +
                   tech::func_name(func));
      }
    }

    // Die cost and PPC off by 1 %.
    {
      core::DesignMetrics m = r.metrics;
      m.die_cost_e6 *= 1.01;
      expect(!check_cost(r.design, m).ok,
             tag + ": cost check catches +1 % die cost");
      m = r.metrics;
      m.ppc *= 0.99;
      expect(!check_cost(r.design, m).ok,
             tag + ": cost check catches -1 % PPC");
    }

    // One cell's tier flipped.
    {
      core::FlowResult bad = r;
      auto& d = bad.design;
      const CellId c = single_tier_cell(d);
      expect(c != kInvalidId, tag + ": found a single-tier cell");
      if (c != kInvalidId) {
        // A 2-D design has no second tier: rebuild it with two tiers and
        // the cell on the upper one. Its reported MIV count (0) no longer
        // matches.
        if (d.num_tiers() == 2)
          d.set_tier(c, 1 - d.tier(c));
        else
          d = [&] {
            netlist::Design three(d.nl(), d.lib_ptr(0), d.lib_ptr(0));
            three.set_floorplan(d.floorplan());
            three.set_clock_period_ns(d.clock_period_ns());
            for (CellId k = 0; k < d.nl().cell_count(); ++k) {
              three.set_pos(k, d.pos(k));
              three.set_tier(k, k == c ? 1 : 0);
            }
            return three;
          }();
        expect(!check_mivs(d, bad.metrics).ok,
               tag + ": MIV check catches a flipped tier");
      }
    }
  }
  check_macro_observation(seed);
  check_pool_independence();
}

}  // namespace
}  // namespace m3d::perfbench

int main() {
  try {
    m3d::perfbench::run();
  } catch (const std::exception& e) {
    std::printf("FAIL exception: %s\n", e.what());
    return 1;
  }
  std::printf("%s: %d failure(s)\n",
              m3d::perfbench::g_failures ? "FAILED" : "OK",
              m3d::perfbench::g_failures);
  return m3d::perfbench::g_failures ? 1 : 0;
}
