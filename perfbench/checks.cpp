#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace m3d::perfbench {

using netlist::CellId;
using netlist::CellKind;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::PinId;
using tech::CellFunc;

namespace {

constexpr double kEps = 1e-6;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t name_hash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Random word `w` of pseudo-input (`name`, output index `k`).
std::uint64_t source_word(std::uint64_t seed, std::string_view name, int k,
                          int w) {
  return splitmix(splitmix(seed ^ name_hash(name)) +
                  static_cast<std::uint64_t>(k) * 0x100000001b3ULL +
                  static_cast<std::uint64_t>(w));
}

/// Output of one gate on 64 vectors. Input order: AOI21 = !(a·b + c),
/// OAI21 = !((a + b)·c), MUX2 = c ? b : a.
std::uint64_t eval_gate(CellFunc f, const std::uint64_t* in) {
  switch (f) {
    case CellFunc::Inv: return ~in[0];
    case CellFunc::Buf:
    case CellFunc::ClkBuf: return in[0];
    case CellFunc::Nand2: return ~(in[0] & in[1]);
    case CellFunc::Nor2: return ~(in[0] | in[1]);
    case CellFunc::And2: return in[0] & in[1];
    case CellFunc::Or2: return in[0] | in[1];
    case CellFunc::Xor2: return in[0] ^ in[1];
    case CellFunc::Xnor2: return ~(in[0] ^ in[1]);
    case CellFunc::Nand3: return ~(in[0] & in[1] & in[2]);
    case CellFunc::Nor3: return ~(in[0] | in[1] | in[2]);
    case CellFunc::Aoi21: return ~((in[0] & in[1]) | in[2]);
    case CellFunc::Oai21: return ~((in[0] | in[1]) & in[2]);
    case CellFunc::Mux2: return (in[2] & in[1]) | (~in[2] & in[0]);
    case CellFunc::Dff: return in[0];
  }
  return 0;
}

/// Observation point → values (words per point), plus cells left out.
struct Simulation {
  std::unordered_map<std::string, std::vector<std::uint64_t>> observed;
  long long unevaluated = 0;
};

Simulation simulate(const netlist::Netlist& nl, std::uint64_t seed,
                    int words) {
  const std::size_t W = static_cast<std::size_t>(words);
  const int nn = nl.net_count();
  const int nc = nl.cell_count();
  std::vector<std::uint64_t> val(static_cast<std::size_t>(nn) * W, 0);
  auto net_val = [&](NetId n) {
    return val.data() + static_cast<std::size_t>(n) * W;
  };

  // Pseudo-inputs: port, flop and macro outputs.
  for (CellId c = 0; c < nc; ++c) {
    const auto& cc = nl.cell(c);
    if (cc.is_comb() || cc.kind == CellKind::PrimaryOut) continue;
    int k = 0;
    for (PinId p : nl.output_pins_of(c)) {
      const NetId n = nl.pin(p).net;
      if (n != kInvalidId)
        for (int w = 0; w < words; ++w)
          net_val(n)[w] = source_word(seed, cc.name, k, w);
      ++k;
    }
  }

  // Kahn order over combinational cells.
  auto comb_driver = [&](NetId n) {
    if (n == kInvalidId) return false;
    const PinId drv = nl.net_driver(n);
    return drv != kInvalidId &&
           nl.cell_kind(nl.pin(drv).cell) == CellKind::Comb;
  };
  std::vector<int> pending(static_cast<std::size_t>(nc), 0);
  std::vector<CellId> ready;
  long long comb = 0;
  for (CellId c = 0; c < nc; ++c) {
    if (nl.cell_kind(c) != CellKind::Comb) continue;
    ++comb;
    int k = 0;
    for (PinId p : nl.input_pins_of(c)) k += comb_driver(nl.pin(p).net);
    pending[static_cast<std::size_t>(c)] = k;
    if (k == 0) ready.push_back(c);
  }
  long long done = 0;
  std::vector<std::uint64_t> in(3 * W);
  while (!ready.empty()) {
    const CellId c = ready.back();
    ready.pop_back();
    ++done;
    const auto& cc = nl.cell(c);
    const auto ins = nl.input_pins_of(c);
    std::fill(in.begin(), in.end(), 0);
    for (std::size_t i = 0; i < ins.size() && i < 3; ++i) {
      const NetId n = nl.pin(ins[i]).net;
      if (n == kInvalidId) continue;
      for (std::size_t w = 0; w < W; ++w) in[w * 3 + i] = net_val(n)[w];
    }
    const PinId out = nl.output_pin(c);
    const NetId on = nl.pin(out).net;
    if (on == kInvalidId) continue;
    for (std::size_t w = 0; w < W; ++w)
      net_val(on)[w] = eval_gate(cc.func, &in[w * 3]);
    nl.for_each_sink(on, [&](PinId s) {
      const CellId sc = nl.pin(s).cell;
      if (nl.cell_kind(sc) == CellKind::Comb &&
          --pending[static_cast<std::size_t>(sc)] == 0)
        ready.push_back(sc);
    });
  }

  Simulation sim;
  sim.unevaluated = comb - done;
  auto observe = [&](std::string key, PinId p) {
    const NetId n = nl.pin(p).net;
    std::vector<std::uint64_t> v(W, 0);
    if (n != kInvalidId) std::copy(net_val(n), net_val(n) + W, v.begin());
    sim.observed.emplace(std::move(key), std::move(v));
  };
  for (CellId c = 0; c < nc; ++c) {
    const auto& cc = nl.cell(c);
    if (cc.kind == CellKind::PrimaryOut)
      observe("PO:" + std::string(cc.name), nl.input_pin(c, 0));
    else if (cc.is_sequential())
      observe("D:" + std::string(cc.name), nl.input_pin(c, 0));
    else if (cc.kind == CellKind::Macro) {
      const auto ins = nl.input_pins_of(c);
      for (std::size_t k = 0; k < ins.size(); ++k)
        observe("M:" + std::string(cc.name) + ":" + std::to_string(k), ins[k]);
    }
  }
  return sim;
}

}  // namespace

LegalityReport check_legality(const netlist::Design& d) {
  LegalityReport rep;
  const auto& nl = d.nl();
  const auto fp = d.floorplan();
  const int nc = nl.cell_count();
  std::vector<char> bad(static_cast<std::size_t>(nc), 0);
  std::vector<std::vector<CellId>> by_tier(
      static_cast<std::size_t>(d.num_tiers()));

  for (CellId c = 0; c < nc; ++c) {
    const auto kind = nl.cell_kind(c);
    if (kind == CellKind::PrimaryIn || kind == CellKind::PrimaryOut) continue;
    const auto p = d.pos(c);
    const double w2 = d.cell_width(c) / 2.0;
    const double h2 = d.cell_height(c) / 2.0;
    if (p.x - w2 < fp.xlo - kEps || p.x + w2 > fp.xhi + kEps ||
        p.y - h2 < fp.ylo - kEps || p.y + h2 > fp.yhi + kEps) {
      ++rep.outside;
      bad[static_cast<std::size_t>(c)] = 1;
    }
    if (kind != CellKind::Macro) {
      // Row k of the tier spans [ylo + k·h, ylo + (k+1)·h].
      const double h = d.lib_of(c).row_height_um();
      const double row = (p.y - fp.ylo) / h - 0.5;
      if (std::abs(row - std::round(row)) > kEps || row < -kEps) {
        ++rep.off_row;
        bad[static_cast<std::size_t>(c)] = 1;
      }
    }
    const int t = d.tier(c);
    if (t >= 0 && t < d.num_tiers())
      by_tier[static_cast<std::size_t>(t)].push_back(c);
  }

  // Overlap sweep per tier, ordered by left edge.
  for (auto& cells : by_tier) {
    std::vector<std::pair<double, CellId>> left;
    left.reserve(cells.size());
    for (CellId c : cells)
      left.push_back({d.pos(c).x - d.cell_width(c) / 2.0, c});
    std::sort(left.begin(), left.end());
    for (std::size_t i = 0; i < left.size(); ++i) {
      const CellId a = left[i].second;
      const double ar = d.pos(a).x + d.cell_width(a) / 2.0;
      const double ay0 = d.pos(a).y - d.cell_height(a) / 2.0;
      const double ay1 = d.pos(a).y + d.cell_height(a) / 2.0;
      for (std::size_t j = i + 1; j < left.size(); ++j) {
        if (left[j].first >= ar - kEps) break;
        const CellId b = left[j].second;
        const double by0 = d.pos(b).y - d.cell_height(b) / 2.0;
        const double by1 = d.pos(b).y + d.cell_height(b) / 2.0;
        if (std::min(ay1, by1) - std::max(ay0, by0) > kEps) {
          ++rep.overlaps;
          bad[static_cast<std::size_t>(a)] = 1;
          bad[static_cast<std::size_t>(b)] = 1;
        }
      }
    }
  }
  for (char b : bad) rep.bad_cells += b;
  return rep;
}

LogicReport check_logic(const netlist::Netlist& golden,
                        const netlist::Netlist& final_nl, std::uint64_t seed,
                        int words) {
  const Simulation g = simulate(golden, seed, words);
  const Simulation f = simulate(final_nl, seed, words);
  LogicReport rep;
  rep.unevaluated = g.unevaluated + f.unevaluated;
  for (const auto& [key, values] : g.observed) {
    ++rep.compared;
    auto it = f.observed.find(key);
    if (it == f.observed.end())
      ++rep.missing;
    else if (it->second != values)
      ++rep.mismatched;
  }
  return rep;
}

CostReport check_cost(const netlist::Design& d,
                      const core::DesignMetrics& m) {
  // Table IV: C′-normalized wafer costs, 300 mm wafer, D_w = 0.2 /mm²,
  // κ = 0.95, β = 0.95 for the 3-D bond, α = 0.05.
  const double kPi = 3.14159265358979323846;
  const double wafer_area = kPi * 150.0 * 150.0;
  const bool three_d = d.num_tiers() == 2;
  const double area = d.floorplan().width() * d.floorplan().height() * 1e-6;
  const double dies =
      wafer_area / area - std::sqrt(2.0 * kPi * wafer_area / area);
  const double t = 1.0 + area * 0.2 / 2.0;
  const double yield = (three_d ? 0.95 : 1.0) * 0.95 / (t * t);
  const double wafer = three_d ? 2.0 * (0.30 + 0.66) + 0.05 : 0.30 + 0.66;
  CostReport rep;
  const double die_cost = wafer / (dies * yield);
  rep.die_cost_e6 = die_cost * 1e6;
  const double freq_ghz = 1.0 / d.clock_period_ns();
  rep.ppc = freq_ghz / (m.total_power_mw / 1000.0 * rep.die_cost_e6);
  auto close = [](double a, double b) {
    return std::isfinite(a) && std::isfinite(b) &&
           std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  rep.ok = d.num_tiers() <= 2 && close(rep.die_cost_e6, m.die_cost_e6) &&
           close(rep.ppc, m.ppc);
  return rep;
}

MivReport check_mivs(const netlist::Design& d, const core::DesignMetrics& m) {
  const auto& nl = d.nl();
  MivReport rep;
  bool tiers_ok = true;
  std::vector<util::Point> pt;
  std::vector<int> tier, parent;
  std::vector<double> best;
  std::vector<char> in_tree;
  std::vector<PinId> sinks;
  for (NetId n = 0; n < nl.net_count(); ++n) {
    const PinId drv = nl.net_driver(n);
    if (drv == kInvalidId) continue;
    nl.sinks_into(n, sinks);
    if (sinks.empty()) continue;
    // Terminals: driver first, then sinks in netlist order.
    const std::size_t k = sinks.size() + 1;
    pt.assign(k, {});
    tier.assign(k, 0);
    pt[0] = d.pos(nl.pin(drv).cell);
    tier[0] = d.tier(nl.pin(drv).cell);
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      pt[i + 1] = d.pos(nl.pin(sinks[i]).cell);
      tier[i + 1] = d.tier(nl.pin(sinks[i]).cell);
    }
    bool mixed = false;
    for (int t : tier) {
      mixed |= t != tier[0];
      if (d.num_tiers() == 1 && t != 0) tiers_ok = false;
    }
    if (!mixed) continue;
    // Prim's MST on Manhattan distance from the driver; ties go to the
    // lowest terminal index and keep the earliest parent.
    auto dist = [&](std::size_t a, std::size_t b) {
      return std::abs(pt[a].x - pt[b].x) + std::abs(pt[a].y - pt[b].y);
    };
    in_tree.assign(k, 0);
    best.assign(k, 0.0);
    parent.assign(k, 0);
    in_tree[0] = 1;
    for (std::size_t j = 1; j < k; ++j) best[j] = dist(0, j);
    for (std::size_t added = 1; added < k; ++added) {
      std::size_t u = k;
      double bd = std::numeric_limits<double>::max();
      for (std::size_t j = 1; j < k; ++j)
        if (!in_tree[j] && best[j] < bd) {
          bd = best[j];
          u = j;
        }
      in_tree[u] = 1;
      if (tier[u] != tier[static_cast<std::size_t>(parent[u])])
        ++rep.recomputed;
      for (std::size_t j = 1; j < k; ++j) {
        if (in_tree[j]) continue;
        const double dd = dist(u, j);
        if (dd < best[j]) {
          best[j] = dd;
          parent[j] = static_cast<int>(u);
        }
      }
    }
  }
  rep.ok = tiers_ok && rep.recomputed == m.mivs &&
           (d.num_tiers() > 1 || rep.recomputed == 0);
  return rep;
}

std::string FlowCheck::summary() const {
  std::ostringstream os;
  if (!legality.ok())
    os << " legality(off_row=" << legality.off_row
       << " overlaps=" << legality.overlaps
       << " outside=" << legality.outside << ")";
  if (!logic.ok())
    os << " logic(mismatched=" << logic.mismatched
       << " missing=" << logic.missing
       << " unevaluated=" << logic.unevaluated << ")";
  if (!cost.ok) os << " cost(die_cost_e6=" << cost.die_cost_e6 << ")";
  if (!mivs.ok) os << " mivs(recomputed=" << mivs.recomputed << ")";
  return os.str();
}

FlowCheck check_flow(const netlist::Netlist& golden,
                     const core::FlowResult& r, std::uint64_t seed) {
  FlowCheck fc;
  fc.legality = check_legality(r.design);
  fc.logic = check_logic(golden, r.design.nl(), seed);
  fc.cost = check_cost(r.design, r.metrics);
  fc.mivs = check_mivs(r.design, r.metrics);
  return fc;
}

}  // namespace m3d::perfbench
