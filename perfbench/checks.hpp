#pragma once
/// \file checks.hpp
/// \brief Output checks the benchmark runs on every flow result. Each one is
///        computed here from the design data, apart from the flow code that
///        produced the result:
///
///  * placement legality — a sweep over the placed cells: inside the die,
///    standard cells on a row of their tier, no same-tier overlap;
///  * logic preserved — bit-parallel simulation of the generated netlist
///    and the final netlist on the same random vectors (flop, macro and
///    port outputs are pseudo-inputs matched by name), comparing every
///    primary output, every original flop's D input and every input pin of
///    every macro;
///  * die cost and PPC — recomputed from the paper's Table IV closed form;
///  * MIV count — recomputed from the tiers of each net's pins along the
///    net's Manhattan minimum spanning tree; 0 for 2-D designs.

#include <cstdint>
#include <string>

#include "core/flow.hpp"

namespace m3d::perfbench {

struct LegalityReport {
  long long outside = 0;   ///< cells extending beyond the die
  long long off_row = 0;   ///< standard cells not on a row of their tier
  long long overlaps = 0;  ///< overlapping same-tier cell pairs
  long long bad_cells = 0; ///< distinct cells with any of the above
  bool ok() const { return bad_cells == 0; }
};

LegalityReport check_legality(const netlist::Design& d);

struct LogicReport {
  long long compared = 0;    ///< observation points compared
  long long mismatched = 0;  ///< points whose values differ
  long long missing = 0;     ///< golden points absent from the final netlist
  long long unevaluated = 0; ///< comb cells left out (combinational loop)
  bool ok() const {
    return compared > 0 && mismatched == 0 && missing == 0 &&
           unevaluated == 0;
  }
};

/// Simulate `golden` and `final_nl` on `words` × 64 random vectors drawn
/// from `seed` and compare their observation points.
LogicReport check_logic(const netlist::Netlist& golden,
                        const netlist::Netlist& final_nl, std::uint64_t seed,
                        int words = 4);

struct CostReport {
  double die_cost_e6 = 0.0;  ///< recomputed
  double ppc = 0.0;          ///< recomputed
  bool ok = false;
};

/// Table IV die cost (standard cost per good die) and PPC of the final
/// design, compared with what the flow reported.
CostReport check_cost(const netlist::Design& d,
                      const core::DesignMetrics& m);

struct MivReport {
  long long recomputed = 0;
  bool ok = false;
};

MivReport check_mivs(const netlist::Design& d, const core::DesignMetrics& m);

/// All checks of one flow result.
struct FlowCheck {
  LegalityReport legality;
  LogicReport logic;
  CostReport cost;
  MivReport mivs;
  bool ok() const {
    return legality.ok() && logic.ok() && cost.ok && mivs.ok;
  }
  /// One line naming the failed checks (empty when ok()).
  std::string summary() const;
};

FlowCheck check_flow(const netlist::Netlist& golden,
                     const core::FlowResult& r, std::uint64_t seed);

}  // namespace m3d::perfbench
