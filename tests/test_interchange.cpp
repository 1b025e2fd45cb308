// Round-trip tests for the interchange formats: Liberty (.lib) library
// serialization and structural Verilog netlists.

#include <gtest/gtest.h>

#include "gen/designs.hpp"
#include "netlist/design.hpp"
#include "netlist/verilog_reader.hpp"
#include "netlist/writer.hpp"
#include "place/place.hpp"
#include "route/route.hpp"
#include "tech/liberty.hpp"
#include "tech/library_factory.hpp"

namespace mg = m3d::gen;
namespace mn = m3d::netlist;
namespace mt = m3d::tech;

// ----------------------------------------------------------------- liberty

TEST(Liberty, WriteProducesWellFormedText) {
  const auto lib = mt::make_12track();
  const auto s = mt::liberty_string(*lib);
  EXPECT_NE(s.find("library (lib12t)"), std::string::npos);
  EXPECT_NE(s.find("cell (INV_X1_12T)"), std::string::npos);
  EXPECT_NE(s.find("cell_rise"), std::string::npos);
  EXPECT_NE(s.find("SRAM_1KX32"), std::string::npos);
  // Balanced braces.
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'),
            std::count(s.begin(), s.end(), '}'));
}

TEST(Liberty, RoundTripPreservesLibraryAttributes) {
  const auto orig = mt::make_9track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  EXPECT_EQ(lib.name(), orig->name());
  EXPECT_EQ(lib.tracks(), orig->tracks());
  EXPECT_DOUBLE_EQ(lib.vdd(), orig->vdd());
  EXPECT_DOUBLE_EQ(lib.vthp(), orig->vthp());
  EXPECT_DOUBLE_EQ(lib.row_height_um(), orig->row_height_um());
  EXPECT_DOUBLE_EQ(lib.wire().res_kohm_per_um,
                   orig->wire().res_kohm_per_um);
  EXPECT_DOUBLE_EQ(lib.miv().cap_ff, orig->miv().cap_ff);
  EXPECT_EQ(lib.cell_count(), orig->cell_count());
  EXPECT_EQ(lib.macro_count(), orig->macro_count());
}

TEST(Liberty, RoundTripPreservesCellElectricals) {
  const auto orig = mt::make_12track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  for (auto f : {mt::CellFunc::Inv, mt::CellFunc::Nand2, mt::CellFunc::Dff,
                 mt::CellFunc::Mux2}) {
    for (int d : {1, 4}) {
      const auto* a = orig->find(f, d);
      const auto* b = lib.find(f, d);
      ASSERT_NE(b, nullptr) << mt::func_name(f) << d;
      EXPECT_NEAR(b->width_um, a->width_um, 1e-9);
      EXPECT_NEAR(b->input_cap_ff, a->input_cap_ff, 1e-9);
      EXPECT_NEAR(b->leakage_uw, a->leakage_uw, 1e-9);
      EXPECT_NEAR(b->internal_energy_fj, a->internal_energy_fj, 1e-9);
      EXPECT_EQ(b->arcs.size(), a->arcs.size());
    }
  }
  const auto* dff_a = orig->find(mt::CellFunc::Dff, 2);
  const auto* dff_b = lib.find(mt::CellFunc::Dff, 2);
  EXPECT_NEAR(dff_b->setup_ns, dff_a->setup_ns, 1e-12);
  EXPECT_NEAR(dff_b->hold_ns, dff_a->hold_ns, 1e-12);
  EXPECT_NEAR(dff_b->clock_cap_ff, dff_a->clock_cap_ff, 1e-12);
}

TEST(Liberty, RoundTripPreservesNldmLookups) {
  const auto orig = mt::make_12track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  const auto* a = orig->find(mt::CellFunc::Xor2, 2);
  const auto* b = lib.find(mt::CellFunc::Xor2, 2);
  for (double slew : {0.004, 0.02, 0.11}) {
    for (double load : {0.8, 5.0, 60.0}) {
      for (int t : {0, 1}) {
        EXPECT_NEAR(b->arc(1).delay[t].lookup(slew, load),
                    a->arc(1).delay[t].lookup(slew, load), 1e-9);
        EXPECT_NEAR(b->arc(1).out_slew[t].lookup(slew, load),
                    a->arc(1).out_slew[t].lookup(slew, load), 1e-9);
      }
    }
  }
  EXPECT_EQ(b->arc(0).inverting, a->arc(0).inverting);
}

TEST(Liberty, RoundTripPreservesMacros) {
  const auto orig = mt::make_12track();
  const auto lib = mt::parse_liberty(mt::liberty_string(*orig));
  const int mi = lib.find_macro("SRAM_4KX32");
  ASSERT_GE(mi, 0);
  const auto& a = orig->macro(orig->find_macro("SRAM_4KX32"));
  const auto& b = lib.macro(mi);
  EXPECT_NEAR(b.width_um, a.width_um, 1e-9);
  EXPECT_NEAR(b.height_um, a.height_um, 1e-9);
  EXPECT_NEAR(b.access_ns, a.access_ns, 1e-12);
  EXPECT_NEAR(b.leakage_uw, a.leakage_uw, 1e-9);
}

TEST(Liberty, ParserRejectsGarbage) {
  EXPECT_THROW(mt::parse_liberty("not a liberty file"), m3d::util::Error);
  EXPECT_THROW(mt::parse_liberty("library (x) { cell (y) { "),
               m3d::util::Error);
}

TEST(Liberty, ParserRejectsBadNumbersAsErrors) {
  // Malformed numbers surface as util::Error naming the token, never as
  // the std::invalid_argument / std::out_of_range of the std::sto* family.
  EXPECT_THROW(mt::parse_liberty("library (x) { nom_voltage : abc; }"),
               m3d::util::Error);
  EXPECT_THROW(mt::parse_liberty("library (x) { nom_voltage : 1e999; }"),
               m3d::util::Error);
  const std::string good = mt::liberty_string(*mt::make_12track());
  auto corrupt = [&](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  EXPECT_THROW(mt::parse_liberty(corrupt("related_pin : \"A0\"",
                                         "related_pin : \"Aq\"")),
               m3d::util::Error);
  EXPECT_THROW(mt::parse_liberty(corrupt("index_1 (\"", "index_1 (\"0.1x, ")),
               m3d::util::Error);
  try {
    mt::parse_liberty(corrupt("related_pin : \"A0\"",
                              "related_pin : \"A99999999999\""));
    ADD_FAILURE() << "overflowing related_pin accepted";
  } catch (const m3d::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("99999999999"), std::string::npos);
  }
}

TEST(Liberty, ParserRejectsNonIntegralIntAttributes) {
  // Integer attributes are parsed as numbers and then range-checked: a
  // value past int range, non-finite or fractional is an error naming the
  // attribute, never a silently wrapped cast.
  const std::string good = mt::liberty_string(*mt::make_12track());
  const char* bad_values[] = {"1e20", "-1e20", "nan", "inf", "2.5"};
  for (const char* attr : {"m3d_tracks", "m3d_wire_layers", "m3d_drive"}) {
    const std::string key = std::string(attr) + " : ";
    const std::size_t at = good.find(key);
    ASSERT_NE(at, std::string::npos) << attr;
    const std::size_t end = good.find(';', at);
    for (const char* v : bad_values) {
      SCOPED_TRACE(std::string(attr) + " = " + v);
      std::string text = good;
      text.replace(at + key.size(), end - at - key.size(), v);
      try {
        mt::parse_liberty(text);
        ADD_FAILURE() << "accepted";
      } catch (const m3d::util::Error& e) {
        EXPECT_NE(std::string(e.what()).find(attr), std::string::npos)
            << e.what();
      }
    }
  }
  // A drive outside [0, kMaxDrive] is rejected by the reader itself.
  const std::size_t at = good.find("m3d_drive : ");
  const std::size_t end = good.find(';', at);
  std::string text = good;
  text.replace(at, end - at, "m3d_drive : 1025");
  EXPECT_THROW(mt::parse_liberty(text), m3d::util::Error);
}

TEST(Liberty, ParserIgnoresUnknownAttributes) {
  const std::string text =
      "library (mini) {\n"
      "  nom_voltage : 0.8;\n"
      "  some_vendor_thing : 42;\n"
      "  operating_conditions (fast) { process : 1; }\n"
      "}\n";
  const auto lib = mt::parse_liberty(text);
  EXPECT_EQ(lib.name(), "mini");
  EXPECT_DOUBLE_EQ(lib.vdd(), 0.8);
  EXPECT_EQ(lib.cell_count(), 0);
}

// ----------------------------------------------------------------- verilog

namespace {
mn::Netlist sample() {
  mg::GenOptions g;
  g.scale = 0.06;
  return mg::make_cpu(g);  // has macros, flops, clock net, ports
}
}  // namespace

TEST(Verilog, RoundTripPreservesStats) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  const auto a = orig.stats();
  const auto b = back.stats();
  EXPECT_EQ(b.cells, a.cells);
  EXPECT_EQ(b.comb_cells, a.comb_cells);
  EXPECT_EQ(b.seq_cells, a.seq_cells);
  EXPECT_EQ(b.macros, a.macros);
  EXPECT_EQ(b.ports, a.ports);
  EXPECT_EQ(b.nets, a.nets);
  EXPECT_EQ(b.pins, a.pins);
  EXPECT_NEAR(b.avg_fanout, a.avg_fanout, 1e-12);
}

TEST(Verilog, RoundTripPreservesConnectivity) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  ASSERT_EQ(back.net_count(), orig.net_count());
  // Nets are recreated in declaration order; compare fanouts and driver
  // cell functions by name.
  std::map<std::string, int> orig_fanout, back_fanout;
  for (mn::NetId n = 0; n < orig.net_count(); ++n)
    orig_fanout[std::string(orig.net(n).name)] = orig.fanout(n);
  for (mn::NetId n = 0; n < back.net_count(); ++n)
    back_fanout[std::string(back.net(n).name)] = back.fanout(n);
  EXPECT_EQ(back_fanout, orig_fanout);
}

TEST(Verilog, RoundTripPreservesClockMarking) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  int orig_clocks = 0, back_clocks = 0;
  for (mn::NetId n = 0; n < orig.net_count(); ++n)
    orig_clocks += orig.net(n).is_clock;
  for (mn::NetId n = 0; n < back.net_count(); ++n)
    back_clocks += back.net(n).is_clock;
  EXPECT_EQ(back_clocks, orig_clocks);
  EXPECT_GT(back_clocks, 0);
}

TEST(Verilog, RoundTripPreservesDrivesAndFunctions) {
  const auto orig = sample();
  const auto back = mn::parse_verilog(mn::verilog_string(orig));
  std::map<std::string, std::pair<int, int>> orig_cells;  // func, drive
  for (mn::CellId c = 0; c < orig.cell_count(); ++c) {
    const auto& cc = orig.cell(c);
    if (cc.is_comb() || cc.is_sequential())
      orig_cells[std::string(cc.name)] = {static_cast<int>(cc.func), cc.drive};
  }
  int matched = 0;
  for (mn::CellId c = 0; c < back.cell_count(); ++c) {
    const auto& cc = back.cell(c);
    if (!cc.is_comb() && !cc.is_sequential()) continue;
    auto it = orig_cells.find(std::string(cc.name));
    ASSERT_NE(it, orig_cells.end()) << cc.name;
    EXPECT_EQ(static_cast<int>(cc.func), it->second.first);
    EXPECT_EQ(cc.drive, it->second.second);
    ++matched;
  }
  EXPECT_EQ(matched, static_cast<int>(orig_cells.size()));
}

// The generated mesh/NoC fabric must survive writer → reader unchanged:
// same structure by name, and — because the writer emits cells and nets
// in id order and the reader rebuilds in file order — the same ids, so a
// placement + routing pass over the reparsed netlist reproduces the
// original flow metrics bit for bit (the "flow digest").
TEST(Verilog, MeshRoundTripPreservesStructureAndFlowDigest) {
  mg::GenOptions g;
  g.scale = 0.05;
  const auto orig = mg::make_mesh(g);
  const auto back = mn::parse_verilog(mn::verilog_string(orig));

  const auto a = orig.stats();
  const auto b = back.stats();
  EXPECT_EQ(b.cells, a.cells);
  EXPECT_EQ(b.seq_cells, a.seq_cells);
  EXPECT_EQ(b.ports, a.ports);
  EXPECT_EQ(b.nets, a.nets);
  EXPECT_EQ(b.pins, a.pins);

  // Structural isomorphism by name: identical fanout per net.
  std::map<std::string, int> orig_fanout, back_fanout;
  for (mn::NetId n = 0; n < orig.net_count(); ++n)
    orig_fanout[std::string(orig.net(n).name)] = orig.fanout(n);
  for (mn::NetId n = 0; n < back.net_count(); ++n)
    back_fanout[std::string(back.net(n).name)] = back.fanout(n);
  EXPECT_EQ(back_fanout, orig_fanout);

  // Flow digest: identical placement and routed wirelength.
  auto flow_wl = [](const mn::Netlist& nl) {
    mn::Design d(nl, mt::make_12track(), mt::make_9track());
    m3d::place::place_design(d);
    return m3d::route::route_design(d).total_wirelength_um;
  };
  EXPECT_EQ(flow_wl(orig), flow_wl(back));
}

TEST(Verilog, ReaderRejectsMalformedInput) {
  EXPECT_THROW(mn::parse_verilog("nonsense"), m3d::util::Error);
  EXPECT_THROW(mn::parse_verilog("module m (input a);\n wire w;\n"),
               m3d::util::Error);  // missing endmodule
  EXPECT_THROW(
      mn::parse_verilog("module m ();\n INV_X1 u (.A0(nope));\nendmodule"),
      m3d::util::Error);  // undeclared net
}

TEST(Verilog, ReaderRejectsBadNumbersAsErrors) {
  auto module = [](const std::string& inst) {
    return "module m (input a, output z);\n wire w;\n " + inst +
           "\n assign w = a;\n assign z = w;\nendmodule";
  };
  // Sanity: the well-formed instance parses.
  EXPECT_NO_THROW(mn::parse_verilog(module("NAND2_X2 u (.A0(w), .A1(w));")));
  // A drive past int range, and pin indices that are not numbers.
  EXPECT_THROW(
      mn::parse_verilog(module("NAND2_X99999999999 u (.A0(w), .A1(w));")),
      m3d::util::Error);
  EXPECT_THROW(mn::parse_verilog(module("NAND2_X2 u (.Aq(w), .A1(w));")),
               m3d::util::Error);
  EXPECT_THROW(mn::parse_verilog(module("NAND2_X2 u (.A0(w), .Z1x(w));")),
               m3d::util::Error);
}

TEST(Verilog, HandwrittenModuleParses) {
  const std::string text = R"(
    module adder (
      input a,
      input b,
      output s
    );
      wire na;  // plain
      wire nb;
      wire ns;
      assign na = a;
      assign nb = b;
      XOR2_X2 u0 (.A0(na), .A1(nb), .Z(ns));
      assign s = ns;
    endmodule
  )";
  const auto nl = mn::parse_verilog(text);
  EXPECT_EQ(nl.name(), "adder");
  EXPECT_EQ(nl.stats().cells, 1);
  EXPECT_EQ(nl.stats().ports, 3);
  const auto& gate = nl.cell(3);
  EXPECT_EQ(gate.func, m3d::tech::CellFunc::Xor2);
  EXPECT_EQ(gate.drive, 2);
}
