#include "sta/sta.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>

#include "exec/pool.hpp"
#include "exec/worklist.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace m3d::sta {

using netlist::Cell;
using netlist::CellKind;
using netlist::kInvalidId;
using netlist::Pin;
using netlist::PinDir;
using tech::Transition;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kPosInf = std::numeric_limits<double>::infinity();
constexpr double kClockPinSlew = 0.025;  // slew asserted at FF clock pins

// Below this many pins a level is propagated serially; the result is the
// same either way (single-writer gather), only the scheduling overhead
// differs.
constexpr int kParallelLevelMin = 192;
constexpr int kParallelGrain = 64;
// Cells per task of run()'s library-view refresh.
constexpr int kParallelViewGrain = 512;

int opp(int t) { return 1 - t; }

}  // namespace

namespace detail {

/// Level-synchronous STA engine. The timing graph's static structure
/// (participation, pin roles, topological levels, adjacency) is built once
/// from the netlist; forward/backward propagation then visits one level at
/// a time, computing every pin of the level in parallel. Each pin is
/// written by exactly one task that *gathers* from its predecessors in a
/// fixed order, so results are bitwise-identical for any pool size.
///
/// retime() re-propagates only the cone of a dirty cell set using
/// level-bucketed worklists with exact (bitwise) change detection, and is
/// bitwise-identical to a full run() — see DESIGN.md for the invariants.
///
/// Library views: the kernels never resolve a cell's library binding
/// themselves. They read a per-cell view table (kind, LibCell, MacroCell)
/// and a per-pin input-cap column, which run() refreshes for every cell
/// and retime() for the dirty cells, plus scalar netlist/design columns.
///
/// Flat storage: levels, stored arc delays and the retime worklists are
/// CSR arrays (one offsets array, one values array), and every retime
/// scratch buffer is sized by the build, so retime() allocates nothing.
///
/// Corner vectorization: with K = opt.corners.count > 1 the arrival,
/// min-arrival, required and endpoint slack/hold arrays become stride-K
/// SoA lanes — lane k of pin p lives at p*K + k — and the gather kernels
/// run a tight contiguous inner loop over the lanes. Expensive shared
/// work (NLDM index search + bilinear interpolation, Elmore net delays,
/// graph structure) is computed once at the nominal corner and scaled
/// per lane by the cell tier's factor, which models inter-tier process
/// variation as a multiplicative device-delay shift — the same
/// delay-only derating a `set_timing_derate` OCV flow applies, so slews
/// (and the NLDM lookups they index) stay corner-shared. Wire delays
/// are also corner-shared: the modeled variation is FEOL (transistors
/// differ between the tiers' fabrication passes), not BEOL. Because
/// lane 0's factor is exactly the spec's derate (1.0 by default) and
/// x*1.0 is bit-exact for every finite double, lane 0 reproduces the
/// scalar engine bit for bit at any pool size, and lanes never interact.
class StaEngine {
 public:
  StaEngine(const Design& d, const route::RoutingEstimate* routes,
            const StaOptions& opt)
      : d_(d),
        nl_(d.nl()),
        routes_(routes),
        opt_(opt),
        pool_(opt.pool != nullptr ? *opt.pool : exec::Pool::global()) {
    const tech::CornerSet corners = tech::CornerSet::generate(opt.corners);
    K_ = corners.count();
    fac_[0] = corners.factors(0);
    fac_[1] = corners.factors(1);
    build_structure();
  }

  const StaResult& run();
  const StaResult& retime(const std::vector<CellId>& dirty);
  const StaResult& result() const { return res_; }
  StaResult take_result() { return std::move(res_); }

 private:
  /// How a pin's forward value is produced.
  enum class Role : unsigned char {
    kNone,     ///< not in the data graph (clock network)
    kLaunch,   ///< in-degree 0: PI / FF Q / macro out (or dead input)
    kNetSink,  ///< input pin fed by a participating driver through a net
    kCombOut,  ///< output of a combinational cell, fed by its input pins
  };

  /// A cell's library binding as the kernels read it.
  struct CellView {
    CellKind kind = CellKind::Comb;
    const tech::LibCell* lc = nullptr;    ///< Comb/Seq only
    const tech::MacroCell* mc = nullptr;  ///< Macro only
  };

  void build_structure();
  bool pin_participates(PinId p) const;
  /// Combinational cell on the data graph (not a clock buffer): its
  /// outputs are kCombOut pins with stored arc delays.
  bool data_comb(CellId c) const {
    const auto ci = static_cast<std::size_t>(c);
    return view_[ci].kind == CellKind::Comb && !clkbuf_[ci];
  }

  /// Re-resolve cell `c`'s library views and its pins' input caps from
  /// the design (its current tier and drive). One writer per cell.
  void refresh_view(CellId c);
  void refresh_views();

  // Gather kernels: each writes only the state of pin `p` (and, for
  // kCombOut/kNetSink, the stored arc delays *at* `p`), reading only
  // lower-level pins — safe to run concurrently within one level.
  void compute_forward(PinId p);
  void compute_required(PinId p);
  /// Endpoint constraint at `p`: required time, setup, slack, hold slack.
  /// Writes only this endpoint's slots.
  void eval_endpoint(PinId p);

  double net_load_ff(NetId n) const;
  void net_arc(PinId driver, int sink_ordinal, PinId sink, double* delay,
               double* slew_add, bool* via_miv, double* wirelen) const;
  double arc_derate(CellId cell, PinId in_pin) const;
  void init_launch(PinId p);
  /// The nominal lane's winning arc into one output transition so far.
  /// The winner's output slew is looked up once, after all input arcs.
  struct SlewWinner {
    const tech::NldmTable* table = nullptr;
    double slew_in = 0.0;
    double derate = 1.0;
  };
  /// One input→output arc of cell `c` (library view `lc`, corner factors
  /// `fac`); `load` is out_pin's net load, summed once by the caller for
  /// all of the cell's input arcs.
  void eval_cell_arc(CellId c, const tech::LibCell& lc, const double* fac,
                     PinId in_pin, PinId out_pin, double load,
                     SlewWinner* win);

  void compute_port_latency();
  void run_level(std::size_t lv, bool forward);
  /// Result aggregates. After a retime() only the re-evaluated endpoints
  /// (redo_eps_) are re-sorted and merged into the previous order.
  void aggregate(bool after_retime);

  /// Words of one pin's captured forward state in retime(): arr and
  /// arr_min (rise/fall, K lanes each), the two slews and the net-arc
  /// delay.
  std::size_t fwd_words() const { return 4 * static_cast<std::size_t>(K_) + 3; }

  const Design& d_;
  const netlist::Netlist& nl_;
  const route::RoutingEstimate* routes_;
  StaOptions opt_;
  exec::Pool& pool_;

  // ---- static structure (valid across tier moves) -------------------------
  std::vector<char> part_;        // per pin: participates in the data graph
  std::vector<char> clkbuf_;      // per cell: is a clock buffer
  std::vector<Role> role_;        // per pin
  std::vector<int> level_;        // per pin: topological level (-1 if none)
  // Pins per level (CSR): level lv is level_pins_[level_off_[lv] ..
  // level_off_[lv + 1]), id-ascending.
  std::vector<PinId> level_pins_;
  std::vector<int> level_off_;
  std::vector<PinId> drv_pin_;    // per kNetSink pin: its net driver
  std::vector<int> sink_ord_;     // per kNetSink pin: ordinal in sinks()
  // Per-cell input/output pin lists (CSR; avoids per-call allocation).
  std::vector<PinId> cell_in_, cell_out_;
  std::vector<int> cell_in_off_, cell_out_off_;
  // Forward successors / predecessors per pin (CSR), participating only.
  std::vector<PinId> succ_, preds_;
  std::vector<int> succ_off_, preds_off_;
  std::vector<PinId> ep_pins_;    // endpoint pins, id-ascending
  std::vector<int> ep_index_;     // per pin: index into ep arrays, -1
  std::size_t participating_ = 0;

  // ---- library views (refreshed by run() / retime()) ----------------------
  std::vector<CellView> view_;    // per cell; kind is static
  std::vector<double> in_cap_;    // per pin: input cap (fF), 0 for outputs

  /// Corner-factor lane index of a cell: its tier's contiguous factors.
  const double* factors(CellId c) const {
    return fac_[d_.tier(c) == netlist::kTopTier ? 1 : 0].data();
  }

  // ---- corner lanes -------------------------------------------------------
  int K_ = 1;                   // corner lanes; 1 = scalar engine
  std::vector<double> fac_[2];  // per tier: K delay factors (lane 0 nominal)

  // ---- dynamic state (res_ holds arr/req/slew/pred) -----------------------
  // arr_min_, ep_slack_ and ep_hold_ are stride-K like res_'s arr/req;
  // slew_, pred_, net_arc_delay_, the arc rows and ep_required_ stay
  // corner-shared (delay-only derating: slews, wire delays and clock
  // constraints do not vary across the modeled corners).
  std::vector<double> arr_min_[2];
  std::vector<double> net_arc_delay_;  // per sink pin
  // Stored cell-arc delays (CSR): kCombOut pin p's row is arc_val_[
  // arc_off_[p] .. arc_off_[p + 1]), indexed [in*2 + T]; other pins have
  // an empty row.
  std::vector<double> arc_val_;
  std::vector<int> arc_off_;
  std::size_t max_row_ = 0;           // longest arc row
  std::vector<double> ep_slack_;      // +inf = unreachable endpoint
  std::vector<double> ep_hold_;       // +inf = no hold check at endpoint
  std::vector<double> ep_required_;   // capture-edge required time
  double port_latency_ = 0.0;
  bool has_run_ = false;

  // ---- retime scratch (sized by the build) --------------------------------
  // Cells/nets seen and pins queued in the current retime(); each call
  // starts a new epoch instead of clearing.
  exec::EpochMarks cell_seen_, net_seen_, fwd_queued_, bwd_queued_;
  // Per-level worklists in level_pins_'s layout: level lv's bucket is
  // fwd_wl_[level_off_[lv] .. level_off_[lv] + fwd_cnt_[lv]) (a pin is
  // queued at most once per pass, so a level's span always fits).
  std::vector<PinId> fwd_wl_, bwd_wl_;
  std::vector<int> fwd_cnt_, bwd_cnt_;
  std::vector<PinId> redo_eps_;
  // Old-value capture slots: one per pin of a batch-recomputed bucket
  // (the widest level on a multi-worker pool; one slot otherwise).
  std::vector<double> old_fwd_, old_arcs_, old_req_;
  // aggregate(): the finite-slack endpoints sorted by (slack, pin), plus
  // the re-evaluated endpoints and the merge target of a retime.
  std::vector<std::pair<double, PinId>> eps_, fresh_eps_, merged_eps_;

  StaResult res_;
};

bool StaEngine::pin_participates(PinId p) const {
  const Pin& pp = nl_.pin(p);
  if (pp.is_clock) return false;
  if (pp.net != kInvalidId && nl_.net_is_clock(pp.net)) return false;
  if (clkbuf_[static_cast<std::size_t>(pp.cell)]) return false;
  return true;
}

void StaEngine::build_structure() {
  util::TraceSpan span("sta_build", nl_.name());
  const std::size_t np = static_cast<std::size_t>(nl_.pin_count());
  const std::size_t nc = static_cast<std::size_t>(nl_.cell_count());

  view_.assign(nc, {});
  in_cap_.assign(np, 0.0);
  clkbuf_.assign(nc, 0);
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    const CellKind kind = nl_.cell_kind(c);
    view_[static_cast<std::size_t>(c)].kind = kind;
    if (kind != CellKind::Comb) continue;
    for (PinId p : nl_.pins_of(c)) {
      const NetId n = nl_.pin(p).net;
      if (n != kInvalidId && nl_.net_is_clock(n)) {
        clkbuf_[static_cast<std::size_t>(c)] = 1;
        break;
      }
    }
  }

  part_.assign(np, 0);
  participating_ = 0;
  for (PinId p = 0; p < nl_.pin_count(); ++p)
    if (pin_participates(p)) {
      part_[static_cast<std::size_t>(p)] = 1;
      ++participating_;
    }

  // Per-cell pin lists in netlist pin order.
  cell_in_off_.assign(nc + 1, 0);
  cell_out_off_.assign(nc + 1, 0);
  for (CellId c = 0; c < nl_.cell_count(); ++c)
    for (PinId p : nl_.pins_of(c)) {
      if (nl_.pin(p).dir == PinDir::Input)
        ++cell_in_off_[static_cast<std::size_t>(c) + 1];
      else
        ++cell_out_off_[static_cast<std::size_t>(c) + 1];
    }
  for (std::size_t i = 0; i < nc; ++i) {
    cell_in_off_[i + 1] += cell_in_off_[i];
    cell_out_off_[i + 1] += cell_out_off_[i];
  }
  cell_in_.resize(static_cast<std::size_t>(cell_in_off_[nc]));
  cell_out_.resize(static_cast<std::size_t>(cell_out_off_[nc]));
  {
    std::vector<int> wi(cell_in_off_.begin(), cell_in_off_.end() - 1);
    std::vector<int> wo(cell_out_off_.begin(), cell_out_off_.end() - 1);
    for (CellId c = 0; c < nl_.cell_count(); ++c)
      for (PinId p : nl_.pins_of(c)) {
        if (nl_.pin(p).dir == PinDir::Input)
          cell_in_[static_cast<std::size_t>(
              wi[static_cast<std::size_t>(c)]++)] = p;
        else
          cell_out_[static_cast<std::size_t>(
              wo[static_cast<std::size_t>(c)]++)] = p;
      }
  }

  // ---- pin roles, net-arc sources, in-degrees ----------------------------
  role_.assign(np, Role::kNone);
  drv_pin_.assign(np, kInvalidId);
  sink_ord_.assign(np, -1);
  std::vector<int> indeg(np, 0);

  for (NetId n = 0; n < nl_.net_count(); ++n) {
    const PinId driver = nl_.net_driver(n);
    if (nl_.net_is_clock(n) || driver == kInvalidId) continue;
    if (!part_[static_cast<std::size_t>(driver)]) continue;
    std::size_t i = 0;
    nl_.for_each_sink(n, [&](PinId s) {
      const std::size_t ord = i++;
      if (!part_[static_cast<std::size_t>(s)]) return;
      role_[static_cast<std::size_t>(s)] = Role::kNetSink;
      drv_pin_[static_cast<std::size_t>(s)] = driver;
      sink_ord_[static_cast<std::size_t>(s)] = static_cast<int>(ord);
      ++indeg[static_cast<std::size_t>(s)];
    });
  }
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    if (!data_comb(c)) continue;
    const int nin = cell_in_off_[static_cast<std::size_t>(c) + 1] -
                    cell_in_off_[static_cast<std::size_t>(c)];
    for (int k = cell_out_off_[static_cast<std::size_t>(c)];
         k < cell_out_off_[static_cast<std::size_t>(c) + 1]; ++k) {
      const PinId o = cell_out_[static_cast<std::size_t>(k)];
      // In-degree counts *all* input pins (as the original Kahn traversal
      // did), so an output behind a never-ready input trips the loop check.
      indeg[static_cast<std::size_t>(o)] += nin;
      if (part_[static_cast<std::size_t>(o)])
        role_[static_cast<std::size_t>(o)] = Role::kCombOut;
    }
  }
  for (PinId p = 0; p < nl_.pin_count(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    if (part_[pi] && role_[pi] == Role::kNone) role_[pi] = Role::kLaunch;
  }

  // ---- forward successors (participating only; CSR) ----------------------
  succ_off_.assign(np + 1, 0);
  auto for_each_succ = [&](PinId u, auto&& fn) {
    const Pin& up = nl_.pin(u);
    if (up.dir == PinDir::Output) {
      if (up.net == kInvalidId || nl_.net_is_clock(up.net)) return;
      nl_.for_each_sink(up.net, [&](PinId s) {
        if (part_[static_cast<std::size_t>(s)]) fn(s);
      });
    } else {
      if (!data_comb(up.cell)) return;
      const auto ci = static_cast<std::size_t>(up.cell);
      for (int k = cell_out_off_[ci]; k < cell_out_off_[ci + 1]; ++k)
        fn(cell_out_[static_cast<std::size_t>(k)]);
    }
  };
  for (PinId p = 0; p < nl_.pin_count(); ++p) {
    if (!part_[static_cast<std::size_t>(p)]) continue;
    for_each_succ(p, [&](PinId) { ++succ_off_[static_cast<std::size_t>(p) + 1]; });
  }
  for (std::size_t i = 0; i < np; ++i) succ_off_[i + 1] += succ_off_[i];
  succ_.resize(static_cast<std::size_t>(succ_off_[np]));
  {
    std::vector<int> w(succ_off_.begin(), succ_off_.end() - 1);
    for (PinId p = 0; p < nl_.pin_count(); ++p) {
      if (!part_[static_cast<std::size_t>(p)]) continue;
      for_each_succ(p, [&](PinId s) {
        succ_[static_cast<std::size_t>(w[static_cast<std::size_t>(p)]++)] = s;
      });
    }
  }

  // ---- forward predecessors (participating only; CSR) --------------------
  preds_off_.assign(np + 1, 0);
  for (std::size_t i = 0; i < succ_.size(); ++i)
    ++preds_off_[static_cast<std::size_t>(succ_[i]) + 1];
  for (std::size_t i = 0; i < np; ++i) preds_off_[i + 1] += preds_off_[i];
  preds_.resize(succ_.size());
  {
    std::vector<int> w(preds_off_.begin(), preds_off_.end() - 1);
    for (PinId p = 0; p < nl_.pin_count(); ++p) {
      if (!part_[static_cast<std::size_t>(p)]) continue;
      for (int k = succ_off_[static_cast<std::size_t>(p)];
           k < succ_off_[static_cast<std::size_t>(p) + 1]; ++k) {
        const PinId s = succ_[static_cast<std::size_t>(k)];
        preds_[static_cast<std::size_t>(w[static_cast<std::size_t>(s)]++)] = p;
      }
    }
  }

  // ---- Kahn leveling -----------------------------------------------------
  level_.assign(np, -1);
  std::vector<PinId> queue;
  for (PinId p = 0; p < nl_.pin_count(); ++p) {
    const auto pi = static_cast<std::size_t>(p);
    if (part_[pi] && indeg[pi] == 0) {
      level_[pi] = 0;
      queue.push_back(p);
    }
  }
  std::size_t head = 0;
  std::size_t leveled = queue.size();
  while (head < queue.size()) {
    const PinId u = queue[head++];
    const auto ui = static_cast<std::size_t>(u);
    for (int k = succ_off_[ui]; k < succ_off_[ui + 1]; ++k) {
      const PinId v = succ_[static_cast<std::size_t>(k)];
      const auto vi = static_cast<std::size_t>(v);
      level_[vi] = std::max(level_[vi], level_[ui] + 1);
      if (--indeg[vi] == 0) {
        queue.push_back(v);
        ++leveled;
      }
    }
  }
  M3D_CHECK_MSG(leveled == participating_,
                "combinational loop detected: " << participating_ - leveled
                                                << " pins unreachable");

  int max_level = -1;
  for (PinId p = 0; p < nl_.pin_count(); ++p)
    max_level = std::max(max_level, level_[static_cast<std::size_t>(p)]);
  const auto nlv = static_cast<std::size_t>(max_level + 1);
  level_off_.assign(nlv + 1, 0);
  for (const int lv : level_)
    if (lv >= 0) ++level_off_[static_cast<std::size_t>(lv) + 1];
  std::size_t max_width = 0;
  for (std::size_t lv = 0; lv < nlv; ++lv) {
    max_width = std::max(max_width,
                         static_cast<std::size_t>(level_off_[lv + 1]));
    level_off_[lv + 1] += level_off_[lv];
  }
  level_pins_.resize(static_cast<std::size_t>(level_off_[nlv]));
  {
    // Pin ids are visited in ascending order, so each level is sorted.
    std::vector<int> w(level_off_.begin(), level_off_.end() - 1);
    for (PinId p = 0; p < nl_.pin_count(); ++p) {
      const int lv = level_[static_cast<std::size_t>(p)];
      if (lv >= 0)
        level_pins_[static_cast<std::size_t>(
            w[static_cast<std::size_t>(lv)]++)] = p;
    }
  }

  // ---- endpoints ---------------------------------------------------------
  ep_index_.assign(np, -1);
  for (PinId p = 0; p < nl_.pin_count(); ++p) {
    if (!part_[static_cast<std::size_t>(p)]) continue;
    const Pin& pp = nl_.pin(p);
    if (pp.dir != PinDir::Input) continue;
    const CellKind k = nl_.cell_kind(pp.cell);
    if (k != CellKind::Seq && k != CellKind::Macro &&
        k != CellKind::PrimaryOut)
      continue;
    ep_index_[static_cast<std::size_t>(p)] = static_cast<int>(ep_pins_.size());
    ep_pins_.push_back(p);
  }
  const auto K = static_cast<std::size_t>(K_);
  ep_slack_.assign(ep_pins_.size() * K, kPosInf);
  ep_hold_.assign(ep_pins_.size() * K, kPosInf);
  ep_required_.assign(ep_pins_.size(), 0.0);

  // ---- dynamic-state storage ---------------------------------------------
  for (int t : {0, 1}) {
    res_.arr_[t].assign(np * K, kNegInf);
    res_.req_[t].assign(np * K, kPosInf);
    res_.slew_[t].assign(np, 0.0);
    res_.pred_[t].assign(np, {});
    arr_min_[t].assign(np * K, kPosInf);
  }
  res_.lanes_ = K_;
  res_.corners_ = K_;
  net_arc_delay_.assign(np, 0.0);
  arc_off_.assign(np + 1, 0);
  max_row_ = 0;
  for (CellId c = 0; c < nl_.cell_count(); ++c) {
    if (!data_comb(c)) continue;
    const auto ci = static_cast<std::size_t>(c);
    const int row = 2 * (cell_in_off_[ci + 1] - cell_in_off_[ci]);
    max_row_ = std::max(max_row_, static_cast<std::size_t>(row));
    for (int k = cell_out_off_[ci]; k < cell_out_off_[ci + 1]; ++k) {
      const PinId o = cell_out_[static_cast<std::size_t>(k)];
      arc_off_[static_cast<std::size_t>(o) + 1] = row;
    }
  }
  for (std::size_t i = 0; i < np; ++i) arc_off_[i + 1] += arc_off_[i];
  arc_val_.assign(static_cast<std::size_t>(arc_off_[np]), 0.0);
  res_.setup_at_endpoint_.assign(np, 0.0);
  res_.design_ = &d_;

  // ---- retime scratch ----------------------------------------------------
  cell_seen_.reset(nc);
  net_seen_.reset(static_cast<std::size_t>(nl_.net_count()));
  fwd_queued_.reset(np);
  bwd_queued_.reset(np);
  fwd_wl_.resize(level_pins_.size());
  bwd_wl_.resize(level_pins_.size());
  fwd_cnt_.assign(nlv, 0);
  bwd_cnt_.assign(nlv, 0);
  redo_eps_.reserve(ep_pins_.size());
  for (auto* v : {&eps_, &fresh_eps_, &merged_eps_})
    v->reserve(ep_pins_.size());
  const std::size_t slots =
      pool_.size() > 1 ? std::max<std::size_t>(max_width, 1) : 1;
  old_fwd_.assign(slots * fwd_words(), 0.0);
  old_arcs_.assign(slots * max_row_, 0.0);
  old_req_.assign(slots * 2 * K, 0.0);
}

void StaEngine::refresh_view(CellId c) {
  CellView& v = view_[static_cast<std::size_t>(c)];
  v.lc = v.kind == CellKind::Comb || v.kind == CellKind::Seq ? d_.lib_cell(c)
                                                             : nullptr;
  v.mc = v.kind == CellKind::Macro ? d_.macro(c) : nullptr;
  // Design::pin_cap_ff's values, read off the views just resolved (ports
  // keep asking the design for their pad load).
  for (PinId p : nl_.pins_of(c)) {
    const Pin& pp = nl_.pin(p);
    double cap = 0.0;
    if (pp.dir == PinDir::Input) {
      if (v.lc != nullptr)
        cap = pp.is_clock ? v.lc->clock_cap_ff : v.lc->input_cap_ff;
      else if (v.mc != nullptr)
        cap = v.mc->pin_cap_ff;
      else
        cap = d_.pin_cap_ff(p);
    }
    in_cap_[static_cast<std::size_t>(p)] = cap;
  }
}

void StaEngine::refresh_views() {
  const int nc = nl_.cell_count();
  if (nc < kParallelLevelMin || pool_.size() <= 1) {
    for (CellId c = 0; c < nc; ++c) refresh_view(c);
  } else {
    pool_.parallel_for(0, nc, [this](int c) { refresh_view(c); },
                       kParallelViewGrain);
  }
}

double StaEngine::net_load_ff(NetId n) const {
  double load = 0.0;
  nl_.for_each_sink(
      n, [&](PinId s) { load += in_cap_[static_cast<std::size_t>(s)]; });
  if (routes_ != nullptr)
    load += routes_->nets[static_cast<std::size_t>(n)].wire_cap_ff;
  return load;
}

void StaEngine::net_arc(PinId driver, int sink_ordinal, PinId sink,
                        double* delay, double* slew_add, bool* via_miv,
                        double* wirelen) const {
  *delay = 0.0;
  *slew_add = 0.0;
  *via_miv = false;
  *wirelen = 0.0;
  if (routes_ == nullptr) return;
  const auto& nr =
      routes_->nets[static_cast<std::size_t>(nl_.pin(driver).net)];
  if (static_cast<std::size_t>(sink_ordinal) >= nr.sink_path_um.size()) return;
  const double len = nr.sink_path_um[static_cast<std::size_t>(sink_ordinal)];
  const bool crosses =
      nr.sink_crosses_tier[static_cast<std::size_t>(sink_ordinal)];
  const auto& wire = d_.lib(netlist::kBottomTier).wire();
  const double sink_cap = in_cap_[static_cast<std::size_t>(sink)];
  double dly = wire.elmore_ns(len, sink_cap);
  if (crosses) {
    const auto& miv = d_.lib(netlist::kBottomTier).miv();
    dly += miv.res_kohm * (sink_cap + miv.cap_ff) * tech::kRCtoNs;
  }
  *delay = dly;
  // RC wire shaping degrades the edge; 10–90 % of an RC step is ~2.2 RC,
  // i.e. roughly 2× the 50 % delay — combined quadratically downstream.
  *slew_add = 2.0 * dly;
  *via_miv = crosses;
  *wirelen = len;
}

double StaEngine::arc_derate(CellId cell, PinId in_pin) const {
  if (!opt_.boundary_derates || d_.num_tiers() < 2) return 1.0;
  const NetId n = nl_.pin(in_pin).net;
  if (n == kInvalidId) return 1.0;
  const PinId drv = nl_.net_driver(n);
  if (drv == kInvalidId) return 1.0;
  const int tier_drv = d_.tier(nl_.pin(drv).cell);
  const int tier_cell = d_.tier(cell);
  if (tier_drv == tier_cell) return 1.0;
  const double vg = d_.lib(tier_drv).vdd();
  const tech::TechLib& lc = d_.lib_of(cell);
  return tech::boundary_delay_derate(vg, lc.vdd(), lc.vthp());
}

void StaEngine::init_launch(PinId p) {
  const Pin& pp = nl_.pin(p);
  const CellView& v = view_[static_cast<std::size_t>(pp.cell)];
  const double lat = opt_.ideal_clock ? 0.0 : d_.clock_latency(pp.cell);
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = static_cast<std::size_t>(p) * K;
  switch (v.kind) {
    case CellKind::PrimaryIn:
      for (int t : {0, 1}) {
        // PI arrival/slew are external constraints (set_input_delay), not
        // device delays: every corner lane sees the same value.
        std::fill_n(res_.arr_[t].data() + pb, K, opt_.input_delay_ns);
        // Primary inputs do not launch hold races: port min-arrival is an
        // external constraint (set_input_delay -min) we do not model, so
        // PI-launched paths stay unconstrained for hold.
        res_.slew_[t][static_cast<std::size_t>(p)] = opt_.input_slew_ns;
      }
      break;
    case CellKind::Seq: {
      const double load = pp.net == kInvalidId ? 0.0 : net_load_ff(pp.net);
      const double* fac = factors(pp.cell);
      for (int t : {0, 1}) {
        const auto& arc = v.lc->arc(0);  // DFF arc 0 models CLK→Q
        const double c2q = arc.delay[t].lookup(kClockPinSlew, load);
        for (std::size_t k = 0; k < K; ++k) {
          const double val = lat + c2q * fac[k];
          res_.arr_[t][pb + k] = val;
          arr_min_[t][pb + k] = val;
        }
        res_.slew_[t][static_cast<std::size_t>(p)] =
            arc.out_slew[t].lookup(kClockPinSlew, load);
      }
      break;
    }
    case CellKind::Macro: {
      const double* fac = factors(pp.cell);
      for (int t : {0, 1}) {
        for (std::size_t k = 0; k < K; ++k) {
          const double val = lat + v.mc->access_ns * fac[k];
          res_.arr_[t][pb + k] = val;
          arr_min_[t][pb + k] = val;
        }
        res_.slew_[t][static_cast<std::size_t>(p)] = v.mc->out_slew_ns;
      }
      break;
    }
    default:
      break;
  }
}

void StaEngine::eval_cell_arc(CellId c, const tech::LibCell& lc,
                              const double* fac, PinId in_pin, PinId out_pin,
                              double load, SlewWinner* win) {
  const Pin& ip = nl_.pin(in_pin);
  const auto& arc = lc.arc(ip.index);
  const double derate = arc_derate(c, in_pin);
  const std::size_t K = static_cast<std::size_t>(K_);
  const auto pi = static_cast<std::size_t>(in_pin);
  const auto po = static_cast<std::size_t>(out_pin);
  const std::size_t pib = pi * K;
  const std::size_t pob = po * K;
  double* row = arc_val_.data() + arc_off_[po];
  for (int t : {0, 1}) {
    const int in_t = arc.inverting ? opp(t) : t;
    const double* ain = res_.arr_[in_t].data() + pib;
    // Reachability is structural (factors are finite and positive), so
    // lane 0's -inf speaks for every lane.
    if (ain[0] == kNegInf) continue;
    const double s_in = std::max(res_.slew_[in_t][pi], 1e-4);
    const double dly = arc.delay[t].lookup(s_in, load) * derate;
    row[ip.index * 2 + t] = dly;
    double* arrt = res_.arr_[t].data() + pob;
    const double* amin_in = arr_min_[in_t].data() + pib;
    double* amin_out = arr_min_[t].data() + pob;
    for (std::size_t k = 0; k < K; ++k) {
      const double dk = dly * fac[k];
      const double cand = ain[k] + dk;
      if (cand > arrt[k]) {
        arrt[k] = cand;
        if (k == 0) {
          res_.pred_[t][po] = {in_pin, static_cast<std::uint8_t>(in_t),
                                false, false, dly, 0.0};
          // Winner-slew propagation: the output edge is shaped by the
          // input that switches last. (Max-slew propagation would let one
          // slow side-input poison every downstream path — overly
          // pessimistic in the heterogeneous setting where slow-tier
          // fan-in is routine.) Slews are corner-shared, so the nominal
          // lane's winner decides the stored slew.
          win[t] = {&arc.out_slew[t], s_in, derate};
        }
      }
      // Min-delay (hold) propagation shares the same arc delays.
      const double a_in_min = amin_in[k];
      if (a_in_min != kPosInf)
        amin_out[k] = std::min(amin_out[k], a_in_min + dk);
    }
  }
}

void StaEngine::compute_forward(PinId p) {
  const auto pi = static_cast<std::size_t>(p);
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = pi * K;
  for (int t : {0, 1}) {
    std::fill_n(res_.arr_[t].data() + pb, K, kNegInf);
    std::fill_n(arr_min_[t].data() + pb, K, kPosInf);
    res_.slew_[t][pi] = 0.0;
    res_.pred_[t][pi] = {};
  }
  switch (role_[pi]) {
    case Role::kLaunch:
      init_launch(p);
      break;
    case Role::kNetSink: {
      const PinId u = drv_pin_[pi];
      const auto ui = static_cast<std::size_t>(u);
      double dly, slew_add, wlen;
      bool via_miv;
      net_arc(u, sink_ord_[pi], p, &dly, &slew_add, &via_miv, &wlen);
      net_arc_delay_[pi] = dly;
      const std::size_t ub = ui * K;
      for (int t : {0, 1}) {
        // Wire delay is corner-shared; each lane just shifts by it.
        const double* amin_u = arr_min_[t].data() + ub;
        double* amin_p = arr_min_[t].data() + pb;
        for (std::size_t k = 0; k < K; ++k)
          if (amin_u[k] != kPosInf) amin_p[k] = amin_u[k] + dly;
        const double* arr_u = res_.arr_[t].data() + ub;
        if (arr_u[0] == kNegInf) continue;
        double* arr_p = res_.arr_[t].data() + pb;
        for (std::size_t k = 0; k < K; ++k) arr_p[k] = arr_u[k] + dly;
        res_.pred_[t][pi] = {u, static_cast<std::uint8_t>(t), true, via_miv,
                              dly, wlen};
        res_.slew_[t][pi] = std::hypot(res_.slew_[t][ui], slew_add);
      }
      break;
    }
    case Role::kCombOut: {
      std::fill(arc_val_.begin() + arc_off_[pi],
                arc_val_.begin() + arc_off_[pi + 1], 0.0);
      const Pin& op = nl_.pin(p);
      const CellId c = op.cell;
      const double load = op.net == kInvalidId ? 0.0 : net_load_ff(op.net);
      const auto ci = static_cast<std::size_t>(c);
      const tech::LibCell& lc = *view_[ci].lc;
      const double* fac = factors(c);
      SlewWinner win[2];
      for (int k = cell_in_off_[ci]; k < cell_in_off_[ci + 1]; ++k)
        eval_cell_arc(c, lc, fac, cell_in_[static_cast<std::size_t>(k)], p,
                      load, win);
      for (int t : {0, 1})
        if (win[t].table != nullptr)
          res_.slew_[t][pi] =
              win[t].table->lookup(win[t].slew_in, load) * win[t].derate;
      break;
    }
    default:
      break;
  }
}

void StaEngine::eval_endpoint(PinId p) {
  const auto pi = static_cast<std::size_t>(p);
  const int ei = ep_index_[pi];
  const CellId cell = nl_.pin(p).cell;
  const CellView& v = view_[static_cast<std::size_t>(cell)];
  double setup = 0.0;
  double lat = 0.0;
  double hold_req = 0.0;
  if (v.kind == CellKind::Seq) {
    setup = v.lc->setup_ns;
    hold_req = v.lc->hold_ns;
    lat = opt_.ideal_clock ? 0.0 : d_.clock_latency(cell);
  } else if (v.kind == CellKind::Macro) {
    setup = v.mc->setup_ns;
    lat = opt_.ideal_clock ? 0.0 : d_.clock_latency(cell);
  } else {  // PrimaryOut
    setup = opt_.output_margin_ns;
    lat = port_latency_;
  }
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = pi * K;
  const std::size_t eb = static_cast<std::size_t>(ei) * K;
  // Hold check (min-delay race): earliest arrival vs capture edge.
  std::fill_n(ep_hold_.data() + eb, K, kPosInf);
  if (opt_.hold_analysis && v.kind != CellKind::PrimaryOut) {
    for (std::size_t k = 0; k < K; ++k) {
      double earliest = kPosInf;
      for (int t : {0, 1})
        earliest = std::min(earliest, arr_min_[t][pb + k]);
      if (earliest != kPosInf) ep_hold_[eb + k] = earliest - (lat + hold_req);
    }
  }
  // The capture edge is clock-network state, corner-shared across lanes.
  const double required = d_.clock_period_ns() + lat - setup;
  ep_required_[static_cast<std::size_t>(ei)] = required;
  res_.setup_at_endpoint_[pi] = setup;
  for (std::size_t k = 0; k < K; ++k) {
    double worst = kPosInf;
    bool reachable = false;
    for (int t : {0, 1}) {
      if (res_.arr_[t][pb + k] == kNegInf) continue;
      reachable = true;
      worst = std::min(worst, required - res_.arr_[t][pb + k]);
    }
    ep_slack_[eb + k] = reachable ? worst : kPosInf;
  }
}

void StaEngine::compute_required(PinId p) {
  const auto pi = static_cast<std::size_t>(p);
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t pb = pi * K;
  // Gathered in place: the backward pass only reads strictly-higher
  // levels' required times, never a same-level pin's, so resetting our
  // own lanes before the gather is race-free at any pool size.
  double* req[2] = {res_.req_[0].data() + pb, res_.req_[1].data() + pb};
  for (int t : {0, 1}) std::fill_n(req[t], K, kPosInf);
  const int ei = ep_index_[pi];
  if (ei >= 0) {
    const double required = ep_required_[static_cast<std::size_t>(ei)];
    for (int t : {0, 1}) {
      const double* arrt = res_.arr_[t].data() + pb;
      for (std::size_t k = 0; k < K; ++k)
        if (arrt[k] != kNegInf) req[t][k] = std::min(req[t][k], required);
    }
  }
  const Pin& pp = nl_.pin(p);
  if (pp.dir == PinDir::Output) {
    // Gather through the net arcs: required at each sink minus its stored
    // net delay (same transition; wire delay is corner-shared).
    for (int s = succ_off_[pi]; s < succ_off_[pi + 1]; ++s) {
      const auto si =
          static_cast<std::size_t>(succ_[static_cast<std::size_t>(s)]);
      const double nd = net_arc_delay_[si];
      const double* reqs0 = res_.req_[0].data() + si * K;
      const double* reqs1 = res_.req_[1].data() + si * K;
      const double* reqs[2] = {reqs0, reqs1};
      for (int t : {0, 1}) {
        for (std::size_t k = 0; k < K; ++k) {
          if (reqs[t][k] == kPosInf) continue;
          req[t][k] = std::min(req[t][k], reqs[t][k] - nd);
        }
      }
    }
  } else if (data_comb(pp.cell)) {
    // Gather through this cell's arcs: required at each output minus the
    // stored forward arc delay (scaled by the lane's corner factor, the
    // exact delay the forward pass added), with the inverting transition
    // mapping. Arcs whose forward arrival was -inf keep their stored 0.0
    // delay — deliberately matching the original engine's backward pass.
    const tech::LibCell* lc = view_[static_cast<std::size_t>(pp.cell)].lc;
    const auto& arc = lc->arc(pp.index);
    const double* fac = factors(pp.cell);
    const auto ci = static_cast<std::size_t>(pp.cell);
    for (int s = cell_out_off_[ci]; s < cell_out_off_[ci + 1]; ++s) {
      const auto oi =
          static_cast<std::size_t>(cell_out_[static_cast<std::size_t>(s)]);
      const double* row = arc_val_.data() + arc_off_[oi];
      for (int t : {0, 1}) {
        const double dly = row[pp.index * 2 + t];
        const int in_t = arc.inverting ? opp(t) : t;
        const double* reqo = res_.req_[t].data() + oi * K;
        double* r = req[in_t];
        for (std::size_t k = 0; k < K; ++k) {
          if (reqo[k] == kPosInf) continue;
          r[k] = std::min(r[k], reqo[k] - dly * fac[k]);
        }
      }
    }
  }
}

void StaEngine::compute_port_latency() {
  // Virtual-clock latency for primary outputs: mean flop latency.
  port_latency_ = 0.0;
  if (opt_.compensate_port_latency && !opt_.ideal_clock) {
    double sum = 0.0;
    int count = 0;
    for (CellId c = 0; c < nl_.cell_count(); ++c) {
      const CellKind k = view_[static_cast<std::size_t>(c)].kind;
      if (k != CellKind::Seq && k != CellKind::Macro) continue;
      sum += d_.clock_latency(c);
      ++count;
    }
    if (count > 0) port_latency_ = sum / count;
  }
}

void StaEngine::run_level(std::size_t lv, bool forward) {
  const PinId* pins = level_pins_.data() + level_off_[lv];
  const int n = level_off_[lv + 1] - level_off_[lv];
  auto kernel = [&](int i) {
    const PinId p = pins[i];
    if (forward)
      compute_forward(p);
    else
      compute_required(p);
  };
  if (n < kParallelLevelMin || pool_.size() <= 1) {
    for (int i = 0; i < n; ++i) kernel(i);
  } else {
    pool_.parallel_for(0, n, kernel, kParallelGrain);
  }
}

void StaEngine::aggregate(bool after_retime) {
  const std::size_t K = static_cast<std::size_t>(K_);
  if (!after_retime) {
    eps_.clear();
    for (std::size_t i = 0; i < ep_pins_.size(); ++i)
      if (ep_slack_[i * K] != kPosInf)
        eps_.emplace_back(ep_slack_[i * K], ep_pins_[i]);
    std::sort(eps_.begin(), eps_.end());
  } else {
    // Drop the re-evaluated endpoints' old entries (every pin recomputed
    // in this retime is still marked queued), sort their new ones and
    // merge. (slack, pin) orders distinct pins totally, so the merge is
    // exactly the full sort.
    std::erase_if(eps_, [&](const std::pair<double, PinId>& e) {
      return fwd_queued_.marked(e.second);
    });
    fresh_eps_.clear();
    for (const PinId p : redo_eps_) {
      const double s = ep_slack_[static_cast<std::size_t>(
                                     ep_index_[static_cast<std::size_t>(p)]) *
                                 K];
      if (s != kPosInf) fresh_eps_.emplace_back(s, p);
    }
    std::sort(fresh_eps_.begin(), fresh_eps_.end());
    merged_eps_.clear();
    std::merge(eps_.begin(), eps_.end(), fresh_eps_.begin(), fresh_eps_.end(),
               std::back_inserter(merged_eps_));
    eps_.swap(merged_eps_);
  }
  res_.endpoints_.clear();
  res_.endpoint_slack_.clear();
  res_.wns_ = eps_.empty() ? 0.0 : eps_.front().first;
  res_.tns_ = 0.0;
  res_.violated_ = 0;
  for (const auto& [slack, pin] : eps_) {
    res_.endpoints_.push_back(pin);
    res_.endpoint_slack_.push_back(slack);
    if (slack < 0.0) {
      res_.tns_ += slack;
      ++res_.violated_;
    }
  }
  res_.whs_ = 0.0;
  res_.hold_violations_ = 0;
  if (opt_.hold_analysis) {
    double whs = kPosInf;
    bool any = false;
    for (std::size_t i = 0; i < ep_pins_.size(); ++i) {
      if (ep_hold_[i * K] == kPosInf) continue;
      any = true;
      whs = std::min(whs, ep_hold_[i * K]);
      if (ep_hold_[i * K] < 0.0) ++res_.hold_violations_;
    }
    res_.whs_ = any ? whs : 0.0;
  }

  // ---- per-corner aggregates ---------------------------------------------
  // Corner 0 mirrors the nominal wns_/tns_/violated_ bit for bit — copied
  // rather than re-summed, because tns_ accumulates in sorted-slack order
  // and a re-summation in endpoint order would only match to rounding.
  // Corners >= 1 are summed in endpoint order (no identity to preserve).
  res_.corner_wns_.assign(K, kPosInf);
  res_.corner_tns_.assign(K, 0.0);
  res_.corner_violated_.assign(K, 0);
  if (K_ > 1) {
    for (std::size_t i = 0; i < ep_pins_.size(); ++i) {
      const double* sl = ep_slack_.data() + i * K;
      for (std::size_t k = 1; k < K; ++k) {
        const double s = sl[k];
        if (s == kPosInf) continue;
        res_.corner_wns_[k] = std::min(res_.corner_wns_[k], s);
        if (s < 0.0) {
          res_.corner_tns_[k] += s;
          ++res_.corner_violated_[k];
        }
      }
    }
    for (std::size_t k = 1; k < K; ++k)
      if (res_.corner_wns_[k] == kPosInf) res_.corner_wns_[k] = 0.0;
  }
  res_.corner_wns_[0] = res_.wns_;
  res_.corner_tns_[0] = res_.tns_;
  res_.corner_violated_[0] = res_.violated_;
  if (K_ > 1 && util::trace_enabled())
    util::trace_counter("sta_timing_yield", res_.timing_yield());
}

const StaResult& StaEngine::run() {
  refresh_views();
  compute_port_latency();
  const bool tracing = util::trace_enabled();
  const std::size_t nlv = level_off_.size() - 1;
  // One span around the whole K-lane sweep: forward + endpoints +
  // backward cover all corners in this single pass.
  std::optional<util::TraceSpan> sweep;
  if (tracing && K_ > 1)
    sweep.emplace("sta_corner_sweep",
                  nl_.name() + " K=" + std::to_string(K_));
  auto level_detail = [&](const char* dir, std::size_t lv) {
    return std::string(dir) + std::to_string(lv) + " n=" +
           std::to_string(level_off_[lv + 1] - level_off_[lv]);
  };
  {
    util::TraceSpan span("sta_forward", nl_.name());
    for (std::size_t lv = 0; lv < nlv; ++lv) {
      if (tracing) {
        util::TraceSpan level_span("sta_level", level_detail("fwd L", lv));
        run_level(lv, /*forward=*/true);
      } else {
        run_level(lv, /*forward=*/true);
      }
    }
  }
  {
    // Endpoint constraints: one writer per endpoint.
    const int n = static_cast<int>(ep_pins_.size());
    auto kernel = [&](int i) { eval_endpoint(ep_pins_[static_cast<std::size_t>(i)]); };
    if (n < kParallelLevelMin || pool_.size() <= 1)
      for (int i = 0; i < n; ++i) kernel(i);
    else
      pool_.parallel_for(0, n, kernel, kParallelGrain);
  }
  {
    util::TraceSpan span("sta_backward", nl_.name());
    for (std::size_t lv = nlv; lv-- > 0;) {
      if (tracing) {
        util::TraceSpan level_span("sta_level", level_detail("bwd L", lv));
        run_level(lv, /*forward=*/false);
      } else {
        run_level(lv, /*forward=*/false);
      }
    }
  }
  aggregate(/*after_retime=*/false);
  has_run_ = true;
  return res_;
}

const StaResult& StaEngine::retime(const std::vector<CellId>& dirty) {
  M3D_CHECK_MSG(has_run_, "Sta::retime() requires a prior run()");
  util::TraceSpan span("sta_retime",
                       util::trace_enabled()
                           ? std::to_string(dirty.size()) + " dirty cells"
                           : std::string());
  for (auto* marks : {&cell_seen_, &net_seen_, &fwd_queued_, &bwd_queued_})
    marks->next_epoch();
  std::fill(fwd_cnt_.begin(), fwd_cnt_.end(), 0);
  std::fill(bwd_cnt_.begin(), bwd_cnt_.end(), 0);
  redo_eps_.clear();

  // ---- seed: pins whose *computation* changed ----------------------------
  // A tier move or drive change of cell c changes: c's own pins (lib
  // tables, pin caps, setup/hold, derates), the driver and every sink of
  // each incident net (loads, re-estimated routes, per-sink crossing
  // flags), and — because the boundary derate at a sink's input feeds its
  // cell's output arcs — the output pins of every sink's combinational
  // cell. The dirty cells' library views are refreshed here, before any
  // pin is recomputed.
  auto seed = [&](PinId p) {
    const auto pi = static_cast<std::size_t>(p);
    if (!part_[pi] || fwd_queued_.marked(p)) return;
    fwd_queued_.mark(p);
    const auto lv = static_cast<std::size_t>(level_[pi]);
    fwd_wl_[static_cast<std::size_t>(level_off_[lv] + fwd_cnt_[lv]++)] = p;
  };
  for (CellId c : dirty) {
    if (cell_seen_.marked(c)) continue;
    cell_seen_.mark(c);
    refresh_view(c);
    for (PinId p : nl_.pins_of(c)) {
      seed(p);
      const NetId n = nl_.pin(p).net;
      if (n == kInvalidId || nl_.net_is_clock(n)) continue;
      if (net_seen_.marked(n)) continue;
      net_seen_.mark(n);
      const PinId drv = nl_.net_driver(n);
      if (drv != kInvalidId) seed(drv);
      nl_.for_each_sink(n, [&](PinId s) {
        seed(s);
        const CellId sc = nl_.pin(s).cell;
        if (!data_comb(sc)) return;
        const auto sci = static_cast<std::size_t>(sc);
        for (int k = cell_out_off_[sci]; k < cell_out_off_[sci + 1]; ++k)
          seed(cell_out_[static_cast<std::size_t>(k)]);
      });
    }
  }

  // ---- forward worklist by ascending level -------------------------------
  auto bwd_seed = [&](PinId p) {
    const auto pi = static_cast<std::size_t>(p);
    if (!part_[pi] || bwd_queued_.marked(p)) return;
    bwd_queued_.mark(p);
    const auto lv = static_cast<std::size_t>(level_[pi]);
    bwd_wl_[static_cast<std::size_t>(level_off_[lv] + bwd_cnt_[lv]++)] = p;
  };
  // Lane-aware old-value capture into slot `slot`: a pin's forward state
  // is 4 corner-lane blocks (arr rise/fall, arr_min rise/fall) plus the
  // two corner-shared slews and the stored net-arc delay, and a kCombOut
  // pin's stored arc row. Change detection stays bitwise over every lane,
  // so retime() remains bit-identical to run() for any K.
  const std::size_t K = static_cast<std::size_t>(K_);
  const std::size_t fw = fwd_words();
  auto capture_and_compute = [&](PinId p, std::size_t slot) {
    const auto pi = static_cast<std::size_t>(p);
    const std::size_t pb = pi * K;
    double* dst = old_fwd_.data() + slot * fw;
    for (int t : {0, 1}) {
      std::copy_n(res_.arr_[t].data() + pb, K, dst);
      dst += K;
    }
    for (int t : {0, 1}) {
      std::copy_n(arr_min_[t].data() + pb, K, dst);
      dst += K;
    }
    dst[0] = res_.slew_[0][pi];
    dst[1] = res_.slew_[1][pi];
    dst[2] = net_arc_delay_[pi];
    std::copy(arc_val_.begin() + arc_off_[pi], arc_val_.begin() + arc_off_[pi + 1],
              old_arcs_.begin() + static_cast<std::ptrdiff_t>(slot * max_row_));
    compute_forward(p);
  };
  // Serial, in sorted bucket order: the bitwise compares and worklist
  // seeding, so propagation decisions are the same at any pool size.
  int recomputed = 0;
  auto settle_forward = [&](PinId p, std::size_t slot) {
    const auto pi = static_cast<std::size_t>(p);
    const std::size_t pb = pi * K;
    ++recomputed;
    const double* o = old_fwd_.data() + slot * fw;
    // Successors read arr/arr_min/slew; a bitwise compare over the lanes
    // decides whether the change propagates.
    const bool fwd_changed =
        !std::equal(o, o + K, res_.arr_[0].data() + pb) ||
        !std::equal(o + K, o + 2 * K, res_.arr_[1].data() + pb) ||
        !std::equal(o + 2 * K, o + 3 * K, arr_min_[0].data() + pb) ||
        !std::equal(o + 3 * K, o + 4 * K, arr_min_[1].data() + pb) ||
        o[4 * K] != res_.slew_[0][pi] || o[4 * K + 1] != res_.slew_[1][pi];
    if (fwd_changed)
      for (int k = succ_off_[pi]; k < succ_off_[pi + 1]; ++k)
        seed(succ_[static_cast<std::size_t>(k)]);
    // The backward pass additionally reads the stored arc delays, which
    // can change even when the forward values do not (a non-winning arc
    // got faster): re-gather the predecessors' required times then.
    const bool arcs_changed =
        (role_[pi] == Role::kNetSink && o[fw - 1] != net_arc_delay_[pi]) ||
        !std::equal(arc_val_.begin() + arc_off_[pi],
                    arc_val_.begin() + arc_off_[pi + 1],
                    old_arcs_.begin() + static_cast<std::ptrdiff_t>(slot * max_row_));
    if (fwd_changed || arcs_changed) {
      bwd_seed(p);
      for (int k = preds_off_[pi]; k < preds_off_[pi + 1]; ++k)
        bwd_seed(preds_[static_cast<std::size_t>(k)]);
    }
    if (ep_index_[pi] >= 0) redo_eps_.push_back(p);
  };
  const bool par_retime = pool_.size() > 1;
  const std::size_t nlv = level_off_.size() - 1;
  // A level's pins are independent (the invariant run_level() exploits),
  // so a large bucket — ECO move batches dirty thousands of cones at once
  // — is captured and recomputed in parallel, one slot per pin, before the
  // serial settle.
  for (std::size_t lv = 0; lv < nlv; ++lv) {
    const int bn = fwd_cnt_[lv];
    if (bn == 0) continue;
    PinId* bucket = fwd_wl_.data() + level_off_[lv];
    std::sort(bucket, bucket + bn);
    if (par_retime && bn >= kParallelLevelMin) {
      pool_.parallel_for(
          0, bn,
          [&](int i) {
            capture_and_compute(bucket[i], static_cast<std::size_t>(i));
          },
          kParallelGrain);
      for (int i = 0; i < bn; ++i)
        settle_forward(bucket[i], static_cast<std::size_t>(i));
    } else {
      for (int i = 0; i < bn; ++i) {
        capture_and_compute(bucket[i], 0);
        settle_forward(bucket[i], 0);
      }
    }
  }

  // ---- endpoint constraints ----------------------------------------------
  for (const PinId p : redo_eps_) {
    eval_endpoint(p);
    bwd_seed(p);  // required time may have changed (setup remap)
  }

  // ---- backward worklist by descending level -----------------------------
  auto capture_and_require = [&](PinId p, std::size_t slot) {
    const std::size_t pb = static_cast<std::size_t>(p) * K;
    double* dst = old_req_.data() + slot * 2 * K;
    std::copy_n(res_.req_[0].data() + pb, K, dst);
    std::copy_n(res_.req_[1].data() + pb, K, dst + K);
    compute_required(p);
  };
  auto settle_backward = [&](PinId p, std::size_t slot) {
    const auto pi = static_cast<std::size_t>(p);
    const std::size_t pb = pi * K;
    const double* o = old_req_.data() + slot * 2 * K;
    if (!std::equal(o, o + K, res_.req_[0].data() + pb) ||
        !std::equal(o + K, o + 2 * K, res_.req_[1].data() + pb))
      for (int k = preds_off_[pi]; k < preds_off_[pi + 1]; ++k)
        bwd_seed(preds_[static_cast<std::size_t>(k)]);
  };
  for (std::size_t lv = nlv; lv-- > 0;) {
    const int bn = bwd_cnt_[lv];
    if (bn == 0) continue;
    PinId* bucket = bwd_wl_.data() + level_off_[lv];
    std::sort(bucket, bucket + bn);
    if (par_retime && bn >= kParallelLevelMin) {
      pool_.parallel_for(
          0, bn,
          [&](int i) {
            capture_and_require(bucket[i], static_cast<std::size_t>(i));
          },
          kParallelGrain);
      for (int i = 0; i < bn; ++i)
        settle_backward(bucket[i], static_cast<std::size_t>(i));
    } else {
      for (int i = 0; i < bn; ++i) {
        capture_and_require(bucket[i], 0);
        settle_backward(bucket[i], 0);
      }
    }
  }

  if (util::trace_enabled())
    util::trace_counter("sta_retime_pins", static_cast<double>(recomputed));
  aggregate(/*after_retime=*/true);
  return res_;
}

}  // namespace detail

Sta::Sta(const Design& d, const route::RoutingEstimate* routes,
         const StaOptions& opt)
    : eng_(std::make_unique<detail::StaEngine>(d, routes, opt)) {}
Sta::~Sta() = default;
Sta::Sta(Sta&&) noexcept = default;
Sta& Sta::operator=(Sta&&) noexcept = default;

const StaResult& Sta::run() { return eng_->run(); }

const StaResult& Sta::retime(const std::vector<CellId>& dirty_cells) {
  return eng_->retime(dirty_cells);
}

const StaResult& Sta::result() const { return eng_->result(); }

StaResult run_sta(const Design& d, const route::RoutingEstimate* routes,
                  const StaOptions& opt) {
  detail::StaEngine eng(d, routes, opt);
  eng.run();
  return eng.take_result();
}

double StaResult::pin_slack(PinId p) const {
  // Lane 0: the nominal corner (the only lane of a scalar run).
  const auto pi =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(lanes_);
  double worst = kInf;
  for (int t : {0, 1}) {
    if (arr_[t][pi] == kNegInf || req_[t][pi] == kInf) continue;
    worst = std::min(worst, req_[t][pi] - arr_[t][pi]);
  }
  return worst;
}

double StaResult::pin_arrival(PinId p) const {
  const auto pi =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(lanes_);
  double worst = kNegInf;
  for (int t : {0, 1}) worst = std::max(worst, arr_[t][pi]);
  return worst;
}

double StaResult::pin_required(PinId p) const {
  const auto pi =
      static_cast<std::size_t>(p) * static_cast<std::size_t>(lanes_);
  return std::min(req_[0][pi], req_[1][pi]);
}

double StaResult::pin_slew(PinId p) const {
  // Slews are corner-shared (delay-only derating): plain per-pin index.
  const auto pi = static_cast<std::size_t>(p);
  return std::max(slew_[0][pi], slew_[1][pi]);
}

double StaResult::guard_wns() const {
  if (corners_ <= 1 || corner_wns_.empty()) return wns_;
  return *std::min_element(corner_wns_.begin(), corner_wns_.end());
}

double StaResult::guard_tns() const {
  if (corners_ <= 1 || corner_tns_.empty()) return tns_;
  return *std::min_element(corner_tns_.begin(), corner_tns_.end());
}

double StaResult::timing_yield(double min_wns_ns) const {
  if (corner_wns_.empty()) return wns_ >= min_wns_ns ? 1.0 : 0.0;
  int met = 0;
  for (const double w : corner_wns_)
    if (w >= min_wns_ns) ++met;
  return static_cast<double>(met) /
         static_cast<double>(corner_wns_.size());
}

double StaResult::cell_slack(CellId c) const {
  double worst = kInf;
  for (PinId p : design_->nl().cell(c).pins)
    worst = std::min(worst, pin_slack(p));
  return worst;
}

CriticalPath StaResult::trace_path(PinId endpoint) const {
  CriticalPath path;
  path.endpoint = endpoint;
  const auto& nl = design_->nl();
  const auto ei = static_cast<std::size_t>(endpoint);
  // Lane 0 of the stride-K arrays: paths are traced at the nominal corner.
  const auto eb = ei * static_cast<std::size_t>(lanes_);

  // Worst transition at the endpoint.
  int t = 0;
  double worst = kInf;
  for (int tt : {0, 1}) {
    if (arr_[tt][eb] == kNegInf || req_[tt][eb] == kInf) continue;
    const double s = req_[tt][eb] - arr_[tt][eb];
    if (s < worst) {
      worst = s;
      t = tt;
    }
  }
  path.slack_ns = worst;
  path.setup_ns = setup_at_endpoint_[ei];

  // Walk the predecessor chain back to the launch pin.
  struct Hop {
    PinId pin;
    int trans;
  };
  std::vector<Hop> hops;
  PinId cur = endpoint;
  int ct = t;
  while (cur != netlist::kInvalidId) {
    hops.push_back({cur, ct});
    const auto& pr = pred_[ct][static_cast<std::size_t>(cur)];
    if (pr.from == netlist::kInvalidId) break;
    const PinId nxt = pr.from;
    ct = pr.from_trans;
    cur = nxt;
  }
  std::reverse(hops.begin(), hops.end());
  if (hops.empty()) return path;

  // Launch info.
  const PinId launch_pin = hops.front().pin;
  const CellId launch_cell = nl.pin(launch_pin).cell;
  path.launch_latency_ns = design_->clock_latency(launch_cell);
  const CellId end_cell = nl.pin(endpoint).cell;
  path.capture_latency_ns =
      nl.cell(end_cell).is_port() ? 0.0 : design_->clock_latency(end_cell);
  path.clock_skew_ns = path.capture_latency_ns - path.launch_latency_ns;

  // Launch stage (FF CLK→Q or macro access or PI).
  {
    PathStage st;
    st.cell = launch_cell;
    st.out_pin = launch_pin;
    st.tier = design_->tier(launch_cell);
    st.cell_delay_ns = arr_[hops.front().trans][static_cast<std::size_t>(
                           launch_pin) *
                           static_cast<std::size_t>(lanes_)] -
                       path.launch_latency_ns;
    path.stages.push_back(st);
  }

  // Remaining hops come in (net-arc → input pin), (cell-arc → output pin)
  // pairs; fold each pair into one stage on the traversed cell.
  for (std::size_t i = 1; i < hops.size(); ++i) {
    const auto& pr = pred_[hops[i].trans][static_cast<std::size_t>(
        hops[i].pin)];
    if (pr.is_net_arc) {
      PathStage st;
      st.cell = nl.pin(hops[i].pin).cell;
      st.in_pin = hops[i].pin;
      st.wire_delay_ns = pr.delay;
      st.wire_length_um = pr.wire_len;
      st.entered_through_miv = pr.via_miv;
      st.tier = design_->tier(st.cell);
      path.stages.push_back(st);
    } else {
      M3D_CHECK(!path.stages.empty());
      PathStage& st = path.stages.back();
      st.out_pin = hops[i].pin;
      st.cell_delay_ns = pr.delay;
    }
  }

  for (const auto& st : path.stages) {
    path.cell_delay_ns += st.cell_delay_ns;
    path.wire_delay_ns += st.wire_delay_ns;
    path.wirelength_um += st.wire_length_um;
    if (st.entered_through_miv) ++path.miv_count;
    const int tier = st.tier == netlist::kTopTier ? 1 : 0;
    ++path.cells_on_tier[tier];
    path.delay_on_tier[tier] += st.cell_delay_ns + st.wire_delay_ns;
  }
  path.path_delay_ns =
      arr_[t][eb] - path.launch_latency_ns;
  return path;
}

CriticalPath StaResult::critical_path() const {
  M3D_CHECK_MSG(!endpoints_.empty(), "no constrained endpoints");
  return trace_path(endpoints_.front());
}

std::vector<CriticalPath> StaResult::worst_paths(int n) const {
  std::vector<CriticalPath> out;
  const int count = std::min<int>(n, static_cast<int>(endpoints_.size()));
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    out.push_back(trace_path(endpoints_[static_cast<std::size_t>(i)]));
  return out;
}

std::uint64_t timing_fingerprint(const StaResult& r) {
  // FNV-style accumulator with a splitmix64 round per word (the same
  // mixing the flow-cache keys use); exact double bits, no tolerance.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    std::uint64_t z = h ^ v;
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    h = z ^ (z >> 31);
  };
  mix(std::bit_cast<std::uint64_t>(r.wns()));
  mix(std::bit_cast<std::uint64_t>(r.tns()));
  mix(std::bit_cast<std::uint64_t>(r.whs()));
  mix(static_cast<std::uint64_t>(r.endpoint_count()));
  for (const PinId p : r.endpoints_by_slack()) {
    mix(static_cast<std::uint64_t>(p));
    mix(std::bit_cast<std::uint64_t>(r.pin_slack(p)));
  }
  // Multi-corner results additionally pin down every lane's aggregate —
  // guard-banded ECO decisions depend on the non-nominal corners, so two
  // interchangeable timing views must agree on them too. Single-corner
  // digests are untouched for checkpoint compatibility.
  if (r.corner_count() > 1) {
    mix(static_cast<std::uint64_t>(r.corner_count()));
    for (int k = 0; k < r.corner_count(); ++k) {
      mix(std::bit_cast<std::uint64_t>(r.corner_wns(k)));
      mix(std::bit_cast<std::uint64_t>(r.corner_tns(k)));
    }
  }
  return h;
}

}  // namespace m3d::sta
