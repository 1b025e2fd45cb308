#pragma once
/// \file nldm.hpp
/// \brief Non-linear delay model (NLDM) lookup table.
///
/// Mirrors the Liberty NLDM format: a 2-D table indexed by input slew and
/// output load, bilinearly interpolated, linearly extrapolated at the edges
/// (clamped extrapolation would hide out-of-range characterization, which
/// the paper's boundary-cell discussion explicitly cares about, so we track
/// the characterized range and expose an in_range() query).

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.hpp"

namespace m3d::tech {

/// 2-D lookup table: rows indexed by input slew (ns), columns by output
/// load (fF). Values are delay or output slew in ns.
class NldmTable {
 public:
  NldmTable() = default;

  /// Construct from axes and a row-major value matrix.
  /// Axes must be strictly increasing; values.size() == slews.size() *
  /// loads.size().
  NldmTable(std::vector<double> slew_axis, std::vector<double> load_axis,
            std::vector<double> values);

  /// Bilinear interpolation with linear extrapolation outside the axes.
  /// Inline: the timing engine calls it for every arc of every pass.
  double lookup(double slew_ns, double load_ff) const {
    M3D_CHECK(!values_.empty());
    const std::size_t ns = slew_axis_.size();
    const std::size_t nl = load_axis_.size();
    if (ns == 1 && nl == 1) return values_[0];

    const std::size_t i = segment(slew_axis_, slew_ns);
    const std::size_t j = segment(load_axis_, load_ff);
    const double fs = ns < 2 ? 0.0 : frac(slew_axis_, i, slew_ns);
    const double fl = nl < 2 ? 0.0 : frac(load_axis_, j, load_ff);

    if (ns < 2) {
      const double a = at(0, j);
      const double b = at(0, std::min(j + 1, nl - 1));
      return a + (b - a) * fl;
    }
    if (nl < 2) {
      const double a = at(i, 0);
      const double b = at(std::min(i + 1, ns - 1), 0);
      return a + (b - a) * fs;
    }

    const double v00 = at(i, j);
    const double v01 = at(i, j + 1);
    const double v10 = at(i + 1, j);
    const double v11 = at(i + 1, j + 1);
    const double lo = v00 + (v01 - v00) * fl;
    const double hi = v10 + (v11 - v10) * fl;
    return lo + (hi - lo) * fs;
  }

  /// True when the query point lies inside the characterized box.
  bool in_range(double slew_ns, double load_ff) const;

  bool empty() const { return values_.empty(); }
  const std::vector<double>& slew_axis() const { return slew_axis_; }
  const std::vector<double>& load_axis() const { return load_axis_; }
  /// Row-major value matrix: [slew][load].
  const std::vector<double>& values() const { return values_; }

  /// Scale every table value by a constant (used for derating).
  void scale(double k);

 private:
  std::vector<double> slew_axis_;
  std::vector<double> load_axis_;
  std::vector<double> values_;  // row-major: [slew][load]

  double at(std::size_t i, std::size_t j) const {
    return values_[i * load_axis_.size() + j];
  }

  /// Interpolation segment of x on a strictly increasing axis: i such that
  /// axis[i] and axis[i+1] bracket x, clamped to the end segments so
  /// extrapolation uses the edge slope. A linear scan (the axes have 7-9
  /// points) that returns exactly clamp(upper_bound(x), 1, n-1) - 1 for
  /// every x: no comparison with NaN is true, so NaN takes the last
  /// segment, as upper_bound's end() does.
  static std::size_t segment(const std::vector<double>& axis, double x) {
    const std::size_t n = axis.size();
    if (n < 2) return 0;
    std::size_t hi = 1;
    while (hi < n - 1 && !(x < axis[hi])) ++hi;
    return hi - 1;
  }

  static double frac(const std::vector<double>& axis, std::size_t i,
                     double x) {
    const double lo = axis[i];
    const double hi = axis[i + 1];
    return (x - lo) / (hi - lo);
  }
};

}  // namespace m3d::tech
