#include "tech/nldm.hpp"

#include <utility>

namespace m3d::tech {

NldmTable::NldmTable(std::vector<double> slew_axis,
                     std::vector<double> load_axis,
                     std::vector<double> values)
    : slew_axis_(std::move(slew_axis)),
      load_axis_(std::move(load_axis)),
      values_(std::move(values)) {
  M3D_CHECK(!slew_axis_.empty() && !load_axis_.empty());
  M3D_CHECK(values_.size() == slew_axis_.size() * load_axis_.size());
  for (std::size_t i = 1; i < slew_axis_.size(); ++i)
    M3D_CHECK(slew_axis_[i] > slew_axis_[i - 1]);
  for (std::size_t j = 1; j < load_axis_.size(); ++j)
    M3D_CHECK(load_axis_[j] > load_axis_[j - 1]);
}

bool NldmTable::in_range(double slew_ns, double load_ff) const {
  if (values_.empty()) return false;
  return slew_ns >= slew_axis_.front() && slew_ns <= slew_axis_.back() &&
         load_ff >= load_axis_.front() && load_ff <= load_axis_.back();
}

void NldmTable::scale(double k) {
  for (double& v : values_) v *= k;
}

}  // namespace m3d::tech
