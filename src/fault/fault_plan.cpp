#include "fault/fault_plan.h"

#include <sstream>

namespace adc::fault {

bool FaultPlan::is_zero() const noexcept {
  return drop_prob <= 0.0 && dup_prob <= 0.0 && extra_delay_prob <= 0.0 &&
         partitions.empty() && crashes.empty();
}

std::string FaultPlan::describe() const {
  if (is_zero()) return "no faults";
  std::ostringstream out;
  if (drop_prob > 0.0) out << "drop=" << drop_prob << " ";
  if (dup_prob > 0.0) out << "dup=" << dup_prob << " ";
  if (extra_delay_prob > 0.0) {
    out << "delay=" << extra_delay_prob << "x~Exp(" << extra_delay_mean << ") ";
  }
  if (!partitions.empty()) out << "partitions=" << partitions.size() << " ";
  if (!crashes.empty()) out << "crashes=" << crashes.size() << " ";
  out << "seed=" << seed;
  return out.str();
}

}  // namespace adc::fault
