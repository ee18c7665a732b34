#include "src/core/detector_state.h"

#include <mutex>

namespace fbdetect {

SeriesVerdict& DetectorStateStore::VerdictFor(const InternedMetricId& id) {
  Stripe& stripe = stripes_[InternedMetricIdHash{}(id) % kStripes];
  {
    std::shared_lock lock(stripe.mutex);
    const auto it = stripe.verdicts.find(id);
    if (it != stripe.verdicts.end()) {
      return it->second;
    }
  }
  std::unique_lock lock(stripe.mutex);
  return stripe.verdicts[id];
}

}  // namespace fbdetect
