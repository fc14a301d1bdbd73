#include "stats/sliding_window.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "stats/histogram.hh"

namespace equinox
{
namespace stats
{

SlidingWindow::SlidingWindow(std::size_t window) : ring_(window)
{
    EQX_ASSERT(window > 0, "sliding window needs a nonzero length");
    sorted_.reserve(window);
}

void
SlidingWindow::push(double sample)
{
    EQX_ASSERT(!std::isnan(sample),
               "NaN pushed into a sliding window: it has no sorted "
               "position");
    auto ins = std::upper_bound(sorted_.begin(), sorted_.end(), sample);
    if (sorted_.size() < ring_.size()) {
        sorted_.insert(ins, sample); // within the reserved capacity
    } else {
        // Evict the oldest sample. Equal values are interchangeable in
        // an order statistic, so the first entry equal to it will do.
        // Only the entries between the two slots move, by one place.
        auto out = std::lower_bound(sorted_.begin(), sorted_.end(),
                                    ring_[next_]);
        if (out < ins) {
            std::move(out + 1, ins, out);
            *(ins - 1) = sample;
        } else {
            std::move_backward(ins, out, out + 1);
            *ins = sample;
        }
    }
    ring_[next_] = sample;
    next_ = next_ + 1 == ring_.size() ? 0 : next_ + 1;
}

double
SlidingWindow::newest() const
{
    if (sorted_.empty())
        return 0.0;
    return ring_[next_ == 0 ? ring_.size() - 1 : next_ - 1];
}

double
SlidingWindow::percentile(double p) const
{
    if (sorted_.empty()) {
        EQX_ASSERT(p >= 0.0 && p <= 1.0, "quantile out of range: ", p);
        return 0.0;
    }
    return exactPercentileSorted(sorted_, p);
}

} // namespace stats
} // namespace equinox
