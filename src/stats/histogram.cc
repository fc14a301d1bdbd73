#include "stats/histogram.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace equinox
{
namespace stats
{

void
LatencyTracker::record(double sample)
{
    if (std::isnan(sample)) {
        // One poisoned measurement must not corrupt every percentile:
        // NaN breaks the strict weak ordering std::sort requires and
        // propagates through the running sum.
        ++nan_rejected;
        return;
    }
    samples.push_back(sample);
    sum += sample;
    sorted = false;
}

double
LatencyTracker::mean() const
{
    if (samples.empty())
        return 0.0;
    return sum / static_cast<double>(samples.size());
}

void
LatencyTracker::ensureSorted() const
{
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
}

double
LatencyTracker::min() const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    return samples.front();
}

double
LatencyTracker::max() const
{
    if (samples.empty())
        return 0.0;
    ensureSorted();
    return samples.back();
}

double
exactPercentileSorted(const std::vector<double> &sorted, double p)
{
    EQX_ASSERT(p >= 0.0 && p <= 1.0, "quantile out of range: ", p);
    EQX_ASSERT(!sorted.empty(), "percentile of an empty sample set");
    if (sorted.size() == 1)
        return sorted.front();

    double rank = p * static_cast<double>(sorted.size() - 1);
    auto lo_idx = static_cast<std::size_t>(rank);
    double frac = rank - static_cast<double>(lo_idx);
    if (frac == 0.0 || lo_idx + 1 >= sorted.size()) {
        // Exact-rank queries return the order statistic itself: mixing
        // in the neighbour with weight 0 would turn an infinite
        // neighbour into 0 * inf = NaN.
        return sorted[lo_idx];
    }
    return sorted[lo_idx] * (1.0 - frac) + sorted[lo_idx + 1] * frac;
}

double
LatencyTracker::percentile(double p) const
{
    if (samples.empty()) {
        EQX_ASSERT(p >= 0.0 && p <= 1.0, "quantile out of range: ", p);
        return 0.0;
    }
    ensureSorted();
    return exactPercentileSorted(samples, p);
}

void
LatencyTracker::merge(const LatencyTracker &other)
{
    // Self-merge would otherwise read the vector being appended to
    // (iterators invalidate on reallocation): duplicate via a copy.
    if (&other == this) {
        std::vector<double> copy = samples;
        samples.insert(samples.end(), copy.begin(), copy.end());
        sum += sum;
        nan_rejected += nan_rejected;
        if (!copy.empty())
            sorted = false;
        return;
    }
    samples.insert(samples.end(), other.samples.begin(),
                   other.samples.end());
    sum += other.sum;
    nan_rejected += other.nan_rejected;
    if (!other.samples.empty())
        sorted = false;
}

void
LatencyTracker::reset()
{
    samples.clear();
    sorted = true;
    sum = 0.0;
    nan_rejected = 0;
}

} // namespace stats
} // namespace equinox
