/**
 * @file
 * Exact percentiles over the last N samples of a stream.
 *
 * The routing tier updates a p99 over a short sliding window on every
 * routed request (latency-aware ranking, breaker latency trips,
 * hedging thresholds, the autoscaler's feedback), so the window is
 * kept sorted incrementally: sorting a copy per update would cost
 * O(N log N) per request.
 */

#ifndef EQUINOX_STATS_SLIDING_WINDOW_HH
#define EQUINOX_STATS_SLIDING_WINDOW_HH

#include <cstddef>
#include <vector>

namespace equinox
{
namespace stats
{

/**
 * The last `window` samples of a stream, held twice: as a FIFO ring
 * (arrival order, to know which sample leaves next) and as an
 * ascending vector (for order statistics). push() moves the entries
 * between the evicted sample's slot and the new sample's slot by one
 * -- an O(window) memmove, no sort and no allocation after
 * construction. percentile() runs stats::exactPercentileSorted on the
 * sorted side, so it is bitwise equal to LatencyTracker::percentile
 * over the same samples by construction.
 */
class SlidingWindow
{
  public:
    /** @param window samples kept (>= 1) */
    explicit SlidingWindow(std::size_t window);

    /**
     * Append @p sample, evicting the oldest once the window is full.
     * NaN is rejected with an assertion: it has no place in the
     * sorted order the binary searches rely on.
     */
    void push(double sample);

    /** Samples currently held (at most the window length). */
    std::size_t size() const { return sorted_.size(); }

    /** The most recently pushed sample; 0 when empty. */
    double newest() const;

    /**
     * Exact p-quantile of the held samples, the interpolation
     * LatencyTracker::percentile defines; 0 when empty.
     * @param p in [0, 1]; e.g. 0.99 for the 99th percentile.
     */
    double percentile(double p) const;

  private:
    std::vector<double> ring_;   //!< arrival order, capacity slots
    std::size_t next_ = 0;       //!< ring slot the next push writes
    std::vector<double> sorted_; //!< the held samples, ascending
};

} // namespace stats
} // namespace equinox

#endif // EQUINOX_STATS_SLIDING_WINDOW_HH
