#include "cluster/router.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sim/arrival_stream.hh"

namespace equinox
{
namespace cluster
{

std::vector<Tick>
generateCandidateTicks(double rate_per_cycle, std::uint64_t seed,
                       Tick max_ticks,
                       const std::vector<RouterSurge> &surges)
{
    std::vector<Tick> ticks;
    if (rate_per_cycle <= 0.0)
        return ticks;

    // Flash crowds: draw at the peak rate and thin each candidate
    // against the instantaneous rate (Lewis-Shedler thinning), so the
    // accepted stream runs `factor` times denser inside each surge
    // window and at the base rate outside. The acceptance draws come
    // from the stream's own Rng, and only when surges exist, so the
    // stream is a pure function of (rate, seed, surges) and without
    // surges it is exactly service 0's accelerator stream.
    double peak_factor = 1.0;
    for (const auto &s : surges) {
        EQX_ASSERT(s.factor >= 1.0, "surge factor must be >= 1");
        peak_factor = std::max(peak_factor, s.factor);
    }
    auto factor_at = [&surges](Tick t) {
        double factor = 1.0;
        for (const auto &s : surges) {
            if (t >= s.from && t < s.to)
                factor = std::max(factor, s.factor);
        }
        return factor;
    };
    sim::ArrivalStream stream(seed, 0, rate_per_cycle * peak_factor);
    while (true) {
        Tick t = stream.next();
        if (t > max_ticks) {
            // Include the first candidate beyond the horizon, always
            // accepted: the replica event loop dispatches one event
            // past max_ticks, so every trace must cover it.
            ticks.push_back(t);
            break;
        }
        if (surges.empty() ||
            stream.uniform() * peak_factor < factor_at(t))
            ticks.push_back(t);
    }
    return ticks;
}

} // namespace cluster
} // namespace equinox
