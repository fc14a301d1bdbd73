/**
 * @file
 * ArrivalStream: the one open-loop Poisson candidate recipe. Stream `s`
 * of run `seed` draws from Rng(seed * 7919 + s + 1), waits are
 * exponential at the (peak) rate in candidates per cycle, and each
 * candidate lands `Tick(wait) + 1` after the previous one, from tick 0.
 * Each accelerator service draws its own stream; the cluster router
 * draws stream 0, so a replica fed the router's ticks sees exactly the
 * candidates a single accelerator would have drawn.
 */

#ifndef EQUINOX_SIM_ARRIVAL_STREAM_HH
#define EQUINOX_SIM_ARRIVAL_STREAM_HH

#include <cstdint>

#include "common/random.hh"
#include "common/types.hh"

namespace equinox
{
namespace sim
{

/** Seeded candidate ticks of one Poisson arrival stream. */
class ArrivalStream
{
  public:
    ArrivalStream() = default;
    ArrivalStream(std::uint64_t seed, std::uint64_t stream,
                  double rate_per_cycle)
        : rng_(seed * 7919 + stream + 1), rate_(rate_per_cycle)
    {
    }

    /** False for a zero-rate stream, which draws no candidates. */
    bool active() const { return rate_ > 0.0; }

    /** Draw the next candidate tick (strictly after the last one). */
    Tick
    next()
    {
        t_ += static_cast<Tick>(rng_.exponential(rate_)) + 1;
        return t_;
    }

    /** A uniform [0, 1) draw from the same Rng (thinning acceptance). */
    double uniform() { return rng_.uniform(); }

  private:
    Rng rng_{1};
    double rate_ = 0.0;
    Tick t_ = 0;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_ARRIVAL_STREAM_HH
