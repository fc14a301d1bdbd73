/**
 * @file
 * SimBlock: the interface every simulation block implements.
 *
 * A block is one hardware unit of the Figure 3 organisation (request
 * dispatcher, instruction dispatcher, MMU/SIMD datapath, training
 * prefetcher, fault/recovery unit). Blocks share the SimContext, talk
 * to each other through the typed ports wired by the composition root,
 * and participate in two framework seams:
 *
 *  - resetRun(): clear all per-run dynamic state; must not schedule
 *    events or draw randomness (run() re-seeds and re-schedules in a
 *    fixed order afterwards);
 *  - beginMeasurement(): drop measured-window accumulators when the
 *    warmup ends (again side-effect free w.r.t. simulated behaviour);
 *
 * plus the emit() helper that reports block events to the optional
 * TraceSink (a no-op null check when tracing is off).
 */

#ifndef EQUINOX_SIM_BLOCKS_SIM_BLOCK_HH
#define EQUINOX_SIM_BLOCKS_SIM_BLOCK_HH

#include <cstdint>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/blocks/context.hh"
#include "sim/blocks/trace.hh"

namespace equinox
{
namespace sim
{

/** Base class of every simulation block. */
class SimBlock
{
  public:
    SimBlock(SimContext &context, const char *block_name);
    virtual ~SimBlock();

    SimBlock(const SimBlock &) = delete;
    SimBlock &operator=(const SimBlock &) = delete;

    /** Stable block name, e.g. "request_dispatcher". */
    const char *name() const { return name_; }

    /** Clear all per-run dynamic state (start of Accelerator::run). */
    virtual void resetRun() = 0;

    /** Drop measured-window accumulators (warmup just ended). */
    virtual void beginMeasurement() {}

  protected:
    /**
     * Report a block event to the trace sink, if one is installed.
     * Sink-off is the zero-cost default: the guard inlines to one
     * predicted-not-taken branch on the hot retire/issue paths, and
     * everything that builds the TraceEvent stays outlined in
     * emitSlow().
     */
    void
    emit(TraceEventType type, ContextId svc = 0, std::uint64_t a = 0,
         std::uint64_t b = 0) const
    {
        if (EQX_LIKELY(ctx.trace == nullptr))
            return;
        emitSlow(type, svc, a, b);
    }

    SimContext &ctx;

  private:
    void emitSlow(TraceEventType type, ContextId svc, std::uint64_t a,
                  std::uint64_t b) const;

    const char *name_;
};

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_SIM_BLOCK_HH
