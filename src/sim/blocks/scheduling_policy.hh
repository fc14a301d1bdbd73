/**
 * @file
 * The execution-unit scheduling regimes (Figure 5, section 3.2).
 *
 * Each decision round the instruction dispatcher fills a SchedulerView
 * with plain values and asks decide() which service classes the
 * configured SchedPolicy lets issue. The dispatcher keeps the
 * round-robin alternation and the actual issue; decide() only vetoes.
 */

#ifndef EQUINOX_SIM_BLOCKS_SCHEDULING_POLICY_HH
#define EQUINOX_SIM_BLOCKS_SCHEDULING_POLICY_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "sim/config.hh"

namespace equinox
{
namespace sim
{

/** What the scheduler sees of the machine at one decision round. */
struct SchedulerView
{
    Tick now = 0;
    /** A formed batch is dependence-ready for the MMU. */
    bool inference_ready = false;
    /** Training has staged operands and is dependence-ready. */
    bool training_ready = false;

    // Inputs of the O(1) queue predicates (see SimContext).
    std::size_t queued_batches = 0;
    std::uint32_t unstarted_batches = 0;
    std::uint32_t full_pending_services = 0;
    unsigned spike_threshold = 0;

    // Software-batch state (SchedPolicy::SoftwareBatch only).
    /** A software-scheduled training batch holds the MMU. */
    bool exclusive_training = false;
    /** The software decision-turnaround gate opens at this tick. */
    Tick next_decision = 0;

    /**
     * Load spike: unstarted batches piled past the install threshold
     * (section 3.2), or a full raw batch waiting to form.
     */
    bool
    spike() const
    {
        return unstarted_batches >= spike_threshold ||
               full_pending_services > 0;
    }

    /** At most one batch anywhere and no full raw batch waiting. */
    bool
    queueLow() const
    {
        return queued_batches <= 1 && full_pending_services == 0;
    }
};

/** The scheduler's verdict for one decision round. */
struct SchedDecision
{
    bool allow_inference = true;
    bool allow_training = true;
    /**
     * When != kTickMax: re-run the dispatcher at this tick even if no
     * completion wakes it (the software scheduler's turnaround gate).
     */
    Tick revisit_at = kTickMax;
};

/**
 * Veto service classes for one round under @p policy. Pure: it reads
 * only the predicates its regime needs, spike before queue-low, and
 * calls @p pending_work (raw requests plus unfinished batched requests,
 * a queue scan) only when the software scheduler asks whether the
 * machine is idle.
 */
template <typename PendingWork>
SchedDecision
decide(SchedPolicy policy, const SchedulerView &view,
       PendingWork &&pending_work)
{
    SchedDecision d;
    switch (policy) {
      case SchedPolicy::InferenceOnly:
        d.allow_training = false;
        break;
      case SchedPolicy::Priority:
        // Three regimes: training frozen during a load spike;
        // inference first (training only fills dependence gaps) while
        // batches back up; round-robin while queuing is low.
        if (view.spike() || (!view.queueLow() && view.inference_ready))
            d.allow_training = false;
        break;
      case SchedPolicy::FairShare:
        break;
      case SchedPolicy::SoftwareBatch:
        if (view.exclusive_training) {
            // A software-scheduled training batch cannot be preempted.
            d.allow_inference = false;
        } else if (view.training_ready) {
            // The software control plane schedules training only at
            // batch granularity, only into a fully idle accelerator,
            // and only after its decision turnaround elapses.
            bool idle = !view.inference_ready && pending_work() == 0;
            if (!idle || view.now < view.next_decision) {
                d.allow_training = false;
                if (idle)
                    d.revisit_at = view.next_decision;
            }
        }
        break;
    }
    return d;
}

} // namespace sim
} // namespace equinox

#endif // EQUINOX_SIM_BLOCKS_SCHEDULING_POLICY_HH
