#include "sim/blocks/instruction_dispatcher.hh"

#include <algorithm>

#include "common/units.hh"
#include "sim/blocks/context.hh"
#include "sim/blocks/datapath.hh"
#include "sim/blocks/fault_unit.hh"
#include "sim/blocks/request_dispatcher.hh"

namespace equinox
{
namespace sim
{

InstructionDispatcher::InstructionDispatcher(SimContext &context)
    : SimBlock(context, "instruction_dispatcher"),
      turnaround(units::secondsToCycles(context.cfg.software_turnaround_s,
                                        context.cfg.frequency_hz))
{
}

void
InstructionDispatcher::connect(Datapath *datapath_,
                               RequestDispatcher *requests_,
                               FaultUnit *faults_)
{
    datapath = datapath_;
    requests = requests_;
    faults = faults_;
}

void
InstructionDispatcher::resetRun()
{
    prefer_training = false;
    exclusive_training = false;
    next_decision = 0;
    armed_wakes_.clear(); // the run's EventQueue was rebuilt
    // last_served_ctx intentionally persists (see header).
}

InfBatch *
InstructionDispatcher::firstReadyBatch()
{
    // FIFO within a hardware context; round-robin across contexts so a
    // long-running service (e.g. a 30 ms GRU batch) cannot head-of-line
    // block a sub-ms one in its dependence gaps.
    const Tick now = ctx.events.now();
    // Single installed service: the cross-context round-robin below
    // degenerates to "return the first candidate" whatever the cursor
    // holds (a matching cursor falls through to fallback = first
    // candidate; a stale non-matching one returns it directly), so skip
    // the full scan. This is the simulator's hottest loop (~40% of a
    // fig7 run before the exit).
    const bool single_ctx = ctx.services.size() <= 1;
    InfBatch *fallback = nullptr;
    for (const auto &b : ctx.batch_queue) {
        if (b->in_flight || b->ready_at > now)
            continue;
        if (single_ctx)
            return b.get();
        if (b->svc->id != last_served_ctx)
            return b.get();
        if (!fallback)
            fallback = b.get();
    }
    return fallback;
}

bool
InstructionDispatcher::trainingReady() const
{
    const auto &train = ctx.train;
    if (!train || train->in_flight)
        return false;
    // Graceful degradation: during a fault storm training is shed first
    // so the machine's remaining capacity serves inference.
    if (faults->stormActive())
        return false;
    if (train->ready_at > ctx.events.now())
        return false;
    const auto &tw = train->desc.iteration.steps[train->step].mmu;
    Tick remaining = tw.occupancy - train->issued_in_step;
    if (remaining == 0)
        return false;
    if (tw.stream_bytes == 0)
        return true;
    double bpc = static_cast<double>(tw.stream_bytes) /
                 static_cast<double>(tw.occupancy);
    Tick granule = std::max<Tick>(1, tw.occupancy /
                                         std::max(1u, tw.instructions));
    granule = std::min(granule, remaining);
    return train->staged_bytes >= static_cast<double>(granule) * bpc;
}

void
InstructionDispatcher::tryDispatch()
{
    // A hung dispatcher issues nothing until the watchdog (or the
    // transient stall itself) clears the hang and re-invokes us.
    if (datapath->mmuBusy() || ctx.stopping || faults->mmuHung())
        return;
    Tick now = ctx.events.now();

    InfBatch *inf = firstReadyBatch();
    bool train_ok = trainingReady();

    // The policy sees readiness plus the queue counters and vetoes
    // service classes; the round-robin and the issue stay here. The
    // counters are maintained incrementally (see SimContext), so the
    // spike/queue-low predicates are O(1); the pending-work scan runs
    // only when the software scheduler asks for it.
    SchedulerView view;
    view.now = now;
    view.inference_ready = inf != nullptr;
    view.training_ready = train_ok;
    view.queued_batches = ctx.batch_queue.size();
    view.unstarted_batches = ctx.unstarted_batches;
    view.full_pending_services = ctx.full_pending_services;
    view.spike_threshold = ctx.cfg.spike_threshold_batches;
    view.exclusive_training = exclusive_training;
    view.next_decision = next_decision;
    SchedDecision d = decide(ctx.cfg.sched_policy, view, [this] {
        return requests->pendingInferenceWork();
    });
    if (!d.allow_inference)
        inf = nullptr;
    if (!d.allow_training)
        train_ok = false;
    if (d.revisit_at != kTickMax && d.revisit_at > now)
        scheduleWake(d.revisit_at);

    if (inf && train_ok) {
        if (prefer_training) {
            prefer_training = false;
            datapath->issueTrainingChunk();
        } else {
            prefer_training = true;
            datapath->issueInferenceChunk(inf);
        }
        return;
    }
    if (inf) {
        prefer_training = true;
        datapath->issueInferenceChunk(inf);
        return;
    }
    if (train_ok) {
        prefer_training = false;
        if (ctx.cfg.sched_policy == SchedPolicy::SoftwareBatch) {
            // Training won the round alone: the software-scheduled
            // batch holds the MMU until its iteration retires.
            exclusive_training = true;
            next_decision = saturatingAdd(now, turnaround);
        }
        datapath->issueTrainingChunk();
        return;
    }

    // Nothing ready: wake at the earliest dependence-ready tick. Staging
    // arrivals and request arrivals re-invoke tryDispatch themselves.
    Tick wake = kTickMax;
    for (const auto &b : ctx.batch_queue) {
        if (!b->in_flight)
            wake = std::min(wake, b->ready_at);
    }
    if (ctx.train && !ctx.train->in_flight && ctx.train->ready_at > now)
        wake = std::min(wake, ctx.train->ready_at);
    if (wake != kTickMax && wake > now)
        scheduleWake(wake, /*tail=*/true);
}

void
InstructionDispatcher::scheduleWake(Tick at, bool tail)
{
    // Exact-same-tick dedup only: a wake already armed at `at` makes a
    // second event there a guaranteed no-op (every state change pokes
    // tryDispatch directly, and decide() is pure), so skipping it
    // cannot change dispatch order, policy state, or the final now().
    // Never coalesce across DIFFERENT ticks -- that could change the
    // tick the run drains at and thus the Idle-cycle accounting.
    for (Tick t : armed_wakes_) {
        if (t == at)
            return;
    }
    armed_wakes_.push_back(at);
    auto wake = [this, at] {
        for (std::size_t i = 0; i < armed_wakes_.size(); ++i) {
            if (armed_wakes_[i] == at) {
                armed_wakes_.erase(armed_wakes_.begin() + i);
                break;
            }
        }
        tryDispatch();
    };
    // Only the nothing-ready wake at the end of tryDispatch() is in
    // tail position of its dispatch chain and thus safe to inline; the
    // policy's revisit_at wake is armed mid-round, before the issue.
    if (tail)
        ctx.events.scheduleFast(at, std::move(wake));
    else
        ctx.events.schedule(at, std::move(wake));
}

} // namespace sim
} // namespace equinox
