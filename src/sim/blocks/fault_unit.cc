#include "sim/blocks/fault_unit.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"
#include "sim/blocks/context.hh"
#include "sim/blocks/instruction_dispatcher.hh"
#include "sim/blocks/train_prefetcher.hh"

namespace equinox
{
namespace sim
{

FaultUnit::FaultUnit(SimContext &context) : SimBlock(context, "fault_unit")
{
}

FaultUnit::~FaultUnit() = default;

void
FaultUnit::connect(InstructionDispatcher *dispatcher_,
                   TrainPrefetcher *prefetcher_)
{
    dispatcher = dispatcher_;
    prefetcher = prefetcher_;
}

void
FaultUnit::resetRun()
{
    injector.reset();
    fstats.reset();
    mmu_hung = false;
    hang_started_at = 0;
    storm_active = false;
    shed_inference = false;
    storm_check_armed = false;
    faults_seen = 0;
    recent_faults.clear();
}

void
FaultUnit::beginRun()
{
    if (!ctx.spec.faults.enabled())
        return;
    auto plan_errors = ctx.spec.faults.validate();
    if (!plan_errors.empty()) {
        std::string joined;
        for (const auto &e : plan_errors)
            joined += "\n  " + e;
        EQX_FATAL("invalid fault plan:", joined);
    }
    injector = std::make_unique<fault::FaultInjector>(
        ctx.spec.faults, ctx.cfg.frequency_hz, &fstats);
    ctx.hbm->setFaultHook(injector->dramHook());
    ctx.host->setFaultHook(injector->hostHook());
}

void
FaultUnit::scheduleHangs(Tick horizon)
{
    if (!injector)
        return;
    for (Tick t : injector->hangSchedule(horizon))
        ctx.events.schedule(t, [this] { onMmuHang(); });
}

std::vector<fault::FaultRecord>
FaultUnit::trace() const
{
    if (!injector)
        return {};
    return injector->trace();
}

Tick
FaultUnit::hostTransfer(Tick start, ByteCount bytes, dram::Priority prio,
                        bool *ok)
{
    if (ok)
        *ok = true;
    if (!injector) {
        Tick finish = ctx.host->transfer(start, bytes, prio);
        emit(TraceEventType::HostTransfer, 0, bytes, 0);
        return finish;
    }

    const auto &rp = ctx.spec.faults.retry;
    Tick deadline = kTickMax;
    if (rp.deadline_s > 0.0) {
        deadline = saturatingAdd(
            start,
            units::secondsToCycles(rp.deadline_s, ctx.cfg.frequency_hz));
    }
    Tick first_finish = 0;
    for (unsigned attempt = 0;; ++attempt) {
        dram::TransferFault f;
        Tick finish = ctx.host->transfer(start, bytes, prio, &f);
        syncFaults();
        if (attempt == 0)
            first_finish = finish;
        if (!f.failed) {
            if (attempt > 0) {
                fstats.recovery_cycles.record(
                    static_cast<double>(finish - first_finish));
            }
            emit(TraceEventType::HostTransfer, 0, bytes, attempt);
            return finish;
        }
        // A drop is detected by the response timeout, a corruption by
        // the delivery CRC; either way the retry launches after the
        // attempt's delivery horizon plus jittered backoff.
        Tick retry_at = kTickMax;
        if (attempt < rp.max_retries && finish < deadline) {
            retry_at = saturatingAdd(finish,
                                     injector->backoffCycles(attempt));
        }
        if (retry_at == kTickMax) {
            // Retry budget or per-request deadline exhausted, or the
            // backoff saturated past every horizon: the payload is lost
            // for good; livelock is impossible because both bounds are
            // finite.
            ++fstats.host_give_ups;
            if (ok)
                *ok = false;
            emit(TraceEventType::HostTransfer, 0, bytes, attempt);
            return finish;
        }
        ++fstats.host_retries;
        start = retry_at;
    }
}

void
FaultUnit::onMmuHang()
{
    if (ctx.stopping || mmu_hung)
        return;
    Tick now = ctx.events.now();
    mmu_hung = true;
    hang_started_at = now;
    ++fstats.mmu_hangs;
    emit(TraceEventType::FaultHang);
    syncFaults();
    const auto &wd = ctx.spec.faults.watchdog;
    if (wd.enabled) {
        Tick detect = saturatingAdd(
            now, units::secondsToCycles(wd.timeout_s, ctx.cfg.frequency_hz));
        ctx.events.schedule(detect, [this] { onWatchdogFire(); });
    } else {
        // No watchdog: the stall persists until it clears on its own.
        Tick clear = saturatingAdd(
            now, units::secondsToCycles(wd.hang_duration_s,
                                        ctx.cfg.frequency_hz));
        Tick started = now;
        ctx.events.schedule(clear, [this, started] {
            clearTransientHang(started);
        });
    }
}

void
FaultUnit::onWatchdogFire()
{
    if (!mmu_hung || ctx.stopping)
        return;
    Tick now = ctx.events.now();
    ++fstats.watchdog_resets;
    const auto &wd = ctx.spec.faults.watchdog;
    // Costed reset: fixed controller reset, then every installed
    // service's weights re-install from DRAM at critical priority.
    Tick resume = saturatingAdd(
        now, units::secondsToCycles(wd.reset_cost_s, ctx.cfg.frequency_hz));
    ByteCount weights = 0;
    for (const auto &svc : ctx.services)
        weights += svc->desc.weight_footprint;
    // A reset that never finishes re-installs nothing (and must not
    // push the link's free times past the end of the Tick range).
    if (weights > 0 && resume != kTickMax)
        resume = ctx.hbm->transfer(resume, weights, dram::Priority::High);
    syncFaults();
    Tick hang_start = hang_started_at;
    ctx.events.schedule(resume, [this, hang_start] {
        finishReset(hang_start);
    });
}

void
FaultUnit::finishReset(Tick hang_start)
{
    Tick now = ctx.events.now();
    mmu_hung = false;
    accountDowntime(hang_start, now);
    fstats.recovery_cycles.record(static_cast<double>(now - hang_start));
    emit(TraceEventType::FaultRecovery, 0, now - hang_start);
    // The reset wiped the training context's in-flight SRAM state.
    trainingRollback();
    dispatcher->tryDispatch();
}

void
FaultUnit::clearTransientHang(Tick hang_start)
{
    if (!mmu_hung)
        return;
    Tick now = ctx.events.now();
    mmu_hung = false;
    accountDowntime(hang_start, now);
    fstats.recovery_cycles.record(static_cast<double>(now - hang_start));
    emit(TraceEventType::FaultRecovery, 0, now - hang_start);
    dispatcher->tryDispatch();
}

void
FaultUnit::accountDowntime(Tick from, Tick upto)
{
    // Availability is reported over the measured window only.
    if (!ctx.measuring)
        return;
    from = std::max(from, ctx.measure_start);
    if (upto > from)
        fstats.downtime_cycles += upto - from;
}

void
FaultUnit::finalizeDowntime()
{
    if (mmu_hung)
        accountDowntime(hang_started_at, ctx.events.now());
}

void
FaultUnit::trainingRollback()
{
    auto &train = ctx.train;
    if (!train)
        return;
    Tick now = ctx.events.now();
    ++fstats.rollbacks;
    std::uint64_t lost = train->iterations - train->committed_iterations;
    fstats.lost_training_iterations += lost;
    if (ctx.measuring) {
        // Rolled-back iterations are re-counted when the replay
        // re-completes them, so net progress reflects the loss.
        ctx.train_iterations_measured -=
            std::min<std::uint64_t>(ctx.train_iterations_measured, lost);
    }
    train->iterations = train->committed_iterations;
    train->step = 0;
    train->issued_in_step = 0;
    train->staged_bytes = 0.0;
    train->inflight_bytes = 0.0;
    train->prefetch_step = 0;
    train->prefetch_off = 0;
    // The replay re-reads the pass from its start and rewrites the
    // store-back region; staged scratchpad contents are stale.
    train->mem_read_cursor = 0;
    train->mem_store_cursor = 0;
    ctx.mem->rollbackScratchpad();
    ++train->epoch;
    // Restore: the checkpointed master weights stream back from DRAM
    // before the replay's first operands can stage.
    Tick resume = now;
    if (train->desc.checkpoint_bytes > 0) {
        resume = ctx.hbm->transfer(now, train->desc.checkpoint_bytes,
                                   dram::Priority::Low);
        syncFaults();
    }
    train->ready_at = resume;
    fstats.recovery_cycles.record(static_cast<double>(resume - now));
    emit(TraceEventType::FaultRecovery, 0, resume - now, lost);
    std::uint64_t epoch = train->epoch;
    ctx.events.schedule(resume, [this, epoch] {
        if (epoch != ctx.train->epoch)
            return;
        prefetcher->pump();
        dispatcher->tryDispatch();
    });
}

void
FaultUnit::maybeWriteCheckpoint()
{
    auto &train = ctx.train;
    if (!injector || !train)
        return;
    unsigned interval = ctx.spec.faults.checkpoint.interval_iterations;
    if (interval == 0)
        return;
    if (train->iterations - train->committed_iterations < interval)
        return;
    dram::TransferFault f;
    if (train->desc.checkpoint_bytes > 0) {
        // Asynchronous snapshot: the write overlaps the next iteration's
        // compute and is charged as best-effort DRAM traffic.
        ctx.hbm->transfer(ctx.events.now(), train->desc.checkpoint_bytes,
                          dram::Priority::Low, &f);
        syncFaults();
    }
    if (f.uncorrectable) {
        // The checkpoint image itself is damaged: do not commit; the
        // previous checkpoint stays the rollback target and the next
        // interval tries again.
        return;
    }
    ++fstats.checkpoints_written;
    train->committed_iterations = train->iterations;
}

void
FaultUnit::syncFaults()
{
    std::uint64_t total = fstats.totalFaults();
    while (faults_seen < total) {
        ++faults_seen;
        noteFault();
    }
}

void
FaultUnit::noteFault()
{
    const auto &dp = ctx.spec.faults.degrade;
    if (!dp.enabled)
        return;
    Tick now = ctx.events.now();
    Tick window = units::secondsToCycles(dp.storm_window_s,
                                         ctx.cfg.frequency_hz);
    recent_faults.push_back(now);
    while (!recent_faults.empty() &&
           recent_faults.front() + window < now)
        recent_faults.pop_front();
    auto count = static_cast<unsigned>(recent_faults.size());
    if (!storm_active && count >= dp.storm_faults) {
        storm_active = true;
        ++fstats.storms_entered;
    }
    shed_inference = storm_active &&
                     count >= dp.storm_faults *
                                  std::max(1u, dp.shed_inference_factor);
    if (storm_active && !storm_check_armed) {
        storm_check_armed = true;
        ctx.events.schedule(now + window + 1, [this] { stormCheck(); });
    }
}

void
FaultUnit::stormCheck()
{
    storm_check_armed = false;
    if (!storm_active)
        return;
    const auto &dp = ctx.spec.faults.degrade;
    Tick now = ctx.events.now();
    Tick window = units::secondsToCycles(dp.storm_window_s,
                                         ctx.cfg.frequency_hz);
    while (!recent_faults.empty() &&
           recent_faults.front() + window < now)
        recent_faults.pop_front();
    auto count = static_cast<unsigned>(recent_faults.size());
    if (count < dp.storm_faults) {
        // Storm over: training and full admission resume immediately.
        storm_active = false;
        shed_inference = false;
        dispatcher->tryDispatch();
        return;
    }
    shed_inference = count >= dp.storm_faults *
                                  std::max(1u, dp.shed_inference_factor);
    storm_check_armed = true;
    ctx.events.schedule(recent_faults.front() + window + 1,
                        [this] { stormCheck(); });
}

} // namespace sim
} // namespace equinox
