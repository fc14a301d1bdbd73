#include "sim/blocks/sim_block.hh"

#include "common/units.hh"
#include "sim/blocks/context.hh"

namespace equinox
{
namespace sim
{

SimBlock::SimBlock(SimContext &context, const char *block_name)
    : ctx(context), name_(block_name)
{
}

SimBlock::~SimBlock() = default;

void
SimBlock::emitSlow(TraceEventType type, ContextId svc, std::uint64_t a,
                   std::uint64_t b) const
{
    noteTraceRecordDelivered();
    TraceEvent ev;
    ev.tick = ctx.events.now();
    ev.type = type;
    ev.block = name_;
    ev.ctx = svc;
    ev.a = a;
    ev.b = b;
    ctx.trace->record(ev);
}

void
SimContext::resetMeasurement()
{
    measuring = true;
    measure_start = events.now();
    completed_measured = 0;
    train_iterations_measured = 0;
    host_bytes_measured = 0;
    dram_lp_snapshot = hbm ? hbm->bytesMoved(dram::Priority::Low) : 0;
    for (auto *b : blocks)
        b->beginMeasurement();
}

void
SimContext::maybeFinishWarmup()
{
    if (!measuring && inference_load &&
        completed_total >= spec.warmup_requests &&
        units::cyclesToSeconds(events.now(), cfg.frequency_hz) >=
            spec.warmup_s) {
        resetMeasurement();
    }
}

} // namespace sim
} // namespace equinox
