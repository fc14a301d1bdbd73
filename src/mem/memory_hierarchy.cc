#include "mem/memory_hierarchy.hh"

#include <algorithm>
#include <cassert>

namespace equinox
{
namespace mem
{

MemoryHierarchy::MemoryHierarchy(const MemoryHierarchyConfig &config,
                                 dram::PriorityLink *link)
    : cfg(config), link_(link), passthrough_(config.passthrough()),
      policy_(makePrefetchPolicy(config.prefetch))
{
    assert(link_ && "hierarchy needs a backing DRAM link");
    assert(cfg.validate().empty() && "invalid hierarchy configuration");
    if (cfg.scratchpad.enabled)
        sp_ = std::make_unique<Scratchpad>(cfg.scratchpad);
    if (cfg.llc.enabled)
        llc_ = std::make_unique<Llc>(cfg.llc);
    if (cfg.write_buffer.enabled)
        wb_ = std::make_unique<WriteCombiningBuffer>(cfg.write_buffer);
}

MemoryHierarchy::~MemoryHierarchy() = default;

Tick
MemoryHierarchy::missTransfer(Tick now, ByteCount bytes,
                              dram::Priority priority,
                              dram::TransferFault *fault)
{
    ++dram_transfers_;
    if (!fault)
        return link_->transfer(now, bytes, priority);
    // The link overwrites *fault per transfer; fold so one poisoned
    // miss run in a multi-run access stays visible to the caller.
    dram::TransferFault local;
    Tick done = link_->transfer(now, bytes, priority, &local);
    fault->extra_cycles += local.extra_cycles;
    fault->failed = fault->failed || local.failed;
    fault->uncorrectable = fault->uncorrectable || local.uncorrectable;
    return done;
}

Tick
MemoryHierarchy::read(Tick now, Addr addr, ByteCount bytes,
                      dram::Priority priority, dram::TransferFault *fault)
{
    if (passthrough_) {
        // The identity path: one verbatim transfer, nothing else.
        return link_->transfer(now, bytes, priority, fault);
    }
    ++reads_;
    read_bytes_ += bytes;
    if (!llc_) {
        ++dram_transfers_;
        return link_->transfer(now, bytes, priority, fault);
    }

    ByteCount line = llc_->lineBytes();
    Addr first = addr / line;
    Addr last = (addr + (bytes ? bytes - 1 : 0)) / line;
    Tick done = now;
    ByteCount miss_run = 0;
    pf_candidates_.clear();
    for (Addr l = first; l <= last; ++l) {
        bool hit = llc_->access(l);
        policy_->onAccess(l, hit, pf_candidates_);
        if (hit) {
            done = std::max(done, now + llc_->hitLatency());
            if (miss_run) {
                done = std::max(done, missTransfer(now, miss_run,
                                                   priority, fault));
                miss_run = 0;
            }
        } else {
            miss_run += line;
        }
    }
    if (miss_run)
        done = std::max(done, missTransfer(now, miss_run, priority,
                                           fault));

    // Prefetch: install candidates not already resident, one
    // low-priority link transfer each. Prefetch faults are not the
    // demand access's problem -- a poisoned prefetch line would fault
    // on its demand re-read. A candidate equal to the one before it is
    // resident by now, so its fill would be a no-op: skip the probe
    // (DCPT on a stride-1 stream proposes every line twice in a row).
    for (std::size_t i = 0; i < pf_candidates_.size(); ++i) {
        Addr cand = pf_candidates_[i];
        if ((i > 0 && cand == pf_candidates_[i - 1]) ||
            !llc_->fillPrefetch(cand)) {
            continue;
        }
        ++prefetch_issued_;
        ++dram_transfers_;
        link_->transfer(now, line, dram::Priority::Low, nullptr);
    }
    return done;
}

Tick
MemoryHierarchy::write(Tick now, Addr addr, ByteCount bytes,
                       dram::Priority priority, dram::TransferFault *fault)
{
    if (passthrough_) {
        return link_->transfer(now, bytes, priority, fault);
    }
    ++writes_;
    write_bytes_ += bytes;
    if (!wb_) {
        ++dram_transfers_;
        return link_->transfer(now, bytes, priority, fault);
    }
    Tick done = now;
    for (const auto &burst : wb_->push(addr, bytes)) {
        done = std::max(done, missTransfer(now, burst.bytes, priority,
                                           fault));
    }
    return done;
}

Tick
MemoryHierarchy::flushWrites(Tick now)
{
    Tick done = now;
    if (!wb_)
        return done;
    for (const auto &burst : wb_->flush()) {
        done = std::max(done, missTransfer(now, burst.bytes,
                                           dram::Priority::Low, nullptr));
    }
    return done;
}

ByteCount
MemoryHierarchy::scratchpadCapacity() const
{
    return sp_ ? sp_->capacity() : 0;
}

ByteCount
MemoryHierarchy::scratchpadFillHeadroom() const
{
    return sp_ ? sp_->fillHeadroom() : 0;
}

ByteCount
MemoryHierarchy::noteScratchpadFill(ByteCount bytes)
{
    assert(sp_);
    return sp_->fillArrived(bytes);
}

void
MemoryHierarchy::noteScratchpadDrain(double bytes)
{
    if (!sp_)
        return;
    drain_carry_ += bytes;
    auto whole = static_cast<ByteCount>(drain_carry_);
    // Fractional bytes-per-cycle drains accumulate float error; never
    // let the carry overdraw what the scratchpad actually granted.
    whole = std::min(whole, sp_->consumable());
    if (whole) {
        sp_->drained(whole);
        drain_carry_ -= static_cast<double>(whole);
    }
}

void
MemoryHierarchy::noteScratchpadFillStall()
{
    if (sp_)
        sp_->noteFillStall();
}

void
MemoryHierarchy::rollbackScratchpad()
{
    if (sp_) {
        sp_->rollback();
        drain_carry_ = 0.0;
    }
}

MemStats
MemoryHierarchy::stats() const
{
    MemStats s;
    s.active = !passthrough_;
    s.reads = reads_;
    s.writes = writes_;
    s.read_bytes = read_bytes_;
    s.write_bytes = write_bytes_;
    s.dram_transfers = dram_transfers_;
    if (llc_) {
        s.llc_hits = llc_->hits();
        s.llc_misses = llc_->misses();
        s.llc_evictions = llc_->evictions();
        s.prefetch_issued = prefetch_issued_;
        s.prefetch_useful = llc_->prefetchUseful();
        s.prefetch_unused = llc_->prefetchUnused();
    }
    if (sp_) {
        s.sp_fills = sp_->fills();
        s.sp_drains = sp_->drains();
        s.sp_bank_switches = sp_->bankSwitches();
        s.sp_fill_stalls = sp_->fillStalls();
        s.sp_bytes_filled = sp_->bytesFilled();
        s.sp_bytes_drained = sp_->bytesDrained();
        s.sp_high_water = sp_->occupancyHighWater();
    }
    if (wb_) {
        s.wb_writes = wb_->writes();
        s.wb_combines = wb_->combines();
        s.wb_drains = wb_->drains();
        s.wb_bytes_in = wb_->bytesIn();
        s.wb_bytes_drained = wb_->bytesDrained();
        s.wb_occupancy = wb_->occupancy();
    }
    return s;
}

} // namespace mem
} // namespace equinox
