/**
 * @file
 * Differential tier of the memory-hierarchy subsystem.
 *
 * Three identity families plus a seeded fuzz sweep:
 *
 *  1. PASSTHROUGH IDENTITY -- the default (all-disabled) hierarchy
 *     must replay the pre-hierarchy flat HBM timing byte-for-byte.
 *     All four golden FNV-1a digests (priority, fair-share, active
 *     fault plan, training-only) are re-pinned here so a hierarchy
 *     regression is reported by the mem suite, not just the refactor
 *     suite.
 *
 *  2. ENGINE IDENTITY -- with a NON-trivial hierarchy enabled, the
 *     result must not depend on how the simulator ran it: jobs=1 vs
 *     jobs=N sweeps digest-identically, and fast-forward on vs off
 *     digest-identically (with identical mem counters, which are
 *     deliberately outside the digest fold).
 *
 *  3. SEEDED FUZZ -- 12 configurations (cache geometry x prefetcher x
 *     workload) each checking the conservation laws: admitted ==
 *     retired + inflight, scratchpad/write-buffer byte conservation,
 *     prefetch accounting bounds, and monotone trace timestamps.
 *
 *  4. ACTIVE GOLDENS -- three non-trivial hierarchies pinned by a
 *     digest of the sim result PLUS every MemStats counter, so a
 *     change to LLC replacement, DCPT prediction, write combining or
 *     scratchpad staging moves a golden even where the sim digest
 *     (which never sees the mem counters) would not.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim_digest.hh"
#include "sim/blocks/trace.hh"

namespace equinox
{
namespace sim
{
namespace
{

using testutil::digestOf;
using testutil::runScenario;

/** The non-trivial hierarchy the engine-identity tests enable. */
mem::MemoryHierarchyConfig
fullHierarchy()
{
    mem::MemoryHierarchyConfig m;
    m.scratchpad.enabled = true;
    m.scratchpad.banks = 2;
    m.scratchpad.bank_bytes = units::KiB(64);
    m.llc.enabled = true;
    m.llc.size_bytes = units::KiB(256);
    m.llc.line_bytes = 256;
    m.llc.ways = 8;
    m.write_buffer.enabled = true;
    m.write_buffer.entries = 8;
    m.write_buffer.entry_bytes = units::KiB(4);
    m.prefetch.kind = mem::PrefetchKind::NextLine;
    m.prefetch.degree = 2;
    return m;
}

// ---------------------------------------------------------------------
// 1. Passthrough identity: the four golden digests
// ---------------------------------------------------------------------

TEST(MemPassthrough, FaultFreePriorityGoldenUnchanged)
{
    auto res = runScenario(SchedPolicy::Priority, {});
    EXPECT_EQ(digestOf(res), testutil::kGoldenFaultFreePriority);
    // Passthrough reports itself inactive with all-zero counters.
    EXPECT_FALSE(res.mem.active);
    EXPECT_EQ(res.mem.reads, 0u);
    EXPECT_EQ(res.mem.dram_transfers, 0u);
}

TEST(MemPassthrough, FaultFreeFairShareGoldenUnchanged)
{
    auto res = runScenario(SchedPolicy::FairShare, {});
    EXPECT_EQ(digestOf(res), testutil::kGoldenFaultFreeFairShare);
}

TEST(MemPassthrough, ActiveFaultPlanGoldenUnchanged)
{
    // The dense plan draws per-transfer RNG through the link fault
    // hook, so this golden additionally pins that passthrough issues
    // EXACTLY the same transfer sequence (count and order) as the
    // pre-hierarchy simulator.
    auto res = runScenario(SchedPolicy::Priority, testutil::densePlan());
    EXPECT_GT(res.faults.totalFaults(), 0u);
    EXPECT_EQ(digestOf(res), testutil::kGoldenActiveFaultPlan);
}

TEST(MemPassthrough, TrainingOnlyGoldenUnchanged)
{
    auto res = testutil::runTrainingOnly();
    EXPECT_EQ(res.training_iterations, 25u);
    EXPECT_EQ(digestOf(res), testutil::kGoldenTrainingOnly);
}

// ---------------------------------------------------------------------
// 2. Engine identity with a non-trivial hierarchy
// ---------------------------------------------------------------------

core::ExperimentOptions
sweepOptions()
{
    core::ExperimentOptions opts;
    opts.model = testutil::tinyRnn();
    opts.train_model = testutil::tinyRnn();
    opts.train_batch = 16;
    opts.warmup_requests = 30;
    opts.measure_requests = 300;
    opts.seed = 17;
    return opts;
}

TEST(MemEngineIdentity, ParallelSweepMatchesSerialWithHierarchy)
{
    auto cfg = testutil::smallConfig("mem-jobs");
    cfg.mem = fullHierarchy();
    const std::vector<double> loads = {0.15, 0.4, 0.65, 0.85};

    auto serial_opts = sweepOptions();
    serial_opts.jobs = 1;
    auto serial = core::runLoadSweep(cfg, loads, serial_opts);

    auto parallel_opts = sweepOptions();
    parallel_opts.jobs = 4;
    auto parallel = core::runLoadSweep(cfg, loads, parallel_opts);

    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(digestOf(serial), digestOf(parallel));
    // The diagnostics outside the digest must agree too: each point is
    // a self-contained simulation, so the hierarchy counters cannot
    // depend on which worker ran it.
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const auto &s = serial[i].sim.mem;
        const auto &p = parallel[i].sim.mem;
        ASSERT_TRUE(s.active);
        EXPECT_EQ(s.llc_hits, p.llc_hits) << "point " << i;
        EXPECT_EQ(s.llc_misses, p.llc_misses) << "point " << i;
        EXPECT_EQ(s.dram_transfers, p.dram_transfers) << "point " << i;
        EXPECT_EQ(s.sp_bytes_filled, p.sp_bytes_filled) << "point " << i;
        EXPECT_EQ(s.wb_bytes_in, p.wb_bytes_in) << "point " << i;
    }
}

TEST(MemEngineIdentity, FastForwardOnOffIdenticalWithHierarchy)
{
    auto cfg = testutil::smallConfig("mem-ff");
    cfg.mem = fullHierarchy();

    auto on_opts = sweepOptions();
    on_opts.fast_forward = true;
    auto off_opts = sweepOptions();
    off_opts.fast_forward = false;

    for (double load : {0.0, 0.5}) { // training-only and mixed
        auto on = core::runAtLoad(cfg, load, on_opts);
        auto off = core::runAtLoad(cfg, load, off_opts);
        EXPECT_EQ(digestOf(on.sim), digestOf(off.sim)) << "load " << load;
        // Fast-forward may inline dispatches but must not change what
        // the memory system saw.
        ASSERT_TRUE(on.sim.mem.active);
        EXPECT_EQ(on.sim.mem.llc_hits, off.sim.mem.llc_hits);
        EXPECT_EQ(on.sim.mem.llc_misses, off.sim.mem.llc_misses);
        EXPECT_EQ(on.sim.mem.dram_transfers, off.sim.mem.dram_transfers);
        EXPECT_EQ(on.sim.mem.sp_bytes_filled, off.sim.mem.sp_bytes_filled);
        EXPECT_EQ(on.sim.mem.sp_bytes_drained,
                  off.sim.mem.sp_bytes_drained);
        EXPECT_EQ(on.sim.mem.wb_bytes_drained,
                  off.sim.mem.wb_bytes_drained);
    }
}

TEST(MemEngineIdentity, RerunIsDeterministic)
{
    // Same config, same seed, fresh Accelerator: bit-identical results
    // including every hierarchy counter.
    auto cfg = testutil::smallConfig("mem-rerun");
    cfg.mem = fullHierarchy();
    auto opts = sweepOptions();
    auto a = core::runAtLoad(cfg, 0.5, opts);
    auto b = core::runAtLoad(cfg, 0.5, opts);
    EXPECT_EQ(digestOf(a.sim), digestOf(b.sim));
    EXPECT_EQ(a.sim.mem.llc_hits, b.sim.mem.llc_hits);
    EXPECT_EQ(a.sim.mem.prefetch_issued, b.sim.mem.prefetch_issued);
    EXPECT_EQ(a.sim.mem.sp_bank_switches, b.sim.mem.sp_bank_switches);
}

// ---------------------------------------------------------------------
// 3. Seeded fuzz: 12 configs x conservation laws
// ---------------------------------------------------------------------

struct FuzzCell
{
    const char *name;
    mem::MemoryHierarchyConfig mem;
    double load; //!< 0 = training only
};

std::vector<FuzzCell>
fuzzCells()
{
    // Two cache geometries x three prefetchers x two workloads.
    std::vector<FuzzCell> cells;
    struct Geo
    {
        const char *name;
        ByteCount size;
        unsigned ways;
        mem::Replacement rep;
    };
    const Geo geos[] = {
        {"small-lru", units::KiB(16), 4, mem::Replacement::Lru},
        {"large-plru", units::KiB(256), 8, mem::Replacement::PseudoLru},
    };
    const mem::PrefetchKind kinds[] = {mem::PrefetchKind::None,
                                       mem::PrefetchKind::NextLine,
                                       mem::PrefetchKind::Dcpt};
    const double loads[] = {0.0, 0.5};
    for (const auto &g : geos) {
        for (auto kind : kinds) {
            for (double load : loads) {
                mem::MemoryHierarchyConfig m;
                m.scratchpad.enabled = true;
                m.scratchpad.banks = (load == 0.0) ? 2u : 3u;
                m.scratchpad.bank_bytes = units::KiB(32);
                m.llc.enabled = true;
                m.llc.size_bytes = g.size;
                m.llc.line_bytes = 256;
                m.llc.ways = g.ways;
                m.llc.replacement = g.rep;
                m.write_buffer.enabled = true;
                m.write_buffer.entries = 4;
                m.write_buffer.entry_bytes = units::KiB(4);
                m.prefetch.kind = kind;
                m.prefetch.degree = 2;
                cells.push_back({g.name, m, load});
            }
        }
    }
    return cells;
}

TEST(MemFuzz, ConservationLawsHoldAcrossConfigs)
{
    auto cells = fuzzCells();
    ASSERT_EQ(cells.size(), 12u);
    std::uint64_t seed = 1000;
    for (const auto &cell : cells) {
        SCOPED_TRACE(std::string(cell.name) + " prefetch=" +
                     mem::prefetchKindName(cell.mem.prefetch.kind) +
                     " load=" + std::to_string(cell.load));
        ASSERT_TRUE(cell.mem.validate().empty());

        auto cfg = testutil::smallConfig("mem-fuzz");
        cfg.mem = cell.mem;
        core::ExperimentOptions opts;
        opts.model = testutil::tinyRnn();
        opts.train_model = testutil::tinyRnn();
        opts.train_batch = 16;
        opts.warmup_requests = 20;
        opts.measure_requests = 150;
        opts.measure_iterations = 8;
        opts.seed = ++seed;
        VectorTraceSink sink;
        opts.trace_sink = &sink;

        auto r = core::runAtLoad(cfg, cell.load, opts);
        const auto &m = r.sim.mem;
        ASSERT_TRUE(m.active);

        // Request conservation at the horizon.
        EXPECT_EQ(r.sim.admitted_requests,
                  r.sim.retired_requests + r.sim.inflight_requests);

        // The LLC saw traffic and its counters are self-consistent:
        // every access is exactly a hit or a miss.
        EXPECT_GT(m.llc_hits + m.llc_misses, 0u);
        EXPECT_GE(m.hitRate(), 0.0);
        EXPECT_LE(m.hitRate(), 1.0);

        // Prefetch accounting: every issued prefetch is at most once
        // useful or evicted-unused, and the none-policy issues nothing.
        EXPECT_LE(m.prefetch_useful + m.prefetch_unused,
                  m.prefetch_issued);
        if (cell.mem.prefetch.kind == mem::PrefetchKind::None) {
            EXPECT_EQ(m.prefetch_issued, 0u);
        }

        // Scratchpad byte conservation: drained never exceeds filled,
        // and the high-water mark respects capacity.
        EXPECT_GT(m.sp_bytes_filled, 0u);
        EXPECT_LE(m.sp_bytes_drained, m.sp_bytes_filled);
        EXPECT_LE(m.sp_high_water, cell.mem.scratchpad.totalBytes());

        // Write-combining conservation: bytes in == bytes drained +
        // occupancy (whatever is still parked at the horizon).
        EXPECT_EQ(m.wb_bytes_in, m.wb_bytes_drained + m.wb_occupancy);
        EXPECT_GT(m.wb_writes, 0u);

        // Every transfer the hierarchy issued flowed through the link:
        // misses, prefetches and write bursts are all accounted.
        EXPECT_GE(m.dram_transfers, m.prefetch_issued);

        // Trace timestamps are monotone (events are emitted in
        // dispatch order and simulated time never runs backwards), and
        // the scratchpad's staging events stay within capacity.
        Tick prev = 0;
        for (const auto &ev : sink.events()) {
            EXPECT_GE(ev.tick, prev);
            prev = ev.tick;
            if (ev.type == TraceEventType::MemStage) {
                EXPECT_GT(ev.a, 0u);
                EXPECT_LE(ev.b, cell.mem.scratchpad.totalBytes());
            }
        }
        EXPECT_GT(sink.count(TraceEventType::MemStage), 0u);
    }
}

// ---------------------------------------------------------------------
// 4. Active-hierarchy goldens: sim digest + every MemStats counter
// ---------------------------------------------------------------------

/** Fold the sim digest and every hierarchy counter, in field order. */
std::uint64_t
activeDigestOf(const SimResult &r)
{
    const auto &m = r.mem;
    testutil::ResultDigest dg;
    dg.u64(digestOf(r));
    dg.u64(m.active ? 1 : 0);
    for (std::uint64_t v :
         {m.reads, m.writes, m.read_bytes, m.write_bytes,
          m.dram_transfers, m.llc_hits, m.llc_misses, m.llc_evictions,
          m.prefetch_issued, m.prefetch_useful, m.prefetch_unused,
          m.sp_fills, m.sp_drains, m.sp_bank_switches, m.sp_fill_stalls,
          m.sp_bytes_filled, m.sp_bytes_drained, m.sp_high_water,
          m.wb_writes, m.wb_combines, m.wb_drains, m.wb_bytes_in,
          m.wb_bytes_drained, m.wb_occupancy}) {
        dg.u64(v);
    }
    return dg.value();
}

/**
 * The mixed run every active golden replays, with @p m enabled. The
 * hidden-160 training model streams about 36k LLC lines: its working
 * set fits the 1 MiB LLC (mostly hits) but thrashes the 256 KiB and
 * 16 KiB ones (evictions, prefetched lines evicted unused).
 */
SimResult
runActive(const mem::MemoryHierarchyConfig &m)
{
    auto cfg = testutil::smallConfig("mem-golden");
    cfg.mem = m;
    auto opts = sweepOptions();
    opts.train_model->rnn.hidden = 160;
    opts.measure_requests = 3000;
    return core::runAtLoad(cfg, 0.5, opts).sim;
}

TEST(MemActive, GoldenPerfbenchGeometry)
{
    // The benchmark's colocated_lstm_mem hierarchy: 2 x 512 KiB
    // scratchpad, the default 1 MiB LRU LLC, write buffer and DCPT.
    mem::MemoryHierarchyConfig m;
    m.scratchpad.enabled = true;
    m.scratchpad.banks = 2;
    m.scratchpad.bank_bytes = units::KiB(512);
    m.llc.enabled = true;
    m.write_buffer.enabled = true;
    m.prefetch.kind = mem::PrefetchKind::Dcpt;
    auto r = runActive(m);
    EXPECT_GT(r.mem.llc_hits, r.mem.llc_misses);
    EXPECT_GT(r.mem.prefetch_issued, 0u);
    EXPECT_GT(r.mem.wb_combines, 0u);
    EXPECT_EQ(activeDigestOf(r), 15782323395362051505ull);
}

TEST(MemActive, GoldenPlruNextLine)
{
    mem::MemoryHierarchyConfig m = fullHierarchy();
    m.llc.replacement = mem::Replacement::PseudoLru;
    auto r = runActive(m);
    EXPECT_GT(r.mem.llc_evictions, 0u);
    EXPECT_GT(r.mem.prefetch_unused, 0u);
    EXPECT_EQ(activeDigestOf(r), 14770372296377697250ull);
}

TEST(MemActive, GoldenSmallEvictingLru)
{
    mem::MemoryHierarchyConfig m;
    m.llc.enabled = true;
    m.llc.size_bytes = units::KiB(16);
    m.llc.line_bytes = 256;
    m.llc.ways = 4;
    auto r = runActive(m);
    EXPECT_GT(r.mem.llc_evictions, 0u);
    EXPECT_EQ(r.mem.prefetch_issued, 0u);
    EXPECT_EQ(activeDigestOf(r), 11961693958019786843ull);
}

} // namespace
} // namespace sim
} // namespace equinox
