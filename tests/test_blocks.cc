/**
 * @file
 * Tests for the block/port simulation architecture: the TraceSink
 * observability seam (including its must-not-perturb guarantee) and
 * back-to-back runs on one accelerator (the batch queue frees what
 * each run leaves behind).
 */

#include <gtest/gtest.h>

#include <set>

#include "common/units.hh"
#include "sim/accelerator.hh"
#include "sim/blocks/trace.hh"
#include "sim/result_digest.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace sim
{
namespace
{

AcceleratorConfig
smallConfig()
{
    AcceleratorConfig cfg;
    cfg.name = "blocks-test";
    cfg.n = 8;
    cfg.m = 2;
    cfg.w = 2;
    cfg.frequency_hz = units::MHz(100);
    cfg.simd_lanes = 256;
    return cfg;
}

workload::DnnModel
tinyRnn()
{
    workload::DnnModel model;
    model.name = "tiny";
    model.kind = workload::DnnModel::Kind::Rnn;
    model.rnn.hidden = 64;
    model.rnn.steps = 4;
    model.rnn.gate_groups = {2};
    model.rnn.simd_passes = 4.0;
    return model;
}

RunSpec
smallSpec()
{
    RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 300;
    spec.seed = 17;
    return spec;
}

/** Build the shared mixed inference+training accelerator. */
std::unique_ptr<Accelerator>
makeAccel(AcceleratorConfig cfg)
{
    workload::Compiler compiler(cfg);
    auto accel = std::make_unique<Accelerator>(cfg);
    accel->installInference(compiler.compileInference(tinyRnn()));
    accel->installTraining(compiler.compileTraining(tinyRnn(), 16));
    return accel;
}

TEST(TraceSeam, BlocksEmitMultipleEventTypesThroughTheSink)
{
    auto accel = makeAccel(smallConfig());
    VectorTraceSink sink;
    accel->setTraceSink(&sink);

    auto spec = smallSpec();
    spec.arrival_rate_per_s = 0.4 * accel->maxRequestRate();
    accel->run(spec);

    // The acceptance bar is >= 3 distinct block event types; a mixed
    // run exercises far more. Count the distinct types seen.
    std::set<TraceEventType> seen;
    for (const auto &ev : sink.events())
        seen.insert(ev.type);
    EXPECT_GE(seen.size(), 3u);
    EXPECT_GT(sink.count(TraceEventType::RequestArrival), 0u);
    EXPECT_GT(sink.count(TraceEventType::BatchFormed), 0u);
    EXPECT_GT(sink.count(TraceEventType::InferenceChunkIssue), 0u);
    EXPECT_GT(sink.count(TraceEventType::BatchRetired), 0u);
    EXPECT_GT(sink.count(TraceEventType::TrainChunkIssue), 0u);
    EXPECT_GT(sink.count(TraceEventType::TrainIteration), 0u);
    EXPECT_GT(sink.count(TraceEventType::HostTransfer), 0u);

    // Events are recorded at dispatch time, so ticks never go backward
    // and every event names its emitting block.
    Tick last = 0;
    for (const auto &ev : sink.events()) {
        EXPECT_GE(ev.tick, last);
        last = ev.tick;
        EXPECT_STRNE(ev.block, "");
    }
}

TEST(TraceSeam, FaultEventsFlowThroughTheSink)
{
    auto accel = makeAccel(smallConfig());
    VectorTraceSink sink;
    accel->setTraceSink(&sink);

    auto spec = smallSpec();
    spec.arrival_rate_per_s = 0.4 * accel->maxRequestRate();
    spec.faults.seed = 23;
    spec.faults.host_drop_prob = 0.05;
    spec.faults.mmu_hang_rate_per_s = 200.0;
    auto res = accel->run(spec);

    ASSERT_GT(res.faults.mmu_hangs, 0u);
    EXPECT_EQ(sink.count(TraceEventType::FaultHang), res.faults.mmu_hangs);
    EXPECT_GT(sink.count(TraceEventType::FaultRecovery), 0u);
}

TEST(TraceSeam, TracingDoesNotPerturbResults)
{
    // Same config, same seed: a traced run must report byte-identical
    // results to an untraced one -- the seam is observation only.
    auto spec = smallSpec();

    auto plain = makeAccel(smallConfig());
    spec.arrival_rate_per_s = 0.4 * plain->maxRequestRate();
    auto base = plain->run(spec);

    auto traced = makeAccel(smallConfig());
    VectorTraceSink sink;
    traced->setTraceSink(&sink);
    auto obs = traced->run(spec);

    EXPECT_GT(sink.total(), 0u);
    EXPECT_EQ(base.completed_requests, obs.completed_requests);
    EXPECT_EQ(base.mean_latency_s, obs.mean_latency_s);
    EXPECT_EQ(base.p99_latency_s, obs.p99_latency_s);
    EXPECT_EQ(base.training_iterations, obs.training_iterations);
    EXPECT_EQ(base.host_bytes, obs.host_bytes);
    EXPECT_EQ(base.mmu_busy_cycles, obs.mmu_busy_cycles);
    EXPECT_EQ(base.mmu_breakdown.total(), obs.mmu_breakdown.total());
}

TEST(TraceSeam, VectorSinkBoundsMemoryAndCountsDrops)
{
    auto accel = makeAccel(smallConfig());
    VectorTraceSink sink(/*cap=*/64);
    accel->setTraceSink(&sink);

    auto spec = smallSpec();
    spec.arrival_rate_per_s = 0.4 * accel->maxRequestRate();
    accel->run(spec);

    EXPECT_LE(sink.events().size(), 64u);
    EXPECT_GT(sink.dropped(), 0u);
    EXPECT_EQ(sink.total(), sink.events().size() + sink.dropped());

    sink.clear();
    EXPECT_EQ(sink.total(), 0u);
    EXPECT_EQ(sink.count(TraceEventType::RequestArrival), 0u);
}

TEST(TraceSeam, EventTypeNamesAreStable)
{
    EXPECT_STREQ(traceEventTypeName(TraceEventType::RequestArrival),
                 "request_arrival");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::BatchRetired),
                 "batch_retired");
    EXPECT_STREQ(traceEventTypeName(TraceEventType::FaultRecovery),
                 "fault_recovery");
}

TEST(BackToBackRuns, SecondRunOnOneAcceleratorIsIdentical)
{
    auto accel = makeAccel(smallConfig());
    auto spec = smallSpec();
    spec.arrival_rate_per_s = 0.5 * accel->maxRequestRate();

    auto first = accel->run(spec);
    auto second = accel->run(spec);
    EXPECT_GT(first.batches_formed, 0u);
    EXPECT_EQ(resultDigest(second), resultDigest(first));
}

TEST(BackToBackRuns, HorizonCutMidFlightDoesNotLeakIntoTheNextRun)
{
    // A horizon this short stops the run with batches still queued;
    // the next run's reset frees them, so a full run afterwards
    // matches the same run on a fresh accelerator.
    auto accel = makeAccel(smallConfig());
    auto spec = smallSpec();
    spec.arrival_rate_per_s = 0.9 * accel->maxRequestRate();
    auto cut = spec;
    cut.max_sim_s = 2e-4;

    EXPECT_GT(accel->run(cut).inflight_requests, 0u);

    auto after_cut = accel->run(spec);
    auto fresh = makeAccel(smallConfig())->run(spec);
    EXPECT_EQ(resultDigest(after_cut), resultDigest(fresh));
}

} // namespace
} // namespace sim
} // namespace equinox
