/**
 * @file
 * Unit tests for the execution-unit scheduling regimes (section 3.2),
 * exercising every decision point of decide() in isolation: the
 * priority scheduler's three regimes (round-robin, inference-first,
 * spike freeze), the fair-share and inference-only baselines, and the
 * software control plane's idle/turnaround/exclusive gating -- plus the
 * software latch's lifecycle across back-to-back runs.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "sim/accelerator.hh"
#include "sim/blocks/scheduling_policy.hh"
#include "sim/config.hh"
#include "sim/result_digest.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace sim
{
namespace
{

constexpr unsigned kSpikeThreshold = 2;

/**
 * A view whose queue counters make spike() and queueLow() read as
 * asked (a spike implies a backed-up queue, so not both).
 */
SchedulerView
view(bool inf_ready, bool train_ready, bool spike, bool queue_low,
     Tick now = 0)
{
    EXPECT_FALSE(spike && queue_low);
    SchedulerView v;
    v.now = now;
    v.inference_ready = inf_ready;
    v.training_ready = train_ready;
    v.spike_threshold = kSpikeThreshold;
    v.queued_batches = queue_low ? 1 : kSpikeThreshold;
    v.unstarted_batches = spike ? kSpikeThreshold : 0;
    EXPECT_EQ(v.spike(), spike);
    EXPECT_EQ(v.queueLow(), queue_low);
    return v;
}

SchedDecision
decideWith(SchedPolicy policy, const SchedulerView &v,
           std::uint64_t pending = 0)
{
    return decide(policy, v, [pending] { return pending; });
}

TEST(SchedulerView, QueuePredicatesFollowTheCounters)
{
    SchedulerView v;
    v.spike_threshold = 3;
    v.queued_batches = 1;
    EXPECT_FALSE(v.spike());
    EXPECT_TRUE(v.queueLow());
    // A full raw batch waiting to form is both a spike and a backlog.
    v.full_pending_services = 1;
    EXPECT_TRUE(v.spike());
    EXPECT_FALSE(v.queueLow());
    v.full_pending_services = 0;
    v.unstarted_batches = 3;
    EXPECT_TRUE(v.spike());
    v.queued_batches = 3;
    EXPECT_FALSE(v.queueLow());
}

TEST(InferenceOnlyPolicy, AlwaysVetoesTraining)
{
    auto d = decideWith(SchedPolicy::InferenceOnly,
                        view(true, true, false, true));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_FALSE(d.allow_training);

    d = decideWith(SchedPolicy::InferenceOnly,
                   view(false, true, false, true));
    EXPECT_FALSE(d.allow_training);
    EXPECT_EQ(d.revisit_at, kTickMax);
}

TEST(PriorityPolicy, RoundRobinWhileQueueLow)
{
    // Regime 1 (section 3.2): low inference queuing, both classes may
    // issue -- the dispatcher's alternation interleaves them.
    auto d = decideWith(SchedPolicy::Priority,
                        view(true, true, /*spike=*/false,
                             /*queue_low=*/true));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_TRUE(d.allow_training);
}

TEST(PriorityPolicy, InferenceFirstWhenBatchesBackUp)
{
    // Regime 2: queuing is no longer low and a batch is ready, so
    // training is held back and inference issues first.
    auto d = decideWith(SchedPolicy::Priority,
                        view(/*inf_ready=*/true, true, /*spike=*/false,
                             /*queue_low=*/false));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_FALSE(d.allow_training);
}

TEST(PriorityPolicy, TrainingFillsDependenceGaps)
{
    // Regime 2 corollary: batches are backed up but none is
    // dependence-ready this round (a "gap") -- training may fill it.
    auto d = decideWith(SchedPolicy::Priority,
                        view(/*inf_ready=*/false, true, /*spike=*/false,
                             /*queue_low=*/false));
    EXPECT_TRUE(d.allow_training);
}

TEST(PriorityPolicy, SpikeFreezesTrainingEntirely)
{
    // Regime 3: a load spike freezes training even in dependence gaps.
    auto d = decideWith(SchedPolicy::Priority,
                        view(/*inf_ready=*/false, true, /*spike=*/true,
                             /*queue_low=*/false));
    EXPECT_FALSE(d.allow_training);
    EXPECT_TRUE(d.allow_inference);
}

TEST(FairSharePolicy, NeverVetoes)
{
    auto d = decideWith(SchedPolicy::FairShare,
                        view(true, true, true, false));
    EXPECT_TRUE(d.allow_inference);
    EXPECT_TRUE(d.allow_training);
    EXPECT_EQ(d.revisit_at, kTickMax);
}

TEST(SoftwareBatchPolicy, TrainingNeedsFullyIdleMachine)
{
    // Pending raw requests keep the machine non-idle even when no batch
    // is dependence-ready: the software scheduler must not start
    // training it could not preempt.
    auto d = decideWith(SchedPolicy::SoftwareBatch,
                        view(/*inf_ready=*/false, true, false, true,
                             /*now=*/1000),
                        /*pending=*/3);
    EXPECT_FALSE(d.allow_training);
    EXPECT_EQ(d.revisit_at, kTickMax); // not idle: no revisit armed

    d = decideWith(SchedPolicy::SoftwareBatch,
                   view(false, true, false, true, /*now=*/1000));
    EXPECT_TRUE(d.allow_training);
}

TEST(SoftwareBatchPolicy, TurnaroundGateDelaysIdleIssue)
{
    // Training issued at t=50 with a 100-cycle turnaround: the gate
    // opens at t=150. Idle again at t=100, inside the turnaround: veto,
    // and ask the dispatcher to revisit exactly when the gate opens.
    auto v = view(false, true, false, true, /*now=*/100);
    v.next_decision = 150;
    auto d = decideWith(SchedPolicy::SoftwareBatch, v);
    EXPECT_FALSE(d.allow_training);
    EXPECT_EQ(d.revisit_at, 150u);

    // At the gate the veto lifts.
    v.now = 150;
    d = decideWith(SchedPolicy::SoftwareBatch, v);
    EXPECT_TRUE(d.allow_training);
    EXPECT_EQ(d.revisit_at, kTickMax);
}

TEST(SoftwareBatchPolicy, ExclusiveTrainingBlocksInference)
{
    // A software-scheduled training batch cannot be preempted: even a
    // ready inference batch must wait for the iteration to retire.
    auto v = view(/*inf_ready=*/true, false, false, true, /*now=*/3);
    v.exclusive_training = true;
    auto d = decideWith(SchedPolicy::SoftwareBatch, v, 5);
    EXPECT_FALSE(d.allow_inference);
    v.exclusive_training = false;
    d = decideWith(SchedPolicy::SoftwareBatch, v, 5);
    EXPECT_TRUE(d.allow_inference);
}

TEST(SoftwareBatchPolicy, ResetClearsLatchAndGate)
{
    // A horizon cut while training runs leaves the software latch and
    // turnaround gate set; the next run's reset must clear both, so
    // that run matches the same run on a fresh accelerator.
    AcceleratorConfig cfg;
    cfg.name = "sched-latch";
    cfg.n = 8;
    cfg.m = 2;
    cfg.w = 2;
    cfg.frequency_hz = units::MHz(100);
    cfg.simd_lanes = 256;
    cfg.sched_policy = SchedPolicy::SoftwareBatch;
    workload::DnnModel rnn;
    rnn.name = "tiny";
    rnn.kind = workload::DnnModel::Kind::Rnn;
    rnn.rnn.hidden = 64;
    rnn.rnn.steps = 4;
    rnn.rnn.gate_groups = {2};
    rnn.rnn.simd_passes = 4.0;
    auto build = [&] {
        workload::Compiler compiler(cfg);
        auto accel = std::make_unique<Accelerator>(cfg);
        accel->installInference(compiler.compileInference(rnn));
        accel->installTraining(compiler.compileTraining(rnn, 16));
        return accel;
    };

    auto accel = build();
    RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 300;
    spec.seed = 5;
    spec.arrival_rate_per_s = 0.05 * accel->maxRequestRate();
    RunSpec cut = spec;
    cut.max_sim_s = 5e-3;
    EXPECT_GT(accel->run(cut).training_iterations, 0u);

    auto after_cut = accel->run(spec);
    auto fresh = build()->run(spec);
    EXPECT_GT(fresh.training_iterations, 0u);
    EXPECT_EQ(resultDigest(after_cut), resultDigest(fresh));
}

} // namespace
} // namespace sim
} // namespace equinox
