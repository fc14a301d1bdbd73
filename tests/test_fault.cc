/**
 * @file
 * Fault-injection and recovery tests: SECDED ECC outcomes, retry/backoff
 * timing, hang scheduling, watchdog reset cost, checkpoint/rollback
 * bounds, plan and configuration validation, determinism of the whole
 * fault pipeline, and the zero-rate pay-for-what-you-use guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hh"
#include "fault/chaos_plan.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "fault/traffic_mix.hh"
#include "sim/accelerator.hh"
#include "workload/compiler.hh"
#include "workload/dnn_model.hh"

namespace equinox
{
namespace
{

constexpr double kFreq = 100e6; // 100 MHz test clock

sim::AcceleratorConfig
smallConfig()
{
    sim::AcceleratorConfig cfg;
    cfg.name = "test";
    cfg.n = 8;
    cfg.m = 2;
    cfg.w = 2;
    cfg.frequency_hz = kFreq;
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

/** One-service synthetic program with exact, known timing. */
sim::InferenceServiceDesc
syntheticService(std::uint32_t batch_rows, std::size_t steps,
                 Tick occupancy, Tick simd, Tick drain)
{
    sim::InferenceServiceDesc desc;
    desc.model_name = "synthetic";
    desc.program.name = "synthetic";
    desc.program.batch_rows = batch_rows;
    for (std::size_t s = 0; s < steps; ++s) {
        isa::StepBlock sb;
        sb.mmu.instructions = 1;
        sb.mmu.occupancy = occupancy;
        sb.mmu.rows_used = batch_rows;
        sb.mmu.rows_slots = batch_rows;
        sb.mmu.geom_frac = 1.0;
        sb.mmu.real_ops = occupancy * 1000;
        sb.simd_cycles = simd;
        sb.drain_cycles = drain;
        desc.program.steps.push_back(sb);
    }
    desc.service_time_s = units::cyclesToSeconds(
        desc.program.serviceCycles(), kFreq);
    return desc;
}

// ---------------------------------------------------------------------
// SECDED ECC model
// ---------------------------------------------------------------------

TEST(EccModel, NoFlipsNoOutcome)
{
    fault::EccModel ecc{fault::EccConfig{}};
    Rng rng(1);
    auto out = ecc.apply(0, 4096, rng);
    EXPECT_EQ(out.corrected, 0u);
    EXPECT_EQ(out.uncorrectable, 0u);
    EXPECT_EQ(out.extra_cycles, 0u);
}

TEST(EccModel, SingleFlipIsCorrectedAtFixedCost)
{
    fault::EccConfig cfg;
    cfg.correction_cycles = 32;
    fault::EccModel ecc{cfg};
    Rng rng(1);
    auto out = ecc.apply(1, 1 << 20, rng);
    EXPECT_EQ(out.corrected, 1u);
    EXPECT_EQ(out.uncorrectable, 0u);
    EXPECT_EQ(out.extra_cycles, 32u);
}

TEST(EccModel, DoubleFlipInOneCodewordIsUncorrectable)
{
    // An 8-byte access holds exactly one 64-bit codeword, so two flips
    // must collide and defeat the single-error correction.
    fault::EccModel ecc{fault::EccConfig{}};
    Rng rng(7);
    auto out = ecc.apply(2, 8, rng);
    EXPECT_EQ(out.corrected, 0u);
    EXPECT_EQ(out.uncorrectable, 1u);
    EXPECT_EQ(out.extra_cycles, 0u);
}

TEST(EccModel, ManyFlipsConserveCount)
{
    fault::EccModel ecc{fault::EccConfig{}};
    Rng rng(11);
    for (unsigned flips : {3u, 17u, 64u}) {
        auto out = ecc.apply(flips, 4096, rng);
        // Every flip lands in some codeword: corrected words hold one
        // flip, uncorrectable words at least two.
        EXPECT_LE(out.corrected + 2 * out.uncorrectable, flips);
        EXPECT_GE(out.corrected + flips * out.uncorrectable, flips);
    }
}

// ---------------------------------------------------------------------
// Retry backoff timing
// ---------------------------------------------------------------------

TEST(FaultInjector, BackoffGrowsGeometricallyWithoutJitter)
{
    fault::FaultPlan plan;
    plan.retry.base_backoff_s = 2e-6; // 200 cycles at 100 MHz
    plan.retry.backoff_multiplier = 2.0;
    plan.retry.jitter_frac = 0.0;
    stats::FaultStats fs;
    fault::FaultInjector inj(plan, kFreq, &fs);
    EXPECT_EQ(inj.backoffCycles(0), 200u);
    EXPECT_EQ(inj.backoffCycles(1), 400u);
    EXPECT_EQ(inj.backoffCycles(2), 800u);
    EXPECT_EQ(inj.backoffCycles(5), 6400u);
}

TEST(FaultInjector, JitterStaysInsideItsFraction)
{
    fault::FaultPlan plan;
    plan.retry.base_backoff_s = 2e-6;
    plan.retry.backoff_multiplier = 2.0;
    plan.retry.jitter_frac = 0.25;
    stats::FaultStats fs;
    fault::FaultInjector inj(plan, kFreq, &fs);
    for (int i = 0; i < 64; ++i) {
        Tick wait = inj.backoffCycles(1);
        EXPECT_GE(wait, 400u);
        EXPECT_LE(wait, 500u);
    }
}

// ---------------------------------------------------------------------
// Injection hooks
// ---------------------------------------------------------------------

TEST(FaultInjector, ScheduledFaultsFireOnFirstMatchingTransfer)
{
    fault::FaultPlan plan;
    plan.scheduled.push_back({1e-5, fault::FaultKind::DramUncorrectable});
    plan.scheduled.push_back({1e-5, fault::FaultKind::HostLinkDrop});
    stats::FaultStats fs;
    fault::FaultInjector inj(plan, kFreq, &fs);
    Tick at = units::secondsToCycles(1e-5, kFreq);

    // Before the scheduled time nothing fires.
    auto early = inj.dramHook()->onTransfer(at - 1, 64,
                                            dram::Priority::Low);
    EXPECT_FALSE(early.uncorrectable);
    // The first transfer at/after it consumes the fault...
    auto hit = inj.dramHook()->onTransfer(at, 64, dram::Priority::Low);
    EXPECT_TRUE(hit.uncorrectable);
    EXPECT_EQ(fs.dram_uncorrectable, 1u);
    // ...and it never fires twice.
    auto later = inj.dramHook()->onTransfer(at + 10, 64,
                                            dram::Priority::Low);
    EXPECT_FALSE(later.uncorrectable);

    auto drop = inj.hostHook()->onTransfer(at, 64, dram::Priority::High);
    EXPECT_TRUE(drop.failed);
    EXPECT_EQ(fs.host_drops, 1u);

    ASSERT_EQ(inj.trace().size(), 2u);
    EXPECT_EQ(inj.trace()[0].kind, fault::FaultKind::DramUncorrectable);
    EXPECT_EQ(inj.trace()[1].kind, fault::FaultKind::HostLinkDrop);
}

TEST(FaultInjector, HangScheduleMergesScheduledAndPoisson)
{
    fault::FaultPlan plan;
    plan.scheduled.push_back({1e-3, fault::FaultKind::MmuHang});
    stats::FaultStats fs;
    {
        fault::FaultInjector inj(plan, kFreq, &fs);
        auto hangs = inj.hangSchedule(units::secondsToCycles(2e-3, kFreq));
        ASSERT_EQ(hangs.size(), 1u);
        EXPECT_EQ(hangs[0], units::secondsToCycles(1e-3, kFreq));
    }
    plan.mmu_hang_rate_per_s = 5000.0;
    fault::FaultInjector a(plan, kFreq, &fs);
    fault::FaultInjector b(plan, kFreq, &fs);
    Tick horizon = units::secondsToCycles(10e-3, kFreq);
    auto ha = a.hangSchedule(horizon);
    auto hb = b.hangSchedule(horizon);
    EXPECT_EQ(ha, hb); // same seed, same schedule
    EXPECT_GT(ha.size(), 1u);
    EXPECT_TRUE(std::is_sorted(ha.begin(), ha.end()));
    EXPECT_LE(ha.back(), horizon);
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

TEST(FaultPlan, DefaultPlanIsValidAndDisabled)
{
    fault::FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_TRUE(plan.validate().empty());
}

TEST(FaultPlan, ValidateCatchesBadKnobs)
{
    fault::FaultPlan plan;
    plan.host_drop_prob = 0.7;
    plan.host_corrupt_prob = 0.5; // sum >= 1: retries can never succeed
    plan.retry.backoff_multiplier = 0.5;
    plan.dram_bit_error_rate = -1.0;
    auto errors = plan.validate();
    EXPECT_GE(errors.size(), 3u);
}

TEST(FaultPlan, RejectsNanInEveryBound)
{
    // Every bound is written so that NaN and +-inf fail it; a NaN or
    // infinite rate or time would otherwise reach a seconds-to-cycles
    // cast, draw nothing, or (an infinite hang rate) never end the
    // hang schedule.
    struct Knob
    {
        const char *field; //!< substring the error must contain
        void (*set)(fault::FaultPlan &, double);
    };
    using Plan = fault::FaultPlan;
    const Knob knobs[] = {
        {"dram_bit_error_rate",
         [](Plan &p, double v) { p.dram_bit_error_rate = v; }},
        {"host_drop_prob", [](Plan &p, double v) { p.host_drop_prob = v; }},
        {"host_corrupt_prob",
         [](Plan &p, double v) { p.host_corrupt_prob = v; }},
        {"mmu_hang_rate_per_s",
         [](Plan &p, double v) { p.mmu_hang_rate_per_s = v; }},
        {"mmu-hang",
         [](Plan &p, double v) {
             p.scheduled.push_back({v, fault::FaultKind::MmuHang});
         }},
        {"retry.backoff_multiplier",
         [](Plan &p, double v) { p.retry.backoff_multiplier = v; }},
        {"retry.base_backoff_s",
         [](Plan &p, double v) { p.retry.base_backoff_s = v; }},
        {"retry.jitter_frac",
         [](Plan &p, double v) { p.retry.jitter_frac = v; }},
        {"retry.deadline_s",
         [](Plan &p, double v) { p.retry.deadline_s = v; }},
        {"watchdog.timeout_s",
         [](Plan &p, double v) { p.watchdog.timeout_s = v; }},
        {"watchdog.reset_cost_s",
         [](Plan &p, double v) { p.watchdog.reset_cost_s = v; }},
        {"watchdog.hang_duration_s",
         [](Plan &p, double v) { p.watchdog.hang_duration_s = v; }},
        {"degrade.storm_window_s",
         [](Plan &p, double v) { p.degrade.storm_window_s = v; }},
    };
    const double bad_values[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (const auto &k : knobs) {
        for (double v : bad_values) {
            Plan bad;
            k.set(bad, v);
            auto errors = bad.validate();
            EXPECT_TRUE(std::any_of(errors.begin(), errors.end(),
                                    [&k](const std::string &e) {
                                        return e.find(k.field) !=
                                               std::string::npos;
                                    }))
                << k.field << " = " << v;
        }
    }
}

TEST(FaultPlan, KindNamesAreStable)
{
    using fault::FaultKind;
    EXPECT_STREQ(fault::faultKindName(FaultKind::DramBitError),
                 "dram-bit-error");
    EXPECT_STREQ(fault::faultKindName(FaultKind::DramUncorrectable),
                 "dram-uncorrectable");
    EXPECT_STREQ(fault::faultKindName(FaultKind::HostLinkDrop),
                 "host-link-drop");
    EXPECT_STREQ(fault::faultKindName(FaultKind::HostLinkCorrupt),
                 "host-link-corrupt");
    EXPECT_STREQ(fault::faultKindName(FaultKind::MmuHang), "mmu-hang");
}

TEST(FaultPlan, ValidateCatchesEveryRecoveryKnob)
{
    fault::FaultPlan plan;
    plan.host_corrupt_prob = -0.25;
    plan.mmu_hang_rate_per_s = -2.0;
    plan.scheduled.push_back({-1.0, fault::FaultKind::MmuHang});
    plan.ecc.word_bits = 0;
    plan.retry.base_backoff_s = -1e-6;
    plan.watchdog.timeout_s = 0.0;
    plan.degrade.storm_faults = 0;
    plan.degrade.storm_window_s = 0.0;
    auto errors = plan.validate();
    EXPECT_EQ(errors.size(), 8u);
    auto mentions = [&errors](const char *needle) {
        for (const auto &e : errors) {
            if (e.find(needle) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(mentions("host_corrupt_prob"));
    EXPECT_TRUE(mentions("mmu_hang_rate_per_s"));
    EXPECT_TRUE(mentions("mmu-hang")); // scheduled fault names its kind
    EXPECT_TRUE(mentions("ecc.word_bits"));
    EXPECT_TRUE(mentions("backoff"));
    EXPECT_TRUE(mentions("watchdog"));
    EXPECT_TRUE(mentions("storm_faults"));
    EXPECT_TRUE(mentions("storm_window_s"));
}

TEST(ChaosPlan, ValidateCatchesZeroCrowdDuration)
{
    fault::ChaosPlan plan;
    plan.crowd.rate_per_s = 0.1;
    plan.crowd.duration_s = 0.0;
    auto errors = plan.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("crowd.duration_s"), std::string::npos);
}

TEST(ChaosPlan, ScheduledOutagesKeepSpecificReplicas)
{
    fault::ChaosPlan plan;
    plan.scheduled_outages.push_back({2, 1.0, 2.0});
    plan.scheduled_outages.push_back({2, 1.0, 3.0});
    plan.scheduled_outages.push_back({fault::kEveryReplica, 3.0, 4.0});
    plan.scheduled_surges.push_back({1.0, 3.0, 2.0});
    plan.scheduled_surges.push_back({1.0, 2.0, 2.0});
    EXPECT_TRUE(plan.validate().empty());
    auto mat = fault::materializeChaos(plan, 3, 10.0);
    // The sentinel expands to one window per replica; specific-replica
    // windows pass through untouched and sort by (from, replica, to).
    ASSERT_EQ(mat.outages.size(), 5u);
    EXPECT_EQ(mat.outages[0].replica, 2u);
    EXPECT_EQ(mat.outages[0].to_s, 2.0);
    EXPECT_EQ(mat.outages[1].replica, 2u);
    EXPECT_EQ(mat.outages[1].to_s, 3.0);
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(mat.outages[2 + r].replica, r);
    ASSERT_EQ(mat.surges.size(), 2u);
    EXPECT_EQ(mat.surges[0].to_s, 2.0); // same-from ties sort by to
}

TEST(ChaosPlan, RackOutagesDarkenWholeRacks)
{
    fault::ChaosPlan plan;
    plan.seed = 7;
    plan.rack.rack_size = 4;
    plan.rack.rate_per_s = 0.5;
    plan.rack.outage_s = 1.0;
    const std::size_t replicas = 10;
    const double horizon = 40.0;
    auto mat = fault::materializeChaos(plan, replicas, horizon);
    ASSERT_FALSE(mat.outages.empty());
    // Every rack event darkens one full rack over one shared window,
    // with the tail rack truncated to the replicas that exist.
    std::map<std::pair<double, double>, std::vector<std::size_t>> groups;
    for (const auto &o : mat.outages) {
        EXPECT_LT(o.replica, replicas);
        EXPECT_LT(o.from_s, o.to_s);
        EXPECT_LE(o.to_s, horizon);
        groups[{o.from_s, o.to_s}].push_back(o.replica);
    }
    for (const auto &[window, members] : groups) {
        std::size_t lo = members.front() - members.front() % 4;
        std::size_t hi = std::min(lo + 4, replicas);
        EXPECT_EQ(members.size(), hi - lo)
            << "window [" << window.first << ", " << window.second << ")";
        for (std::size_t i = 0; i < members.size(); ++i)
            EXPECT_EQ(members[i], lo + i);
    }
}

TEST(ChaosPlan, NamedScenariosValidateAndMaterialize)
{
    for (const auto &name : fault::chaosScenarioNames()) {
        auto plan = fault::chaosScenario(name, 100.0, 11);
        EXPECT_TRUE(plan.enabled()) << name;
        EXPECT_TRUE(plan.validate().empty()) << name;
        fault::materializeChaos(plan, 8, 100.0);
    }
    auto crowd = fault::chaosScenario("flash_crowd", 100.0, 11);
    EXPECT_EQ(crowd.scheduled_surges.size(), 2u);
    EXPECT_TRUE(crowd.scheduled_outages.empty());
    auto mixed = fault::chaosScenario("flash_crowd_outage", 100.0, 11);
    EXPECT_EQ(mixed.scheduled_surges.size(), 2u);
    EXPECT_EQ(mixed.scheduled_outages.size(), 1u);
    EXPECT_GT(mixed.storm.rate_per_s, 0.0);
}

TEST(ChaosPlanDeath, UnknownScenarioFailsFast)
{
    EXPECT_EXIT({ fault::chaosScenario("nope", 10.0, 1); },
                testing::ExitedWithCode(1), "unknown chaos scenario");
}

TEST(TrafficMix, ValidateNamesEveryBadKnob)
{
    fault::TrafficMix mix;
    mix.flash_crowds.push_back({-1.0, -2.0, 0.5}); // unordered, weak
    mix.diurnal.period_s = 100.0;
    mix.diurnal.peak_factor = 0.5;
    mix.diurnal.segments_per_period = 1;
    mix.diurnal.phase = 1.5;
    EXPECT_EQ(mix.validate().size(), 5u);

    fault::TrafficMix negative_period;
    negative_period.diurnal.period_s = -1.0;
    EXPECT_EQ(negative_period.validate().size(), 1u);
}

TEST(TrafficMix, MaterializeDropsFlatSpans)
{
    fault::TrafficMix mix;
    mix.flash_crowds.push_back({2.0, 4.0, 3.0});
    auto windows = fault::materializeTraffic(mix, 10.0);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_DOUBLE_EQ(windows[0].from_s, 2.0);
    EXPECT_DOUBLE_EQ(windows[0].to_s, 4.0);
    EXPECT_DOUBLE_EQ(windows[0].factor, 3.0);
}

TEST(TrafficMix, NamedScenariosShapeTheBlend)
{
    auto crowd = fault::trafficScenario("flash_crowd", 100.0);
    EXPECT_EQ(crowd.flash_crowds.size(), 2u);
    EXPECT_GT(crowd.factorAt(25.0), 2.0); // inside the 3x spike
    auto mt = fault::trafficScenario("multi_tenant", 100.0);
    ASSERT_EQ(mt.tenants.size(), 3u);
    // The spiky tenant's private 5x surge moves the blend by its share
    // only, so the composed factor stays strictly inside (1, 5).
    double inside = mt.factorAt(0.20 * 100.0);
    EXPECT_GT(inside, 1.0);
    EXPECT_LT(inside, 5.0);
}

TEST(TrafficMixDeath, MaterializeRejectsInvalidMix)
{
    fault::TrafficMix mix;
    mix.flash_crowds.push_back({2.0, 4.0, 0.5});
    EXPECT_EXIT({ fault::materializeTraffic(mix, 10.0); },
                testing::ExitedWithCode(1), "invalid traffic mix");
}

TEST(TrafficMixDeath, UnknownScenarioFailsFast)
{
    EXPECT_EXIT({ fault::trafficScenario("nope", 10.0); },
                testing::ExitedWithCode(1), "unknown traffic scenario");
}

TEST(AcceleratorConfig, DefaultConfigValidates)
{
    EXPECT_TRUE(sim::AcceleratorConfig{}.validate().empty());
    EXPECT_TRUE(smallConfig().validate().empty());
}

TEST(AcceleratorConfig, ValidateNamesTheOffendingField)
{
    auto cfg = smallConfig();
    cfg.n = 0;
    cfg.frequency_hz = 0.0;
    cfg.train_staging_frac = 1.5;
    auto errors = cfg.validate();
    EXPECT_GE(errors.size(), 3u);
    auto report = sim::formatConfigErrors(errors);
    EXPECT_NE(report.find("frequency_hz"), std::string::npos);
    EXPECT_NE(report.find("train_staging_frac"), std::string::npos);
}

TEST(AcceleratorConfig, RejectsNanInEveryBound)
{
    // NaN and +-inf fail every bound instead of slipping past
    // `x < 0`: a non-finite clock or bandwidth would otherwise reach
    // cycle conversions, and an infinite software turnaround would
    // stop SoftwareBatch training after its first issue.
    struct Knob
    {
        const char *field; //!< substring the error's field must contain
        void (*set)(sim::AcceleratorConfig &, double);
    };
    using Cfg = sim::AcceleratorConfig;
    const Knob knobs[] = {
        {"frequency_hz", [](Cfg &c, double v) { c.frequency_hz = v; }},
        {"train_staging_frac",
         [](Cfg &c, double v) { c.train_staging_frac = v; }},
        {"batch_timeout_mult",
         [](Cfg &c, double v) {
             c.batch_policy = sim::BatchPolicy::Adaptive;
             c.batch_timeout_mult = v;
         }},
        {"software_turnaround_s",
         [](Cfg &c, double v) { c.software_turnaround_s = v; }},
        {"dram.bandwidth_bytes_per_s",
         [](Cfg &c, double v) { c.dram.bandwidth_bytes_per_s = v; }},
        {"host.bandwidth_bytes_per_s",
         [](Cfg &c, double v) { c.host.bandwidth_bytes_per_s = v; }},
        {"dram.latency_s", [](Cfg &c, double v) { c.dram.latency_s = v; }},
        {"host.latency_s", [](Cfg &c, double v) { c.host.latency_s = v; }},
    };
    const double bad_values[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (const auto &k : knobs) {
        for (double v : bad_values) {
            auto bad = smallConfig();
            k.set(bad, v);
            auto errors = bad.validate();
            EXPECT_TRUE(std::any_of(errors.begin(), errors.end(),
                                    [&k](const sim::ConfigError &e) {
                                        return e.field.find(k.field) !=
                                               std::string::npos;
                                    }))
                << k.field << " = " << v;
        }
    }
}

TEST(AcceleratorConfigDeath, ConstructionFailsFastOnBadConfig)
{
    auto cfg = smallConfig();
    cfg.frequency_hz = -1.0;
    EXPECT_EXIT({ sim::Accelerator accel(cfg); },
                testing::ExitedWithCode(1),
                "invalid accelerator configuration");
}

// ---------------------------------------------------------------------
// End-to-end recovery behaviour
// ---------------------------------------------------------------------

TEST(FaultRecovery, WatchdogResetHasExactCost)
{
    auto cfg = smallConfig();
    sim::Accelerator accel(cfg);
    accel.installInference(syntheticService(4, 3, 100, 10, 5));

    sim::RunSpec spec;
    spec.arrival_rate_per_s = 2000.0;
    spec.warmup_requests = 0;
    spec.measure_requests = 400;
    spec.seed = 3;
    spec.faults.scheduled.push_back({0.01, fault::FaultKind::MmuHang});
    spec.faults.watchdog.timeout_s = 500e-6;
    spec.faults.watchdog.reset_cost_s = 50e-6;
    auto res = accel.run(spec);

    EXPECT_EQ(res.faults.mmu_hangs, 1u);
    EXPECT_EQ(res.faults.watchdog_resets, 1u);
    // The synthetic service has no weight footprint, so the outage is
    // exactly detection timeout + fixed reset cost.
    Tick expect = units::secondsToCycles(550e-6, cfg.frequency_hz);
    EXPECT_EQ(res.faults.downtime_cycles, expect);
    EXPECT_LT(res.availability, 1.0);
    EXPECT_GT(res.availability, 0.0);
    EXPECT_GE(res.faults.recovery_cycles.count(), 1u);
    EXPECT_EQ(res.completed_requests, 400u);
}

TEST(FaultRecovery, UndetectedHangClearsAfterItsDuration)
{
    auto cfg = smallConfig();
    sim::Accelerator accel(cfg);
    accel.installInference(syntheticService(4, 3, 100, 10, 5));

    sim::RunSpec spec;
    spec.arrival_rate_per_s = 2000.0;
    spec.warmup_requests = 0;
    spec.measure_requests = 400;
    spec.seed = 3;
    spec.faults.scheduled.push_back({0.01, fault::FaultKind::MmuHang});
    spec.faults.watchdog.enabled = false;
    spec.faults.watchdog.hang_duration_s = 2e-3;
    auto res = accel.run(spec);

    EXPECT_EQ(res.faults.mmu_hangs, 1u);
    EXPECT_EQ(res.faults.watchdog_resets, 0u);
    Tick expect = units::secondsToCycles(2e-3, cfg.frequency_hz);
    EXPECT_EQ(res.faults.downtime_cycles, expect);
    EXPECT_EQ(res.completed_requests, 400u);
}

TEST(FaultRecovery, HugeFiniteTimesSaturateAtNever)
{
    // 1e300 s is finite, so it validates, but no Tick holds its cycle
    // count: the detection, clear and reset times saturate at "never"
    // instead of wrapping into the past, and a retry whose backoff
    // saturates gives the payload up.
    struct Knob
    {
        const char *field;
        void (*set)(fault::FaultPlan &);
    };
    const Knob knobs[] = {
        {"watchdog.timeout_s",
         [](fault::FaultPlan &p) { p.watchdog.timeout_s = 1e300; }},
        {"watchdog.hang_duration_s",
         [](fault::FaultPlan &p) {
             p.watchdog.enabled = false;
             p.watchdog.hang_duration_s = 1e300;
         }},
        {"watchdog.reset_cost_s",
         [](fault::FaultPlan &p) { p.watchdog.reset_cost_s = 1e300; }},
        {"retry.backoff_multiplier",
         [](fault::FaultPlan &p) {
             p.host_drop_prob = 0.3;
             p.retry.backoff_multiplier = 1e300;
         }},
    };
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    for (const auto &k : knobs) {
        sim::Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(tinyRnn()));
        sim::RunSpec spec;
        spec.warmup_requests = 0;
        spec.measure_requests = 200;
        spec.seed = 3;
        spec.max_sim_s = 0.05;
        spec.arrival_rate_per_s = 0.3 * accel.maxRequestRate();
        spec.faults.scheduled.push_back({1e-4, fault::FaultKind::MmuHang});
        k.set(spec.faults);
        ASSERT_TRUE(spec.faults.validate().empty()) << k.field;
        auto res = accel.run(spec);
        const auto &fs = res.faults;
        EXPECT_EQ(fs.mmu_hangs, 1u) << k.field;
        EXPECT_EQ(fs.host_drops + fs.host_corruptions,
                  fs.host_retries + fs.host_give_ups)
            << k.field;
    }
}

TEST(FaultRecovery, RetryRecoversEveryLossWithoutLivelock)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));

    sim::RunSpec spec;
    spec.warmup_requests = 30;
    spec.measure_requests = 400;
    spec.seed = 5;
    spec.arrival_rate_per_s = 0.4 * accel.maxRequestRate();
    spec.faults.host_drop_prob = 0.2;
    spec.faults.host_corrupt_prob = 0.1;
    auto res = accel.run(spec);

    const auto &fs = res.faults;
    EXPECT_GT(fs.host_drops + fs.host_corruptions, 0u);
    // Every detected loss is either retried or (rarely) given up on.
    EXPECT_EQ(fs.host_drops + fs.host_corruptions,
              fs.host_retries + fs.host_give_ups);
    EXPECT_GE(res.completed_requests, 400u); // made progress: no livelock
}

TEST(FaultRecovery, CheckpointBoundsIterationsLostToRollback)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);
    sim::Accelerator accel(cfg);
    accel.installInference(compiler.compileInference(tinyRnn()));
    accel.installTraining(compiler.compileTraining(tinyRnn(), 16));

    sim::RunSpec spec;
    spec.arrival_rate_per_s = 0.0;
    spec.measure_iterations = 30;
    spec.faults.checkpoint.interval_iterations = 5;
    for (double at : {2e-5, 6e-5, 1e-4})
        spec.faults.scheduled.push_back(
            {at, fault::FaultKind::DramUncorrectable});
    auto res = accel.run(spec);

    const auto &fs = res.faults;
    EXPECT_EQ(fs.dram_uncorrectable, 3u);
    EXPECT_GE(fs.rollbacks, 1u);
    EXPECT_GT(fs.checkpoints_written, 0u);
    // A checkpoint every 5 iterations means no rollback can replay more
    // than 5 (barring a failed checkpoint write, absent here).
    EXPECT_LE(fs.lost_training_iterations, 5 * fs.rollbacks);
    EXPECT_EQ(res.training_iterations, 30u);
    EXPECT_GT(res.committed_training_iterations, 0u);
}

// ---------------------------------------------------------------------
// Determinism and the zero-rate guarantee
// ---------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedAndPlanIsBitIdentical)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);

    auto run_once = [&] {
        sim::Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(tinyRnn()));
        accel.installTraining(compiler.compileTraining(tinyRnn(), 16));
        sim::RunSpec spec;
        spec.warmup_requests = 30;
        spec.measure_requests = 500;
        spec.seed = 17;
        spec.arrival_rate_per_s = 0.4 * accel.maxRequestRate();
        spec.faults.seed = 23;
        spec.faults.dram_bit_error_rate = 1e-7;
        spec.faults.host_drop_prob = 0.05;
        spec.faults.mmu_hang_rate_per_s = 200.0;
        return accel.run(spec);
    };

    auto a = run_once();
    auto b = run_once();

    EXPECT_GT(a.faults.totalFaults(), 0u);
    EXPECT_EQ(a.fault_trace, b.fault_trace);
    EXPECT_EQ(a.faults.dram_corrected, b.faults.dram_corrected);
    EXPECT_EQ(a.faults.dram_uncorrectable, b.faults.dram_uncorrectable);
    EXPECT_EQ(a.faults.host_drops, b.faults.host_drops);
    EXPECT_EQ(a.faults.host_retries, b.faults.host_retries);
    EXPECT_EQ(a.faults.mmu_hangs, b.faults.mmu_hangs);
    EXPECT_EQ(a.faults.watchdog_resets, b.faults.watchdog_resets);
    EXPECT_EQ(a.faults.rollbacks, b.faults.rollbacks);
    EXPECT_EQ(a.faults.downtime_cycles, b.faults.downtime_cycles);
    EXPECT_EQ(a.completed_requests, b.completed_requests);
    EXPECT_EQ(a.training_iterations, b.training_iterations);
    EXPECT_EQ(a.mean_latency_s, b.mean_latency_s);
    EXPECT_EQ(a.p99_latency_s, b.p99_latency_s);
    EXPECT_EQ(a.availability, b.availability);
}

TEST(FaultDeterminism, ZeroRatePlanIsIdenticalToNoPlan)
{
    auto cfg = smallConfig();
    workload::Compiler compiler(cfg);

    auto run_once = [&](bool touch_policies) {
        sim::Accelerator accel(cfg);
        accel.installInference(compiler.compileInference(tinyRnn()));
        sim::RunSpec spec;
        spec.warmup_requests = 30;
        spec.measure_requests = 500;
        spec.seed = 9;
        spec.arrival_rate_per_s = 0.5 * accel.maxRequestRate();
        if (touch_policies) {
            // Policy knobs without any fault process must change nothing.
            spec.faults.retry.max_retries = 3;
            spec.faults.watchdog.timeout_s = 1e-3;
            spec.faults.checkpoint.interval_iterations = 2;
        }
        return accel.run(spec);
    };

    auto plain = run_once(false);
    auto zero = run_once(true);

    EXPECT_EQ(zero.faults.totalFaults(), 0u);
    EXPECT_TRUE(zero.fault_trace.empty());
    EXPECT_EQ(zero.availability, 1.0);
    EXPECT_EQ(plain.completed_requests, zero.completed_requests);
    EXPECT_EQ(plain.mean_latency_s, zero.mean_latency_s);
    EXPECT_EQ(plain.p99_latency_s, zero.p99_latency_s);
    EXPECT_EQ(plain.inference_throughput_ops,
              zero.inference_throughput_ops);
}

} // namespace
} // namespace equinox
