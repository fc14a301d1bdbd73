#include "sim/config.hh"

#include <cmath>
#include <sstream>

namespace equinox
{
namespace sim
{

const char *
batchPolicyName(BatchPolicy p)
{
    switch (p) {
      case BatchPolicy::Static: return "static";
      case BatchPolicy::Adaptive: return "adaptive";
      default: return "?";
    }
}

const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::InferenceOnly: return "inference-only";
      case SchedPolicy::Priority: return "priority";
      case SchedPolicy::FairShare: return "fair-share";
      case SchedPolicy::SoftwareBatch: return "software-batch";
      default: return "?";
    }
}

double
AcceleratorConfig::bytesPerValue() const
{
    switch (encoding) {
      case arith::Encoding::Hbfp8:
        // 8-bit mantissa + 12-bit exponent shared by a 256-value block.
        return (8.0 + 12.0 / 256.0) / 8.0;
      case arith::Encoding::Bfloat16:
        return 2.0;
      case arith::Encoding::Fp32:
        return 4.0;
      default:
        return 4.0;
    }
}

std::vector<ConfigError>
AcceleratorConfig::validate() const
{
    std::vector<ConfigError> errors;
    auto bad = [&errors](std::string field, auto &&...parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        errors.push_back({std::move(field), oss.str()});
    };

    if (n == 0 || m == 0 || w == 0) {
        bad("n/m/w", "MMU geometry must be positive (got n=", n, " m=", m,
            " w=", w, "); the paper's design points use n in [64, 256], "
            "m in [1, 8], w in [1, 8]");
    }
    if (!(frequency_hz > 0.0) || !std::isfinite(frequency_hz)) {
        bad("frequency_hz", "clock must be finite and positive (got ",
            frequency_hz,
            "); e.g. units::MHz(610) for the Equinox_500us design");
    }
    if (act_buffer_bytes == 0 || weight_buffer_bytes == 0) {
        bad("act_buffer_bytes/weight_buffer_bytes",
            "on-chip buffers cannot be empty; services install weights "
            "and activations into them at startup");
    }
    if (instr_buffer_bytes == 0) {
        bad("instr_buffer_bytes",
            "instruction buffer cannot be empty; compiled programs are "
            "resident for the lifetime of a service");
    }
    if (simd_lanes == 0) {
        bad("simd_lanes", "the SIMD unit needs at least one lane; every "
            "step's epilogue (activations, recurrences) runs there");
    }
    if (!(train_staging_frac >= 0.0 && train_staging_frac < 1.0)) {
        bad("train_staging_frac", "training staging share must be in "
            "[0, 1) of the activation+weight buffers (got ",
            train_staging_frac, "); the paper carves out <2% (0.02)");
    }
    if ((!(batch_timeout_mult > 0.0) || !std::isfinite(batch_timeout_mult)) &&
        batch_policy == BatchPolicy::Adaptive) {
        bad("batch_timeout_mult", "adaptive batching needs a finite, "
            "positive timeout multiple of the service time (got ",
            batch_timeout_mult, "); use BatchPolicy::Static to always "
            "wait for full batches instead");
    }
    if (spike_threshold_batches == 0 &&
        sched_policy == SchedPolicy::Priority) {
        bad("spike_threshold_batches", "the priority scheduler's spike "
            "freeze triggers at >= this many unstarted batches; 0 would "
            "freeze training permanently -- use SchedPolicy::"
            "InferenceOnly if that is the intent");
    }
    // An infinite turnaround would stop SoftwareBatch training after
    // its first issue; the other times and rates reach cycle casts.
    if (!(software_turnaround_s >= 0.0) ||
        !std::isfinite(software_turnaround_s)) {
        bad("software_turnaround_s", "software-scheduler turnaround "
            "must be finite and >= 0 (got ", software_turnaround_s, ")");
    }
    if (!(dram.bandwidth_bytes_per_s > 0.0) ||
        !std::isfinite(dram.bandwidth_bytes_per_s)) {
        bad("dram.bandwidth_bytes_per_s", "DRAM bandwidth must be "
            "finite and positive (got ", dram.bandwidth_bytes_per_s,
            "); e.g. 1e12 for an HBM2 stack");
    }
    if (!(host.bandwidth_bytes_per_s > 0.0) ||
        !std::isfinite(host.bandwidth_bytes_per_s)) {
        bad("host.bandwidth_bytes_per_s", "host-link bandwidth must be "
            "finite and positive (got ", host.bandwidth_bytes_per_s,
            "); e.g. 32e9 for PCIe gen4 x16");
    }
    if (!(dram.latency_s >= 0.0 && host.latency_s >= 0.0) ||
        !std::isfinite(dram.latency_s) || !std::isfinite(host.latency_s)) {
        bad("dram.latency_s/host.latency_s",
            "interface latencies must be finite and >= 0");
    }
    for (const auto &me : mem.validate())
        errors.push_back({"mem." + me.field, me.message});
    return errors;
}

std::string
formatConfigErrors(const std::vector<ConfigError> &errors)
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (i)
            oss << '\n';
        oss << "  " << errors[i].field << ": " << errors[i].message;
    }
    return oss.str();
}

} // namespace sim
} // namespace equinox
