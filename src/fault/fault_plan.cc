#include "fault/fault_plan.hh"

#include <cmath>
#include <sstream>

namespace equinox
{
namespace fault
{

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::DramBitError: return "dram-bit-error";
      case FaultKind::DramUncorrectable: return "dram-uncorrectable";
      case FaultKind::HostLinkDrop: return "host-link-drop";
      case FaultKind::HostLinkCorrupt: return "host-link-corrupt";
      case FaultKind::MmuHang: return "mmu-hang";
      default: return "?";
    }
}

bool
FaultPlan::enabled() const
{
    return dram_bit_error_rate > 0.0 || host_drop_prob > 0.0 ||
           host_corrupt_prob > 0.0 || mmu_hang_rate_per_s > 0.0 ||
           !scheduled.empty();
}

std::vector<std::string>
FaultPlan::validate() const
{
    std::vector<std::string> errors;
    auto complain = [&errors](auto &&...parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        errors.push_back(oss.str());
    };
    // Bounds are written so that NaN fails them. Every knob below is
    // a rate or is converted to cycles, so it must also be finite: an
    // infinite hang rate makes every exponential wait zero, and an
    // infinite time has no cycle count.
    auto atLeast0 = [&complain](const char *field, double v) {
        if (!(v >= 0.0 && std::isfinite(v)))
            complain(field, " must be finite and >= 0 (got ", v, ")");
    };
    auto positive = [&complain](const char *field, double v) {
        if (!(v > 0.0 && std::isfinite(v)))
            complain(field, " must be finite and positive (got ", v, ")");
    };

    if (!(dram_bit_error_rate >= 0.0 &&
          std::isfinite(dram_bit_error_rate))) {
        complain("dram_bit_error_rate must be finite and >= 0 (got ",
                 dram_bit_error_rate, "); it is flips per bit moved");
    }
    if (!(host_drop_prob >= 0.0 && host_drop_prob < 1.0)) {
        complain("host_drop_prob must be in [0, 1) (got ", host_drop_prob,
                 "); 1.0 would make every transfer fail forever");
    }
    if (!(host_corrupt_prob >= 0.0 && host_corrupt_prob < 1.0)) {
        complain("host_corrupt_prob must be in [0, 1) (got ",
                 host_corrupt_prob, ")");
    }
    if (host_drop_prob + host_corrupt_prob >= 1.0) {
        complain("host_drop_prob + host_corrupt_prob must stay below 1 "
                 "(got ", host_drop_prob + host_corrupt_prob,
                 ") or retries can never succeed");
    }
    atLeast0("mmu_hang_rate_per_s", mmu_hang_rate_per_s);
    for (const auto &sf : scheduled) {
        if (!(sf.at_s >= 0.0 && std::isfinite(sf.at_s))) {
            complain("scheduled fault '", faultKindName(sf.kind),
                     "' needs a finite time >= 0 (got ", sf.at_s, " s)");
        }
    }
    if (ecc.word_bits == 0) {
        complain("ecc.word_bits must be positive; SECDED(72,64) uses 64");
    }
    if (!(retry.backoff_multiplier >= 1.0 &&
          std::isfinite(retry.backoff_multiplier))) {
        complain("retry.backoff_multiplier must be finite and >= 1 (got ",
                 retry.backoff_multiplier,
                 "); shrinking backoff invites livelock");
    }
    atLeast0("retry.base_backoff_s", retry.base_backoff_s);
    atLeast0("retry.jitter_frac", retry.jitter_frac);
    atLeast0("retry.deadline_s", retry.deadline_s);
    positive("watchdog.timeout_s", watchdog.timeout_s);
    atLeast0("watchdog.reset_cost_s", watchdog.reset_cost_s);
    positive("watchdog.hang_duration_s", watchdog.hang_duration_s);
    if (degrade.enabled && degrade.storm_faults == 0) {
        complain("degrade.storm_faults must be >= 1 when degradation is "
                 "enabled, else every run is a permanent storm");
    }
    if (degrade.enabled)
        positive("degrade.storm_window_s", degrade.storm_window_s);
    return errors;
}

} // namespace fault
} // namespace equinox
