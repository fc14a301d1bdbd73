#include "cluster/admission.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace equinox
{
namespace cluster
{

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
    case AdmissionPolicy::None:
        return "none";
    case AdmissionPolicy::TokenBucket:
        return "token_bucket";
    case AdmissionPolicy::QueueDepth:
        return "queue_depth";
    case AdmissionPolicy::PriorityShed:
        return "priority_shed";
    }
    return "unknown";
}

std::vector<AdmissionPolicy>
allAdmissionPolicies()
{
    return {AdmissionPolicy::None, AdmissionPolicy::TokenBucket,
            AdmissionPolicy::QueueDepth, AdmissionPolicy::PriorityShed};
}

std::vector<std::string>
AdmissionConfig::validate() const
{
    std::vector<std::string> errors;
    auto complain = [&errors](auto &&...parts) {
        std::ostringstream oss;
        (oss << ... << parts);
        errors.push_back(oss.str());
    };

    if (!(background_fraction >= 0.0 && background_fraction <= 1.0)) {
        complain("admission.background_fraction must be in [0, 1] "
                 "(got ", background_fraction, ")");
    }
    // Each knob below also rejects +-inf: an infinite rate, bucket or
    // threshold silently switches its policy off.
    if (policy == AdmissionPolicy::TokenBucket &&
        (!(rate_factor > 0.0) || !std::isfinite(rate_factor))) {
        complain("admission.rate_factor must be finite and positive "
                 "with the token_bucket policy (got ", rate_factor,
                 "); 0 would admit nothing, ever");
    }
    if (policy == AdmissionPolicy::TokenBucket &&
        (!(burst >= 1.0) || !std::isfinite(burst))) {
        complain("admission.burst must be finite and >= 1 with the "
                 "token_bucket policy (got ", burst,
                 "); the bucket must hold at least one request");
    }
    if (policy == AdmissionPolicy::QueueDepth &&
        (!(target_backlog > 0.0) || !std::isfinite(target_backlog))) {
        complain("admission.target_backlog must be finite and positive "
                 "with the queue_depth policy (got ", target_backlog,
                 ")");
    }
    if (policy == AdmissionPolicy::QueueDepth && interval_cycles == 0) {
        complain("admission.interval_cycles must be >= 1 with the "
                 "queue_depth policy; a zero CoDel interval sheds on "
                 "the first backlog excursion");
    }
    if (policy == AdmissionPolicy::PriorityShed) {
        if (!(background_watermark > 0.0)) {
            complain("admission.background_watermark must be positive "
                     "with the priority_shed policy (got ",
                     background_watermark, ")");
        }
        if (!(inference_watermark > background_watermark) ||
            !std::isfinite(inference_watermark)) {
            complain("admission.inference_watermark (",
                     inference_watermark,
                     ") must be finite and exceed background_watermark (",
                     background_watermark,
                     ") or background is never shed first");
        }
    }
    return errors;
}

void
AdmissionStats::merge(const AdmissionStats &other)
{
    offered += other.offered;
    offered_background += other.offered_background;
    admitted += other.admitted;
    shed_rate_limited += other.shed_rate_limited;
    shed_queue += other.shed_queue;
    shed_background += other.shed_background;
    shed_inference += other.shed_inference;
    deadline_missed += other.deadline_missed;
}

AdmissionController::AdmissionController(const AdmissionConfig &cfg,
                                         double tokens_per_cycle)
    : cfg_(cfg), tokens_per_cycle_(tokens_per_cycle),
      tokens_(cfg.burst)
{
    if (cfg_.policy == AdmissionPolicy::TokenBucket) {
        EQX_ASSERT(tokens_per_cycle_ > 0.0,
                   "token bucket needs a positive refill rate");
    }
}

bool
AdmissionController::offerTokenBucket(Tick t)
{
    tokens_ = std::min(
        cfg_.burst,
        tokens_ + static_cast<double>(t - last_refill_) *
                      tokens_per_cycle_);
    last_refill_ = t;
    if (tokens_ >= 1.0) {
        tokens_ -= 1.0;
        return true;
    }
    ++stats_.shed_rate_limited;
    return false;
}

bool
AdmissionController::offerQueueDepth(Tick t, double mean_backlog)
{
    // CoDel's control law on the fluid backlog: shedding starts only
    // once the backlog has stayed above target for a full interval,
    // then spaces drops at interval / sqrt(drop_count) so pressure
    // ramps up the longer the overload persists, and stops the moment
    // the backlog dips back under target.
    if (mean_backlog <= cfg_.target_backlog) {
        above_target_ = false;
        dropping_ = false;
        drop_count_ = 0;
        return true;
    }
    if (!above_target_) {
        above_target_ = true;
        above_since_ = t;
        return true;
    }
    if (!dropping_) {
        if (t - above_since_ < cfg_.interval_cycles)
            return true;
        dropping_ = true;
        drop_count_ = 1;
        next_drop_ = saturatingAdd(
            t, static_cast<Tick>(
                   static_cast<double>(cfg_.interval_cycles) /
                   std::sqrt(static_cast<double>(drop_count_ + 1))));
        ++stats_.shed_queue;
        return false;
    }
    if (t >= next_drop_) {
        ++drop_count_;
        next_drop_ = saturatingAdd(
            t, static_cast<Tick>(
                   static_cast<double>(cfg_.interval_cycles) /
                   std::sqrt(static_cast<double>(drop_count_ + 1))));
        ++stats_.shed_queue;
        return false;
    }
    return true;
}

bool
AdmissionController::offerPriority(bool background, double mean_backlog)
{
    if (background && mean_backlog > cfg_.background_watermark) {
        ++stats_.shed_background;
        return false;
    }
    if (!background && mean_backlog > cfg_.inference_watermark) {
        ++stats_.shed_inference;
        return false;
    }
    return true;
}

bool
AdmissionController::offer(Tick t, bool background, double mean_backlog)
{
    ++stats_.offered;
    if (background)
        ++stats_.offered_background;

    bool admit = true;
    switch (cfg_.policy) {
    case AdmissionPolicy::None:
        break;
    case AdmissionPolicy::TokenBucket:
        admit = offerTokenBucket(t);
        break;
    case AdmissionPolicy::QueueDepth:
        admit = offerQueueDepth(t, mean_backlog);
        break;
    case AdmissionPolicy::PriorityShed:
        admit = offerPriority(background, mean_backlog);
        break;
    }
    if (admit)
        ++stats_.admitted;
    return admit;
}

void
AdmissionController::noteDispatch(double estimate_cycles)
{
    if (cfg_.deadline_cycles > 0 &&
        estimate_cycles > static_cast<double>(cfg_.deadline_cycles))
        ++stats_.deadline_missed;
}

} // namespace cluster
} // namespace equinox
