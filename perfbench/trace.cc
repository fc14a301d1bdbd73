#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

Tracer::Scope::~Scope()
{
    if (tracer_)
        tracer_->close(index_);
}

Tracer::Scope
Tracer::span(std::string name)
{
    if (!enabled_)
        return Scope(nullptr, 0);
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1
                             : static_cast<std::ptrdiff_t>(open_.back());
    s.run = run_;
    s.start = secondsSince(epoch_);
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return Scope(this, spans_.size() - 1);
}

void
Tracer::close(std::size_t index)
{
    spans_[index].end = secondsSince(epoch_);
    // Scopes are stack objects, so they close innermost first.
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    char buf[96];
    for (const Span &s : spans_) {
        std::snprintf(buf, sizeof buf,
                      "\"start\":%.9f,\"end\":%.9f,\"parent\":%td,"
                      "\"run\":%llu}\n",
                      s.start, s.end, s.parent,
                      static_cast<unsigned long long>(s.run));
        // Span names are benchmark-chosen identifiers: no escaping.
        out << "{\"name\":\"" << s.name << "\"," << buf;
    }
    return static_cast<bool>(out);
}

double
coveredLength(std::vector<std::pair<double, double>> intervals, double lo,
              double hi)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    auto flush = [&] {
        if (open) {
            double a = std::max(cur_lo, lo), b = std::min(cur_hi, hi);
            if (b > a)
                covered += b - a;
        }
    };
    for (const auto &[a, b] : intervals) {
        if (b <= a)
            continue;
        if (open && a <= cur_hi) {
            cur_hi = std::max(cur_hi, b);
            continue;
        }
        flush();
        cur_lo = a;
        cur_hi = b;
        open = true;
    }
    flush();
    return covered;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            children[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start, s.end);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double dur = spans[i].end - spans[i].start;
        self[i] = dur - coveredLength(std::move(children[i]),
                                      spans[i].start, spans[i].end);
    }
    return self;
}

double
totalDuration(const std::vector<Span> &spans, std::string_view name)
{
    double total = 0.0;
    for (const Span &s : spans) {
        if (s.name == name)
            total += s.end - s.start;
    }
    return total;
}

double
totalSelf(const std::vector<Span> &spans, const std::vector<double> &self,
          std::string_view name)
{
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == name)
            total += self[i];
    }
    return total;
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

} // namespace perfbench
