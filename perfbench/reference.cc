#include "reference.hh"

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "trace.hh"

namespace perfbench
{

namespace
{

volatile std::uint64_t sink;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Pop-fire-push on a heap of timestamped callbacks. */
std::uint64_t
eventQueue()
{
    struct Event
    {
        std::uint64_t tick;
        std::function<void()> fire;

        bool operator>(const Event &o) const { return tick > o.tick; }
    };
    std::uint64_t x = 88172645463325252ull, acc = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    for (std::uint64_t i = 0; i < 1024; ++i)
        queue.push({xorshift(x) % 100000, [&acc, i] { acc += i; }});
    for (std::uint64_t i = 0; i < 100000; ++i) {
        Event ev = queue.top();
        queue.pop();
        ev.fire();
        queue.push({ev.tick + xorshift(x) % 1000, [&acc, i] { acc ^= i; }});
    }
    return acc;
}

/** Random updates of a hash table of a few thousand keys. */
std::uint64_t
hashTable()
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::uint64_t i = 0; i < 1200000; ++i)
        table[xorshift(x) & 4095] += i;
    return table.size() + table[0];
}

/** Lookups in a set-associative tag array with LRU ages. */
std::uint64_t
tagScan()
{
    constexpr std::size_t kSets = 512, kWays = 8;
    std::vector<std::uint64_t> tags(kSets * kWays, ~0ull);
    std::vector<std::uint32_t> ages(kSets * kWays, 0);
    std::uint64_t x = 0x2545f4914f6cdd1dull, hits = 0;
    for (std::uint64_t i = 0; i < 600000; ++i) {
        std::uint64_t line = (i & 3) ? i : xorshift(x) & 0xfffff;
        std::size_t base = (line % kSets) * kWays, victim = base;
        bool hit = false;
        for (std::size_t w = base; w < base + kWays; ++w) {
            ++ages[w];
            if (tags[w] == line) {
                hit = true;
                ages[w] = 0;
            } else if (ages[w] > ages[victim]) {
                victim = w;
            }
        }
        if (hit) {
            ++hits;
        } else {
            tags[victim] = line;
            ages[victim] = 0;
        }
    }
    return hits;
}

/** A naive matrix product with double accumulation. */
std::uint64_t
multiplyAdd()
{
    constexpr std::size_t kN = 96;
    std::vector<float> a(kN * kN), b(kN * kN), c(kN * kN);
    for (std::size_t i = 0; i < kN * kN; ++i) {
        a[i] = static_cast<float>(i % 17) * 0.25f;
        b[i] = static_cast<float>(i % 13) * 0.5f;
    }
    for (int rep = 0; rep < 24; ++rep) {
        for (std::size_t i = 0; i < kN; ++i) {
            for (std::size_t j = 0; j < kN; ++j) {
                double acc = 0.0;
                for (std::size_t p = 0; p < kN; ++p)
                    acc += static_cast<double>(a[i * kN + p]) *
                           static_cast<double>(b[p * kN + j]);
                c[i * kN + j] = static_cast<float>(acc);
            }
        }
    }
    return static_cast<std::uint64_t>(c[kN * kN - 1]);
}

} // namespace

double
referenceSeconds()
{
    auto t0 = Clock::now();
    sink = sink + eventQueue() + hashTable() + tagScan() + multiplyAdd();
    return secondsSince(t0);
}

} // namespace perfbench
