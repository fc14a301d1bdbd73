/**
 * @file
 * The reference kernel the benchmark measures host speed with. The
 * host the benchmark was sized on runs the same code up to ~1.7x
 * slower for stretches of seconds to minutes. Timing this fixed kernel
 * next to every round lets the driver cancel that factor.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

namespace perfbench
{

/**
 * Nominal host seconds of one referenceSeconds() call. Normalized
 * seconds are host seconds x kReferenceNominalS / the kernel's
 * measured time: host seconds on a host where the kernel takes
 * exactly this long.
 */
constexpr double kReferenceNominalS = 0.040;

/**
 * Run the reference kernel once and return its host seconds. The
 * kernel is fixed work that calls nothing under src/, so no change to
 * the program can move it. Its four parts, of similar length, mimic
 * the workloads' kinds of host work: a heap of timestamped callbacks
 * (the event kernel), hash-table updates (the routing tier),
 * set-associative tag lookups (the LLC model) and a naive matrix
 * product (GEMM).
 */
double referenceSeconds();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
