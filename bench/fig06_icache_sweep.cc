/**
 * @file
 * Figure 6: effect of I-cache size and associativity on the OS
 * instruction miss rate, relative to the measured 64 KB direct-mapped
 * machine. Replays the recorded miss stream through larger caches,
 * with a no-invalidation variant exposing the Inval floor.
 *
 * A replay splits exactly by simulated CPU, so the sweep runs one
 * task per CPU on the runner's pool. Each task replays its CPU for
 * every workload and geometry, one geometry at a time; the main
 * thread sums the counts and prints.
 *
 * Shape: 2-way < direct-mapped at each size; Pmake and Multpgm
 * saturate near 256 KB on the Inval floor; Oracle keeps dropping
 * toward 1 MB.
 */

#include <array>
#include <future>

#include "bench/analyses.hh"

using namespace mpos;

namespace
{

constexpr uint64_t sizesKb[] = {64, 128, 256, 512, 1024};
constexpr size_t numSizes = std::size(sizesKb);
constexpr size_t numWorkloads = std::size(bench::allWorkloads);

/** Miss counts at one cache size. */
struct SizeCounts
{
    core::ResimPairResult direct; ///< Both direct-mapped curves.
    core::ResimResult twoway;     ///< Unset at the measured size.
};

using Counts =
    std::array<std::array<SizeCounts, numSizes>, numWorkloads>;
using Streams = std::array<const core::ICacheResim *, numWorkloads>;

/** Every replay of one simulated CPU. */
Counts
replayCpu(const Streams &rs, sim::CpuId cpu)
{
    Counts n{};
    for (size_t w = 0; w < numWorkloads; ++w) {
        for (size_t s = 0; s < numSizes; ++s) {
            const uint64_t bytes = sizesKb[s] * 1024;
            // One replay yields both direct-mapped curves.
            n[w][s].direct = rs[w]->simulateDirectPairCpu(cpu, bytes);
            // Like the paper, the filtered stream cannot support a
            // 2-way cache at the measured size itself.
            if (s > 0)
                n[w][s].twoway = rs[w]->simulateCpu(cpu, bytes, 2, true);
        }
    }
    return n;
}

} // namespace

void
mpos::bench::run_fig06(BenchContext &ctx)
{
    core::banner("Figure 6: I-cache size/associativity sweep "
                 "(relative OS I-miss rate)");
    core::shapeNote();

    // The shared standard runs record the replay stream, so the
    // sweep is pure replay -- no re-simulation of the workload.
    Streams rs;
    uint32_t cpus = 0;
    for (size_t w = 0; w < numWorkloads; ++w) {
        rs[w] = &ctx.standard(allWorkloads[w]).resim();
        cpus = std::max(cpus, rs[w]->numCpus());
    }

    std::vector<std::future<Counts>> parts;
    for (sim::CpuId c = 0; c < cpus; ++c) {
        parts.push_back(ctx.runner().threadPool().submit(
            [&rs, c] { return replayCpu(rs, c); }));
    }
    // Let every task finish before get() can throw: none may outlive
    // the streams it reads.
    for (auto &f : parts)
        f.wait();
    Counts total{};
    for (auto &f : parts) {
        const Counts n = f.get();
        for (size_t w = 0; w < numWorkloads; ++w) {
            for (size_t s = 0; s < numSizes; ++s) {
                total[w][s].direct += n[w][s].direct;
                total[w][s].twoway += n[w][s].twoway;
            }
        }
    }

    for (size_t w = 0; w < numWorkloads; ++w) {
        util::TextTable t(std::string("  ") +
                          workload::workloadName(allWorkloads[w]));
        t.header({"I-cache", "direct", "2-way", "direct, no Inval"});
        for (size_t s = 0; s < numSizes; ++s) {
            const auto pair = rs[w]->relative(total[w][s].direct);
            const std::string twoway =
                s > 0 ? core::fmt2(rs[w]->relative(total[w][s].twoway)
                                       .relativeOsMissRate)
                      : "-";
            t.row({std::to_string(sizesKb[s]) + " KB",
                   core::fmt2(pair.withInval.relativeOsMissRate),
                   twoway,
                   core::fmt2(pair.noInval.relativeOsMissRate)});
        }
        t.print();
        std::printf("\n");
    }
    std::printf("Shape: the gap between 'direct' and 'direct, no "
                "Inval' at large sizes is the\ninvalidation floor "
                "that limits Pmake/Multpgm; Oracle's curve keeps "
                "falling.\n");
}
