#include "core/resim.hh"

#include <string>

#include "sim/cache.hh"

namespace mpos::core
{

namespace
{

/** Apply a recorded flush: lines == 0 is a full-cache flush. */
void
applyFlush(sim::Cache &c, Addr line, uint32_t lines, uint32_t line_bytes)
{
    if (lines == 0) {
        c.reset(); // full-cache flush, at any size
        return;
    }
    for (uint32_t i = 0; i < lines; ++i)
        c.invalidate(line + Addr(i) * line_bytes);
}

/** Touch, fill on a miss, and count the miss by context. */
void
replayFetch(sim::Cache &c, Addr line, bool os, ResimResult &r)
{
    if (!c.touch(line)) {
        c.fill(line);
        if (os)
            ++r.osMisses;
        else
            ++r.appMisses;
    }
}

} // namespace

ICacheResim::ICacheResim(uint32_t num_cpus, uint32_t line_bytes)
    : lineBytes(line_bytes), streams(num_cpus)
{
}

void
ICacheResim::push(CpuId cpu, Addr line, uint32_t flags)
{
    auto &s = streams[cpu];
    // Reserve a large block on first use: the measured runs record
    // hundreds of thousands of events, and doubling through that
    // range copies the vector ~20 times.
    if (s.capacity() == 0)
        s.reserve((1u << 20) / streams.size());
    s.push_back(uint32_t(line / lineBytes) << 2 | flags);
    ++nEvents;
}

void
ICacheResim::onMiss(const ClassifiedMiss &miss)
{
    const auto &rec = miss.rec;
    if (rec.cache != CacheKind::Instr)
        return;
    const bool os = rec.ctx.mode == ExecMode::Kernel;
    if (os)
        ++baseOs;
    push(rec.cpu, rec.lineAddr, os ? osBit : 0);
}

void
ICacheResim::flushPage(CpuId cpu, Addr page_addr, uint32_t page_bytes)
{
    // page_bytes == 0 encodes a full-cache flush.
    push(cpu, page_addr, flushBit);
    streams[cpu].push_back(page_bytes / lineBytes);
}

ResimResult
ICacheResim::simulateCpu(CpuId cpu, uint64_t cache_bytes,
                         uint32_t assoc, bool apply_invals) const
{
    sim::Cache c("resim" + std::to_string(cpu), cache_bytes, assoc,
                 lineBytes);
    ResimResult r;
    const auto &s = streams[cpu];
    for (size_t i = 0; i < s.size(); ++i) {
        const Addr line = Addr(s[i] >> 2) * lineBytes;
        if (s[i] & flushBit) {
            const uint32_t lines = s[++i];
            if (apply_invals)
                applyFlush(c, line, lines, lineBytes);
            continue;
        }
        replayFetch(c, line, s[i] & osBit, r);
    }
    return r;
}

ResimPairResult
ICacheResim::simulateDirectPairCpu(CpuId cpu,
                                   uint64_t cache_bytes) const
{
    const std::string name = "resim" + std::to_string(cpu);
    sim::Cache withInval(name, cache_bytes, 1, lineBytes);
    sim::Cache noInval(name, cache_bytes, 1, lineBytes);
    ResimPairResult r;
    const auto &s = streams[cpu];
    for (size_t i = 0; i < s.size(); ++i) {
        const Addr line = Addr(s[i] >> 2) * lineBytes;
        if (s[i] & flushBit) {
            // Flushes touch only the with-invalidation cache.
            applyFlush(withInval, line, s[++i], lineBytes);
            continue;
        }
        replayFetch(withInval, line, s[i] & osBit, r.withInval);
        replayFetch(noInval, line, s[i] & osBit, r.noInval);
    }
    return r;
}

ResimResult
ICacheResim::relative(ResimResult whole) const
{
    if (baseOs)
        whole.relativeOsMissRate =
            double(whole.osMisses) / double(baseOs);
    return whole;
}

ResimPairResult
ICacheResim::relative(ResimPairResult whole) const
{
    return {relative(whole.withInval), relative(whole.noInval)};
}

ResimResult
ICacheResim::simulate(uint64_t cache_bytes, uint32_t assoc,
                      bool apply_invals) const
{
    ResimResult r;
    for (CpuId c = 0; c < numCpus(); ++c)
        r += simulateCpu(c, cache_bytes, assoc, apply_invals);
    return relative(r);
}

ResimPairResult
ICacheResim::simulateDirectPair(uint64_t cache_bytes) const
{
    ResimPairResult r;
    for (CpuId c = 0; c < numCpus(); ++c)
        r += simulateDirectPairCpu(c, cache_bytes);
    return relative(r);
}

void
ICacheResim::clear()
{
    for (auto &s : streams)
        s.clear();
    nEvents = 0;
    baseOs = 0;
}

} // namespace mpos::core
