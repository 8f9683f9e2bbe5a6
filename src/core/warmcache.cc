#include "core/warmcache.hh"

#include <cstdio>

#include "core/experiment.hh"
#include "sim/snapshot/container.hh"
#include "util/binio.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::core
{

uint64_t
warmConfigHash(const ExperimentConfig &cfg)
{
    // Serialize every event-affecting field into a flat buffer and
    // FNV-1a it. Field order is part of the key format; bumping the
    // snapshot formatVersion (mixed in below) invalidates all cached
    // images whenever either this list or the serialized state layout
    // changes.
    util::ByteWriter w;
    w.u32(sim::snapshot::formatVersion);
    w.u8(uint8_t(cfg.kind));
    w.u64(cfg.warmupCycles);

    const sim::MachineConfig &m = cfg.machine;
    w.u32(m.numCpus);
    w.u8(uint8_t(m.protocol));
    w.u8(uint8_t(m.lockPolicy));
    w.u32(m.lineBytes);
    w.u32(m.icacheBytes);
    w.u32(m.icacheAssoc);
    w.u32(m.l1dBytes);
    w.u32(m.l1dAssoc);
    w.u32(m.l2dBytes);
    w.u32(m.l2dAssoc);
    w.u64(m.memBytes);
    w.u32(m.pageBytes);
    w.u32(m.tlbEntries);
    w.u64(m.busMissStall);
    w.u64(m.l2HitStall);
    w.u64(m.busOccupancy);
    w.u64(m.cyclesPerInstr);
    w.u32(m.instrPerLine);
    w.b(m.cachedLockRmw);
    w.u64(m.syncBusOpCycles);
    w.u32(m.syncOpsPerAcquire);
    w.u64(m.uncachedAccessCycles);
    w.u64(m.clockTickCycles);
    // Excluded on purpose (event-neutral by construction, so a warm
    // image is shareable across them): slowSim, check,
    // trace/metrics/profile -- and every measurement-phase
    // knob (measureCycles, collectMisses, collectResim,
    // timeoutSeconds, useRecommendedPool, the cache pointer itself).

    const kernel::KernelConfig &k = cfg.kernelCfg;
    w.u32(k.layout.maxProcs);
    w.b(k.layout.optimizedTextLayout);
    w.u32(k.layout.numBuffers);
    w.u32(k.layout.numInodes);
    w.u32(k.layout.pageBytes);
    w.u64(k.layout.memBytes);
    w.u32(k.layout.lineBytes);
    w.u32(k.maxUserLocks);
    w.u64(k.diskLatency);
    w.u64(k.diskPerBlock);
    w.u64(k.spinGap);
    w.u32(k.userLockSpins);
    w.b(k.affinitySched);
    w.u32(k.affinityScanDepth);
    w.u8(uint8_t(k.blockOpMode));
    w.u64(k.userPoolPages);
    w.u32(k.reclaimBatch);
    w.u32(k.reclaimScanEntries);
    w.u32(k.freeLowWater);
    w.i64(k.quantumTicks);
    w.u64(k.interactiveShare);
    w.u64(k.rngSeed);

    const workload::WorkloadOptions &o = cfg.options;
    w.u64(o.seed);
    w.u32(o.pmakeFiles);
    w.u32(o.pmakeMaxJobs);
    w.u32(o.editSessions);
    w.u64(o.editMeanGap);
    w.u32(o.oracleServers);
    w.u32(o.mp3dProcs);

    return sim::snapshot::fnv1a(w.bytes().data(), w.size());
}

WarmStartCache::WarmStartCache(std::string directory)
    : dir(std::move(directory))
{
}

std::string
WarmStartCache::filePath(uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof name, "warm-%016llx",
                  static_cast<unsigned long long>(key));
    return dir + "/" + name;
}

void
WarmStartCache::poison(uint64_t key)
{
    bool unlink = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        bad.insert(key);
        mem.erase(key);
        unlink = !dir.empty();
    }
    if (unlink)
        std::remove(filePath(key).c_str());
}

bool
WarmStartCache::poisoned(uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu);
    return bad.count(key) != 0;
}

WarmStartCache::Image
WarmStartCache::lookup(uint64_t key)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        if (bad.count(key)) {
            ++st.misses;
            return nullptr;
        }
        auto it = mem.find(key);
        if (it != mem.end()) {
            ++st.hits;
            return it->second;
        }
    }
    if (!dir.empty()) {
        std::vector<uint8_t> bytes;
        if (sim::snapshot::readFile(filePath(key), bytes)) {
            // Validate before promoting: a truncated or stale file is
            // a miss, not an error.
            try {
                const auto parsed = sim::snapshot::parse(bytes);
                if (parsed.configHash() == key) {
                    auto img = std::make_shared<
                        const std::vector<uint8_t>>(std::move(bytes));
                    std::lock_guard<std::mutex> lock(mu);
                    ++st.hits;
                    st.bytesRead += img->size();
                    mem.emplace(key, img);
                    return img;
                }
            } catch (const util::SimError &e) {
                util::warn("warm cache: discarding %s (%s)",
                           filePath(key).c_str(), e.what());
            }
        }
    }
    std::lock_guard<std::mutex> lock(mu);
    ++st.misses;
    return nullptr;
}

WarmStartCache::Image
WarmStartCache::store(uint64_t key, std::vector<uint8_t> bytes)
{
    auto img =
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    bool writeDisk = false;
    {
        std::lock_guard<std::mutex> lock(mu);
        if (bad.count(key))
            return img; // quarantined: keep it out of the cache
        ++st.stores;
        auto [it, inserted] = mem.emplace(key, img);
        if (!inserted)
            img = it->second; // first store wins; bytes are identical
        else
            writeDisk = !dir.empty();
    }
    if (writeDisk) {
        if (sim::snapshot::writeFileAtomic(filePath(key), *img)) {
            std::lock_guard<std::mutex> lock(mu);
            st.bytesWritten += img->size();
        }
    }
    return img;
}

WarmCacheStats
WarmStartCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return st;
}

} // namespace mpos::core
