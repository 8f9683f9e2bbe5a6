#include "core/miss_classify.hh"

#include <new>

#include <sys/mman.h>

#include "util/logging.hh"

namespace mpos::core
{

using sim::BusOp;
using sim::OsOp;

const char *
missClassName(MissClass c)
{
    switch (c) {
      case MissClass::Cold: return "Cold";
      case MissClass::Dispos: return "Dispos";
      case MissClass::Dispap: return "Dispap";
      case MissClass::Sharing: return "Sharing";
      case MissClass::Inval: return "Inval";
      case MissClass::Uncached: return "Uncached";
      case MissClass::Unknown: return "Unknown";
    }
    return "?";
}

uint64_t
MissCounts::osITotal() const
{
    uint64_t n = 0;
    for (auto v : osI)
        n += v;
    return n;
}

uint64_t
MissCounts::osDTotal() const
{
    uint64_t n = 0;
    for (auto v : osD)
        n += v;
    return n;
}

uint64_t
MissCounts::osTotal() const
{
    return osITotal() + osDTotal();
}

uint64_t
MissCounts::appTotal() const
{
    uint64_t n = 0;
    for (uint32_t i = 0; i < numMissClasses; ++i)
        n += appI[i] + appD[i];
    return n;
}

uint64_t
MissCounts::total() const
{
    uint64_t n = osTotal() + appTotal();
    for (uint32_t i = 0; i < numMissClasses; ++i)
        n += idleI[i] + idleD[i];
    return n;
}

void
MissClassifier::Unmap::operator()(uint32_t *p) const
{
    munmap(p, bytes);
}

MissClassifier::ChunkTable
MissClassifier::mapChunkTable(uint64_t lines, uint32_t cpus)
{
    const size_t bytes =
        (((lines - 1) >> chunkShift) + 1) * cpus * 2 * sizeof(uint32_t);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return ChunkTable(static_cast<uint32_t *>(p), Unmap{bytes});
}

MissClassifier::MissClassifier(uint32_t num_cpus, uint64_t mem_bytes,
                               uint32_t line_bytes)
    : nCpus(num_cpus), nLines(mem_bytes / line_bytes),
      lineBytes(line_bytes), chunkAt(mapChunkTable(nLines, num_cpus)),
      appEpoch(num_cpus, 1)
{
}

uint32_t &
MissClassifier::slot(CpuId cpu, CacheKind kind, Addr line)
{
    const uint64_t idx = line / lineBytes;
    if (idx >= nLines)
        util::panic("classifier: line %llx beyond physical memory",
                    static_cast<unsigned long long>(line));
    uint32_t &chunk = chunkAt[((idx >> chunkShift) * nCpus + cpu) * 2 +
                              (kind == CacheKind::Instr ? 0 : 1)];
    if (chunk == 0) {
        words.resize(words.size() + (size_t(1) << chunkShift), 0);
        chunk = uint32_t(words.size() >> chunkShift);
    }
    return words[(size_t(chunk - 1) << chunkShift) |
                 (idx & ((uint64_t(1) << chunkShift) - 1))];
}

void
MissClassifier::bump(const BusRecord &rec, MissClass cls, bool same)
{
    const unsigned c = unsigned(cls);
    const bool instr = rec.cache == CacheKind::Instr;
    switch (rec.ctx.mode) {
      case ExecMode::Kernel:
        (instr ? tally.osI : tally.osD)[c] += 1;
        if (same) {
            if (instr)
                ++tally.osDispossameI;
            else
                ++tally.osDispossameD;
        }
        break;
      case ExecMode::User:
        (instr ? tally.appI : tally.appD)[c] += 1;
        break;
      case ExecMode::Idle:
        (instr ? tally.idleI : tally.idleD)[c] += 1;
        break;
    }
}

void
MissClassifier::deliver(const BusRecord &rec, MissClass cls, bool same)
{
    bump(rec, cls, same);
    if (!sinks.empty()) {
        const ClassifiedMiss cm{rec, cls, same};
        for (auto *s : sinks)
            s->onMiss(cm);
    }
}

void
MissClassifier::classify(const BusRecord &rec)
{
    uint32_t &w = slot(rec.cpu, rec.cache, rec.lineAddr);
    MissClass cls;
    bool same = false;

    if (!(w & loadedBit)) {
        cls = MissClass::Cold;
    } else {
        switch (w & statusMask) {
          case stEvictedOs:
            cls = MissClass::Dispos;
            same = (w >> epochShift) ==
                   (appEpoch[rec.cpu] & 0x0fffffff);
            break;
          case stEvictedApp:
            cls = MissClass::Dispap;
            break;
          case stInvalSharing:
            cls = MissClass::Sharing;
            break;
          case stInvalRealloc:
            cls = MissClass::Inval;
            break;
          default:
            cls = MissClass::Unknown;
            break;
        }
    }
    w = loadedBit | stPresent;
    deliver(rec, cls, same);
}

void
MissClassifier::busTransaction(const BusRecord &rec)
{
    switch (rec.op) {
      case BusOp::Writeback:
        ++nWritebacks;
        return;
      case BusOp::UncachedRead:
      case BusOp::UncachedWrite:
        deliver(rec, MissClass::Uncached, false);
        return;
      case BusOp::Upgrade:
        // A write hit on a Shared line: the bus access exists because
        // the data is actively shared.
        deliver(rec, MissClass::Sharing, false);
        return;
      case BusOp::Read:
      case BusOp::ReadEx:
        classify(rec);
        return;
    }
}

void
MissClassifier::evict(CpuId cpu, CacheKind kind, Addr line,
                      const sim::MonitorContext &by)
{
    uint32_t &w = slot(cpu, kind, line);
    const uint32_t loaded = w & loadedBit;
    const uint32_t status = by.isOs() ? stEvictedOs : stEvictedApp;
    w = loaded | status |
        ((appEpoch[cpu] & 0x0fffffff) << epochShift);
}

void
MissClassifier::invalSharing(CpuId cpu, CacheKind kind, Addr line)
{
    uint32_t &w = slot(cpu, kind, line);
    w = (w & loadedBit) | stInvalSharing;
}

void
MissClassifier::invalPageRealloc(CpuId cpu, Addr line)
{
    uint32_t &w = slot(cpu, CacheKind::Instr, line);
    w = (w & loadedBit) | stInvalRealloc;
}

void
MissClassifier::osExit(Cycle cycle, CpuId cpu, OsOp op)
{
    (void)cycle;
    (void)op;
    // Returning toward the application starts a new epoch: any block
    // the OS displaced before this point can no longer be Dispossame.
    ++appEpoch[cpu];
}

} // namespace mpos::core
