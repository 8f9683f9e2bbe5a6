/**
 * @file
 * Kernel snapshot save/restore: a flat, versioned walk over every
 * piece of kernel state that can influence future events.
 *
 * One walk serves both directions (util::SaveArchive/LoadArchive).
 * Unordered maps are dumped sorted by key so that identical logical
 * state always serializes to identical bytes (the warm-start cache
 * keys images by content-independent config hashes, but byte-stable
 * images make the differential tests exact). Restore rebuilds each
 * map from the sorted dump; the kernel never iterates these maps in
 * an order-sensitive way (releasePrivatePages sorts), so the changed
 * insertion history is unobservable.
 */

#include "kernel/kernel.hh"

#include "util/binio.hh"

namespace mpos::kernel
{

namespace
{

/** Expose the protected underlying container of a std::priority_queue
 *  (the heap array round-trips verbatim, preserving exact pop order). */
template <class Q>
struct QueueOpener : Q
{
    static typename Q::container_type &
    open(Q &q)
    {
        return q.*(&QueueOpener::c);
    }
};

} // namespace

template <class Ar>
void
Kernel::state(Ar &ar, const BehaviorCodec &codec)
{
    rng.state(ar);

    // Process table.
    ar.fixed(uint32_t(procs.size()), "kernel process table size");
    for (auto &pp : procs) {
        Process &p = *pp;
        ar.u8(p.state);
        ar.str(p.name);
        ar.u32(p.lastCpu);
        ar.b(p.everRan);
        ar.i64(p.ticksLeft);
        ar.i64(p.parent);
        ar.u64(p.cpuShare);
        ar.u64(p.runStart);
        ar.u64(p.totalRan);
        ar.u64(p.dispatches);
        bool hasBehavior = p.behavior != nullptr;
        ar.b(hasBehavior);
        if constexpr (Ar::loading)
            p.behavior = hasBehavior ? codec.load(ar.r) : nullptr;
        else if (hasBehavior)
            codec.save(ar.w, *p.behavior);
        p.savedScript.state(ar);
        ar.map(p.pageTable, 17, [&](Pte &pte) {
            ar.u32(pte.ppage);
            ar.b(pte.present);
            ar.b(pte.writable);
            ar.b(pte.cow);
            ar.b(pte.text);
            ar.b(pte.shared);
        });
        ar.u32(p.imageId);
        ar.u64(p.ioBufVaddr);
        ar.u32(p.ioRotor);
        ar.b(p.waitingForChild);
        ar.u32(p.pendingChildExits);
        ar.i64(p.blockedOnTty);
        ar.u32(p.wakePending);
        ar.u64(p.userChunks);
    }

    // Scheduler.
    const auto pid = [&](Pid &v) { ar.i64(v); };
    ar.fixed(uint32_t(curProc.size()), "kernel cpu count");
    for (Pid &v : curProc)
        pid(v);
    ar.template seq<uint64_t>(runQueue, 8, pid);
    ar.template seq<uint64_t>(rqSkips, 4, [&](uint32_t &v) { ar.u32(v); });

    // Locks.
    sim::lockTableState(ar, locks, numKernelLocks, m.numCpus(),
                        uint32_t(procs.size()));
    ar.u32(nUserLocks);

    // Images (registered at construction; contents must agree).
    ar.fixed(uint32_t(images.size()), "kernel image count");
    for (Image &img : images) {
        ar.u32(img.id);
        ar.str(img.name);
        ar.u32(img.textPages);
    }

    // Text page cache.
    const auto word = [&](uint64_t &v) { ar.u64(v); };
    ar.map(pageCache, 16, word);
    ar.template seq<uint64_t>(textLru, 8, word);
    ar.map(textRef, 9, [&](bool &v) { ar.b(v); });
    ar.map(textMappers, 16, [&](auto &mappers) {
        ar.template seq<uint64_t>(mappers, 16, [&](auto &pm) {
            ar.i64(pm.first);
            ar.u64(pm.second);
        });
    });
    ar.u64(pfdatCursor);
    ar.u64(clockCount);
    ar.u64(pickCount);

    // Physical memory.
    ar.template seq<uint64_t>(freePages, 8, word);
    ar.fixed(uint64_t(pageHeldCode.size()), "kernel pfdat array size");
    ar.raw(pageHeldCode.data(), pageHeldCode.size());
    ar.fixed(uint64_t(pageRefs.size()),
             "kernel page refcount array size");
    for (uint16_t &refs : pageRefs)
        ar.u16(refs);

    // Shared memory.
    ar.map(sharedMap, 16, word);
    ar.u64(sharedBrk);

    // File system.
    bufcache.state(ar);
    ar.u64(disk.busyUntil);
    ar.u64(disk.requests);
    ar.fixed(uint32_t(ttys.size()), "kernel tty session count");
    for (TtySession &t : ttys) {
        ar.u32(t.id);
        ar.u32(t.pendingChars);
        ar.i64(t.reader);
        ar.u64(t.meanGap);
    }

    // Timed events (raw heap array of the priority queue).
    ar.template seq<uint64_t>(
        QueueOpener<decltype(events)>::open(events), 17, [&](Event &e) {
            ar.u64(e.when);
            ar.u8(e.kind);
            ar.u64(e.payload);
        });

    // Per-CPU clock and OS-nesting context.
    ar.fixed(uint32_t(nextClockAt.size()), "kernel clock schedule size");
    for (Cycle &at : nextClockAt)
        ar.u64(at);
    ar.fixed(uint32_t(prevCtx.size()), "kernel context stack size");
    for (sim::MonitorContext &c : prevCtx)
        c.state(ar);
    ar.raw(prevCtxValid.data(), prevCtxValid.size());

    // Counters.
    ar.u64(nCtxSwitches);
    ar.u64(nMigrations);
    ar.u64(nForks);
    ar.u64(nExits);
    ar.u64(nUtlbFaults);
    ar.u64(nReclaims);
    ar.u64(nStrands);
    ar.u64(nCodeRecycles);
    for (auto &row : blockStats.invocations)
        for (uint64_t &v : row)
            ar.u64(v);
    for (uint64_t &v : blockStats.bytes)
        ar.u64(v);
    for (uint64_t &v : opCounts.count)
        ar.u64(v);
}

void
Kernel::saveState(util::ByteWriter &w, const BehaviorCodec &codec) const
{
    util::SaveArchive ar(w);
    const_cast<Kernel *>(this)->state(ar, codec);
}

void
Kernel::restoreState(util::ByteReader &r, const BehaviorCodec &codec)
{
    util::LoadArchive ar(r);
    state(ar, codec);
}

} // namespace mpos::kernel
