/**
 * @file
 * Kernel snapshot save/restore: a flat, versioned walk over every
 * piece of kernel state that can influence future events.
 *
 * Unordered maps are dumped sorted by key so that identical logical
 * state always serializes to identical bytes (the warm-start cache
 * keys images by content-independent config hashes, but byte-stable
 * images make the differential tests exact). Restore rebuilds each
 * map from the sorted dump; the kernel never iterates these maps in
 * an order-sensitive way (releasePrivatePages sorts), so the changed
 * insertion history is unobservable.
 */

#include "kernel/kernel.hh"

#include <algorithm>
#include <utility>

#include "util/binio.hh"
#include "util/error.hh"

namespace mpos::kernel
{

using util::ByteReader;
using util::ByteWriter;
using util::ErrCode;

namespace
{

/** Expose the protected underlying container of a std::priority_queue
 *  (the heap array round-trips verbatim, preserving exact pop order). */
template <class Q>
struct QueueOpener : Q
{
    static const typename Q::container_type &
    open(const Q &q)
    {
        return q.*(&QueueOpener::c);
    }

    static typename Q::container_type &
    open(Q &q)
    {
        return q.*(&QueueOpener::c);
    }
};

template <class Map>
std::vector<typename Map::key_type>
sortedKeys(const Map &m)
{
    std::vector<typename Map::key_type> keys;
    keys.reserve(m.size());
    for (const auto &kv : m)
        keys.push_back(kv.first);
    std::sort(keys.begin(), keys.end());
    return keys;
}

void
expect(uint64_t got, uint64_t want, const char *what)
{
    if (got != want)
        util::raise(ErrCode::SnapshotCorrupt,
                    "kernel snapshot: %s mismatch (snapshot %llu, "
                    "machine %llu)",
                    what, (unsigned long long)got,
                    (unsigned long long)want);
}

void
saveContext(ByteWriter &w, const sim::MonitorContext &c)
{
    w.u8(uint8_t(c.mode));
    w.u8(uint8_t(c.op));
    w.u16(c.routine);
    w.i64(int64_t(c.pid));
}

void
loadContext(ByteReader &r, sim::MonitorContext &c)
{
    c.mode = sim::ExecMode(r.u8());
    c.op = sim::OsOp(r.u8());
    c.routine = r.u16();
    c.pid = Pid(int32_t(r.i64()));
}

} // namespace

void
Kernel::saveState(ByteWriter &w, const BehaviorCodec &codec) const
{
    for (uint64_t word : rng.saveState())
        w.u64(word);

    // Process table.
    w.u32(uint32_t(procs.size()));
    for (const auto &pp : procs) {
        const Process &p = *pp;
        w.u8(uint8_t(p.state));
        w.str(p.name);
        w.u32(p.lastCpu);
        w.b(p.everRan);
        w.i64(p.ticksLeft);
        w.i64(int64_t(p.parent));
        w.u64(p.cpuShare);
        w.u64(p.runStart);
        w.u64(p.totalRan);
        w.u64(p.dispatches);
        w.b(p.behavior != nullptr);
        if (p.behavior)
            codec.save(w, *p.behavior);
        p.savedScript.saveState(w);
        w.u64(p.pageTable.size());
        for (Addr vp : sortedKeys(p.pageTable)) {
            const Pte &pte = p.pageTable.at(vp);
            w.u64(vp);
            w.u32(pte.ppage);
            w.b(pte.present);
            w.b(pte.writable);
            w.b(pte.cow);
            w.b(pte.text);
            w.b(pte.shared);
        }
        w.u32(p.imageId);
        w.u64(p.ioBufVaddr);
        w.u32(p.ioRotor);
        w.b(p.waitingForChild);
        w.u32(p.pendingChildExits);
        w.i64(p.blockedOnTty);
        w.u32(p.wakePending);
        w.u64(p.userChunks);
    }

    // Scheduler.
    w.u32(uint32_t(curProc.size()));
    for (Pid pid : curProc)
        w.i64(int64_t(pid));
    w.u64(runQueue.size());
    for (Pid pid : runQueue)
        w.i64(int64_t(pid));
    w.u64(rqSkips.size());
    for (uint32_t sk : rqSkips)
        w.u32(sk);

    // Locks.
    sim::saveLockTable(w, locks);
    w.u32(nUserLocks);

    // Images.
    w.u32(uint32_t(images.size()));
    for (const Image &img : images) {
        w.u32(img.id);
        w.str(img.name);
        w.u32(img.textPages);
    }

    // Text page cache.
    w.u64(pageCache.size());
    for (uint64_t key : sortedKeys(pageCache)) {
        w.u64(key);
        w.u64(pageCache.at(key));
    }
    w.u64(textLru.size());
    for (uint64_t key : textLru)
        w.u64(key);
    w.u64(textRef.size());
    for (uint64_t key : sortedKeys(textRef)) {
        w.u64(key);
        w.b(textRef.at(key));
    }
    w.u64(textMappers.size());
    for (uint64_t key : sortedKeys(textMappers)) {
        const auto &mappers = textMappers.at(key);
        w.u64(key);
        w.u64(mappers.size());
        for (const auto &[pid, vpage] : mappers) {
            w.i64(int64_t(pid));
            w.u64(vpage);
        }
    }
    w.u64(pfdatCursor);
    w.u64(clockCount);
    w.u64(pickCount);

    // Physical memory.
    w.u64(freePages.size());
    for (uint64_t pg : freePages)
        w.u64(pg);
    w.u64(pageHeldCode.size());
    w.raw(pageHeldCode.data(), pageHeldCode.size());
    w.u64(pageRefs.size());
    for (uint16_t refs : pageRefs)
        w.u16(refs);

    // Shared memory.
    w.u64(sharedMap.size());
    for (Addr vp : sortedKeys(sharedMap)) {
        w.u64(vp);
        w.u64(sharedMap.at(vp));
    }
    w.u64(sharedBrk);

    // File system.
    bufcache.saveState(w);
    w.u64(disk.busyUntil);
    w.u64(disk.requests);
    w.u32(uint32_t(ttys.size()));
    for (const TtySession &t : ttys) {
        w.u32(t.id);
        w.u32(t.pendingChars);
        w.i64(int64_t(t.reader));
        w.u64(t.meanGap);
    }

    // Timed events (raw heap array of the priority queue).
    const auto &eq = QueueOpener<std::decay_t<decltype(events)>>::open(events);
    w.u64(eq.size());
    for (const Event &e : eq) {
        w.u64(e.when);
        w.u8(uint8_t(e.kind));
        w.u64(e.payload);
    }

    // Per-CPU clock and OS-nesting context.
    w.u32(uint32_t(nextClockAt.size()));
    for (Cycle at : nextClockAt)
        w.u64(at);
    w.u32(uint32_t(prevCtx.size()));
    for (const sim::MonitorContext &c : prevCtx)
        saveContext(w, c);
    w.raw(prevCtxValid.data(), prevCtxValid.size());

    // Counters.
    w.u64(nCtxSwitches);
    w.u64(nMigrations);
    w.u64(nForks);
    w.u64(nExits);
    w.u64(nUtlbFaults);
    w.u64(nReclaims);
    w.u64(nStrands);
    w.u64(nCodeRecycles);
    for (const auto &row : blockStats.invocations)
        for (uint64_t v : row)
            w.u64(v);
    for (uint64_t v : blockStats.bytes)
        w.u64(v);
    for (uint64_t v : opCounts.count)
        w.u64(v);
}

void
Kernel::restoreState(ByteReader &r, const BehaviorCodec &codec)
{
    std::array<uint64_t, 4> rngState;
    for (uint64_t &word : rngState)
        word = r.u64();
    rng.restoreState(rngState);

    // Process table.
    expect(r.u32(), procs.size(), "process table size");
    for (auto &pp : procs) {
        Process &p = *pp;
        p.state = ProcState(r.u8());
        p.name = r.str();
        p.lastCpu = r.u32();
        p.everRan = r.b();
        p.ticksLeft = int32_t(r.i64());
        p.parent = Pid(int32_t(r.i64()));
        p.cpuShare = r.u64();
        p.runStart = r.u64();
        p.totalRan = r.u64();
        p.dispatches = r.u64();
        p.behavior = r.b() ? codec.load(r) : nullptr;
        p.savedScript.restoreState(r);
        p.pageTable.clear();
        const uint64_t npte = r.u64();
        for (uint64_t i = 0; i < npte; ++i) {
            const Addr vp = r.u64();
            Pte pte;
            pte.ppage = r.u32();
            pte.present = r.b();
            pte.writable = r.b();
            pte.cow = r.b();
            pte.text = r.b();
            pte.shared = r.b();
            p.pageTable.emplace(vp, pte);
        }
        p.imageId = r.u32();
        p.ioBufVaddr = r.u64();
        p.ioRotor = r.u32();
        p.waitingForChild = r.b();
        p.pendingChildExits = r.u32();
        p.blockedOnTty = int32_t(r.i64());
        p.wakePending = r.u32();
        p.userChunks = r.u64();
    }

    // Scheduler.
    expect(r.u32(), curProc.size(), "cpu count");
    for (Pid &pid : curProc)
        pid = Pid(int32_t(r.i64()));
    runQueue.clear();
    const uint64_t nrq = r.u64();
    for (uint64_t i = 0; i < nrq; ++i)
        runQueue.push_back(Pid(int32_t(r.i64())));
    rqSkips.clear();
    const uint64_t nsk = r.u64();
    for (uint64_t i = 0; i < nsk; ++i)
        rqSkips.push_back(r.u32());

    // Locks.
    sim::restoreLockTable(r, locks, numKernelLocks, m.numCpus(),
                          uint32_t(procs.size()));
    nUserLocks = r.u32();

    // Images (registered at construction; contents must agree).
    expect(r.u32(), images.size(), "image count");
    for (Image &img : images) {
        img.id = r.u32();
        img.name = r.str();
        img.textPages = r.u32();
    }

    // Text page cache.
    pageCache.clear();
    const uint64_t npc = r.u64();
    for (uint64_t i = 0; i < npc; ++i) {
        const uint64_t key = r.u64();
        pageCache[key] = r.u64();
    }
    textLru.clear();
    const uint64_t nlru = r.u64();
    for (uint64_t i = 0; i < nlru; ++i)
        textLru.push_back(r.u64());
    textRef.clear();
    const uint64_t nref = r.u64();
    for (uint64_t i = 0; i < nref; ++i) {
        const uint64_t key = r.u64();
        textRef[key] = r.b();
    }
    textMappers.clear();
    const uint64_t nmap = r.u64();
    for (uint64_t i = 0; i < nmap; ++i) {
        const uint64_t key = r.u64();
        // Guarded counts: a corrupt stream must not drive a huge
        // reserve() before the element reads would trip the bound.
        const uint64_t cnt = r.countU64(16);
        auto &mappers = textMappers[key];
        mappers.reserve(cnt);
        for (uint64_t j = 0; j < cnt; ++j) {
            const Pid pid = Pid(int32_t(r.i64()));
            mappers.emplace_back(pid, r.u64());
        }
    }
    pfdatCursor = r.u64();
    clockCount = r.u64();
    pickCount = r.u64();

    // Physical memory.
    freePages.clear();
    const uint64_t nfree = r.countU64(8);
    freePages.reserve(nfree);
    for (uint64_t i = 0; i < nfree; ++i)
        freePages.push_back(r.u64());
    expect(r.u64(), pageHeldCode.size(), "pfdat array size");
    r.raw(pageHeldCode.data(), pageHeldCode.size());
    expect(r.u64(), pageRefs.size(), "page refcount array size");
    for (uint16_t &refs : pageRefs)
        refs = r.u16();

    // Shared memory.
    sharedMap.clear();
    const uint64_t nshm = r.u64();
    for (uint64_t i = 0; i < nshm; ++i) {
        const Addr vp = r.u64();
        sharedMap[vp] = r.u64();
    }
    sharedBrk = r.u64();

    // File system.
    bufcache.restoreState(r);
    disk.busyUntil = r.u64();
    disk.requests = r.u64();
    expect(r.u32(), ttys.size(), "tty session count");
    for (TtySession &t : ttys) {
        t.id = r.u32();
        t.pendingChars = r.u32();
        t.reader = Pid(int32_t(r.i64()));
        t.meanGap = r.u64();
    }

    // Timed events.
    auto &eq = QueueOpener<std::decay_t<decltype(events)>>::open(events);
    eq.clear();
    const uint64_t nev = r.countU64(17);
    eq.reserve(nev);
    for (uint64_t i = 0; i < nev; ++i) {
        Event e;
        e.when = r.u64();
        e.kind = Event::Kind(r.u8());
        e.payload = r.u64();
        eq.push_back(e);
    }

    // Per-CPU clock and OS-nesting context.
    expect(r.u32(), nextClockAt.size(), "clock schedule size");
    for (Cycle &at : nextClockAt)
        at = r.u64();
    expect(r.u32(), prevCtx.size(), "context stack size");
    for (sim::MonitorContext &c : prevCtx)
        loadContext(r, c);
    r.raw(prevCtxValid.data(), prevCtxValid.size());

    // Counters.
    nCtxSwitches = r.u64();
    nMigrations = r.u64();
    nForks = r.u64();
    nExits = r.u64();
    nUtlbFaults = r.u64();
    nReclaims = r.u64();
    nStrands = r.u64();
    nCodeRecycles = r.u64();
    for (auto &row : blockStats.invocations)
        for (uint64_t &v : row)
            v = r.u64();
    for (uint64_t &v : blockStats.bytes)
        v = r.u64();
    for (uint64_t &v : opCounts.count)
        v = r.u64();
}

} // namespace mpos::kernel
