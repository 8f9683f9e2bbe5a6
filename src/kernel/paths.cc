/**
 * @file
 * Kernel path builders: every OS operation rendered as a script of
 * text fetches, data touches, lock operations and sleep/resched
 * markers. This file also contains the VM (page allocation, reclaim,
 * copy-on-write, demand zero) and the file-system read/write bodies.
 */

#include "kernel/kernel.hh"

#include <algorithm>

#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::kernel
{

using sim::MarkerOp;
using sim::OsOp;

// ---------------------------------------------------------------------
// Emission helpers
// ---------------------------------------------------------------------

void
Kernel::emitText(Script &s, RoutineId r, double f0, double f1)
{
    const Routine &info = map.routineInfo(r);
    const uint32_t lines = info.textBytes / cfg.layout.lineBytes;
    uint32_t lo = uint32_t(f0 * lines);
    uint32_t hi = uint32_t(f1 * lines);
    if (hi > lines)
        hi = lines;
    if (lo >= hi)
        hi = lo + 1 <= lines ? lo + 1 : lines;
    s.push_back(ScriptItem::mark(MarkerOp::RoutineEnter, r));
    for (uint32_t l = lo; l < hi; ++l) {
        s.push_back(ScriptItem::ifetch(info.textBase +
                                       Addr(l) * cfg.layout.lineBytes));
    }
}

void
Kernel::emitTouch(Script &s, Addr addr, uint32_t bytes, bool write)
{
    const Addr line = Addr(cfg.layout.lineBytes);
    for (Addr a = addr & ~(line - 1); a < addr + bytes; a += line) {
        s.push_back(write ? ScriptItem::store(a) : ScriptItem::load(a));
    }
}

void
Kernel::emitLock(Script &s, uint32_t lock_id)
{
    emitText(s, rt.spinlock_acquire);
    s.push_back(ScriptItem::mark(MarkerOp::LockAcquire, lock_id));
}

void
Kernel::emitUnlock(Script &s, uint32_t lock_id)
{
    emitText(s, rt.spinlock_release);
    s.push_back(ScriptItem::mark(MarkerOp::LockRelease, lock_id));
}

void
Kernel::emitLockShared(Script &s, uint32_t lock_id)
{
    emitText(s, rt.spinlock_acquire);
    s.push_back(ScriptItem::mark(MarkerOp::LockAcquireShared, lock_id));
}

void
Kernel::emitUnlockShared(Script &s, uint32_t lock_id)
{
    emitText(s, rt.spinlock_release);
    s.push_back(ScriptItem::mark(MarkerOp::LockReleaseShared, lock_id));
}

void
Kernel::emitPrologue(Script &s, Process &p)
{
    // Low-level exception entry: save registers into the Eframe and
    // set up the kernel stack (the assembly stages of Table 5).
    emitText(s, rt.locore_except);
    emitTouch(s, map.eframeAddr(p.slot), 172, true);
    emitTouch(s, map.kernelStackAddr(p.slot) + 4096 - 192, 192, true);
    emitTouch(s, map.procTableAddr(p.slot), 32, false);
}

void
Kernel::emitEpilogue(Script &s, Process &p)
{
    emitText(s, rt.locore_rfe);
    emitTouch(s, map.eframeAddr(p.slot), 172, false);
    emitTouch(s, map.kernelStackAddr(p.slot) + 4096 - 96, 96, false);
}

void
Kernel::emitBlockRef(Script &s, Addr addr, bool write)
{
    using sim::ItemKind;
    ScriptItem it = write ? ScriptItem::store(addr)
                          : ScriptItem::load(addr);
    switch (cfg.blockOpMode) {
      case BlockOpMode::Normal:
        break;
      case BlockOpMode::Bypass:
        it.kind = write ? ItemKind::BypassStore : ItemKind::BypassLoad;
        break;
      case BlockOpMode::Prefetch:
        it.kind = write ? ItemKind::PrefetchStore
                        : ItemKind::PrefetchLoad;
        break;
    }
    s.push_back(it);
}

void
Kernel::emitBcopy(Script &s, Addr src, Addr dst, uint32_t bytes,
                  BlockClass cls)
{
    blockStats.record(BlockKind::Copy, cls, bytes);
    emitText(s, rt.bcopy);
    const uint32_t line = cfg.layout.lineBytes;
    const uint32_t lines = (bytes + line - 1) / line;
    for (uint32_t i = 0; i < lines; ++i) {
        emitBlockRef(s, src + Addr(i) * line, false);
        emitBlockRef(s, dst + Addr(i) * line, true);
    }
    // Word-granularity work not represented by per-line references.
    s.push_back(ScriptItem::think(lines * 6));
}

void
Kernel::emitBclear(Script &s, Addr dst, uint32_t bytes, BlockClass cls)
{
    blockStats.record(BlockKind::Clear, cls, bytes);
    emitText(s, rt.bclear);
    const uint32_t line = cfg.layout.lineBytes;
    const uint32_t lines = (bytes + line - 1) / line;
    for (uint32_t i = 0; i < lines; ++i)
        emitBlockRef(s, dst + Addr(i) * line, true);
    s.push_back(ScriptItem::think(lines * 3));
}

// ---------------------------------------------------------------------
// Virtual memory
// ---------------------------------------------------------------------

void
Kernel::reclaimPages(Script &s, CpuId cpu)
{
    (void)cpu;
    ++nReclaims;
    // Sweep the pfdat array looking for pages to steal (Sec. 4.2.2:
    // "a traversal of the array of page descriptors occurs when free
    // memory is needed").
    emitText(s, rt.pfdat_scan);
    const uint32_t entries = cfg.reclaimScanEntries;
    const uint64_t bytes = uint64_t(entries) * map.pfdatEntryBytes();
    blockStats.record(BlockKind::Traverse, BlockClass::IrregularChunk,
                      bytes);
    emitTouch(s, map.pfdatAddr(pfdatCursor), uint32_t(bytes), false);
    pfdatCursor = (pfdatCursor + entries) %
                  (cfg.layout.memBytes / cfg.layout.pageBytes);

    // Steal resident text pages, oldest first.
    uint32_t stolen = 0;
    uint32_t scanned = 0;
    const uint32_t scan_cap = uint32_t(textLru.size()) * 2;
    while (stolen < cfg.reclaimBatch && !textLru.empty() &&
           scanned++ < scan_cap) {
        const uint64_t key = textLru.front();
        textLru.pop_front();
        auto it = pageCache.find(key);
        if (it == pageCache.end())
            continue;
        // Second chance: recently-mapped text survives one sweep.
        auto rit = textRef.find(key);
        if (rit != textRef.end() && rit->second) {
            rit->second = false;
            textLru.push_back(key);
            continue;
        }
        const uint64_t ppage = it->second;
        pageCache.erase(it);
        textRef.erase(key);
        ++nCodeRecycles;

        // Unmap every process still holding the page.
        auto mit = textMappers.find(key);
        if (mit != textMappers.end()) {
            for (const auto &[pid, vpage] : mit->second) {
                Process &p = *procs[uint32_t(pid)];
                if (p.state == ProcState::Free)
                    continue;
                Pte *pte = p.findPte(vpage);
                if (pte && pte->present && pte->ppage == ppage) {
                    pte->present = false;
                    for (uint32_t c = 0; c < m.numCpus(); ++c)
                        m.cpu(c).tlb.invalidate(pid, vpage);
                }
            }
            textMappers.erase(mit);
        }
        emitTouch(s, map.pfdatAddr(ppage), map.pfdatEntryBytes(), true);
        pageRefs[ppage] = 0;
        pageHeldCode[ppage] = 0;
        freePages.push_back(ppage);
        ++stolen;
    }
    if (stolen > 0) {
        // One I-cache flush covers the whole reallocated batch (the
        // kernel flushes when the pages change identity, not per use).
        m.memory().flushICachesForPage(0);
    }
}

uint64_t
Kernel::allocPage(Script &s, CpuId cpu)
{
    if (freePages.size() < cfg.freeLowWater)
        reclaimPages(s, cpu);
    if (freePages.empty())
        util::raise(util::ErrCode::ResourceExhausted,
                    "out of physical memory: workload exceeds the "
                    "configured user page pool");
    const uint64_t ppage = freePages.back();
    freePages.pop_back();
    pageRefs[ppage] = 1;

    emitText(s, rt.pagealloc);
    emitLock(s, Memlock);
    emitTouch(s, map.freePgBuckAddr(uint32_t(rng.below(384))), 8, true);
    emitTouch(s, map.pfdatAddr(ppage), map.pfdatEntryBytes(), true);
    emitUnlock(s, Memlock);

    return ppage;
}

void
Kernel::freePage(Script &s, uint64_t ppage)
{
    emitTouch(s, map.pfdatAddr(ppage), map.pfdatEntryBytes(), true);
    emitTouch(s, map.freePgBuckAddr(uint32_t(ppage % 384)), 8, true);
    pageRefs[ppage] = 0;
    freePages.push_back(ppage);
}

void
Kernel::releasePage(Script &s, uint64_t ppage)
{
    if (pageRefs[ppage] == 0)
        util::panic("releasing page %llu with zero refcount",
                    static_cast<unsigned long long>(ppage));
    if (--pageRefs[ppage] == 0)
        freePage(s, ppage);
}

void
Kernel::releasePrivatePages(Script &s, Process &p)
{
    // Release in vpage order: the page table is an unordered map, and
    // the order this walk frees pages determines the free-list order,
    // which feeds every later allocation (and hence the reference
    // stream). A sorted walk keeps the stream independent of hash
    // layout -- in particular across a snapshot restore, which rebuilds
    // the map with a different insertion history.
    auto &victims = reclaimScratch;
    victims.clear();
    victims.reserve(p.pageTable.size());
    for (const auto &[vp, pte] : p.pageTable) {
        if (pte.present && !pte.shared && !pte.text)
            victims.emplace_back(vp, pte.ppage);
    }
    if (victims.size() > 1)
        std::sort(victims.begin(), victims.end());
    for (const auto &[vp, pp] : victims)
        releasePage(s, pp);
}

uint64_t
Kernel::ensureResident(Script &s, CpuId cpu, Process &p, Addr vaddr,
                       bool for_write)
{
    const Addr vpage = vaddr / cfg.layout.pageBytes;
    Pte *pte = p.findPte(vpage);
    if (pte && pte->present) {
        if (for_write && pte->cow) {
            // Break copy-on-write inline.
            emitText(s, rt.cow_break);
            const uint64_t old = pte->ppage;
            const uint64_t np = allocPage(s, cpu);
            emitBcopy(s, old * cfg.layout.pageBytes,
                      np * cfg.layout.pageBytes, cfg.layout.pageBytes,
                      BlockClass::FullPage);
            pte->ppage = uint32_t(np);
            pte->cow = false;
            pte->writable = true;
            releasePage(s, old);
            m.cpu(cpu).tlb.insert(p.pid, vpage, np, true);
        }
        return pte->ppage;
    }
    if (vaddr >= VaMap::sharedBase && vaddr < VaMap::stackBase) {
        auto it = sharedMap.find(vpage);
        if (it != sharedMap.end()) {
            p.pageTable[vpage] =
                Pte{uint32_t(it->second), true, true, false, false,
                    true};
            m.cpu(cpu).tlb.insert(p.pid, vpage, it->second, true);
            return it->second;
        }
    }
    const uint64_t np = allocPage(s, cpu);
    if (!for_write) {
        emitText(s, rt.zfod);
        emitBclear(s, np * cfg.layout.pageBytes, cfg.layout.pageBytes,
                   BlockClass::FullPage);
    }
    p.pageTable[vpage] = Pte{uint32_t(np), true, true, false, false,
                             vaddr >= VaMap::sharedBase &&
                                 vaddr < VaMap::stackBase};
    if (vaddr >= VaMap::sharedBase && vaddr < VaMap::stackBase)
        sharedMap[vpage] = np;
    m.cpu(cpu).tlb.insert(p.pid, vpage, np, true);
    return np;
}

Kernel::Script
Kernel::pathUtlbFault(Process &p, Addr vpage, const Pte &pte)
{
    (void)pte;
    // The nine-instruction UTLB refill vector: near miss-free and very
    // fast (Figure 1).
    Script s;
    s.push_back(ScriptItem::mark(MarkerOp::OsEnter,
                                 uint64_t(OsOp::UtlbFault)));
    emitText(s, rt.utlbmiss);
    const Addr pt = map.pageTableAddr(p.slot) +
                    (vpage % 1024) * 4;
    s.push_back(ScriptItem::load(pt));
    s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    return s;
}

Kernel::Script
Kernel::pathVmFault(CpuId cpu, Process &p, Addr vaddr, bool is_store,
                    bool is_prot)
{
    const Addr vpage = vaddr / cfg.layout.pageBytes;
    const Image &img = images.at(p.imageId);
    const Addr textVp0 = VaMap::textBase / cfg.layout.pageBytes;
    const bool isText =
        vpage >= textVp0 && vpage < textVp0 + img.textPages;
    const bool isShared =
        vaddr >= VaMap::sharedBase && vaddr < VaMap::stackBase;
    const uint64_t cacheKey =
        (uint64_t(p.imageId) << 32) | (vpage - textVp0);

    // Decide how expensive this fault is (Table 8 classes).
    bool expensive = true;
    if (is_prot) {
        expensive = true; // COW break
    } else if (isShared && sharedMap.count(vpage)) {
        expensive = false;
    } else if (isText && pageCache.count(cacheKey)) {
        expensive = false;
    }

    Script s;
    s.push_back(ScriptItem::mark(
        MarkerOp::OsEnter, uint64_t(expensive ? OsOp::ExpensiveTlbFault
                                              : OsOp::CheapTlbFault)));
    emitPrologue(s, p);
    emitText(s, isText ? rt.tfault : rt.vfault);
    emitTouch(s, map.kernelStackAddr(p.slot) + 4096 - 768, 384, true);
    emitTouch(s, map.uRestAddr(p.slot) + 1024, 64, true);

    // Region lookup under the per-process page table lock.
    emitLock(s, shrLock(p.slot));
    const Addr ptAddr = map.pageTableAddr(p.slot) + (vpage % 1024) * 4;
    emitTouch(s, ptAddr, 16, false);
    emitUnlock(s, shrLock(p.slot));

    if (is_prot) {
        // Copy-on-write break.
        Pte *pte = p.findPte(vpage);
        if (!pte || !pte->present)
            util::panic("protection fault on non-resident page");
        emitText(s, rt.cow_break);
        const uint64_t old = pte->ppage;
        const uint64_t np = allocPage(s, cpu);
        emitBcopy(s, old * cfg.layout.pageBytes,
                  np * cfg.layout.pageBytes, cfg.layout.pageBytes,
                  BlockClass::FullPage);
        pte->ppage = uint32_t(np);
        pte->cow = false;
        pte->writable = true;
        releasePage(s, old);
        m.cpu(cpu).tlb.insert(p.pid, vpage, np, true);
    } else if (isShared) {
        auto it = sharedMap.find(vpage);
        uint64_t pp;
        if (it != sharedMap.end()) {
            pp = it->second;
            emitTouch(s, map.pfdatAddr(pp), map.pfdatEntryBytes(),
                      false);
        } else {
            pp = allocPage(s, cpu);
            emitText(s, rt.zfod);
            emitBclear(s, pp * cfg.layout.pageBytes,
                       cfg.layout.pageBytes, BlockClass::FullPage);
            sharedMap[vpage] = pp;
        }
        p.pageTable[vpage] = Pte{uint32_t(pp), true, true, false, false,
                                 true};
        m.cpu(cpu).tlb.insert(p.pid, vpage, pp, true);
    } else if (isText) {
        auto it = pageCache.find(cacheKey);
        uint64_t pp;
        if (it != pageCache.end()) {
            // Resident in the page cache: just map it.
            pp = it->second;
            textRef[cacheKey] = true;
            emitTouch(s, map.pfdatAddr(pp), map.pfdatEntryBytes(),
                      false);
        } else {
            // Page it in from the image file, klustering the faulted
            // page with its following neighbours into one transfer.
            pp = allocPage(s, cpu);
            const uint32_t ino = 1000 + p.imageId;
            emitText(s, rt.iget, 0.0, 0.5);
            emitLockShared(s, inoLock(ino));
            emitTouch(s, map.inodeAddr(ino), 64, false);
            emitUnlockShared(s, inoLock(ino));
            emitText(s, rt.bmap, 0.0, 0.8);
            emitText(s, rt.disk_strategy);
            const double off = rng.real() * 0.9;
            emitText(s, rt.scsi_driver, off, off + 0.08);
            s.push_back(ScriptItem::uncachedStore(0x40000000));
            s.push_back(ScriptItem::uncachedStore(0x40000010));

            pageCache[cacheKey] = pp;
            textLru.push_back(cacheKey);
            pageHeldCode[pp] = 1;
            uint32_t kluster = 1;
            const Addr imgIdx = vpage - textVp0;
            for (uint32_t n = 1; n < 8; ++n) {
                const Addr nIdx = imgIdx + n;
                if (nIdx >= img.textPages)
                    break;
                const uint64_t nKey =
                    (uint64_t(p.imageId) << 32) | nIdx;
                if (pageCache.count(nKey))
                    break;
                const uint64_t np = allocPage(s, cpu);
                pageCache[nKey] = np;
                textLru.push_back(nKey);
                pageHeldCode[np] = 1;
                ++kluster;
            }

            const Cycle wake = disk.schedule(m.now(), kluster);
            scheduleEvent({wake, Event::Kind::DiskDone,
                           uint64_t(p.pid)});
            s.push_back(ScriptItem::mark(MarkerOp::SleepDisk, wake));
            // DMA fills the pages; update the descriptors afterwards.
            emitTouch(s, map.pfdatAddr(pp), map.pfdatEntryBytes(),
                      true);
        }
        textMappers[cacheKey].emplace_back(p.pid, vpage);
        p.pageTable[vpage] = Pte{uint32_t(pp), true, false, false, true,
                                 false};
        m.cpu(cpu).tlb.insert(p.pid, vpage, pp, false);
    } else {
        // Demand-zero data or stack page.
        const uint64_t pp = allocPage(s, cpu);
        emitText(s, rt.zfod);
        emitBclear(s, pp * cfg.layout.pageBytes, cfg.layout.pageBytes,
                   BlockClass::FullPage);
        p.pageTable[vpage] =
            Pte{uint32_t(pp), true, true, false, false, false};
        m.cpu(cpu).tlb.insert(p.pid, vpage, pp, true);
        (void)is_store;
    }

    // Record the new translation in the page table.
    emitLock(s, shrLock(p.slot));
    emitTouch(s, ptAddr, 4, true);
    emitUnlock(s, shrLock(p.slot));

    emitEpilogue(s, p);
    s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    return s;
}

// ---------------------------------------------------------------------
// System calls
// ---------------------------------------------------------------------

Kernel::Script
Kernel::pathSyscall(CpuId cpu, Process &p, Sys n, uint64_t payload)
{
    OsOp op;
    switch (n) {
      case Sys::Read:
      case Sys::Write:
        op = OsOp::IoSyscall;
        break;
      case Sys::Sginap:
        op = OsOp::Sginap;
        break;
      default:
        op = OsOp::OtherSyscall;
        break;
    }

    Script s;
    s.push_back(ScriptItem::mark(MarkerOp::OsEnter, uint64_t(op)));
    emitPrologue(s, p);
    emitText(s, rt.syscall_entry);
    emitTouch(s, map.uRestAddr(p.slot) + 16, 96, false);
    emitTouch(s, map.procTableAddr(p.slot), 32, false);

    bool ends_with_resched = false;
    switch (n) {
      case Sys::Read:
        emitText(s, rt.rdwr_setup);
        emitTouch(s, map.uRestAddr(p.slot) + 128, 64, true);
        bodyRead(s, cpu, p, payload);
        break;
      case Sys::Write:
        emitText(s, rt.rdwr_setup);
        emitTouch(s, map.uRestAddr(p.slot) + 128, 64, true);
        bodyWrite(s, cpu, p, payload);
        break;
      case Sys::Sginap:
        bodySginap(s, p);
        ends_with_resched = true;
        break;
      case Sys::Fork:
        bodyFork(s, cpu, p);
        break;
      case Sys::Exec:
        bodyExec(s, cpu, p, uint32_t(payload));
        break;
      case Sys::Exit:
        bodyExit(s, cpu, p);
        ends_with_resched = true;
        break;
      case Sys::Wait:
        bodyWait(s, p);
        break;
      case Sys::Brk:
        bodyBrk(s, cpu, p, uint32_t(payload));
        break;
      case Sys::Other:
        bodyOther(s, cpu, p);
        break;
    }

    if (!ends_with_resched) {
        emitEpilogue(s, p);
        s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    }
    return s;
}

Kernel::Script
Kernel::pathFutexWait(Process &p, uint32_t lock_id)
{
    // FUTEX_WAIT: full syscall entry, the in-kernel re-check/sleep
    // marker, then a normal return path (executed on wake, or
    // immediately when the re-check finds the lock already free).
    Script s;
    s.push_back(ScriptItem::mark(MarkerOp::OsEnter,
                                 uint64_t(OsOp::OtherSyscall)));
    emitPrologue(s, p);
    emitText(s, rt.syscall_entry);
    emitTouch(s, map.uRestAddr(p.slot) + 16, 96, false);
    emitTouch(s, map.procTableAddr(p.slot), 32, false);
    emitText(s, rt.sginap_sys); // sleep/wakeup plumbing
    s.push_back(ScriptItem::mark(MarkerOp::Custom, customFutexWait,
                                 lock_id));
    emitEpilogue(s, p);
    s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    return s;
}

void
Kernel::bodyTtyRead(Script &s, Process &p, uint32_t session,
                    uint32_t bytes)
{
    emitText(s, rt.read_sys, 0.0, 0.4);
    const uint32_t slock = streamsLock(session);
    // The per-session stream buffer lives in the tail of buffer data.
    const Addr qaddr =
        map.bufDataAddr(cfg.layout.numBuffers - 1 - session % 8);

    emitLock(s, slock);
    emitText(s, rt.streams_core, 0.0, 0.03);
    emitTouch(s, qaddr, 64, false);
    emitUnlock(s, slock);

    s.push_back(ScriptItem::mark(MarkerOp::Custom, customBlockTty,
                                 session));

    // After input is available: pull the characters to the user.
    emitLock(s, slock);
    emitText(s, rt.tty_driver, 0.0, 0.02);
    const uint64_t dst =
        ensureResident(s, 0, p, p.ioBufVaddr, true);
    emitBcopy(s, qaddr, dst * cfg.layout.pageBytes,
              std::min(bytes, 64u), BlockClass::IrregularChunk);
    emitTouch(s, qaddr, 32, true);
    emitUnlock(s, slock);
}

void
Kernel::bodyRead(Script &s, CpuId cpu, Process &p, uint64_t payload)
{
    const uint32_t file = ioFile(payload);
    const uint32_t bytes = ioBytes(payload);
    const uint32_t start = ioStartBlock(payload);

    if (file >= 0x400000) {
        bodyTtyRead(s, p, file - 0x400000, bytes);
        return;
    }

    const uint32_t ino = file;
    if (start == 0) {
        // First read = open: pathname lookup and inode grab, with the
        // path string copied in (an irregular block copy).
        emitText(s, rt.namei, 0.0, 0.9);
        const uint64_t sp = ensureResident(
            s, cpu, p, VaMap::stackBase + 0x100, false);
        emitBcopy(s, sp * cfg.layout.pageBytes,
                  map.kernelStackAddr(p.slot) + 2048,
                  32 + uint32_t(rng.below(96)),
                  BlockClass::IrregularChunk);
        emitLockShared(s, Ifree);
        emitTouch(s, map.inodeAddr(ino), 64, false);
        emitUnlockShared(s, Ifree);
    }

    emitText(s, rt.read_sys);
    emitLockShared(s, inoLock(ino));
    emitTouch(s, map.inodeAddr(ino), 64, false);
    emitUnlockShared(s, inoLock(ino));

    const Addr dstVaddr =
        p.ioBufVaddr +
        Addr(p.ioRotor++ % 8) * cfg.layout.pageBytes;
    const uint64_t dstPage = ensureResident(s, cpu, p, dstVaddr, true);
    // Deep call chain: a real read path builds several stack frames.
    emitTouch(s, map.kernelStackAddr(p.slot) + 4096 - 1024, 512, true);
    const uint32_t nblocks =
        std::max(1u, (bytes + cfg.layout.pageBytes - 1) /
                         cfg.layout.pageBytes);

    uint32_t left = bytes;
    for (uint32_t b = 0; b < nblocks; ++b) {
        const int64_t blkno = int64_t(file) * 4096 + start + b;
        const uint32_t chunk =
            std::min(left, cfg.layout.pageBytes);
        left -= chunk;

        emitText(s, rt.bmap, 0.0, 0.8);
        emitTouch(s, map.uRestAddr(p.slot) + 512, 48, true);
        emitTouch(s, map.kernelStackAddr(p.slot) + 4096 - 1536, 256,
                  true);
        emitLock(s, Bfreelock);
        emitText(s, rt.getblk, 0.0, 0.9);
        const uint32_t chain = bufcache.chainLength(blkno);
        for (uint32_t i = 0; i < chain; ++i) {
            emitTouch(s,
                      map.bufHeaderAddr(uint32_t(blkno + i * 7)), 32,
                      false);
        }

        int32_t idx = bufcache.lookup(blkno);
        if (idx >= 0) {
            bufcache.touchUse(uint32_t(idx));
            emitTouch(s, map.bufHeaderAddr(uint32_t(idx)), 32, false);
            emitUnlock(s, Bfreelock);
        } else {
            const auto g = bufcache.getVictim(blkno);
            idx = int32_t(g.index);
            emitTouch(s, map.bufHeaderAddr(g.index), 68, true);
            emitUnlock(s, Bfreelock);
            if (g.wasDirty) {
                // Asynchronous write-back of the victim.
                emitText(s, rt.bwrite, 0.0, 0.4);
                disk.schedule(m.now(), 1);
            }
            emitText(s, rt.bread);
            emitText(s, rt.disk_strategy);
            const double off = rng.real() * 0.85;
            emitText(s, rt.scsi_driver, off, off + 0.12);
            s.push_back(ScriptItem::uncachedStore(0x40000000));
            s.push_back(ScriptItem::uncachedStore(0x40000010));
            const Cycle wake = disk.schedule(m.now(), 1);
            scheduleEvent({wake, Event::Kind::DiskDone,
                           uint64_t(p.pid)});
            s.push_back(ScriptItem::mark(MarkerOp::SleepDisk, wake));
            // Return path: back up through bread/read_sys frames.
            emitText(s, rt.bread, 0.5, 1.0);
            emitText(s, rt.read_sys, 0.4, 1.0);
            emitTouch(s, map.bufHeaderAddr(g.index), 68, true);
        }
        // Copy the block to the user's buffer.
        emitBcopy(s, map.bufDataAddr(uint32_t(idx)),
                  dstPage * cfg.layout.pageBytes, chunk,
                  BlockClass::RegularFragment);
    }

    // Update the inode (access time, file position).
    emitLock(s, inoLock(ino));
    emitTouch(s, map.inodeAddr(ino), 32, true);
    emitUnlock(s, inoLock(ino));
}

void
Kernel::bodyWrite(Script &s, CpuId cpu, Process &p, uint64_t payload)
{
    const uint32_t file = ioFile(payload);
    const uint32_t bytes = ioBytes(payload);
    const uint32_t start = ioStartBlock(payload);
    const bool sync = ioSync(payload);
    const uint32_t ino = file;

    emitText(s, rt.write_sys);
    emitLockShared(s, inoLock(ino));
    emitTouch(s, map.inodeAddr(ino), 64, false);
    emitUnlockShared(s, inoLock(ino));

    const Addr srcVaddr =
        p.ioBufVaddr +
        Addr(p.ioRotor++ % 8) * cfg.layout.pageBytes;
    const uint64_t srcPage = ensureResident(s, cpu, p, srcVaddr, false);
    emitTouch(s, map.kernelStackAddr(p.slot) + 4096 - 1024, 512, true);
    const uint32_t nblocks =
        std::max(1u, (bytes + cfg.layout.pageBytes - 1) /
                         cfg.layout.pageBytes);

    uint32_t left = bytes;
    for (uint32_t b = 0; b < nblocks; ++b) {
        const int64_t blkno = int64_t(file) * 4096 + start + b;
        const uint32_t chunk = std::min(left, cfg.layout.pageBytes);
        left -= chunk;

        // Allocate the disk block for file growth.
        emitText(s, rt.dfbmap, 0.0, 0.5);
        emitLock(s, Dfbmaplk);
        emitTouch(s, map.inodeAddr(ino) + 128, 16, true);
        emitUnlock(s, Dfbmaplk);

        emitLock(s, Bfreelock);
        emitText(s, rt.getblk, 0.0, 0.9);
        int32_t idx = bufcache.lookup(blkno);
        if (idx >= 0) {
            bufcache.touchUse(uint32_t(idx));
            emitTouch(s, map.bufHeaderAddr(uint32_t(idx)), 32, false);
        } else {
            const auto g = bufcache.getVictim(blkno);
            idx = int32_t(g.index);
            emitTouch(s, map.bufHeaderAddr(g.index), 68, true);
            if (g.wasDirty) {
                emitText(s, rt.bwrite, 0.0, 0.4);
                disk.schedule(m.now(), 1);
            }
        }
        emitUnlock(s, Bfreelock);

        emitBcopy(s, srcPage * cfg.layout.pageBytes,
                  map.bufDataAddr(uint32_t(idx)), chunk,
                  BlockClass::RegularFragment);
        bufcache.markDirty(uint32_t(idx));

        if (sync) {
            // Synchronous write (e.g. a database log): wait for it.
            emitText(s, rt.bwrite);
            emitText(s, rt.disk_strategy);
            const double off = rng.real() * 0.9;
            emitText(s, rt.scsi_driver, off, off + 0.08);
            s.push_back(ScriptItem::uncachedStore(0x40000000));
            const Cycle wake = disk.schedule(m.now(), 1);
            scheduleEvent({wake, Event::Kind::DiskDone,
                           uint64_t(p.pid)});
            s.push_back(ScriptItem::mark(MarkerOp::SleepDisk, wake));
            bufcache.clean(uint32_t(idx));
        }
    }

    emitLock(s, inoLock(ino));
    emitTouch(s, map.inodeAddr(ino), 48, true);
    emitUnlock(s, inoLock(ino));
}

void
Kernel::bodySginap(Script &s, Process &p)
{
    (void)p;
    emitText(s, rt.sginap_sys);
    emitLock(s, Semlock);
    emitTouch(s, map.calloutAddr(32), 16, false);
    emitUnlock(s, Semlock);
    emitReschedSeq(s);
}

void
Kernel::bodyFork(Script &s, CpuId cpu, Process &parent)
{
    Process *childp = nullptr;
    for (auto &pp : procs) {
        if (pp->state == ProcState::Free) {
            childp = pp.get();
            break;
        }
    }
    if (!childp)
        util::raise(util::ErrCode::ResourceExhausted,
                    "fork: out of process slots (maxProcs %u)",
                    uint32_t(procs.size()));
    Process &child = *childp;
    child.resetForReuse();
    // Stale translations from the slot's previous occupant.
    for (uint32_t c = 0; c < m.numCpus(); ++c)
        m.cpu(c).tlb.invalidatePid(child.pid);

    ++nForks;
    emitText(s, rt.fork_sys);
    // Scan the process table for a free slot, then fill it in.
    emitTouch(s, map.procTableAddr(0), 8 * map.procEntryBytes(), false);
    emitTouch(s, map.procTableAddr(child.slot), map.procEntryBytes(),
              true);

    // Duplicate the user structure (kernel-internal full-page copy).
    emitBcopy(s, map.kernelStackAddr(parent.slot) + 4096,
              map.kernelStackAddr(child.slot) + 4096, 4096,
              BlockClass::FullPage);

    // Copy the address space, marking private writable pages COW in
    // both parent and child.
    const uint32_t shrParent = shrLock(parent.slot);
    const uint32_t shrChild = shrLock(child.slot);
    emitLock(s, shrParent);
    if (shrChild != shrParent)
        emitLock(s, shrChild);
    const uint32_t npte = uint32_t(parent.pageTable.size());
    emitTouch(s, map.pageTableAddr(parent.slot),
              std::min<uint32_t>(npte * 4, 4096), false);
    emitTouch(s, map.pageTableAddr(child.slot),
              std::min<uint32_t>(npte * 4, 4096), true);
    child.pageTable = parent.pageTable;
    for (auto &[vp, pte] : parent.pageTable) {
        if (pte.present && !pte.shared && !pte.text) {
            if (pte.writable) {
                pte.cow = true;
                child.pageTable[vp].cow = true;
            }
            ++pageRefs[pte.ppage]; // the child shares the frame
        }
    }
    if (shrChild != shrParent)
        emitUnlock(s, shrChild);
    emitUnlock(s, shrParent);
    // The parent's now-COW mappings must fault on the next store.
    for (uint32_t c = 0; c < m.numCpus(); ++c)
        m.cpu(c).tlb.invalidatePid(parent.pid);

    // Small kernel-heap initialization for the new process.
    emitBclear(s, map.pageTableAddr(child.slot) + 2048,
               64 + uint32_t(rng.below(192)),
               BlockClass::IrregularChunk);

    child.name = parent.name + "+";
    child.imageId = parent.imageId;
    child.parent = parent.pid;
    child.ticksLeft = cfg.quantumTicks;
    child.state = ProcState::Blocked; // makeReady flips it below

    if (!client)
        util::raise(util::ErrCode::BadConfig,
                    "fork with no kernel client installed");
    client->onFork(parent, child);
    if (!child.behavior)
        util::raise(util::ErrCode::BadConfig,
                    "kernel client did not install a child behavior");

    emitLock(s, Runqlk);
    emitText(s, rt.setrq);
    emitTouch(s, map.runQueueAddr(), 24, true);
    emitUnlock(s, Runqlk);
    makeReady(child.pid);
    (void)cpu;
}

void
Kernel::bodyExec(Script &s, CpuId cpu, Process &p, uint32_t image_id)
{
    if (image_id >= images.size())
        util::raise(util::ErrCode::BadConfig,
                    "exec: unknown image %u (have %u)", image_id,
                    uint32_t(images.size()));
    emitText(s, rt.exec_sys);

    // Pathname lookup + argv copy-in.
    emitText(s, rt.namei, 0.0, 0.8);
    const uint64_t sp =
        ensureResident(s, cpu, p, VaMap::stackBase + 0x200, false);
    emitBcopy(s, sp * cfg.layout.pageBytes,
              map.kernelStackAddr(p.slot) + 1024,
              64 + uint32_t(rng.below(160)), BlockClass::IrregularChunk);
    const uint32_t ino = 1000 + image_id;
    emitLockShared(s, Ifree);
    emitTouch(s, map.inodeAddr(ino), 64, false);
    emitUnlockShared(s, Ifree);

    // Release the old address space.
    emitLock(s, shrLock(p.slot));
    emitText(s, rt.pagefree);
    emitLock(s, Memlock);
    releasePrivatePages(s, p);
    emitUnlock(s, Memlock);
    p.pageTable.clear();
    emitTouch(s, map.pageTableAddr(p.slot), 1024, true);
    emitUnlock(s, shrLock(p.slot));

    for (uint32_t c = 0; c < m.numCpus(); ++c)
        m.cpu(c).tlb.invalidatePid(p.pid);

    p.imageId = image_id;
    emitTouch(s, map.procTableAddr(p.slot), map.procEntryBytes(), true);
}

void
Kernel::bodyExit(Script &s, CpuId cpu, Process &p)
{
    (void)cpu;
    ++nExits;
    emitText(s, rt.exit_sys);

    // Release the address space.
    emitLock(s, shrLock(p.slot));
    emitText(s, rt.pagefree);
    emitLock(s, Memlock);
    releasePrivatePages(s, p);
    emitUnlock(s, Memlock);
    p.pageTable.clear();
    emitUnlock(s, shrLock(p.slot));

    // Close files.
    emitText(s, rt.iput);
    emitLock(s, Ifree);
    emitTouch(s, map.inodeAddr(uint32_t(p.pid) * 7), 32, true);
    emitUnlock(s, Ifree);

    emitTouch(s, map.procTableAddr(p.slot), map.procEntryBytes(), true);
    p.state = ProcState::Zombie;

    // Notify the parent.
    if (p.parent != sim::invalidPid) {
        Process &par = *procs[uint32_t(p.parent)];
        if (par.state != ProcState::Free) {
            ++par.pendingChildExits;
            if (par.waitingForChild) {
                par.waitingForChild = false;
                --par.pendingChildExits;
                emitLock(s, Runqlk);
                emitText(s, rt.setrq);
                emitTouch(s, map.runQueueAddr(), 24, true);
                emitTouch(s, map.procTableAddr(par.slot), 48, true);
                emitUnlock(s, Runqlk);
                makeReady(par.pid);
            }
        }
    }
    if (client)
        client->onProcExit(p);

    emitReschedSeq(s);
}

void
Kernel::bodyWait(Script &s, Process &p)
{
    emitText(s, rt.wait_sys);
    emitTouch(s, map.procTableAddr(0), 8 * map.procEntryBytes(), false);
    if (p.pendingChildExits > 0) {
        // Reap one exited child immediately (the zombie's slot is
        // recycled when it leaves its CPU).
        --p.pendingChildExits;
        emitTouch(s, map.procTableAddr(p.slot), 48, true);
        return;
    }
    s.push_back(ScriptItem::mark(MarkerOp::Custom, customBlockWait, 0));
    // If the marker blocks, the epilogue that follows resumes when a
    // child exits (the exiting child reaps itself into our slot
    // bookkeeping via bodyExit).
}

void
Kernel::bodyBrk(Script &s, CpuId cpu, Process &p, uint32_t pages)
{
    (void)cpu;
    (void)pages;
    emitText(s, rt.brk_sys);
    emitLock(s, shrLock(p.slot));
    emitTouch(s, map.pageTableAddr(p.slot), 64, true);
    emitUnlock(s, shrLock(p.slot));
}

void
Kernel::bodyOther(Script &s, CpuId cpu, Process &p)
{
    const double hi = 0.3 + rng.real() * 0.7;
    emitText(s, rt.misc_sys, hi - 0.3, hi);
    emitTouch(s, map.uRestAddr(p.slot) + 256, 64, true);
    if (rng.chance(0.5)) {
        // Parameter copy-in/out: an irregular block copy.
        const uint64_t sp = ensureResident(
            s, cpu, p, VaMap::stackBase + 0x300, false);
        emitBcopy(s, sp * cfg.layout.pageBytes,
                  map.kernelStackAddr(p.slot) + 3072,
                  32 + uint32_t(rng.below(96)),
                  BlockClass::IrregularChunk);
    }
    if (rng.chance(0.15)) {
        emitText(s, rt.alloc_kmem);
        emitBclear(s, map.pageTableAddr(p.slot) + 3584,
                   48 + uint32_t(rng.below(128)),
                   BlockClass::IrregularChunk);
    }
}

// ---------------------------------------------------------------------
// Interrupts and rescheduling
// ---------------------------------------------------------------------

void
Kernel::emitReschedSeq(Script &s)
{
    emitText(s, rt.resched);
    emitLock(s, Runqlk);
    emitText(s, rt.setrq);
    emitTouch(s, map.runQueueAddr(), 24, true);
    emitText(s, rt.pickproc);
    emitTouch(s, map.hiNdprocAddr(), 8, false);
    // Peek at the head of the queue (what pickproc will look at).
    const uint32_t peek = std::min<uint32_t>(3,
                                             uint32_t(runQueue.size()));
    for (uint32_t i = 0; i < peek; ++i) {
        emitTouch(s,
                  map.procTableAddr(
                      procs[uint32_t(runQueue[i])]->slot),
                  32, false);
    }
    emitUnlock(s, Runqlk);
    s.push_back(ScriptItem::mark(MarkerOp::Resched));
}

Kernel::Script
Kernel::pathClockInterrupt(CpuId cpu)
{
    ++clockCount;
    Script s;
    s.push_back(ScriptItem::mark(MarkerOp::OsEnter,
                                 uint64_t(OsOp::Interrupt)));
    const Pid pid = curProc[cpu];
    Process *p =
        pid != sim::invalidPid ? procs[uint32_t(pid)].get() : nullptr;
    if (p)
        emitPrologue(s, *p);

    emitText(s, rt.clock_intr);
    emitTouch(s, map.kernelStackAddr(p ? p->slot : 0) + 4096 - 512,
              128, true);
    emitLock(s, Calock);
    emitText(s, rt.callout_svc, 0.0, 0.5);
    emitTouch(s, map.calloutAddr(uint32_t(clockCount % 64)), 32, false);
    if (rng.chance(0.25))
        emitTouch(s, map.calloutAddr(uint32_t(clockCount % 64)), 16,
                  true);
    emitUnlock(s, Calock);

    if (p) {
        // CPU time accounting for the running process.
        emitTouch(s, map.procTableAddr(p->slot), 32, true);
    }

    if (clockCount % 4 == 0) {
        // Periodic priority recomputation sweeps the process table.
        emitText(s, rt.schedcpu);
        for (uint32_t i = 0; i < 8; ++i) {
            emitTouch(s, map.procTableAddr((uint32_t(clockCount) + i) %
                                           cfg.layout.maxProcs),
                      32, true);
        }
    }

    bool resched = false;
    if (p) {
        if (--p->ticksLeft <= 0 && !runQueue.empty())
            resched = true;
    }
    if (resched) {
        emitReschedSeq(s);
    } else {
        if (p)
            emitEpilogue(s, *p);
        s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    }
    return s;
}

Kernel::Script
Kernel::pathDiskInterrupt(CpuId cpu, Pid sleeper)
{
    Script s;
    s.push_back(ScriptItem::mark(MarkerOp::OsEnter,
                                 uint64_t(OsOp::Interrupt)));
    const Pid pid = curProc[cpu];
    Process *p =
        pid != sim::invalidPid ? procs[uint32_t(pid)].get() : nullptr;
    if (p)
        emitPrologue(s, *p);

    emitText(s, rt.disk_intr);
    const double off = rng.real() * 0.9;
    emitText(s, rt.scsi_driver, off, off + 0.06);
    s.push_back(ScriptItem::uncachedLoad(0x40000000));
    s.push_back(ScriptItem::uncachedLoad(0x40000020));
    s.push_back(ScriptItem::uncachedStore(0x40000010));

    // Wake the sleeping process.
    Process &sp = *procs[uint32_t(sleeper)];
    if (sp.state == ProcState::Blocked && !sp.waitingForChild &&
        sp.blockedOnTty < 0) {
        emitLock(s, Runqlk);
        emitText(s, rt.setrq);
        emitTouch(s, map.runQueueAddr(), 24, true);
        emitTouch(s, map.procTableAddr(sp.slot), 48, true);
        emitUnlock(s, Runqlk);
        makeReady(sleeper);
    } else {
        ++sp.wakePending;
    }

    if (p)
        emitEpilogue(s, *p);
    s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    return s;
}

Kernel::Script
Kernel::pathTtyInterrupt(CpuId cpu, uint32_t session)
{
    Script s;
    s.push_back(ScriptItem::mark(MarkerOp::OsEnter,
                                 uint64_t(OsOp::Interrupt)));
    const Pid pid = curProc[cpu];
    Process *p =
        pid != sim::invalidPid ? procs[uint32_t(pid)].get() : nullptr;
    if (p)
        emitPrologue(s, *p);

    emitText(s, rt.tty_intr);
    const uint32_t slock = streamsLock(session);
    emitLock(s, slock);
    emitText(s, rt.stream_svc, 0.0, 0.4);
    const Addr qaddr =
        map.bufDataAddr(cfg.layout.numBuffers - 1 - session % 8);
    emitTouch(s, qaddr, 48, true);
    emitUnlock(s, slock);

    TtySession &t = ttys[session];
    if (t.reader != sim::invalidPid) {
        Process &rp = *procs[uint32_t(t.reader)];
        if (rp.state == ProcState::Blocked &&
            rp.blockedOnTty == int32_t(session)) {
            rp.blockedOnTty = -1;
            emitLock(s, Runqlk);
            emitText(s, rt.setrq);
            emitTouch(s, map.runQueueAddr(), 24, true);
            emitTouch(s, map.procTableAddr(rp.slot), 48, true);
            emitUnlock(s, Runqlk);
            makeReady(t.reader);
        }
        t.reader = sim::invalidPid;
    }

    if (p)
        emitEpilogue(s, *p);
    s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    return s;
}

} // namespace mpos::kernel
