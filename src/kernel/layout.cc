#include "kernel/layout.hh"

#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::kernel
{

namespace
{

/** Round x up to a multiple of a (a power of two). */
Addr
roundUp(Addr x, Addr a)
{
    return (x + a - 1) & ~(a - 1);
}

/** Buffer header: 68 B; 256 buffers = 17408 B (Table 3). */
constexpr uint32_t bufHeaderSize = 68;
/** In-core inode: 268 B; 256 = 68608 B (Table 3). */
constexpr uint32_t inodeSize = 268;

} // namespace

const char *
kstructName(KStruct s)
{
    switch (s) {
      case KStruct::KernelStack: return "Kernel Stack";
      case KStruct::Pcb: return "PCB (User Structure)";
      case KStruct::Eframe: return "Eframe (User Structure)";
      case KStruct::URest: return "Rest of User Structure";
      case KStruct::ProcTable: return "Process Table";
      case KStruct::Pfdat: return "Pfdat";
      case KStruct::Buffer: return "Buffer";
      case KStruct::Inode: return "Inode";
      case KStruct::RunQueue: return "Run Queue";
      case KStruct::FreePgBuck: return "FreePgBuck";
      case KStruct::HiNdproc: return "Hi_ndproc";
      case KStruct::Callout: return "Callout";
      case KStruct::PageTableHeap: return "Page Tables";
      case KStruct::BufData: return "Buffer Data";
      case KStruct::KernelText: return "Kernel Text";
      case KStruct::UserPage: return "User Page";
      case KStruct::Other: return "Other";
    }
    return "?";
}

KernelLayout::KernelLayout(const LayoutConfig &config,
                           const sim::MachineConfig &machine)
    : cfg(config), pageBytes(machine.pageBytes),
      lineBytes(machine.lineBytes), memBytes(machine.memBytes)
{
    if (cfg.maxProcs > 256)
        util::raise(util::ErrCode::BadConfig,
                    "layout supports at most 256 process slots (got %u)",
                    cfg.maxProcs);
    buildText();
    buildData();
}

RoutineId
KernelLayout::addRoutine(const std::string &name, uint32_t bytes,
                         RoutineGroup group)
{
    if (bytes % lineBytes != 0)
        util::panic("routine %s size %u not line-aligned", name.c_str(),
                    bytes);
    Routine r;
    r.name = name;
    r.textBase = textLimit;
    r.textBytes = bytes;
    r.group = group;
    routines.push_back(r);
    byName.emplace(name, RoutineId(routines.size() - 1));
    textLimit += bytes;
    return RoutineId(routines.size() - 1);
}

void
KernelLayout::buildText()
{
    using G = RoutineGroup;
    if (cfg.optimizedTextLayout) {
        buildTextOptimized();
        return;
    }
    // The order below fixes the physical layout of kernel text. It
    // mimics an unoptimized link order: low-level assembly first, then
    // the scheduler, system-call, file-system, VM and interrupt code,
    // then the large drivers whose cache shadow overlaps everything
    // before them (the source of Figure 5's self-interference spikes).
    addRoutine("locore_except", 2048, G::LowLevelExc);
    addRoutine("utlbmiss", 128, G::LowLevelExc);
    addRoutine("locore_rfe", 1536, G::LowLevelExc);
    addRoutine("idleloop", 128, G::Idle);
    addRoutine("spinlock_acquire", 96, G::Synchronization);
    addRoutine("spinlock_release", 64, G::Synchronization);

    // Run-queue management: the "seven routines that form the core of
    // the run queue management" (Table 5).
    addRoutine("swtch", 1280, G::RunQueueMgmt);
    addRoutine("resched", 1024, G::RunQueueMgmt);
    addRoutine("setrq", 640, G::RunQueueMgmt);
    addRoutine("remrq", 640, G::RunQueueMgmt);
    addRoutine("pickproc", 1024, G::RunQueueMgmt);
    addRoutine("schedcpu", 1280, G::RunQueueMgmt);
    addRoutine("qswtch", 768, G::RunQueueMgmt);

    addRoutine("syscall_entry", 2048, G::RdWrSetup);
    addRoutine("rdwr_setup", 1536, G::RdWrSetup);
    addRoutine("read_sys", 3072, G::Syscall);
    addRoutine("write_sys", 3072, G::Syscall);
    addRoutine("sginap_sys", 1024, G::Syscall);
    addRoutine("fork_sys", 4096, G::Syscall);
    addRoutine("exec_sys", 6144, G::Syscall);
    addRoutine("exit_sys", 3072, G::Syscall);
    addRoutine("wait_sys", 1536, G::Syscall);
    addRoutine("brk_sys", 1024, G::Syscall);
    addRoutine("misc_sys", 5120, G::Syscall);

    addRoutine("namei", 5120, G::FileSystem);
    addRoutine("iget", 2048, G::FileSystem);
    addRoutine("iput", 1536, G::FileSystem);
    addRoutine("bmap", 2560, G::FileSystem);
    addRoutine("getblk", 3072, G::FileSystem);
    addRoutine("brelse", 1024, G::FileSystem);
    addRoutine("bread", 2048, G::FileSystem);
    addRoutine("bwrite", 2048, G::FileSystem);
    addRoutine("dfbmap", 1536, G::FileSystem);
    addRoutine("ino_rw", 2560, G::FileSystem);
    addRoutine("fs_misc", 16384, G::FileSystem);

    addRoutine("vfault", 3072, G::VirtualMemory);
    addRoutine("tfault", 2048, G::VirtualMemory);
    addRoutine("pagealloc", 1536, G::VirtualMemory);
    addRoutine("pagefree", 1280, G::VirtualMemory);
    addRoutine("pfdat_scan", 1024, G::BlockOp);
    addRoutine("cow_break", 1536, G::VirtualMemory);
    addRoutine("zfod", 1024, G::VirtualMemory);
    addRoutine("bcopy", 320, G::BlockOp);
    addRoutine("bclear", 192, G::BlockOp);
    addRoutine("ptesync", 768, G::VirtualMemory);

    addRoutine("clock_intr", 2560, G::Interrupt);
    addRoutine("callout_svc", 1024, G::Interrupt);
    addRoutine("disk_intr", 3072, G::Interrupt);
    addRoutine("tty_intr", 1536, G::Interrupt);
    addRoutine("stream_svc", 2048, G::Interrupt);
    addRoutine("softint", 768, G::Interrupt);
    addRoutine("cpu_intr", 512, G::Interrupt);

    addRoutine("disk_strategy", 2048, G::Driver);
    addRoutine("scsi_driver", 49152, G::Driver);
    addRoutine("tty_driver", 16384, G::Driver);
    addRoutine("streams_core", 24576, G::Driver);
    addRoutine("net_driver", 49152, G::Driver);
    addRoutine("gfx_driver", 65536, G::Driver);

    addRoutine("kern_misc", 8192, G::Other);
    addRoutine("alloc_kmem", 1024, G::Other);
    addRoutine("timeout", 512, G::Other);
    addRoutine("copyio", 512, G::Other);
}

void
KernelLayout::buildTextOptimized()
{
    using G = RoutineGroup;
    // Frequency-ordered placement (the paper's Section 4.2.1
    // optimization, applied at routine granularity): the hottest
    // ~60 KB of kernel text packs conflict-free into the bottom
    // I-cache image; never-executed driver bulk follows immediately so
    // the "warm" overflow (exec/namei/inode code) wraps onto the
    // middle of the hot image instead of onto the exception vectors.
    addRoutine("locore_except", 2048, G::LowLevelExc);
    addRoutine("utlbmiss", 128, G::LowLevelExc);
    addRoutine("locore_rfe", 1536, G::LowLevelExc);
    addRoutine("idleloop", 128, G::Idle);
    addRoutine("spinlock_acquire", 96, G::Synchronization);
    addRoutine("spinlock_release", 64, G::Synchronization);
    addRoutine("syscall_entry", 2048, G::RdWrSetup);
    addRoutine("rdwr_setup", 1536, G::RdWrSetup);
    addRoutine("read_sys", 3072, G::Syscall);
    addRoutine("write_sys", 3072, G::Syscall);
    addRoutine("bmap", 2560, G::FileSystem);
    addRoutine("getblk", 3072, G::FileSystem);
    addRoutine("brelse", 1024, G::FileSystem);
    addRoutine("bread", 2048, G::FileSystem);
    addRoutine("bwrite", 2048, G::FileSystem);
    addRoutine("vfault", 3072, G::VirtualMemory);
    addRoutine("tfault", 2048, G::VirtualMemory);
    addRoutine("pagealloc", 1536, G::VirtualMemory);
    addRoutine("pagefree", 1280, G::VirtualMemory);
    addRoutine("zfod", 1024, G::VirtualMemory);
    addRoutine("cow_break", 1536, G::VirtualMemory);
    addRoutine("bcopy", 320, G::BlockOp);
    addRoutine("bclear", 192, G::BlockOp);
    addRoutine("pfdat_scan", 1024, G::BlockOp);
    addRoutine("swtch", 1280, G::RunQueueMgmt);
    addRoutine("resched", 1024, G::RunQueueMgmt);
    addRoutine("setrq", 640, G::RunQueueMgmt);
    addRoutine("remrq", 640, G::RunQueueMgmt);
    addRoutine("pickproc", 1024, G::RunQueueMgmt);
    addRoutine("schedcpu", 1280, G::RunQueueMgmt);
    addRoutine("qswtch", 768, G::RunQueueMgmt);
    addRoutine("clock_intr", 2560, G::Interrupt);
    addRoutine("callout_svc", 1024, G::Interrupt);
    addRoutine("disk_intr", 3072, G::Interrupt);
    addRoutine("disk_strategy", 2048, G::Driver);
    addRoutine("sginap_sys", 1024, G::Syscall);
    addRoutine("fork_sys", 4096, G::Syscall);
    addRoutine("exit_sys", 3072, G::Syscall);
    addRoutine("wait_sys", 1536, G::Syscall);
    addRoutine("brk_sys", 1024, G::Syscall);
    // ---- never-executed bulk pads the image so warm code below
    //      wraps onto mid-image offsets, not the vectors ----
    addRoutine("gfx_driver", 65536, G::Driver);
    addRoutine("net_driver", 49152, G::Driver);
    // ---- warm section ----
    addRoutine("exec_sys", 6144, G::Syscall);
    addRoutine("namei", 5120, G::FileSystem);
    addRoutine("iget", 2048, G::FileSystem);
    addRoutine("iput", 1536, G::FileSystem);
    addRoutine("misc_sys", 5120, G::Syscall);
    addRoutine("dfbmap", 1536, G::FileSystem);
    addRoutine("ino_rw", 2560, G::FileSystem);
    addRoutine("tty_intr", 1536, G::Interrupt);
    addRoutine("stream_svc", 2048, G::Interrupt);
    // ---- cold section ----
    addRoutine("fs_misc", 16384, G::FileSystem);
    addRoutine("ptesync", 768, G::VirtualMemory);
    addRoutine("softint", 768, G::Interrupt);
    addRoutine("cpu_intr", 512, G::Interrupt);
    addRoutine("scsi_driver", 49152, G::Driver);
    addRoutine("tty_driver", 16384, G::Driver);
    addRoutine("streams_core", 24576, G::Driver);
    addRoutine("kern_misc", 8192, G::Other);
    addRoutine("alloc_kmem", 1024, G::Other);
    addRoutine("timeout", 512, G::Other);
    addRoutine("copyio", 512, G::Other);
}

void
KernelLayout::buildData()
{
    Addr p = roundUp(textLimit, pageBytes);

    runQueueBase = p;
    p += 24;
    hiNdprocBase = p;
    p += 8;
    p = roundUp(p, lineBytes);

    freePgBuckBase = p;
    p += 3072;

    // Process table: 256 entries of 180 bytes = 46080 bytes (Table 3),
    // independent of how many slots the kernel actually uses.
    procEntrySize = 180;
    procTableBase = p;
    p += 256 * uint64_t(procEntrySize);
    p = roundUp(p, lineBytes);

    // Pfdat: one descriptor per physical page. The paper's 210944-byte
    // array over 8192 pages gives 25.75 B per descriptor; we use 26.
    pfdatEntrySize = 26;
    pfdatEntries = memBytes / pageBytes;
    pfdatBase = p;
    p += pfdatEntries * pfdatEntrySize;
    p = roundUp(p, lineBytes);

    bufHeaderBase = p;
    p += uint64_t(numBuffers) * bufHeaderSize;
    p = roundUp(p, lineBytes);

    inodeBase = p;
    p += uint64_t(numInodes) * inodeSize;
    p = roundUp(p, lineBytes);

    calloutBase = p;
    p += 2048;

    // Per-process block: 4096 B kernel stack, then the user structure
    // (240 B PCB + 172 B Eframe + 3684 B rest = 4096 B).
    p = roundUp(p, pageBytes);
    perProcBase = p;
    p += uint64_t(cfg.maxProcs) * 8192;

    // Per-process page tables in the kernel heap (4 KB each).
    pageTableBase = p;
    p += uint64_t(cfg.maxProcs) * pageBytes;

    // Buffer-cache data pages.
    p = roundUp(p, pageBytes);
    bufDataBase = p;
    p += uint64_t(numBuffers) * pageBytes;

    dataLimit = roundUp(p, pageBytes);
    userPoolFirst = dataLimit / pageBytes;
    userPoolCount = memBytes / pageBytes - userPoolFirst;

    if (dataLimit >= memBytes)
        util::raise(util::ErrCode::BadConfig,
                    "kernel image does not fit in physical memory "
                    "(%llu of %llu bytes)",
                    (unsigned long long)dataLimit,
                    (unsigned long long)memBytes);
}

RoutineId
KernelLayout::routine(const std::string &name) const
{
    const auto it = byName.find(name);
    if (it == byName.end())
        util::raise(util::ErrCode::BadConfig,
                    "unknown kernel routine '%s'", name.c_str());
    return it->second;
}

const Routine &
KernelLayout::routineInfo(RoutineId id) const
{
    if (id >= routines.size())
        util::panic("routine id %u out of range", unsigned(id));
    return routines[id];
}

RoutineId
KernelLayout::routineAt(Addr addr) const
{
    if (addr >= textLimit)
        return invalidRoutine;
    // Text is laid out in address order; binary search.
    uint32_t lo = 0, hi = uint32_t(routines.size());
    while (lo + 1 < hi) {
        const uint32_t mid = (lo + hi) / 2;
        if (routines[mid].textBase <= addr)
            lo = mid;
        else
            hi = mid;
    }
    const Routine &r = routines[lo];
    return addr < r.textBase + r.textBytes ? RoutineId(lo)
                                           : invalidRoutine;
}

Addr
KernelLayout::freePgBuckAddr(uint32_t bucket) const
{
    return freePgBuckBase + (bucket % 384) * 8;
}

Addr
KernelLayout::procTableAddr(uint32_t slot) const
{
    return procTableBase + uint64_t(slot % 256) * procEntrySize;
}

Addr
KernelLayout::pfdatAddr(uint64_t page) const
{
    return pfdatBase + (page % pfdatEntries) * pfdatEntrySize;
}

Addr
KernelLayout::bufHeaderAddr(uint32_t buf) const
{
    return bufHeaderBase + uint64_t(buf % numBuffers) * bufHeaderSize;
}

Addr
KernelLayout::bufDataAddr(uint32_t buf) const
{
    return bufDataBase + uint64_t(buf % numBuffers) * pageBytes;
}

Addr
KernelLayout::inodeAddr(uint32_t ino) const
{
    return inodeBase + uint64_t(ino % numInodes) * inodeSize;
}

Addr
KernelLayout::calloutAddr(uint32_t slot) const
{
    return calloutBase + (slot % 64) * 32;
}

Addr
KernelLayout::kernelStackAddr(uint32_t slot) const
{
    return perProcBase + uint64_t(slot % cfg.maxProcs) * 8192;
}

Addr
KernelLayout::pcbAddr(uint32_t slot) const
{
    return kernelStackAddr(slot) + 4096;
}

Addr
KernelLayout::eframeAddr(uint32_t slot) const
{
    return pcbAddr(slot) + 240;
}

Addr
KernelLayout::uRestAddr(uint32_t slot) const
{
    return eframeAddr(slot) + 172;
}

Addr
KernelLayout::pageTableAddr(uint32_t slot) const
{
    return pageTableBase + uint64_t(slot % cfg.maxProcs) * pageBytes;
}

uint64_t KernelLayout::procTableBytes() const { return 256 * 180; }
uint64_t
KernelLayout::pfdatBytes() const
{
    return pfdatEntries * pfdatEntrySize;
}
uint64_t
KernelLayout::bufHeadersBytes() const
{
    return uint64_t(numBuffers) * bufHeaderSize;
}
uint64_t
KernelLayout::inodeTableBytes() const
{
    return uint64_t(numInodes) * inodeSize;
}

KStruct
KernelLayout::structAt(Addr addr) const
{
    if (addr < textLimit)
        return KStruct::KernelText;
    if (addr >= runQueueBase && addr < runQueueBase + 24)
        return KStruct::RunQueue;
    if (addr >= hiNdprocBase && addr < hiNdprocBase + 8)
        return KStruct::HiNdproc;
    if (addr >= freePgBuckBase && addr < freePgBuckBase + 3072)
        return KStruct::FreePgBuck;
    if (addr >= procTableBase && addr < procTableBase + procTableBytes())
        return KStruct::ProcTable;
    if (addr >= pfdatBase && addr < pfdatBase + pfdatBytes())
        return KStruct::Pfdat;
    if (addr >= bufHeaderBase &&
        addr < bufHeaderBase + bufHeadersBytes()) {
        return KStruct::Buffer;
    }
    if (addr >= inodeBase && addr < inodeBase + inodeTableBytes())
        return KStruct::Inode;
    if (addr >= calloutBase && addr < calloutBase + 2048)
        return KStruct::Callout;
    if (addr >= perProcBase && addr < pageTableBase) {
        const uint64_t off = (addr - perProcBase) % 8192;
        if (off < 4096)
            return KStruct::KernelStack;
        if (off < 4096 + 240)
            return KStruct::Pcb;
        if (off < 4096 + 240 + 172)
            return KStruct::Eframe;
        return KStruct::URest;
    }
    if (addr >= pageTableBase && addr < bufDataBase)
        return KStruct::PageTableHeap;
    if (addr >= bufDataBase && addr < dataLimit)
        return KStruct::BufData;
    if (addr >= dataLimit && addr < memBytes)
        return KStruct::UserPage;
    return KStruct::Other;
}

} // namespace mpos::kernel
