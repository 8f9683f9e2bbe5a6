/**
 * @file
 * Physical image of the synthetic kernel: the text segment (a registry
 * of named routines at fixed physical addresses) and the static data
 * segment holding every structure of the paper's Table 3 at the
 * paper's sizes.
 *
 * The text map doubles as the symbol table used for attribution
 * (Figure 5 plots Dispos misses against these addresses) and the data
 * map as the structure map behind Figure 8.
 */

#ifndef MPOS_KERNEL_LAYOUT_HH
#define MPOS_KERNEL_LAYOUT_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace mpos::kernel
{

using sim::Addr;

using RoutineId = uint16_t;
constexpr RoutineId invalidRoutine = 0xffff;

/** Functional group a routine belongs to (Table 5 categories). */
enum class RoutineGroup : uint8_t
{
    RunQueueMgmt,   ///< The seven run-queue management routines.
    LowLevelExc,    ///< Assembly exception prologue/epilogue stages.
    RdWrSetup,      ///< Recognition/setup of read and write syscalls.
    BlockOp,        ///< bcopy / bclear / pfdat traversal kernels.
    FileSystem,
    VirtualMemory,
    Driver,
    Syscall,
    Interrupt,
    Synchronization,
    Idle,
    Other,
};

/** One kernel routine: a named, fixed range of kernel text. */
struct Routine
{
    std::string name;
    Addr textBase = 0;
    uint32_t textBytes = 0;
    RoutineGroup group = RoutineGroup::Other;
};

/** Kernel data structures distinguished by the analysis (Table 3). */
enum class KStruct : uint8_t
{
    KernelStack,   ///< 4096 B per process.
    Pcb,           ///< 240 B register-save area of the user structure.
    Eframe,        ///< 172 B exception frame of the user structure.
    URest,         ///< 3684 B rest of the user structure.
    ProcTable,     ///< 46080 B process table.
    Pfdat,         ///< 210944 B physical page descriptors.
    Buffer,        ///< 17408 B buffer-cache headers.
    Inode,         ///< 68608 B in-core inode table.
    RunQueue,      ///< 24 B run queue header.
    FreePgBuck,    ///< 3072 B free-page hash buckets.
    HiNdproc,      ///< Scheduler decision flag.
    Callout,       ///< Alarm/timeout table (protected by Calock).
    PageTableHeap, ///< Per-process page tables in the kernel heap.
    BufData,       ///< Buffer-cache data pages.
    KernelText,
    UserPage,      ///< Physical pages belonging to applications.
    Other,
};

constexpr uint32_t numKStructs = 17;

/** Name of a KStruct for reports. */
const char *kstructName(KStruct s);

/** Buffer-cache buffers: 68 B header + 4 KB data each. */
constexpr uint32_t numBuffers = 256;
/** In-core inodes: 268 B each => 68608 B. */
constexpr uint32_t numInodes = 256;

/**
 * Configuration of the synthetic kernel image. Its page, line and
 * memory sizes are the machine's (KernelLayout takes them from the
 * MachineConfig it is built for).
 */
struct LayoutConfig
{
    uint32_t maxProcs = 64;
    /**
     * Lay out the hottest kernel routines contiguously from address 0
     * so they pack into the bottom I-cache image with minimal mutual
     * conflict -- the basic-block placement optimization the paper
     * proposes in Section 4.2.1 (we apply it at routine granularity).
     */
    bool optimizedTextLayout = false;
};

/**
 * The assembled physical image. All addresses are physical; the kernel
 * runs unmapped (MIPS kseg0 style).
 */
class KernelLayout
{
  public:
    KernelLayout(const LayoutConfig &cfg, const sim::MachineConfig &machine);

    /// @name Text segment
    /// @{
    /** Look up a routine id by name; fatal if unknown. */
    RoutineId routine(const std::string &name) const;
    const Routine &routineInfo(RoutineId id) const;
    uint32_t numRoutines() const { return uint32_t(routines.size()); }
    Addr textBase() const { return 0; }
    Addr textEnd() const { return textLimit; }
    /** Routine containing a text address, or invalidRoutine. */
    RoutineId routineAt(Addr addr) const;
    /// @}

    /// @name Data segment: Table 3 structures
    /// @{
    Addr runQueueAddr() const { return runQueueBase; }
    Addr hiNdprocAddr() const { return hiNdprocBase; }
    Addr freePgBuckAddr(uint32_t bucket) const;
    Addr procTableAddr(uint32_t slot) const;
    Addr pfdatAddr(uint64_t page) const;
    Addr bufHeaderAddr(uint32_t buf) const;
    Addr bufDataAddr(uint32_t buf) const;
    Addr inodeAddr(uint32_t ino) const;
    Addr calloutAddr(uint32_t slot) const;
    Addr kernelStackAddr(uint32_t slot) const;  ///< Per-process.
    Addr pcbAddr(uint32_t slot) const;          ///< Per-process.
    Addr eframeAddr(uint32_t slot) const;       ///< Per-process.
    Addr uRestAddr(uint32_t slot) const;        ///< Per-process.
    Addr pageTableAddr(uint32_t slot) const;    ///< Per-process.
    /// @}

    /** Size in bytes of one process-table entry. */
    uint32_t procEntryBytes() const { return procEntrySize; }
    /** Size in bytes of one pfdat descriptor. */
    uint32_t pfdatEntryBytes() const { return pfdatEntrySize; }

    /** First physical page available for application memory. */
    uint64_t firstUserPage() const { return userPoolFirst; }
    /** Number of physical pages in the application pool. */
    uint64_t userPoolPages() const { return userPoolCount; }

    /** Classify a physical address (Figure 8 structure map). */
    KStruct structAt(Addr addr) const;

    const LayoutConfig &config() const { return cfg; }

    /** Total bytes of each aggregate structure (Table 3 check). */
    uint64_t procTableBytes() const;
    uint64_t pfdatBytes() const;
    uint64_t bufHeadersBytes() const;
    uint64_t inodeTableBytes() const;

  private:
    RoutineId addRoutine(const std::string &name, uint32_t bytes,
                         RoutineGroup group);
    void buildText();
    void buildTextOptimized();
    void buildData();

    LayoutConfig cfg;
    /** The machine's geometry. */
    uint32_t pageBytes;
    uint32_t lineBytes;
    uint64_t memBytes;
    std::vector<Routine> routines;
    /** name -> id index for routine(); built by addRoutine(). */
    std::unordered_map<std::string, RoutineId> byName;
    Addr textLimit = 0;

    // Data segment bases.
    Addr runQueueBase = 0;
    Addr hiNdprocBase = 0;
    Addr freePgBuckBase = 0;
    Addr procTableBase = 0;
    Addr pfdatBase = 0;
    Addr bufHeaderBase = 0;
    Addr inodeBase = 0;
    Addr calloutBase = 0;
    Addr perProcBase = 0;   // kernel stack + ustruct, per slot
    Addr pageTableBase = 0;
    Addr bufDataBase = 0;
    Addr dataLimit = 0;

    uint32_t procEntrySize = 0;
    uint32_t pfdatEntrySize = 0;
    uint64_t pfdatEntries = 0;

    uint64_t userPoolFirst = 0;
    uint64_t userPoolCount = 0;
};

} // namespace mpos::kernel

#endif // MPOS_KERNEL_LAYOUT_HH
