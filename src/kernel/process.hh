/**
 * @file
 * Processes, page tables, and the application-behavior interface.
 *
 * A Process is a kernel object: state, scheduling fields, page table,
 * and the fixed per-slot kernel stack / user structure defined by the
 * layout. What the process *does* in user mode is supplied by an
 * AppBehavior (implemented in the workload library), which appends
 * virtual references and system-call markers to a UserScript whenever
 * the CPU runs dry.
 */

#ifndef MPOS_KERNEL_PROCESS_HH
#define MPOS_KERNEL_PROCESS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/cpu.hh"
#include "sim/types.hh"

namespace mpos::util
{
class ByteWriter;
class ByteReader;
} // namespace mpos::util

namespace mpos::kernel
{

using sim::Addr;
using sim::Cycle;
using sim::CpuId;
using sim::Pid;
using sim::ScriptItem;

/** System calls of the synthetic kernel. */
enum class Sys : uint8_t
{
    Read,   ///< payload: file/tty id + byte count (+ block offset).
    Write,  ///< payload: file id + byte count (+ sync flag).
    Sginap, ///< Yield after failed user-lock spinning.
    Fork,
    Exec,   ///< payload: image id.
    Exit,
    Wait,
    Brk,    ///< payload: pages to grow.
    Other,  ///< Generic cheap system call.
};

/** Pack a file I/O syscall payload. */
inline uint64_t
ioPayload(uint32_t file_id, uint32_t bytes, uint32_t start_block = 0,
          bool sync = false)
{
    return (uint64_t(file_id) << 40) | (uint64_t(start_block) << 20) |
           (uint64_t(bytes) & 0xfffff) | (sync ? 1ULL << 63 : 0);
}

inline uint32_t ioFile(uint64_t p) { return uint32_t((p >> 40) & 0x7fffff); }
inline uint32_t ioStartBlock(uint64_t p) { return uint32_t((p >> 20) & 0xfffff); }
inline uint32_t ioBytes(uint64_t p) { return uint32_t(p & 0xfffff); }
inline bool ioSync(uint64_t p) { return (p >> 63) & 1; }

/** Virtual address map every process shares. */
struct VaMap
{
    static constexpr Addr textBase = 0x00400000;
    static constexpr Addr dataBase = 0x10000000;
    static constexpr Addr sharedBase = 0x50000000;
    static constexpr Addr stackBase = 0x7fff0000;
};

/** A page-table entry of the synthetic VM. */
struct Pte
{
    uint32_t ppage = 0;
    bool present = false;
    bool writable = false;
    bool cow = false;     ///< Copy-on-write: fault on store.
    bool text = false;    ///< Backed by an executable image page.
    bool shared = false;  ///< Shared-memory region page.
};

/** Process scheduling states. */
enum class ProcState : uint8_t
{
    Free,
    Ready,
    Running,
    Blocked,
    Zombie,
};

class Process;

/**
 * Builder the kernel hands to an AppBehavior to collect the next chunk
 * of user execution. All addresses are virtual.
 */
class UserScript
{
  public:
    explicit UserScript(std::vector<ScriptItem> &sink) : out(sink) {}

    /** Make room for n more items up front, so the item calls below
     *  write in place and never reallocate on the way. */
    void reserve(size_t n) { out.reserve(out.size() + n); }

    /** Fetch the instruction line containing vaddr. */
    void ifetch(Addr vaddr) { ref(sim::ItemKind::IFetchLine, vaddr); }
    void load(Addr vaddr) { ref(sim::ItemKind::Load, vaddr); }
    void store(Addr vaddr) { ref(sim::ItemKind::Store, vaddr); }

    void think(Cycle cycles) { out.push_back(ScriptItem::think(cycles)); }

    void
    syscall(Sys n, uint64_t payload = 0)
    {
        out.push_back(ScriptItem::mark(sim::MarkerOp::Syscall,
                                       uint64_t(n), payload));
    }

    void
    userLock(uint32_t lock_id)
    {
        out.push_back(ScriptItem::mark(sim::MarkerOp::UserLockAcquire,
                                       lock_id, 0));
    }

    void
    userUnlock(uint32_t lock_id)
    {
        out.push_back(ScriptItem::mark(sim::MarkerOp::UserLockRelease,
                                       lock_id, 0));
    }

    size_t size() const { return out.size(); }

  private:
    void
    ref(sim::ItemKind kind, Addr vaddr)
    {
        out.push_back({kind, sim::AddrSpace::Virtual,
                       sim::MarkerOp::PathDone, vaddr, 0});
    }

    std::vector<ScriptItem> &out;
};

/**
 * User-mode behavior of one process. Implementations live in the
 * workload library; the kernel only calls chunk() when it needs more
 * user work for the process.
 */
class AppBehavior
{
  public:
    virtual ~AppBehavior() = default;

    /**
     * Append the next stretch of user execution (typically a few
     * hundred instructions). Must append at least one item.
     */
    virtual void chunk(Process &p, UserScript &s) = 0;
};

/**
 * Serializer for AppBehavior objects, supplied by the workload layer
 * (which knows the concrete behavior types) to Kernel::saveState /
 * restoreState. save() must emit a leading type tag that load() uses
 * to reconstruct the right class wired to the right shared workload
 * structures.
 */
class BehaviorCodec
{
  public:
    virtual ~BehaviorCodec() = default;

    virtual void save(util::ByteWriter &w, const AppBehavior &b) const = 0;
    virtual std::unique_ptr<AppBehavior> load(util::ByteReader &r) const = 0;
};

/** A process control block. */
class Process
{
  public:
    Pid pid = sim::invalidPid;
    uint32_t slot = 0;
    std::string name;
    ProcState state = ProcState::Free;

    CpuId lastCpu = 0;
    bool everRan = false;
    int32_t ticksLeft = 0;     ///< Clock ticks until preemption.
    Pid parent = sim::invalidPid;
    /** Decayed recent CPU consumption (SysV priority decay): low
     *  values mean interactive/yielding, high values mean CPU hogs. */
    uint64_t cpuShare = 0;
    Cycle runStart = 0;
    /** Total cycles this process has occupied a CPU. */
    uint64_t totalRan = 0;
    /** Times this process was dispatched. */
    uint64_t dispatches = 0;

    std::unique_ptr<AppBehavior> behavior;

    /** Work saved when the process was preempted or blocked. */
    sim::ScriptQueue savedScript;

    /** vpage -> pte. */
    std::unordered_map<Addr, Pte> pageTable;

    uint32_t imageId = 0xffffffff;

    /** Base of the I/O copy buffers in the data region. */
    Addr ioBufVaddr = VaMap::dataBase;
    /** Rotates read/write targets across a few buffer pages. */
    uint32_t ioRotor = 0;

    bool waitingForChild = false;
    uint32_t pendingChildExits = 0;
    /** Tty session this process is blocked reading from, or -1. */
    int32_t blockedOnTty = -1;
    /** Wakeups that arrived before the matching sleep marker ran. */
    uint32_t wakePending = 0;

    /** Behavior-visible progress counter. */
    uint64_t userChunks = 0;

    Pte *
    findPte(Addr vpage)
    {
        auto it = pageTable.find(vpage);
        return it == pageTable.end() ? nullptr : &it->second;
    }

    void
    resetForReuse()
    {
        state = ProcState::Free;
        behavior.reset();
        savedScript.clear();
        pageTable.clear();
        waitingForChild = false;
        pendingChildExits = 0;
        blockedOnTty = -1;
        wakePending = 0;
        everRan = false;
        userChunks = 0;
        parent = sim::invalidPid;
        cpuShare = 0;
        runStart = 0;
    }
};

/**
 * Hooks the workload installs to react to process lifecycle events.
 */
class KernelClient
{
  public:
    virtual ~KernelClient() = default;

    /** A fork created child; install child.behavior here. */
    virtual void onFork(Process &parent, Process &child) = 0;

    /** A process finished (entered Zombie state). */
    virtual void onProcExit(Process &p) { (void)p; }
};

} // namespace mpos::kernel

#endif // MPOS_KERNEL_PROCESS_HH
