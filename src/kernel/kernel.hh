/**
 * @file
 * The synthetic multiprocessor kernel: an sim::Executor that schedules
 * processes, services system calls, TLB faults and interrupts, and
 * produces the exact kernel reference streams the paper measures.
 *
 * Every kernel operation is rendered as a script of instruction-line
 * fetches through the kernel text map and data touches on the Table 3
 * structures, so the machine's caches see the same kind of address
 * stream IRIX generated on the 4D/340. Dynamic decisions (scheduling,
 * lock spins, blocking) happen at marker execution time; everything
 * else is laid down when a path is built.
 */

#ifndef MPOS_KERNEL_KERNEL_HH
#define MPOS_KERNEL_KERNEL_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "kernel/fs.hh"
#include "kernel/layout.hh"
#include "kernel/locks.hh"
#include "kernel/process.hh"
#include "sim/machine.hh"
#include "util/rng.hh"

namespace mpos::kernel
{

/** How block operations access memory (Section 4.2.2 optimizations). */
enum class BlockOpMode : uint8_t
{
    Normal,   ///< Through the caches (the measured machine).
    Bypass,   ///< Cache-bypassing block transfers.
    Prefetch, ///< Latency hidden by prefetching; caches still filled.
};

/** Size classes of block operations (Table 7). */
enum class BlockClass : uint8_t
{
    FullPage,
    RegularFragment,
    IrregularChunk,
};

/** Kinds of block operations (Table 6). */
enum class BlockKind : uint8_t { Copy, Clear, Traverse };

/** Aggregated block-operation bookkeeping for Tables 6 and 7. */
struct BlockOpStats
{
    /** invocations[kind][class] */
    uint64_t invocations[3][3] = {};
    uint64_t bytes[3] = {};

    void
    record(BlockKind k, BlockClass c, uint64_t n)
    {
        ++invocations[unsigned(k)][unsigned(c)];
        bytes[unsigned(k)] += n;
    }

    uint64_t
    totalInvocations(BlockKind k) const
    {
        const auto &row = invocations[unsigned(k)];
        return row[0] + row[1] + row[2];
    }
};

/** An executable image (shared text). */
struct Image
{
    uint32_t id = 0;
    std::string name;
    uint32_t textPages = 0;
};

/** Kernel tuning knobs. */
struct KernelConfig
{
    LayoutConfig layout;
    uint32_t maxUserLocks = 32;

    Cycle diskLatency = 70000;    ///< ~2 ms at 33 MHz (scaled).
    Cycle diskPerBlock = 5000;    ///< Transfer time per 4 KB block.

    Cycle spinGap = 30;           ///< Cycles between spin polls.
    uint32_t userLockSpins = 20;  ///< Polls before sginap (paper).

    bool affinitySched = false;   ///< Cache-affinity scheduling ablation.
    uint32_t affinityScanDepth = 4;
    BlockOpMode blockOpMode = BlockOpMode::Normal;

    /**
     * Physical pages usable by applications; 0 = the whole pool. A
     * smaller pool creates the memory pressure that drives page
     * reclaim and code-page reallocation (Inval misses).
     */
    uint64_t userPoolPages = 1600;
    uint32_t reclaimBatch = 12;      ///< Pages stolen per reclaim.
    uint32_t reclaimScanEntries = 384; ///< Pfdat descriptors swept.
    uint32_t freeLowWater = 40;

    int32_t quantumTicks = 2;     ///< Scheduler quantum in clock ticks.
    /** cpuShare below this counts as interactive (priority decay). */
    uint64_t interactiveShare = 200000;
    uint64_t rngSeed = 12345;
};

/** Per-OsOp invocation counters (Figure 2). */
struct OsOpCounts
{
    uint64_t count[sim::numOsOps] = {};
};

/** The kernel. */
class Kernel : public sim::Executor
{
  public:
    Kernel(sim::Machine &machine, const KernelConfig &cfg);

    /// @name Workload-facing configuration API
    /// @{
    /** Register an executable image of text_bytes of code. */
    uint32_t registerImage(const std::string &name, uint64_t text_bytes);

    /** Create a runnable process executing behavior. */
    Pid spawn(std::unique_ptr<AppBehavior> behavior, uint32_t image_id,
              const std::string &name);

    /** Allocate bytes of shared memory; returns its virtual base. */
    Addr shmAlloc(uint64_t bytes);

    /** Allocate a user-library lock id. */
    uint32_t allocUserLock();

    /** Register a tty session with a typist of the given mean gap. */
    uint32_t registerTty(Cycle mean_gap_cycles);

    /** File id a behavior can read from a tty session. */
    static uint32_t ttyFileId(uint32_t session) { return 0x400000 + session; }

    void setClient(KernelClient *c) { client = c; }
    void setLockListener(LockListener *l) { lockListener = l; }
    /// @}

    /// @name sim::Executor
    /// @{
    void refill(CpuId cpu) override;
    void marker(CpuId cpu, const ScriptItem &item) override;
    void fault(CpuId cpu, Addr vaddr, bool is_store,
               bool is_prot) override;
    void pollEvents(CpuId cpu, Cycle now) override;
    sim::Cycle nextEventAt(CpuId cpu) const override;
    /// @}

    /// @name Introspection for analysis and tests
    /// @{
    const KernelLayout &layout() const { return map; }
    const KernelConfig &config() const { return cfg; }
    Process &process(Pid pid) { return *procs[uint32_t(pid)]; }
    const Process &process(Pid pid) const { return *procs[uint32_t(pid)]; }
    uint32_t maxProcs() const { return uint32_t(procs.size()); }
    Pid runningOn(CpuId cpu) const { return curProc[cpu]; }
    uint32_t runQueueLength() const { return uint32_t(runQueue.size()); }
    uint64_t contextSwitches() const { return nCtxSwitches; }
    uint64_t migrations() const { return nMigrations; }
    uint64_t forks() const { return nForks; }
    uint64_t exits() const { return nExits; }
    uint64_t utlbFaults() const { return nUtlbFaults; }
    uint64_t pageReclaims() const { return nReclaims; }
    uint64_t codePageRecycles() const { return nCodeRecycles; }
    /** Times a process was descheduled while holding a user lock. */
    uint64_t lockHolderPreemptions() const { return nStrands; }
    const BlockOpStats &blockOps() const { return blockStats; }
    const OsOpCounts &osOpCounts() const { return opCounts; }
    const LockState &lockState(uint32_t id) const { return locks[id]; }
    uint32_t numLocks() const { return uint32_t(locks.size()); }
    uint32_t numUserLocks() const { return nUserLocks; }
    uint64_t freePageCount() const { return freePages.size(); }
    uint64_t diskRequests() const { return disk.requests; }
    /// @}

    /// @name Snapshot save/restore
    /// Serializes the whole kernel object graph: process table (with
    /// behaviors, via the workload-supplied codec), scheduler queues,
    /// lock table, VM (page tables, free list, text page cache,
    /// shared map), file system (buffer cache, disk, ttys), the timed
    /// event queue, per-CPU clock/context nesting state, the RNG, and
    /// every counter. Scratch buffers (pathBuf and reclaimScratch,
    /// empty between calls; the idle chunk, rebuilt on demand) are
    /// deliberately excluded.
    /// The target kernel must have been built from the same config;
    /// structural mismatches raise util::SimError(SnapshotCorrupt).
    /// @{
    void saveState(util::ByteWriter &w, const BehaviorCodec &codec) const;
    void restoreState(util::ByteReader &r, const BehaviorCodec &codec);
    /// @}

  private:
    using Script = std::vector<ScriptItem>;

    /** The one field walk behind saveState and restoreState. */
    template <class Ar> void state(Ar &ar, const BehaviorCodec &codec);

    /**
     * Claims pathBuf, cleared, for building one script and pushing it
     * to a CPU; releases it on scope exit. Builders never nest: a
     * second claim while one is live panics instead of overwriting a
     * script that was not pushed yet.
     */
    class PathScope
    {
      public:
        explicit PathScope(Kernel &k);
        ~PathScope() { busy = false; }
        PathScope(const PathScope &) = delete;
        PathScope &operator=(const PathScope &) = delete;

        Script &s;

      private:
        bool &busy;
    };

    /// @name Script emission helpers
    /// @{
    void emitText(Script &s, RoutineId r, double f0 = 0.0,
                  double f1 = 1.0);
    void emitTouch(Script &s, Addr addr, uint32_t bytes, bool write);
    void emitLock(Script &s, uint32_t lock_id);
    void emitUnlock(Script &s, uint32_t lock_id);
    /** Read-mostly acquire/release: the RCU read path on managed locks
     *  under LockPolicy::Rcu, a plain exclusive lock otherwise. */
    void emitLockShared(Script &s, uint32_t lock_id);
    void emitUnlockShared(Script &s, uint32_t lock_id);
    void emitPrologue(Script &s, Process &p);
    void emitEpilogue(Script &s, Process &p);
    void emitBcopy(Script &s, Addr src, Addr dst, uint32_t bytes,
                   BlockClass cls);
    void emitBclear(Script &s, Addr dst, uint32_t bytes, BlockClass cls);
    void emitBlockRef(Script &s, Addr addr, bool write);
    /// @}

    /// @name Path builders
    /// @{
    void pathUtlbFault(Script &s, Process &p, Addr vpage);
    void pathVmFault(Script &s, CpuId cpu, Process &p, Addr vaddr,
                     bool is_prot);
    void pathSyscall(Script &s, CpuId cpu, Process &p, Sys n,
                     uint64_t payload);
    void bodyRead(Script &s, CpuId cpu, Process &p, uint64_t payload);
    void bodyWrite(Script &s, CpuId cpu, Process &p, uint64_t payload);
    void bodyTtyRead(Script &s, Process &p, uint32_t session,
                     uint32_t bytes);
    void bodyFork(Script &s, CpuId cpu, Process &p);
    void bodyExec(Script &s, CpuId cpu, Process &p, uint32_t image_id);
    void bodyExit(Script &s, CpuId cpu, Process &p);
    void bodyWait(Script &s, Process &p);
    void bodyBrk(Script &s, CpuId cpu, Process &p, uint32_t pages);
    void bodySginap(Script &s, Process &p);
    void bodyOther(Script &s, CpuId cpu, Process &p);
    /** Kernel entry of a futex wait: syscall overhead ending in the
     *  customFutexWait marker that blocks (or returns if raced). */
    void pathFutexWait(Script &s, Process &p, uint32_t lock_id);
    void pathClockInterrupt(Script &s, CpuId cpu);
    void pathDiskInterrupt(Script &s, CpuId cpu, Pid sleeper);
    void pathTtyInterrupt(Script &s, CpuId cpu, uint32_t session);
    /** Run-queue requeue + pick sequence ending in a Resched marker. */
    void emitReschedSeq(Script &s);
    /** Block p, running on cpu: save its continuation, reschedule. */
    void block(CpuId cpu, Process &p);
    /// @}

    /// @name VM
    /// @{
    /**
     * Allocate a physical page, emitting allocation references (and a
     * reclaim sweep under memory pressure) into s.
     */
    uint64_t allocPage(Script &s, CpuId cpu);
    void freePage(Script &s, uint64_t ppage);
    /** Drop one reference; frees the page when the count hits zero. */
    void releasePage(Script &s, uint64_t ppage);
    /** Release all private resident pages of p, sorted by vpage so the
     *  resulting free-list order is hash-layout independent. */
    void releasePrivatePages(Script &s, Process &p);
    void reclaimPages(Script &s, CpuId cpu);
    /**
     * Make vaddr resident for process p, emitting any allocation or
     * copy work into s; returns the physical page.
     */
    uint64_t ensureResident(Script &s, CpuId cpu, Process &p, Addr vaddr,
                            bool for_write);
    /// @}

    /// @name Marker handlers
    /// @{
    void onOsEnter(CpuId cpu, sim::OsOp op);
    void onOsExit(CpuId cpu);
    /** Every lock marker (kernel, read-mostly and user-library),
     *  stepped through the machine's lock policy (sim/lockpolicy.hh). */
    void onLockAcquire(CpuId cpu, const ScriptItem &item);
    void onLockRelease(CpuId cpu, const ScriptItem &item);
    /** Charge a lock's transport event to cpu as stall. */
    void chargeLock(CpuId cpu, uint32_t lock_id, sim::LockEvent ev,
                    int peer = -1);
    /** Report a logical lock event to the listener and metrics. */
    void reportLock(CpuId cpu, uint32_t lock_id, sim::LockEvent ev,
                    uint32_t waiters);
    /** Futex-style user lock: block the caller until release wakes it
     *  (re-checks the lock word first, closing the lost-wakeup race). */
    void onFutexWait(CpuId cpu, uint32_t lock_id);
    void onSyscall(CpuId cpu, Sys n, uint64_t payload);
    void onSleepDisk(CpuId cpu, Cycle wake_at);
    void onBlockWait(CpuId cpu);
    void onBlockTty(CpuId cpu, uint32_t session);
    void onResched(CpuId cpu);
    void onIdlePoll(CpuId cpu);
    /// @}

    /// @name Scheduling
    /// @{
    Pid pickNext(CpuId cpu);
    void makeReady(Pid pid);
    void enqueueReady(Pid pid);
    void enterIdle(CpuId cpu);
    void switchTo(CpuId cpu, Pid next);
    /// @}

    /** Deliver a due global event to cpu. Returns true if one fired. */
    bool deliverGlobalEvent(CpuId cpu, Cycle now);

    sim::Machine &m;
    KernelConfig cfg;
    KernelLayout map;
    KernelClient *client = nullptr;
    LockListener *lockListener = nullptr;
    /** Metrics engine; null unless the machine has one (null gate). */
    sim::trace::Metrics *mx = nullptr;
    /** Routine profiler; null unless the machine has one (null gate). */
    sim::trace::Profiler *pf = nullptr;
    util::Rng rng;

    /**
     * Ids of the routines the path builders emit, resolved by name
     * once at construction (the layout assigns them). Fields carry the
     * simulated kernel's symbol names.
     */
    struct Routines
    {
        RoutineId locore_except, utlbmiss, locore_rfe, idleloop,
                  spinlock_acquire, spinlock_release;
        RoutineId swtch, resched, setrq, pickproc, schedcpu;
        RoutineId syscall_entry, rdwr_setup, read_sys, write_sys, sginap_sys,
                  fork_sys, exec_sys, exit_sys, wait_sys, brk_sys, misc_sys;
        RoutineId namei, iget, iput, bmap, getblk, bread, bwrite, dfbmap;
        RoutineId vfault, tfault, pagealloc, pagefree, pfdat_scan, cow_break,
                  zfod, bcopy, bclear;
        RoutineId clock_intr, callout_svc, disk_intr, tty_intr, stream_svc;
        RoutineId disk_strategy, scsi_driver, tty_driver, streams_core;
        RoutineId alloc_kmem;
    } rt;

    /**
     * The one buffer every script pushed to a CPU is built in (user
     * chunks and kernel paths), through a PathScope. Cleared per use,
     * its capacity kept, so a trap allocates nothing.
     */
    Script pathBuf;
    bool pathBusy = false;
    /** The (constant) idle-loop chunk, built once on first idle. */
    Script idleChunk;

    std::vector<std::unique_ptr<Process>> procs;
    std::vector<Pid> curProc;          ///< Per CPU; invalidPid = idle.
    std::deque<Pid> runQueue;
    std::vector<uint32_t> rqSkips;     ///< Affinity aging per queue slot.

    std::vector<LockState> locks;
    uint32_t nUserLocks = 0;

    std::vector<Image> images;
    /** (imageId << 32 | image vpage index) -> resident ppage. */
    std::unordered_map<uint64_t, uint64_t> pageCache;
    /** FIFO of reclaimable text pages (key into pageCache). */
    std::deque<uint64_t> textLru;
    /** Second-chance (clock) reference bits for cached text pages. */
    std::unordered_map<uint64_t, bool> textRef;
    /** Which (pid, vpage) map each cached text page (for steal). */
    std::unordered_map<uint64_t, std::vector<std::pair<Pid, Addr>>>
        textMappers;
    /** Round-robin cursor of the pfdat reclaim sweep. */
    uint64_t pfdatCursor = 0;
    /** Clock ticks serviced (for periodic schedcpu work). */
    uint64_t clockCount = 0;
    /** Dispatch counter for the anti-starvation rule. */
    uint64_t pickCount = 0;
    std::vector<uint64_t> freePages;
    /** Per physical page: 1 if it last held code. */
    std::vector<uint8_t> pageHeldCode;
    /** Per physical page reference counts (COW sharing). */
    std::vector<uint16_t> pageRefs;
    /** Reusable victim buffer for releasePrivatePages (not state). */
    std::vector<std::pair<Addr, uint64_t>> reclaimScratch;

    /** Shared-memory region: vpage -> ppage (eager allocation). */
    std::unordered_map<Addr, uint64_t> sharedMap;
    Addr sharedBrk = VaMap::sharedBase;

    BufferCache bufcache;
    Disk disk;
    std::vector<TtySession> ttys;

    /** Global timed events. */
    struct Event
    {
        Cycle when;
        enum class Kind : uint8_t { DiskDone, TtyInput } kind;
        uint64_t payload; ///< pid or session id.
        bool operator>(const Event &o) const { return when > o.when; }
    };
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        events;
    /** Queue a global event (and wake CPUs parked past it). */
    void scheduleEvent(const Event &ev);

    std::vector<Cycle> nextClockAt;    ///< Per CPU.
    std::vector<sim::MonitorContext> prevCtx; ///< OsEnter/Exit nesting.
    std::vector<uint8_t> prevCtxValid;

    // Statistics.
    uint64_t nCtxSwitches = 0;
    uint64_t nMigrations = 0;
    uint64_t nForks = 0;
    uint64_t nExits = 0;
    uint64_t nUtlbFaults = 0;
    uint64_t nReclaims = 0;
    uint64_t nStrands = 0;
    uint64_t nCodeRecycles = 0;
    BlockOpStats blockStats;
    OsOpCounts opCounts;

    static constexpr uint64_t customBlockWait = 1;
    static constexpr uint64_t customBlockTty = 2;
    static constexpr uint64_t customFutexWait = 3;
};

} // namespace mpos::kernel

#endif // MPOS_KERNEL_KERNEL_HH
