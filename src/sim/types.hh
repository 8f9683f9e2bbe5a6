/**
 * @file
 * Core vocabulary of the machine model: addresses, cycles, machine
 * configuration, reference/script items, and monitor context.
 *
 * The modeled machine is the SGI POWER Station 4D/340 of the paper:
 * four 33 MHz MIPS R3000 CPUs, each with a 64 KB direct-mapped I-cache
 * and a two-level data cache (64 KB L1, 256 KB L2), 16-byte lines,
 * physically addressed, on a snooping write-invalidate bus, plus a
 * separate synchronization bus for lock traffic.
 */

#ifndef MPOS_SIM_TYPES_HH
#define MPOS_SIM_TYPES_HH

#include <cstdint>
#include <string>

namespace mpos::sim
{

using Addr = uint64_t;
using Cycle = uint64_t;
using CpuId = uint32_t;
using Pid = int32_t;

constexpr Pid invalidPid = -1;

/** Identifies which cache a bus-level event belongs to. */
enum class CacheKind : uint8_t { Instr, Data };

/** What the CPU is executing, from the monitor's point of view. */
enum class ExecMode : uint8_t { User, Kernel, Idle };

/**
 * High-level OS operation in progress (Table 8 of the paper). UtlbFault
 * is kept distinct from CheapTlbFault so Figure 1's near-free UTLB
 * spikes can be separated from full OS invocations; functional
 * classification folds it into the cheap class.
 */
enum class OsOp : uint8_t
{
    None,              ///< Not in the OS.
    UtlbFault,         ///< TLB refill from a valid page-table entry.
    CheapTlbFault,     ///< Other TLB faults with no allocation or I/O.
    ExpensiveTlbFault, ///< Faults that allocate memory or do I/O.
    IoSyscall,         ///< read/write file system system calls.
    Sginap,            ///< Yield system call from the user lock library.
    OtherSyscall,      ///< All remaining system calls.
    Interrupt,         ///< Clock, disk, terminal, cross-CPU interrupts.
    IdleLoop,          ///< The OS idle loop.
};

/** Number of distinct OsOp values (for flat arrays). */
constexpr uint32_t numOsOps = 9;

/** Name of an OsOp for reports. */
const char *osOpName(OsOp op);

/** Name of an ExecMode for reports. */
const char *execModeName(ExecMode mode);

/**
 * Coherence protocol policy for the data caches.
 *
 * Mesi is the machine the paper measured: the Illinois write-invalidate
 * protocol of the 4D/340, where a read miss with no other cached copy
 * fills Exclusive and the first write to an E line upgrades to M
 * silently (no bus transaction).
 *
 * Msi drops the Exclusive state: every read miss fills Shared, so the
 * first write to any previously read line costs an Upgrade bus
 * transaction even when no other cache holds it.
 *
 * Mi is the trivial ownership-only protocol: every fill installs the
 * line Modified, so even read misses invalidate all remote copies and
 * no line is ever shared between caches.
 */
enum class Protocol : uint8_t { Mesi, Msi, Mi };

/** Number of distinct Protocol values (for validation/sweeps). */
constexpr uint32_t numProtocols = 3;

/** Name of a Protocol for reports/flags ("mesi", "msi", "mi"). */
const char *protocolName(Protocol p);

/** Parse a protocol name; returns false if unknown. */
bool parseProtocol(const char *name, Protocol &out);

/**
 * Kernel lock primitive (DESIGN.md section 14). TestAndSet is the
 * machine the paper measured: kernel spinlocks poll a test-and-set
 * word and the user library spins 20 times before sginap. The
 * alternatives replace the acquire/release state machines wholesale;
 * the SyncTransport charges each primitive's distinct bus-operation
 * pattern under both the uncached sync bus and cached-RMW transports.
 */
enum class LockPolicy : uint8_t
{
    TestAndSet, ///< Paper's spinlock + spin-then-sginap user library.
    Ticket,     ///< FIFO ticket lock: fetch-and-add, poll now-serving.
    Mcs,        ///< MCS queue lock: local spin, direct hand-off.
    Futex,      ///< User locks block in-kernel; wake-one on release.
    Rcu,        ///< Read-mostly tables get a zero-cost read path.
};

/** Number of distinct LockPolicy values (for validation/sweeps). */
constexpr uint32_t numLockPolicies = 5;

/** Name of a LockPolicy for reports/flags ("tas", "ticket", ...). */
const char *lockPolicyName(LockPolicy p);

/** Parse a lock policy name; returns false if unknown. */
bool parseLockPolicy(const char *name, LockPolicy &out);

/** Bus transaction kinds. */
enum class BusOp : uint8_t
{
    Read,          ///< Line fill for a read or instruction fetch.
    ReadEx,        ///< Line fill with ownership for a write miss.
    Upgrade,       ///< Ownership upgrade for a write hit on Shared.
    Writeback,     ///< Dirty eviction.
    UncachedRead,  ///< Cache-bypassing read (device registers).
    UncachedWrite, ///< Cache-bypassing write.
};

/** Name of a BusOp for reports. */
const char *busOpName(BusOp op);

/** Machine configuration. Defaults model the SGI 4D/340. */
struct MachineConfig
{
    uint32_t numCpus = 4;
    /** Data-cache coherence protocol (Mesi = the measured machine). */
    Protocol protocol = Protocol::Mesi;
    /**
     * Kernel lock primitive. TestAndSet reproduces the measured
     * machine exactly (goldens are pinned under it); the alternatives
     * swap in the modern acquire/release state machines and their
     * per-primitive sync-transport accounting. mpos_bench's
     * standardConfig sets it from MPOS_LOCK_PROTO=<name>.
     */
    LockPolicy lockPolicy = LockPolicy::TestAndSet;
    uint32_t lineBytes = 16;
    uint32_t icacheBytes = 64 * 1024;
    uint32_t icacheAssoc = 1;
    uint32_t l1dBytes = 64 * 1024;
    uint32_t l1dAssoc = 1;
    uint32_t l2dBytes = 256 * 1024;
    uint32_t l2dAssoc = 1;
    uint64_t memBytes = 32ULL * 1024 * 1024;
    uint32_t pageBytes = 4096;
    uint32_t tlbEntries = 64;

    /** Paper's per-bus-access CPU stall estimate (35 cycles). */
    Cycle busMissStall = 35;
    /** Stall for an L1 D-miss that hits in the L2 (about 15 cycles). */
    Cycle l2HitStall = 15;
    /**
     * Extra queueing realism: cycles the bus stays busy per transaction.
     * Zero by default so measured stall time matches the paper's
     * 35-cycles-per-access estimator exactly.
     */
    Cycle busOccupancy = 0;
    /** Cycles per instruction when not stalled (R3000 ~ 1). */
    Cycle cyclesPerInstr = 1;
    /** Instructions per 16-byte I-line (4-byte MIPS instructions). */
    uint32_t instrPerLine = 4;

    /** Sync transport: see SyncBus. */
    bool cachedLockRmw = false;   ///< Table 10 "Atomic RMW" scenario.
    Cycle syncBusOpCycles = 55;   ///< One sync-bus transaction.
    uint32_t syncOpsPerAcquire = 4; ///< No atomic RMW: ops per acquire.
    Cycle uncachedAccessCycles = 20; ///< Uncached device access stall.

    /** 33 MHz clock: cycles in one 10 ms scheduler tick. */
    Cycle clockTickCycles = 330000;

    /**
     * Force the reference (non-fast-path) simulation core: the
     * one-tick-at-a-time scheduler and full snoop walks. Slower but
     * byte-for-byte the original algorithms; the golden-counters
     * regression test runs both modes and asserts identical results.
     */
    bool slowSim = false;

    /**
     * Compile the runtime invariant checkers in (SWMR, snoop-filter
     * soundness, tag/state consistency, TLB/page-table agreement,
     * monitor stream well-formedness). Zero-cost when false: every
     * hook is a single null-pointer test.
     */
    bool check = false;

    /**
     * Structured trace exporter: stream every monitor event (bus
     * records with in-band OS context plus OS entry/exit, context
     * switches, invalidations) to traceFile as JSONL, and count them.
     * Zero-cost when off (null-pointer gate).
     */
    bool trace = false;
    /** JSONL trace output path; empty = count events only. */
    std::string traceFile;

    /**
     * Time-sliced metrics engine: window bus traffic, miss fills,
     * invalidations and lock hand-offs over simulated cycles.
     * Zero-cost when off.
     */
    bool metrics = false;
    /** Metrics window width in simulated cycles. */
    Cycle metricsWindowCycles = 100000;

    /**
     * Simulated-kernel routine profiler: attribute cycles, misses and
     * estimated stall to the executing (mode, OS op, routine) with
     * flame-style collapsed-stack output. Zero-cost when off.
     */
    bool profile = false;

    uint64_t numLines() const { return memBytes / lineBytes; }
    uint64_t numPages() const { return memBytes / pageBytes; }
};

/**
 * Validate every machine-level geometry invariant in one place (CPU
 * count vs the snoop filter, line/page/memory alignment, cache shapes,
 * TLB size, instruction timing), raising util::SimError(BadConfig) with
 * the offending parameter named. Returns cfg so constructors can run
 * it from their initializer lists, before any member is built.
 */
const MachineConfig &validateConfig(const MachineConfig &cfg);

/** Kinds of items in a CPU's execution script. */
enum class ItemKind : uint8_t
{
    IFetchLine,    ///< Fetch one instruction line; runs instrPerLine
                   ///< instructions.
    Load,          ///< One data read.
    Store,         ///< One data write.
    UncachedLoad,  ///< Cache-bypassing read (device register).
    UncachedStore, ///< Cache-bypassing write.
    BypassLoad,    ///< Block-op read that skips cache installation.
    BypassStore,   ///< Block-op write that skips cache installation.
    PrefetchLoad,  ///< Read whose miss latency a prefetcher hides.
    PrefetchStore, ///< Write whose miss latency a prefetcher hides.
    Think,         ///< Burn addr cycles with no memory reference.
    Marker,        ///< Control callback into the executor (the kernel).
};

/** Address space of a script reference. */
enum class AddrSpace : uint8_t { Physical, Virtual };

/**
 * Marker opcodes. The sim layer defines the transport; all semantics
 * live in the Executor implementation (the kernel).
 */
enum class MarkerOp : uint8_t
{
    OsEnter,        ///< arg = OsOp
    OsExit,
    RoutineEnter,   ///< arg = routine id
    RoutineExit,
    LockAcquire,    ///< arg = lock id (kernel spinlock)
    LockRelease,    ///< arg = lock id
    UserLockAcquire,///< arg = user lock id
    UserLockRelease,///< arg = user lock id
    Syscall,        ///< arg = syscall number, arg2 = payload
    SleepDisk,      ///< arg = request latency in cycles
    Resched,        ///< pick the next process to run
    PathDone,       ///< end of a kernel path; return to user or idle
    IdlePoll,       ///< idle loop checks the run queue
    InvalICache,    ///< arg = first line, arg2 = line count
    Custom,         ///< workload-defined
    /// Read-mostly kernel lock access (Ifree/Ino_x lookup paths).
    /// Routed to the plain exclusive acquire under every policy except
    /// Rcu, where managed locks take the zero-cost read path. Appended
    /// after Custom so existing marker encodings are untouched.
    LockAcquireShared, ///< arg = lock id
    LockReleaseShared, ///< arg = lock id
};

/** One element of a CPU execution script. */
struct ScriptItem
{
    ItemKind kind;
    AddrSpace space = AddrSpace::Physical;
    MarkerOp marker = MarkerOp::PathDone;
    Addr addr = 0;   ///< Address, Think cycles, or marker arg.
    uint64_t arg2 = 0; ///< Secondary marker argument.

    bool operator==(const ScriptItem &) const = default;

    static ScriptItem
    ifetch(Addr line, AddrSpace s = AddrSpace::Physical)
    {
        return {ItemKind::IFetchLine, s, MarkerOp::PathDone, line, 0};
    }

    static ScriptItem
    load(Addr a, AddrSpace s = AddrSpace::Physical)
    {
        return {ItemKind::Load, s, MarkerOp::PathDone, a, 0};
    }

    static ScriptItem
    store(Addr a, AddrSpace s = AddrSpace::Physical)
    {
        return {ItemKind::Store, s, MarkerOp::PathDone, a, 0};
    }

    static ScriptItem
    think(Cycle cycles)
    {
        return {ItemKind::Think, AddrSpace::Physical, MarkerOp::PathDone,
                cycles, 0};
    }

    static ScriptItem
    uncachedLoad(Addr a)
    {
        return {ItemKind::UncachedLoad, AddrSpace::Physical,
                MarkerOp::PathDone, a, 0};
    }

    static ScriptItem
    uncachedStore(Addr a)
    {
        return {ItemKind::UncachedStore, AddrSpace::Physical,
                MarkerOp::PathDone, a, 0};
    }

    static ScriptItem
    mark(MarkerOp op, uint64_t arg = 0, uint64_t arg2 = 0)
    {
        return {ItemKind::Marker, AddrSpace::Physical, op, arg, arg2};
    }
};

/** Snapshot of what a CPU was doing when a monitor event fired. */
struct MonitorContext
{
    ExecMode mode = ExecMode::Idle;
    OsOp op = OsOp::IdleLoop;
    uint16_t routine = 0xffff; ///< Kernel routine id, 0xffff = none.
    Pid pid = invalidPid;

    bool isOs() const { return mode != ExecMode::User; }

    template <class Ar>
    void
    state(Ar &ar)
    {
        ar.u8(mode);
        ar.u8(op);
        ar.u16(routine);
        ar.i64(pid);
    }
};

} // namespace mpos::sim

#endif // MPOS_SIM_TYPES_HH
