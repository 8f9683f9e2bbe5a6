/**
 * @file
 * Runtime invariant checker for the simulated memory system.
 *
 * The paper's numbers are only as trustworthy as the coherence model
 * behind them: every miss class and sharing count assumes the snooping
 * write-invalidate protocol is implemented exactly. The checker
 * enforces, on every bus transaction and cache state change:
 *
 *  - SWMR: at most one Modified/Exclusive copy of a line machine-wide,
 *    and no other copy of any kind coexisting with it.
 *  - Protocol legality: no state a protocol cannot produce (Exclusive
 *    under MSI or MI, Shared under MI) ever appears in any L2.
 *  - Snoop-filter soundness: the per-line sharers bitmask is a
 *    superset of the true sharer set (a filter that under-reports
 *    would skip a required snoop and silently corrupt miss classes).
 *  - Inclusion: the L1 never keeps a line the L2 dropped. (Tag/state
 *    agreement needs no check: the state lives in the L2 way.)
 *  - TLB/page-table agreement: every TLB entry used for translation
 *    matches the OS page table (validator installed by the kernel
 *    layer; the sim layer knows no page-table format).
 *  - Monitor stream well-formedness: monotonic cycles, balanced OS
 *    entry/exit per CPU, valid CPU ids, line-aligned addresses.
 *    One producer artifact is allowed by contract: a resumed process
 *    replays its blocked OS path's trailing exit marker after the
 *    dispatcher already exited the OS, so a redundant osExit with op
 *    None while outside the OS is legal (consumers ignore it).
 *
 * The checker is compiled in but zero-cost when disabled: producers
 * hold a Checker pointer that is null unless MachineConfig::check is
 * set, so every hook is one predictable branch -- the same fast-path
 * discipline as the monitor's listening() test.
 *
 * On a violation the default is to abort with a full description
 * (util::panic); the fuzz harness switches to recording mode so a
 * failing seed can be minimized instead.
 */

#ifndef MPOS_SIM_CHECK_CHECKER_HH
#define MPOS_SIM_CHECK_CHECKER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/monitor.hh"
#include "sim/tlb.hh"
#include "sim/types.hh"

namespace mpos::sim
{

class MemorySystem;
class Machine;

/** Always-on counters of work the checker performed. */
struct CheckStats
{
    uint64_t lineChecks = 0;    ///< Per-line coherence/filter sweeps.
    uint64_t busEvents = 0;     ///< Monitor bus records validated.
    uint64_t monitorEvents = 0; ///< OS/evict/inval events validated.
    uint64_t syncEvents = 0;    ///< Sync-transport events validated.
    uint64_t tlbChecks = 0;     ///< TLB entries checked vs page table.
    uint64_t fullSweeps = 0;    ///< Whole-machine checkAll() passes.
    uint64_t violations = 0;    ///< Invariant violations found.

    uint64_t
    total() const
    {
        return lineChecks + busEvents + monitorEvents + syncEvents +
               tlbChecks + fullSweeps;
    }
};

/** The invariant checker. One per Machine, owned by it. */
class Checker : public MonitorObserver
{
  public:
    /**
     * Page-table oracle: returns nullptr if the mapping agrees with
     * the OS page table, else a static description of the violation.
     * Installed by the layer that owns the page tables.
     */
    using MappingValidator = std::function<const char *(
        Pid pid, Addr vpage, Addr ppage, bool writable)>;

    explicit Checker(const MachineConfig &cfg);

    /** The memory system whose state the line checks sweep. */
    void attachMemory(const MemorySystem *m) { mem = m; }

    /// @name Hooks called by producers (only when enabled)
    /// @{
    /**
     * A bus transaction or coherence action settled the state of
     * line: verify SWMR, protocol legality, filter soundness and
     * inclusion across every CPU for that line.
     */
    void onLineEvent(Addr line);

    /** One sync-transport lock event was accounted. */
    void onSyncEvent(CpuId cpu, uint32_t lock_id, uint32_t num_locks,
                     uint64_t cached_mask);

    /** A TLB entry was used for a successful translation. */
    void checkTlbEntry(CpuId cpu, const TlbEntry &e);
    /// @}

    void setMappingValidator(MappingValidator v)
    {
        validator = std::move(v);
    }
    bool hasMappingValidator() const { return bool(validator); }

    /**
     * Whole-machine sweep: every resident line's coherence state,
     * every cache's packed-tag/LRU integrity, every TLB entry.
     * Expensive; used at end of measured runs and by the fuzzer.
     */
    void checkAll(const Machine &m);

    /**
     * The machine was re-seeded from a snapshot: everything this
     * checker derived from the event stream so far (OS entry/exit
     * depth, cycle monotonicity watermarks) describes a history the
     * restored machine never lived. Reset it to the pre-first-event
     * state; the stateless sweeps keep validating the restored state
     * directly.
     */
    void onRestore();

    /// @name MonitorObserver (event-stream well-formedness)
    /// @{
    void busTransaction(const BusRecord &rec) override;
    void evict(CpuId cpu, CacheKind kind, Addr line,
               const MonitorContext &by) override;
    void invalSharing(CpuId cpu, CacheKind kind, Addr line) override;
    void invalPageRealloc(CpuId cpu, Addr line) override;
    void osEnter(Cycle cycle, CpuId cpu, OsOp op) override;
    void osExit(Cycle cycle, CpuId cpu, OsOp op) override;
    void contextSwitch(Cycle cycle, CpuId cpu, Pid from, Pid to) override;
    /// @}

    const CheckStats &stats() const { return stats_; }

    /**
     * When false, violations are recorded (retrievable through
     * violations()) instead of aborting. The fuzz harness uses this;
     * everything else wants the loud crash.
     */
    void setAbortOnViolation(bool a) { abortOnViolation = a; }
    const std::vector<std::string> &violations() const { return log; }

  private:
    /** Record or abort with a formatted violation description. */
    [[gnu::format(printf, 2, 3)]] void violation(const char *fmt, ...);

    /** Validate the context snapshot attached to a monitor event. */
    void checkContext(const MonitorContext &ctx);

    MachineConfig cfg;
    const MemorySystem *mem = nullptr;
    MappingValidator validator;
    CheckStats stats_;
    std::vector<std::string> log;
    bool abortOnViolation = true;

    /** log2(lineBytes), for line/index conversions. */
    uint32_t lineShift;

    // Monitor stream state.
    Cycle lastBusCycle = 0;
    /** Per CPU: -1 unknown (pre-first-event), 0 outside OS, 1 inside. */
    std::vector<int8_t> osDepth;
    /** Per CPU: cycle of the last OS enter/exit event. */
    std::vector<Cycle> lastOsCycle;
};

} // namespace mpos::sim

#endif // MPOS_SIM_CHECK_CHECKER_HH
