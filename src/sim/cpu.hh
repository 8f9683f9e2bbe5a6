/**
 * @file
 * One simulated CPU: a script-driven reference engine.
 *
 * A CPU executes a queue of ScriptItems (instruction-line fetches, data
 * references, markers). The kernel -- through the Executor interface --
 * refills the queue, handles markers and TLB faults, and manipulates
 * the monitor context. All time accounting (per-mode execution and
 * stall cycles) lives here.
 */

#ifndef MPOS_SIM_CPU_HH
#define MPOS_SIM_CPU_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/tlb.hh"
#include "sim/types.hh"
#include "util/binio.hh"

namespace mpos::sim
{

/**
 * FIFO of pending script items: a power-of-two ring buffer indexed by
 * monotonically increasing head/tail counters (modular arithmetic keeps
 * the masked indices valid even after head is decremented below zero by
 * a prepend). The front pop / back push pair runs once per simulated
 * reference, which is why this is not a std::deque.
 */
class ScriptQueue
{
  public:
    ScriptQueue() = default;

    ScriptQueue(ScriptQueue &&o) noexcept
        : buf(std::move(o.buf)), mask(o.mask), head(o.head), tail(o.tail)
    {
        o.mask = 0;
        o.head = o.tail = 0;
    }

    ScriptQueue &
    operator=(ScriptQueue &&o) noexcept
    {
        buf = std::move(o.buf);
        mask = o.mask;
        head = o.head;
        tail = o.tail;
        o.mask = 0;
        o.head = o.tail = 0;
        return *this;
    }

    bool empty() const { return head == tail; }
    uint64_t size() const { return tail - head; }

    const ScriptItem &front() const { return buf[head & mask]; }

    /** Peek the i-th queued item (0 = front) without popping. */
    const ScriptItem &at(uint64_t i) const { return buf[(head + i) & mask]; }

    void pop_front() { ++head; }

    void
    push_back(const ScriptItem &item)
    {
        if (size() == buf.size())
            grow(size() + 1);
        buf[tail++ & mask] = item;
    }

    /** Append items in order after everything currently queued. */
    void
    append(const ScriptItem *items, uint64_t n)
    {
        if (size() + n > buf.size())
            grow(size() + n);
        // At most two contiguous spans (the copy may wrap the ring);
        // bulk copies beat a per-item masked-index loop for the
        // hundreds-of-items chunks the kernel pushes per refill.
        const uint64_t start = tail & mask;
        const uint64_t first = std::min(n, buf.size() - start);
        std::copy_n(items, first, buf.data() + start);
        std::copy_n(items + first, n - first, buf.data());
        tail += n;
    }

    /** Insert items in order before everything currently queued. */
    void
    prepend(const ScriptItem *items, uint64_t n)
    {
        if (size() + n > buf.size())
            grow(size() + n);
        head -= n;
        const uint64_t start = head & mask;
        const uint64_t first = std::min(n, buf.size() - start);
        std::copy_n(items, first, buf.data() + start);
        std::copy_n(items + first, n - first, buf.data());
    }

    void clear() { head = tail = 0; }

    /// @name Snapshot save/restore
    /// Only the logical contents travel: items are written front to
    /// back and re-appended into a cleared queue, so the ring's
    /// physical layout (capacity, head offset) never leaks into a
    /// snapshot image.
    /// @{
    void
    saveState(util::ByteWriter &w) const
    {
        const uint64_t n = size();
        w.u64(n);
        for (uint64_t i = 0; i < n; ++i) {
            const ScriptItem &it = at(i);
            w.u8(uint8_t(it.kind));
            w.u8(uint8_t(it.space));
            w.u8(uint8_t(it.marker));
            w.u64(it.addr);
            w.u64(it.arg2);
        }
    }

    void
    restoreState(util::ByteReader &r)
    {
        clear();
        const uint64_t n = r.u64();
        for (uint64_t i = 0; i < n; ++i) {
            ScriptItem it;
            it.kind = ItemKind(r.u8());
            it.space = AddrSpace(r.u8());
            it.marker = MarkerOp(r.u8());
            it.addr = r.u64();
            it.arg2 = r.u64();
            push_back(it);
        }
    }
    /// @}

  private:
    void
    grow(uint64_t need)
    {
        uint64_t cap = buf.empty() ? 64 : buf.size();
        while (cap < need)
            cap *= 2;
        std::vector<ScriptItem> nb(cap);
        const uint64_t n = size();
        for (uint64_t i = 0; i < n; ++i)
            nb[i] = buf[(head + i) & mask];
        buf = std::move(nb);
        mask = cap - 1;
        head = 0;
        tail = n;
    }

    std::vector<ScriptItem> buf;
    uint64_t mask = 0; ///< buf.size() - 1 (0 while unallocated).
    uint64_t head = 0;
    uint64_t tail = 0;
};

/** Per-mode cycle accounting (indexed by ExecMode). */
struct CycleAccount
{
    Cycle total[3] = {0, 0, 0};
    Cycle stall[3] = {0, 0, 0};

    Cycle user() const { return total[unsigned(ExecMode::User)]; }
    Cycle kernel() const { return total[unsigned(ExecMode::Kernel)]; }
    Cycle idle() const { return total[unsigned(ExecMode::Idle)]; }
    Cycle nonIdle() const { return user() + kernel(); }
    Cycle
    all() const
    {
        return total[0] + total[1] + total[2];
    }
};

/** A simulated processor. */
class Cpu
{
  public:
    Cpu(CpuId cpu_id, const MachineConfig &cfg)
        : id(cpu_id), tlb(cfg.tlbEntries)
    {
    }

    CpuId id;
    Tlb tlb;
    MonitorContext ctx;

    /** Cycle up to which this CPU is occupied. */
    Cycle busyUntil = 0;
    /** Next cycle at which external events are polled. */
    Cycle nextPollAt = 0;
    /** When > 0, external interrupts are deferred. */
    uint32_t intrDisable = 0;

    CycleAccount account;

    /** Pending work, front = next to execute. */
    ScriptQueue script;

    void push(const ScriptItem &item) { script.push_back(item); }

    void
    pushSeq(const std::vector<ScriptItem> &items)
    {
        script.append(items.data(), items.size());
    }

    /** Insert items so they run before everything currently queued. */
    void
    pushFrontSeq(const std::vector<ScriptItem> &items)
    {
        script.prepend(items.data(), items.size());
    }

    void pushFront(const ScriptItem &item) { script.prepend(&item, 1); }

    /** Move the entire remaining script out (context switch / block). */
    ScriptQueue
    drainScript()
    {
        ScriptQueue out = std::move(script);
        return out;
    }

    /** Charge cycles to the current mode. */
    void
    charge(Cycle exec, Cycle stall)
    {
        const auto m = unsigned(ctx.mode);
        account.total[m] += exec + stall;
        account.stall[m] += stall;
        busyUntil += exec + stall;
    }
};

/**
 * The interface through which the machine asks the OS model for work.
 * Implemented by kernel::Kernel; the sim layer has no other knowledge
 * of the kernel.
 */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** The CPU's script ran dry: push at least one item. */
    virtual void refill(CpuId cpu) = 0;

    /** Handle a marker item (zero-cost control operation). */
    virtual void marker(CpuId cpu, const ScriptItem &item) = 0;

    /**
     * A virtual reference could not be translated. The faulting item
     * is still at the front of the queue; the executor must push a
     * handling path in front of it.
     * @param is_prot True for a write to a read-only mapping (COW).
     */
    virtual void fault(CpuId cpu, Addr vaddr, bool is_store,
                       bool is_prot) = 0;

    /** Deliver any pending external events (interrupts) to cpu. */
    virtual void pollEvents(CpuId cpu, Cycle now) = 0;

    /**
     * Earliest cycle at which pollEvents(cpu, t) could do anything
     * for any t below the returned value. Machine parks an idle CPU
     * no later than this, so every poll it skips is a provable no-op.
     * The conservative default (0) disables parking entirely for
     * executors that do not implement it.
     */
    virtual Cycle nextEventAt(CpuId cpu) const
    {
        (void)cpu;
        return 0;
    }

  protected:
    /**
     * Declare, from inside refill(), that the items just pushed are a
     * spin chunk: Loads and IFetchLines on physical addresses plus
     * markers, where the markers before the first reference are
     * idempotent and every later marker is a no-op, and refill()
     * pushes the same chunk again when it runs out. While every
     * reference of the chunk hits, the fast scheduler may stop
     * stepping the CPU and account its spin arithmetically (see
     * Machine::runFast). The executor must call Machine::wakeParked()
     * when a premise of the spin ends; the deadline is nextEventAt().
     * The chunk must outlive the refill() call.
     */
    static void
    declareSpin(const std::vector<ScriptItem> &chunk)
    {
        declaredSpin = &chunk;
    }

  private:
    /** Set by declareSpin() during refill(), consumed by the machine
     *  right after. Per thread rather than per executor, so an
     *  executor that forwards refill() to this one (a timing wrapper)
     *  passes the declaration through unchanged. */
    static inline thread_local const std::vector<ScriptItem>
        *declaredSpin = nullptr;

    friend class Machine;
};

} // namespace mpos::sim

#endif // MPOS_SIM_CPU_HH
