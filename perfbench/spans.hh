/**
 * @file
 * Host-time spans for the benchmark's traced run, recorded from
 * outside the simulator: a forwarding sim::Executor wrapped around
 * the kernel, and forwarding MonitorObservers wrapped around the
 * measurement apparatus. Only public library API is used, so the
 * simulator under test carries no tracing code of its own.
 *
 * A span's self time is its duration minus the part of it that
 * child spans cover; spans nest through a small explicit stack (an
 * observer call can happen inside a kernel callback).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <time.h>

#include <array>
#include <cstdint>
#include <functional>
#include <optional>

#include "core/experiment.hh"
#include "sim/cpu.hh"
#include "sim/monitor.hh"

namespace perfbench
{

/** Monotonic host clock in nanoseconds. */
inline int64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** The layers a traced job's host time is charged to. */
enum class Layer : uint8_t
{
    Setup,      ///< core::Experiment construction.
    Sim,        ///< Experiment::run minus kernel and observer spans.
    Kernel,     ///< sim::Executor callbacks into kernel::Kernel.
    Classifier, ///< MissClassifier and its miss sinks.
    Invocation, ///< InvocationStats.
    Resim,      ///< ICacheResim's own monitor feed.
    Count
};

inline constexpr size_t numLayers = size_t(Layer::Count);

/** Nested span recorder: per-layer self time and span counts. */
class Spans
{
  public:
    void
    enter(Layer l)
    {
        Frame &f = stack[depth++];
        f.layer = l;
        f.child = 0;
        f.t0 = nowNs();
    }

    void
    exit()
    {
        const int64_t t1 = nowNs();
        const Frame &f = stack[--depth];
        const int64_t d = t1 - f.t0;
        const size_t l = size_t(f.layer);
        selfNs[l] += d - f.child;
        ++spans[l];
        if (depth) {
            stack[depth - 1].child += d;
            ++nested[size_t(stack[depth - 1].layer)][l];
        }
    }

    void
    add(const Spans &o)
    {
        for (size_t l = 0; l < numLayers; ++l) {
            selfNs[l] += o.selfNs[l];
            spans[l] += o.spans[l];
            for (size_t c = 0; c < numLayers; ++c)
                nested[l][c] += o.nested[l][c];
        }
    }

    std::array<int64_t, numLayers> selfNs{};
    std::array<uint64_t, numLayers> spans{};
    /** nested[p][c]: spans of layer c whose parent was layer p. */
    std::array<std::array<uint64_t, numLayers>, numLayers> nested{};

  private:
    struct Frame
    {
        int64_t t0;
        int64_t child;
        Layer layer;
    };
    std::array<Frame, 16> stack{};
    size_t depth = 0;
};

/** Times every monitor event one observer receives. */
class TimedObserver final : public mpos::sim::MonitorObserver
{
  public:
    TimedObserver(mpos::sim::MonitorObserver &inner, Spans &sp, Layer l)
        : in(inner), sp(sp), layer(l)
    {
    }

    using Cycle = mpos::sim::Cycle;
    using CpuId = mpos::sim::CpuId;
    using CacheKind = mpos::sim::CacheKind;
    using Addr = mpos::sim::Addr;
    using OsOp = mpos::sim::OsOp;

    void
    busTransaction(const mpos::sim::BusRecord &rec) override
    {
        sp.enter(layer);
        in.busTransaction(rec);
        sp.exit();
    }

    void
    evict(CpuId cpu, CacheKind kind, Addr line,
          const mpos::sim::MonitorContext &by) override
    {
        sp.enter(layer);
        in.evict(cpu, kind, line, by);
        sp.exit();
    }

    void
    invalSharing(CpuId cpu, CacheKind kind, Addr line) override
    {
        sp.enter(layer);
        in.invalSharing(cpu, kind, line);
        sp.exit();
    }

    void
    invalPageRealloc(CpuId cpu, Addr line) override
    {
        sp.enter(layer);
        in.invalPageRealloc(cpu, line);
        sp.exit();
    }

    void
    flushPage(CpuId cpu, Addr page_addr, uint32_t page_bytes) override
    {
        sp.enter(layer);
        in.flushPage(cpu, page_addr, page_bytes);
        sp.exit();
    }

    void
    osEnter(Cycle cycle, CpuId cpu, OsOp op) override
    {
        sp.enter(layer);
        in.osEnter(cycle, cpu, op);
        sp.exit();
    }

    void
    osExit(Cycle cycle, CpuId cpu, OsOp op) override
    {
        sp.enter(layer);
        in.osExit(cycle, cpu, op);
        sp.exit();
    }

    void
    contextSwitch(Cycle cycle, CpuId cpu, mpos::sim::Pid from,
                  mpos::sim::Pid to) override
    {
        sp.enter(layer);
        in.contextSwitch(cycle, cpu, from, to);
        sp.exit();
    }

    mpos::sim::MonitorObserver &inner() { return in; }

  private:
    mpos::sim::MonitorObserver &in;
    Spans &sp;
    Layer layer;
};

/**
 * Forwards a machine's executor callbacks to an inner executor inside
 * Kernel spans, counting them. The first callback at or past the
 * warmup length marks the warmup/measure edge and calls atEdge once.
 */
class TimedExecutor final : public mpos::sim::Executor
{
  public:
    using CpuId = mpos::sim::CpuId;
    using Cycle = mpos::sim::Cycle;

    TimedExecutor(mpos::sim::Executor &inner, const mpos::sim::Machine &mach,
                  Cycle warmup, Spans &sp, std::function<void()> at_edge)
        : in(inner), mach(mach), warmup(warmup), sp(sp),
          atEdge(std::move(at_edge))
    {
    }

    TimedExecutor(const TimedExecutor &) = delete;
    TimedExecutor &operator=(const TimedExecutor &) = delete;

    void
    refill(CpuId cpu) override
    {
        edge();
        ++refills;
        sp.enter(Layer::Kernel);
        in.refill(cpu);
        sp.exit();
    }

    void
    marker(CpuId cpu, const mpos::sim::ScriptItem &item) override
    {
        edge();
        ++markers;
        sp.enter(Layer::Kernel);
        in.marker(cpu, item);
        sp.exit();
    }

    void
    fault(CpuId cpu, mpos::sim::Addr vaddr, bool is_store,
          bool is_prot) override
    {
        edge();
        ++faults;
        sp.enter(Layer::Kernel);
        in.fault(cpu, vaddr, is_store, is_prot);
        sp.exit();
    }

    void
    pollEvents(CpuId cpu, Cycle now) override
    {
        edge();
        ++polls;
        sp.enter(Layer::Kernel);
        in.pollEvents(cpu, now);
        sp.exit();
    }

    Cycle
    nextEventAt(CpuId cpu) const override
    {
        return in.nextEventAt(cpu);
    }

    uint64_t refills = 0, markers = 0, faults = 0, polls = 0;
    /** Host time of the warmup/measure edge; 0 until reached. */
    int64_t measureStartNs = 0;

  private:
    void
    edge()
    {
        if (measureStartNs || mach.now() < warmup)
            return;
        measureStartNs = nowNs();
        atEdge();
    }

    mpos::sim::Executor &in;
    const mpos::sim::Machine &mach;
    Cycle warmup;
    Spans &sp;
    std::function<void()> atEdge;
};

/**
 * Traces one experiment: installs a TimedExecutor around its kernel
 * and, at the warmup/measure edge, swaps the measurement observers
 * the experiment has just attached for TimedObservers in the same
 * order. Observers must attach only after warmup:
 * Monitor::listening() gates record building. The destructor puts
 * the kernel and the unwrapped observers back.
 */
class TracedExperiment
{
  public:
    TracedExperiment(mpos::core::Experiment &exp, Spans &sp)
        : exp(exp), sp(sp),
          tx(exp.kern(), exp.machine(), exp.config().warmupCycles, sp,
             [this] { wrapObservers(); })
    {
        exp.machine().setExecutor(&tx);
    }

    TracedExperiment(const TracedExperiment &) = delete;
    TracedExperiment &operator=(const TracedExperiment &) = delete;

    ~TracedExperiment()
    {
        exp.machine().setExecutor(&exp.kern());
        auto &mon = exp.machine().monitor();
        for (auto &w : wrapped) {
            if (w) {
                mon.detach(&*w);
                mon.attach(&w->inner());
            }
        }
    }

    const TimedExecutor &executor() const { return tx; }

  private:
    void
    wrapObservers()
    {
        if (!exp.config().collectMisses)
            return;
        auto &mon = exp.machine().monitor();
        mpos::sim::MonitorObserver *resim = &exp.resim();
        auto *cls = const_cast<mpos::core::MissClassifier *>(
            &exp.classifier_());
        auto *inv = const_cast<mpos::core::InvocationStats *>(
            &exp.invocations());
        mon.detach(resim);
        mon.detach(cls);
        mon.detach(inv);
        // Experiment::run attaches resim (when recording), then the
        // classifier, then invocation stats.
        if (exp.config().collectResim) {
            wrapped[0].emplace(*resim, sp, Layer::Resim);
            mon.attach(&*wrapped[0]);
        }
        wrapped[1].emplace(*cls, sp, Layer::Classifier);
        mon.attach(&*wrapped[1]);
        wrapped[2].emplace(*inv, sp, Layer::Invocation);
        mon.attach(&*wrapped[2]);
    }

    mpos::core::Experiment &exp;
    Spans &sp;
    TimedExecutor tx;
    std::array<std::optional<TimedObserver>, 3> wrapped;
};

/**
 * What one span of a layer costs beyond the work it wraps: `innerNs`
 * is the part the span records as its own layer's self time,
 * `outerNs` the part its caller's layer pays (the clock reads outside
 * the span and, for the forwarding wrappers, the extra call, the
 * warmup-edge test and the call counter).
 */
struct SpanCost
{
    std::array<double, numLayers> innerNs{};
    std::array<double, numLayers> outerNs{};
};

namespace detail
{

struct NullExecutor final : mpos::sim::Executor
{
    void refill(mpos::sim::CpuId) override {}
    void marker(mpos::sim::CpuId, const mpos::sim::ScriptItem &) override {}
    void fault(mpos::sim::CpuId, mpos::sim::Addr, bool, bool) override {}
    void pollEvents(mpos::sim::CpuId, mpos::sim::Cycle) override {}
};

struct NullObserver final : mpos::sim::MonitorObserver
{
};

/** Host ns per call of e.refill(); out of line, so the call stays
 *  virtual as the machine's is. */
[[gnu::noinline]] inline double
executorCallNs(mpos::sim::Executor &e, int n)
{
    const int64_t t0 = nowNs();
    for (int i = 0; i < n; ++i)
        e.refill(0);
    return double(nowNs() - t0) / n;
}

/** Host ns per call of o.osEnter(), as executorCallNs. */
[[gnu::noinline]] inline double
observerCallNs(mpos::sim::MonitorObserver &o, int n)
{
    const int64_t t0 = nowNs();
    for (int i = 0; i < n; ++i)
        o.osEnter(0, 0, mpos::sim::OsOp(0));
    return double(nowNs() - t0) / n;
}

[[gnu::noinline]] inline double
emptySpansNs(Spans &s, int n)
{
    const int64_t t0 = nowNs();
    for (int i = 0; i < n; ++i) {
        s.enter(Layer::Setup);
        s.exit();
    }
    return double(nowNs() - t0) / n;
}

} // namespace detail

/**
 * Measures the cost of each kind of span around a call that does
 * nothing, through the same wrappers the traced run uses. `mach` is
 * only read for its clock (any machine before its run will do). Each
 * figure is the best of five rounds.
 */
inline SpanCost
calibrateSpans(const mpos::sim::Machine &mach)
{
    constexpr int n = 1 << 20;
    detail::NullExecutor nullExec;
    detail::NullObserver nullObs;
    double pair = 1e30, pairInner = 0;
    double exec = 1e30, execInner = 0;
    double obs = 1e30, obsInner = 0;
    for (int round = 0; round < 5; ++round) {
        // Every span here is nested in a Sim span, as in a real run,
        // so its own self time is what the child layer records.
        Spans s;
        s.enter(Layer::Sim);
        const double p = detail::emptySpansNs(s, n);
        TimedExecutor tx(nullExec, mach, ~mpos::sim::Cycle(0), s, [] {});
        const double e = detail::executorCallNs(tx, n) -
                         detail::executorCallNs(nullExec, n);
        TimedObserver to(nullObs, s, Layer::Classifier);
        const double o = detail::observerCallNs(to, n) -
                         detail::observerCallNs(nullObs, n);
        s.exit();
        if (p < pair) {
            pair = p;
            pairInner = double(s.selfNs[size_t(Layer::Setup)]) / n;
        }
        if (e < exec) {
            exec = e;
            execInner = double(s.selfNs[size_t(Layer::Kernel)]) / n;
        }
        if (o < obs) {
            obs = o;
            obsInner = double(s.selfNs[size_t(Layer::Classifier)]) / n;
        }
    }
    SpanCost c;
    for (size_t l = 0; l < numLayers; ++l) {
        switch (Layer(l)) {
          case Layer::Kernel:
            c.innerNs[l] = execInner;
            c.outerNs[l] = exec - execInner;
            break;
          case Layer::Classifier:
          case Layer::Invocation:
          case Layer::Resim:
            c.innerNs[l] = obsInner;
            c.outerNs[l] = obs - obsInner;
            break;
          default:
            c.innerNs[l] = pairInner;
            c.outerNs[l] = pair - pairInner;
            break;
        }
    }
    return c;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
