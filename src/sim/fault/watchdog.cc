#include "sim/fault/watchdog.hh"

#include <cstdio>

#include "sim/machine.hh"
#include "util/error.hh"

namespace mpos::sim
{

Watchdog::Watchdog(const MachineConfig &config, Cycle budget_cycles)
    : cfg(config), budgetCycles(budget_cycles)
{
}

void
Watchdog::poll(const Machine &m, Cycle now)
{
    if (progressed) {
        progressed = false;
        lastProgressCycle = now;
    }
    if (tripAt && now >= tripAt) {
        // One-shot: a caller that catches the error and resumes the
        // machine should not re-trip on the same schedule entry.
        tripAt = 0;
        throw util::SimError(
            util::ErrCode::WatchdogTrip,
            dump(m, now, "synthetic trip (forceTripAt)"));
    }
    if (now - lastProgressCycle >= budgetCycles)
        throw util::SimError(util::ErrCode::WatchdogTrip,
                             dump(m, now, "no forward progress"));
}

std::string
Watchdog::dump(const Machine &m, Cycle now, const char *reason) const
{
    char buf[256];
    std::string out;

    std::snprintf(buf, sizeof buf,
                  "watchdog: %s at cycle %llu (budget %llu, last "
                  "progress at %llu)\n",
                  reason, (unsigned long long)now,
                  (unsigned long long)budgetCycles,
                  (unsigned long long)lastProgressCycle);
    out += buf;

    for (CpuId c = 0; c < m.numCpus(); ++c) {
        const Cpu &cpu = m.cpu(c);
        std::snprintf(
            buf, sizeof buf,
            "  cpu%u: mode=%s op=%s routine=%u pid=%d "
            "busyUntil=%llu intrDisable=%u queued=%llu\n",
            c, execModeName(cpu.ctx.mode), osOpName(cpu.ctx.op),
            unsigned(cpu.ctx.routine), int(cpu.ctx.pid),
            (unsigned long long)cpu.busyUntil,
            unsigned(cpu.intrDisable),
            (unsigned long long)cpu.script.size());
        out += buf;
    }

    if (diagProvider)
        out += diagProvider();

    const uint64_t size = tracer ? tracer->ring().size() : 0;
    const uint64_t have = size < dumpEvents ? size : dumpEvents;
    if (have) {
        std::snprintf(buf, sizeof buf, "  last %llu monitor events:\n",
                      (unsigned long long)have);
        out += buf;
        for (uint64_t i = size - have; i < size; ++i) {
            out += "    ";
            tracer->appendJson(out, tracer->ring().tail(i));
        }
    }
    return out;
}

void
Watchdog::busTransaction(const BusRecord &)
{
    // A settled bus transaction means a reference completed somewhere;
    // this also covers progress made inside kernel paths between the
    // scheduler's explicit noteProgress() hooks.
    progressed = true;
}

} // namespace mpos::sim
