#include "sim/trace/trace.hh"

#include <algorithm>
#include <cstdarg>

#include "util/error.hh"
#include "util/json.hh"

namespace mpos::sim::trace
{

namespace
{

/** printf-append to out; every format here fits in 256 bytes. */
[[gnu::format(printf, 2, 3)]] void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out.append(buf, n < 0 ? 0 : std::min<size_t>(n, sizeof buf - 1));
}

const char *
cacheName(uint64_t kind)
{
    return CacheKind(kind) == CacheKind::Instr ? "I" : "D";
}

const char *
traceEventKindName(TraceEventKind k)
{
    switch (k) {
      case TraceEventKind::Bus: return "bus";
      case TraceEventKind::Evict: return "evict";
      case TraceEventKind::InvalSharing: return "inval-sharing";
      case TraceEventKind::InvalPageRealloc: return "inval-realloc";
      case TraceEventKind::FlushPage: return "flush-page";
      case TraceEventKind::OsEnter: return "os-enter";
      case TraceEventKind::OsExit: return "os-exit";
      case TraceEventKind::ContextSwitch: return "context-switch";
    }
    return "?";
}

} // namespace

Tracer::Tracer(const std::string &file_path)
{
    if (file_path.empty())
        return;
    file = std::fopen(file_path.c_str(), "w");
    if (!file)
        util::raise(util::ErrCode::BadConfig,
                    "cannot open trace file '%s' for writing",
                    file_path.c_str());
}

Tracer::~Tracer()
{
    finish();
}

void
Tracer::appendJson(std::string &out, const TraceEvent &ev) const
{
    appendf(out, "{\"kind\":\"%s\",\"cycle\":%llu,\"cpu\":%u",
            traceEventKindName(ev.kind), (unsigned long long)ev.cycle,
            ev.cpu);
    switch (ev.kind) {
      case TraceEventKind::Bus:
        appendf(out,
                ",\"line\":\"0x%llx\",\"op\":\"%s\",\"cache\":\"%s\"",
                (unsigned long long)ev.addr, busOpName(BusOp(ev.a)),
                cacheName(ev.b));
        break;
      case TraceEventKind::Evict:
      case TraceEventKind::InvalSharing:
        appendf(out, ",\"line\":\"0x%llx\",\"cache\":\"%s\"",
                (unsigned long long)ev.addr, cacheName(ev.a));
        break;
      case TraceEventKind::InvalPageRealloc:
        appendf(out, ",\"line\":\"0x%llx\"",
                (unsigned long long)ev.addr);
        break;
      case TraceEventKind::FlushPage:
        appendf(out, ",\"page\":\"0x%llx\",\"bytes\":%llu",
                (unsigned long long)ev.addr, (unsigned long long)ev.a);
        break;
      case TraceEventKind::OsEnter:
      case TraceEventKind::OsExit:
        appendf(out, ",\"os_op\":\"%s\"", osOpName(OsOp(ev.a)));
        break;
      case TraceEventKind::ContextSwitch:
        appendf(out, ",\"from\":%d,\"to\":%d", int(int64_t(ev.a)),
                int(int64_t(ev.b)));
        break;
    }
    // The in-band context snapshot rides on bus records and evicts
    // (the kinds that carry one), mirroring the paper's per-record
    // CPU-state capture.
    if (ev.kind == TraceEventKind::Bus ||
        ev.kind == TraceEventKind::Evict) {
        appendf(out,
                ",\"mode\":\"%s\",\"os_op\":\"%s\",\"pid\":%d",
                execModeName(ev.ctx.mode), osOpName(ev.ctx.op),
                int(ev.ctx.pid));
        const uint16_t r = ev.ctx.routine;
        if (r != 0xffff) {
            if (r < routineNames.size() && !routineNames[r].empty())
                out += ",\"routine\":" +
                       util::jsonString(routineNames[r]);
            else
                appendf(out, ",\"routine\":%u", unsigned(r));
        }
    }
    out += "}\n";
}

void
Tracer::record(const TraceEvent &ev)
{
    ++nEvents;
    if (!file)
        return;
    line.clear();
    appendJson(line, ev);
    std::fwrite(line.data(), 1, line.size(), file);
}

void
Tracer::finish()
{
    if (!file)
        return;
    std::fclose(file);
    file = nullptr;
}

void
Tracer::busTransaction(const BusRecord &rec)
{
    lastCycle = rec.cycle;
    record({TraceEventKind::Bus, rec.cycle, rec.cpu, rec.lineAddr,
            uint64_t(rec.op), uint64_t(rec.cache), rec.ctx});
}

void
Tracer::evict(CpuId cpu, CacheKind kind, Addr line,
              const MonitorContext &by)
{
    record({TraceEventKind::Evict, lastCycle, cpu, line, uint64_t(kind),
            0, by});
}

void
Tracer::invalSharing(CpuId cpu, CacheKind kind, Addr line)
{
    record({TraceEventKind::InvalSharing, lastCycle, cpu, line,
            uint64_t(kind), 0, {}});
}

void
Tracer::invalPageRealloc(CpuId cpu, Addr line)
{
    record({TraceEventKind::InvalPageRealloc, lastCycle, cpu, line, 0,
            0, {}});
}

void
Tracer::flushPage(CpuId cpu, Addr page_addr, uint32_t page_bytes)
{
    record({TraceEventKind::FlushPage, lastCycle, cpu, page_addr,
            page_bytes, 0, {}});
}

void
Tracer::osEnter(Cycle cycle, CpuId cpu, OsOp op)
{
    lastCycle = cycle;
    record({TraceEventKind::OsEnter, cycle, cpu, 0, uint64_t(op), 0,
            {}});
}

void
Tracer::osExit(Cycle cycle, CpuId cpu, OsOp op)
{
    lastCycle = cycle;
    record({TraceEventKind::OsExit, cycle, cpu, 0, uint64_t(op), 0,
            {}});
}

void
Tracer::contextSwitch(Cycle cycle, CpuId cpu, Pid from, Pid to)
{
    lastCycle = cycle;
    record({TraceEventKind::ContextSwitch, cycle, cpu, 0,
            uint64_t(int64_t(from)), uint64_t(int64_t(to)), {}});
}

} // namespace mpos::sim::trace
