#include "sim/trace/profile.hh"

#include <algorithm>

namespace mpos::sim::trace
{

Profiler::Profiler(uint32_t num_cpus)
    : cur(num_cpus)
{
}

void
Profiler::closeSpan(Cycle now, CpuId cpu)
{
    CpuKey &k = cur[cpu];
    if (now > k.spanStart) {
        const uint64_t span = now - k.spanStart;
        tallyOf(k.mode, k.op, k.routine).cycles += span;
        // invalidPid collects no-process time (idle loop, early
        // boot), so the per-pid view partitions the same total.
        byPid[k.pid] += span;
    }
    k.spanStart = now;
}

void
Profiler::routineSwitch(Cycle now, CpuId cpu, uint16_t routine)
{
    closeSpan(now, cpu);
    cur[cpu].routine = routine;
}

void
Profiler::recordMiss(const MonitorContext &ctx, CacheKind cache,
                     uint8_t miss_class)
{
    if (miss_class >= profileMissSlots)
        miss_class = profileMissSlots - 1;
    Tally &t = tallyOf(ctx.mode, ctx.op, ctx.routine);
    if (cache == CacheKind::Instr)
        ++t.missesI[miss_class];
    else
        ++t.missesD[miss_class];
}

void
Profiler::resetCycles(Cycle now)
{
    tallies.clear();
    byPid.clear();
    for (CpuKey &k : cur)
        k.spanStart = now;
}

void
Profiler::finish(Cycle now)
{
    for (CpuId cpu = 0; cpu < cur.size(); ++cpu)
        closeSpan(now, cpu);
}

std::vector<ProfileEntry>
Profiler::entries() const
{
    std::vector<std::pair<uint32_t, const Tally *>> keys;
    keys.reserve(tallies.size());
    for (const auto &kv : tallies)
        keys.push_back({kv.first, &kv.second});
    std::sort(keys.begin(), keys.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    std::vector<ProfileEntry> out;
    out.reserve(keys.size());
    for (const auto &[key, t] : keys) {
        ProfileEntry e;
        e.mode = ExecMode(key >> 24);
        e.op = OsOp((key >> 16) & 0xff);
        e.routine = uint16_t(key & 0xffff);
        e.cycles = t->cycles;
        e.busTx = t->busTx;
        e.stallEst = t->busTx * busMissStall;
        std::copy(std::begin(t->missesI), std::end(t->missesI),
                  std::begin(e.missesI));
        std::copy(std::begin(t->missesD), std::end(t->missesD),
                  std::begin(e.missesD));
        out.push_back(e);
    }
    return out;
}

uint64_t
Profiler::totalCycles() const
{
    uint64_t n = 0;
    for (const auto &kv : tallies)
        n += kv.second.cycles;
    return n;
}

std::string
Profiler::routineName(uint16_t routine) const
{
    if (routine < routineNames.size() && !routineNames[routine].empty())
        return routineNames[routine];
    if (routine == 0xffff)
        return "-";
    return "routine" + std::to_string(routine);
}

std::string
Profiler::collapsed() const
{
    auto all = entries();
    std::stable_sort(all.begin(), all.end(),
                     [](const ProfileEntry &a, const ProfileEntry &b) {
                         return a.cycles > b.cycles;
                     });
    std::string out;
    for (const ProfileEntry &e : all) {
        if (e.cycles == 0)
            continue;
        out += execModeName(e.mode);
        if (e.mode != ExecMode::User) {
            out += ';';
            out += osOpName(e.op);
            if (e.routine != 0xffff) {
                out += ';';
                out += routineName(e.routine);
            }
        }
        out += ' ';
        out += std::to_string(e.cycles);
        out += '\n';
    }
    return out;
}

void
Profiler::busTransaction(const BusRecord &rec)
{
    ++tallyOf(rec.ctx.mode, rec.ctx.op, rec.ctx.routine).busTx;
}

void
Profiler::osEnter(Cycle cycle, CpuId cpu, OsOp op)
{
    closeSpan(cycle, cpu);
    cur[cpu].mode = op == OsOp::IdleLoop ? ExecMode::Idle : ExecMode::Kernel;
    cur[cpu].op = op;
}

void
Profiler::osExit(Cycle cycle, CpuId cpu, OsOp op)
{
    (void)op;
    closeSpan(cycle, cpu);
    cur[cpu].mode = ExecMode::User;
    cur[cpu].op = OsOp::None;
    cur[cpu].routine = 0xffff;
}

void
Profiler::contextSwitch(Cycle cycle, CpuId cpu, Pid from, Pid to)
{
    (void)from;
    closeSpan(cycle, cpu);
    cur[cpu].pid = to;
}

} // namespace mpos::sim::trace
