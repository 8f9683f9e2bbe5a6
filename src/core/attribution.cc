#include "core/attribution.hh"

namespace mpos::core
{

Attribution::Attribution(const KernelLayout &layout)
    : map(layout), disposIByRoutine(layout.numRoutines(), 0),
      dMissByRoutine(layout.numRoutines(), 0)
{
}

uint64_t
Attribution::disposMissesOfRoutine(kernel::RoutineId r) const
{
    return r < disposIByRoutine.size() ? disposIByRoutine[r] : 0;
}

uint64_t
Attribution::blockOpMissesOf(const char *routine_name) const
{
    const kernel::RoutineId r = map.routine(routine_name);
    return dMissByRoutine[r];
}

void
Attribution::onMiss(const ClassifiedMiss &miss)
{
    const auto &rec = miss.rec;
    if (rec.ctx.mode != ExecMode::Kernel)
        return; // attribution concerns OS misses only

    if (rec.cache == CacheKind::Instr) {
        // Figure 5: where does the OS interfere with itself?
        if (miss.cls == MissClass::Dispos) {
            const kernel::RoutineId r = map.routineAt(rec.lineAddr);
            if (r != kernel::invalidRoutine)
                ++disposIByRoutine[r];
        }
        return;
    }

    // Data miss: attribute to structure and to executing routine.
    const KStruct st = map.structAt(rec.lineAddr);

    const kernel::RoutineId rid = rec.ctx.routine;
    RoutineGroup group = RoutineGroup::Other;
    if (rid != kernel::invalidRoutine && rid < map.numRoutines()) {
        ++dMissByRoutine[rid];
        group = map.routineInfo(rid).group;
        if (group == RoutineGroup::BlockOp)
            ++blockOpD;
    }

    if (miss.cls != MissClass::Sharing)
        return;

    ++sharingTally.total;
    // Pages reached through block operations have no static symbol;
    // attribute them through the executing routine, as the paper's
    // subroutine instrumentation does (the Bcopy/Bclear categories).
    if ((st == KStruct::UserPage || st == KStruct::BufData) &&
        rid != kernel::invalidRoutine) {
        const std::string &rn = map.routineInfo(rid).name;
        if (rn == "bcopy") {
            ++sharingTally.bcopyPages;
            return;
        }
        if (rn == "bclear") {
            ++sharingTally.bclearPages;
            return;
        }
    }
    ++sharingTally.count[unsigned(st)];

    // Migration misses: Sharing misses on the per-process structures
    // (kernel stack, the three user-structure sections, and the
    // process table) -- the paper's conservative definition.
    switch (st) {
      case KStruct::KernelStack:
        ++migKStack;
        ++migGroup[unsigned(group)];
        break;
      case KStruct::Pcb:
      case KStruct::Eframe:
      case KStruct::URest:
        ++migUStruct;
        ++migGroup[unsigned(group)];
        break;
      case KStruct::ProcTable:
        ++migProcTab;
        ++migGroup[unsigned(group)];
        break;
      default:
        break;
    }
}

} // namespace mpos::core
