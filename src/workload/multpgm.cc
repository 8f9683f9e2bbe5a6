/**
 * @file
 * Builders for the Multpgm components (Mp3d and the edit sessions).
 */

#include "workload/edit.hh"
#include "workload/mp3d.hh"
#include "workload/multpgm.hh"

namespace mpos::workload
{

void
Workload::buildMp3d(const WorkloadOptions &opts)
{
    mp3d = std::make_unique<Mp3dShared>();
    // 50,000 particles at ~28 bytes each ~= 1.4 MB of shared arrays.
    mp3d->particleBytes = 1408 * 1024;
    mp3d->particleBase = kern.shmAlloc(mp3d->particleBytes);
    for (uint32_t i = 0; i < 4; ++i)
        mp3d->cellLocks.push_back(kern.allocUserLock());
    mp3d->barrierLock = kern.allocUserLock();
    mp3d->nprocs = opts.mp3dProcs;

    const uint32_t img = kern.registerImage("mp3d", 64 * 1024);
    util::Rng r(seed ^ 0x5d3d);
    for (uint32_t i = 0; i < opts.mp3dProcs; ++i) {
        kern.spawn(std::make_unique<Mp3dProc>(mp3d.get(), r.next()),
                   img, "mp3d" + std::to_string(i));
    }
}

void
Workload::buildEdits(const WorkloadOptions &opts)
{
    const uint32_t img = kern.registerImage("ed", 96 * 1024);
    util::Rng r(seed ^ 0xed17);
    for (uint32_t i = 0; i < opts.editSessions; ++i) {
        const uint32_t tty = kern.registerTty(editMeanGap);
        const uint32_t save_file = 0x300000 + i;
        kern.spawn(std::make_unique<EdSession>(tty, save_file,
                                               r.next()),
                   img, "ed" + std::to_string(i));
    }
}

} // namespace mpos::workload
