#include "sim/tlb.hh"

#include "util/binio.hh"

namespace mpos::sim
{

Tlb::Tlb(uint32_t num_entries)
    : entries(num_entries)
{
}

const TlbEntry *
Tlb::lookupScan(Pid pid, Addr vpage, uint32_t h) const
{
    for (uint32_t i = 0; i < uint32_t(entries.size()); ++i) {
        const auto &e = entries[i];
        if (e.valid && e.pid == pid && e.vpage == vpage) {
            if (i < 256)
                hint[h] = uint8_t(i);
            return &e;
        }
    }
    return nullptr;
}

uint32_t
Tlb::insert(Pid pid, Addr vpage, Addr ppage, bool writable)
{
    // Refresh in place if already mapped.
    for (uint32_t i = 0; i < entries.size(); ++i) {
        auto &e = entries[i];
        if (e.valid && e.pid == pid && e.vpage == vpage) {
            e.ppage = ppage;
            e.writable = writable;
            return i;
        }
    }
    const uint32_t slot = fifoNext;
    fifoNext = (fifoNext + 1) % uint32_t(entries.size());
    entries[slot] = {pid, vpage, ppage, writable, true};
    if (slot < 256)
        hint[hintSlot(pid, vpage)] = uint8_t(slot);
    return slot;
}

void
Tlb::invalidate(Pid pid, Addr vpage)
{
    for (auto &e : entries)
        if (e.valid && e.pid == pid && e.vpage == vpage)
            e.valid = false;
}

void
Tlb::invalidatePid(Pid pid)
{
    for (auto &e : entries)
        if (e.valid && e.pid == pid)
            e.valid = false;
}

void
Tlb::invalidatePhys(Addr ppage)
{
    for (auto &e : entries)
        if (e.valid && e.ppage == ppage)
            e.valid = false;
}

void
Tlb::flush()
{
    for (auto &e : entries)
        e.valid = false;
}

uint32_t
Tlb::residentEntries() const
{
    uint32_t n = 0;
    for (const auto &e : entries)
        n += e.valid;
    return n;
}

template <class Ar>
void
Tlb::state(Ar &ar)
{
    ar.fixed(uint32_t(entries.size()), "tlb entry count");
    for (TlbEntry &e : entries) {
        ar.i64(e.pid);
        ar.u64(e.vpage);
        ar.u64(e.ppage);
        ar.b(e.writable);
        ar.b(e.valid);
    }
    ar.u32(fifoNext);
    ar.u64(hits);
    ar.u64(misses);
    ar.raw(hint, sizeof(hint));
}

template void Tlb::state(util::SaveArchive &);
template void Tlb::state(util::LoadArchive &);

} // namespace mpos::sim
