#include "kernel/fs.hh"

#include "util/binio.hh"

namespace mpos::kernel
{

BufferCache::BufferCache(uint32_t num_buffers)
    : bufs(num_buffers)
{
}

int32_t
BufferCache::lookup(int64_t blkno) const
{
    auto it = map.find(blkno);
    return it == map.end() ? -1 : int32_t(it->second);
}

BufferCache::GetResult
BufferCache::getVictim(int64_t blkno)
{
    // LRU over all buffers; the array is small (256).
    uint32_t victim = 0;
    for (uint32_t i = 1; i < bufs.size(); ++i)
        if (bufs[i].lastUse < bufs[victim].lastUse)
            victim = i;

    GetResult r{victim, bufs[victim].dirty, bufs[victim].blkno};
    if (bufs[victim].blkno >= 0)
        map.erase(bufs[victim].blkno);
    bufs[victim].blkno = blkno;
    bufs[victim].dirty = false;
    bufs[victim].lastUse = ++useClock;
    map[blkno] = victim;
    return r;
}

uint32_t
BufferCache::chainLength(int64_t blkno) const
{
    // Model a hash table of 64 chains: chain walk length is the number
    // of resident buffers sharing the low hash bits, capped small.
    uint32_t n = 0;
    for (const auto &b : bufs)
        if (b.blkno >= 0 && (b.blkno & 63) == (blkno & 63))
            ++n;
    return n > 4 ? 4 : (n == 0 ? 1 : n);
}

template <class Ar>
void
BufferCache::state(Ar &ar)
{
    ar.fixed(uint32_t(bufs.size()), "buffer cache size");
    for (Buf &b : bufs) {
        ar.i64(b.blkno);
        ar.b(b.dirty);
        ar.u64(b.lastUse);
    }
    ar.u64(useClock);
    if constexpr (Ar::loading) {
        map.clear();
        for (uint32_t i = 0; i < bufs.size(); ++i)
            if (bufs[i].blkno >= 0)
                map[bufs[i].blkno] = i;
    }
}

template void BufferCache::state(util::SaveArchive &);
template void BufferCache::state(util::LoadArchive &);

} // namespace mpos::kernel
