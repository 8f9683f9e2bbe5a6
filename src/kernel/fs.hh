/**
 * @file
 * File-system substrate: synthetic files, the buffer cache, a
 * single-spindle disk model, and tty sessions.
 *
 * Files are identified by small integer ids; file block b of file f
 * lives at synthetic disk block f * 4096 + b. The buffer cache is a
 * hash of 4 KB buffers with LRU replacement, matching the paper's
 * 17408-byte header array (Table 3). The disk is a FIFO single server
 * whose service time produces the workloads' idle time.
 */

#ifndef MPOS_KERNEL_FS_HH
#define MPOS_KERNEL_FS_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/types.hh"

namespace mpos::kernel
{

using sim::Cycle;

/** One buffer-cache slot. */
struct Buf
{
    int64_t blkno = -1;  ///< Disk block cached, -1 = free.
    bool dirty = false;
    uint64_t lastUse = 0;
};

/** LRU-hash buffer cache over numBuffers 4 KB buffers. */
class BufferCache
{
  public:
    explicit BufferCache(uint32_t num_buffers);

    /** Buffer index holding blkno, or -1. */
    int32_t lookup(int64_t blkno) const;

    /**
     * Choose a victim buffer for blkno (LRU), rebind it and return its
     * index. The caller inspects wasDirty/oldBlkno to schedule a
     * write-back.
     */
    struct GetResult
    {
        uint32_t index;
        bool wasDirty;
        int64_t oldBlkno;
    };
    GetResult getVictim(int64_t blkno);

    void touchUse(uint32_t index) { bufs[index].lastUse = ++useClock; }
    void markDirty(uint32_t index) { bufs[index].dirty = true; }
    void clean(uint32_t index) { bufs[index].dirty = false; }

    /** Number of buffers whose hash chain lookup(blkno) walks. */
    uint32_t chainLength(int64_t blkno) const;

    uint32_t size() const { return uint32_t(bufs.size()); }
    const Buf &buf(uint32_t i) const { return bufs[i]; }

    /// @name Snapshot state
    /// The hash index is derived state: restore rebuilds it from the
    /// buffer array, so lookups behave identically however the map
    /// ended up bucketed before the save.
    /// @{
    template <class Ar> void state(Ar &ar);
    /// @}

  private:
    std::vector<Buf> bufs;
    std::unordered_map<int64_t, uint32_t> map;
    uint64_t useClock = 0;
};

/** FIFO single-server disk. */
class Disk
{
  public:
    Disk(Cycle access_latency, Cycle per_block)
        : latency(access_latency), perBlock(per_block)
    {
    }

    /**
     * Enqueue a transfer of blocks starting at cycle now; returns the
     * completion cycle.
     */
    Cycle
    schedule(Cycle now, uint32_t blocks)
    {
        const Cycle start = busyUntil > now ? busyUntil : now;
        busyUntil = start + latency + Cycle(blocks) * perBlock;
        ++requests;
        return busyUntil;
    }

    Cycle busyUntil = 0;
    Cycle latency;
    Cycle perBlock;
    uint64_t requests = 0;
};

/** A terminal line fed by the simulated typist. */
struct TtySession
{
    uint32_t id = 0;
    uint32_t pendingChars = 0;   ///< Typed but not yet read.
    sim::Pid reader = sim::invalidPid; ///< Blocked reader, if any.
    Cycle meanGap = 0;           ///< Mean cycles between bursts.
};

} // namespace mpos::kernel

#endif // MPOS_KERNEL_FS_HH
