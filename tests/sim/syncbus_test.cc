/** @file Tests for the dual-protocol lock transport. */

#include <gtest/gtest.h>

#include "sim/syncbus.hh"
#include "util/binio.hh"
#include "util/error.hh"

using namespace mpos::sim;

TEST(SyncBus, UncachedAcquireCostsProtocolOps)
{
    MachineConfig cfg; // cachedLockRmw = false
    SyncTransport st(cfg, 4);
    const Cycle c = st.access(0, 0, LockEvent::AcquireSuccess);
    EXPECT_EQ(c, Cycle(cfg.syncOpsPerAcquire) * cfg.syncBusOpCycles);
    EXPECT_EQ(st.counts(0).uncachedOps, cfg.syncOpsPerAcquire);
}

TEST(SyncBus, UncachedSpinAndReleaseCostOneOp)
{
    MachineConfig cfg;
    SyncTransport st(cfg, 4);
    EXPECT_EQ(st.access(0, 0, LockEvent::AcquireFail),
              cfg.syncBusOpCycles);
    EXPECT_EQ(st.access(0, 0, LockEvent::Release),
              cfg.syncBusOpCycles);
}

TEST(SyncBus, CachedReacquireByOwnerIsFree)
{
    MachineConfig cfg;
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 4);
    // First acquire fetches the line.
    EXPECT_GT(st.access(0, 0, LockEvent::AcquireSuccess), 0u);
    EXPECT_EQ(st.access(0, 0, LockEvent::Release), 0u);
    // Undisturbed reacquire: pure cache hit (the paper's key point).
    EXPECT_EQ(st.access(0, 0, LockEvent::AcquireSuccess), 0u);
}

TEST(SyncBus, CachedHandoffCostsOneBusOp)
{
    MachineConfig cfg;
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 4);
    st.access(0, 0, LockEvent::AcquireSuccess);
    st.access(0, 0, LockEvent::Release);
    EXPECT_EQ(st.access(1, 0, LockEvent::AcquireSuccess),
              cfg.busMissStall);
}

TEST(SyncBus, CachedSpinHitsAfterFirstPoll)
{
    MachineConfig cfg;
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 4);
    st.access(0, 0, LockEvent::AcquireSuccess);
    EXPECT_EQ(st.access(1, 0, LockEvent::AcquireFail),
              cfg.busMissStall); // first poll fetches
    EXPECT_EQ(st.access(1, 0, LockEvent::AcquireFail), 0u); // spins hit
    // Release by owner invalidates the spinner's copy.
    EXPECT_EQ(st.access(0, 0, LockEvent::Release), cfg.busMissStall);
}

TEST(SyncBus, BothProtocolsCountedSimultaneously)
{
    MachineConfig cfg; // active: sync bus
    SyncTransport st(cfg, 4);
    st.access(0, 1, LockEvent::AcquireSuccess);
    st.access(0, 1, LockEvent::Release);
    st.access(0, 1, LockEvent::AcquireSuccess);
    const auto &c = st.counts(1);
    EXPECT_EQ(c.uncachedOps, 2 * cfg.syncOpsPerAcquire + 1);
    // Cached model: fetch, free release, free reacquire.
    EXPECT_EQ(c.cachedOps, 1u);
    EXPECT_GT(st.uncachedStallTotal(), st.cachedStallTotal());
}

TEST(SyncBus, PerCpuStallAccounting)
{
    MachineConfig cfg;
    SyncTransport st(cfg, 4);
    st.access(2, 0, LockEvent::AcquireSuccess);
    EXPECT_GT(st.stallCycles(2), 0u);
    EXPECT_EQ(st.stallCycles(1), 0u);
}

TEST(SyncBus, SumOpsRange)
{
    MachineConfig cfg;
    SyncTransport st(cfg, 8);
    st.access(0, 2, LockEvent::Release);
    st.access(0, 6, LockEvent::Release);
    EXPECT_EQ(st.sumOps(4).uncachedOps, 1u);
    EXPECT_EQ(st.sumOps(8).uncachedOps, 2u);
    EXPECT_EQ(st.sumOps(100).uncachedOps, 2u); // clamped
}

TEST(SyncBus, HighLocalityMeansFewCachedOps)
{
    MachineConfig cfg;
    SyncTransport st(cfg, 1);
    // 100 acquire/release pairs by the same CPU, undisturbed.
    for (int i = 0; i < 100; ++i) {
        st.access(0, 0, LockEvent::AcquireSuccess);
        st.access(0, 0, LockEvent::Release);
    }
    // Table 12's last column: caching slashes the bus operations.
    EXPECT_EQ(st.counts(0).cachedOps, 1u);
    EXPECT_EQ(st.counts(0).uncachedOps,
              100u * (cfg.syncOpsPerAcquire + 1));
}

TEST(SyncBus, OutOfRangeLockIdRaisesTypedError)
{
    MachineConfig cfg;
    SyncTransport st(cfg, 4);
    // Lock ids can arrive from a restored snapshot, so a bad one
    // must travel the typed error channel, not panic.
    try {
        st.access(0, 4, LockEvent::AcquireSuccess);
        FAIL() << "out-of-range access was accepted";
    } catch (const mpos::util::SimError &e) {
        EXPECT_EQ(e.code(), mpos::util::ErrCode::BadConfig);
    }
    try {
        st.counts(99);
        FAIL() << "out-of-range counts() was accepted";
    } catch (const mpos::util::SimError &e) {
        EXPECT_EQ(e.code(), mpos::util::ErrCode::BadConfig);
    }
}

TEST(SyncBus, OutOfRangeHandoffPeerRaisesTypedError)
{
    MachineConfig cfg;
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 4);
    // A hand-off peer comes from a lock's wait queue, which a snapshot
    // restores; one that is no CPU (here 64, a shift past the mask's
    // width) must be refused before it indexes a per-CPU mask.
    for (const int peer : {int(cfg.numCpus), 64}) {
        try {
            st.access(0, 0, LockEvent::McsHandoff, peer);
            FAIL() << "hand-off to peer " << peer << " was accepted";
        } catch (const mpos::util::SimError &e) {
            EXPECT_EQ(e.code(), mpos::util::ErrCode::BadConfig);
        }
    }
    EXPECT_EQ(st.counts(0).cachedOps, 0u); // nothing was charged
}

TEST(SyncBus, TicketCostsUnderBothModels)
{
    MachineConfig cfg; // active: sync bus
    SyncTransport st(cfg, 2);
    // Fetch-and-add take costs a full emulated RMW; polls and the
    // now-serving bump are single transactions.
    EXPECT_EQ(st.access(0, 0, LockEvent::TicketTake),
              Cycle(cfg.syncOpsPerAcquire) * cfg.syncBusOpCycles);
    EXPECT_EQ(st.access(1, 0, LockEvent::TicketPoll),
              cfg.syncBusOpCycles);
    EXPECT_EQ(st.access(0, 0, LockEvent::TicketRelease),
              cfg.syncBusOpCycles);
}

TEST(SyncBus, CachedTicketReacquireUndisturbedIsFree)
{
    MachineConfig cfg;
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 2);
    EXPECT_EQ(st.access(0, 0, LockEvent::TicketTake),
              cfg.busMissStall); // first touch fetches the line
    EXPECT_EQ(st.access(0, 0, LockEvent::TicketRelease), 0u);
    // Undisturbed re-take: still the sole owner, pure cache hit.
    EXPECT_EQ(st.access(0, 0, LockEvent::TicketTake), 0u);
}

TEST(SyncBus, CachedMcsLocalSpinHitsUntilHandoff)
{
    MachineConfig cfg;
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 2);
    EXPECT_EQ(st.access(0, 0, LockEvent::McsSwap), cfg.busMissStall);
    // Enqueue: tail swap + the link write into the holder's node.
    EXPECT_EQ(st.access(1, 0, LockEvent::McsEnqueue),
              2 * cfg.busMissStall);
    // The waiter fetches its own queue node once, then spins locally
    // for free -- the MCS advantage the global-spin primitives lack.
    EXPECT_EQ(st.access(1, 0, LockEvent::McsLocalPoll),
              cfg.busMissStall);
    EXPECT_EQ(st.access(1, 0, LockEvent::McsLocalPoll), 0u);
    EXPECT_EQ(st.qnodeAtMask(0), uint64_t(1) << 1);
    // Hand-off writes the successor's node, invalidating its copy...
    EXPECT_EQ(st.access(0, 0, LockEvent::McsHandoff, 1),
              cfg.busMissStall);
    EXPECT_EQ(st.qnodeAtMask(0), 0u);
    // ...so the next poll refetches (and sees the grant).
    EXPECT_EQ(st.access(1, 0, LockEvent::McsLocalPoll),
              cfg.busMissStall);
}

TEST(SyncBus, UncachedMcsLocalPollStillCrossesTheBus)
{
    MachineConfig cfg; // active: sync bus (never cached)
    SyncTransport st(cfg, 2);
    st.access(1, 0, LockEvent::McsEnqueue);
    // Without cached locks the "local" spin degenerates to a bus
    // crossing per poll: MCS only pays off with cached lock RMW.
    EXPECT_EQ(st.access(1, 0, LockEvent::McsLocalPoll),
              cfg.syncBusOpCycles);
    EXPECT_EQ(st.access(1, 0, LockEvent::McsLocalPoll),
              cfg.syncBusOpCycles);
}

TEST(SyncBus, RcuReadPathIsFreeAndSyncChargesPerCpu)
{
    MachineConfig cfg; // numCpus = 4
    SyncTransport st(cfg, 2);
    EXPECT_EQ(st.access(1, 0, LockEvent::RcuReadEnter), 0u);
    EXPECT_EQ(st.access(1, 0, LockEvent::RcuReadExit), 0u);
    EXPECT_EQ(st.counts(0).uncachedOps, 0u);
    EXPECT_EQ(st.counts(0).cachedOps, 0u);
    // A grace period waits on every other CPU: numCpus - 1 ops under
    // both models.
    EXPECT_EQ(st.access(0, 0, LockEvent::RcuSync),
              Cycle(cfg.numCpus - 1) * cfg.syncBusOpCycles);
    EXPECT_EQ(st.counts(0).uncachedOps, cfg.numCpus - 1);
    EXPECT_EQ(st.counts(0).cachedOps, cfg.numCpus - 1);
}

TEST(SyncBus, RestoreRejectsPhantomSharerMask)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    SyncTransport st(cfg, 2);
    st.access(1, 0, LockEvent::AcquireSuccess);
    mpos::util::ByteWriter w;
    mpos::util::SaveArchive save(w);
    st.state(save);
    std::vector<uint8_t> img = w.take();
    // cachedAt masks follow the 4-byte count and 16 bytes of op
    // counters per lock; set a sharer bit beyond the 2-CPU machine.
    const size_t maskAt = 4 + 2 * 16;
    ASSERT_LT(maskAt, img.size());
    img[maskAt] |= 0x10; // bit 4
    SyncTransport fresh(cfg, 2);
    mpos::util::ByteReader r(img);
    mpos::util::LoadArchive load(r);
    try {
        fresh.state(load);
        FAIL() << "phantom sharer mask was accepted";
    } catch (const mpos::util::SimError &e) {
        EXPECT_EQ(e.code(), mpos::util::ErrCode::SnapshotCorrupt);
    }
}

TEST(SyncBus, RestoreRejectsPhantomQnodeMask)
{
    MachineConfig cfg;
    cfg.numCpus = 2;
    SyncTransport st(cfg, 2);
    mpos::util::ByteWriter w;
    mpos::util::SaveArchive save(w);
    st.state(save);
    std::vector<uint8_t> img = w.take();
    // qnodeAt masks follow the cachedAt masks (8 bytes per lock).
    const size_t maskAt = 4 + 2 * 16 + 2 * 8;
    ASSERT_LT(maskAt, img.size());
    img[maskAt] |= 0x80; // bit 7 on a 2-CPU machine
    SyncTransport fresh(cfg, 2);
    mpos::util::ByteReader r(img);
    mpos::util::LoadArchive load(r);
    try {
        fresh.state(load);
        FAIL() << "phantom qnode mask was accepted";
    } catch (const mpos::util::SimError &e) {
        EXPECT_EQ(e.code(), mpos::util::ErrCode::SnapshotCorrupt);
    }
}

TEST(SyncBus, RoundTripRestoresMasksAndCounters)
{
    MachineConfig cfg;
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 2);
    st.access(0, 0, LockEvent::McsSwap);
    st.access(1, 0, LockEvent::McsEnqueue);
    st.access(1, 0, LockEvent::McsLocalPoll);
    mpos::util::ByteWriter w;
    mpos::util::SaveArchive save(w);
    st.state(save);
    SyncTransport fresh(cfg, 2);
    mpos::util::ByteReader r(w.bytes());
    mpos::util::LoadArchive load(r);
    fresh.state(load);
    EXPECT_EQ(fresh.cachedAtMask(0), st.cachedAtMask(0));
    EXPECT_EQ(fresh.qnodeAtMask(0), st.qnodeAtMask(0));
    EXPECT_EQ(fresh.counts(0).uncachedOps, st.counts(0).uncachedOps);
    EXPECT_EQ(fresh.counts(0).cachedOps, st.counts(0).cachedOps);
    EXPECT_EQ(fresh.stallCycles(1), st.stallCycles(1));
}

TEST(SyncBus, SixtyFourCpuCachedMaskUsesHighBits)
{
    MachineConfig cfg;
    cfg.numCpus = 64;
    cfg.memBytes = 1024 * 1024; // keep the big machine's test cheap
    cfg.cachedLockRmw = true;
    SyncTransport st(cfg, 4);
    // CPU 63's fetch must set bit 63, not alias into the low word.
    st.access(63, 0, LockEvent::AcquireSuccess);
    EXPECT_EQ(st.cachedAtMask(0), uint64_t(1) << 63);
    // A spinner on CPU 32 joins the mask.
    st.access(32, 0, LockEvent::AcquireFail);
    EXPECT_EQ(st.cachedAtMask(0),
              (uint64_t(1) << 63) | (uint64_t(1) << 32));
    // Release by the owner invalidates every other cached copy.
    st.access(63, 0, LockEvent::Release);
    EXPECT_EQ(st.cachedAtMask(0), uint64_t(1) << 63);
}
