#include "kernel/kernel.hh"

#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::kernel
{

using sim::ExecMode;
using sim::LockEvent;
using sim::MarkerOp;
using sim::OsOp;

Kernel::Kernel(sim::Machine &machine, const KernelConfig &config)
    : m(machine), cfg(config), map(cfg.layout), rng(cfg.rngSeed),
      bufcache(cfg.layout.numBuffers),
      disk(cfg.diskLatency, cfg.diskPerBlock)
{
    const uint32_t ncpu = m.numCpus();
    if (m.sync().numLocks() < numKernelLocks + cfg.maxUserLocks)
        util::raise(util::ErrCode::BadConfig,
                    "machine sync transport has too few lock slots "
                    "(%u needed, %u present)",
                    numKernelLocks + cfg.maxUserLocks,
                    m.sync().numLocks());

    procs.reserve(cfg.layout.maxProcs);
    for (uint32_t i = 0; i < cfg.layout.maxProcs; ++i) {
        auto p = std::make_unique<Process>();
        p->slot = i;
        p->pid = Pid(i);
        procs.push_back(std::move(p));
    }

    curProc.assign(ncpu, sim::invalidPid);
    locks.assign(numKernelLocks + cfg.maxUserLocks, LockState{});

    // Application page pool (optionally capped to create pressure).
    uint64_t pool = map.userPoolPages();
    if (cfg.userPoolPages && cfg.userPoolPages < pool)
        pool = cfg.userPoolPages;
    const uint64_t first = map.firstUserPage();
    for (uint64_t i = 0; i < pool; ++i)
        freePages.push_back(first + pool - 1 - i);
    pageHeldCode.assign(cfg.layout.memBytes / cfg.layout.pageBytes, 0);
    pageRefs.assign(cfg.layout.memBytes / cfg.layout.pageBytes, 0);

    const auto id = [this](const char *name) { return map.routine(name); };
    rt = {
        .locore_except = id("locore_except"),
        .utlbmiss = id("utlbmiss"),
        .locore_rfe = id("locore_rfe"),
        .idleloop = id("idleloop"),
        .spinlock_acquire = id("spinlock_acquire"),
        .spinlock_release = id("spinlock_release"),
        .swtch = id("swtch"),
        .resched = id("resched"),
        .setrq = id("setrq"),
        .pickproc = id("pickproc"),
        .schedcpu = id("schedcpu"),
        .syscall_entry = id("syscall_entry"),
        .rdwr_setup = id("rdwr_setup"),
        .read_sys = id("read_sys"),
        .write_sys = id("write_sys"),
        .sginap_sys = id("sginap_sys"),
        .fork_sys = id("fork_sys"),
        .exec_sys = id("exec_sys"),
        .exit_sys = id("exit_sys"),
        .wait_sys = id("wait_sys"),
        .brk_sys = id("brk_sys"),
        .misc_sys = id("misc_sys"),
        .namei = id("namei"),
        .iget = id("iget"),
        .iput = id("iput"),
        .bmap = id("bmap"),
        .getblk = id("getblk"),
        .bread = id("bread"),
        .bwrite = id("bwrite"),
        .dfbmap = id("dfbmap"),
        .vfault = id("vfault"),
        .tfault = id("tfault"),
        .pagealloc = id("pagealloc"),
        .pagefree = id("pagefree"),
        .pfdat_scan = id("pfdat_scan"),
        .cow_break = id("cow_break"),
        .zfod = id("zfod"),
        .bcopy = id("bcopy"),
        .bclear = id("bclear"),
        .clock_intr = id("clock_intr"),
        .callout_svc = id("callout_svc"),
        .disk_intr = id("disk_intr"),
        .tty_intr = id("tty_intr"),
        .stream_svc = id("stream_svc"),
        .disk_strategy = id("disk_strategy"),
        .scsi_driver = id("scsi_driver"),
        .tty_driver = id("tty_driver"),
        .streams_core = id("streams_core"),
        .alloc_kmem = id("alloc_kmem"),
    };

    nextClockAt.assign(ncpu, 0);
    for (uint32_t c = 0; c < ncpu; ++c)
        nextClockAt[c] = m.config().clockTickCycles + c * 997;

    m.setExecutor(this);

    // Observability hooks: the kernel owns the routine symbol table
    // and reports routine boundaries and lock events. All null-gated.
    mx = m.metrics();
    pf = m.profiler();
    if (m.tracer() || pf) {
        std::vector<std::string> names(map.numRoutines());
        for (uint32_t r = 0; r < map.numRoutines(); ++r)
            names[r] = map.routineInfo(RoutineId(r)).name;
        if (sim::trace::Tracer *t = m.tracer())
            t->setRoutineNames(names);
        if (pf)
            pf->setRoutineNames(std::move(names));
    }

    for (uint32_t c = 0; c < ncpu; ++c)
        enterIdle(c);
}

uint32_t
Kernel::registerImage(const std::string &name, uint64_t text_bytes)
{
    Image img;
    img.id = uint32_t(images.size());
    img.name = name;
    img.textPages = uint32_t((text_bytes + cfg.layout.pageBytes - 1) /
                             cfg.layout.pageBytes);
    images.push_back(img);
    return img.id;
}

Pid
Kernel::spawn(std::unique_ptr<AppBehavior> behavior, uint32_t image_id,
              const std::string &name)
{
    for (auto &pp : procs) {
        if (pp->state != ProcState::Free)
            continue;
        Process &p = *pp;
        p.resetForReuse();
        p.name = name;
        p.imageId = image_id;
        p.behavior = std::move(behavior);
        p.state = ProcState::Ready;
        p.ticksLeft = cfg.quantumTicks;
        p.ioBufVaddr = VaMap::dataBase;
        if (runQueue.empty())
            m.wakeParked();
        runQueue.push_back(p.pid);
        rqSkips.push_back(0);
        return p.pid;
    }
    util::raise(util::ErrCode::ResourceExhausted,
                "no free process slots for spawn('%s') (maxProcs %u)",
                name.c_str(), uint32_t(procs.size()));
}

Addr
Kernel::shmAlloc(uint64_t bytes)
{
    const Addr base = sharedBrk;
    const uint64_t pages =
        (bytes + cfg.layout.pageBytes - 1) / cfg.layout.pageBytes;
    // Refuse before taking any page, so a failed call leaves the free
    // pool and the shared region as they were.
    if (pages > freePages.size())
        util::raise(util::ErrCode::ResourceExhausted,
                    "out of physical memory in shmAlloc "
                    "(%llu bytes requested)",
                    (unsigned long long)bytes);
    for (uint64_t i = 0; i < pages; ++i) {
        const Addr vpage = sharedBrk / cfg.layout.pageBytes;
        sharedMap[vpage] = freePages.back();
        freePages.pop_back();
        sharedBrk += cfg.layout.pageBytes;
    }
    return base;
}

uint32_t
Kernel::allocUserLock()
{
    if (nUserLocks >= cfg.maxUserLocks)
        util::raise(util::ErrCode::ResourceExhausted,
                    "out of user lock slots (max %u)",
                    cfg.maxUserLocks);
    return numKernelLocks + nUserLocks++;
}

uint32_t
Kernel::registerTty(Cycle mean_gap_cycles)
{
    TtySession s;
    s.id = uint32_t(ttys.size());
    s.meanGap = mean_gap_cycles;
    ttys.push_back(s);
    scheduleEvent({m.now() + mean_gap_cycles + rng.below(mean_gap_cycles),
                   Event::Kind::TtyInput, s.id});
    return s.id;
}

// ---------------------------------------------------------------------
// Executor interface
// ---------------------------------------------------------------------

void
Kernel::refill(CpuId cpu)
{
    sim::Cpu &c = m.cpu(cpu);
    const Pid pid = curProc[cpu];

    if (pid != sim::invalidPid) {
        Process &p = *procs[uint32_t(pid)];
        if (!p.savedScript.empty()) {
            // Resume exactly where the process was preempted/blocked.
            c.script = std::move(p.savedScript);
            p.savedScript.clear();
            return;
        }
        const PathScope path(*this);
        UserScript us(path.s);
        p.behavior->chunk(p, us);
        ++p.userChunks;
        if (path.s.empty())
            util::panic("behavior of %s produced an empty chunk",
                        p.name.c_str());
        c.pushSeq(path.s);
        return;
    }

    // Nothing to run: idle loop.
    if (c.ctx.mode != ExecMode::Idle)
        enterIdle(cpu);
    if (!runQueue.empty()) {
        // Dispatch from the idle loop.
        const PathScope path(*this);
        Script &s = path.s;
        emitLock(s, Runqlk);
        emitText(s, rt.pickproc);
        emitTouch(s, map.runQueueAddr(), 24, false);
        emitTouch(s, map.hiNdprocAddr(), 8, false);
        emitUnlock(s, Runqlk);
        s.push_back(ScriptItem::mark(MarkerOp::Resched));
        c.pushSeq(s);
        return;
    }
    // The idle chunk is the same every time (the layout is fixed after
    // construction), so build it once and replay it; an idle machine
    // otherwise spends most of its kernel time re-emitting this script.
    if (idleChunk.empty()) {
        Script &s = idleChunk;
        const RoutineId idle = rt.idleloop;
        const Routine &r = map.routineInfo(idle);
        s.push_back(ScriptItem::mark(MarkerOp::RoutineEnter, idle));
        const uint32_t lines = r.textBytes / cfg.layout.lineBytes;
        for (uint32_t rep = 0; rep < 4; ++rep) {
            for (uint32_t l = 0; l < lines; ++l)
                s.push_back(ScriptItem::ifetch(r.textBase +
                                               l * cfg.layout.lineBytes));
            // The idle loop polls the run queue header without the lock.
            s.push_back(ScriptItem::load(map.runQueueAddr()));
        }
        s.push_back(ScriptItem::mark(MarkerOp::IdlePoll));
    }
    c.pushSeq(idleChunk);
    // While the run queue stays empty the chunk is a pure spin: its
    // RoutineEnter is idempotent and its IdlePoll a no-op. makeReady
    // and spawn wake parked CPUs when the queue fills.
    declareSpin(idleChunk);
}

void
Kernel::marker(CpuId cpu, const ScriptItem &item)
{
    switch (item.marker) {
      case MarkerOp::OsEnter:
        onOsEnter(cpu, OsOp(item.addr));
        return;
      case MarkerOp::OsExit:
        onOsExit(cpu);
        return;
      case MarkerOp::RoutineEnter:
        m.cpu(cpu).ctx.routine = uint16_t(item.addr);
        if (pf)
            pf->routineSwitch(m.now(), cpu, uint16_t(item.addr));
        return;
      case MarkerOp::RoutineExit:
        m.cpu(cpu).ctx.routine = invalidRoutine;
        if (pf)
            pf->routineSwitch(m.now(), cpu, invalidRoutine);
        return;
      case MarkerOp::LockAcquire:
      case MarkerOp::LockAcquireShared:
      case MarkerOp::UserLockAcquire:
        onLockAcquire(cpu, item);
        return;
      case MarkerOp::LockRelease:
      case MarkerOp::LockReleaseShared:
      case MarkerOp::UserLockRelease:
        onLockRelease(cpu, item);
        return;
      case MarkerOp::Syscall:
        onSyscall(cpu, Sys(item.addr), item.arg2);
        return;
      case MarkerOp::SleepDisk:
        onSleepDisk(cpu, item.addr);
        return;
      case MarkerOp::Resched:
        onResched(cpu);
        return;
      case MarkerOp::IdlePoll:
        onIdlePoll(cpu);
        return;
      case MarkerOp::InvalICache:
        m.memory().flushICachesForPage(item.addr);
        return;
      case MarkerOp::PathDone:
        return;
      case MarkerOp::Custom:
        if (item.addr == customBlockWait)
            onBlockWait(cpu);
        else if (item.addr == customBlockTty)
            onBlockTty(cpu, uint32_t(item.arg2));
        else if (item.addr == customFutexWait)
            onFutexWait(cpu, uint32_t(item.arg2));
        else
            util::panic("unknown custom marker %llu",
                        static_cast<unsigned long long>(item.addr));
        return;
    }
    util::panic("unhandled marker");
}

void
Kernel::fault(CpuId cpu, Addr vaddr, bool is_store, bool is_prot)
{
    const Pid pid = curProc[cpu];
    if (pid == sim::invalidPid)
        util::panic("virtual fault with no current process on cpu %u",
                    cpu);
    Process &p = *procs[uint32_t(pid)];
    const Addr vpage = vaddr / cfg.layout.pageBytes;
    Pte *pte = p.findPte(vpage);

    const bool needs_vm =
        !pte || !pte->present || (is_store && (pte->cow ||
                                               !pte->writable));
    const PathScope path(*this);
    if (!needs_vm) {
        // Pure TLB refill: the UTLB fast path.
        ++nUtlbFaults;
        m.cpu(cpu).tlb.insert(pid, vpage, pte->ppage,
                              pte->writable && !pte->cow);
        pathUtlbFault(path.s, p, vpage);
    } else {
        pathVmFault(path.s, cpu, p, vaddr, is_prot);
    }
    m.cpu(cpu).pushFrontSeq(path.s);
}

bool
Kernel::deliverGlobalEvent(CpuId cpu, Cycle now)
{
    if (events.empty() || events.top().when > now)
        return false;
    const Event ev = events.top();
    events.pop();
    switch (ev.kind) {
      case Event::Kind::DiskDone: {
        const PathScope path(*this);
        pathDiskInterrupt(path.s, cpu, Pid(ev.payload));
        m.cpu(cpu).pushFrontSeq(path.s);
        return true;
      }
      case Event::Kind::TtyInput: {
        const uint32_t sid = uint32_t(ev.payload);
        TtySession &t = ttys[sid];
        // The typist sends a burst of 1-15 characters (paper Sec. 3).
        t.pendingChars += uint32_t(rng.range(1, 15));
        scheduleEvent({now + t.meanGap / 2 + rng.below(t.meanGap),
                       Event::Kind::TtyInput, sid});
        const PathScope path(*this);
        pathTtyInterrupt(path.s, cpu, sid);
        m.cpu(cpu).pushFrontSeq(path.s);
        return true;
      }
    }
    return false;
}

void
Kernel::pollEvents(CpuId cpu, Cycle now)
{
    if (now >= nextClockAt[cpu]) {
        nextClockAt[cpu] += m.config().clockTickCycles;
        const PathScope path(*this);
        pathClockInterrupt(path.s, cpu);
        m.cpu(cpu).pushFrontSeq(path.s);
        return;
    }
    deliverGlobalEvent(cpu, now);
}

void
Kernel::scheduleEvent(const Event &ev)
{
    // A CPU parked until its old nextEventAt() would miss this one.
    m.wakeParkedAfter(ev.when);
    events.push(ev);
}

sim::Cycle
Kernel::nextEventAt(CpuId cpu) const
{
    // pollEvents(cpu, t) is a complete no-op for every t below both
    // the CPU's next clock tick and the earliest queued global event:
    // it neither pops, pushes, nor touches any CPU. A parked CPU
    // wakes by then, so the polls it skips are provably no-ops.
    const sim::Cycle clock = nextClockAt[cpu];
    if (events.empty())
        return clock;
    return std::min(clock, events.top().when);
}

// ---------------------------------------------------------------------
// Marker handlers
// ---------------------------------------------------------------------

void
Kernel::onOsEnter(CpuId cpu, OsOp op)
{
    sim::Cpu &c = m.cpu(cpu);
    ++opCounts.count[unsigned(op)];
    if (c.ctx.mode == ExecMode::Idle)
        m.monitor().osExit(m.now(), cpu, OsOp::IdleLoop);
    c.ctx.mode = ExecMode::Kernel;
    c.ctx.op = op;
    m.monitor().osEnter(m.now(), cpu, op);
}

void
Kernel::onOsExit(CpuId cpu)
{
    sim::Cpu &c = m.cpu(cpu);
    m.monitor().osExit(m.now(), cpu, c.ctx.op);
    if (curProc[cpu] != sim::invalidPid) {
        c.ctx.mode = ExecMode::User;
        c.ctx.op = OsOp::None;
        c.ctx.routine = invalidRoutine;
        c.ctx.pid = curProc[cpu];
    } else {
        enterIdle(cpu);
    }
}

void
Kernel::chargeLock(CpuId cpu, uint32_t lock_id, LockEvent ev, int peer)
{
    m.charge(cpu, m.sync().access(cpu, lock_id, ev, peer), true);
}

void
Kernel::reportLock(CpuId cpu, uint32_t lock_id, LockEvent ev,
                   uint32_t waiters)
{
    // Statistics always see the logical event, whatever the primitive.
    if (lockListener)
        lockListener->lockEvent(m.now(), cpu, lock_id, ev, waiters);
    if (mx)
        mx->lockEvent(m.now(), cpu, lock_id, ev);
}

void
Kernel::onLockAcquire(CpuId cpu, const ScriptItem &item)
{
    const uint32_t lock_id = uint32_t(item.addr);
    LockState &l = locks[lock_id];
    const uint32_t waiters = l.waiters();
    // A user-library lock's arg2 counts spins; a kernel lock's carries
    // the policy's resume state.
    const bool user = item.marker == MarkerOp::UserLockAcquire;
    const sim::LockAcquireStep st = user
        ? sim::userLockAcquire(m.config().lockPolicy, l, cpu, curProc[cpu],
                               uint32_t(item.arg2), cfg.userLockSpins)
        : sim::lockAcquire(m.config().lockPolicy, l, lock_id, cpu,
                           item.arg2,
                           item.marker == MarkerOp::LockAcquireShared &&
                               rcuManaged(lock_id));
    chargeLock(cpu, lock_id, st.ev);
    if (st.ev == LockEvent::RcuReadEnter) {
        // RCU read side: free of bus operations; nobody waits on it.
        reportLock(cpu, lock_id, LockEvent::AcquireSuccess, 0);
        return;
    }
    if (st.won) {
        // Holding a kernel spinlock raises the interrupt level (spl):
        // defer external interrupts until release, as IRIX does.
        if (!user)
            ++m.cpu(cpu).intrDisable;
        reportLock(cpu, lock_id, LockEvent::AcquireSuccess, waiters);
        return;
    }
    reportLock(cpu, lock_id, LockEvent::AcquireFail, waiters);

    // The retry marker goes back first: a nap or a futex block saves
    // it as the continuation that re-attempts the acquire when the
    // process next runs.
    sim::Cpu &c = m.cpu(cpu);
    c.pushFront(ScriptItem::mark(
        user ? MarkerOp::UserLockAcquire : MarkerOp::LockAcquire, lock_id,
        st.retryState));
    if (st.wait == sim::LockWait::Spin) {
        c.pushFront(ScriptItem::think(cfg.spinGap));
        return;
    }
    Process &p = *procs[uint32_t(curProc[cpu])];
    const PathScope path(*this);
    if (st.wait == sim::LockWait::Nap)
        pathSyscall(path.s, cpu, p, Sys::Sginap, 0);
    else
        pathFutexWait(path.s, p, lock_id);
    c.pushFrontSeq(path.s);
}

void
Kernel::onLockRelease(CpuId cpu, const ScriptItem &item)
{
    const uint32_t lock_id = uint32_t(item.addr);
    LockState &l = locks[lock_id];
    const uint32_t waiters = l.waiters();
    if (item.marker == MarkerOp::UserLockRelease) {
        const sim::LockReleaseStep st = sim::userLockRelease(
            m.config().lockPolicy, l, lock_id, curProc[cpu]);
        // A futex wake-one makes the granted waiter runnable.
        if (st.peer >= 0)
            makeReady(Pid(st.peer));
        chargeLock(cpu, lock_id, st.ev);
        reportLock(cpu, lock_id, LockEvent::Release, waiters);
        return;
    }
    const bool managed = rcuManaged(lock_id);
    const sim::LockReleaseStep st = sim::lockRelease(
        m.config().lockPolicy, l, lock_id, cpu,
        item.marker == MarkerOp::LockReleaseShared && managed, managed);
    chargeLock(cpu, lock_id, st.ev, st.peer);
    if (st.ev == LockEvent::RcuReadExit) {
        reportLock(cpu, lock_id, LockEvent::Release, 0);
        return;
    }
    if (m.cpu(cpu).intrDisable == 0)
        util::panic("interrupt level underflow on lock release");
    --m.cpu(cpu).intrDisable;
    // The writer's grace period: one quiescence round-trip per other
    // CPU so pre-existing readers drain.
    if (st.gracePeriod)
        chargeLock(cpu, lock_id, LockEvent::RcuSync);
    reportLock(cpu, lock_id, LockEvent::Release, waiters);
}

void
Kernel::block(CpuId cpu, Process &p)
{
    p.state = ProcState::Blocked;
    sim::Cpu &c = m.cpu(cpu);
    p.savedScript = c.drainScript();
    const PathScope path(*this);
    emitReschedSeq(path.s);
    c.pushFrontSeq(path.s);
}

void
Kernel::onFutexWait(CpuId cpu, uint32_t lock_id)
{
    const Pid pid = curProc[cpu];
    if (!sim::futexSleep(locks[lock_id], pid))
        return; // fall through to the epilogue; the retry marker wins
    block(cpu, *procs[uint32_t(pid)]);
}

void
Kernel::onSyscall(CpuId cpu, Sys n, uint64_t payload)
{
    const Pid pid = curProc[cpu];
    if (pid == sim::invalidPid)
        util::panic("syscall with no current process");
    Process &p = *procs[uint32_t(pid)];
    const PathScope path(*this);
    pathSyscall(path.s, cpu, p, n, payload);
    m.cpu(cpu).pushFrontSeq(path.s);
}

void
Kernel::onSleepDisk(CpuId cpu, Cycle wake_at)
{
    (void)wake_at; // completion event was scheduled at build time
    const Pid pid = curProc[cpu];
    Process &p = *procs[uint32_t(pid)];
    p.cpuShare = p.cpuShare / 2 + (m.now() - p.runStart);
    p.totalRan += m.now() - p.runStart;
    p.runStart = m.now();
    if (p.wakePending > 0) {
        --p.wakePending;
        return; // I/O already finished; fall through to the post-work
    }
    block(cpu, p);
}

void
Kernel::onBlockWait(CpuId cpu)
{
    const Pid pid = curProc[cpu];
    Process &p = *procs[uint32_t(pid)];
    if (p.pendingChildExits > 0) {
        --p.pendingChildExits;
        return;
    }
    p.waitingForChild = true;
    block(cpu, p);
}

void
Kernel::onBlockTty(CpuId cpu, uint32_t session)
{
    const Pid pid = curProc[cpu];
    Process &p = *procs[uint32_t(pid)];
    TtySession &t = ttys[session];
    if (t.pendingChars > 0) {
        t.pendingChars = 0; // consume the whole burst
        return;
    }
    t.reader = pid;
    p.blockedOnTty = int32_t(session);
    block(cpu, p);
}

void
Kernel::onIdlePoll(CpuId cpu)
{
    if (runQueue.empty())
        return; // refill() will push another idle chunk
    sim::Cpu &c = m.cpu(cpu);
    const PathScope path(*this);
    Script &s = path.s;
    emitLock(s, Runqlk);
    emitText(s, rt.pickproc);
    emitTouch(s, map.runQueueAddr(), 24, false);
    emitUnlock(s, Runqlk);
    s.push_back(ScriptItem::mark(MarkerOp::Resched));
    c.pushSeq(s);
}

// ---------------------------------------------------------------------
// Scheduling
// ---------------------------------------------------------------------

void
Kernel::enterIdle(CpuId cpu)
{
    sim::Cpu &c = m.cpu(cpu);
    c.ctx.mode = ExecMode::Idle;
    c.ctx.op = OsOp::IdleLoop;
    c.ctx.routine = invalidRoutine;
    c.ctx.pid = sim::invalidPid;
    m.monitor().osEnter(m.now(), cpu, OsOp::IdleLoop);
}

void
Kernel::enqueueReady(Pid pid)
{
    // Idle CPUs spin on an empty queue: they must see it fill.
    if (runQueue.empty())
        m.wakeParked();
    // SysV-style priority placement: interactive (low recent CPU)
    // processes queue ahead of CPU hogs; FIFO within each class.
    Process &p = *procs[uint32_t(pid)];
    if (p.cpuShare < cfg.interactiveShare) {
        for (uint32_t i = 0; i < runQueue.size(); ++i) {
            if (procs[uint32_t(runQueue[i])]->cpuShare >=
                cfg.interactiveShare) {
                runQueue.insert(runQueue.begin() + i, pid);
                rqSkips.insert(rqSkips.begin() + i, 0);
                return;
            }
        }
    }
    runQueue.push_back(pid);
    rqSkips.push_back(0);
}

void
Kernel::makeReady(Pid pid)
{
    Process &p = *procs[uint32_t(pid)];
    if (p.state == ProcState::Ready || p.state == ProcState::Running)
        return;
    p.state = ProcState::Ready;
    enqueueReady(pid);
}

Pid
Kernel::pickNext(CpuId cpu)
{
    if (runQueue.empty())
        return sim::invalidPid;

    if (!cfg.affinitySched) {
        // The queue is priority-ordered (enqueueReady): interactive
        // processes dispatch first. CPU hogs are not starved because
        // interactive processes, by construction, yield or block
        // almost immediately and cannot hold every CPU for long.
        ++pickCount;
        const Pid pid = runQueue.front();
        runQueue.pop_front();
        rqSkips.erase(rqSkips.begin());
        return pid;
    }

    // Cache-affinity scheduling (Squillante/Lazowska style): prefer a
    // process that last ran here, but age skipped processes so nothing
    // starves.
    if (rqSkips.front() >= 3) {
        const Pid pid = runQueue.front();
        runQueue.pop_front();
        rqSkips.erase(rqSkips.begin());
        return pid;
    }
    const uint32_t depth =
        std::min<uint32_t>(cfg.affinityScanDepth,
                           uint32_t(runQueue.size()));
    for (uint32_t i = 0; i < depth; ++i) {
        Process &p = *procs[uint32_t(runQueue[i])];
        if (!p.everRan || p.lastCpu == cpu) {
            const Pid pid = runQueue[i];
            runQueue.erase(runQueue.begin() + i);
            rqSkips.erase(rqSkips.begin() + i);
            for (uint32_t j = 0; j < i && j < rqSkips.size(); ++j)
                ++rqSkips[j];
            return pid;
        }
    }
    for (uint32_t j = 0; j < depth; ++j)
        ++rqSkips[j];
    const Pid pid = runQueue.front();
    runQueue.pop_front();
    rqSkips.erase(rqSkips.begin());
    return pid;
}

void
Kernel::onResched(CpuId cpu)
{
    sim::Cpu &c = m.cpu(cpu);
    const Pid oldPid = curProc[cpu];

    if (oldPid != sim::invalidPid) {
        Process &old = *procs[uint32_t(oldPid)];
        auto rest = c.drainScript();
        if (old.state == ProcState::Running) {
            for (uint32_t l = numKernelLocks; l < locks.size(); ++l)
                if (locks[l].heldByCpu == int32_t(oldPid))
                    ++nStrands;
            old.state = ProcState::Ready;
            old.savedScript = std::move(rest);
            old.lastCpu = cpu;
            old.cpuShare = old.cpuShare / 2 +
                           (m.now() - old.runStart);
            old.totalRan += m.now() - old.runStart;
            enqueueReady(oldPid);
        } else if (old.state == ProcState::Zombie) {
            // The zombie is leaving its CPU for good: recycle the
            // slot (the parent already collected the exit status).
            for (uint32_t c = 0; c < m.numCpus(); ++c)
                m.cpu(c).tlb.invalidatePid(oldPid);
            old.resetForReuse();
        }
        // Blocked processes saved their continuation at the sleep
        // marker.
    } else {
        c.drainScript();
    }

    const Pid next = pickNext(cpu);
    const PathScope path(*this);
    Script &s = path.s;
    if (next == sim::invalidPid) {
        curProc[cpu] = sim::invalidPid;
        s.push_back(ScriptItem::mark(MarkerOp::OsExit));
        c.pushFrontSeq(s);
        return;
    }

    Process &np = *procs[uint32_t(next)];
    if (np.everRan && np.lastCpu != cpu)
        ++nMigrations;

    if (next != oldPid) {
        ++nCtxSwitches;
        emitText(s, rt.swtch);
        if (oldPid != sim::invalidPid) {
            // Save the outgoing registers into the old PCB.
            emitTouch(s, map.pcbAddr(procs[uint32_t(oldPid)]->slot),
                      240, true);
        }
        // Restore the incoming context.
        emitTouch(s, map.pcbAddr(np.slot), 240, false);
        emitTouch(s, map.kernelStackAddr(np.slot) + 4096 - 128, 128,
                  false);
        emitTouch(s, map.procTableAddr(np.slot), 48, true);
        m.monitor().contextSwitch(m.now(), cpu, oldPid, next);
    }

    np.state = ProcState::Running;
    np.everRan = true;
    np.lastCpu = cpu;
    np.ticksLeft = cfg.quantumTicks;
    np.runStart = m.now();
    ++np.dispatches;
    curProc[cpu] = next;
    c.ctx.pid = next;

    emitEpilogue(s, np);
    s.push_back(ScriptItem::mark(MarkerOp::OsExit));
    c.pushFrontSeq(s);
}

void
Kernel::switchTo(CpuId cpu, Pid next)
{
    // Test hook: force a process onto a CPU outside the normal flow.
    curProc[cpu] = next;
    Process &np = *procs[uint32_t(next)];
    np.state = ProcState::Running;
    np.everRan = true;
    np.lastCpu = cpu;
    m.cpu(cpu).ctx.pid = next;
    m.cpu(cpu).ctx.mode = ExecMode::User;
    m.cpu(cpu).ctx.op = OsOp::None;
}

} // namespace mpos::kernel
