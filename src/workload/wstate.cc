#include "workload/wstate.hh"

#include "util/binio.hh"
#include "util/error.hh"
#include "workload/edit.hh"
#include "workload/mp3d.hh"
#include "workload/oracle.hh"
#include "workload/pmake.hh"

namespace mpos::workload
{

using util::ErrCode;

namespace
{

/** One-byte class tags; the on-disk format depends on these values. */
enum class Tag : uint8_t
{
    MakeDriver = 0,
    CompileJob = 1,
    Mp3dProc = 2,
    EdSession = 3,
    OracleServer = 4,
};

template <class Ar>
void
paramsState(Ar &ar, AppParams &p)
{
    ar.u64(p.codeBytes);
    ar.u64(p.dataBytes);
    ar.f64(p.dataRefProb);
    ar.f64(p.storeFrac);
    ar.f64(p.hotCodeFrac);
    ar.f64(p.hotCodeProb);
    ar.f64(p.jumpProb);
    ar.f64(p.loopStartProb);
    ar.u32(p.maxLoopLines);
    ar.u32(p.maxLoopReps);
    ar.f64(p.hotDataFrac);
    ar.f64(p.hotDataProb);
    ar.u64(p.sharedBytes);
    ar.u64(p.sharedBase);
    ar.f64(p.sharedRefProb);
    ar.f64(p.sharedSweepProb);
    ar.f64(p.sharedStoreFrac);
    ar.f64(p.sharedHotFrac);
    ar.f64(p.sharedHotProb);
    ar.u32(p.chunkInstrs);
    ar.u64(p.seed);
}

void
requireShared(const void *p, const char *what)
{
    if (!p)
        util::raise(ErrCode::SnapshotCorrupt,
                    "behavior snapshot references the %s shared state, "
                    "which this workload does not have",
                    what);
}

/** A presence flag the restoring workload must agree with. */
template <class Ar>
void
presence(Ar &ar, bool has, const char *what)
{
    bool flag = has;
    ar.b(flag);
    if (flag != has)
        util::raise(ErrCode::SnapshotCorrupt,
                    "workload snapshot %s presence mismatch", what);
}

} // namespace

template <class Ar>
void
StateCodec::body(Ar &ar, SyntheticApp &a, uint8_t tag)
{
    a.rng.state(ar);
    ar.u64(a.codePos);
    ar.b(a.loopActive);
    ar.u64(a.loopStart);
    ar.u32(a.loopLines);
    ar.u32(a.loopRepsLeft);
    ar.u64(a.sweepPos);
    ar.u64(a.hotDataSpan);
    ar.u64(a.hotCodeSpan);
    ar.u64(a.sharedHotSpan);
    ar.u64(a.thDataRef);
    ar.u64(a.thStore);
    ar.u64(a.thJumpLine);
    ar.u64(a.thLoopStart);
    ar.u64(a.thHotCode);
    ar.u64(a.thHotData);
    ar.u64(a.thSharedRef);
    ar.u64(a.thSharedSweep);
    ar.u64(a.thSharedStore);
    ar.u64(a.thSharedHot);

    switch (Tag(tag)) {
      case Tag::CompileJob: {
        auto &cj = static_cast<CompileJob &>(a);
        ar.u32(cj.srcFile);
        ar.u32(cj.tmpFile);
        ar.u32(cj.asmFile);
        ar.u32(cj.objFile);
        ar.i64(cj.phase);
        ar.u64(cj.done);
        ar.i64(cj.ioStep);
        break;
      }
      case Tag::Mp3dProc: {
        auto &mp = static_cast<Mp3dProc &>(a);
        ar.u32(mp.stepPhase);
        ar.u32(mp.myGeneration);
        ar.b(mp.atBarrier);
        break;
      }
      case Tag::EdSession: {
        auto &ed = static_cast<EdSession &>(a);
        ar.u32(ed.tty);
        ar.u32(ed.saveFile);
        ar.u32(ed.inputs);
        break;
      }
      case Tag::OracleServer: {
        auto &os = static_cast<OracleServer &>(a);
        ar.i64(os.txPhase);
        ar.u64(os.done);
        break;
      }
      default: // MakeDriver carries no state beyond the base.
        break;
    }
}

void
StateCodec::save(util::ByteWriter &w, const kernel::AppBehavior &b) const
{
    auto *app = const_cast<SyntheticApp *>(
        dynamic_cast<const SyntheticApp *>(&b));
    if (!app)
        util::raise(ErrCode::SnapshotCorrupt,
                    "cannot snapshot a non-SyntheticApp behavior");

    Tag tag;
    if (dynamic_cast<const MakeDriver *>(app))
        tag = Tag::MakeDriver;
    else if (dynamic_cast<const CompileJob *>(app))
        tag = Tag::CompileJob;
    else if (dynamic_cast<const Mp3dProc *>(app))
        tag = Tag::Mp3dProc;
    else if (dynamic_cast<const EdSession *>(app))
        tag = Tag::EdSession;
    else if (dynamic_cast<const OracleServer *>(app))
        tag = Tag::OracleServer;
    else
        util::raise(ErrCode::SnapshotCorrupt,
                    "cannot snapshot unknown SyntheticApp subclass");

    util::SaveArchive ar(w);
    ar.u8(tag);
    paramsState(ar, app->prm);
    body(ar, *app, uint8_t(tag));
}

std::unique_ptr<kernel::AppBehavior>
StateCodec::load(util::ByteReader &r) const
{
    util::LoadArchive ar(r);
    Tag tag;
    ar.u8(tag);
    AppParams prm;
    paramsState(ar, prm);

    // Construct the right class wired to the owning workload's shared
    // structures. Every constructor here is side-effect-free with
    // respect to that shared state (CompileJob uses its dedicated
    // restore constructor); the base members the constructors derive
    // are overwritten verbatim by the walk below.
    std::unique_ptr<SyntheticApp> app;
    switch (tag) {
      case Tag::MakeDriver:
        requireShared(wl.pmake.get(), "pmake");
        app = std::make_unique<MakeDriver>(wl.pmake.get(), prm.seed);
        break;
      case Tag::CompileJob:
        requireShared(wl.pmake.get(), "pmake");
        app.reset(new CompileJob(wl.pmake.get(), prm));
        break;
      case Tag::Mp3dProc:
        requireShared(wl.mp3d.get(), "mp3d");
        app = std::make_unique<Mp3dProc>(wl.mp3d.get(), prm.seed);
        break;
      case Tag::EdSession:
        app = std::make_unique<EdSession>(0, 0, prm.seed);
        break;
      case Tag::OracleServer:
        requireShared(wl.oracle.get(), "oracle");
        app = std::make_unique<OracleServer>(wl.oracle.get(), prm.seed);
        break;
      default:
        util::raise(ErrCode::SnapshotCorrupt,
                    "unknown behavior tag %u", unsigned(tag));
    }
    app->prm = prm;
    body(ar, *app, uint8_t(tag));
    return app;
}

// ---------------------------------------------------------------------
// Workload shared structures
// ---------------------------------------------------------------------

template <class Ar>
void
Workload::state(Ar &ar)
{
    const auto id = [&](uint32_t &v) { ar.u32(v); };
    presence(ar, pmake != nullptr, "pmake");
    if (pmake) {
        PmakeShared &s = *pmake;
        ar.u32(s.jobsRemaining);
        ar.u32(s.maxJobs);
        ar.u32(s.files);
        ar.u32(s.running);
        ar.u64(s.jobsCompleted);
        ar.u32(s.nextFile);
        ar.u32(s.imgCpp);
        ar.u32(s.imgCc1);
        ar.u32(s.imgAs);
        s.rng.state(ar);
    }
    presence(ar, mp3d != nullptr, "mp3d");
    if (mp3d) {
        Mp3dShared &s = *mp3d;
        ar.template seq<uint32_t>(s.cellLocks, 4, id);
        ar.u32(s.barrierLock);
        ar.u64(s.particleBase);
        ar.u64(s.particleBytes);
        ar.u64(s.steps);
        ar.u32(s.generation);
        ar.u32(s.arrived);
        ar.u32(s.nprocs);
    }
    presence(ar, oracle != nullptr, "oracle");
    if (oracle) {
        OracleShared &s = *oracle;
        ar.template seq<uint32_t>(s.latches, 4, id);
        ar.u32(s.logLatch);
        ar.u32(s.logFile);
        ar.u32(s.dbFileBase);
        ar.u32(s.logBlock);
        ar.u64(s.sgaBase);
        ar.u64(s.sgaBytes);
        ar.u64(s.transactions);
        s.rng.state(ar);
    }
}

void
Workload::saveState(util::ByteWriter &w) const
{
    util::SaveArchive ar(w);
    const_cast<Workload *>(this)->state(ar);
}

void
Workload::restoreState(util::ByteReader &r)
{
    util::LoadArchive ar(r);
    state(ar);
}

} // namespace mpos::workload
