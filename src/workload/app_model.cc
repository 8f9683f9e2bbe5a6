#include "workload/app_model.hh"

namespace mpos::workload
{

namespace
{
constexpr Addr lineBytes = 16;
using sim::instrPerLine;
} // namespace

SyntheticApp::SyntheticApp(const AppParams &params)
    : prm(params), rng(params.seed),
      hotDataSpan(uint64_t(params.hotDataFrac *
                           double(params.dataBytes))),
      hotCodeSpan(uint64_t(params.hotCodeFrac *
                           double(params.codeBytes))),
      sharedHotSpan(uint64_t(params.sharedHotFrac *
                             double(params.sharedBytes))),
      thDataRef(util::Rng::chanceThreshold(params.dataRefProb)),
      thStore(util::Rng::chanceThreshold(params.storeFrac)),
      thJumpLine(
          util::Rng::chanceThreshold(params.jumpProb * instrPerLine)),
      thLoopStart(util::Rng::chanceThreshold(params.loopStartProb)),
      thHotCode(util::Rng::chanceThreshold(params.hotCodeProb)),
      thHotData(util::Rng::chanceThreshold(params.hotDataProb)),
      thSharedRef(util::Rng::chanceThreshold(params.sharedRefProb)),
      thSharedSweep(util::Rng::chanceThreshold(params.sharedSweepProb)),
      thSharedStore(util::Rng::chanceThreshold(params.sharedStoreFrac)),
      thSharedHot(util::Rng::chanceThreshold(params.sharedHotProb))
{
}

void
SyntheticApp::resetCursors()
{
    codePos = 0;
    loopActive = false;
    sweepPos = 0;
}

Addr
SyntheticApp::pickDataAddr()
{
    if (prm.sharedBytes && rng.chanceBelow(thSharedRef)) {
        if (rng.chanceBelow(thSharedSweep)) {
            const Addr a = prm.sharedBase + sweepPos;
            // Equivalent to % sharedBytes; loops at most once for any
            // shared region at least a line long.
            sweepPos += lineBytes;
            while (sweepPos >= prm.sharedBytes)
                sweepPos -= prm.sharedBytes;
            return a;
        }
        uint64_t span = prm.sharedBytes;
        if (prm.sharedHotProb > 0.0 && rng.chanceBelow(thSharedHot))
            span = sharedHotSpan;
        if (!span)
            span = lineBytes;
        return prm.sharedBase + (rng.below(span) & ~(lineBytes - 1));
    }
    uint64_t off;
    if (hotDataSpan && rng.chanceBelow(thHotData))
        off = rng.below(hotDataSpan);
    else
        off = rng.below(prm.dataBytes);
    return VaMap::dataBase + (off & ~(lineBytes - 1));
}

void
SyntheticApp::maybeJump()
{
    if (!rng.chanceBelow(thJumpLine))
        return;
    uint64_t target;
    if (hotCodeSpan && rng.chanceBelow(thHotCode))
        target = rng.below(hotCodeSpan);
    else
        target = rng.below(prm.codeBytes);
    codePos = target & ~(lineBytes - 1);
    loopActive = false;
}

void
SyntheticApp::emitWork(UserScript &s, uint32_t instrs)
{
    // At most one fetch and instrPerLine data references per line.
    s.reserve((instrs + instrPerLine - 1) / instrPerLine *
              (1 + instrPerLine));
    uint32_t emitted = 0;
    const bool shared_write_ok = prm.sharedBytes > 0;
    while (emitted < instrs) {
        if (!loopActive && rng.chanceBelow(thLoopStart)) {
            loopActive = true;
            loopStart = codePos;
            loopLines = 2 + uint32_t(rng.below(prm.maxLoopLines));
            loopRepsLeft = 2 + uint32_t(rng.below(prm.maxLoopReps));
        }

        s.ifetch(VaMap::textBase + codePos);
        for (uint32_t i = 0; i < instrPerLine; ++i) {
            if (!rng.chanceBelow(thDataRef))
                continue;
            const Addr a = pickDataAddr();
            const bool is_shared =
                shared_write_ok && a >= prm.sharedBase &&
                a < prm.sharedBase + prm.sharedBytes;
            if (rng.chanceBelow(is_shared ? thSharedStore
                                          : thStore))
                s.store(a);
            else
                s.load(a);
        }
        emitted += instrPerLine;

        codePos += lineBytes;
        if (loopActive) {
            if (codePos >= loopStart + Addr(loopLines) * lineBytes) {
                if (--loopRepsLeft == 0)
                    loopActive = false;
                else
                    codePos = loopStart;
            }
        } else {
            maybeJump();
        }
        if (codePos >= prm.codeBytes)
            codePos = 0;
    }
}

void
SyntheticApp::chunk(Process &p, UserScript &s)
{
    (void)p;
    emitWork(s, prm.chunkInstrs);
}

} // namespace mpos::workload
