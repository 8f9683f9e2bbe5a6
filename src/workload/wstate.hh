/**
 * @file
 * Workload-side snapshot serializer: the BehaviorCodec the kernel
 * calls to save and reconstruct concrete AppBehavior objects, plus
 * the Workload shared-structure save/restore it depends on.
 *
 * Every behavior serializes as a one-byte class tag, its full
 * SyntheticApp base (params, RNG, cursors, and the derived spans and
 * probability thresholds -- verbatim, because after an exec
 * transition they derive from a superseded params draw), then its
 * class-specific fields. load() reconstructs the object wired to the
 * owning Workload's shared structures, so Workload::restoreState must
 * run before Kernel::restoreState.
 */

#ifndef MPOS_WORKLOAD_WSTATE_HH
#define MPOS_WORKLOAD_WSTATE_HH

#include "workload/workload.hh"

namespace mpos::workload
{

/** Serializes the workload's concrete behavior classes. */
class StateCodec : public kernel::BehaviorCodec
{
  public:
    explicit StateCodec(Workload &workload) : wl(workload) {}

    void save(util::ByteWriter &w,
              const kernel::AppBehavior &b) const override;
    std::unique_ptr<kernel::AppBehavior>
    load(util::ByteReader &r) const override;

  private:
    /** The walk after the class tag and params: the SyntheticApp
     *  base, then the fields of the class the tag names. */
    template <class Ar>
    static void body(Ar &ar, SyntheticApp &a, uint8_t tag);

    Workload &wl;
};

} // namespace mpos::workload

#endif // MPOS_WORKLOAD_WSTATE_HH
