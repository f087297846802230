/**
 * @file
 * Functional-unit pool.
 *
 * Tracks per-unit busy-until cycles so that partially pipelined operations
 * (integer multiply, divides) block their unit for several cycles, as on
 * the real FXU/FPU — one of the effects that keeps cpu_int's ST IPC near 1
 * despite two fixed-point units.
 */

#ifndef P5SIM_CORE_FU_POOL_HH
#define P5SIM_CORE_FU_POOL_HH

#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "isa/op_class.hh"

namespace p5 {

/** Pool of functional units, grouped by FuClass. */
class FuPool
{
  public:
    /** @param counts units per FuClass (index by FuClass). */
    explicit FuPool(const int counts[static_cast<int>(
        FuClass::NumFuClasses)]);

    /**
     * Try to acquire a unit of class @p fc at cycle @p now, holding it
     * for @p occupancy cycles.
     *
     * @return true on success. FuClass::None always succeeds (nops do
     *         not occupy a unit).
     */
    bool tryAcquire(FuClass fc, Cycle now, int occupancy);

    /** Free units of class @p fc at cycle @p now. */
    int freeUnits(FuClass fc, Cycle now) const;

    /**
     * Earliest cycle at which a unit of class @p fc is (or becomes)
     * free: @p now itself when one is already free, never_cycle when
     * the class has no units at all. Fast-forward next-event contract:
     * freeUnits(fc, c) == 0 for all c in [now, nextFreeCycle(fc, now)).
     */
    Cycle nextFreeCycle(FuClass fc, Cycle now) const;

    int unitCount(FuClass fc) const;

    /** Release every unit (used between experiment runs). */
    void reset();

    std::uint64_t
    acquisitions(FuClass fc) const
    {
        return acquisitions_[static_cast<int>(fc)].value();
    }

    void registerStats(StatGroup &group) const;

    /**
     * Checkpoint field walk (ckpt_state.cc): per-unit busy-until cycles
     * and counters; restore checks the unit counts.
     */
    template <class Ar> void ckptFields(Ar &ar);

  private:
    std::vector<Cycle> busyUntil_[static_cast<int>(FuClass::NumFuClasses)];
    Counter acquisitions_[static_cast<int>(FuClass::NumFuClasses)];
};

} // namespace p5

#endif // P5SIM_CORE_FU_POOL_HH
