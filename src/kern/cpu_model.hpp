/**
 * @file
 * Coarse CPU occupancy model. The evaluation machine has 24 hardware
 * threads (12 cores, HT). Simulated threads that are runnable or busy-
 * polling occupy a hardware thread; when occupants exceed the budget,
 * software costs dilate and schedulable entities pay a reschedule penalty.
 * This is what makes io_uring (which needs an extra SQPOLL thread per
 * ring) collapse past 12 application threads in Fig. 9, as in the paper.
 */

#ifndef BPD_KERN_CPU_MODEL_HPP
#define BPD_KERN_CPU_MODEL_HPP

#include "common/types.hpp"
#include "sim/logging.hpp"

namespace bpd::kern {

class CpuModel
{
  public:
    explicit CpuModel(unsigned hwThreads = 24) : hwThreads_(hwThreads) {}

    /** A simulated thread (or kernel poller) becomes a CPU occupant. */
    void acquire(unsigned n = 1) { occupants_ += n; }

    /** Occupant exits. */
    void
    release(unsigned n = 1)
    {
        sim::panicIf(occupants_ < n, "CPU release underflow");
        occupants_ -= n;
    }

    unsigned occupants() const { return occupants_; }

    /** Occupants beyond the hardware budget. */
    unsigned
    surplus() const
    {
        return occupants_ > hwThreads_ ? occupants_ - hwThreads_ : 0;
    }

    /** Software-time dilation factor under oversubscription. */
    double
    dilation() const
    {
        if (occupants_ <= hwThreads_)
            return 1.0;
        return static_cast<double>(occupants_)
               / static_cast<double>(hwThreads_);
    }

    /** Scale a software segment by the dilation factor. */
    Time
    scaled(Time t) const
    {
        return static_cast<Time>(static_cast<double>(t) * dilation());
    }

    /**
     * Extra wait for an entity that must be re-scheduled onto a CPU
     * (e.g. an io_uring submitter handing off to a poller and back).
     */
    Time
    reschedulePenalty() const
    {
        return static_cast<Time>(surplus()) * quantumNs_;
    }

  private:
    unsigned hwThreads_;
    unsigned occupants_ = 0;
    Time quantumNs_ = 1500;
};

} // namespace bpd::kern

#endif // BPD_KERN_CPU_MODEL_HPP
