/**
 * @file
 * One device of a multi-device fleet.
 *
 * A DeviceSlot bundles everything a single SSD brings to the machine:
 * the NVMe device model (queues + dispatch timing), its extent-backed
 * block store, and a per-device IOMMU context. Queue PASID bindings, DMA
 * registrations, and VBA translations are per-device state on real
 * hardware, so each slot gets its own Iommu instance; the kernel binds a
 * process' PASID into every slot's context so FTE translations work on
 * whichever device a file is homed.
 */

#ifndef BPD_SSD_DEVICE_SLOT_HPP
#define BPD_SSD_DEVICE_SLOT_HPP

#include <cstdint>

#include "iommu/iommu.hpp"
#include "sim/event_queue.hpp"
#include "ssd/block_store.hpp"
#include "ssd/nvme.hpp"

namespace bpd::ssd {

class DeviceSlot
{
  public:
    /**
     * @param bytes Capacity of this slot (uniform across a fleet).
     * @param devId This device's DevID, stamped into FTEs and verified
     *     by the IOMMU on every VBA translation.
     * @param seed Service-time jitter seed (distinct per slot so the
     *     fleet doesn't move in lockstep).
     */
    DeviceSlot(sim::EventQueue &eq, std::uint64_t bytes,
               const iommu::IommuProfile &iommuProfile,
               const SsdProfile &ssdProfile, DevId devId,
               std::uint64_t seed)
        : iommu(eq, iommuProfile),
          store(bytes),
          dev(eq, store, iommu, devId, ssdProfile, seed)
    {
    }
    DeviceSlot(const DeviceSlot &) = delete;
    DeviceSlot &operator=(const DeviceSlot &) = delete;

    iommu::Iommu iommu; //!< per-device IOMMU context
    BlockStore store;   //!< this device's extent block store
    NvmeDevice dev;     //!< the NVMe device model
};

} // namespace bpd::ssd

#endif // BPD_SSD_DEVICE_SLOT_HPP
