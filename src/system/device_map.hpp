/**
 * @file
 * The device map of a multi-device fleet (the tentpole of the
 * multi-device refactor).
 *
 * A DeviceMap owns N uniform DeviceSlots plus the VolumeStore that
 * concatenates their block stores into one flat volume the file system
 * is formatted over. Slot i covers volume bytes [i*slotBytes,
 * (i+1)*slotBytes); per-inode placement (homeSlotOf) pins every file's
 * data to exactly one slot, so extents never straddle devices and the
 * kernel can route each I/O segment by address.
 *
 * Slots are constructed up front and never destroyed; availability is a
 * pair of flags. "Present" tracks hot-plug (a slot the kernel has not
 * attached yet takes no placements); "evicted" is the health-driven
 * terminal state (the device fails new commands, its FTEs are revoked,
 * and placement skips it). Slot 0 is special: it holds the file-system
 * metadata region and is always present and never evictable.
 */

#ifndef BPD_SYS_DEVICE_MAP_HPP
#define BPD_SYS_DEVICE_MAP_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "iommu/iommu.hpp"
#include "sim/event_queue.hpp"
#include "ssd/device_slot.hpp"
#include "ssd/volume_store.hpp"

namespace bpd::sys {

struct DeviceMapConfig
{
    std::uint64_t slotBytes = 64ull << 30; //!< uniform per-slot capacity
    std::size_t maxDevices = 1;            //!< slots constructed
    std::size_t onlineDevices = 1;         //!< present at boot
    DevId devIdBase = 1;                   //!< slot i gets devIdBase + i; >= 1
    std::uint64_t seedBase = 42;           //!< slot i gets seedBase + i
    ssd::SsdProfile ssd;                   //!< base device profile
    iommu::IommuProfile iommu;
    /** Per-slot profile overrides (health-model injection). */
    std::map<std::size_t, ssd::SsdProfile> slotSsd;
};

class DeviceMap
{
  public:
    DeviceMap(sim::EventQueue &eq, const DeviceMapConfig &cfg);
    DeviceMap(const DeviceMap &) = delete;
    DeviceMap &operator=(const DeviceMap &) = delete;

    std::size_t size() const { return slots_.size(); }
    ssd::DeviceSlot &slot(std::size_t i) { return *slots_.at(i); }
    const ssd::DeviceSlot &slot(std::size_t i) const
    {
        return *slots_.at(i);
    }

    /** The flat volume concatenating every slot's store. */
    ssd::VolumeStore &volume() { return *volume_; }

    std::uint64_t slotBytes() const { return cfg_.slotBytes; }
    std::uint64_t slotBase(std::size_t i) const
    {
        return i * cfg_.slotBytes;
    }

    /** @name Availability */
    ///@{
    void setPresent(std::size_t i, bool p);
    bool evicted(std::size_t i) const { return slots_.at(i)->dev.evicted(); }
    ///@}

    /**
     * Home slot of an inode, pinned at first query: new inodes take the
     * next eligible (present, non-evicted) slot round-robin, and keep
     * it for life — eviction never migrates data, it only fails it.
     * Deterministic because queries happen in simulation order.
     */
    std::size_t homeSlotOf(InodeNum ino);

    /** The [lo, hi) volume-block range slot @p i's data may occupy. */
    std::pair<BlockNo, BlockNo> blockRange(std::size_t i) const;

    /** Slots that currently hold at least one pinned home (for tools). */
    const std::map<InodeNum, std::size_t> &homes() const { return home_; }

  private:
    DeviceMapConfig cfg_;
    std::vector<std::unique_ptr<ssd::DeviceSlot>> slots_;
    std::unique_ptr<ssd::VolumeStore> volume_;
    std::vector<bool> present_;
    std::map<InodeNum, std::size_t> home_;
    std::size_t rrNext_ = 0;
};

} // namespace bpd::sys

#endif // BPD_SYS_DEVICE_MAP_HPP
