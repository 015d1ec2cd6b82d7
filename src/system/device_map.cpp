#include "system/device_map.hpp"

#include "sim/logging.hpp"

namespace bpd::sys {

DeviceMap::DeviceMap(sim::EventQueue &eq, const DeviceMapConfig &cfg)
    : cfg_(cfg)
{
    sim::panicIf(cfg_.maxDevices == 0, "DeviceMap needs >= 1 device");
    // DevId 0 means "no device": a tenant's device-less accounting row
    // and an unattributed replay record.
    sim::panicIf(cfg_.devIdBase == 0, "DeviceMap devIdBase must be >= 1");
    sim::panicIf(cfg_.onlineDevices == 0
                     || cfg_.onlineDevices > cfg_.maxDevices,
                 "onlineDevices out of [1, maxDevices]");
    slots_.reserve(cfg_.maxDevices);
    for (std::size_t i = 0; i < cfg_.maxDevices; i++) {
        auto prof = cfg_.slotSsd.count(i) ? cfg_.slotSsd.at(i) : cfg_.ssd;
        slots_.push_back(std::make_unique<ssd::DeviceSlot>(
            eq, cfg_.slotBytes, cfg_.iommu, prof,
            static_cast<DevId>(cfg_.devIdBase + i), cfg_.seedBase + i));
        present_.push_back(i < cfg_.onlineDevices);
    }
    std::vector<ssd::BlockStore *> stores;
    stores.reserve(slots_.size());
    for (auto &s : slots_)
        stores.push_back(&s->store);
    volume_ = std::make_unique<ssd::VolumeStore>(std::move(stores),
                                                 cfg_.slotBytes);
}

void
DeviceMap::setPresent(std::size_t i, bool p)
{
    sim::panicIf(i == 0 && !p, "slot 0 is always present");
    present_.at(i) = p;
}

std::size_t
DeviceMap::homeSlotOf(InodeNum ino)
{
    auto it = home_.find(ino);
    if (it != home_.end())
        return it->second;
    // Round-robin over eligible slots, starting after the last pick.
    // Slot 0 is always eligible, so the scan terminates.
    const std::size_t n = slots_.size();
    for (std::size_t k = 0; k < n; k++) {
        const std::size_t cand = (rrNext_ + k) % n;
        if (present_[cand] && !evicted(cand)) {
            rrNext_ = (cand + 1) % n;
            home_[ino] = cand;
            return cand;
        }
    }
    sim::panic("no eligible device slot for placement");
    return 0;
}

std::pair<BlockNo, BlockNo>
DeviceMap::blockRange(std::size_t i) const
{
    sim::panicIf(i >= slots_.size(), "blockRange: slot out of range");
    return {slotBase(i) / kBlockBytes, slotBase(i + 1) / kBlockBytes};
}

} // namespace bpd::sys
