#include "vmm/vmm.hpp"

#include <cstring>

#include "sim/logging.hpp"

namespace bpd::vmm {

VmGuest::VmGuest(sys::System &host, DevAddr base, std::uint64_t bytes,
                 Pasid pasid)
    : host_(host), base_(base), bytes_(bytes), pasid_(pasid)
{
    guestPt_ = std::make_unique<mem::PageTable>(host_.frames);
    host_.iommu.bindPasid(pasid_, guestPt_.get());
    qp_ = host_.dev.createVfQueuePair(pasid_, 256, /*vbaMode=*/true,
                                      base_, bytes_);
    sim::panicIf(qp_ == nullptr, "VF queue creation failed");
    host_.iommu.mapDma(pasid_, 0x9000000, dmaBuf_.span(), true);
}

Vaddr
VmGuest::fmapGuestBlocks(BlockNo guestStart, std::uint64_t blocks,
                         bool writable)
{
    sim::panicIf((guestStart + blocks) * kBlockBytes > bytes_,
                 "guest mapping exceeds partition");
    const Vaddr vba = nextVba_;
    nextVba_ += ((blocks * kBlockBytes + mem::kPmdSpan - 1)
                 & ~(mem::kPmdSpan - 1))
                + mem::kPmdSpan;
    for (std::uint64_t i = 0; i < blocks; i++) {
        // Guest FTEs hold GUEST block numbers; the VF window supplies
        // the second (nested) translation step.
        guestPt_->set(vba + i * kBlockBytes,
                      mem::makeFte(guestStart + i, host_.dev.devId(),
                                   writable));
    }
    return vba;
}

void
VmGuest::read(Vaddr vba, std::span<std::uint8_t> buf, std::uint64_t off,
              kern::IoCb cb)
{
    ssd::Command cmd;
    cmd.op = ssd::Op::Read;
    cmd.addr = vba + off;
    cmd.addrIsVba = true;
    cmd.len = static_cast<std::uint32_t>(buf.size());
    cmd.dmaIova = 0x9000000;
    cmd.useIova = true;
    const Time start = host_.eq.now();
    const bool ok = qp_->submit(
        cmd, [this, buf, start, cb = std::move(cb)](
                 const ssd::Completion &comp) {
            kern::IoTrace tr;
            tr.deviceNs = comp.completeTime - start;
            tr.translateNs = comp.translateNs;
            if (comp.status != ssd::Status::Success) {
                cb(kern::errOf(fs::FsStatus::Access), tr);
                return;
            }
            std::memcpy(buf.data(), dmaBuf_.data(), buf.size());
            cb(static_cast<long long>(buf.size()), tr);
        });
    sim::panicIf(!ok, "VF queue overflow");
}

void
VmGuest::write(Vaddr vba, std::span<const std::uint8_t> buf,
               std::uint64_t off, kern::IoCb cb)
{
    std::memcpy(dmaBuf_.data(), buf.data(), buf.size());
    ssd::Command cmd;
    cmd.op = ssd::Op::Write;
    cmd.addr = vba + off;
    cmd.addrIsVba = true;
    cmd.len = static_cast<std::uint32_t>(buf.size());
    cmd.dmaIova = 0x9000000;
    cmd.useIova = true;
    const Time start = host_.eq.now();
    const bool ok = qp_->submit(
        cmd, [start, n = buf.size(), cb = std::move(cb)](
                 const ssd::Completion &comp) {
            kern::IoTrace tr;
            tr.deviceNs = comp.completeTime - start;
            if (comp.status != ssd::Status::Success) {
                cb(kern::errOf(fs::FsStatus::Access), tr);
                return;
            }
            cb(static_cast<long long>(n), tr);
        });
    sim::panicIf(!ok, "VF queue overflow");
}

void
VmGuest::submitRaw(const ssd::Command &cmd, ssd::CompletionFn fn)
{
    sim::panicIf(!qp_->submit(cmd, std::move(fn)),
                 "VF queue overflow");
}

VmmManager::VmmManager(sys::System &host)
    : host_(host)
{
    // Partitions start in the upper half of the device, away from the
    // host file system's allocations.
    nextBase_ = host_.cfg.deviceBytes / 2;
}

VmmManager::~VmmManager()
{
    for (auto &vm : vms_) {
        host_.dev.destroyQueuePair(vm->qp_->qid());
        host_.iommu.unmapDma(vm->guestPasid(), 0x9000000);
        host_.iommu.unbindPasid(vm->guestPasid());
    }
}

VmGuest *
VmmManager::createVm(std::uint64_t bytes)
{
    bytes = (bytes + kBlockBytes - 1) & ~(kBlockBytes - 1);
    if (nextBase_ + bytes > host_.cfg.deviceBytes)
        return nullptr;
    auto vm = std::unique_ptr<VmGuest>(
        new VmGuest(host_, nextBase_, bytes, nextGuestPasid_++));
    nextBase_ += bytes;
    VmGuest *raw = vm.get();
    vms_.push_back(std::move(vm));
    return raw;
}

} // namespace bpd::vmm
