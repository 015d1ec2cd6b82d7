#include "xrp/xrp.hpp"

#include <memory>
#include <vector>

#include "sim/logging.hpp"

namespace bpd::xrp {

void
XrpEngine::lookup(kern::Process &p, int fd, Hop first, ChainFn chain,
                  kern::IoCb cb)
{
    kern::OpenFile *of = p.file(fd);
    if (!of || !(of->flags & fs::kOpenRead)
        || !(of->flags & fs::kOpenDirect)) {
        // XRP requires O_DIRECT (fixed on-disk layout, no page cache).
        k_.eq().after(k_.costs().userToKernelNs, [cb = std::move(cb)]() {
            cb(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
        });
        return;
    }
    fs::Inode *ino = k_.vfs().fs().inode(of->ino);
    sim::panicIf(ino == nullptr, "XRP on dead inode");
    lookups_++;

    // One full kernel entry for the first I/O (switch + thin setup +
    // block layer + driver); later hops resubmit from the driver.
    const Time start = k_.eq().now();
    const kern::CostModel &c = k_.costs();
    const Time entry = k_.cpu().scaled(
        c.userToKernelNs + c.vfsCost(first.len) + c.blockLayerNs
        + c.nvmeDriverNs);
    const TenantId tenant = p.pasid();
    k_.eq().after(entry, [this, ino, first, chain = std::move(chain),
                          start, tenant, cb = std::move(cb)]() mutable {
        doHop(*ino, first, 0, std::move(chain), start, tenant,
              std::move(cb));
    });
}

void
XrpEngine::doHop(fs::Inode &ino, Hop hop, unsigned hopIdx, ChainFn chain,
                 Time start, TenantId tenant, kern::IoCb cb)
{
    hops_++;
    // Clip at EOF.
    if (hop.off >= ino.size) {
        const Time exit = k_.cpu().scaled(k_.costs().kernelToUserNs);
        k_.eq().after(exit, [this, hopIdx, start, cb = std::move(cb)]() {
            kern::IoTrace tr;
            tr.kernelNs = k_.eq().now() - start;
            cb(static_cast<long long>(hopIdx), tr);
        });
        return;
    }
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(hop.len, ino.size - hop.off));

    std::vector<fs::Seg> segs;
    fs::FsStatus st = k_.vfs().fs().mapRange(ino, hop.off, len, &segs);
    if (st != fs::FsStatus::Ok) {
        const Time exit = k_.cpu().scaled(k_.costs().kernelToUserNs);
        k_.eq().after(exit, [st, cb = std::move(cb)]() {
            cb(kern::errOf(st), kern::IoTrace{});
        });
        return;
    }

    auto block = std::make_shared<std::vector<std::uint8_t>>(len, 0);
    // Every hop is billed to and QoS-gated as the calling process.
    k_.deviceIo(
        ssd::Op::Read, std::move(segs),
        std::span<std::uint8_t>(block->data(), block->size()),
        [this, &ino, block, hopIdx, chain = std::move(chain), start, tenant,
         cb = std::move(cb)](ssd::Status dst, Time devNs) mutable {
            (void)devNs;
            if (dst != ssd::Status::Success) {
                cb(kern::errOf(fs::FsStatus::Inval), kern::IoTrace{});
                return;
            }
            // Run the BPF program in the driver context.
            const Time bpf = k_.cpu().scaled(costs_.bpfExecNs);
            k_.eq().after(bpf, [this, &ino, block, hopIdx,
                                chain = std::move(chain), start, tenant,
                                cb = std::move(cb)]() mutable {
                std::optional<Hop> next = chain(
                    std::span<const std::uint8_t>(block->data(),
                                                  block->size()),
                    hopIdx);
                if (!next) {
                    const Time exit
                        = k_.cpu().scaled(k_.costs().kernelToUserNs);
                    k_.eq().after(exit, [this, hopIdx, start,
                                         cb = std::move(cb)]() {
                        kern::IoTrace tr;
                        tr.kernelNs = k_.eq().now() - start;
                        cb(static_cast<long long>(hopIdx) + 1, tr);
                    });
                    return;
                }
                // Driver-level resubmission: no VFS/block-layer costs.
                const Time resubmit
                    = k_.cpu().scaled(costs_.resubmitNs);
                k_.eq().after(resubmit, [this, &ino, next, hopIdx,
                                         chain = std::move(chain), start,
                                         tenant,
                                         cb = std::move(cb)]() mutable {
                    doHop(ino, *next, hopIdx + 1, std::move(chain),
                          start, tenant, std::move(cb));
                });
            });
        },
        0, tenant);
}

} // namespace bpd::xrp
