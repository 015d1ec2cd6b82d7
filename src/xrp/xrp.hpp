/**
 * @file
 * XRP-like baseline [Zhong et al., OSDI'22]: user-defined storage
 * functions (BPF programs) run from a hook in the kernel NVMe driver.
 * A chained lookup (e.g. a B-tree traversal) enters the kernel once;
 * subsequent dependent I/Os are resubmitted directly from the driver,
 * skipping the VFS/file-system/block layers. XRP only helps when I/Os
 * chain back-to-back and the on-disk layout is fixed (Section 7).
 */

#ifndef BPD_XRP_XRP_HPP
#define BPD_XRP_XRP_HPP

#include <functional>
#include <optional>
#include <span>

#include "kern/kernel.hpp"

namespace bpd::xrp {

struct XrpCosts
{
    Time bpfExecNs = 300;     //!< verify + run the BPF program per hop
    Time resubmitNs = 220;    //!< driver-level resubmission (no stack)
};

/** One step of a chained lookup. */
struct Hop
{
    std::uint64_t off;
    std::uint32_t len;
};

/**
 * The BPF program: inspects a fetched block and either returns the next
 * hop or ends the chain. @p hopIdx counts from 0.
 */
using ChainFn = std::function<std::optional<Hop>(
    std::span<const std::uint8_t> block, unsigned hopIdx)>;

class XrpEngine
{
  public:
    explicit XrpEngine(kern::Kernel &k, XrpCosts costs = {})
        : k_(k), costs_(costs)
    {
    }

    /**
     * Run a chained lookup on @p fd starting at @p first.
     * @param cb Fires at completion with the hop count (or negative
     *           status) and the time attribution.
     */
    void lookup(kern::Process &p, int fd, Hop first, ChainFn chain,
                kern::IoCb cb);

  private:
    void doHop(fs::Inode &ino, Hop hop, unsigned hopIdx, ChainFn chain,
               Time start, kern::Request req);

    kern::Kernel &k_;
    XrpCosts costs_;
};

} // namespace bpd::xrp

#endif // BPD_XRP_XRP_HPP
