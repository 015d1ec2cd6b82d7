#include "iommu/iommu.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace.hpp"
#include "sim/logging.hpp"

namespace bpd::iommu {

Iommu::Iommu(sim::EventQueue &eq, IommuProfile profile)
    : eq_(eq), profile_(profile),
      walkCache_(profile.walkCacheEntries, profile.walkCacheWays)
{
}

std::uint64_t
Iommu::wcKey(Pasid pasid, Vaddr va)
{
    // One walk-cache entry per 2 MiB region per PASID (caches the upper
    // three levels of the walk; the leaf line is never cached, Sec. 4.3).
    return (static_cast<std::uint64_t>(pasid) << 44) ^ (va >> 21);
}

void
Iommu::bindPasid(Pasid pasid, const mem::PageTable *pt)
{
    sim::panicIf(pasid == kNoPasid, "cannot bind the null PASID");
    pasidTable_[pasid] = pt;
}

void
Iommu::unbindPasid(Pasid pasid)
{
    pasidTable_.erase(pasid);
    invalidateAll(pasid);
}

TransResult
Iommu::translateVbaSync(Pasid pasid, Vaddr vba, std::uint32_t len,
                        bool isWrite, DevId requester)
{
    TransResult res;
    translateVbaInto(pasid, vba, len, isWrite, requester, res);
    return res;
}

void
Iommu::translateVbaInto(Pasid pasid, Vaddr vba, std::uint32_t len,
                        bool isWrite, DevId requester, TransResult &res)
{
    res.ok = false;
    res.fault = Fault::None;
    res.segs.clear();
    res.latency = 0;
    res.framesRead = 0;
    res.pages = 0;
    vbaTranslations_++;
    if (acct_)
        acct_->dev(requester, pasid).iommuVbaTranslations++;

    Time latency = profile_.pcieRoundTripNs + profile_.lookupNs;
    bool anyWalkCacheMiss = false;
    // Each leaf cacheline holds 8 FTEs (64 B); the timing model charges
    // per distinct line (Fig. 5). Pages are visited in ascending order,
    // so the distinct lines are exactly the changes of line number.
    std::uint64_t leafLines = 0;
    Vaddr lastLine = 0;

    auto finish = [&](Fault f) {
        res.fault = f;
        res.ok = (f == Fault::None);
        if (!res.ok) {
            res.segs.clear();
            vbaFaults_++;
            if (acct_)
                acct_->dev(requester, pasid).iommuVbaFaults++;
        }
        if (profile_.fixedVbaLatencyNs >= 0) {
            res.latency = static_cast<Time>(profile_.fixedVbaLatencyNs);
        } else {
            latency += profile_.leafFetchNs;
            if (leafLines > 1)
                latency += (leafLines - 1) * profile_.extraLineNs;
            if (anyWalkCacheMiss)
                latency += 3 * profile_.upperLevelFetchNs;
            res.latency = latency;
        }
    };

    if (len == 0)
        return finish(Fault::NotPresent);

    auto it = pasidTable_.find(pasid);
    if (it == pasidTable_.end() || it->second == nullptr)
        return finish(Fault::NoPasid);
    const mem::PageTable &pt = *it->second;

    const Vaddr end = vba + len;
    Vaddr cur = vba;
    while (cur < end) {
        const Vaddr pageVa = cur & ~static_cast<Vaddr>(kBlockBytes - 1);
        const Vaddr line = pageVa >> 15;
        if (leafLines == 0 || line != lastLine) {
            leafLines++;
            lastLine = line;
        }

        std::uint64_t dummy;
        if (!walkCache_.lookup(wcKey(pasid, pageVa), dummy)) {
            anyWalkCacheMiss = true;
            walkCache_.insert(wcKey(pasid, pageVa), 1);
        }

        const mem::PageTable::Walk w = pt.walk(pageVa);
        framesRead_ += w.framesRead;
        if (acct_)
            acct_->dev(requester, pasid).iommuPageWalkFrames
                += w.framesRead;
        res.framesRead += w.framesRead;
        if (!w.present)
            return finish(Fault::NotPresent);
        if (!mem::isFte(w.leaf))
            return finish(Fault::NotFte);
        if (isWrite && !w.writable)
            return finish(Fault::Permission);
        if (mem::fteDevId(w.leaf) != requester)
            return finish(Fault::DevIdMismatch);

        const BlockNo block = mem::fteBlock(w.leaf);
        const std::uint64_t inPage = cur - pageVa;
        const std::uint32_t segLen = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(end - cur, kBlockBytes - inPage));
        const DevAddr addr = block * kBlockBytes + inPage;

        if (!res.segs.empty()
            && res.segs.back().addr + res.segs.back().len == addr) {
            res.segs.back().len += segLen;
        } else {
            res.segs.push_back(TransSeg{addr, segLen});
        }
        res.pages++;
        cur += segLen;
    }

    finish(Fault::None);
}

void
Iommu::prefetchVba(Pasid pasid, Vaddr vba) const
{
    const auto it = pasidTable_.find(pasid);
    if (it != pasidTable_.end() && it->second != nullptr)
        it->second->prefetchLeaf(vba);
}

void
Iommu::setTracer(obs::Tracer *t)
{
    trace_ = t;
    obsTrack_ = t ? t->track("iommu") : 0;
}

void
Iommu::invalidateRange(Pasid pasid, Vaddr start, std::uint64_t len)
{
    if (trace_ && trace_->wants(obs::Level::Device)) {
        trace_->instant(obsTrack_, "iommu.invalidate_range", 0,
                        {{"pasid", static_cast<std::int64_t>(pasid)},
                         {"len", static_cast<std::int64_t>(len)}});
    }
    const Vaddr first = start >> 21;
    const Vaddr last = (start + (len ? len - 1 : 0)) >> 21;
    walkCache_.invalidateIf([=](std::uint64_t key) {
        for (Vaddr chunk = first; chunk <= last; chunk++) {
            if (key == wcKey(pasid, chunk << 21))
                return true;
        }
        return false;
    });
}

void
Iommu::invalidateAll(Pasid pasid)
{
    if (trace_ && trace_->wants(obs::Level::Device)) {
        trace_->instant(obsTrack_, "iommu.invalidate_all", 0,
                        {{"pasid", static_cast<std::int64_t>(pasid)}});
    }
    // Conservative: the key mixes PASID non-invertibly, so flush the
    // whole cache for correctness on PASID teardown.
    (void)pasid;
    walkCache_.clear();
}

std::vector<Iommu::DmaMapping>::iterator
Iommu::dmaAfter(Pasid pasid, std::uint64_t iova)
{
    return std::ranges::upper_bound(dma_, std::pair(pasid, iova), {},
                                    [](const DmaMapping &m) {
                                        return std::pair(m.pasid, m.iova);
                                    });
}

void
Iommu::mapDma(Pasid pasid, std::uint64_t iova, std::span<std::uint8_t> mem,
              bool writable)
{
    dmaEpoch_++;
    auto it = dmaAfter(pasid, iova);
    if (it != dma_.begin() && it[-1].pasid == pasid && it[-1].iova == iova)
        it[-1] = DmaMapping{pasid, writable, iova, mem};
    else
        dma_.insert(it, DmaMapping{pasid, writable, iova, mem});
}

void
Iommu::unmapDma(Pasid pasid, std::uint64_t iova)
{
    dmaEpoch_++;
    auto it = dmaAfter(pasid, iova);
    if (it != dma_.begin() && it[-1].pasid == pasid && it[-1].iova == iova)
        dma_.erase(it - 1);
}

namespace {

/** [iova, iova + len) inside @p m, if @p m allows the access. */
std::optional<std::span<std::uint8_t>>
dmaSlice(const Iommu::DmaMapping &m, std::uint64_t iova, std::uint32_t len,
         bool deviceWrites)
{
    const std::uint64_t offset = iova - m.iova;
    if (offset > m.mem.size() || len > m.mem.size() - offset)
        return std::nullopt;
    if (deviceWrites && !m.writable)
        return std::nullopt;
    return m.mem.subspan(offset, len);
}

} // namespace

std::optional<std::span<std::uint8_t>>
Iommu::resolveDma(Pasid pasid, std::uint64_t iova, std::uint32_t len,
                  bool deviceWrites, DmaMemo *memo)
{
    if (memo && memo->epoch == dmaEpoch_ && memo->m.pasid == pasid
        && iova >= memo->m.iova && iova < memo->end) {
        if (auto s = dmaSlice(memo->m, iova, len, deviceWrites))
            return s;
    }
    // The registration with the largest base <= iova, if it is this
    // PASID's: the one before it in the flat order may be another's.
    auto it = dmaAfter(pasid, iova);
    if (it == dma_.begin() || it[-1].pasid != pasid)
        return std::nullopt;
    auto s = dmaSlice(it[-1], iova, len, deviceWrites);
    if (s && memo) {
        const bool last = it == dma_.end() || it->pasid != pasid;
        *memo = DmaMemo{it[-1], last ? ~std::uint64_t{0} : it->iova,
                        dmaEpoch_};
    }
    return s;
}

} // namespace bpd::iommu
