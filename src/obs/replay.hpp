/**
 * @file
 * Trace-driven replay: turn the replay section embedded in an
 * obs::TraceWriter file back into a live request stream and
 * re-drive it through a fresh sys::System.
 *
 * Capture writes one replay stream per traced process (see
 * obs::ReplayRec and the "replay" key in export.cpp); this module
 * parses that stream and re-issues every recorded operation with the
 * original inter-arrival gaps and dependency structure:
 *
 *  - records on the main lane (ReplayRec::kMainLane) are *barriers*:
 *    they wait for every earlier record to complete, mirroring the
 *    run-to-quiescence drains between workload phases;
 *  - records on a numbered lane form closed-loop chains per
 *    (process, lane): each record is issued when its predecessor in
 *    the chain (matched by recorded completion time, FIFO among ties
 *    so iodepth > 1 works) and the last preceding barrier are done,
 *    plus the recorded think-time gap.
 *
 * Under an identical configuration the replayed stream is
 * bit-identical to the capture: same per-record issue/complete times,
 * results, stream digest, and curated counters. This is the
 * round-trip contract CI gates on. Under a changed configuration
 * (engine override, walk-cache sizing, SSD latency) the same request
 * stream is re-driven and timing/counters diverge — that is the
 * point: a captured workload becomes a portable benchmark.
 */

#ifndef BPD_OBS_REPLAY_HPP
#define BPD_OBS_REPLAY_HPP

#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "system/system.hpp"
#include "workloads/fio.hpp"

namespace bpd::obs {

/** One process's replay stream as parsed back from a trace file. */
struct RecordedProcess
{
    std::string name;
    unsigned pid = 0;
    bool partial = false;              //!< unreplayable ops were seen
    std::vector<std::string> missing;  //!< what made it partial
    bool hasMeta = false;              //!< config/counters/digest present
    std::vector<std::pair<std::string, double>> config;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::uint64_t digest = 0;
    std::uint64_t events = 0;
    Time simNs = 0;
    std::vector<std::string> files;
    std::vector<ReplayRec> ops;
};

struct RecordedTrace
{
    std::vector<RecordedProcess> processes;
};

/**
 * Parse the "replay" section out of a Chrome-trace JSON file written
 * by obs::TraceWriter. The rest of the file is checked but not kept.
 * Returns false (with @p error set) on I/O or parse errors; a trace
 * without a replay section yields an empty process list and succeeds.
 */
bool loadRecordedTrace(const std::string &path, RecordedTrace &out,
                       std::string &error);

/**
 * Walk every numeric field of a SystemConfig with (name, ref) pairs.
 * Used by configToMap/configFromMap so capture and replay can never
 * disagree on the key set.
 */
template <typename F>
void
forEachConfigField(sys::SystemConfig &c, F &&f)
{
    f("device_bytes", c.deviceBytes);
    f("dev_id", c.devId);
    f("seed", c.seed);
    f("max_devices", c.maxDevices);
    f("online_devices", c.onlineDevices);
    f("health_monitor", c.healthMonitor);
    f("evict_after_media_errors", c.evictAfterMediaErrors);

    f("ssd_read_base_ns", c.ssd.readBaseNs);
    f("ssd_write_base_ns", c.ssd.writeBaseNs);
    f("ssd_read_bw_bytes_per_ns", c.ssd.readBwBytesPerNs);
    f("ssd_write_bw_bytes_per_ns", c.ssd.writeBwBytesPerNs);
    f("ssd_units", c.ssd.units);
    f("ssd_cmd_fetch_ns", c.ssd.cmdFetchNs);
    f("ssd_flush_ns", c.ssd.flushNs);
    f("ssd_jitter_sigma", c.ssd.jitterSigma);
    f("ssd_max_queue_depth", c.ssd.maxQueueDepth);
    f("ssd_media_error_every", c.ssd.mediaErrorEvery);
    f("ssd_degrade_after_ops", c.ssd.degradeAfterOps);
    f("ssd_degrade_latency_ns", c.ssd.degradeLatencyNs);

    f("iommu_pcie_round_trip_ns", c.iommu.pcieRoundTripNs);
    f("iommu_lookup_ns", c.iommu.lookupNs);
    f("iommu_leaf_fetch_ns", c.iommu.leafFetchNs);
    f("iommu_extra_line_ns", c.iommu.extraLineNs);
    f("iommu_upper_level_fetch_ns", c.iommu.upperLevelFetchNs);
    f("iommu_walk_cache_entries", c.iommu.walkCacheEntries);
    f("iommu_walk_cache_ways", c.iommu.walkCacheWays);
    f("iommu_fixed_vba_latency_ns", c.iommu.fixedVbaLatencyNs);

    f("cost_user_to_kernel_ns", c.costs.userToKernelNs);
    f("cost_kernel_to_user_ns", c.costs.kernelToUserNs);
    f("cost_vfs_ext4_ns", c.costs.vfsExt4Ns);
    f("cost_block_layer_ns", c.costs.blockLayerNs);
    f("cost_nvme_driver_ns", c.costs.nvmeDriverNs);
    f("cost_vfs_per_block_ns", c.costs.vfsPerBlockNs);
    f("cost_page_cache_lookup_ns", c.costs.pageCacheLookupNs);
    f("cost_vfs_buffered_ns", c.costs.vfsBufferedNs);
    f("cost_copy_bw_bytes_per_ns", c.costs.copyBwBytesPerNs);
    f("cost_alloc_per_extent_ns", c.costs.allocPerExtentNs);
    f("cost_aio_extra_ns", c.costs.aioExtraNs);
    f("cost_uring_user_submit_ns", c.costs.uringUserSubmitNs);
    f("cost_uring_poll_interval_ns", c.costs.uringPollIntervalNs);
    f("cost_uring_vfs_factor", c.costs.uringVfsFactor);
    f("cost_uring_user_reap_ns", c.costs.uringUserReapNs);
    f("cost_userlib_submit_ns", c.costs.userlibSubmitNs);
    f("cost_userlib_complete_ns", c.costs.userlibCompleteNs);
    f("cost_fmap_syscall_ns", c.costs.fmapSyscallNs);
    f("cost_fmap_attach_per_pmd_ns", c.costs.fmapAttachPerPmdNs);
    f("cost_fmap_build_per_fte_ns", c.costs.fmapBuildPerFteNs);
    f("cost_fmap_extent_lookup_ns", c.costs.fmapExtentLookupNs);
    f("cost_fmap_meta_io_ns", c.costs.fmapMetaIoNs);
    f("cost_open_base_ns", c.costs.openBaseNs);
    f("cost_fsync_meta_ns", c.costs.fsyncMetaNs);
    f("cost_interrupt_ns", c.costs.interruptNs);

    f("kern_page_cache_bytes", c.kernel.pageCacheBytes);
    f("kern_queue_depth", c.kernel.kernelQueueDepth);
    f("kern_hw_threads", c.kernel.hwThreads);

    f("fs_first_data_block", c.fs.firstDataBlock);
    f("fs_zero_new_blocks", c.fs.zeroNewBlocks);

    f("userlib_queue_depth", c.userlib.queueDepth);
    f("userlib_dma_buf_bytes", c.userlib.dmaBufBytes);
    f("userlib_optimized_append", c.userlib.optimizedAppend);
    f("userlib_append_prealloc_bytes", c.userlib.appendPreallocBytes);
    f("userlib_non_blocking_writes", c.userlib.nonBlockingWrites);
}

/** Flatten a SystemConfig into (key, number) pairs; round-trips. */
inline std::vector<std::pair<std::string, double>>
configToMap(const sys::SystemConfig &cfg)
{
    std::vector<std::pair<std::string, double>> out;
    sys::SystemConfig c = cfg;
    forEachConfigField(c, [&out](const char *name, auto &v) {
        out.emplace_back(name, static_cast<double>(v));
    });
    return out;
}

/** Rebuild a SystemConfig from a flat map (unknown keys ignored). */
inline sys::SystemConfig
configFromMap(const std::vector<std::pair<std::string, double>> &kv)
{
    sys::SystemConfig c;
    forEachConfigField(c, [&kv](const char *name, auto &v) {
        for (const auto &[k, d] : kv) {
            if (k == name) {
                v = static_cast<std::decay_t<decltype(v)>>(d);
                return;
            }
        }
    });
    return c;
}

/**
 * Counter set the round-trip gate compares (the perf_harness
 * fillCounters set). Pulled straight from the component accessors —
 * no tracer needed on the replay side.
 */
inline std::vector<std::pair<std::string, std::uint64_t>>
curatedCounters(sys::System &s)
{
    // Hardware-side counters fold across every fleet slot; on a
    // single-device system the fold equals the classic slot-0 values,
    // so old captures compare bit-identically.
    std::uint64_t wcMisses = 0, frames = 0, vba = 0, devOps = 0;
    for (std::size_t i = 0; i < s.devices.size(); i++) {
        const iommu::Iommu &mmu = s.devices.slot(i).iommu;
        wcMisses += mmu.walkCache().misses();
        frames += mmu.framesRead();
        vba += mmu.vbaTranslations();
        devOps += s.devices.slot(i).dev.totalOps();
    }
    return {
        {"walk_cache_misses", wcMisses},
        {"page_walk_frames", frames},
        {"journal_commits", s.ext4.journal().committedTxns()},
        {"syscalls", s.kernel.syscallCount()},
        {"vba_translations", vba},
        {"device_ops", devOps},
    };
}

/** Knobs for re-driving a stream under a different configuration. */
struct ReplayOptions
{
    /** Data-path engine override (a wl::Engine value; -1 = recorded). */
    int engine = -1;
    /** Replay only lanes < N (0 = all); CPU occupancy capped to N. */
    std::uint32_t lanes = 0;
    std::int64_t walkCacheEntries = -1;
    std::int64_t ssdReadNs = -1;  //!< SSD read base latency override
    std::int64_t ssdWriteNs = -1; //!< SSD write base latency override
    /**
     * Refuse instead of approximate when mapping a file capture onto
     * the raw SPDK path: fsync records (normally replayed as a no-op
     * barrier) become a hard error.
     */
    bool strict = false;

    bool
    overridesConfig() const
    {
        return engine >= 0 || lanes != 0 || walkCacheEntries >= 0
               || ssdReadNs >= 0 || ssdWriteNs >= 0;
    }
};

/**
 * Per-lane issue-time drift between the recorded and the replayed
 * stream (trace_replay --drift). Zero drift everywhere under an
 * identical configuration is the round-trip contract; under overrides
 * the drift shows where the re-driven timeline diverged.
 */
struct LaneDrift
{
    std::uint32_t proc = 0;
    std::uint32_t lane = 0; //!< ReplayRec::kMainLane for the main lane
    std::uint64_t ops = 0;  //!< records on this (proc, lane)
    double meanAbsNs = 0.0; //!< mean |replayed issue - recorded issue|
    Time maxAbsNs = 0;      //!< worst single-record issue drift
};

/**
 * One recorded file laid out as a contiguous raw device region for
 * SPDK-target replay (trace_replay --engine spdk). Regions are
 * assigned by a deterministic first-touch allocator: files get
 * extent-aligned (ssd::BlockStore::kExtentBytes) slabs in the order
 * the stream first references them, starting past any raw addresses
 * already present in the capture. Two loads of the same trace always
 * produce the same table.
 */
struct RegionMapEntry
{
    std::uint32_t file = 0;  //!< index into RecordedProcess::files
    std::string path;        //!< recorded file name
    DevAddr base = 0;        //!< region start (device byte address)
    std::uint64_t bytes = 0; //!< extent-aligned region size
    std::uint64_t ops = 0;   //!< data ops rewritten into this region
};

struct ReplayResult
{
    std::uint64_t digest = 0; //!< replayDigest of the replayed stream
    std::uint64_t events = 0; //!< EventQueue::executed() after replay
    Time simNs = 0;
    std::uint64_t ops = 0;   //!< data (read/write/fsync) ops replayed
    std::uint64_t bytes = 0;
    sim::Histogram latency;  //!< per-data-op replay latency
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> config; //!< as applied
    std::vector<LaneDrift> laneDrift; //!< sorted by (proc, lane)
    std::vector<RegionMapEntry> regionMap; //!< SPDK target only
};

/**
 * Re-drive one recorded process stream on a fresh System. Returns
 * false (with @p error set) for unreplayable inputs: partial traces,
 * empty streams, raw-address records under a non-SPDK engine
 * override, or file streams whose ops depend on fs semantics with no
 * raw equivalent when SPDK is the target (see DESIGN.md §10,
 * "Raw-region mapping").
 */
bool replayRun(const RecordedProcess &rec, const ReplayOptions &opt,
               ReplayResult &out, std::string &error);

} // namespace bpd::obs

#endif // BPD_OBS_REPLAY_HPP
