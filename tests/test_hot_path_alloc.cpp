/**
 * @file
 * Allocation-free command path, as a test: this binary replaces global
 * operator new with a counting version and asserts that steady-state
 * 4 KiB I/O performs ZERO heap allocations — from the engine call
 * through the NVMe model (dispatcher table, SQ ring, MediaJob slab) and
 * the IOMMU walk back to the caller's callback — on the BypassD direct
 * path (read and overwrite) and the SPDK baseline. Kept as its own
 * executable (bpd_hot_path_alloc_tests), like bpd_obs_alloc_tests, so
 * the counting allocator cannot interfere with the main suite.
 *
 * Every caller callback here captures at most 16 bytes, which
 * std::function stores in place, so each allocation counted belongs to
 * the simulator itself.
 */

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "spdk/spdk.hpp"
#include "tests/helpers.hpp"

static std::atomic<std::uint64_t> g_allocCount{0};

void *
operator new(std::size_t n)
{
    g_allocCount.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace bpd;

namespace {

/** Ops that grow every pool (event slab, tables, rings) to size. */
constexpr int kWarmOps = 256;
/** Steady-state ops measured. */
constexpr int kOps = 2000;

/**
 * Allocations made by @p op (one complete I/O, driven to quiescence)
 * over kOps steady-state calls, after kWarmOps warm-up calls.
 */
template <typename Op>
std::uint64_t
allocationsPerRun(Op op)
{
    for (int i = 0; i < kWarmOps; i++)
        op(i);
    const std::uint64_t before = g_allocCount.load();
    for (int i = 0; i < kOps; i++)
        op(i);
    return g_allocCount.load() - before;
}

/** A machine with one process holding a 1 MiB file open via BypassD. */
struct BypassdFile
{
    sys::System s{test::smallConfig()};
    kern::Process &p = s.newProcess();
    bypassd::UserLib &lib = s.userLib(p);
    int fd = -1;

    BypassdFile()
    {
        sim::setVerbose(false);
        // A kernel-interface open would keep the file off the direct
        // path, so the set-up fd is closed first.
        const int kfd = s.kernel.setupCreateFile(p, "/f", 1 << 20, 7);
        s.kernel.sysClose(p, kfd, [](int) {});
        s.run();
        fd = test::ulOpen(s, lib, "/f", fs::kOpenRead | fs::kOpenWrite);
        lib.prepareThread(0);
    }
};

} // namespace

TEST(HotPathAlloc, PanicIfWithLiteralDoesNotAllocate)
{
    // volatile: the check must really be evaluated each time.
    volatile bool failing = false;
    const std::uint64_t before = g_allocCount.load();
    for (int i = 0; i < kOps; i++)
        sim::panicIf(failing, "a message longer than the SSO buffer");
    EXPECT_EQ(g_allocCount.load() - before, 0u);
}

TEST(HotPathAlloc, BypassdDirectPreadAllocatesNothing)
{
    BypassdFile f;
    ASSERT_GE(f.fd, 0);
    ASSERT_TRUE(f.lib.isDirect(f.fd));
    std::vector<std::uint8_t> buf(4096);
    long long bad = 0;
    const std::uint64_t allocs = allocationsPerRun([&](int i) {
        f.lib.pread(0, f.fd, buf, static_cast<std::uint64_t>(i % 256) * 4096,
                    [&bad](long long n, kern::IoTrace) {
                        bad += n != 4096;
                    });
        f.s.run();
    });
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(f.lib.directReads(),
              static_cast<std::uint64_t>(kWarmOps + kOps));
    EXPECT_EQ(allocs, 0u) << "heap allocations across " << kOps
                          << " steady-state 4 KiB direct reads";
}

TEST(HotPathAlloc, BypassdDirectOverwriteAllocatesNothing)
{
    BypassdFile f;
    ASSERT_TRUE(f.lib.isDirect(f.fd));
    const std::vector<std::uint8_t> data = test::pattern(4096, 3);
    long long bad = 0;
    const std::uint64_t allocs = allocationsPerRun([&](int i) {
        f.lib.pwrite(0, f.fd, data,
                     static_cast<std::uint64_t>(i % 256) * 4096,
                     [&bad](long long n, kern::IoTrace) {
                         bad += n != 4096;
                     });
        f.s.run();
    });
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(f.lib.directWrites(),
              static_cast<std::uint64_t>(kWarmOps + kOps));
    EXPECT_EQ(allocs, 0u) << "heap allocations across " << kOps
                          << " steady-state 4 KiB direct overwrites";
}

TEST(HotPathAlloc, SpdkReadAllocatesNothing)
{
    sim::setVerbose(false);
    sys::System s(test::smallConfig());
    kern::Process &p = s.newProcess();
    spdk::SpdkDriver drv(s.eq, s.dev, s.kernel.cpu(), p.pasid());
    ASSERT_TRUE(drv.init());
    std::vector<std::uint8_t> buf(4096);
    long long bad = 0;
    const std::uint64_t allocs = allocationsPerRun([&](int i) {
        drv.read(0, static_cast<DevAddr>(i % 256) * 4096, buf,
                 [&bad](long long n, kern::IoTrace) { bad += n != 4096; });
        s.run();
    });
    EXPECT_EQ(bad, 0);
    EXPECT_EQ(allocs, 0u) << "heap allocations across " << kOps
                          << " steady-state 4 KiB SPDK reads";
    drv.shutdown();
    s.run();
}
