/**
 * @file
 * Golden-trace regression tests: small deterministic scenarios whose
 * serialized traces must be byte-identical across runs and match the
 * committed golden files under tests/trace/golden/.
 *
 * Regenerate the golden files after an intentional tracepoint or
 * scenario change with:
 *
 *   KLOC_UPDATE_GOLDEN=1 ./test_trace --gtest_filter='GoldenTrace.*'
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/kloc_manager.hh"
#include "fault/fault.hh"
#include "fs/block_layer.hh"
#include "fs/device.hh"
#include "fs/journal.hh"
#include "fs/objects.hh"
#include "fs/vfs.hh"
#include "mem/placement.hh"
#include "platform/two_tier.hh"
#include "sim/machine.hh"
#include "trace/invariants.hh"
#include "workload/runner.hh"
#include "workload/thrash.hh"
#include "workload/varmail.hh"

#ifndef KLOC_TRACE_GOLDEN_DIR
#error "KLOC_TRACE_GOLDEN_DIR must point at tests/trace/golden"
#endif

namespace kloc {
namespace {

/** Full simulator stack, tracing enabled from the first allocation. */
struct TraceStack
{
    /** @param kernel_fast_first fast tier leads the kernel placement. */
    explicit TraceStack(bool kernel_fast_first)
        : machine(2, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), kloc(heap, migrator)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 256 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{80};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 10 * kGiB;
        fast = tiers.addTier(spec);
        spec.name = "slow";
        spec.capacity = 256 * kPageSize;
        spec.readLatency = Tick{300};
        spec.writeLatency = Tick{300};
        spec.readBandwidth = 2 * kGiB;
        spec.writeBandwidth = 2 * kGiB;
        slow = tiers.addTier(spec);

        const TierPreference kernel_pref =
            kernel_fast_first ? TierPreference{fast, slow}
                              : TierPreference{slow, fast};
        placement = std::make_unique<StaticPlacement>(
            kernel_pref, TierPreference{fast, slow});
        heap.setPolicy(placement.get());
        heap.setKlocInterface(true);
        kloc.setEnabled(true);
        kloc.setTierOrder({fast, slow});

        machine.tracer().setEnabled(true);
        checker = std::make_unique<InvariantChecker>(machine.tracer(),
                                                     /*strict=*/true);
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    KlocManager kloc;
    std::unique_ptr<StaticPlacement> placement;
    std::unique_ptr<InvariantChecker> checker;
    TierId fast = kInvalidTier;
    TierId slow = kInvalidTier;
};

/**
 * Scenario A: a page-cache object born on the slow tier earns active
 * LRU standing through repeated touches and is promoted to fast
 * memory on the next tracked access.
 */
std::string
runTwoTierPromotion(std::string *report)
{
    TraceStack s(/*kernel_fast_first=*/false);

    Knode *knode = s.kloc.mapKnode(1);
    EXPECT_NE(knode, nullptr);
    s.kloc.markActive(knode);

    auto obj = std::make_unique<KernelObject>(KobjKind::PageCachePage);
    EXPECT_TRUE(s.heap.allocBacking(*obj, true, knode->id));
    s.kloc.addObject(knode, obj.get());
    Frame *frame = obj->frame();
    EXPECT_EQ(frame->tier, s.slow);

    // Two touches activate the frame; the touch after that finds it
    // active on a slow tier and promotes it.
    s.lru.onAccessed(frame);
    s.lru.onAccessed(frame);
    EXPECT_TRUE(frame->onActiveList);
    s.kloc.maybePromoteOnTouch(frame, knode);
    EXPECT_EQ(frame->tier, s.fast);
    EXPECT_TRUE(frame->onActiveList);  // promotion keeps standing

    s.kloc.removeObject(obj.get());
    s.heap.freeBacking(*obj);
    s.kloc.unmapKnode(knode);

    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    *report = s.checker->report();
    return s.machine.tracer().serialize();
}

/**
 * Scenario B: journalled metadata commits (records and buffer pages
 * freed inside the commit window, after the journal write's bio), and
 * the now-cold KLOC's data frame is evicted to the slow tier.
 */
std::string
runJournalBackedEviction(std::string *report)
{
    TraceStack s(/*kernel_fast_first=*/true);
    BlockDevice device(s.machine, BlockDevice::Config{});
    BlockLayer block(s.heap, &s.kloc, device);
    Journal journal(s.heap, &s.kloc, block);

    Knode *knode = s.kloc.mapKnode(7);
    EXPECT_NE(knode, nullptr);
    s.kloc.markActive(knode);

    // A data frame belonging to the same KLOC.
    auto data = std::make_unique<KernelObject>(KobjKind::PageCachePage);
    EXPECT_TRUE(s.heap.allocBacking(*data, true, knode->id));
    s.kloc.addObject(knode, data.get());
    EXPECT_EQ(data->frame()->tier, s.fast);

    // Log enough metadata to pin two journal buffer pages, then
    // commit in the foreground (fsync style).
    journal.logMetadata(knode, true, 7, 2 * kPageSize);
    EXPECT_GT(journal.liveRecords(), 0u);
    journal.commit(/*foreground=*/true);
    EXPECT_EQ(journal.liveRecords(), 0u);
    EXPECT_EQ(journal.committedTxs(), 1u);

    // The KLOC goes cold; its surviving objects demote.
    s.kloc.markInactive(knode);
    EXPECT_GT(s.kloc.migrateKnodeObjects(knode, s.slow), 0u);
    EXPECT_EQ(data->frame()->tier, s.slow);

    journal.detachInode(7);
    s.kloc.removeObject(data.get());
    s.heap.freeBacking(*data);
    s.kloc.unmapKnode(knode);

    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    *report = s.checker->report();
    return s.machine.tracer().serialize();
}

/**
 * Scenario C: a foreground write bio hits an injected device error
 * on its first attempt, backs off, and succeeds on the retry — the
 * trace brackets the whole episode (pin, submit, fault, retry,
 * complete, unpin) and the pin balances.
 */
std::string
runDeviceErrorRetry(std::string *report)
{
    TraceStack s(/*kernel_fast_first=*/true);
    BlockDevice device(s.machine, BlockDevice::Config{});
    BlockLayer block(s.heap, &s.kloc, device);

    FaultSpec spec;
    std::string err;
    EXPECT_TRUE(FaultSpec::parse("seed 7\ndevice_write oneshot 1\n",
                                 spec, &err)) << err;
    s.machine.faults().configure(spec);

    Knode *knode = s.kloc.mapKnode(3);
    EXPECT_NE(knode, nullptr);
    s.kloc.markActive(knode);

    const IoStatus status = block.submit(knode, true, /*sector=*/4096,
                                         kPageSize, /*write=*/true,
                                         /*foreground=*/true);
    EXPECT_EQ(status, IoStatus::Ok);
    EXPECT_EQ(device.ioErrors(), 1u);
    EXPECT_EQ(block.bioRetries(), 1u);
    EXPECT_EQ(block.bioErrors(), 0u);

    s.kloc.unmapKnode(knode);

    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    EXPECT_EQ(s.checker->outstandingPins(), 0u);
    *report = s.checker->report();
    return s.machine.tracer().serialize();
}

/**
 * Scenario D: filesystem metadata churn. Files are created and
 * written in three passes, so journal records of different inodes
 * alternate in the log, and only two fsyncs commit part of it. Unlinks then
 * detach inodes while other inodes' records are still pending, a
 * readdir walks the survivors, a commit frees the transaction, and the
 * FileSystem destructor tears down the rest.
 */
std::string
runFsUnlinkReaddir(std::string *report)
{
    TraceStack s(/*kernel_fast_first=*/true);
    {
        FileSystem fs(s.heap, &s.kloc, FileSystem::Config{});
        auto name = [](int i) { return "f" + std::to_string(100 + i); };
        constexpr int files = 30;
        std::vector<int> fds;
        for (int i = 0; i < files; ++i) {
            const int fd = fs.create(name(i));
            EXPECT_GE(fd, 0);
            fs.write(fd, Bytes{}, Bytes{kPageSize});
            fds.push_back(fd);
        }
        for (int i = 0; i < files; ++i) {
            fs.write(fds[i], Bytes{kPageSize},
                     Bytes{static_cast<uint64_t>(i % 3 + 1) * 1024});
            if (i == 7 || i == 14)
                fs.fsync(fds[i]);
        }
        for (int i = 0; i < files; ++i) {
            if (i % 2 == 1)
                fs.write(fds[i], 2 * Bytes{kPageSize}, Bytes{kPageSize});
            fs.close(fds[i]);
        }
        EXPECT_GT(fs.journal().liveRecords(), 0u);

        // Unlink with other inodes' records pending: some victims
        // have records of their own in the log, some were committed.
        for (const int i : {29, 3, 22, 14, 8, 27})
            EXPECT_TRUE(fs.unlink(name(i)));
        EXPECT_GT(fs.journal().liveRecords(), 0u);

        const std::vector<std::string> names = fs.readdir();
        EXPECT_EQ(names.size(), static_cast<size_t>(files - 6));
        EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));

        fs.journal().commit(/*foreground=*/true);
        EXPECT_EQ(fs.journal().liveRecords(), 0u);
        EXPECT_TRUE(fs.unlink(name(0)));
    }

    EXPECT_TRUE(s.checker->clean()) << s.checker->report();
    *report = s.checker->report();
    return s.machine.tracer().serialize();
}

/**
 * Scenario E: the ThrashWorkload driver itself under the klocs
 * policy, at a scale where the arena is 1k pages and the fast tier
 * half that. The LruActivate order pins the sweep order and the
 * activation path of LruEngine::onAccessed; the event ticks pin every
 * per-access cost the sweep charged.
 */
std::string
runThrashWorkloadKlocs(uint64_t ops, std::string *report)
{
    constexpr unsigned kScale = 4096;
    TwoTierPlatform::Config config;
    config.scale = kScale;
    TwoTierPlatform platform(config);
    System &sys = platform.sys();
    platform.applyPolicyByName("klocs");
    sys.fs().startDaemons();
    sys.machine().tracer().setEnabled(true);
    InvariantChecker checker(sys.machine().tracer());

    WorkloadConfig wl_config;
    wl_config.scale = kScale;
    wl_config.operations = ops;
    ThrashWorkload workload(wl_config);
    const WorkloadResult result = runMeasured(sys, workload);
    EXPECT_EQ(result.operations, ops);
    EXPECT_EQ(workload.workingSetAt(0), 384u);  // 0.375 x 1024 pages

    sys.machine().tracer().setEnabled(false);
    std::string trace = sys.machine().tracer().serialize();
    workload.teardown(sys);
    EXPECT_TRUE(checker.clean()) << checker.report();
    *report = checker.report();
    return trace;
}

/**
 * Scenario F: the VarmailWorkload driver under the klocs policy,
 * small enough that the spool holds a few hundred mails. The load
 * phase and the quiesce window run as in runMeasured(); the checker
 * sees them, but the ring is cleared before the measured op loop, so
 * the golden holds only the loop. Its directory scans fill DirBuffers
 * (slab objects without a knode, so no event names them); the ticks
 * of every later event pin the dirent charge of each scan.
 */
std::string
runVarmailWorkloadKlocs(uint64_t ops, uint64_t *dir_buffers,
                        std::string *report)
{
    constexpr unsigned kScale = 4096;
    TwoTierPlatform::Config config;
    config.scale = kScale;
    TwoTierPlatform platform(config);
    System &sys = platform.sys();
    platform.applyPolicyByName("klocs");
    sys.fs().startDaemons();

    WorkloadConfig wl_config;
    wl_config.scale = kScale;
    wl_config.operations = ops;
    VarmailWorkload workload(wl_config);
    sys.machine().tracer().setEnabled(true);
    InvariantChecker checker(sys.machine().tracer());
    workload.setup(sys);
    sys.fs().syncAll();
    sys.machine().charge(kQuiesceWindow);
    sys.machine().tracer().clear();

    const KmemCache &dirents = sys.heap().cache(KobjKind::DirBuffer);
    const uint64_t allocs_before = dirents.totalAllocs();
    const WorkloadResult result = workload.run(sys);
    EXPECT_EQ(result.operations, ops);
    sys.machine().tracer().setEnabled(false);
    *dir_buffers = dirents.totalAllocs() - allocs_before;

    std::string trace = sys.machine().tracer().serialize();
    workload.teardown(sys);
    EXPECT_TRUE(checker.clean()) << checker.report();
    *report = checker.report();
    return trace;
}

/** FNV-1a over @p bytes. */
uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
goldenPath(const std::string &name)
{
    return std::string(KLOC_TRACE_GOLDEN_DIR) + "/" + name + ".trace";
}

/**
 * Compare @p trace against the committed golden file, or rewrite the
 * file when KLOC_UPDATE_GOLDEN is set in the environment.
 */
void
compareGolden(const std::string &name, const std::string &trace)
{
    const std::string path = goldenPath(name);
    if (std::getenv("KLOC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << trace;
        GTEST_LOG_(INFO) << "updated golden trace " << path;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (run with KLOC_UPDATE_GOLDEN=1 to create)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(trace, want.str())
        << "trace diverged from " << path
        << "; if the change is intentional, regenerate with "
           "KLOC_UPDATE_GOLDEN=1";
}

TEST(GoldenTrace, TwoTierPromotionDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runTwoTierPromotion(&report1);
    const std::string second = runTwoTierPromotion(&report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("two_tier_promotion", first);
}

TEST(GoldenTrace, JournalBackedEvictionDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runJournalBackedEviction(&report1);
    const std::string second = runJournalBackedEviction(&report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("journal_backed_eviction", first);
}

TEST(GoldenTrace, DeviceErrorRetryDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runDeviceErrorRetry(&report1);
    const std::string second = runDeviceErrorRetry(&report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("device_error_retry", first);
}

TEST(GoldenTrace, FsUnlinkReaddirDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runFsUnlinkReaddir(&report1);
    const std::string second = runFsUnlinkReaddir(&report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("fs_unlink_readdir", first);
}

TEST(GoldenTrace, ThrashWorkloadKlocsDeterministicAndGolden)
{
    std::string report1, report2;
    const std::string first = runThrashWorkloadKlocs(48, &report1);
    const std::string second = runThrashWorkloadKlocs(48, &report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_GT(parseTrace(first).size(), 0u);
    compareGolden("thrash_workload_klocs", first);
}

/**
 * The 48-op golden never wraps the sweep around the end of the arena
 * (the window starts at page 2 x op) and never reaches a wave crest.
 * This 3000-op run does both, with LRU scans running, so an
 * off-by-one in either wrap changes the pages touched and with them
 * the trace. It is kept as a digest rather than a file; on an
 * intentional simulation change, update the constants from the
 * failure message.
 */
TEST(GoldenTrace, ThrashWorkloadKlocsLongRunDigest)
{
    std::string report;
    const std::string trace = runThrashWorkloadKlocs(3000, &report);
    EXPECT_EQ(parseTrace(trace).size(), 3976u);
    EXPECT_EQ(fnv1a(trace), 0x3fe5071e2bde568dULL)
        << std::hex << "trace digest is 0x" << fnv1a(trace);
}

/**
 * varmail scans the spool on about 2% of ops. In 200 ops it scans
 * three times, over 259 to 274 mails, so every scan fills five
 * 64-entry DirBuffers, the last one partly.
 */
TEST(GoldenTrace, VarmailWorkloadKlocsDeterministicAndGolden)
{
    std::string report1, report2;
    uint64_t buffers1 = 0, buffers2 = 0;
    const std::string first =
        runVarmailWorkloadKlocs(200, &buffers1, &report1);
    const std::string second =
        runVarmailWorkloadKlocs(200, &buffers2, &report2);
    EXPECT_EQ(first, second) << "trace not deterministic across runs";
    EXPECT_EQ(buffers1, buffers2);
    EXPECT_EQ(buffers1, 3 * 5u);
    compareGolden("varmail_workload_klocs", first);
}

} // namespace
} // namespace kloc
