/**
 * @file
 * Workload driver tests: every Table 3 driver runs at a tiny scale,
 * produces operations and virtual time, exercises the expected
 * kernel subsystems, is deterministic for a fixed seed, and tears
 * down without leaking simulated memory.
 */

#include <gtest/gtest.h>

#include "platform/two_tier.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

namespace kloc {
namespace {

WorkloadConfig
tinyConfig()
{
    WorkloadConfig config;
    config.scale = 1024;
    config.operations = 2000;
    config.seed = 7;
    return config;
}

std::unique_ptr<TwoTierPlatform>
makePlatform()
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    auto platform = std::make_unique<TwoTierPlatform>(config);
    platform->applyPolicyByName("klocs");
    platform->sys().fs().startDaemons();
    return platform;
}

class WorkloadParam : public ::testing::TestWithParam<const char *>
{};

TEST_P(WorkloadParam, RunsAndProducesThroughput)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    auto workload = makeWorkload(GetParam(), tinyConfig());
    const WorkloadResult result = runMeasured(sys, *workload);
    EXPECT_GT(result.operations, 0u);
    EXPECT_GT(result.elapsed, 0);
    EXPECT_GT(result.throughput(), 0.0);
    workload->teardown(sys);
}

TEST_P(WorkloadParam, DeterministicForSeed)
{
    Tick elapsed[2];
    for (int i = 0; i < 2; ++i) {
        auto platform = makePlatform();
        auto workload = makeWorkload(GetParam(), tinyConfig());
        elapsed[i] = runMeasured(platform->sys(), *workload).elapsed;
        workload->teardown(platform->sys());
    }
    EXPECT_EQ(elapsed[0], elapsed[1])
        << "same seed must give bit-identical virtual time";
}

TEST_P(WorkloadParam, TeardownReleasesMemory)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    auto workload = makeWorkload(GetParam(), tinyConfig());
    runMeasured(sys, *workload);
    workload->teardown(sys);
    EXPECT_EQ(sys.heap().liveAppPages(), 0u) << "app arena leaked";
    EXPECT_EQ(sys.fs().cachedPages(), 0u) << "page cache leaked";
    EXPECT_EQ(sys.fs().liveInodes(), 0u) << "inodes leaked";
    EXPECT_EQ(sys.net().liveSockets(), 0u) << "sockets leaked";
}

INSTANTIATE_TEST_SUITE_P(Table3, WorkloadParam,
                         ::testing::Values("rocksdb", "redis", "filebench",
                                           "cassandra", "spark",
                                           "varmail", "webserver",
                                           "thrash"));

TEST(WorkloadShape, WebserverChurnsSocketKlocs)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    auto workload = makeWorkload("webserver", tinyConfig());
    runMeasured(sys, *workload);
    const KlocStats &stats = sys.kloc().stats();
    // Most requests create and destroy a whole socket KLOC.
    EXPECT_GT(stats.knodesDeleted, 500u);
    EXPECT_GT(sys.net().stats().packetsDelivered, 0u);
    EXPECT_GT(sys.fs().stats().reads, 0u);
    workload->teardown(sys);
}

TEST(WorkloadShape, VarmailChurnsKnodes)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    WorkloadConfig config = tinyConfig();
    auto workload = makeWorkload("varmail", config);
    runMeasured(sys, *workload);
    const KlocStats &stats = sys.kloc().stats();
    EXPECT_GT(stats.knodesCreated, 100u)
        << "varmail must create many KLOCs";
    EXPECT_GT(stats.knodesDeleted, 50u)
        << "varmail must delete many KLOCs";
    // Dir buffers and dentries were exercised.
    EXPECT_GT(sys.heap().objLifetimeHist(KobjKind::DirBuffer)
                  .dist()
                  .count(),
              0u);
    EXPECT_GT(sys.heap().objLifetimeHist(KobjKind::Dentry).dist().count(),
              0u);
    workload->teardown(sys);
}

TEST(WorkloadShape, RocksDbIsFilesystemIntensive)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    auto workload = makeWorkload("rocksdb", tinyConfig());
    runMeasured(sys, *workload);
    EXPECT_GT(sys.fs().stats().writes, 0u);
    EXPECT_GT(sys.fs().stats().reads, 0u);
    EXPECT_GT(sys.fs().journal().committedTxs(), 0u);
    EXPECT_GT(sys.tiers().cumulativeAllocPages(ObjClass::PageCache), 0u);
    workload->teardown(sys);
}

TEST(WorkloadShape, RedisIsNetworkIntensive)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    auto workload = makeWorkload("redis", tinyConfig());
    runMeasured(sys, *workload);
    EXPECT_GT(sys.net().stats().packetsDelivered, 0u);
    EXPECT_GT(sys.net().stats().packetsSent, 0u);
    EXPECT_GT(sys.tiers().cumulativeAllocPages(ObjClass::SockBuf), 0u);
    // ...and periodically checkpoints to disk.
    EXPECT_GT(sys.fs().stats().writes, 0u);
    workload->teardown(sys);
}

TEST(WorkloadShape, CassandraHitsItsRowCache)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    WorkloadConfig config = tinyConfig();
    auto workload = makeWorkload("cassandra", config);
    runMeasured(sys, *workload);
    // The app cache absorbs reads: user references dominate compared
    // to a pure filesystem workload's read-miss traffic.
    EXPECT_GT(sys.machine().userRefs(), 0u);
    EXPECT_GT(sys.net().stats().packetsDelivered, 0u);
    workload->teardown(sys);
}

TEST(WorkloadShape, SparkWritesAndReadsItsPartitions)
{
    auto platform = makePlatform();
    System &sys = platform->sys();
    auto workload = makeWorkload("spark", tinyConfig());
    const WorkloadResult result = runMeasured(sys, *workload);
    // generate writes + sort reads every partition.
    EXPECT_GT(sys.fs().stats().creates, 16u);
    EXPECT_GT(result.operations, 0u);
    workload->teardown(sys);
}

TEST(WorkloadShape, SmallInputShrinksFootprint)
{
    WorkloadConfig large = tinyConfig();
    WorkloadConfig small = tinyConfig();
    small.smallInput = true;

    uint64_t pages[2];
    int i = 0;
    for (const auto &config : {large, small}) {
        auto platform = makePlatform();
        System &sys = platform->sys();
        auto workload = makeWorkload("rocksdb", config);
        workload->setup(sys);
        pages[i++] =
            sys.tiers().cumulativeAllocPages(ObjClass::PageCache);
        workload->teardown(sys);
    }
    EXPECT_GT(pages[0], pages[1])
        << "Large (40GB) input must allocate more than Small (10GB)";
}

TEST(WorkloadShape, UnknownNameDies)
{
    EXPECT_DEATH(
        { makeWorkload("postgres", tinyConfig()); }, "unknown workload");
}

} // namespace
} // namespace kloc
