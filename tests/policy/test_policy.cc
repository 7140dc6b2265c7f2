/**
 * @file
 * Policy tests: placement preferences and install() side effects of
 * every Table 5 row, scan-driven migration, and the AutoNUMA
 * family for the Optane platform.
 */

#include <gtest/gtest.h>

#include <string>

#include "platform/optane.hh"
#include "platform/two_tier.hh"
#include "policy/autonuma.hh"

namespace kloc {
namespace {

class StrategyTest : public ::testing::Test
{
  protected:
    StrategyTest() { reset(); }

    /** A fresh tiny platform (scale 1:1024, fast tests). */
    void
    reset()
    {
        TwoTierPlatform::Config config;
        config.scale = 1024;
        platform = std::make_unique<TwoTierPlatform>(config);
    }

    /** @p pref spelled as tier initials, e.g. "FS" for fast-first. */
    std::string
    spell(const TierPreference &pref) const
    {
        std::string out;
        for (const TierId tier : pref)
            out += tier == platform->fastTier() ? 'F' : 'S';
        return out;
    }

    /** Apply Table 5 row @p name and check it against kTable5. */
    void expectRow(const std::string &name);

    std::unique_ptr<TwoTierPlatform> platform;
};

/** What one Table 5 row must look like once applied. */
struct Table5Expectation
{
    const char *name;
    const char *pageCacheActive;    ///< kernel, PageCache, knode active
    const char *pageCacheInactive;  ///< kernel, PageCache, knode idle
    const char *klocMeta;           ///< kernel, KlocMeta
    const char *app;
    bool kloc;  ///< KLOC runtime, heap interface and early demux on
    unsigned parallelism;
};

// §3.2: prior art (nimble) starts kernel objects slow; KLOC keeps its
// metadata fast and follows knode hotness (§4.2.2).
const Table5Expectation kTable5[] = {
    {"all_fast", "F", "F", "F", "F", false, 1},
    {"all_slow", "S", "S", "S", "S", false, 1},
    {"naive", "FS", "FS", "FS", "FS", false, 1},
    {"autonuma", "FS", "FS", "FS", "FS", false, 1},
    {"nimble", "SF", "SF", "SF", "FS", false, 8},
    {"nimble++", "FS", "FS", "FS", "FS", false, 8},
    {"klocs_nomigration", "FS", "SF", "FS", "FS", true, 8},
    {"klocs", "FS", "SF", "FS", "FS", true, 8},
};

void
StrategyTest::expectRow(const std::string &name)
{
    SCOPED_TRACE(name);
    const Table5Expectation *row = nullptr;
    for (const Table5Expectation &candidate : kTable5) {
        if (name == candidate.name)
            row = &candidate;
    }
    ASSERT_NE(row, nullptr) << "no Table 5 expectation for " << name;
    reset();
    Policy &policy = platform->applyPolicyByName(name);
    EXPECT_EQ(spell(policy.kernelPreference(ObjClass::PageCache, true)),
              row->pageCacheActive);
    EXPECT_EQ(spell(policy.kernelPreference(ObjClass::PageCache, false)),
              row->pageCacheInactive);
    EXPECT_EQ(spell(policy.kernelPreference(ObjClass::KlocMeta, false)),
              row->klocMeta);
    EXPECT_EQ(spell(policy.appPreference()), row->app);
    System &sys = platform->sys();
    EXPECT_EQ(sys.kloc().enabled(), row->kloc);
    EXPECT_EQ(sys.heap().klocInterface(), row->kloc);
    EXPECT_EQ(sys.net().earlyDemux(), row->kloc);
    EXPECT_EQ(sys.migrator().parallelism(), row->parallelism);
}

TEST_F(StrategyTest, EveryTable5Row)
{
    for (const Table5Expectation &row : kTable5)
        expectRow(row.name);
}

TEST_F(StrategyTest, AllFastAllSlowAreStatic)
{
    expectRow("all_fast");
    expectRow("all_slow");
}

TEST_F(StrategyTest, NaiveIsGreedyFastFirst)
{
    expectRow("naive");
}

TEST_F(StrategyTest, NimblePutsKernelObjectsInSlow)
{
    expectRow("nimble");
}

TEST_F(StrategyTest, KlocFollowsKnodeHotness)
{
    expectRow("klocs");
    expectRow("klocs_nomigration");
}

TEST_F(StrategyTest, InstallTogglesKlocMachinery)
{
    platform->applyPolicyByName("klocs");
    EXPECT_TRUE(platform->sys().kloc().enabled());
    EXPECT_TRUE(platform->sys().heap().klocInterface());
    EXPECT_TRUE(platform->sys().net().earlyDemux());

    platform->applyPolicyByName("nimble");
    EXPECT_FALSE(platform->sys().kloc().enabled());
    EXPECT_FALSE(platform->sys().heap().klocInterface());
    EXPECT_FALSE(platform->sys().net().earlyDemux());
}

TEST_F(StrategyTest, UnmanagedClassPinnedFastUnderKloc)
{
    Policy &policy = platform->applyPolicyByName("klocs");
    platform->sys().kloc().setManagedClasses(
        ~(1u << static_cast<unsigned>(ObjClass::Journal)));
    const auto pref =
        policy.kernelPreference(ObjClass::Journal, /*active=*/false);
    EXPECT_EQ(pref[0], platform->fastTier())
        << "excluded classes are always placed in fast memory (§7.3)";
    platform->sys().kloc().setManagedClasses(~0u);
}

TEST_F(StrategyTest, ScanTickDemotesUnderPressure)
{
    System &sys = platform->sys();
    platform->applyPolicyByName("nimble");
    // Fill the fast tier with cold app pages beyond the watermark.
    std::vector<Frame *> pages;
    Tier &fast = sys.tiers().tier(platform->fastTier());
    while (fast.utilization() < 0.95) {
        Frame *frame = sys.heap().allocAppPage();
        ASSERT_NE(frame, nullptr);
        pages.push_back(frame);
    }
    const uint64_t before = sys.migrator().stats().demotedPages;
    // Let several scan periods elapse; scans need two passes to
    // deactivate and demote.
    sys.machine().charge(kSecond);
    EXPECT_GT(sys.migrator().stats().demotedPages, before)
        << "Nimble never demoted cold app pages";
    for (Frame *frame : pages) {
        if (frame->tier != kInvalidTier)
            sys.heap().freeAppPage(frame);
    }
}

TEST(AutoNumaTest, LocalFirstPreferences)
{
    OptanePlatform platform;
    AutoNumaPolicy &policy =
        platform.applyPolicy(AutoNumaPolicy::Mode::AutoNuma);
    platform.moveTaskToSocket(0);
    EXPECT_EQ(policy.localTier(), platform.socketTiers()[0]);
    EXPECT_EQ(policy.appPreference()[0], platform.socketTiers()[0]);
    platform.moveTaskToSocket(1);
    EXPECT_EQ(policy.localTier(), platform.socketTiers()[1]);
    EXPECT_EQ(policy.kernelPreference(ObjClass::PageCache, true)[0],
              platform.socketTiers()[1]);
}

TEST(AutoNumaTest, BalanceTickMigratesHotAppPagesToTaskSocket)
{
    OptanePlatform platform;
    System &sys = platform.sys();
    platform.applyPolicy(AutoNumaPolicy::Mode::AutoNuma);
    platform.moveTaskToSocket(0);

    // Allocate app pages locally on socket 0 and make them hot.
    std::vector<Frame *> pages;
    for (int i = 0; i < 64; ++i) {
        Frame *frame = sys.heap().allocAppPage();
        ASSERT_NE(frame, nullptr);
        ASSERT_EQ(frame->tier, platform.socketTiers()[0]);
        sys.mem().touch(frame, kPageSize, AccessType::Read);
        sys.mem().touch(frame, kPageSize, AccessType::Read);
        pages.push_back(frame);
    }
    // The task moves; balancing should follow with the pages.
    platform.moveTaskToSocket(1);
    for (int round = 0; round < 6; ++round) {
        for (Frame *frame : pages)
            sys.mem().touch(frame, Bytes{64}, AccessType::Read);
        sys.machine().charge(60 * kMillisecond);
    }
    uint64_t moved = 0;
    for (Frame *frame : pages) {
        if (frame->tier == platform.socketTiers()[1])
            ++moved;
    }
    EXPECT_GT(moved, 32u) << "AutoNUMA failed to follow the task";
    for (Frame *frame : pages)
        sys.heap().freeAppPage(frame);
}

TEST(AutoNumaTest, StaticModeNeverMigrates)
{
    OptanePlatform platform;
    System &sys = platform.sys();
    platform.applyPolicy(AutoNumaPolicy::Mode::Static);
    std::vector<Frame *> pages;
    platform.moveTaskToSocket(0);
    for (int i = 0; i < 16; ++i)
        pages.push_back(sys.heap().allocAppPage());
    platform.moveTaskToSocket(1);
    sys.machine().charge(kSecond);
    EXPECT_EQ(sys.migrator().stats().migratedPages, 0u);
    for (Frame *frame : pages)
        sys.heap().freeAppPage(frame);
}

TEST(PlatformTest, TwoTierScalesCapacities)
{
    TwoTierPlatform::Config config;
    config.scale = 64;
    config.fastCapacity = 8 * kGiB;
    config.bandwidthRatio = 8;
    TwoTierPlatform platform(config);
    const TierSpec &fast =
        platform.sys().tiers().tier(platform.fastTier()).spec();
    const TierSpec &slow =
        platform.sys().tiers().tier(platform.slowTier()).spec();
    EXPECT_EQ(fast.capacity, 8 * kGiB / 64);
    EXPECT_EQ(fast.readBandwidth / slow.readBandwidth, 8u);
    EXPECT_EQ(fast.readLatency, slow.readLatency)
        << "throttled DRAM differs in bandwidth, not latency";
}

TEST(PlatformTest, SizeForPolicyGrowsFastTierOnlyForAllFast)
{
    TwoTierPlatform::Config config;
    config.fastCapacity = 8 * kGiB;
    config.slowCapacity = 72 * kGiB;
    for (const std::string &name : policyNames()) {
        const TwoTierPlatform::Config sized = sizeForPolicy(config, name);
        EXPECT_EQ(sized.slowCapacity, config.slowCapacity) << name;
        EXPECT_EQ(sized.fastCapacity, name == "all_fast"
                                          ? 80 * kGiB
                                          : config.fastCapacity)
            << name;
    }
}

TEST(PlatformTest, OptaneBlendsDramAndPmemTiming)
{
    OptanePlatform platform;
    const TierSpec &tier =
        platform.sys().tiers().tier(platform.socketTiers()[0]).spec();
    const Tick dram = platform.config().dramLatency;
    EXPECT_GT(tier.readLatency, dram);
    EXPECT_LT(tier.readLatency, 3 * dram);
    EXPECT_GT(tier.writeLatency, tier.readLatency)
        << "PMEM writes are slower than reads";
    EXPECT_LT(tier.readBandwidth, platform.config().dramBandwidth);
}

TEST(PlatformTest, InterferenceRaisesLoadedSocketCosts)
{
    OptanePlatform platform;
    System &sys = platform.sys();
    const TierId s0 = platform.socketTiers()[0];
    const Tick quiet =
        sys.machine().memModel().rawCost(s0, Bytes{4096}, AccessType::Read, 0);
    platform.setInterference(true);
    const Tick loaded =
        sys.machine().memModel().rawCost(s0, Bytes{4096}, AccessType::Read, 0);
    EXPECT_GT(loaded, quiet);
    platform.setInterference(false);
}

TEST(PlatformTest, TaskCpusStayOnSocket)
{
    OptanePlatform platform;
    platform.moveTaskToSocket(1);
    for (const unsigned cpu : platform.taskCpus())
        EXPECT_EQ(platform.sys().machine().socketOf(cpu), 1);
}

} // namespace
} // namespace kloc
