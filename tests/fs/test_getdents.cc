/**
 * @file
 * The two readdir forms against each other: readdir() returns the
 * names, getdents() only their count, and both must charge the same
 * simulated work at the same points. Each case runs two identical
 * systems, one per form, and compares the clock, the kernel reference
 * counters and the serialized trace byte for byte.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "platform/two_tier.hh"

namespace kloc {
namespace {

constexpr int kFiles = 150;  // two full DirBuffers and a partial one

std::string
fileName(int i)
{
    return "file_" + std::to_string(i);
}

/** What one system observed across its directory scan. */
struct ScanResult
{
    size_t count = 0;        ///< names returned, or the count
    uint64_t liveAfter = 0;  ///< files right after the scan
    Tick scanTicks{};        ///< virtual time the scan took
    Tick now{};              ///< clock after the follow-up ops
    uint64_t kernelRefs = 0;
    Tick kernelRefTicks{};
    std::string trace;
};

/**
 * Build a klocs platform with kFiles files, optionally schedule
 * @p event to fire @p delay ticks into the scan, scan the directory
 * with the list or the count form, then do a little more file work
 * so any difference in state left behind shows in the trace.
 */
ScanResult
runScan(bool list_form, Tick delay = Tick{},
        const std::function<void(FileSystem &)> &event = {})
{
    TwoTierPlatform::Config config;
    config.scale = 256;
    TwoTierPlatform platform(config);
    platform.applyPolicyByName("klocs");
    System &sys = platform.sys();
    Machine &machine = sys.machine();
    FileSystem &fs = sys.fs();
    machine.tracer().setEnabled(true);

    for (int i = 0; i < kFiles; ++i)
        fs.close(fs.create(fileName(i)));

    ScanResult result;
    const Tick start = machine.now();
    if (event)
        machine.events().schedule(machine.now() + delay,
                                  [&fs, event] { event(fs); });
    result.count = list_form ? fs.readdir().size() : fs.getdents();
    result.scanTicks = machine.now() - start;
    result.liveAfter = fs.liveInodes();

    const int fd = fs.create("after_scan");
    fs.write(fd, Bytes{}, Bytes{kPageSize});
    fs.close(fd);
    fs.unlink(fileName(0));

    machine.tracer().setEnabled(false);
    result.now = machine.now();
    result.kernelRefs = machine.kernelRefs();
    result.kernelRefTicks = machine.kernelRefTicks();
    result.trace = machine.tracer().serialize();
    return result;
}

void
expectSameCharge(const ScanResult &list, const ScanResult &count)
{
    EXPECT_EQ(count.count, list.count);
    EXPECT_EQ(count.now, list.now);
    EXPECT_EQ(count.kernelRefs, list.kernelRefs);
    EXPECT_EQ(count.kernelRefTicks, list.kernelRefTicks);
    EXPECT_GT(list.trace.size(), 0u);
    EXPECT_TRUE(count.trace == list.trace)
        << "getdents() trace differs from readdir()'s";
}

TEST(Getdents, ChargesExactlyWhatReaddirCharges)
{
    const ScanResult list = runScan(true);
    const ScanResult count = runScan(false);
    EXPECT_EQ(list.count, static_cast<size_t>(kFiles));
    expectSameCharge(list, count);
}

/**
 * Events due inside the syscall charge run before either form takes
 * its snapshot, so a file they create is listed and counted, and a
 * file they unlink is neither. An event due later, while the
 * DirBuffers fill, runs after the snapshot and changes neither.
 */
TEST(Getdents, SnapshotsAtTheSamePointAsReaddir)
{
    const auto create = [](FileSystem &fs) {
        fs.close(fs.create("zz_created_mid_scan"));
    };
    const auto unlink = [](FileSystem &fs) {
        EXPECT_TRUE(fs.unlink(fileName(7)));
    };

    // Half an undisturbed scan is well past its syscall charge.
    const Tick mid_fill = runScan(true).scanTicks / 2;
    ASSERT_GT(mid_fill, FileSystem::kSyscallCost);

    struct Case
    {
        const char *what;
        Tick delay;
        std::function<void(FileSystem &)> event;
        size_t entries;
        uint64_t liveAfter;
    };
    const Case cases[] = {
        {"create in syscall", Tick{1}, create, kFiles + 1, kFiles + 1},
        {"unlink in syscall", Tick{1}, unlink, kFiles - 1, kFiles - 1},
        {"create in dirent fill", mid_fill, create, kFiles, kFiles + 1},
        {"unlink in dirent fill", mid_fill, unlink, kFiles, kFiles - 1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const ScanResult list = runScan(true, c.delay, c.event);
        const ScanResult count = runScan(false, c.delay, c.event);
        EXPECT_EQ(list.count, c.entries);
        EXPECT_EQ(list.liveAfter, c.liveAfter) << "the event did not run";
        EXPECT_EQ(count.liveAfter, c.liveAfter);
        expectSameCharge(list, count);
    }
}

} // namespace
} // namespace kloc
