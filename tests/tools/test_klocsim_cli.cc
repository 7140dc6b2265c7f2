/**
 * @file
 * klocsim CLI tests, run against the built binary as a subprocess:
 *
 *  - differential: `klocsim run` prints the same ops, throughput and
 *    virtual time as bench::runTwoTierPolicy on the same
 *    configuration, so the CLI and the figure benches measure one
 *    simulated thing;
 *  - numeric flags parse strictly: malformed, negative, or
 *    out-of-range values exit nonzero instead of running a
 *    different configuration.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cctype>
#include <cstdio>
#include <string>
#include <utility>

#include "bench/harness.hh"

#ifndef KLOCSIM_BIN
#error "KLOCSIM_BIN must name the klocsim binary"
#endif

namespace kloc {
namespace {

struct CliResult
{
    int code = -1;
    std::string out;  ///< stdout and stderr, interleaved
};

CliResult
runKlocsim(const std::string &args)
{
    const std::string cmd = std::string(KLOCSIM_BIN) + " " + args + " 2>&1";
    CliResult result;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe)
        return result;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
        result.out.append(buf, n);
    const int status = pclose(pipe);
    result.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

/** The result line klocsim prints for one run of @p workload. */
std::string
expectedLine(const std::string &workload, const std::string &policy,
             uint64_t ops, unsigned scale)
{
    TwoTierPlatform::Config platform_config;
    platform_config.scale = scale;
    WorkloadConfig workload_config;
    workload_config.scale = scale;
    workload_config.operations = ops;
    const bench::RunOutcome outcome = bench::runTwoTierPolicy(
        workload, policy, platform_config, workload_config);
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s under %s: %.0f ops/s (%llu ops, %.1f ms virtual)\n",
                  workload.c_str(), policy.c_str(), outcome.throughput,
                  (unsigned long long)outcome.result.operations,
                  static_cast<double>(outcome.result.elapsed) /
                      kMillisecond);
    return line;
}

// std::string, not const char *: gtest prints a char pointer's address
// into the test's listed name, which would change from build to build.
using Cell = std::pair<std::string, std::string>;  ///< workload, policy

class KlocsimDifferential : public ::testing::TestWithParam<Cell>
{};

TEST_P(KlocsimDifferential, RunMatchesBenchHarness)
{
    const auto [workload, policy] = GetParam();
    constexpr uint64_t kOps = 2000;
    constexpr unsigned kScale = 256;
    const CliResult cli = runKlocsim(
        std::string("run --workload ") + workload + " --strategy " +
        policy + " --ops " + std::to_string(kOps) + " --scale " +
        std::to_string(kScale));
    ASSERT_EQ(cli.code, 0) << cli.out;
    const std::string want = expectedLine(workload, policy, kOps, kScale);
    EXPECT_NE(cli.out.find(want), std::string::npos)
        << "klocsim output:\n" << cli.out << "harness expects:\n" << want;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, KlocsimDifferential,
    ::testing::Values(Cell{"thrash", "klocs"}, Cell{"rocksdb", "naive"}),
    [](const auto &info) {
        return info.param.first + "_" + info.param.second;
    });

class KlocsimBadNumber : public ::testing::TestWithParam<const char *>
{};

TEST_P(KlocsimBadNumber, ExitsNonzero)
{
    const CliResult cli =
        runKlocsim(std::string("run --workload thrash ") + GetParam());
    EXPECT_NE(cli.code, 0) << GetParam() << " was accepted:\n" << cli.out;
    EXPECT_NE(cli.out.find("wants an integer"), std::string::npos)
        << cli.out;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, KlocsimBadNumber,
    ::testing::Values("--ops abc", "--ops 1x", "--ops ''", "--ops 0",
                      "--ops -5", "--ops 99999999999999999999",
                      "--fast-gb -1", "--fast-gb 4096", "--scale 0",
                      "--ratio 0", "--fault-seed 12q"),
    [](const auto &info) {
        std::string name;
        for (const char *c = info.param; *c; ++c) {
            if (name.empty() && *c == '-')
                continue;
            name += std::isalnum(static_cast<unsigned char>(*c)) ? *c : '_';
        }
        return name;
    });

} // namespace
} // namespace kloc
