/**
 * @file
 * §5 future-work hypothesis: KLOCs with transparent huge pages.
 *
 * The paper's multi-page-size discussion predicts higher gains with
 * THP because direct placement avoids splitting/migrating huge
 * pages. This bench backs the app arena with 2 MB pages and compares
 * base-page vs huge-page runs under Nimble++ and KLOCs.
 */

#include "bench/harness.hh"
#include "bench/parallel.hh"

using namespace kloc;
using namespace kloc::bench;

namespace {

double
run(const BenchConfig &bench_config, const std::string &workload_name,
    const std::string &strategy, bool huge)
{
    TwoTierPlatform platform(
        sizeForPolicy(twoTierConfig(bench_config), strategy));
    System &sys = platform.sys();
    platform.applyPolicyByName(strategy);
    sys.fs().startDaemons();
    WorkloadConfig config = workloadConfig(bench_config);
    config.hugePages = huge;
    auto workload = makeWorkload(workload_name, config);
    const WorkloadResult result = runMeasured(sys, *workload);
    workload->teardown(sys);
    return result.throughput();
}

} // namespace

int
main()
{
    const BenchConfig config = BenchConfig::fromEnv();
    const std::vector<std::string> workloads = {"redis", "cassandra"};
    const std::vector<std::string> strategies = {"nimble++", "klocs"};

    // (workload, strategy, page size) grid in print order; huge pages
    // are the odd slot of each pair.
    const size_t runs = workloads.size() * strategies.size() * 2;
    const auto throughputs = sweep<double>(config, runs, [&](size_t i) {
        const std::string &workload =
            workloads[i / (strategies.size() * 2)];
        return run(config, workload, strategies[(i / 2) % strategies.size()],
                   i % 2 == 1);
    });

    section("Extension: transparent huge pages for the app arena (§5)");
    std::printf("%-11s %-18s %12s %12s %8s\n", "workload", "strategy",
                "4KB pages", "2MB pages", "gain");
    JsonReport report("ablation_thp", config.outdir);
    for (size_t w = 0; w < workloads.size(); ++w) {
        for (size_t s = 0; s < strategies.size(); ++s) {
            const std::string &strategy = strategies[s];
            const size_t slot = (w * strategies.size() + s) * 2;
            const double base = throughputs[slot];
            const double huge = throughputs[slot + 1];
            std::printf("%-11s %-18s %12.0f %12.0f %7.2fx\n",
                        workloads[w].c_str(), strategy.c_str(), base,
                        huge, base > 0 ? huge / base : 1.0);
            report.add(workloads[w] + "." + strategy + ".thp_gain",
                       base > 0 ? huge / base : 1.0, "x", "higher",
                       true);
        }
    }
    report.write();
    std::printf("\npaper (§5) hypothesised KLOCs gains with THP; in "
                "this model huge pages\n*reduce* tiering effectiveness: "
                "2 MB blocks hold hot and cold data\nhostage together "
                "and migrate at 512x the cost — the classic huge-page/"
                "\ntiering granularity tension (one reason Nimble "
                "exists).\n");
    return 0;
}
