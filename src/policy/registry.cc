#include "policy/registry.hh"

#include "policy/jenga.hh"
#include "policy/nomad.hh"
#include "policy/strategy.hh"

namespace kloc {

namespace {

struct Row;
using Factory = std::unique_ptr<Policy> (*)(const Row &,
                                            const PolicyContext &);

/** One registered policy. */
struct Row
{
    const char *name;
    bool needsKloc;    ///< makePolicy refuses a null ctx.kloc
    bool conformance;  ///< in conformancePolicyNames()
    Factory make;
    TieringStrategy::Behavior tiering;  ///< read by makeTiering only
};

std::unique_ptr<Policy>
makeTiering(const Row &row, const PolicyContext &ctx)
{
    return std::make_unique<TieringStrategy>(row.name, row.tiering, ctx,
                                             TieringStrategy::Config{});
}

std::unique_ptr<Policy>
makeNomad(const Row &row, const PolicyContext &ctx)
{
    NomadStrategy::Config config;
    config.composeKloc = row.needsKloc;
    return std::make_unique<NomadStrategy>(ctx.heap, ctx.lru, ctx.migrator,
                                           ctx.kloc, ctx.fast, ctx.slow,
                                           config);
}

std::unique_ptr<Policy>
makeJenga(const Row &, const PolicyContext &ctx)
{
    return std::make_unique<JengaStrategy>(ctx.heap, ctx.lru, ctx.migrator,
                                           ctx.fast, ctx.slow);
}

using S = TieringStrategy::Start;

// Table 5 rows spell their behaviour as {kernel start, app start,
// app scan, kernel scan, parallel copy, KLOC interface, KLOC daemon}.
// The row order is policyNames() order.
constexpr Row kRows[] = {
    {"all_fast", false, false, makeTiering,
     {S::Fast, S::Fast, false, false, false, false, false}},
    {"all_slow", false, false, makeTiering,
     {S::Slow, S::Slow, false, false, false, false, false}},
    {"naive", false, true, makeTiering,
     {S::FastFirst, S::FastFirst, false, false, false, false, false}},
    // Stock NUMA balancing ignores kernel objects and copies serially.
    {"autonuma", false, true, makeTiering,
     {S::FastFirst, S::FastFirst, true, false, false, false, false}},
    // Prior art places kernel objects in slow memory (§3.2).
    {"nimble", false, false, makeTiering,
     {S::SlowFirst, S::FastFirst, true, false, true, false, false}},
    // Nimble's LRU scans extended to kernel pages, without KLOCs.
    {"nimble++", false, false, makeTiering,
     {S::FastFirst, S::FastFirst, true, true, true, false, false}},
    // Both KLOC rows reuse Nimble's app-page tiering (Table 5); kernel
    // objects move through knodes, and only klocs runs the daemon.
    {"klocs_nomigration", true, false, makeTiering,
     {S::KnodeHotness, S::FastFirst, true, false, true, true, false}},
    {"klocs", true, true, makeTiering,
     {S::KnodeHotness, S::FastFirst, true, false, true, true, true}},
    {"nomad", false, true, makeNomad, {}},
    {"kloc_nomad", true, true, makeNomad, {}},
    {"jenga", false, true, makeJenga, {}},
};

std::vector<std::string>
namesWhere(bool conformance_only)
{
    std::vector<std::string> names;
    for (const Row &row : kRows) {
        if (!conformance_only || row.conformance)
            names.emplace_back(row.name);
    }
    return names;
}

} // namespace

TierManager &
PolicyContext::tiers() const
{
    return heap.tiers();
}

std::unique_ptr<Policy>
makePolicy(const std::string &name, const PolicyContext &ctx)
{
    for (const Row &row : kRows) {
        if (name == row.name) {
            if (row.needsKloc && ctx.kloc == nullptr)
                return nullptr;
            return row.make(row, ctx);
        }
    }
    return nullptr;
}

const std::vector<std::string> &
policyNames()
{
    static const std::vector<std::string> names = namesWhere(false);
    return names;
}

const std::vector<std::string> &
conformancePolicyNames()
{
    static const std::vector<std::string> names = namesWhere(true);
    return names;
}

} // namespace kloc
