/**
 * @file
 * The Table 5 tiering strategies for the two-tier platform.
 *
 * Each strategy answers (i) where allocations of each class start
 * (PlacementPolicy) and (ii) what migrates when (its periodic tick).
 * One TieringStrategy class runs every row; a row is a Behavior, and
 * the registry table (policy/registry.cc) holds one per name:
 *
 *  - all_fast / all_slow: static bounds.
 *  - naive: greedy first-come-first-served into fast memory; no
 *    migration at all.
 *  - autonuma: stock NUMA-balancing semantics mapped onto two tiers
 *    (app pages fast-first with serial scan-driven migration, kernel
 *    objects greedy like naive).
 *  - nimble: application-page tiering with parallelised page copy;
 *    kernel objects live in slow memory (what prior art does for
 *    two-tier systems, §3.2).
 *  - nimble++: Nimble's scan-driven mechanisms extended to kernel
 *    pages, without the KLOC abstraction — slab pages stay
 *    non-relocatable and scan latency exceeds kernel object
 *    lifetimes, so hot kernel objects rarely return to fast memory.
 *  - klocs_nomigration: KLOC direct allocation (active knodes'
 *    objects to fast memory) but no kernel-object migration.
 *  - klocs: the full system — direct allocation, immediate demotion
 *    of inactive KLOCs, promotion on re-activation, watermark
 *    pressure handling, plus Nimble's app-page tiering.
 */

#ifndef KLOC_POLICY_STRATEGY_HH
#define KLOC_POLICY_STRATEGY_HH

#include <memory>

#include "core/kloc_manager.hh"
#include "mem/lru.hh"
#include "mem/migration.hh"
#include "policy/policy.hh"
#include "policy/registry.hh"

namespace kloc {

/** One configured tiering strategy. */
class TieringStrategy : public Policy
{
  public:
    /** Where a class of allocations starts. */
    enum class Start : uint8_t {
        Fast,          ///< fast tier only
        Slow,          ///< slow tier only
        FastFirst,     ///< fast until full, then slow
        SlowFirst,     ///< slow until full, then fast
        KnodeHotness,  ///< fast while the owning knode is active
    };

    /** What one Table 5 row does. */
    struct Behavior
    {
        Start kernel;       ///< where kernel objects start
        Start app;          ///< where application pages start
        bool appScan;       ///< the app-page scan tick runs
        bool kernelScan;    ///< the scan tick also migrates kernel pages
        bool parallelCopy;  ///< Nimble's parallel page copy
        bool kloc;          ///< KLOC interface on (needs a KlocManager)
        bool klocDaemon;    ///< the KLOC daemon runs
    };

    struct Config
    {
        Tick scanPeriod = 100 * kMillisecond;
        FrameCount scanBatch{32768};
        FrameCount promoteBatch{4096};
        /** Fast-tier utilization that triggers demotion. */
        double demoteWatermark = 0.85;
        /** Fast-tier utilization below which promotion is allowed. */
        double promoteWatermark = 0.90;
        /** Nimble's parallel page-copy width. */
        unsigned migrationParallelism = 8;
        /** KLOC daemon wakeup period. */
        Tick klocDaemonPeriod = 2 * kMillisecond;
    };

    /**
     * @param name Registry name; must outlive the strategy.
     * @param ctx  ctx.kloc may be null unless @p behavior.kloc is set.
     */
    TieringStrategy(const char *name, const Behavior &behavior,
                    const PolicyContext &ctx, Config config);

    const char *name() const override { return _name; }
    const Behavior &behavior() const { return _behavior; }

    /**
     * Apply the strategy: installs itself as the heap's placement
     * policy, flips the KLOC interface / manager state, and sets
     * migration parallelism.
     */
    void install() override;

    /** Begin periodic scan/migration work. */
    void start() override;

    /** Stop periodic work. */
    void stop() override;

    bool usesKloc() const override { return _behavior.kloc; }

    // -- PlacementPolicy ----------------------------------------------------
    TierPreference kernelPreference(ObjClass cls,
                                    bool knode_active) override;
    TierPreference appPreference() override;

  private:
    void scanTick();

    /** @p start as a tier order, before health reordering. */
    TierPreference order(Start start, bool knode_active) const;

    /** Health-blind placement order; the public preference methods
     *  reorder it with TierManager::preferHealthy. */
    TierPreference kernelPlacement(ObjClass cls, bool knode_active);

    /**
     * Liveness token for scheduled tick lambdas: events capture a
     * weak_ptr so a tick scheduled before this strategy was replaced
     * cannot touch the freed object.
     */
    std::shared_ptr<int> _alive = std::make_shared<int>(0);

    const char *_name;
    Behavior _behavior;
    KernelHeap &_heap;
    LruEngine &_lru;
    MigrationEngine &_migrator;
    KlocManager *_kloc;
    TierId _fast;
    TierId _slow;
    Config _config;
    bool _running = false;

    /** Per-tick scratch buffers, reused so scans don't allocate. */
    ScanResult _scanScratch;
    std::vector<FrameRef> _hotScratch;
    std::vector<FrameRef> _victims;
};

} // namespace kloc

#endif // KLOC_POLICY_STRATEGY_HH
