/**
 * @file
 * The software-managed two-tier memory platform of Table 4: a fast
 * high-bandwidth DRAM tier and a bandwidth-throttled slow DRAM tier,
 * both OS-managed. Capacities and the bandwidth ratio are the Fig. 6
 * sweep knobs.
 *
 * The paper's 8 GB / 30 GB/s fast tier and 40 GB datasets are
 * simulated at a configurable linear scale (default 1:64); all
 * ratios are preserved.
 */

#ifndef KLOC_PLATFORM_TWO_TIER_HH
#define KLOC_PLATFORM_TWO_TIER_HH

#include <memory>
#include <string>

#include "platform/system.hh"
#include "policy/registry.hh"

namespace kloc {

/** Two-tier platform builder and policy host. */
class TwoTierPlatform
{
  public:
    struct Config
    {
        /** Linear scale factor vs. the paper's hardware (1:N). */
        unsigned scale = 64;
        /** Paper-scale fast capacity (scaled down by `scale`). */
        Bytes fastCapacity = 8 * kGiB;
        /** Paper-scale slow capacity. */
        Bytes slowCapacity = 72 * kGiB;
        /** Fast-tier bandwidth (Table 4: 30 GB/s). */
        Bytes fastBandwidth = 30ULL * 1000 * kMiB;
        /** Fast:slow bandwidth ratio (Fig. 6 sweeps 8/4/2). */
        unsigned bandwidthRatio = 8;
        Tick dramLatency{80};
        System::Config system;
    };

    explicit TwoTierPlatform(const Config &config);

    /** Convenience: default configuration. */
    TwoTierPlatform() : TwoTierPlatform(Config{}) {}

    ~TwoTierPlatform();

    System &sys() { return *_system; }

    TierId fastTier() const { return _fast; }
    TierId slowTier() const { return _slow; }

    /**
     * Install and start @p policy, replacing (stopping) any previous
     * one. Centralises the policy lifecycle: non-KLOC policies get
     * the KLOC runtime and the early-demux driver extension switched
     * off so a previously applied KLOC policy leaves no residue.
     */
    Policy &applyPolicy(std::unique_ptr<Policy> policy);

    /**
     * Build @p name through the policy registry and apply it.
     * Asserts on unknown names (see policyNames()).
     */
    Policy &applyPolicyByName(const std::string &name);

    /** The applied policy, or nullptr before the first apply. */
    Policy *policy() { return _policy.get(); }

    const Config &config() const { return _config; }

  private:
    Config _config;
    /**
     * Placement used during teardown; declared before _system so it
     * outlives the FS/KLOC destructors that still allocate (journal
     * records for unlink metadata).
     */
    std::unique_ptr<StaticPlacement> _teardownPlacement;
    std::unique_ptr<System> _system;
    TierId _fast = kInvalidTier;
    TierId _slow = kInvalidTier;
    std::unique_ptr<Policy> _policy;
};

/**
 * @p config sized for @p policy_name. The all_fast bound needs a
 * fast tier that holds everything, so it gains the slow capacity;
 * every other policy keeps @p config. Every driver that builds a
 * platform from a policy name sizes it here, so one name means one
 * platform whichever driver runs it.
 */
TwoTierPlatform::Config sizeForPolicy(TwoTierPlatform::Config config,
                                      const std::string &policy_name);

} // namespace kloc

#endif // KLOC_PLATFORM_TWO_TIER_HH
