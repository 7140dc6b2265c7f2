#include "platform/two_tier.hh"

#include "base/logging.hh"

namespace kloc {

TwoTierPlatform::TwoTierPlatform(const Config &config) : _config(config)
{
    KLOC_ASSERT(config.scale >= 1, "scale must be >= 1");
    KLOC_ASSERT(config.bandwidthRatio >= 1, "bad bandwidth ratio");

    _system = std::make_unique<System>(config.system);

    TierSpec fast;
    fast.name = "fast-dram";
    fast.capacity = config.fastCapacity / config.scale;
    fast.readLatency = config.dramLatency;
    fast.writeLatency = config.dramLatency;
    fast.readBandwidth = config.fastBandwidth;
    fast.writeBandwidth = config.fastBandwidth;
    fast.socket = 0;
    _fast = _system->tiers().addTier(fast);

    TierSpec slow;
    slow.name = "slow-dram";
    slow.capacity = config.slowCapacity / config.scale;
    slow.readLatency = config.dramLatency;
    slow.writeLatency = config.dramLatency;
    slow.readBandwidth = config.fastBandwidth / config.bandwidthRatio;
    slow.writeBandwidth = config.fastBandwidth / config.bandwidthRatio;
    slow.socket = 0;  // same socket: throttled DRAM, not NUMA
    _slow = _system->tiers().addTier(slow);

    _system->buildSubsystems();
    _teardownPlacement = std::make_unique<StaticPlacement>(
        TierPreference{_fast, _slow},
        TierPreference{_fast, _slow});
    _system->heap().setPolicy(_teardownPlacement.get());
}

TwoTierPlatform::~TwoTierPlatform()
{
    if (_policy)
        _policy->stop();
    // The policy dies before the System; teardown allocations
    // (unlink journalling) fall back to the static placement.
    _system->heap().setPolicy(_teardownPlacement.get());
}

Policy &
TwoTierPlatform::applyPolicy(std::unique_ptr<Policy> policy)
{
    KLOC_ASSERT(policy != nullptr, "applyPolicy(nullptr)");
    if (_policy)
        _policy->stop();
    _policy = std::move(policy);
    _policy->install();
    const bool kloc_on = _policy->usesKloc();
    if (!kloc_on) {
        // A prior KLOC policy may have left the runtime enabled;
        // install() of a KLOC-blind policy (e.g. Jenga) can't know.
        _system->kloc().setEnabled(false);
        _system->heap().setKlocInterface(false);
    }
    // The KLOC policies also use the early-demux driver extension.
    _system->net().setEarlyDemux(kloc_on);
    _policy->start();
    return *_policy;
}

Policy &
TwoTierPlatform::applyPolicyByName(const std::string &name)
{
    PolicyContext ctx{_system->heap(), _system->lru(),
                      _system->migrator(), &_system->kloc(),
                      _fast, _slow};
    std::unique_ptr<Policy> policy = makePolicy(name, ctx);
    KLOC_ASSERT(policy != nullptr, "unknown policy '%s'", name.c_str());
    return applyPolicy(std::move(policy));
}

TwoTierPlatform::Config
sizeForPolicy(TwoTierPlatform::Config config, const std::string &policy_name)
{
    if (policy_name == "all_fast")
        config.fastCapacity += config.slowCapacity;
    return config;
}

} // namespace kloc
