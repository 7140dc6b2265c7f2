/**
 * @file
 * Policy registry: construct two-tier policies by stable name.
 *
 * Tests, benches, and the fault fuzz build policies through this one
 * factory, so a newly registered policy is automatically swept by
 * the conformance suite and the policy benches. Registering a policy
 * means adding one row to the table in registry.cc: its name, whether
 * it needs a KlocManager, whether it is in the conformance set, and
 * how to build it. See docs/POLICIES.md.
 *
 * The registry is platform-free: it takes the subsystem references a
 * policy needs directly, so a raw test stack (no TwoTierPlatform)
 * can build policies too.
 */

#ifndef KLOC_POLICY_REGISTRY_HH
#define KLOC_POLICY_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "policy/policy.hh"

namespace kloc {

class KernelHeap;
class LruEngine;
class MigrationEngine;
class KlocManager;

class TierManager;

/** Everything a two-tier policy constructor may need. */
struct PolicyContext
{
    KernelHeap &heap;
    LruEngine &lru;
    MigrationEngine &migrator;
    KlocManager *kloc;  ///< may be null; KLOC policies then fail
    TierId fast;
    TierId slow;

    /**
     * The tier manager behind @p heap. Policies consult its health
     * state (TierManager::preferHealthy) so degraded tiers fall
     * behind healthy ones in every TierPreference; see
     * docs/POLICIES.md for the health callback contract.
     */
    TierManager &tiers() const;
};

/**
 * Build the policy registered under @p name.
 * @return nullptr for an unknown name, or for a KLOC-composed policy
 *         when @p ctx.kloc is null.
 */
std::unique_ptr<Policy> makePolicy(const std::string &name,
                                   const PolicyContext &ctx);

/** Every registered two-tier policy name. */
const std::vector<std::string> &policyNames();

/**
 * The dynamic policies every conformance test runs against (the
 * six-way comparison: Naive/AutoNUMA/KLOC/Nomad/KLOC+Nomad/Jenga),
 * in policyNames() order.
 */
const std::vector<std::string> &conformancePolicyNames();

} // namespace kloc

#endif // KLOC_POLICY_REGISTRY_HH
