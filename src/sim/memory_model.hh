/**
 * @file
 * Memory timing model: per-tier latency/bandwidth specs and the cost
 * function every simulated memory access is charged through.
 *
 * This is the substitution for the paper's physical platforms. The
 * two-tier platform is a fast DRAM tier plus a bandwidth-throttled
 * DRAM tier (Table 4); the Optane platform layers a per-socket DRAM
 * L4 cache in front of persistent-memory timing (§6.2). Cross-socket
 * accesses pay an interconnect penalty, and an optional per-socket
 * interference factor models the streaming co-runner used in the
 * AutoNUMA experiments.
 */

#ifndef KLOC_SIM_MEMORY_MODEL_HH
#define KLOC_SIM_MEMORY_MODEL_HH

#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/units.hh"

namespace kloc {

/** Static description of one memory tier. */
struct TierSpec
{
    std::string name;          ///< e.g. "fast-dram", "slow-dram", "pmem"
    Bytes capacity{};        ///< bytes of simulated frames
    Tick readLatency{};      ///< ns per access
    Tick writeLatency{};     ///< ns per access
    Bytes readBandwidth{};   ///< bytes/sec
    Bytes writeBandwidth{};  ///< bytes/sec
    int socket = 0;            ///< NUMA socket hosting the tier
};

/** Kind of simulated memory access, for stats attribution. */
enum class AccessType { Read, Write };

/**
 * Timing oracle for the machine's memory system. Holds only
 * configuration and a cost memo; contention appears as an
 * interference factor.
 *
 * accessCost() is on every simulated memory touch, so it keeps a
 * one-entry memo per (tier, access type, remote?): the cost depends
 * on the issuing socket only through whether it is the tier's own,
 * and a memo entry answers whenever the byte count repeats. Every
 * setter that changes a cost input resets the memo.
 */
class MemoryModel
{
  public:
    /** Register a tier; returns its TierId. */
    TierId addTier(const TierSpec &spec);

    const TierSpec &
    spec(TierId tier) const
    {
        KLOC_ASSERT(tier >= 0 && static_cast<size_t>(tier) < _tiers.size(),
                    "bad tier id %d", tier.value());
        return _tiers[static_cast<size_t>(tier)];
    }

    size_t tierCount() const { return _tiers.size(); }

    /**
     * Cost of an access of @p bytes to @p tier issued from
     * @p from_socket. Expected-value LLC filtering: a fraction of
     * accesses hit on-chip SRAM and cost llcLatency instead.
     */
    Tick
    accessCost(TierId tier, Bytes bytes, AccessType type,
               int from_socket) const
    {
        const TierSpec &ts = spec(tier);
        CostMemo &memo = _memo[memoSlot(tier, type, from_socket != ts.socket)];
        if (memo.bytes != bytes) {
            memo.bytes = bytes;
            memo.cost = filteredCost(tier, bytes, type, from_socket);
        }
        return memo.cost;
    }

    /** Raw media cost with no LLC filtering (used for page copies). */
    Tick rawCost(TierId tier, Bytes bytes, AccessType type,
                 int from_socket) const;

    /** Set fraction [0,1) of accesses served by the LLC. */
    void
    setLlcHitFraction(double fraction)
    {
        _llcHitFraction = fraction;
        resetMemo();
    }

    double llcHitFraction() const { return _llcHitFraction; }

    /** Extra latency for crossing sockets (QPI/UPI hop). */
    void
    setRemotePenalty(Tick penalty)
    {
        _remotePenalty = penalty;
        resetMemo();
    }

    /**
     * Multiply effective cost of accesses to tiers on @p socket by
     * @p factor (>= 1), modelling a streaming interferer.
     */
    void setInterference(int socket, double factor);

    /** Remove all interference factors. */
    void clearInterference();

  private:
    /** Last byte count asked of one memo slot, and its cost. */
    struct CostMemo
    {
        Bytes bytes{};
        Tick cost{};
    };

    static size_t
    memoSlot(TierId tier, AccessType type, bool remote)
    {
        return (static_cast<size_t>(tier) * 2 +
                static_cast<size_t>(type)) * 2 +
               static_cast<size_t>(remote);
    }

    /** accessCost() without the memo. */
    Tick filteredCost(TierId tier, Bytes bytes, AccessType type,
                      int from_socket) const;

    /**
     * Refill every memo slot with its cost at zero bytes, so each slot
     * always holds a true (bytes, cost) pair and needs no empty state.
     */
    void resetMemo();

    std::vector<TierSpec> _tiers;
    std::vector<double> _interference;  // per socket, 1.0 = none
    double _llcHitFraction = 0.0;
    Tick _llcLatency{12};     // ~LLC hit latency in ns
    Tick _remotePenalty{60};  // ns per cross-socket access
    mutable std::vector<CostMemo> _memo;  // 4 slots per tier
};

} // namespace kloc

#endif // KLOC_SIM_MEMORY_MODEL_HH
