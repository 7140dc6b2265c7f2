#include "sim/memory_model.hh"

#include <cmath>

#include "base/logging.hh"

namespace kloc {

TierId
MemoryModel::addTier(const TierSpec &spec)
{
    KLOC_ASSERT(spec.capacity > 0, "tier '%s' has zero capacity",
                spec.name.c_str());
    KLOC_ASSERT(spec.readBandwidth > 0 && spec.writeBandwidth > 0,
                "tier '%s' has zero bandwidth", spec.name.c_str());
    _tiers.push_back(spec);
    const auto socket = static_cast<size_t>(spec.socket);
    if (_interference.size() <= socket)
        _interference.resize(socket + 1, 1.0);
    resetMemo();
    return static_cast<TierId>(_tiers.size() - 1);
}

Tick
MemoryModel::rawCost(TierId tier, Bytes bytes, AccessType type,
                     int from_socket) const
{
    const TierSpec &ts = spec(tier);
    const Tick latency = type == AccessType::Read ? ts.readLatency
                                                  : ts.writeLatency;
    const Bytes bw = type == AccessType::Read ? ts.readBandwidth
                                              : ts.writeBandwidth;
    Tick cost = latency + transferTime(bytes, bw);
    if (from_socket != ts.socket)
        cost += _remotePenalty;
    const auto socket = static_cast<size_t>(ts.socket);
    if (socket < _interference.size() && _interference[socket] > 1.0) {
        cost = static_cast<Tick>(
            std::llround(static_cast<double>(cost) *
                         _interference[socket]));
    }
    return cost;
}

Tick
MemoryModel::filteredCost(TierId tier, Bytes bytes, AccessType type,
                          int from_socket) const
{
    const Tick miss = rawCost(tier, bytes, type, from_socket);
    if (_llcHitFraction <= 0.0)
        return miss;
    const double expected =
        _llcHitFraction * static_cast<double>(_llcLatency) +
        (1.0 - _llcHitFraction) * static_cast<double>(miss);
    return static_cast<Tick>(std::llround(expected));
}

void
MemoryModel::setInterference(int socket, double factor)
{
    KLOC_ASSERT(factor >= 1.0, "interference factor below 1");
    const auto idx = static_cast<size_t>(socket);
    if (_interference.size() <= idx)
        _interference.resize(idx + 1, 1.0);
    _interference[idx] = factor;
    resetMemo();
}

void
MemoryModel::clearInterference()
{
    for (auto &factor : _interference)
        factor = 1.0;
    resetMemo();
}

void
MemoryModel::resetMemo()
{
    _memo.resize(_tiers.size() * 4);
    for (size_t t = 0; t < _tiers.size(); ++t) {
        const TierId tier{static_cast<int>(t)};
        const int local = _tiers[t].socket;
        for (const AccessType type : {AccessType::Read, AccessType::Write}) {
            for (const bool remote : {false, true}) {
                const int from = remote ? local + 1 : local;
                _memo[memoSlot(tier, type, remote)] = {
                    Bytes{0}, filteredCost(tier, Bytes{0}, type, from)};
            }
        }
    }
}

} // namespace kloc
