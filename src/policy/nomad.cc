#include "policy/nomad.hh"

#include "base/logging.hh"

namespace kloc {

NomadStrategy::NomadStrategy(KernelHeap &heap, LruEngine &lru,
                             MigrationEngine &migrator, KlocManager *kloc,
                             TierId fast, TierId slow, Config config)
    : _heap(heap),
      _lru(lru),
      _migrator(migrator),
      _kloc(kloc),
      _fast(fast),
      _slow(slow),
      _config(config)
{
    KLOC_ASSERT(!_config.composeKloc || kloc != nullptr,
                "kloc_nomad requires a KlocManager");
}

void
NomadStrategy::install()
{
    _heap.setPolicy(this);
    if (_kloc) {
        _kloc->setEnabled(_config.composeKloc);
        if (_config.composeKloc) {
            _kloc->setTierOrder({_fast, _slow});
            _heap.setKlocInterface(true);
        } else {
            _heap.setKlocInterface(false);
        }
    }
    _migrator.setParallelism(_config.migrationParallelism);
    const double budget =
        _config.shadowBudgetFraction *
        static_cast<double>(_heap.tiers().tier(_slow).totalPages().value());
    _migrator.setShadowBudget(FrameCount{static_cast<uint64_t>(budget)});
}

TierPreference
NomadStrategy::kernelPreference(ObjClass cls, bool knode_active)
{
    // Health degradation reorders, never replaces, the placement.
    return _heap.tiers().preferHealthy(kernelPlacement(cls, knode_active));
}

TierPreference
NomadStrategy::kernelPlacement(ObjClass cls, bool knode_active)
{
    if (_config.composeKloc) {
        // KLOC placement (§4.2.2), identical to the klocs row.
        if (cls == ObjClass::KlocMeta)
            return {_fast, _slow};
        if (_kloc && !_kloc->classManaged(cls))
            return {_fast, _slow};
        if (_kloc && _kloc->overMemLimit(_fast))
            return {_slow, _fast};
        return knode_active ? TierPreference{_fast, _slow}
                            : TierPreference{_slow, _fast};
    }
    // Plain Nomad is application tiering; kernel objects go slow
    // like other prior-art two-tier policies (§3.2).
    return {_slow, _fast};
}

TierPreference
NomadStrategy::appPreference()
{
    return _heap.tiers().preferHealthy(TierPreference{_fast, _slow});
}

void
NomadStrategy::scanTick()
{
    if (!_running)
        return;
    ++_scanTicks;
    Machine &machine = _heap.mem().machine();
    TierManager &tiers = _heap.tiers();

    // Demotions drain through shadows when possible: a clean page
    // whose shadow still sits on the slow tier is a free remap.
    if (tiers.tier(_fast).utilization() > _config.demoteWatermark) {
        _lru.scanTier(_fast, _config.scanBatch, _scanScratch);
        _victims.clear();
        for (const FrameRef &ref : _scanScratch.demoteCandidates) {
            if (ref.valid() && ref->objClass == ObjClass::App)
                _victims.push_back(ref);
        }
        _migrator.demoteWithShadows(_victims, _slow);
    }

    // Promotions are transactional copies.
    if (tiers.tier(_fast).utilization() < _config.promoteWatermark) {
        _lru.collectHot(_slow, _config.promoteBatch, _hotScratch);
        _victims.clear();
        for (const FrameRef &ref : _hotScratch) {
            if (ref.valid() && ref->objClass == ObjClass::App)
                _victims.push_back(ref);
        }
        _migrator.promoteTransactional(_victims, _fast,
                                       _config.writeRecencyWindow);
    }

    machine.events().schedule(
        machine.now() + _config.scanPeriod,
        [this, weak = std::weak_ptr<int>(_alive)] {
            if (!weak.expired())
                scanTick();
        });
}

void
NomadStrategy::start()
{
    if (_running)
        return;
    _running = true;
    Machine &machine = _heap.mem().machine();
    machine.events().schedule(
        machine.now() + _config.scanPeriod,
        [this, weak = std::weak_ptr<int>(_alive)] {
            if (!weak.expired())
                scanTick();
        });
    if (_config.composeKloc && _kloc)
        _kloc->startDaemon(_config.klocDaemonPeriod);
}

void
NomadStrategy::stop()
{
    _running = false;
    if (_kloc)
        _kloc->stopDaemon();
    // Shadows are policy-private state: release them so the slow
    // tier's capacity is whole for whatever policy follows.
    _heap.tiers().dropAllShadows(ShadowDropReason::PolicyStop);
    _migrator.setShadowBudget(FrameCount{~0ULL});
}

} // namespace kloc
