#include "policy/strategy.hh"

#include "base/logging.hh"

namespace kloc {

TieringStrategy::TieringStrategy(const char *name, const Behavior &behavior,
                                 const PolicyContext &ctx, Config config)
    : _name(name),
      _behavior(behavior),
      _heap(ctx.heap),
      _lru(ctx.lru),
      _migrator(ctx.migrator),
      _kloc(ctx.kloc),
      _fast(ctx.fast),
      _slow(ctx.slow),
      _config(config)
{
    KLOC_ASSERT(!behavior.kloc || _kloc != nullptr,
                "strategy %s requires a KlocManager", name);
}

void
TieringStrategy::install()
{
    _heap.setPolicy(this);
    if (_kloc) {
        _kloc->setEnabled(_behavior.kloc);
        if (_behavior.kloc)
            _kloc->setTierOrder({_fast, _slow});
        _heap.setKlocInterface(_behavior.kloc);
    }
    _migrator.setParallelism(
        _behavior.parallelCopy ? _config.migrationParallelism : 1);
}

TierPreference
TieringStrategy::kernelPreference(ObjClass cls, bool knode_active)
{
    // Health degradation reorders, never replaces, the placement
    // order: degraded tiers fall behind healthy ones and failed
    // tiers become the last resort.
    return _heap.tiers().preferHealthy(kernelPlacement(cls, knode_active));
}

TierPreference
TieringStrategy::kernelPlacement(ObjClass cls, bool knode_active)
{
    if (_behavior.kernel == Start::KnodeHotness) {
        // KLOC metadata and unmanaged classes are pinned fast; the
        // managed classes follow knode hotness (§4.2.2). A
        // sys_kloc_memsize cap diverts kernel objects once their
        // fast-tier residency reaches it.
        if (cls == ObjClass::KlocMeta)
            return {_fast, _slow};
        if (_kloc && !_kloc->classManaged(cls))
            return {_fast, _slow};
        if (_kloc && _kloc->overMemLimit(_fast))
            return {_slow, _fast};
    }
    return order(_behavior.kernel, knode_active);
}

TierPreference
TieringStrategy::appPreference()
{
    return _heap.tiers().preferHealthy(order(_behavior.app, false));
}

TierPreference
TieringStrategy::order(Start start, bool knode_active) const
{
    switch (start) {
      case Start::Fast:         return {_fast};
      case Start::Slow:         return {_slow};
      case Start::FastFirst:    return {_fast, _slow};
      case Start::SlowFirst:    return {_slow, _fast};
      case Start::KnodeHotness:
        return knode_active ? TierPreference{_fast, _slow}
                            : TierPreference{_slow, _fast};
    }
    return {_fast, _slow};
}

void
TieringStrategy::scanTick()
{
    if (!_running)
        return;
    Machine &machine = _heap.mem().machine();
    TierManager &tiers = _heap.tiers();

    const bool kernel_scope = _behavior.kernelScan;

    // Demote cold pages off the fast tier under pressure. The scan
    // and filter scratch buffers persist across ticks so the
    // steady-state scan loop allocates nothing.
    if (tiers.tier(_fast).utilization() > _config.demoteWatermark) {
        _lru.scanTier(_fast, _config.scanBatch, _scanScratch);
        _victims.clear();
        for (const FrameRef &ref : _scanScratch.demoteCandidates) {
            if (!ref.valid())
                continue;
            const ObjClass cls = ref->objClass;
            if (cls == ObjClass::App ||
                (kernel_scope && isKernelClass(cls) &&
                 cls != ObjClass::KlocMeta)) {
                _victims.push_back(ref);
            }
        }
        _migrator.migrate(_victims, _slow);
    }

    // Promote hot pages from the slow tier when there is headroom.
    if (tiers.tier(_fast).utilization() < _config.promoteWatermark) {
        _lru.collectHot(_slow, _config.promoteBatch, _hotScratch);
        _victims.clear();
        for (const FrameRef &ref : _hotScratch) {
            if (!ref.valid())
                continue;
            const ObjClass cls = ref->objClass;
            if (cls == ObjClass::App ||
                (kernel_scope && isKernelClass(cls) &&
                 cls != ObjClass::KlocMeta)) {
                _victims.push_back(ref);
            }
        }
        _migrator.migrate(_victims, _fast);
    }

    machine.events().schedule(
        machine.now() + _config.scanPeriod,
        [this, weak = std::weak_ptr<int>(_alive)] {
            if (!weak.expired())
                scanTick();
        });
}

void
TieringStrategy::start()
{
    if (_running)
        return;
    Machine &machine = _heap.mem().machine();
    if (_behavior.appScan) {
        _running = true;
        machine.events().schedule(
            machine.now() + _config.scanPeriod,
            [this, weak = std::weak_ptr<int>(_alive)] {
                if (!weak.expired())
                    scanTick();
            });
    }
    if (_behavior.klocDaemon && _kloc)
        _kloc->startDaemon(_config.klocDaemonPeriod);
}

void
TieringStrategy::stop()
{
    _running = false;
    if (_kloc)
        _kloc->stopDaemon();
}

} // namespace kloc
