/**
 * @file
 * KernelHeap: the allocation facade every kernel subsystem uses.
 *
 * In a stock kernel each of the 400+ allocation sites calls
 * kmem_cache_alloc / alloc_page directly; the paper redirects them to
 * the KLOC allocation interface (§4.4). Here all sites already funnel
 * through this facade, and setKlocInterface() flips them between
 * stock behaviour (slab objects non-relocatable, unsorted) and the
 * KLOC interface (relocatable, grouped by knode).
 *
 * Placement consults the active PlacementPolicy, which is how the
 * Table 5 strategies differ at allocation time.
 */

#ifndef KLOC_KOBJ_KERNEL_HEAP_HH
#define KLOC_KOBJ_KERNEL_HEAP_HH

#include <array>
#include <functional>
#include <memory>

#include "alloc/slab.hh"
#include "base/stats.hh"
#include "kobj/kobject.hh"
#include "mem/accessor.hh"
#include "mem/placement.hh"
#include "mem/tier_manager.hh"

namespace kloc {

/** Allocation facade for kernel objects and application pages. */
class KernelHeap
{
  public:
    KernelHeap(MemAccessor &mem, TierManager &tiers);

    /** Set the active placement oracle (must outlive the heap). */
    void setPolicy(PlacementPolicy *policy) { _policy = policy; }

    PlacementPolicy *policy() const { return _policy; }

    /**
     * Redirect slab sites to the KLOC allocation interface:
     * relocatable backing pages, grouped by knode.
     */
    void setKlocInterface(bool enabled);

    /**
     * Reclaim callback: free up to @p pages on @p tier (second arg),
     * returning pages actually freed. When set, allocations for
     * *active* knodes that cannot get their preferred tier first try
     * evicting cold clean page-cache pages from it — the kswapd-
     * style deallocation path KLOCs-nomigration depends on (§7.1).
     */
    using ReclaimHook = std::function<uint64_t(TierId, uint64_t)>;

    void setReclaimHook(ReclaimHook hook) { _reclaim = std::move(hook); }

    bool klocInterface() const { return _klocInterface; }

    /**
     * Allocate backing for @p obj.
     * @param knode_active Hotness hint passed to the policy.
     * @param group_key    Owning knode id (0 = shared pool).
     * @return false when simulated memory is exhausted.
     */
    bool allocBacking(KernelObject &obj, bool knode_active,
                      uint64_t group_key);

    /** Release @p obj's backing. */
    void freeBacking(KernelObject &obj);

    /** Charge one access to @p obj (size = the object's size). */
    void
    touchObject(KernelObject &obj, AccessType type)
    {
        // Objects can legitimately lose the race for backing under
        // memory exhaustion (e.g. a tier offlined while the rest is
        // full); callers keep using them and the access is simply
        // uncharged rather than a null dereference.
        Frame *frame = obj.frame();
        if (frame == nullptr)
            return;
        _mem.touch(frame, obj.size(), type);
    }

    /**
     * Charge @p count back-to-back accesses to @p obj: equal to
     * @p count touchObject(obj, type) calls, at a host cost that grows
     * with the events falling due among them, not with @p count.
     */
    void
    touchObject(KernelObject &obj, AccessType type, AccessCount count)
    {
        while (count > 0) {
            // Re-read the backing after every run segment: an event
            // that fell due may have migrated or freed it.
            Frame *frame = obj.frame();
            if (frame == nullptr)
                return;
            count -= _mem.touchRun(frame, obj.size(), type, count);
        }
    }

    /** Allocate one application page. */
    Frame *allocAppPage();

    /**
     * Allocate a 2^order-page application allocation — order 9 is a
     * transparent huge page (§5's multi-page-size support). Falls
     * back to nullptr when no tier has a contiguous block.
     */
    Frame *allocAppPages(unsigned order);

    /** Free an application page/huge-page allocation. */
    void freeAppPage(Frame *frame);

    /** The slab cache backing @p kind (slab kinds only). */
    KmemCache &cache(KobjKind kind);

    MemAccessor &mem() { return _mem; }
    TierManager &tiers() { return _tiers; }

    uint64_t liveAppPages() const { return _liveAppPages; }
    uint64_t cumulativeAppPages() const { return _cumAppPages; }

    /**
     * Kernel-object lifetime distribution per kind, in Ticks,
     * sampled at freeBacking() (Fig. 2d).
     */
    const Histogram &
    objLifetimeHist(KobjKind kind) const
    {
        return _objLifetimes[static_cast<unsigned>(kind)];
    }

    /**
     * Allocate an inode number from the machine-wide namespace
     * (files and sockets share it: "everything is a file").
     */
    uint64_t allocInodeId() { return _nextInodeId++; }

  private:
    /** kswapd low-watermark: free pages below this trigger reclaim. */
    static constexpr uint64_t kKswapdLowWater = 256;
    static constexpr uint64_t kKswapdBatch = 512;

    void maybeKswapd(const TierPreference &pref, bool hot);

    MemAccessor &_mem;
    TierManager &_tiers;
    PlacementPolicy *_policy = nullptr;
    bool _klocInterface = false;
    ReclaimHook _reclaim;
    unsigned _reclaimBackoff = 0;

    std::array<std::unique_ptr<KmemCache>, kNumKobjKinds> _caches;
    std::array<Histogram, kNumKobjKinds> _objLifetimes;

    uint64_t _liveAppPages = 0;
    uint64_t _cumAppPages = 0;
    uint64_t _nextInodeId = 1;
};

} // namespace kloc

#endif // KLOC_KOBJ_KERNEL_HEAP_HH
