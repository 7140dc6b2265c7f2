/**
 * @file
 * api_tour: the Table 2 KLOC API, hand-driven.
 *
 * Walks exactly what Fig. 3(c)'s pseudocode sketches for a dentry
 * allocation — map a knode to a fresh inode, add kernel objects,
 * iterate the split trees, consult the kmap's LRU view, and migrate
 * a whole KLOC — without the filesystem in between. This is the
 * "OS developer" view of the abstraction.
 */

#include <cstdio>

#include "core/kloc_manager.hh"
#include "fs/objects.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"

using namespace kloc;

int
main()
{
    // A bare machine: one fast and one slow tier, no filesystem.
    Machine machine(4, 1);
    TierManager tiers(machine);
    LruEngine lru(machine, tiers);
    MemAccessor mem(machine, lru);
    MigrationEngine migrator(machine, tiers, lru);
    KernelHeap heap(mem, tiers);
    KlocManager kloc(heap, migrator);

    TierSpec spec;
    spec.name = "fast";
    spec.capacity = 16 * kMiB;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 30ULL * 1000 * kMiB;
    spec.writeBandwidth = 30ULL * 1000 * kMiB;
    const TierId fast = tiers.addTier(spec);
    spec.name = "slow";
    spec.capacity = 64 * kMiB;
    spec.readBandwidth /= 8;
    spec.writeBandwidth /= 8;
    const TierId slow = tiers.addTier(spec);

    StaticPlacement placement({fast, slow}, {fast, slow});
    heap.setPolicy(&placement);

    // sys_enable_kloc(): turn the abstraction on.
    kloc.setEnabled(true);
    kloc.setTierOrder({fast, slow});
    heap.setKlocInterface(true);

    // map_knode(): a new file's inode gets its KLOC.
    const uint64_t ino = heap.allocInodeId();
    Knode *knode = kloc.mapKnode(ino);
    std::printf("mapped knode for inode %llu (backing tier: %s)\n",
                (unsigned long long)ino,
                tiers.tier(knode->backing.frame->tier).spec().name
                    .c_str());

    // knode_add_obj(): Fig. 3(c)'s dentry allocation, then a page
    // cache page and a journal record.
    Dentry dentry;
    dentry.inodeId = ino;
    heap.allocBacking(dentry, /*knode_active=*/true, knode->id);
    kloc.addObject(knode, &dentry);

    PageCachePage page;
    page.inodeId = ino;
    heap.allocBacking(page, true, knode->id);
    kloc.addObject(knode, &page);

    JournalRecord record;
    heap.allocBacking(record, true, knode->id);
    kloc.addObject(knode, &record);

    // itr_knode_slab() / itr_knode_cache(): the split trees.
    std::printf("\nrbtree-slab members:\n");
    kloc.forEachSlabObj(knode, [](KernelObject *obj) {
        std::printf("  %-16s %4llu B on %s\n", kobjKindName(obj->kind),
                    (unsigned long long)obj->size(),
                    obj->frame()->tier == 0 ? "fast" : "slow");
    });
    std::printf("rbtree-cache members:\n");
    kloc.forEachCacheObj(knode, [](KernelObject *obj) {
        std::printf("  %-16s %4llu B on %s\n", kobjKindName(obj->kind),
                    (unsigned long long)obj->size(),
                    obj->frame()->tier == 0 ? "fast" : "slow");
    });

    // find_cpu() + the per-CPU fast path.
    machine.setCurrentCpu(2);
    kloc.markActive(knode);
    std::printf("\nfind_cpu(knode) = %d\n", kloc.findCpu(knode));
    std::printf("findKnode(%llu) fast-path hit: %s\n",
                (unsigned long long)ino,
                kloc.findKnode(ino) == knode &&
                        kloc.stats().perCpuHits > 0
                    ? "yes"
                    : "no");

    // get_LRU_knodes(): the file closes, the KLOC turns cold.
    kloc.markInactive(knode);
    auto coldest = kloc.lruKnodes(1);
    std::printf("coldest knode in the kmap: inode %llu (inuse=%d)\n",
                (unsigned long long)coldest.at(0)->id,
                coldest.at(0)->inuse ? 1 : 0);

    // Whole-KLOC migration: everything moves together.
    const uint64_t moved = kloc.migrateKnodeObjects(knode, slow);
    std::printf("\nmigrated the whole KLOC to slow memory: %llu pages "
                "(page on %s, dentry slab on %s)\n",
                (unsigned long long)moved,
                page.frame()->tier == slow ? "slow" : "fast",
                dentry.frame()->tier == slow ? "slow" : "fast");

    // sys_kloc_memsize(): cap fast-tier kernel residency.
    kloc.setMemLimit(fast, kPageSize);
    std::printf("after sys_kloc_memsize(fast, 4KB): overMemLimit=%d\n",
                kloc.overMemLimit(fast) ? 1 : 0);

    std::printf("\nmetadata: %llu bytes for %llu tracked objects\n",
                (unsigned long long)kloc.metadataBytes(),
                (unsigned long long)knode->objectCount());

    // Teardown mirrors inode deletion: objects die, then the knode.
    for (KernelObject *obj : {static_cast<KernelObject *>(&dentry),
                              static_cast<KernelObject *>(&page),
                              static_cast<KernelObject *>(&record)}) {
        kloc.removeObject(obj);
        heap.freeBacking(*obj);
    }
    kloc.unmapKnode(knode);
    std::printf("unmapped; live knodes: %llu\n",
                (unsigned long long)kloc.knodeCount());
    return 0;
}
