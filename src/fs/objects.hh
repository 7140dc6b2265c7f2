/**
 * @file
 * Concrete filesystem kernel objects (Table 1).
 *
 * Each derives KernelObject so it can be slab/page backed, charged
 * through the MemAccessor, and tracked in a knode's rbtree. Host-side
 * fields carry only what the simulated code paths need.
 */

#ifndef KLOC_FS_OBJECTS_HH
#define KLOC_FS_OBJECTS_HH

#include <memory>
#include <string>
#include <vector>

#include "base/intrusive_list.hh"
#include "kobj/kobject.hh"

namespace kloc {

class PageCache;

/** Per-file inode (also used for sockets: "everything is a file"). */
struct Inode : KernelObject
{
    explicit Inode(uint64_t ino)
        : KernelObject(KobjKind::Inode), inodeId(ino)
    {}

    uint64_t inodeId;
    Bytes fileSize{};
    uint32_t refCount = 0;   ///< open file descriptors
    uint32_t linkCount = 1;  ///< directory entries
    bool isSocket = false;
    /** Owning knode (typed alias of KernelObject::knode). */
    void *klocKnode = nullptr;
};

/** Directory entry for name resolution. */
struct Dentry : KernelObject
{
    Dentry() : KernelObject(KobjKind::Dentry) {}

    uint64_t inodeId = 0;
    std::string name;
    ListHook dcacheHook;  ///< dentry-cache LRU
};

/** One contiguous-extent descriptor (ext4 extent status). */
struct Extent : KernelObject
{
    Extent() : KernelObject(KobjKind::Extent) {}

    uint64_t firstBlock = 0;
    uint32_t blockCount = 0;
};

/** A buffer-cache page belonging to one inode at one file offset. */
struct PageCachePage : KernelObject
{
    PageCachePage() : KernelObject(KobjKind::PageCachePage) {}

    uint64_t inodeId = 0;
    uint64_t pageIndex = 0;     ///< file offset / page size
    bool dirty = false;
    bool uptodate = false;      ///< contents read from disk
    PageCache *owner = nullptr;
    ListHook globalLruHook;     ///< VFS-wide reclaim list

    /** Real contents; materialised only in data-backed mode. */
    std::unique_ptr<char[]> data;
};

/** Radix-tree interior node backing (page-cache metadata). */
struct RadixNodeObj : KernelObject
{
    RadixNodeObj() : KernelObject(KobjKind::RadixNode) {}
};

/** Journal descriptor (journal_head). */
struct JournalRecord : KernelObject
{
    JournalRecord() : KernelObject(KobjKind::JournalRecord) {}

    uint64_t txId = 0;
};

/** Journal data buffer page. */
struct JournalPage : KernelObject
{
    JournalPage() : KernelObject(KobjKind::JournalPage) {}

    uint64_t txId = 0;
};

/** Block I/O request (struct bio). */
struct Bio : KernelObject
{
    Bio() : KernelObject(KobjKind::Bio) {}

    uint64_t sector = 0;
    Bytes length{};
    bool write = false;
};

/** Block multi-queue per-CPU context. */
struct BlkMqCtx : KernelObject
{
    BlkMqCtx() : KernelObject(KobjKind::BlkMqCtx) {}

    unsigned cpu = 0;
    uint64_t dispatched = 0;
};

/** Directory read buffer. */
struct DirBuffer : KernelObject
{
    DirBuffer() : KernelObject(KobjKind::DirBuffer) {}
};

} // namespace kloc

#endif // KLOC_FS_OBJECTS_HH
