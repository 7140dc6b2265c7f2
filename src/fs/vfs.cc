#include "fs/vfs.hh"

#include "base/ordered.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"

namespace kloc {

namespace {

/** readdir entries copied into one DirBuffer (getdents chunking). */
constexpr size_t kDirentsPerBuffer = 64;

} // namespace

FileSystem::FileSystem(KernelHeap &heap, KlocManager *kloc,
                       const Config &config)
    : _heap(heap), _kloc(kloc), _config(config)
{
    _device = std::make_unique<BlockDevice>(heap.mem().machine(),
                                            config.device);
    _blockLayer = std::make_unique<BlockLayer>(heap, kloc, *_device);
    _journal = std::make_unique<Journal>(heap, kloc, *_blockLayer);
}

FileSystem::~FileSystem()
{
    stopDaemons();
    // Tear down every inode: pages off the global LRU, objects
    // untracked and freed, knodes unmapped.
    for (const std::string &name : nameList()) {
        // Force-close any lingering fds.
        auto it = _names.find(name);
        if (it == _names.end())
            continue;
        InodeInfo *info = infoForId(it->second);
        if (info)
            info->inode->refCount = 0;
        unlink(name);
    }
}

FileSystem::InodeInfo *
FileSystem::infoForFd(int fd)
{
    if (fd < 0 || static_cast<size_t>(fd) >= _fdTable.size())
        return nullptr;
    const uint64_t id = _fdTable[static_cast<size_t>(fd)];
    return id == 0 ? nullptr : infoForId(id);
}

FileSystem::InodeInfo *
FileSystem::infoForId(uint64_t inode_id)
{
    auto it = _inodes.find(inode_id);
    return it == _inodes.end() ? nullptr : &it->second;
}

const FileSystem::InodeInfo *
FileSystem::infoForId(uint64_t inode_id) const
{
    auto it = _inodes.find(inode_id);
    return it == _inodes.end() ? nullptr : &it->second;
}

void
FileSystem::markActive(InodeInfo &info)
{
    if (_kloc && info.knode)
        _kloc->markActive(info.knode);
}

uint64_t
FileSystem::sectorFor(uint64_t inode_id, uint64_t page_index) const
{
    // Unique, per-file-sequential device layout: each inode owns a
    // 16 GiB band of the device address space.
    constexpr uint64_t pages_per_file = 1ULL << 22;
    return (inode_id * pages_per_file + page_index) *
           (kPageSize / BlockDevice::kSectorSize);
}

Dentry *
FileSystem::lookupDentry(const std::string &name)
{
    auto it = _dentryIndex.find(name);
    if (it == _dentryIndex.end())
        return nullptr;
    Dentry *dentry = it->second;
    // dcache hit: hash walk + dentry touch.
    if (dentry->backed())
        _heap.touchObject(*dentry, AccessType::Read);
    _dentryLru.moveToFront(dentry);
    return dentry;
}

Dentry *
FileSystem::insertDentry(const std::string &name, uint64_t inode_id,
                         Knode *knode, bool active)
{
    auto dentry = std::make_unique<Dentry>();
    dentry->inodeId = inode_id;
    dentry->name = name;
    const uint64_t group = knode ? knode->id : 0;
    if (!_heap.allocBacking(*dentry, active, group))
        return nullptr;
    if (_kloc && knode)
        _kloc->addObject(knode, dentry.get());
    _heap.touchObject(*dentry, AccessType::Write);

    Dentry *raw = dentry.release();
    _dentryIndex.emplace(name, raw);
    _dentryLru.pushFront(raw);
    evictDentries();
    return raw;
}

void
FileSystem::evictDentries()
{
    while (_dentryLru.size() > _config.dentryCacheCap) {
        Dentry *victim = _dentryLru.back();
        // Never evict the dentry of a live inode we still index.
        InodeInfo *info = infoForId(victim->inodeId);
        if (info && info->dentry == victim) {
            // Rotate it away and stop; the cache is effectively at
            // capacity with live entries.
            _dentryLru.moveToFront(victim);
            return;
        }
        _dentryLru.remove(victim);
        _dentryIndex.erase(victim->name);
        if (_kloc && victim->knode)
            _kloc->removeObject(victim);
        _heap.freeBacking(*victim);
        delete victim;
    }
}

int
FileSystem::create(const std::string &name)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    ++_stats.creates;
    if (_names.count(name))
        return -1;

    const uint64_t id = _heap.allocInodeId();
    InodeInfo info;
    info.knode = _kloc ? _kloc->mapKnode(id) : nullptr;

    info.inode = std::make_unique<Inode>(id);
    const uint64_t group = info.knode ? info.knode->id : 0;
    if (!_heap.allocBacking(*info.inode, true, group)) {
        reclaimPages(FrameCount{64});
        if (!_heap.allocBacking(*info.inode, true, group))
            fatal("out of simulated memory allocating inode");
    }
    if (_kloc && info.knode)
        _kloc->addObject(info.knode, info.inode.get());
    _heap.touchObject(*info.inode, AccessType::Write);

    info.cache = std::make_unique<PageCache>(_heap, _kloc, id,
                                             _config.dataBacked);
    info.cache->setKnode(info.knode);
    info.dentry = insertDentry(name, id, info.knode, true);
    info.inode->refCount = 1;

    _journal->logMetadata(info.knode, true, id, Bytes{256});
    _names.emplace(name, id);
    auto [it, inserted] = _inodes.emplace(id, std::move(info));
    KLOC_ASSERT(inserted, "inode id collision");
    markActive(it->second);

    int fd;
    if (!_freeFds.empty()) {
        fd = _freeFds.back();
        _freeFds.pop_back();
        _fdTable[static_cast<size_t>(fd)] = id;
    } else {
        fd = static_cast<int>(_fdTable.size());
        _fdTable.push_back(id);
    }
    return fd;
}

int
FileSystem::open(const std::string &name)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    ++_stats.opens;
    auto it = _names.find(name);
    if (it == _names.end())
        return -1;
    InodeInfo *info = infoForId(it->second);
    KLOC_ASSERT(info != nullptr, "name table out of sync");

    Dentry *dentry = lookupDentry(name);
    if (!dentry) {
        // dcache miss: re-read the directory entry.
        DirBuffer dir_buf;
        const uint64_t group = info->knode ? info->knode->id : 0;
        if (_heap.allocBacking(dir_buf, true, group)) {
            if (_kloc && info->knode)
                _kloc->addObject(info->knode, &dir_buf);
            _heap.touchObject(dir_buf, AccessType::Read);
            if (_kloc && dir_buf.knode)
                _kloc->removeObject(&dir_buf);
            _heap.freeBacking(dir_buf);
        }
        info->dentry = insertDentry(name, it->second, info->knode,
                                    true);
    }

    _heap.touchObject(*info->inode, AccessType::Read);
    ++info->inode->refCount;
    markActive(*info);

    int fd;
    if (!_freeFds.empty()) {
        fd = _freeFds.back();
        _freeFds.pop_back();
        _fdTable[static_cast<size_t>(fd)] = it->second;
    } else {
        fd = static_cast<int>(_fdTable.size());
        _fdTable.push_back(it->second);
    }
    return fd;
}

void
FileSystem::close(int fd)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    ++_stats.closes;
    InodeInfo *info = infoForFd(fd);
    if (!info)
        return;
    _fdTable[static_cast<size_t>(fd)] = 0;
    _freeFds.push_back(fd);

    KLOC_ASSERT(info->inode->refCount > 0, "close underflow");
    --info->inode->refCount;
    if (info->inode->refCount == 0 && _kloc && info->knode) {
        // Last descriptor gone: the whole KLOC is now cold (§3.2).
        _kloc->markInactive(info->knode);
    }
}

void
FileSystem::touchGlobalLru(PageCachePage *page)
{
    if (page->globalLruHook.linked())
        _globalLru.moveToFront(page);
    else
        _globalLru.pushFront(page);
}

void
FileSystem::dropFromGlobalLru(PageCachePage *page)
{
    if (page->globalLruHook.linked())
        _globalLru.remove(page);
}

void
FileSystem::ensureExtents(InodeInfo &info, uint64_t last_page)
{
    const uint64_t needed = last_page / kPagesPerExtent + 1;
    const uint64_t group = info.knode ? info.knode->id : 0;
    while (info.extents.size() < needed) {
        auto extent = std::make_unique<Extent>();
        extent->firstBlock = info.extents.size() * kPagesPerExtent;
        extent->blockCount = kPagesPerExtent;
        if (!_heap.allocBacking(*extent, true, group))
            break;
        if (_kloc && info.knode)
            _kloc->addObject(info.knode, extent.get());
        _heap.touchObject(*extent, AccessType::Write);
        _journal->logMetadata(info.knode, true, info.inode->inodeId, Bytes{64});
        info.extents.push_back(std::move(extent));
    }
}

void
FileSystem::chargeExtentLookup(InodeInfo &info, uint64_t page_index)
{
    const uint64_t idx = page_index / kPagesPerExtent;
    if (idx < info.extents.size() && info.extents[idx]->backed())
        _heap.touchObject(*info.extents[idx], AccessType::Read);
}

PageCachePage *
FileSystem::getOrAllocPage(InodeInfo &info, uint64_t index, bool)
{
    PageCachePage *page = info.cache->find(index);
    if (page)
        return page;
    const bool active = info.knode ? info.knode->inuse : true;
    page = info.cache->insertNew(index, active);
    if (!page) {
        // Memory pressure: reclaim cold cache pages and retry once.
        reclaimPages(FrameCount{64});
        page = info.cache->insertNew(index, active);
    }
    if (page)
        touchGlobalLru(page);
    return page;
}

Bytes
FileSystem::write(int fd, Bytes offset, Bytes length, const char *buf)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    InodeInfo *info = infoForFd(fd);
    if (!info || length == 0)
        return Bytes{};
    ++_stats.writes;
    markActive(*info);
    _heap.touchObject(*info->inode, AccessType::Write);

    const uint64_t first_page = offset >> kPageShift;
    const uint64_t last_page = (offset + length - 1) >> kPageShift;
    ensureExtents(*info, last_page);

    Bytes written{};
    for (uint64_t index = first_page; index <= last_page; ++index) {
        const Bytes page_start{index << kPageShift};
        const Bytes start = std::max(offset, page_start);
        const Bytes end =
            std::min(offset + length, page_start + kPageSize);
        const Bytes chunk = end - start;

        PageCachePage *page = getOrAllocPage(*info, index, true);
        if (!page) {
            // Even reclaim failed: write through to the device.
            ++_stats.cacheBypasses;
            _blockLayer->submit(info->knode,
                                info->knode && info->knode->inuse,
                                sectorFor(info->inode->inodeId, index),
                                kPageSize, true, false);
            written += chunk;
            continue;
        }
        _heap.mem().touch(page->frame(), chunk, AccessType::Write);
        if (_kloc && info->knode)
            _kloc->maybePromoteOnTouch(page->frame(), info->knode);
        if (_config.dataBacked && buf && page->data) {
            std::memcpy(page->data.get() + (start - page_start),
                        buf + written, chunk);
        }
        page->uptodate = true;
        info->cache->markDirty(page);
        touchGlobalLru(page);
        written += chunk;
    }

    if (info->cache->dirtyCount() > 0 && !info->onDirtyList) {
        _dirtyInodes.insert(info->inode->inodeId);
        info->onDirtyList = true;
    }
    _journal->logMetadata(info->knode, true, info->inode->inodeId,
                          kMetaPerPage * (last_page - first_page + 1));
    info->inode->fileSize = std::max(info->inode->fileSize,
                                     offset + length);
    return written;
}

Bytes
FileSystem::read(int fd, Bytes offset, Bytes length, char *buf)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    InodeInfo *info = infoForFd(fd);
    if (!info || length == 0)
        return Bytes{};
    if (offset >= info->inode->fileSize)
        return Bytes{};
    length = std::min(length, info->inode->fileSize - offset);
    ++_stats.reads;
    markActive(*info);
    _heap.touchObject(*info->inode, AccessType::Read);

    const uint64_t first_page = offset >> kPageShift;
    const uint64_t last_page = (offset + length - 1) >> kPageShift;

    Bytes read_bytes{};
    for (uint64_t index = first_page; index <= last_page; ++index) {
        const Bytes page_start{index << kPageShift};
        const Bytes start = std::max(offset, page_start);
        const Bytes end =
            std::min(offset + length, page_start + kPageSize);
        const Bytes chunk = end - start;

        PageCachePage *page = info->cache->find(index);
        if (page && page->uptodate) {
            ++_stats.readPageHits;
        } else {
            ++_stats.readPageMisses;
            if (!page) {
                const bool active =
                    info->knode ? info->knode->inuse : true;
                page = info->cache->insertNew(index, active);
                if (!page) {
                    reclaimPages(FrameCount{64});
                    page = info->cache->insertNew(index, active);
                }
            }
            // Cold read from the device through the extent map.
            chargeExtentLookup(*info, index);
            const IoStatus status =
                _blockLayer->submit(info->knode,
                                    info->knode && info->knode->inuse,
                                    sectorFor(info->inode->inodeId,
                                              index),
                                    kPageSize, false, true);
            if (status != IoStatus::Ok)
                ++_stats.readErrors;
            if (!page) {
                ++_stats.cacheBypasses;
                read_bytes += chunk;
                continue;
            }
            // A failed read leaves the page !uptodate: the next read
            // of this index misses again and retries the device.
            page->uptodate = status == IoStatus::Ok;
        }
        _heap.mem().touch(page->frame(), chunk, AccessType::Read);
        if (_kloc && info->knode)
            _kloc->maybePromoteOnTouch(page->frame(), info->knode);
        if (_config.dataBacked && buf && page->data) {
            std::memcpy(buf + read_bytes,
                        page->data.get() + (start - page_start), chunk);
        }
        touchGlobalLru(page);
        read_bytes += chunk;
    }

    // Sequential-stream detection feeds the readahead engine.
    if (_config.readaheadEnabled && first_page == info->lastReadIndex + 1)
        issueReadahead(*info, last_page + 1);
    info->lastReadIndex = last_page;
    return read_bytes;
}

void
FileSystem::issueReadahead(InodeInfo &info, uint64_t next_index)
{
    const uint64_t file_pages =
        (info.inode->fileSize + kPageSize - 1) >> kPageShift;
    const bool active = info.knode ? info.knode->inuse : true;
    for (unsigned i = 0; i < _config.readaheadPages; ++i) {
        const uint64_t index = next_index + i;
        if (index >= file_pages)
            break;
        if (info.cache->find(index))
            continue;
        PageCachePage *page = info.cache->insertNew(index, active);
        if (!page)
            break;  // no memory: stop prefetching
        touchGlobalLru(page);
        const IoStatus status =
            _blockLayer->submit(info.knode, active,
                                sectorFor(info.inode->inodeId, index),
                                kPageSize, false, /*foreground=*/false);
        // A failed prefetch leaves the page !uptodate; a later real
        // read of it misses and retries as a foreground read.
        page->uptodate = status == IoStatus::Ok;
        ++_stats.readaheadPages;
    }
}

uint64_t
FileSystem::writebackInode(InodeInfo &info, FrameCount max_pages,
                           bool foreground)
{
    // Coalesce contiguous dirty pages into large bios, like the
    // writeback code building multi-page requests — the device sees
    // sequential bandwidth, not per-page latency. The walk batches
    // through the radix tree's tagged gang lookup into a per-depth
    // scratch buffer: one tree walk per batch instead of per-page
    // descents, and no allocation once the buffers have grown.
    if (_writebackDepth == _writebackScratch.size()) {
        // klint:allow(hot-path-alloc): amortised, one buffer per depth, reused forever.
        _writebackScratch.push_back(
            std::make_unique<std::vector<PageCachePage *>>());
    }
    std::vector<PageCachePage *> &dirty =
        *_writebackScratch[_writebackDepth];
    ++_writebackDepth;
    info.cache->collectDirty(0, max_pages, dirty);
    uint64_t written = 0;
    size_t i = 0;
    while (i < dirty.size()) {
        size_t run = 1;
        while (i + run < dirty.size() &&
               dirty[i + run]->pageIndex ==
                   dirty[i]->pageIndex + run &&
               run < 128) {
            ++run;
        }
        // Clear dirty before submitting (like PG_dirty) so a
        // re-entrant writeback triggered by the device charge does
        // not pick the same run up again.
        for (size_t j = i; j < i + run; ++j) {
            // klint:allow(reentrancy-hazard): a re-entrant writeback runs one depth deeper and owns a distinct _writebackScratch buffer, so this depth's indexes stay valid
            _heap.mem().touch(dirty[j]->frame(), kPageSize,
                              AccessType::Read);
            info.cache->clearDirty(dirty[j]);
        }
        const IoStatus status =
            _blockLayer->submit(info.knode,
                                info.knode && info.knode->inuse,
                                sectorFor(info.inode->inodeId,
                                          dirty[i]->pageIndex),
                                run * kPageSize, true, foreground);
        if (status == IoStatus::Ok) {
            _stats.writebackPages += run;
            written += run;
        } else {
            // The run never reached the device even after the block
            // layer's retries: the pages are still dirty data. Redirty
            // them so nothing is lost and a later pass tries again.
            ++_stats.writebackErrors;
            for (size_t j = i; j < i + run; ++j)
                info.cache->markDirty(dirty[j]);
        }
        i += run;
    }
    if (info.cache->dirtyCount() == 0 && info.onDirtyList) {
        _dirtyInodes.erase(info.inode->inodeId);
        info.onDirtyList = false;
    }
    --_writebackDepth;
    return written;
}

void
FileSystem::fsync(int fd)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    InodeInfo *info = infoForFd(fd);
    if (!info)
        return;
    markActive(*info);
    // Bounded by progress: a device that keeps failing leaves the
    // pages dirty, and looping on them forever would hang the sim.
    while (info->cache->dirtyCount() > 0) {
        if (writebackInode(*info, _config.writebackBatch, true) == 0)
            break;
    }
    _journal->commit(/*foreground=*/true);
}

bool
FileSystem::truncate(int fd, Bytes length)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    InodeInfo *info = infoForFd(fd);
    if (!info)
        return false;
    markActive(*info);
    _heap.touchObject(*info->inode, AccessType::Write);

    if (length < info->inode->fileSize) {
        // Shrink: pages and extents past the new end are freed
        // (truncation deallocates, like unlink for the tail, §3.2).
        const uint64_t keep_pages = pagesFor(length);
        std::vector<PageCachePage *> doomed;
        info->cache->forEachPage([&](PageCachePage *page) {
            if (page->pageIndex >= keep_pages)
                doomed.push_back(page);
        });
        for (PageCachePage *page : doomed) {
            dropFromGlobalLru(page);
            info->cache->removeAndFree(page);
        }
        const uint64_t keep_extents =
            keep_pages == 0 ? 0
                            : (keep_pages - 1) / kPagesPerExtent + 1;
        while (info->extents.size() > keep_extents) {
            auto &extent = info->extents.back();
            if (extent->backed()) {
                if (_kloc && extent->knode)
                    _kloc->removeObject(extent.get());
                _heap.freeBacking(*extent);
            }
            info->extents.pop_back();
        }
        if (info->cache->dirtyCount() == 0 && info->onDirtyList) {
            _dirtyInodes.erase(info->inode->inodeId);
            info->onDirtyList = false;
        }
    }
    _journal->logMetadata(info->knode, true, info->inode->inodeId, Bytes{128});
    info->inode->fileSize = length;
    return true;
}

bool
FileSystem::unlink(const std::string &name)
{
    Machine &machine = _heap.mem().machine();
    machine.cpuWork(kSyscallCost);
    ++_stats.unlinks;
    auto it = _names.find(name);
    if (it == _names.end())
        return false;
    const uint64_t id = it->second;
    InodeInfo *info = infoForId(id);
    KLOC_ASSERT(info != nullptr, "name table out of sync");
    if (info->inode->refCount > 0)
        return false;  // still open

    _journal->logMetadata(info->knode, false, id, Bytes{256});
    _names.erase(it);
    destroyInode(id);
    return true;
}

void
FileSystem::destroyInode(uint64_t inode_id)
{
    InodeInfo *info = infoForId(inode_id);
    KLOC_ASSERT(info != nullptr, "destroying unknown inode");

    // Deleted files' objects are deallocated, never migrated (§3.2).
    if (info->dentry) {
        Dentry *dentry = info->dentry;
        _dentryLru.remove(dentry);
        _dentryIndex.erase(dentry->name);
        if (_kloc && dentry->knode)
            _kloc->removeObject(dentry);
        _heap.freeBacking(*dentry);
        delete dentry;
        info->dentry = nullptr;
    }

    for (auto &extent : info->extents) {
        if (!extent->backed())
            continue;
        if (_kloc && extent->knode)
            _kloc->removeObject(extent.get());
        _heap.freeBacking(*extent);
    }
    info->extents.clear();

    // Pages leave the global LRU before the cache frees them.
    info->cache->forEachPage(
        [this](PageCachePage *page) { dropFromGlobalLru(page); });
    if (info->onDirtyList)
        _dirtyInodes.erase(inode_id);
    info->cache.reset();

    // In-flight journal records for this inode lose their knode.
    _journal->detachInode(inode_id);

    if (_kloc && info->inode->knode)
        _kloc->removeObject(info->inode.get());
    _heap.freeBacking(*info->inode);

    if (_kloc && info->knode)
        _kloc->unmapKnode(info->knode);

    _inodes.erase(inode_id);
}

void
FileSystem::writebackTick()
{
    if (!_daemonsRunning)
        return;
    // Snapshot (writebackInode mutates _dirtyInodes), sorted so
    // writeback order never depends on hash-table layout.
    const std::vector<uint64_t> ids = sortedSnapshot(_dirtyInodes);
    for (const uint64_t id : ids) {
        InodeInfo *info = infoForId(id);
        if (info)
            writebackInode(*info, _config.writebackBatch, false);
    }
    Machine &machine = _heap.mem().machine();
    machine.events().schedule(
        machine.now() + _config.writebackPeriod,
        [this, weak = std::weak_ptr<int>(_alive)] {
            if (!weak.expired())
                writebackTick();
        });
}

void
FileSystem::startDaemons()
{
    if (_daemonsRunning)
        return;
    _daemonsRunning = true;
    Machine &machine = _heap.mem().machine();
    machine.events().schedule(
        machine.now() + _config.writebackPeriod,
        [this, weak = std::weak_ptr<int>(_alive)] {
            if (!weak.expired())
                writebackTick();
        });
    _journal->startCommitTimer(_config.journalCommitPeriod);
}

void
FileSystem::stopDaemons()
{
    _daemonsRunning = false;
    _journal->stopCommitTimer();
}

void
FileSystem::syncAll()
{
    const std::vector<uint64_t> ids = sortedSnapshot(_dirtyInodes);
    for (const uint64_t id : ids) {
        InodeInfo *info = infoForId(id);
        if (!info)
            continue;
        // Progress-bounded for the same reason as fsync().
        while (info->cache->dirtyCount() > 0) {
            if (writebackInode(*info, _config.writebackBatch, true) == 0)
                break;
        }
    }
    _journal->commit(true);
}

PageCachePage *
FileSystem::pageForFrame(const Frame *frame)
{
    // Every cached page sits on the global LRU; a linear walk is
    // fine here because callers only arrive on the rare hwpoison
    // containment path, never per-access.
    for (PageCachePage *page : _globalLru) {
        if (page->frame() == frame)
            return page;
    }
    return nullptr;
}

bool
FileSystem::canRereadFrame(Frame *frame)
{
    if (frame->objClass != ObjClass::PageCache || frame->dirty)
        return false;
    PageCachePage *page = pageForFrame(frame);
    return page != nullptr && page->uptodate && !page->dirty;
}

bool
FileSystem::rereadFrame(Frame *frame)
{
    PageCachePage *page = pageForFrame(frame);
    if (page == nullptr || page->dirty)
        return false;
    InodeInfo *info = infoForId(page->inodeId);
    if (info == nullptr)
        return false;
    ++_stats.poisonRereads;
    const IoStatus status = _blockLayer->submit(
        info->knode, info->knode != nullptr && info->knode->inuse,
        sectorFor(page->inodeId, page->pageIndex), kPageSize,
        false, true);
    if (status != IoStatus::Ok) {
        // The page survives as a mapping but its contents are gone.
        page->uptodate = false;
        ++_stats.readErrors;
        return false;
    }
    page->uptodate = true;
    return true;
}

FrameCount
FileSystem::reclaimPages(FrameCount target)
{
    Machine &machine = _heap.mem().machine();
    uint64_t freed = 0;
    uint64_t examined = 0;
    const uint64_t max_examine = target * 4 + 32;
    while (freed < target && examined < max_examine &&
           !_globalLru.empty()) {
        PageCachePage *page = _globalLru.back();
        ++examined;
        machine.cpuWork(Tick{200});
        if (page->dirty) {
            // Write it back, then it becomes reclaimable; rotate so
            // we make progress meanwhile.
            PageCache *cache = page->owner;
            _heap.mem().touch(page->frame(), kPageSize,
                              AccessType::Read);
            const IoStatus status =
                _blockLayer->submit(cache->knode(), false,
                                    sectorFor(page->inodeId,
                                              page->pageIndex),
                                    kPageSize, true, false);
            if (status == IoStatus::Ok) {
                cache->clearDirty(page);
                ++_stats.writebackPages;
            } else {
                // Still dirty: not reclaimable. Rotate it away so the
                // scan moves on instead of spinning on this page.
                ++_stats.writebackErrors;
            }
            _globalLru.moveToFront(page);
            continue;
        }
        dropFromGlobalLru(page);
        PageCache *cache = page->owner;
        freed += 1;
        cache->removeAndFree(page);
        ++_stats.reclaimedPages;
    }
    return FrameCount{freed};
}

FrameCount
FileSystem::reclaimTierPages(TierId tier, FrameCount target)
{
    Machine &machine = _heap.mem().machine();
    uint64_t freed = 0;
    uint64_t examined = 0;
    const uint64_t max_examine = target * 8 + 64;
    PageCachePage *page = _globalLru.back();
    while (page && freed < target && examined < max_examine) {
        PageCachePage *next = _globalLru.prev(page);
        ++examined;
        machine.cpuWork(Tick{200});
        if (!page->dirty && page->frame() &&
            page->frame()->tier == tier) {
            dropFromGlobalLru(page);
            page->owner->removeAndFree(page);
            ++freed;
            ++_stats.reclaimedPages;
        }
        page = next;
    }
    return FrameCount{freed};
}

bool
FileSystem::exists(const std::string &name) const
{
    return _names.count(name) != 0;
}

std::vector<std::string>
FileSystem::nameList() const
{
    std::vector<std::string> names;
    names.reserve(_names.size());
    for (const auto &entry : _names)
        names.push_back(entry.first);
    return names;
}

std::vector<std::string>
FileSystem::readdir()
{
    _heap.mem().machine().cpuWork(kSyscallCost);
    // Copy the names out before charging any time below: a charge can
    // dispatch events that create or unlink files.
    std::vector<std::string> names = nameList();
    chargeDirents(names.size());
    return names;
}

size_t
FileSystem::getdents()
{
    _heap.mem().machine().cpuWork(kSyscallCost);
    // Count at the point readdir() copies the names.
    const size_t count = _names.size();
    chargeDirents(count);
    return count;
}

void
FileSystem::chargeDirents(size_t count)
{
    for (size_t done = 0; done < count; done += kDirentsPerBuffer) {
        const size_t fill = std::min(kDirentsPerBuffer, count - done);
        // A fresh dirent buffer: one touch to set it up, then one per
        // dirent copied into it. Unbacked, it charges nothing.
        DirBuffer dir_buf;
        if (_heap.allocBacking(dir_buf, true, 0)) {
            _heap.touchObject(dir_buf, AccessType::Write,
                              AccessCount{fill + 1});
            _heap.freeBacking(dir_buf);
        }
    }
}

Bytes
FileSystem::fileSize(const std::string &name) const
{
    auto it = _names.find(name);
    if (it == _names.end())
        return Bytes{};
    const InodeInfo *info = infoForId(it->second);
    return info ? info->inode->fileSize : Bytes{};
}

Knode *
FileSystem::knodeOf(const std::string &name) const
{
    auto it = _names.find(name);
    if (it == _names.end())
        return nullptr;
    const InodeInfo *info = infoForId(it->second);
    return info ? info->knode : nullptr;
}

} // namespace kloc
