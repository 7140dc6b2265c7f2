#include "kobj/kinds.hh"

#include <iterator>

#include "base/logging.hh"

namespace kloc {

namespace {

/** One kernel-object kind: what every consumer asks of it. */
struct KindRow
{
    const char *name;
    Bytes size;
    ObjClass cls;
    bool slab;  ///< a stock kernel slab-allocates it
};

// Indexed by KobjKind. Sizes mirror the corresponding Linux
// structures (ext4, jbd2, block, net) rounded to their slab size
// classes.
constexpr KindRow kKinds[] = {
    {"inode", Bytes{1024}, ObjClass::FsSlab, true},  // ext4_inode_info
    {"dentry", Bytes{192}, ObjClass::FsSlab, true},
    {"journal_record", Bytes{120}, ObjClass::Journal, true},  // journal_head
    {"extent", Bytes{64}, ObjClass::FsSlab, true},  // extent_status
    {"bio", Bytes{200}, ObjClass::BlockIo, true},
    {"blk_mq_ctx", Bytes{384}, ObjClass::BlockIo, true},
    {"radix_node", Bytes{576}, ObjClass::FsSlab, true},  // radix_tree_node
    {"sock", Bytes{1088}, ObjClass::SockBuf, true},  // tcp_sock class
    {"skbuff", Bytes{232}, ObjClass::SockBuf, true},  // sk_buff
    {"dir_buffer", Bytes{1024}, ObjClass::FsSlab, true},
    {"page_cache_page", kPageSize, ObjClass::PageCache, false},
    {"journal_page", kPageSize, ObjClass::Journal, false},
    {"skbuff_data", kPageSize, ObjClass::SockBuf, false},
    {"rx_buf", kPageSize, ObjClass::SockBuf, false},
};
static_assert(std::size(kKinds) == kNumKobjKinds,
              "one kKinds row per KobjKind");

const KindRow &
row(KobjKind kind)
{
    const auto index = static_cast<unsigned>(kind);
    if (index >= kNumKobjKinds)
        panic("bad kobj kind %u", index);
    return kKinds[index];
}

} // namespace

Bytes
kobjSize(KobjKind kind)
{
    return row(kind).size;
}

ObjClass
kobjClass(KobjKind kind)
{
    return row(kind).cls;
}

bool
kobjIsSlab(KobjKind kind)
{
    return row(kind).slab;
}

const char *
kobjKindName(KobjKind kind)
{
    return row(kind).name;
}

} // namespace kloc
