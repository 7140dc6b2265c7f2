/**
 * @file
 * MemAccessor: the single funnel for simulated memory touches.
 *
 * Charges the timing cost of an access against the frame's current
 * tier and keeps the LRU engine's referenced bits up to date, so
 * placement (which tier) and policy (what the LRU sees) both flow
 * from the same call.
 */

#ifndef KLOC_MEM_ACCESSOR_HH
#define KLOC_MEM_ACCESSOR_HH

#include "mem/lru.hh"
#include "sim/machine.hh"

namespace kloc {

/** Charges memory touches and maintains reference bits. */
class MemAccessor
{
  public:
    MemAccessor(Machine &machine, LruEngine &lru)
        : _machine(machine), _lru(lru)
    {}

    /**
     * Touch @p bytes of @p frame. Charges tier cost, attributes the
     * reference to kernel/user per the frame's class, and informs
     * the LRU engine.
     */
    void
    touch(Frame *frame, Bytes bytes, AccessType type)
    {
        _machine.access(frame->tier, bytes, type, domainOf(frame));
        markWritten(frame, type);
        _lru.onAccessed(frame);
    }

    /**
     * Make the leading touches of a run of @p count back-to-back
     * touch() calls on @p frame: a batch that ends before the next
     * event deadline, or else one touch(). After that touch, events
     * may have re-homed or freed the frame, so the caller looks it up
     * again before going on. Equals that many touch() calls.
     * @return touches made, at least one when @p count is.
     */
    AccessCount
    touchRun(Frame *frame, Bytes bytes, AccessType type, AccessCount count)
    {
        // A linked inactive frame changes LRU standing on its next
        // two touches, and an armed injector draws on every touch:
        // go one touch at a time until neither holds.
        if (_lru.accessIsStable(frame)) {
            const AccessCount done = _machine.accessRun(
                frame->tier, bytes, type, domainOf(frame), count);
            if (done > 0) {
                // No event ran, so every touch found the frame as the
                // first did. They differ only in their timestamps, and
                // the last touch's are the ones that stay.
                markWritten(frame, type);
                _lru.onAccessedStable(frame);
                return done;
            }
        }
        touch(frame, bytes, type);
        return AccessCount{1};
    }

    Machine &machine() { return _machine; }
    LruEngine &lru() { return _lru; }

  private:
    static RefDomain
    domainOf(const Frame *frame)
    {
        return isKernelClass(frame->objClass) ? RefDomain::Kernel
                                              : RefDomain::User;
    }

    void
    markWritten(Frame *frame, AccessType type)
    {
        if (type == AccessType::Write) {
            frame->dirty = true;
            frame->lastWriteTick = _machine.now();
        }
    }

    Machine &_machine;
    LruEngine &_lru;
};

} // namespace kloc

#endif // KLOC_MEM_ACCESSOR_HH
