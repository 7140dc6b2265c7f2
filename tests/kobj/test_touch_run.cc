/**
 * @file
 * Property test of the batched touch: KernelHeap::touchObject(obj,
 * type, n) must leave a system exactly as n back-to-back
 * touchObject(obj, type) calls leave an identical one — the clock,
 * the Fig. 2c reference counters, the touched frame's LRU and dirty
 * state, and the trace, byte for byte.
 *
 * Each trial builds the two systems, puts the object's frame in a
 * random starting state (off the LRU lists, inactive, inactive and
 * referenced, active), and schedules events at random deadlines, some
 * exactly on a touch boundary. The events migrate the frame, free the
 * object's backing, deactivate the frame, change the access cost, and
 * schedule further events; some trials arm a frame_poison_access
 * fault, whose draws happen per touch.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "base/rng.hh"
#include "fault/fault.hh"
#include "fs/objects.hh"
#include "kobj/kernel_heap.hh"
#include "mem/migration.hh"
#include "mem/placement.hh"
#include "sim/machine.hh"

namespace kloc {
namespace {

/** How a trial's frame starts out. */
enum class Start { Unlinked, Inactive, InactiveReferenced, Active,
                   ActiveReferenced, Count };

/** Everything one trial draws, shared by both systems. */
struct Trial
{
    uint64_t seed = 0;
    bool slab = false;
    bool startSlow = false;
    AccessType type = AccessType::Read;
    Start start = Start::Inactive;
    uint64_t touches = 0;
    unsigned events = 0;
    bool poison = false;
};

/** One simulated system with a single touched object. */
struct Stack
{
    explicit Stack(const Trial &trial)
        : machine(2, 1), tiers(machine), lru(machine, tiers),
          mem(machine, lru), migrator(machine, tiers, lru),
          heap(mem, tiers), rng(trial.seed)
    {
        TierSpec spec;
        spec.name = "fast";
        spec.capacity = 64 * kPageSize;
        spec.readLatency = Tick{80};
        spec.writeLatency = Tick{90};
        spec.readBandwidth = 10 * kGiB;
        spec.writeBandwidth = 8 * kGiB;
        fast = tiers.addTier(spec);
        spec.name = "slow";
        spec.readLatency = Tick{300};
        spec.writeLatency = Tick{450};
        spec.readBandwidth = 2 * kGiB;
        spec.writeBandwidth = 1 * kGiB;
        slow = tiers.addTier(spec);
        const TierPreference pref = trial.startSlow
            ? TierPreference{slow, fast}
            : TierPreference{fast, slow};
        placement = std::make_unique<StaticPlacement>(pref, pref);
        heap.setPolicy(placement.get());
        // Slab pages are relocatable only through the KLOC interface.
        heap.setKlocInterface(true);

        if (trial.slab)
            obj = std::make_unique<DirBuffer>();
        else
            obj = std::make_unique<KernelObject>(KobjKind::PageCachePage);
        EXPECT_TRUE(heap.allocBacking(*obj, true, 0));
        frame = obj->frame();

        switch (trial.start) {
          case Start::Unlinked:
            tiers.tier(frame->tier).inactiveList().remove(frame);
            break;
          case Start::Inactive:
            break;
          case Start::InactiveReferenced:
            lru.onAccessed(frame);
            break;
          case Start::Active:
            lru.onAccessed(frame);
            lru.onAccessed(frame);
            break;
          case Start::ActiveReferenced:
          case Start::Count:
            lru.onAccessed(frame);
            lru.onAccessed(frame);
            lru.onAccessed(frame);
            break;
        }

        if (trial.poison) {
            FaultSpec faults;
            std::string err;
            EXPECT_TRUE(FaultSpec::parse(
                "seed " + std::to_string(trial.seed % 1000 + 1) +
                    "\nframe_poison_access prob 0.03\n",
                faults, &err)) << err;
            machine.faults().configure(faults);
        }
        machine.tracer().setEnabled(true);
    }

    ~Stack()
    {
        // Pending events point at this stack; teardown charges time.
        machine.events().clear();
        heap.freeBacking(*obj);
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Cost of one touch of the object on its current tier. */
    Tick
    touchCost(AccessType type)
    {
        return machine.memModel().accessCost(
            frame->tier, obj->size(), type, machine.currentSocket());
    }

    /**
     * Schedule an event within @p horizon of now, half the time
     * exactly on a boundary between two touches of @p cost; what it
     * does is drawn when it fires.
     */
    void
    scheduleEvent(Tick horizon, Tick cost)
    {
        Tick at = machine.now();
        if (rng.nextBool(0.5) && cost > 0) {
            // Exactly where some touch's charge ends.
            const uint64_t span = static_cast<uint64_t>(horizon / cost);
            at += cost * rng.nextBounded(span + 2);
        } else {
            at += Tick{static_cast<int64_t>(
                rng.nextBounded(static_cast<uint64_t>(horizon) + 1))};
        }
        machine.events().schedule(at, [this, horizon, cost] {
            fire(horizon, cost);
        });
    }

    void
    fire(Tick horizon, Tick cost)
    {
        Frame *backing = obj->frame();
        switch (rng.nextBounded(6)) {
          case 0:
            if (backing != nullptr)
                migrator.migrateOne(backing, backing->tier == fast ? slow
                                                                   : fast);
            break;
          case 1:
            heap.freeBacking(*obj);
            break;
          case 2:
            if (backing != nullptr)
                lru.deactivate(backing);
            break;
          case 3:
            machine.memModel().setInterference(
                0, 1.0 + static_cast<double>(rng.nextBounded(4)) / 2);
            break;
          case 4:
            // Charged work of its own inside the event.
            machine.charge(Tick{static_cast<int64_t>(rng.nextBounded(50))});
            break;
          default:
            break;
        }
        if (rng.nextBool(0.4))
            scheduleEvent(horizon / 2, cost);
    }

    Machine machine;
    TierManager tiers;
    LruEngine lru;
    MemAccessor mem;
    MigrationEngine migrator;
    KernelHeap heap;
    Rng rng;
    std::unique_ptr<StaticPlacement> placement;
    std::unique_ptr<KernelObject> obj;
    /** The frame backing the object when the trial starts. */
    Frame *frame = nullptr;
    TierId fast = kInvalidTier;
    TierId slow = kInvalidTier;
};

/** Run @p trial once batched and once touch by touch; compare. */
void
checkTrial(const Trial &trial)
{
    Stack batched(trial);
    Stack single(trial);
    for (Stack *s : {&batched, &single}) {
        const Tick cost = s->touchCost(trial.type);
        const Tick horizon = cost * (trial.touches + trial.touches / 4);
        for (unsigned e = 0; e < trial.events; ++e)
            s->scheduleEvent(horizon, cost);
    }

    batched.heap.touchObject(*batched.obj, trial.type,
                             AccessCount{trial.touches});
    for (uint64_t i = 0; i < trial.touches; ++i)
        single.heap.touchObject(*single.obj, trial.type);

    const Machine &b = batched.machine;
    const Machine &s = single.machine;
    EXPECT_EQ(b.now(), s.now());
    EXPECT_EQ(b.kernelRefs(), s.kernelRefs());
    EXPECT_EQ(b.userRefs(), s.userRefs());
    EXPECT_EQ(b.kernelRefTicks(), s.kernelRefTicks());
    EXPECT_EQ(b.userRefTicks(), s.userRefTicks());
    EXPECT_EQ(batched.obj->frame() == nullptr,
              single.obj->frame() == nullptr);

    const Frame &bf = *batched.frame;
    const Frame &sf = *single.frame;
    EXPECT_EQ(bf.tier, sf.tier);
    EXPECT_EQ(bf.dirty, sf.dirty);
    EXPECT_EQ(bf.referenced, sf.referenced);
    EXPECT_EQ(bf.onActiveList, sf.onActiveList);
    EXPECT_EQ(bf.lruHook.linked(), sf.lruHook.linked());
    EXPECT_EQ(bf.poisoned, sf.poisoned);
    EXPECT_EQ(bf.lastWriteTick, sf.lastWriteTick);
    EXPECT_EQ(bf.lastAccessTick, sf.lastAccessTick);
    EXPECT_EQ(batched.machine.events().size(),
              single.machine.events().size());
    EXPECT_EQ(batched.machine.tracer().serialize(),
              single.machine.tracer().serialize());
}

Trial
drawTrial(Rng &rng, uint64_t index)
{
    Trial trial;
    trial.seed = rng.next();
    trial.slab = rng.nextBool(0.5);
    trial.startSlow = rng.nextBool(0.5);
    trial.type = rng.nextBool(0.5) ? AccessType::Write : AccessType::Read;
    trial.start = static_cast<Start>(
        rng.nextBounded(static_cast<uint64_t>(Start::Count)));
    trial.touches = 1 + rng.nextBounded(300);
    trial.events = static_cast<unsigned>(rng.nextBounded(5));
    trial.poison = index % 8 == 7;
    return trial;
}

std::string
describe(const Trial &trial)
{
    return "seed=" + std::to_string(trial.seed) +
           " slab=" + std::to_string(trial.slab) +
           " slow=" + std::to_string(trial.startSlow) +
           " write=" + std::to_string(trial.type == AccessType::Write) +
           " start=" + std::to_string(static_cast<int>(trial.start)) +
           " n=" + std::to_string(trial.touches) +
           " events=" + std::to_string(trial.events) +
           " poison=" + std::to_string(trial.poison);
}

TEST(TouchRun, EqualsBackToBackTouches)
{
    Rng rng(20261020);
    for (uint64_t i = 0; i < 600; ++i) {
        const Trial trial = drawTrial(rng, i);
        SCOPED_TRACE(describe(trial));
        checkTrial(trial);
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(TouchRun, ZeroTouchesAndUnbackedObjectsChargeNothing)
{
    Trial trial;
    Stack s(trial);
    const Tick before = s.machine.now();
    s.heap.touchObject(*s.obj, AccessType::Write, AccessCount{0});
    EXPECT_EQ(s.machine.now(), before);
    s.heap.freeBacking(*s.obj);
    const Tick freed = s.machine.now();
    s.heap.touchObject(*s.obj, AccessType::Write, AccessCount{100});
    EXPECT_EQ(s.machine.now(), freed);
    EXPECT_EQ(s.machine.kernelRefs(), 0u);
}

} // namespace
} // namespace kloc
