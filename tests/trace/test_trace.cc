/**
 * @file
 * Trace subsystem unit tests: ring-buffer behaviour, serializer
 * round-trips, listener delivery, and the invariant checker's
 * violation detection over synthetic event streams.
 */

#include <gtest/gtest.h>

#include "mem/frame.hh"
#include "platform/two_tier.hh"
#include "sim/machine.hh"
#include "trace/invariants.hh"
#include "trace/trace.hh"
#include "workload/varmail.hh"

namespace kloc {
namespace {

constexpr uint64_t kAppClass = static_cast<uint64_t>(ObjClass::App);
constexpr uint64_t kJournalClass = static_cast<uint64_t>(ObjClass::Journal);

TEST(Tracer, DisabledEmitsNothing)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    EXPECT_FALSE(tracer.enabled());
    tracer.emit(TraceEventType::FrameAlloc, 0, 1, 0, kAppClass);
    EXPECT_EQ(tracer.emitted(), 0u);
    EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, StampsSeqAndVirtualTick)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setEnabled(true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 1, 0, kAppClass);
    machine.charge(Tick{1234});
    tracer.emit(TraceEventType::FrameFree, 0, 1, 0, kAppClass);

    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].seq, 0u);
    EXPECT_EQ(events[0].tick, 0);
    EXPECT_EQ(events[1].seq, 1u);
    EXPECT_EQ(events[1].tick, 1234);
    EXPECT_EQ(events[1].type, TraceEventType::FrameFree);
}

TEST(Tracer, RingWrapsKeepingNewest)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setCapacity(8);
    tracer.setEnabled(true);
    for (uint64_t i = 0; i < 12; ++i)
        tracer.emit(TraceEventType::LruActivate, 0, i);

    EXPECT_EQ(tracer.emitted(), 12u);
    EXPECT_EQ(tracer.dropped(), 4u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 8u);
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 4 + i);  // oldest four lost
        EXPECT_EQ(events[i].args[1], 4 + i);
    }
}

TEST(Tracer, ListenersSeeEveryEventPastWrap)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setCapacity(4);
    tracer.setEnabled(true);
    uint64_t delivered = 0;
    const int id = tracer.addListener(
        [&](const TraceEvent &) { ++delivered; });
    for (uint64_t i = 0; i < 10; ++i)
        tracer.emit(TraceEventType::LruActivate, 0, i);
    EXPECT_EQ(delivered, 10u);

    tracer.removeListener(id);
    tracer.emit(TraceEventType::LruActivate, 0, 10);
    EXPECT_EQ(delivered, 10u);
}

TEST(TraceBatch, BatchedEmissionMatchesDirectByteForByte)
{
    // The same emission sequence — including clock advances between
    // events — must serialize identically whether or not a batch
    // window is open: seq and tick are stamped at emit time.
    auto drive = [](Machine &machine, bool batched) {
        Tracer &tracer = machine.tracer();
        tracer.setEnabled(true);
        auto run = [&] {
            for (uint64_t i = 0; i < 20; ++i) {
                tracer.emit(TraceEventType::LruActivate, 0, i);
                machine.charge(Tick{100});
                tracer.emit(TraceEventType::LruDeactivate, 0, i);
            }
        };
        if (batched) {
            TraceBatch batch(tracer);
            run();
        } else {
            run();
        }
        return tracer.serialize();
    };
    Machine direct(1, 1);
    Machine batched(1, 1);
    EXPECT_EQ(drive(direct, false), drive(batched, true));
}

TEST(TraceBatch, DefersListenerDeliveryWithoutReordering)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setEnabled(true);
    std::vector<uint64_t> seqs;
    tracer.addListener(
        [&](const TraceEvent &event) { seqs.push_back(event.seq); });
    {
        TraceBatch batch(tracer);
        for (uint64_t i = 0; i < 5; ++i)
            tracer.emit(TraceEventType::LruActivate, 0, i);
        EXPECT_TRUE(seqs.empty()) << "listener ran inside the window";
        EXPECT_EQ(tracer.stagedCount(), 5u);
    }
    EXPECT_EQ(tracer.stagedCount(), 0u);
    EXPECT_EQ(seqs, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(TraceBatch, WindowsNestAndFlushAtOutermostClose)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setEnabled(true);
    uint64_t delivered = 0;
    tracer.addListener([&](const TraceEvent &) { ++delivered; });
    {
        TraceBatch outer(tracer);
        tracer.emit(TraceEventType::LruActivate, 0, 1);
        {
            TraceBatch inner(tracer);
            tracer.emit(TraceEventType::LruActivate, 0, 2);
        }
        // Inner close must not flush: the outer window is open.
        EXPECT_EQ(delivered, 0u);
        EXPECT_EQ(tracer.stagedCount(), 2u);
    }
    EXPECT_EQ(delivered, 2u);
}

TEST(TraceBatch, OverflowAutoFlushesKeepingOrder)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setEnabled(true);
    const uint64_t total = 3 * Tracer::kBatchCapacity + 7;
    std::vector<uint64_t> seqs;
    tracer.addListener(
        [&](const TraceEvent &event) { seqs.push_back(event.seq); });
    {
        TraceBatch batch(tracer);
        for (uint64_t i = 0; i < total; ++i)
            tracer.emit(TraceEventType::LruActivate, 0, i);
        // The staging area filled and flushed mid-window.
        EXPECT_GE(seqs.size(), 3 * Tracer::kBatchCapacity);
    }
    ASSERT_EQ(seqs.size(), total);
    for (uint64_t i = 0; i < total; ++i)
        EXPECT_EQ(seqs[i], i);
    EXPECT_EQ(tracer.emitted(), total);
}

TEST(TraceBatch, MidWindowFlushExposesBufferedEvents)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setEnabled(true);
    TraceBatch batch(tracer);
    tracer.emit(TraceEventType::LruActivate, 0, 1);
    batch.flush();
    EXPECT_EQ(tracer.stagedCount(), 0u);
    const auto events = tracer.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].args[1], 1u);
}

TEST(TraceSerializer, RoundTripsEveryEventType)
{
    for (unsigned t = 0; t < kNumTraceEventTypes; ++t) {
        TraceEvent event;
        event.seq = 42 + t;
        event.tick = Tick{1000000007LL + t};
        event.type = static_cast<TraceEventType>(t);
        const unsigned argc = traceEventArgCount(event.type);
        for (unsigned i = 0; i < argc; ++i)
            event.args[i] = (t + 1) * 1000 + i;

        const std::string line = traceEventToString(event);
        TraceEvent parsed;
        ASSERT_TRUE(parseTraceEvent(line, parsed)) << line;
        EXPECT_EQ(parsed, event) << line;
    }
}

TEST(TraceSerializer, SerializeParseWholeBuffer)
{
    Machine machine(1, 1);
    Tracer &tracer = machine.tracer();
    tracer.setEnabled(true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 7, 0, kAppClass);
    machine.charge(Tick{50});
    tracer.emit(TraceEventType::MigStart, 0, 7, 1, 9);
    tracer.emit(TraceEventType::MigComplete, 1, 9, 1, 1);

    const std::string text = tracer.serialize();
    EXPECT_EQ(text.compare(0, 13, "# kloc-trace "), 0);
    const auto parsed = parseTrace(text);
    ASSERT_EQ(parsed.size(), 3u);
    EXPECT_EQ(parsed[0], tracer.events()[0]);
    EXPECT_EQ(parsed[2], tracer.events()[2]);
}

TEST(TraceSerializer, RejectsMalformedLines)
{
    TraceEvent out;
    EXPECT_FALSE(parseTraceEvent("", out));
    EXPECT_FALSE(parseTraceEvent("0 @0 not_an_event tier=0", out));
    EXPECT_FALSE(parseTraceEvent("0 0 frame_alloc tier=0", out));
    EXPECT_FALSE(parseTraceEvent("0 @0 frame_alloc tier=0 pfn=1", out));
    EXPECT_FALSE(
        parseTraceEvent("0 @0 lru_activate wrong=0 pfn=1", out));
}

TEST(TraceFrameKey, PacksAndUnpacks)
{
    const uint64_t key = traceFrameKey(3, Pfn{123456789ULL});
    EXPECT_EQ(traceKeyTier(key), 3);
    EXPECT_EQ(traceKeyPfn(key), 123456789ULL);
}

/** Checker harness: a tracer driven with hand-written event streams. */
class CheckerTest : public ::testing::Test
{
  protected:
    CheckerTest() : machine(1, 1), tracer(machine.tracer())
    {
        tracer.setEnabled(true);
    }

    void
    expectViolationContaining(const InvariantChecker &checker,
                              const char *needle)
    {
        ASSERT_FALSE(checker.clean()) << "expected a violation mentioning '"
                                      << needle << "'";
        bool found = false;
        for (const std::string &v : checker.violations())
            found = found || v.find(needle) != std::string::npos;
        EXPECT_TRUE(found) << checker.report();
    }

    Machine machine;
    Tracer &tracer;
};

TEST_F(CheckerTest, CleanFrameLifecycle)
{
    InvariantChecker checker(tracer, /*strict=*/true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::LruActivate, 0, 5);
    tracer.emit(TraceEventType::LruScan, 0, 1, 1, 0);
    tracer.emit(TraceEventType::LruDeactivate, 0, 5);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kAppClass);
    EXPECT_TRUE(checker.clean()) << checker.report();
    EXPECT_EQ(checker.eventsChecked(), 5u);
}

TEST_F(CheckerTest, DoubleAllocFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    expectViolationContaining(checker, "alloc over live frame");
}

TEST_F(CheckerTest, FreeWithInflightBioFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::BioSubmit, 1, traceFrameKey(0, Pfn{5}), 100, 1);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kAppClass);
    expectViolationContaining(checker, "bios in");
}

TEST_F(CheckerTest, MigrationWithInflightIoFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::BioSubmit, 1, traceFrameKey(0, Pfn{5}), 100, 0);
    tracer.emit(TraceEventType::MigStart, 0, 5, 1, 9);
    expectViolationContaining(checker, "migration of frame");
}

TEST_F(CheckerTest, MigrationRekeysFrame)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::MigStart, 0, 5, 1, 9);
    tracer.emit(TraceEventType::MigComplete, 1, 9, 1, 1);
    // The frame now lives at (1, 9): freeing it there is clean, and
    // bios against the new key bind correctly.
    tracer.emit(TraceEventType::BioSubmit, 1, traceFrameKey(1, Pfn{9}), 0, 1);
    tracer.emit(TraceEventType::BioComplete, 1);
    tracer.emit(TraceEventType::FrameFree, 1, 9, 0, kAppClass);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST_F(CheckerTest, MigrationCompleteWithoutStartFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 1, 9, 0, kAppClass);
    tracer.emit(TraceEventType::MigComplete, 1, 9, 1, 1);
    expectViolationContaining(checker, "without start");
}

TEST_F(CheckerTest, KnodeUnmapWithLiveObjectsFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::KnodeMap, 42);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::ObjTrack, 42, 1, 0, 5);
    tracer.emit(TraceEventType::KnodeUnmap, 42);
    expectViolationContaining(checker, "live tracked objects");
}

TEST_F(CheckerTest, FrameFreedWhileTrackedFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::KnodeMap, 42);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::ObjTrack, 42, 1, 0, 5);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kAppClass);
    expectViolationContaining(checker, "tracked knode objects");
    // And the later untrack sees a frame that no longer exists.
    tracer.emit(TraceEventType::ObjUntrack, 42, 1, 0, 5);
    expectViolationContaining(checker, "already freed");
}

TEST_F(CheckerTest, StrictUntrackOfFreedFrameFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::KnodeMap, 42);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::ObjUntrack, 42, 1, 0, 5);
    expectViolationContaining(checker, "already freed");
}

TEST_F(CheckerTest, AdoptingCheckerAdoptsFrameFirstSeenAtUntrack)
{
    // Attached mid-run: the knode, the frame, and the track all came
    // before the checker did.
    InvariantChecker checker(tracer);
    tracer.emit(TraceEventType::ObjUntrack, 42, 1, 0, 5);
    EXPECT_TRUE(checker.clean()) << checker.report();
    // Adoption guessed the frame inactive; it was active.
    tracer.emit(TraceEventType::LruDeactivate, 0, 5);
    EXPECT_TRUE(checker.clean()) << checker.report();
    // The adopted frame is known from now on.
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

/**
 * A default checker attached to an already-built platform: varmail's
 * load phase tracked objects on slab frames the checker never saw
 * allocated, and the measured ops untrack them.
 */
TEST(CheckerAttach, AttachedAfterVarmailSetupIsClean)
{
    constexpr unsigned kScale = 4096;
    TwoTierPlatform::Config config;
    config.scale = kScale;
    TwoTierPlatform platform(config);
    System &sys = platform.sys();
    platform.applyPolicyByName("klocs");
    sys.fs().startDaemons();

    WorkloadConfig wl_config;
    wl_config.scale = kScale;
    wl_config.operations = 1000;
    VarmailWorkload workload(wl_config);
    workload.setup(sys);

    sys.machine().tracer().setEnabled(true);
    InvariantChecker checker(sys.machine().tracer());
    workload.run(sys);
    workload.teardown(sys);
    EXPECT_GT(checker.eventsChecked(), 0u);
    EXPECT_EQ(checker.violations().size(), 0u) << checker.report();
}

TEST_F(CheckerTest, JournalFrameFreeRequiresWindow)
{
    InvariantChecker checker(tracer, true);
    // Arm the journal rule with a first (empty) commit window.
    tracer.emit(TraceEventType::JournalCommitStart, 1, 0, 0, 1);
    tracer.emit(TraceEventType::JournalCommitEnd, 1);

    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kJournalClass);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kJournalClass);
    expectViolationContaining(checker, "outside a journal");
}

TEST_F(CheckerTest, JournalFrameFreeInsideWindowClean)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kJournalClass);
    tracer.emit(TraceEventType::JournalCommitStart, 1, 1, 0, 1);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kJournalClass);
    tracer.emit(TraceEventType::JournalCommitEnd, 1);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST_F(CheckerTest, JournalRuleDormantUntilArmed)
{
    // Without any journal subsystem events, journal-class frames may
    // come and go freely (tests that slab-allocate JournalRecords
    // without a Journal are not buggy).
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kJournalClass);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kJournalClass);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST_F(CheckerTest, LruCountMismatchFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::FrameAlloc, 0, 6, 0, kAppClass);
    tracer.emit(TraceEventType::LruScan, 0, 2, 0, 2);
    EXPECT_TRUE(checker.clean()) << checker.report();
    tracer.emit(TraceEventType::LruScan, 0, 2, 1, 1);
    expectViolationContaining(checker, "LRU count mismatch");
}

TEST_F(CheckerTest, DoubleActivateFlagged)
{
    InvariantChecker checker(tracer, true);
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    tracer.emit(TraceEventType::LruActivate, 0, 5);
    tracer.emit(TraceEventType::LruActivate, 0, 5);
    expectViolationContaining(checker, "already-active");
}

TEST_F(CheckerTest, NonStrictAdoptsMidRunEntities)
{
    InvariantChecker checker(tracer, /*strict=*/false);
    // Events referencing frames/knodes that predate the attach.
    tracer.emit(TraceEventType::LruActivate, 0, 5);
    tracer.emit(TraceEventType::KnodeActivate, 42);
    tracer.emit(TraceEventType::ObjTrack, 42, 1, 0, 5);
    tracer.emit(TraceEventType::ObjUntrack, 42, 1, 0, 5);
    tracer.emit(TraceEventType::FrameFree, 0, 5, 0, kAppClass);
    // Count cross-checks are relaxed once adoption happened.
    tracer.emit(TraceEventType::LruScan, 0, 1, 7, 7);
    EXPECT_TRUE(checker.clean()) << checker.report();
}

TEST_F(CheckerTest, DetachStopsChecking)
{
    uint64_t checked = 0;
    {
        InvariantChecker checker(tracer, true);
        tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
        checked = checker.eventsChecked();
    }
    // Emitting after the checker detached must not crash.
    tracer.emit(TraceEventType::FrameAlloc, 0, 5, 0, kAppClass);
    EXPECT_EQ(checked, 1u);
}

} // namespace
} // namespace kloc
