/**
 * @file
 * Simulation-layer tests: virtual clock, event queue ordering and
 * re-entrancy, memory timing model (and its access-cost memo), and
 * Machine accounting and socket tracking.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <utility>
#include <vector>

#include "base/clock.hh"
#include "base/rng.hh"
#include "sim/event_queue.hh"
#include "sim/machine.hh"
#include "sim/memory_model.hh"

namespace kloc {
namespace {

TEST(VirtualClock, AdvancesMonotonically)
{
    VirtualClock clock;
    EXPECT_EQ(clock.now(), 0);
    clock.advance(Tick{100});
    clock.advance(Tick{0});
    EXPECT_EQ(clock.now(), 100);
    clock.advanceTo(Tick{250});
    EXPECT_EQ(clock.now(), 250);
    clock.reset();
    EXPECT_EQ(clock.now(), 0);
}

TEST(EventQueue, RunsInDeadlineOrder)
{
    EventQueue events;
    std::vector<int> order;
    events.schedule(Tick{30}, [&] { order.push_back(3); });
    events.schedule(Tick{10}, [&] { order.push_back(1); });
    events.schedule(Tick{20}, [&] { order.push_back(2); });
    ASSERT_TRUE(events.nextDeadline().has_value());
    EXPECT_EQ(*events.nextDeadline(), 10);
    EXPECT_EQ(events.runDue(Tick{25}), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(events.runDue(Tick{100}), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(events.nextDeadline(), std::nullopt);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue events;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        events.schedule(Tick{50}, [&order, i] { order.push_back(i); });
    events.runDue(Tick{50});
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventSchedulingDueEventRunsInSameDrain)
{
    EventQueue events;
    std::vector<int> order;
    events.schedule(Tick{10}, [&] {
        order.push_back(1);
        events.schedule(Tick{10}, [&] { order.push_back(2); });
    });
    events.runDue(Tick{15});
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, FutureEventStaysQueued)
{
    EventQueue events;
    int fired = 0;
    events.schedule(Tick{100}, [&] { ++fired; });
    EXPECT_EQ(events.runDue(Tick{99}), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(events.runDue(Tick{100}), 1u);
    EXPECT_EQ(fired, 1);
}

TEST(MemoryModel, AccessCostScalesWithSizeAndTier)
{
    MemoryModel model;
    TierSpec fast;
    fast.name = "fast";
    fast.capacity = kMiB;
    fast.readLatency = Tick{80};
    fast.writeLatency = Tick{80};
    fast.readBandwidth = 30ULL * 1000 * kMiB;
    fast.writeBandwidth = 30ULL * 1000 * kMiB;
    const TierId f = model.addTier(fast);

    TierSpec slow = fast;
    slow.name = "slow";
    slow.readBandwidth /= 8;
    slow.writeBandwidth /= 8;
    const TierId s = model.addTier(slow);

    const Tick f_cost = model.rawCost(f, kPageSize, AccessType::Read, 0);
    const Tick s_cost = model.rawCost(s, kPageSize, AccessType::Read, 0);
    EXPECT_GT(s_cost, f_cost * 3);
    EXPECT_GT(model.rawCost(f, 64 * kKiB, AccessType::Read, 0), f_cost);
}

TEST(MemoryModel, LlcFilteringReducesExpectedCost)
{
    MemoryModel model;
    TierSpec spec;
    spec.name = "t";
    spec.capacity = kMiB;
    spec.readLatency = Tick{100};
    spec.writeLatency = Tick{100};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    const TierId t = model.addTier(spec);
    const Tick raw = model.accessCost(t, Bytes{4096}, AccessType::Read, 0);
    model.setLlcHitFraction(0.5);
    const Tick filtered = model.accessCost(t, Bytes{4096}, AccessType::Read, 0);
    EXPECT_LT(filtered, raw);
    EXPECT_GT(filtered, raw / 3);
}

TEST(MemoryModel, RemotePenaltyAndInterference)
{
    MemoryModel model;
    TierSpec spec;
    spec.name = "s0";
    spec.capacity = kMiB;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = 10 * kGiB;
    spec.writeBandwidth = 10 * kGiB;
    spec.socket = 0;
    const TierId t = model.addTier(spec);

    const Tick local = model.rawCost(t, Bytes{64}, AccessType::Read, 0);
    const Tick remote = model.rawCost(t, Bytes{64}, AccessType::Read, 1);
    EXPECT_GT(remote, local);

    model.setInterference(0, 2.0);
    const Tick loaded = model.rawCost(t, Bytes{64}, AccessType::Read, 0);
    EXPECT_NEAR(static_cast<double>(loaded),
                2.0 * static_cast<double>(local), 2.0);
    model.clearInterference();
    EXPECT_EQ(model.rawCost(t, Bytes{64}, AccessType::Read, 0), local);
}

/**
 * Independent statement of the access-cost formula: media latency
 * plus transfer time, a remote-socket penalty, the interference factor
 * of the tier's socket, then expected-value LLC filtering.
 */
struct ReferenceCostModel
{
    /** MemoryModel's LLC hit latency, ns. */
    static constexpr int64_t kLlcLatencyNs = 12;

    std::vector<TierSpec> tiers;
    std::vector<double> interference;  // per socket; missing = 1.0
    double llcHitFraction = 0.0;
    int64_t remotePenaltyNs = 60;

    double
    factor(int socket) const
    {
        const auto idx = static_cast<size_t>(socket);
        return idx < interference.size() ? interference[idx] : 1.0;
    }

    int64_t
    cost(size_t tier, uint64_t bytes, AccessType type, int from) const
    {
        const TierSpec &ts = tiers[tier];
        const bool read = type == AccessType::Read;
        const int64_t latency =
            (read ? ts.readLatency : ts.writeLatency).value();
        const uint64_t bw =
            (read ? ts.readBandwidth : ts.writeBandwidth).value();
        int64_t miss = latency + static_cast<int64_t>(
            static_cast<unsigned __int128>(bytes) * 1000000000u / bw);
        if (from != ts.socket)
            miss += remotePenaltyNs;
        if (factor(ts.socket) > 1.0) {
            miss = std::llround(static_cast<double>(miss) *
                                factor(ts.socket));
        }
        if (llcHitFraction <= 0.0)
            return miss;
        return std::llround(
            llcHitFraction * static_cast<double>(kLlcLatencyNs) +
            (1.0 - llcHitFraction) * static_cast<double>(miss));
    }
};

TierSpec
memoTierSpec(const char *name, int socket, int64_t latency_ns,
             Bytes bandwidth)
{
    TierSpec spec;
    spec.name = name;
    spec.capacity = kMiB;
    spec.readLatency = Tick{latency_ns};
    spec.writeLatency = Tick{latency_ns + 20};
    spec.readBandwidth = bandwidth;
    spec.writeBandwidth = bandwidth / 2;
    spec.socket = socket;
    return spec;
}

/**
 * Property: the memoized accessCost always equals the reference
 * formula, across random (tier, bytes, type, socket) calls with every
 * setter interleaved. Byte counts repeat often, so a setter that left
 * a stale memo entry behind is caught on the next matching call.
 */
TEST(MemoryModel, AccessCostMemoMatchesReferenceUnderSetters)
{
    MemoryModel model;
    ReferenceCostModel ref;
    const auto add_tier = [&](const TierSpec &spec) {
        const TierId id = model.addTier(spec);
        EXPECT_EQ(static_cast<size_t>(id), ref.tiers.size());
        ref.tiers.push_back(spec);
    };
    // Two tiers on two sockets; a third arrives mid-sequence.
    add_tier(memoTierSpec("fast", 0, 80, 30ULL * 1000 * kMiB));
    add_tier(memoTierSpec("slow", 1, 300, 30ULL * 1000 * kMiB / 8));

    const uint64_t sizes[] = {0, 64, 4096, 4096, 8192, 2 * 1024 * 1024};
    const auto check = [&](size_t tier, uint64_t bytes, AccessType type,
                           int from) {
        const Tick got = model.accessCost(TierId{static_cast<int>(tier)},
                                          Bytes{bytes}, type, from);
        return got.value() == ref.cost(tier, bytes, type, from);
    };
    // Every memo slot of every tier, straight after a tier arrives.
    const auto check_all = [&] {
        for (size_t tier = 0; tier < ref.tiers.size(); ++tier) {
            for (const AccessType type :
                 {AccessType::Read, AccessType::Write}) {
                for (int from = 0; from < 4; ++from) {
                    for (const uint64_t bytes : sizes) {
                        ASSERT_TRUE(check(tier, bytes, type, from))
                            << "tier " << tier << " bytes " << bytes
                            << " from socket " << from;
                    }
                }
            }
        }
    };
    check_all();

    Rng rng(0x5eed);
    for (int step = 0; step < 20000; ++step) {
        if (step == 7000) {
            add_tier(memoTierSpec("third", 2, 150, 5 * kGiB));
            check_all();
        }
        switch (rng.nextBounded(40)) {
          case 0: {
            const int socket = static_cast<int>(rng.nextBounded(4));
            const double f = 1.0 + static_cast<double>(
                rng.nextBounded(5)) * 0.25;
            model.setInterference(socket, f);
            const auto idx = static_cast<size_t>(socket);
            if (ref.interference.size() <= idx)
                ref.interference.resize(idx + 1, 1.0);
            ref.interference[idx] = f;
            break;
          }
          case 1:
            model.clearInterference();
            for (double &f : ref.interference)
                f = 1.0;
            break;
          case 2: {
            const double llc = rng.nextBool(0.3)
                ? 0.0 : static_cast<double>(rng.nextBounded(9)) * 0.1;
            model.setLlcHitFraction(llc);
            ref.llcHitFraction = llc;
            break;
          }
          case 3: {
            const auto penalty = static_cast<int64_t>(rng.nextBounded(200));
            model.setRemotePenalty(Tick{penalty});
            ref.remotePenaltyNs = penalty;
            break;
          }
          default:
            break;
        }
        const size_t tier = rng.nextBounded(ref.tiers.size());
        const uint64_t bytes = rng.nextBool(0.1)
            ? rng.nextBounded(1 << 20)
            : sizes[rng.nextBounded(std::size(sizes))];
        const AccessType type = rng.nextBool(0.5) ? AccessType::Read
                                                  : AccessType::Write;
        // Sockets 0..3: includes sockets no tier is declared on.
        const int from = static_cast<int>(rng.nextBounded(4));
        ASSERT_TRUE(check(tier, bytes, type, from))
            << "step " << step << " tier " << tier << " bytes " << bytes
            << " from socket " << from;
    }
}

TEST(Machine, SocketTopology)
{
    Machine machine(16, 2);
    EXPECT_EQ(machine.cpuCount(), 16u);
    EXPECT_EQ(machine.socketCount(), 2u);
    EXPECT_EQ(machine.socketOf(0), 0);
    EXPECT_EQ(machine.socketOf(7), 0);
    EXPECT_EQ(machine.socketOf(8), 1);
    EXPECT_EQ(machine.socketOf(15), 1);
    machine.setCurrentCpu(9);
    EXPECT_EQ(machine.currentSocket(), 1);
}

TEST(Machine, CurrentSocketTracksCurrentCpu)
{
    const std::pair<unsigned, unsigned> topologies[] = {
        {16, 2}, {16, 3}, {6, 4}, {1, 1}};
    for (const auto &[cpus, sockets] : topologies) {
        SCOPED_TRACE(testing::Message() << cpus << " cpus, " << sockets
                                        << " sockets");
        Machine machine(cpus, sockets);
        EXPECT_EQ(machine.currentSocket(),
                  machine.socketOf(machine.currentCpu()));
        Rng rng(cpus * 31 + sockets);
        for (int i = 0; i < 64; ++i) {
            const auto cpu = static_cast<unsigned>(rng.nextBounded(cpus));
            machine.setCurrentCpu(cpu);
            ASSERT_EQ(machine.currentSocket(), machine.socketOf(cpu));
        }
        machine.setCurrentCpu(cpus - 1);
        machine.reset();
        EXPECT_EQ(machine.currentCpu(), 0u);
        EXPECT_EQ(machine.currentSocket(),
                  machine.socketOf(machine.currentCpu()));
    }
}

TEST(Machine, ChargeRunsDueEvents)
{
    Machine machine(1, 1);
    int fired = 0;
    machine.events().schedule(Tick{500}, [&] { ++fired; });
    machine.charge(Tick{499});
    EXPECT_EQ(fired, 0);
    machine.charge(Tick{1});
    EXPECT_EQ(fired, 1);
}

TEST(Machine, AccessRunStopsStrictlyBeforeTheNextDeadline)
{
    Machine machine(1, 1);
    TierSpec spec;
    spec.name = "t";
    spec.capacity = kMiB;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = kGiB;
    spec.writeBandwidth = kGiB;
    const TierId t = machine.memModel().addTier(spec);
    const Tick cost = machine.memModel().accessCost(
        t, Bytes{64}, AccessType::Read, machine.currentSocket());
    ASSERT_GT(cost, 0);

    // No event pending: the whole run is charged.
    EXPECT_EQ(machine.accessRun(t, Bytes{64}, AccessType::Read,
                                RefDomain::User, AccessCount{10}),
              10u);
    EXPECT_EQ(machine.now(), cost * 10);
    EXPECT_EQ(machine.userRefs(), 10u);
    EXPECT_EQ(machine.userRefTicks(), cost * 10);

    // A deadline exactly where the 5th access ends: that access must
    // run the event, so the run stops after 4.
    int fired = 0;
    machine.events().schedule(machine.now() + cost * 5, [&] { ++fired; });
    EXPECT_EQ(machine.accessRun(t, Bytes{64}, AccessType::Read,
                                RefDomain::Kernel, AccessCount{10}),
              4u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(machine.kernelRefs(), 4u);
    EXPECT_EQ(machine.kernelRefTicks(), cost * 4);

    // The next access reaches the deadline: nothing fits.
    const Tick before = machine.now();
    EXPECT_EQ(machine.accessRun(t, Bytes{64}, AccessType::Read,
                                RefDomain::Kernel, AccessCount{10}),
              0u);
    EXPECT_EQ(machine.now(), before);
    machine.access(t, Bytes{64}, AccessType::Read, RefDomain::Kernel);
    EXPECT_EQ(fired, 1);

    // An event already due (scheduled at now) also leaves no room.
    machine.events().schedule(machine.now(), [&] { ++fired; });
    EXPECT_EQ(machine.accessRun(t, Bytes{64}, AccessType::Read,
                                RefDomain::Kernel, AccessCount{10}),
              0u);
}

TEST(Machine, CpuWorkDividesByParallelism)
{
    Machine machine(4, 1);
    machine.setCpuParallelism(4);
    const Tick start = machine.now();
    machine.cpuWork(Tick{400});
    EXPECT_EQ(machine.now() - start, 100);
    machine.setCpuParallelism(1);
    machine.cpuWork(Tick{400});
    EXPECT_EQ(machine.now() - start, 500);
}

TEST(Machine, RefAccountingSplitsDomains)
{
    Machine machine(1, 1);
    TierSpec spec;
    spec.name = "t";
    spec.capacity = kMiB;
    spec.readLatency = Tick{80};
    spec.writeLatency = Tick{80};
    spec.readBandwidth = kGiB;
    spec.writeBandwidth = kGiB;
    const TierId t = machine.memModel().addTier(spec);
    machine.access(t, Bytes{4096}, AccessType::Read, RefDomain::Kernel);
    machine.access(t, Bytes{4096}, AccessType::Write, RefDomain::User);
    machine.access(t, Bytes{64}, AccessType::Read, RefDomain::Kernel);
    EXPECT_EQ(machine.kernelRefs(), 2u);
    EXPECT_EQ(machine.userRefs(), 1u);
    EXPECT_GT(machine.kernelRefTicks(), 0);
    EXPECT_GT(machine.userRefTicks(), 0);
    machine.reset();
    EXPECT_EQ(machine.kernelRefs(), 0u);
    EXPECT_EQ(machine.now(), 0);
}

} // namespace
} // namespace kloc
