/**
 * @file
 * Machine: the composition hub every subsystem charges work through.
 *
 * Owns the virtual clock, the event queue for asynchronous kernel
 * work, the simulated CPU topology, the memory timing model, and the
 * reference-accounting counters behind Fig. 2c.
 */

#ifndef KLOC_SIM_MACHINE_HH
#define KLOC_SIM_MACHINE_HH

#include <algorithm>
#include <cstdint>
#include <optional>

#include "base/logging.hh"
#include "base/units.hh"
#include "fault/fault.hh"
#include "base/clock.hh"
#include "sim/event_queue.hh"
#include "sim/memory_model.hh"
#include "trace/trace.hh"

namespace kloc {

/** Attribution of a memory reference for Fig. 2c accounting. */
enum class RefDomain { User, Kernel };

/** The simulated machine. */
class Machine
{
  public:
    /**
     * @param num_cpus     Simulated cores.
     * @param num_sockets  NUMA sockets; cores are split evenly.
     */
    explicit Machine(unsigned num_cpus = 16, unsigned num_sockets = 1);

    // -- topology ---------------------------------------------------------
    unsigned cpuCount() const { return _numCpus; }
    unsigned socketCount() const { return _numSockets; }

    /** Socket hosting @p cpu. */
    int
    socketOf(unsigned cpu) const
    {
        return static_cast<int>(cpu / ((_numCpus + _numSockets - 1) /
                                       _numSockets));
    }

    /** CPU the current simulated thread of control runs on. */
    unsigned currentCpu() const { return _currentCpu; }

    /** Switch the thread of control to @p cpu (workload scheduling). */
    void
    setCurrentCpu(unsigned cpu)
    {
        KLOC_ASSERT(cpu < _numCpus, "cpu %u out of range", cpu);
        _currentCpu = cpu;
        _currentSocket = socketOf(cpu);
    }

    /** socketOf(currentCpu()), kept up to date by setCurrentCpu. */
    int currentSocket() const { return _currentSocket; }

    // -- time -------------------------------------------------------------
    Tick now() const { return _clock.now(); }

    /** Advance the clock by @p cost and run any due async work. */
    void
    charge(Tick cost)
    {
        _clock.advance(cost);
        _events.runDue(_clock.now());
    }

    /**
     * Charge pure CPU work (no memory attribution). The simulation
     * serialises all worker threads onto one clock; compute-bound
     * work overlaps across real cores, so it is divided by the CPU
     * parallelism factor, while memory-system charges stay serial —
     * bandwidth is the shared bottleneck the paper's platforms
     * expose.
     */
    void cpuWork(Tick cost) { charge(cost / _cpuParallelism); }

    /** Set the effective overlap factor for CPU-bound work. */
    void
    setCpuParallelism(unsigned factor)
    {
        KLOC_ASSERT(factor >= 1, "cpu parallelism below 1");
        _cpuParallelism = static_cast<int64_t>(factor);
    }

    EventQueue &events() { return _events; }
    VirtualClock &clock() { return _clock; }

    /** Event tracer every subsystem emits through (off by default). */
    Tracer &tracer() { return _tracer; }
    const Tracer &tracer() const { return _tracer; }

    /** Fault injector consulted at device/migration/journal fault
     *  points (answers "no fault" until configured). */
    FaultInjector &faults() { return _faults; }
    const FaultInjector &faults() const { return _faults; }

    // -- memory -----------------------------------------------------------
    MemoryModel &memModel() { return _memModel; }
    const MemoryModel &memModel() const { return _memModel; }

    /**
     * Charge one memory access of @p bytes against @p tier from the
     * current CPU's socket, attributed to @p domain.
     * @return the cost charged.
     */
    Tick
    access(TierId tier, Bytes bytes, AccessType type, RefDomain domain)
    {
        const Tick cost =
            _memModel.accessCost(tier, bytes, type, currentSocket());
        charge(cost);
        if (domain == RefDomain::Kernel) {
            ++_kernelRefs;
            _kernelRefTicks += cost;
        } else {
            ++_userRefs;
            _userRefTicks += cost;
        }
        return cost;
    }

    /**
     * Charge as many of @p max back-to-back access() calls (same
     * arguments) as end strictly before the next event deadline, in
     * one step. No event falls due, so this equals that many calls.
     * @return accesses charged: 0 when the first one would reach a
     *         deadline, which the caller then charges with access().
     */
    AccessCount
    accessRun(TierId tier, Bytes bytes, AccessType type, RefDomain domain,
              AccessCount max)
    {
        const Tick cost =
            _memModel.accessCost(tier, bytes, type, currentSocket());
        uint64_t fit = max;
        if (const std::optional<Tick> deadline = _events.nextDeadline()) {
            // Access k ends at now + k * cost; it must stay below
            // the deadline.
            const Tick room = *deadline - now();
            if (room <= 0)
                fit = 0;
            else if (cost > 0)
                fit = std::min<uint64_t>(fit, (room - 1) / cost);
        }
        const Tick total = cost * fit;
        _clock.advance(total);
        if (domain == RefDomain::Kernel) {
            _kernelRefs += fit;
            _kernelRefTicks += total;
        } else {
            _userRefs += fit;
            _userRefTicks += total;
        }
        return AccessCount{fit};
    }

    /**
     * Account asynchronous memory traffic (migration copies, device
     * DMA) on the clock without reference attribution.
     */
    void
    backgroundTraffic(Tick cost)
    {
        // Background copies overlap with foreground execution; only a
        // fraction of their cost surfaces as foreground stall. The
        // paper's migration threads run on dedicated CPUs (§5).
        charge(cost / 4);
    }

    // -- Fig. 2c accounting -------------------------------------------------
    uint64_t kernelRefs() const { return _kernelRefs; }
    uint64_t userRefs() const { return _userRefs; }
    Tick kernelRefTicks() const { return _kernelRefTicks; }
    Tick userRefTicks() const { return _userRefTicks; }

    /** Reset clock, events, and counters between experiment runs. */
    void reset();

  private:
    unsigned _numCpus;
    unsigned _numSockets;
    int64_t _cpuParallelism = 8;
    MemoryModel _memModel;
    VirtualClock _clock;
    EventQueue _events;
    Tracer _tracer{_clock};
    FaultInjector _faults{_tracer};
    unsigned _currentCpu = 0;
    int _currentSocket = 0;

    uint64_t _kernelRefs = 0;
    uint64_t _userRefs = 0;
    Tick _kernelRefTicks{};
    Tick _userRefTicks{};
};

} // namespace kloc

#endif // KLOC_SIM_MACHINE_HH
