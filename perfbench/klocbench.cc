/**
 * @file
 * One benchmark repeat: drive a workload through the measured run
 * protocol on the default two-tier platform under the klocs policy,
 * time every phase call from outside the simulator, and print one
 * JSON object on stdout. run.py starts one process per repeat and
 * aggregates the repeats; see README.md.
 *
 *   klocbench --driver D --ops N --seed S --mode measure|traced|probe
 *
 * measure  phases timed with the Tracer off.
 * traced   the same phases with the Tracer and InvariantChecker on.
 * probe    the measure protocol, then (after the snapshot) direct calls
 *          into each layer's public functions on the loaded state.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/two_tier.hh"
#include "trace/invariants.hh"
#include "workload/runner.hh"
#include "workload/workload.hh"

using namespace kloc;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Minimal JSON object writer: keys in insertion order. */
class JsonObject
{
  public:
    void
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        raw(key, buf);
    }

    void str(const std::string &key, const std::string &value)
    {
        raw(key, "\"" + value + "\"");
    }

    void flag(const std::string &key, bool value)
    {
        raw(key, value ? "true" : "false");
    }

    void
    raw(const std::string &key, const std::string &json)
    {
        _body += (_body.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    }

    std::string text() const { return "{" + _body + "}"; }

  private:
    std::string _body;
};

/** Phase timer: records the host seconds and the order of each call. */
class Phases
{
  public:
    template <class F>
    void
    time(const std::string &name, F &&call)
    {
        const auto start = Clock::now();
        call();
        _times.num(name + "_s", secondsSince(start));
        mark(name);
    }

    /** Note an untimed step, so the order of calls is reported. */
    void mark(const std::string &name) { _order.push_back(name); }

    const JsonObject &times() const { return _times; }

    std::string
    order() const
    {
        std::string out = "[";
        for (size_t i = 0; i < _order.size(); ++i)
            out += (i ? ", \"" : "\"") + _order[i] + "\"";
        return out + "]";
    }

  private:
    JsonObject _times;
    std::vector<std::string> _order;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** FNV-1a over the full-precision snapshot: equal iff bit-identical. */
std::string
digest(const StatSet &snapshot, const WorkloadResult &result)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    auto feed = [&](const std::string &text) {
        for (const unsigned char c : text) {
            hash ^= c;
            hash *= 0x100000001b3ULL;
        }
    };
    char buf[64];
    for (const auto &[name, value] : snapshot.values()) {
        std::snprintf(buf, sizeof(buf), " %.17g\n", value);
        feed(name + buf);
    }
    std::snprintf(buf, sizeof(buf), "ops %" PRIu64 " elapsed %" PRId64,
                  result.operations, result.elapsed.value());
    feed(buf);
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
    return buf;
}

/** Simulated counts of the measured run; deterministic per seed. */
JsonObject
simulatedCounts(System &sys, const WorkloadResult &result)
{
    JsonObject sim;
    sim.num("sim.virt_ms", static_cast<double>(result.elapsed.value()) /
                               static_cast<double>(kMillisecond.value()));
    const double kernel = static_cast<double>(sys.machine().kernelRefs());
    const double user = static_cast<double>(sys.machine().userRefs());
    sim.num("sim.kernel_ref_share", ratio(kernel, kernel + user));
    const MigrationStats &mig = sys.migrator().stats();
    sim.num("mem.migrated_pages", static_cast<double>(mig.migratedPages));
    sim.num("mem.migration_success_ratio",
            ratio(static_cast<double>(mig.movedFrames),
                  static_cast<double>(mig.attempts)));
    const FsStats &fs = sys.fs().stats();
    sim.num("fs.read_hit_ratio",
            ratio(static_cast<double>(fs.readPageHits),
                  static_cast<double>(fs.readPageHits + fs.readPageMisses)));
    sim.num("fs.journal_commits",
            static_cast<double>(sys.fs().journal().committedTxs()));
    sim.num("fs.device_requests",
            static_cast<double>(sys.fs().device().requests()));
    sim.num("fs.live_inodes", static_cast<double>(sys.fs().liveInodes()));
    const NetStats &net = sys.net().stats();
    sim.num("net.packets_delivered",
            static_cast<double>(net.packetsDelivered));
    sim.num("net.early_demux_ratio",
            ratio(static_cast<double>(net.earlyDemuxPackets),
                  static_cast<double>(net.packetsDelivered)));
    const KlocStats &kloc = sys.kloc().stats();
    sim.num("core.knodes_created", static_cast<double>(kloc.knodesCreated));
    sim.num("core.percpu_hit_ratio",
            ratio(static_cast<double>(kloc.perCpuHits),
                  static_cast<double>(kloc.perCpuHits + kloc.perCpuMisses)));
    sim.num("core.metadata_peak_bytes",
            static_cast<double>(sys.kloc().peakMetadataBytes().value()));
    return sim;
}

/**
 * Host nanoseconds per unit of @p call: five batches, median of the
 * per-batch means. @p call runs one batch and returns its unit count.
 */
double
probeNs(const std::function<uint64_t(unsigned batch)> &call)
{
    std::vector<double> per_unit;
    for (unsigned batch = 0; batch < 5; ++batch) {
        const auto start = Clock::now();
        const uint64_t units = call(batch);
        const double ns = 1e9 * secondsSince(start);
        if (units > 0)
            per_unit.push_back(ns / static_cast<double>(units));
    }
    if (per_unit.empty())
        return 0.0;
    std::sort(per_unit.begin(), per_unit.end());
    return per_unit[per_unit.size() / 2];
}

/**
 * Call each layer's public functions directly on the loaded
 * end-of-run state. Mutates the state, so it runs after the snapshot.
 */
JsonObject
runProbes(TwoTierPlatform &platform)
{
    System &sys = platform.sys();
    FileSystem &fs = sys.fs();
    const TierId fast = platform.fastTier();
    const TierId slow = platform.slowTier();
    constexpr Bytes kIo = 8 * kKiB;
    JsonObject out;

    const std::vector<std::string> names = fs.readdir();
    out.num("fs.readdir_entries", static_cast<double>(names.size()));
    out.num("fs.readdir_ns", probeNs([&](unsigned) {
        for (int i = 0; i < 3; ++i)
            fs.readdir();
        return 3;
    }));

    constexpr unsigned kFiles = 200;
    auto probeName = [](unsigned batch, unsigned i) {
        return "perfbench_probe_" + std::to_string(batch) + "_" +
               std::to_string(i);
    };
    out.num("fs.create_write_fsync_ns", probeNs([&](unsigned batch) {
        for (unsigned i = 0; i < kFiles; ++i) {
            const int fd = fs.create(probeName(batch, i));
            fs.write(fd, Bytes{0}, kIo);
            fs.fsync(fd);
            fs.close(fd);
        }
        return kFiles;
    }));
    out.num("fs.open_read_ns", probeNs([&](unsigned batch) {
        for (unsigned i = 0; i < kFiles; ++i) {
            const std::string &name = names.empty()
                ? probeName(batch, i)
                : names[(batch * kFiles + i) % names.size()];
            const int fd = fs.open(name);
            fs.read(fd, Bytes{0}, kIo);
            fs.close(fd);
        }
        return kFiles;
    }));
    out.num("fs.unlink_ns", probeNs([&](unsigned batch) {
        for (unsigned i = 0; i < kFiles; ++i)
            fs.unlink(probeName(batch, i));
        return kFiles;
    }));

    NetworkStack &net = sys.net();
    out.num("net.request_ns", probeNs([&](unsigned) {
        for (unsigned i = 0; i < kFiles; ++i) {
            const int sd = net.socket();
            net.deliver(sd, Bytes{512});
            net.recv(sd, Bytes{512});
            net.send(sd, 16 * kKiB);
            net.closeSocket(sd);
        }
        return kFiles;
    }));

    std::vector<uint64_t> inodes;
    for (const std::string &name : names) {
        if (const Knode *knode = fs.knodeOf(name))
            inodes.push_back(knode->id);
    }
    out.num("core.find_knode_ns", probeNs([&](unsigned) -> uint64_t {
        if (inodes.empty())
            return 0;
        constexpr uint64_t kLookups = 20000;
        for (uint64_t i = 0; i < kLookups; ++i)
            sys.kloc().findKnode(inodes[i % inodes.size()]);
        return kLookups;
    }));

    ScanResult scan;
    out.num("mem.lru_scan_ns_per_page", probeNs([&](unsigned) {
        uint64_t pages = 0;
        for (int i = 0; i < 8; ++i) {
            sys.lru().scanTier(i % 2 ? slow : fast, FrameCount{4096}, scan);
            pages += scan.pagesVisited;
        }
        return pages;
    }));

    KernelHeap &heap = sys.heap();
    out.num("kobj.app_page_ns", probeNs([&](unsigned) {
        constexpr uint64_t kPages = 2000;
        for (uint64_t i = 0; i < kPages; ++i) {
            if (Frame *frame = heap.allocAppPage())
                heap.freeAppPage(frame);
        }
        return kPages;
    }));

    std::vector<Frame *> pages;
    for (int i = 0; i < 512; ++i) {
        if (Frame *frame = heap.allocAppPage())
            pages.push_back(frame);
    }
    out.num("mem.migrate_ns_per_page", probeNs([&](unsigned) {
        uint64_t moved = 0;
        for (Frame *frame : pages)
            moved += sys.migrator().migrateOne(
                frame, frame->tier == fast ? slow : fast);
        return moved;
    }));
    for (Frame *frame : pages)
        heap.freeAppPage(frame);

    Machine &machine = sys.machine();
    out.num("sim.access_ns", probeNs([&](unsigned) {
        constexpr uint64_t kAccesses = 200000;
        for (uint64_t i = 0; i < kAccesses; ++i) {
            machine.access(i % 2 ? slow : fast, Bytes{64},
                           i % 4 < 2 ? AccessType::Read : AccessType::Write,
                           RefDomain::User);
        }
        return kAccesses;
    }));
    out.num("sim.daemon_ns_per_virt_ms", probeNs([&](unsigned) {
        constexpr uint64_t kWindowMs = 100;
        for (uint64_t i = 0; i < kWindowMs; ++i)
            machine.charge(kMillisecond);
        return kWindowMs;
    }));
    return out;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

[[noreturn]] void
usage()
{
    std::fputs("usage: klocbench --driver D --ops N --seed S "
               "--mode measure|traced|probe\n", stderr);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string driver;
    std::string mode = "measure";
    WorkloadConfig config;
    config.operations = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--driver")
            driver = value;
        else if (flag == "--ops")
            config.operations = std::strtoull(value, nullptr, 10);
        else if (flag == "--seed")
            config.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--mode")
            mode = value;
        else
            usage();
    }
    if (argc % 2 == 0 || config.operations == 0 ||
        (mode != "measure" && mode != "traced" && mode != "probe")) {
        usage();
    }
    const bool traced = mode == "traced";
    // makeWorkload rejects unknown drivers before anything is timed.
    std::unique_ptr<Workload> workload = makeWorkload(driver, config);

    Phases phases;
    std::unique_ptr<TwoTierPlatform> platform;
    phases.time("platform.build",
                [&] { platform = std::make_unique<TwoTierPlatform>(); });
    System &sys = platform->sys();
    phases.time("policy.install", [&] {
        platform->applyPolicyByName("klocs");
        sys.fs().startDaemons();
    });
    Tracer &tracer = sys.machine().tracer();
    std::unique_ptr<InvariantChecker> checker;
    if (traced) {
        tracer.setEnabled(true);
        checker = std::make_unique<InvariantChecker>(tracer);
    }

    WorkloadResult result;
    {
        // The same batched window runMeasured opens around the run.
        TraceBatch batch(tracer);
        phases.time("workload.load", [&] { workload->setup(sys); });
        phases.time("fs.sync", [&] { sys.fs().syncAll(); });
        phases.time("sim.quiesce",
                    [&] { sys.machine().charge(kQuiesceWindow); });
        phases.time("workload.run", [&] { result = workload->run(sys); });
    }
    const std::string snapshot_digest = digest(sys.snapshot(), result);
    const JsonObject sim = simulatedCounts(sys, result);
    phases.mark("snapshot");

    JsonObject probes;
    if (mode == "probe") {
        probes = runProbes(*platform);
        phases.mark("probes");
    }
    phases.time("workload.teardown", [&] { workload->teardown(sys); });

    JsonObject out;
    out.str("driver", driver);
    out.str("mode", mode);
    out.raw("seed", std::to_string(config.seed));
    out.num("ops_requested", static_cast<double>(config.operations));
    out.num("ops_done", static_cast<double>(result.operations));
    out.str("digest", snapshot_digest);
    out.raw("order", phases.order());
    out.raw("phases", phases.times().text());
    out.raw("sim", sim.text());
    out.raw("probes", probes.text());
    if (traced) {
        tracer.setEnabled(false);
        out.num("trace_events", static_cast<double>(tracer.emitted()));
        out.flag("checker_clean", checker->clean());
        out.num("checker_violations",
                static_cast<double>(checker->violations().size()));
    }
    out.num("peak_rss_mb", peakRssMb());
    std::printf("%s\n", out.text().c_str());
    return 0;
}
