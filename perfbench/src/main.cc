/**
 * @file
 * Entry point of the walker-system benchmark:
 *
 *   perfbench --workload <join-probe|point-lookup|mixed-rw|burst>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>] [--break-oracle]
 *
 * Prints one JSON line: with --trace 0 the end-to-end metrics, with
 * --trace 1 the per-layer metrics (and, with --spans, writes the
 * recorded spans as chrome://tracing JSON). --break-oracle corrupts
 * one expected record so a working program must fail the run; it
 * shows that the checks can fail.
 */

#include <string>

#include "workloads.hh"

namespace {

using namespace pb;

struct Metric
{
    const char *name, *unit;
};

/** Every run prints every metric of its kind (see README.md for what
 *  each one means on each workload). */
const Metric kEndToEnd[] = {
    {"setup_s", "s"},      {"peak_rss_mb", "MiB"}, {"keys_per_s", "1/s"},
    {"p50_us", "us"},      {"wire_p50_us", "us"},
};

const Metric kPerLayer[] = {
    // The p99 of the end-to-end requests: not steady enough on a
    // shared VM to carry a bound (see README.md), so reported here.
    {"tail.p99_us", "us"},
    {"tail.wire_p99_us", "us"},
    {"swwalkers.amac_keys_per_s", "1/s"},
    {"swwalkers.coro_keys_per_s", "1/s"},
    {"swwalkers.tag_reject_ratio", "ratio"},
    {"swwalkers.tag_keys_swept", "keys"},
    {"db.build_s", "s"},
    {"db.probe_batch_keys_per_s", "1/s"},
    {"db.probe_all_keys_per_s", "1/s"},
    {"sharded.build_s", "s"},
    {"sharded.drain_keys_per_s", "1/s"},
    {"service.k1_keys_per_s", "1/s"},
    {"service.full_keys_per_s", "1/s"},
    {"service.keys_per_window", "keys"},
    {"service.coalesced_ratio", "ratio"},
    {"service.queue_wait_p50_us", "us"},
    {"service.drain_p50_us", "us"},
    {"service.submit_call_ns", "ns"},
    {"service.parked_p50_us", "us"},
    {"service.parked_p99_us", "us"},
    {"ledger.sharded_vs_amac", "ratio"},
    {"ledger.k1_vs_sharded", "ratio"},
    {"ledger.full_vs_k1", "ratio"},
    {"ledger.probe_all_vs_full", "ratio"},
    {"admission.rejected", "count"},
    {"admission.expired", "count"},
    {"admission.final_budget_keys", "keys"},
    {"admission.static_ok_share", "ratio"},
    {"mutation.rebuilds", "count"},
    {"mutation.write_p50_us", "us"},
    {"net.overhead_p50_us", "us"},
    {"net.client_submit_ns", "ns"},
    {"gen.late_p99_us", "us"},
    {"gen.backlog_phases", "count"},
    {"trace.overhead_pct", "%"},
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <join-probe|point-lookup|mixed-rw|"
                 "burst> --seed N --seconds S --trace 0|1 [--spans PATH] "
                 "[--break-oracle]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasVal = i + 1 < argc;
        if (a == "--workload" && hasVal)
            o.workload = argv[++i];
        else if (a == "--seed" && hasVal)
            o.seed = std::stoull(argv[++i]);
        else if (a == "--seconds" && hasVal)
            o.seconds = std::stod(argv[++i]);
        else if (a == "--trace" && hasVal)
            o.trace = std::string(argv[++i]) != "0";
        else if (a == "--spans" && hasVal)
            o.traceOut = argv[++i];
        else if (a == "--break-oracle")
            o.breakOracle = true;
        else
            return usage(argv[0]);
    }
    if (o.seconds <= 0)
        return usage(argv[0]);

    Report rep;
    if (o.workload == "join-probe")
        runJoinProbe(o, rep);
    else if (o.workload == "point-lookup")
        runPointLookup(o, rep);
    else if (o.workload == "mixed-rw")
        runMixedRw(o, rep);
    else if (o.workload == "burst")
        runBurst(o, rep);
    else
        return usage(argv[0]);
    rep.set("peak_rss_mb", peakRssMb(), "MiB");

    // Keep exactly the metrics of this run's kind. A per-layer metric
    // the workload does not exercise reads 0 and is named here.
    Report out = rep;
    out.metrics.clear();
    std::string idle;
    for (const Metric &m : o.trace ? std::span<const Metric>(kPerLayer)
                                   : std::span<const Metric>(kEndToEnd)) {
        auto it = rep.metrics.find(m.name);
        if (it != rep.metrics.end()) {
            out.metrics[m.name] = {it->second.first, m.unit};
        } else if (o.trace) {
            out.metrics[m.name] = {0.0, m.unit};
            idle += std::string(" ") + m.name;
        } else {
            out.fail(std::string("end-to-end metric not measured: ") +
                     m.name);
        }
    }
    if (!idle.empty())
        std::fprintf(stderr, "%s: layers not exercised (0):%s\n",
                     o.workload.c_str(), idle.c_str());
    std::fprintf(stderr, "%s: attempted %llu, failed %llu, checks %s\n",
                 o.workload.c_str(), (unsigned long long)out.attempted,
                 (unsigned long long)out.failed,
                 out.correct ? "passed" : "FAILED");
    out.print();
    return 0;
}
