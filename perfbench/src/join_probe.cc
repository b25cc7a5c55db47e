/**
 * join-probe: the hash-join probe phase. An 8M-row build side (a
 * 256 MiB bucket array, well above a 105 MiB L3, so walks miss) and
 * a 4M-key probe column, 10% of it misses, sent closed-loop by one
 * client as large Join requests, first in-process and then over one
 * loopback TCP connection. The kernel and the shard drain do nearly
 * all the work; coalescing, deadlines and admission do none.
 */

#include "net/client.hh"
#include "net/server.hh"
#include "workloads.hh"

namespace pb {

using namespace widx;

namespace {

constexpr unsigned kBits = 24;
constexpr u64 kRows = u64(1) << 23;
constexpr u64 kProbeKeys = u64(1) << 22;
constexpr unsigned kMissPct = 10;
constexpr std::size_t kJoinKeys = 8192;
constexpr std::size_t kLedgerKeys = std::size_t(1) << 21;

struct ClosedOut
{
    std::vector<double> latNs;
    std::vector<double> callNs;
    /** Gap between a completion and the next send (the client's own
     *  checking time): a closed loop's lateness. */
    std::vector<double> gapNs;
    double wallS = 0;

    /** Keys per second while a Join is in flight, as the median over
     *  ten windows of consecutive requests (keys over summed latency):
     *  the client's own checking between requests is not the
     *  program's time, and a host stall slows one window, not the
     *  figure. */
    double
    rate() const
    {
        const std::size_t n = latNs.size(), windows = std::min<std::size_t>(10, n);
        std::vector<double> r;
        for (std::size_t w = 0; w < windows; ++w) {
            double busyNs = 0;
            for (std::size_t i = w * n / windows; i < (w + 1) * n / windows; ++i)
                busyNs += latNs[i];
            r.push_back(double((w + 1) * n / windows - w * n / windows) *
                        double(kJoinKeys) / (busyNs / 1e9));
        }
        return median(r);
    }
};

/**
 * One client, one Join in flight: send the next slice of the probe
 * column as soon as the previous one completes, for `seconds`.
 * `call(keys, callNs)` returns the result and sets how long the
 * submitting call itself took.
 */
template <typename Call>
ClosedOut
closedLoop(const Dataset &d, std::span<const u64> column, double seconds,
           Call &&call, Spans &spans, const char *name, Report &rep)
{
    ClosedOut out;
    const u64 t0 = nowNs();
    const u64 end = t0 + u64(seconds * 1e9);
    std::size_t off = 0;
    u64 prevEnd = t0;
    for (u64 id = 0; nowNs() < end; ++id) {
        if (off + kJoinKeys > column.size())
            off = 0;
        const auto keys = column.subspan(off, kJoinKeys);
        off += kJoinKeys;
        const u64 s = nowNs();
        out.gapNs.push_back(double(s - prevEnd));
        u64 callNs = 0;
        sw::ServiceResult r = call(keys, callNs);
        const u64 e = nowNs();
        const u32 h = spans.add("request", s, e, 0, id);
        spans.add(name, s, s + callNs, h, id);
        out.latNs.push_back(double(e - s));
        out.callNs.push_back(double(callNs));
        ++rep.attempted;
        const std::string why =
            r.status != Status::Ok
                ? std::string("status ") + sw::statusName(r.status)
                : checkRecords(keys, r.recs, r.matches,
                               [&](u64 k) { return d.exact(k); });
        if (!why.empty())
            rep.fail(std::string("join-probe ") + name + ": " + why);
        prevEnd = nowNs();
    }
    out.wallS = double(nowNs() - t0) / 1e9;
    return out;
}

} // namespace

void
runJoinProbe(const Options &o, Report &rep)
{
    Dataset d(kBits, kRows, kRows, o.seed);
    Rng rng(o.seed ^ 0x6a6f696eull);
    std::vector<u64> probe(kProbeKeys);
    for (u64 &k : probe)
        k = rng.below(100) < kMissPct ? d.missKey(rng) : d.hitKey(rng);
    if (o.breakOracle)
        d.breakFirstHit(probe);

    ServiceShape shape;
    shape.walkers = hostThreads();
    auto svc = setUp(d, shape, o.trace ? 1 : 3, rep);

    Spans spans(o.trace);
    auto local = [&](std::span<const u64> keys, u64 &callNs) {
        const u64 t = nowNs();
        sw::ResultTicket tk = svc->submit(RequestKind::Join, keys);
        callNs = nowNs() - t;
        return tk.get();
    };

    const sw::ServiceStats before = svc->stats();
    svc->resetLatencyStats();
    ClosedOut in = closedLoop(d, probe, o.seconds * (o.trace ? 0.3 : 0.6),
                              local, spans, "service.submit", rep);
    const sw::ServiceStats after = svc->stats();
    const Tail inTail = tailOf(in.latNs);
    const double rate = in.rate();

    ClosedOut wire;
    {
        net::TcpIndexServer server(*svc);
        net::TcpIndexClient client("127.0.0.1", server.port());
        wire = closedLoop(
            d, probe, o.seconds * (o.trace ? 0.2 : 0.4),
            [&](std::span<const u64> keys, u64 &callNs) {
                const u64 t = nowNs();
                client.submitAsync(RequestKind::Join, keys, 0, 1);
                callNs = nowNs() - t;
                std::vector<sw::Completion> got;
                while (got.empty() && client.ok())
                    client.queue()->reap(got, 1, std::chrono::seconds(1));
                sw::ServiceResult r;
                if (got.empty())
                    r.status = Status::Cancelled;
                else
                    r = std::move(got[0].result);
                return r;
            },
            spans, "client.submitAsync", rep);
        client.close();
        server.stop();
    }
    const Tail wireTail = tailOf(wire.latNs);

    std::fprintf(stderr,
                 "join-probe: %zu joins of %zu keys in-process (%.0f keys/s, "
                 "p50 %.1fus p99 %.1fus), %zu over TCP (p50 %.1fus p99 "
                 "%.1fus)\n",
                 inTail.n, kJoinKeys, rate, inTail.p50, inTail.p99,
                 wireTail.n, wireTail.p50, wireTail.p99);

    if (!o.trace) {
        rep.set("keys_per_s", rate, "1/s");
        rep.set("p50_us", inTail.p50, "us");
        rep.set("wire_p50_us", wireTail.p50, "us");
        return;
    }

    rep.set("tail.p99_us", inTail.p99, "us");
    rep.set("tail.wire_p99_us", wireTail.p99, "us");

    reportServiceLayer(before, after, RequestKind::Join, rep);
    rep.set("service.submit_call_ns",
            median(spans.selfTimes("service.submit")), "ns");
    rep.set("net.overhead_p50_us", wireTail.p50 - inTail.p50, "us");
    rep.set("net.client_submit_ns", median(wire.callNs), "ns");
    rep.set("gen.late_p99_us", percentile(in.gapNs, 99) / 1e3, "us");
    rep.set("gen.backlog_phases", 0, "count"); // a closed loop queues nothing
    rep.set("trace.overhead_pct",
            100 * double(spans.costNs()) / ((in.wallS + wire.wallS) * 1e9), "%");

    std::span<const u64> ledgerKeys(probe.data(), kLedgerKeys);
    runLedger(d, ledgerKeys, *svc, kJoinKeys, spans, rep);
    if (!o.traceOut.empty())
        spans.write(o.traceOut);
}

} // namespace pb
