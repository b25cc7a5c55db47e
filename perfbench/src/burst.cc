/**
 * burst: the point-lookup index and request shape under on-off
 * arrivals, with adaptive admission on and a 10 ms deadline on every
 * request. Each 20 ms cycle opens with a 4 ms burst at twice the
 * saturation rate and idles at an eighth of it for the rest, so the
 * average is half of saturation. The rates are fixed constants
 * measured once on a 4-core host, not re-derived per run, so every
 * run offers the same load. This is the only workload in which the
 * admission controller acts.
 *
 * Every scheduled request must be accounted for exactly once: Ok
 * within its deadline, Ok but late, rejected, expired or cancelled.
 * The controller's rejections and expiries are not counted as failed
 * operations: their number varies from run to run, and the benchmark
 * counts as failed only what fails the same way every time. They
 * show in keys_per_s (goodput) and in the admission.* layer metrics.
 */

#include "lookup.hh"
#include "net/server.hh"

namespace pb {

using namespace widx;

namespace {

/** Saturation of 32-key probes on 2 walkers, measured with the
 *  point-lookup rate ladder on a 4-core host. */
constexpr double kSaturation = 130'000;
constexpr u64 kCycleNs = 20'000'000;
constexpr u64 kOnNs = 4'000'000;
constexpr u64 kOnRequests = u64(2 * kSaturation * kOnNs / 1e9);
constexpr u64 kOffRequests =
    u64(kSaturation / 8 * (kCycleNs - kOnNs) / 1e9);
constexpr u64 kDeadlineNs = 10'000'000;

/** `cycles` on-off cycles; arrival times are uniform within each
 *  segment, the counts per segment fixed. */
std::vector<Req>
onOff(const Pool &pool, u64 cycles, Rng &rng)
{
    std::vector<Req> s;
    auto segment = [&](u64 from, u64 len, u64 n) {
        std::vector<u64> at(n);
        for (u64 &t : at)
            t = from + rng.below(len);
        std::sort(at.begin(), at.end());
        for (u64 t : at) {
            Req r;
            r.atNs = t;
            r.len = kReadKeys;
            r.deadlineNs = kDeadlineNs;
            r.off = pool.readSlice(rng);
            s.push_back(r);
        }
    };
    for (u64 c = 0; c < cycles; ++c) {
        segment(c * kCycleNs, kOnNs, kOnRequests);
        segment(c * kCycleNs + kOnNs, kCycleNs - kOnNs, kOffRequests);
    }
    return s;
}

} // namespace

void
runBurst(const Options &o, Report &rep)
{
    Dataset d(kSmallBits, kSmallRows, kSmallRows, o.seed);
    const Zipf z(kSmallRows, kZipfTheta);
    Rng rng(o.seed ^ 0x6275727374ull);
    Pool pool(d, z, rng);
    auto nCycles = [&](double share) {
        return std::max<u64>(1, u64(o.seconds * share * 1e9 / kCycleNs));
    };
    std::vector<Req> base = onOff(pool, nCycles(o.trace ? 0.3 : 0.5), rng);
    std::vector<Req> wire = onOff(pool, nCycles(0.3), rng);
    if (o.breakOracle)
        d.breakFirstHit(pool.keys);
    auto allow = [&](u64 k) { return d.exact(k); };

    ServiceShape shape;
    shape.walkers = lookupWalkers();
    shape.adaptive = true;
    auto svc = setUp(d, shape, o.trace ? 1 : 3, rep);
    Spans spans(o.trace);

    // Goodput: keys served Ok within their deadline per second.
    auto goodput = [](const Tally &t) { return double(t.ok * kReadKeys); };
    // Latency of the calm traffic between bursts, served Ok within
    // its deadline. Burst-time latency is not reported: it moves with
    // how many requests the controller admits, against goodput.
    // Over TCP every request served Ok within its deadline counts: one
    // connection cannot send a burst at its due times, so the calm
    // requests inherit the burst's send backlog by a varying amount.
    auto okLatencies = [](const std::vector<Req> &s, const PhaseOut &p,
                          bool calmOnly) {
        return latencies(p, [&, calmOnly](u64 i) {
            return (!calmOnly || s[i].atNs % kCycleNs >= kOnNs) &&
                   p.done[i].status == Status::Ok &&
                   p.done[i].doneNs <= p.done[i].dueNs + s[i].deadlineNs;
        });
    };

    sw::CompletionQueue cq;
    const sw::ServiceStats before = svc->stats();
    svc->resetLatencyStats();
    PhaseOut in;
    const Tally t = runPhase(base, localSubmit(*svc, pool, cq), cq, pool, true,
                             allow, rep, "burst in-process", in);
    const sw::ServiceStats after = svc->stats();
    addSpans(spans, in, "service.submitAsync");
    const Tail calmTail = tailOf(okLatencies(base, in, true));

    PhaseOut overTcp;
    Tally tw;
    {
        net::TcpIndexServer server(*svc);
        net::TcpIndexClient client("127.0.0.1", server.port());
        tw = runPhase(wire, wireSubmit(client, pool), *client.queue(), pool,
                      true, allow, rep, "burst tcp", overTcp);
        client.close();
        server.stop();
    }
    addSpans(spans, overTcp, "client.submitAsync");
    const Tail wireTail = tailOf(okLatencies(wire, overTcp, false));

    std::fprintf(stderr,
                 "burst: %zu scheduled in-process: %llu ok, %llu ok late, %llu "
                 "rejected, %llu expired (calm p50 %.1fus p99 %.1fus); over "
                 "TCP %llu ok of %zu (p50 %.1fus p99 %.1fus)\n",
                 base.size(), (unsigned long long)t.ok,
                 (unsigned long long)t.okLate, (unsigned long long)t.rejected,
                 (unsigned long long)t.expired, calmTail.p50, calmTail.p99,
                 (unsigned long long)tw.ok, wire.size(), wireTail.p50,
                 wireTail.p99);

    if (!o.trace) {
        rep.set("keys_per_s", goodput(t) / in.wallS, "1/s");
        rep.set("p50_us", calmTail.p50, "us");
        rep.set("wire_p50_us", wireTail.p50, "us");
        return;
    }

    rep.set("tail.p99_us", calmTail.p99, "us");
    rep.set("tail.wire_p99_us", wireTail.p99, "us");

    reportServiceLayer(before, after, RequestKind::Probe, rep);
    rep.set("admission.rejected", double(t.rejected), "count");
    rep.set("admission.expired", double(t.expired + t.okLate), "count");
    rep.set("admission.final_budget_keys",
            double(svc->stats().admission.budgetKeys), "keys");
    rep.set("service.submit_call_ns",
            median(spans.selfTimes("service.submitAsync")), "ns");
    rep.set("net.overhead_p50_us",
            wireTail.p50 - tailOf(okLatencies(base, in, false)).p50, "us");
    rep.set("net.client_submit_ns",
            median(spans.selfTimes("client.submitAsync")), "ns");
    reportGenerator({&in, &overTcp}, rep);
    rep.set("trace.overhead_pct",
            100 * double(spans.costNs()) / ((in.wallS + overTcp.wallS) * 1e9),
            "%");

    // The same schedule against static coalescing (adaptive off): the
    // share it serves Ok within the deadline is what the controller
    // could have served.
    {
        ServiceShape fixed = shape;
        fixed.adaptive = false;
        auto stat = makeService(d, fixed);
        sw::CompletionQueue scq;
        PhaseOut s;
        const Tally ts = runPhase(base, localSubmit(*stat, pool, scq), scq, pool,
                                  true, allow, rep, "burst static", s);
        rep.set("admission.static_ok_share", double(ts.ok) / double(base.size()),
                "ratio");
        std::fprintf(stderr, "burst: static coalescing served %llu of %zu Ok "
                             "within the deadline (adaptive: %llu)\n",
                     (unsigned long long)ts.ok, base.size(),
                     (unsigned long long)t.ok);
    }

    runLedger(d, pool.readKeys(), *svc, 1024, spans, rep);
    if (!o.traceOut.empty())
        spans.write(o.traceOut);
}

} // namespace pb
