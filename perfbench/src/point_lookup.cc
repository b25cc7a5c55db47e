/**
 * point-lookup: small Probe requests (32 Zipf-skewed keys, 5% misses)
 * against an index that fits in L3, arriving open-loop (Poisson).
 *
 *  - In-process at a busy rate, well below saturation, where walkers
 *    stay awake and tails coalesce: p50_us, p99_us.
 *  - Over one loopback TCP connection, one request in flight:
 *    wire_p50_us, wire_p99_us. The traced run also sends the same
 *    requests in-process at a low rate, where they find the walkers
 *    parked, and reports the difference as the wire's overhead.
 *  - Capacity with a fixed number of requests in flight: keys_per_s.
 *
 * The kernel does almost nothing here: park/wake, the admission
 * windows, completion and the wire dominate.
 */

#include "lookup.hh"
#include "net/server.hh"

namespace pb {

using namespace widx;

namespace {

constexpr double kBusyRate = 60'000;
constexpr double kLowRate = 5'000;
/** Round trips over TCP per second of run (one in flight). */
constexpr double kWireRequests = 5'000;
/** Requests one client keeps in flight when measuring capacity. */
constexpr unsigned kInFlight = 64;

/**
 * Capacity: one client keeps kInFlight requests outstanding for
 * `seconds`, submitting the next as each completes. Keys per second
 * is the median over ten windows of consecutive completions.
 */
double
capacity(const Dataset &d, sw::IndexService &svc, const Pool &pool,
         double seconds, Rng &rng, Report &rep)
{
    sw::CompletionQueue cq;
    std::vector<u32> slotOff(kInFlight);
    auto send = [&](u64 slot) {
        slotOff[slot] = pool.readSlice(rng);
        svc.submitAsync(RequestKind::Probe,
                        {pool.keys.data() + slotOff[slot], kReadKeys}, {}, cq,
                        slot);
    };
    for (u64 s = 0; s < kInFlight; ++s)
        send(s);
    std::vector<u64> doneAt;
    std::vector<sw::Completion> buf;
    const u64 end = nowNs() + u64(seconds * 1e9);
    u64 outstanding = kInFlight;
    while (outstanding > 0) {
        buf.clear();
        if (cq.reap(buf, kInFlight, std::chrono::nanoseconds(0)) == 0) {
            cpuRelax();
            continue;
        }
        const u64 t = nowNs();
        for (sw::Completion &c : buf) {
            --outstanding;
            doneAt.push_back(t);
            ++rep.attempted;
            const std::string why =
                c.result.status != Status::Ok
                    ? std::string("status ") + sw::statusName(c.result.status)
                    : checkRecords({pool.keys.data() + slotOff[c.tag], kReadKeys},
                                   c.result.recs, c.result.matches,
                                   [&](u64 k) { return d.exact(k); });
            if (!why.empty())
                rep.fail("point-lookup capacity: " + why);
            if (t < end) {
                send(c.tag);
                ++outstanding;
            }
        }
    }
    std::vector<double> rates;
    const std::size_t n = doneAt.size();
    for (std::size_t w = 0; w < 10 && n >= 20; ++w) {
        const std::size_t a = w * n / 10, b = (w + 1) * n / 10 - 1;
        rates.push_back(double((b - a) * kReadKeys) /
                        (double(doneAt[b] - doneAt[a]) / 1e9));
    }
    return median(rates);
}

} // namespace

void
runPointLookup(const Options &o, Report &rep)
{
    Dataset d(kSmallBits, kSmallRows, kSmallRows, o.seed);
    const Zipf z(kSmallRows, kZipfTheta);
    Rng rng(o.seed ^ 0x706f696e74ull);
    Pool pool(d, z, rng);

    std::vector<Req> busy = readSchedule(
        pool, u64(kBusyRate * o.seconds * (o.trace ? 0.2 : 0.4)), kBusyRate, rng);
    std::vector<Req> low =
        readSchedule(pool, u64(kWireRequests * o.seconds * 0.3), kLowRate, rng);
    if (o.breakOracle)
        d.breakFirstHit(pool.keys);
    auto allow = [&](u64 k) { return d.exact(k); };

    ServiceShape shape;
    shape.walkers = lookupWalkers();
    auto svc = setUp(d, shape, o.trace ? 1 : 3, rep);
    Spans spans(o.trace);
    auto all = [](u64) { return true; };

    sw::CompletionQueue cq;
    const sw::ServiceStats before = svc->stats();
    svc->resetLatencyStats();
    PhaseOut in;
    runPhase(busy, localSubmit(*svc, pool, cq), cq, pool, false, allow, rep,
             "in-process", in);
    const sw::ServiceStats after = svc->stats();
    const Tail busyTail = tailOf(latencies(in, all));
    addSpans(spans, in, "service.submitAsync");

    PhaseOut overTcp;
    {
        net::TcpIndexServer server(*svc);
        net::TcpIndexClient client("127.0.0.1", server.port());
        runPhase(low, wireSubmit(client, pool), *client.queue(), pool, false,
                 allow, rep, "tcp", overTcp, true);
        client.close();
        server.stop();
    }
    const Tail wireTail = tailOf(latencies(overTcp, all));
    addSpans(spans, overTcp, "client.submitAsync");

    std::fprintf(stderr,
                 "point-lookup: %zu probes at %.0f/s in-process p50 %.1fus "
                 "p99 %.1fus; %zu round trips over TCP p50 %.1fus p99 %.1fus\n",
                 busyTail.n, kBusyRate, busyTail.p50, busyTail.p99,
                 wireTail.n, wireTail.p50, wireTail.p99);

    if (!o.trace) {
        const double cap = capacity(d, *svc, pool, o.seconds * 0.2, rng, rep);
        std::fprintf(stderr, "point-lookup: capacity %.0f keys/s at %u in flight\n",
                     cap, kInFlight);
        rep.set("keys_per_s", cap, "1/s");
        rep.set("p50_us", busyTail.p50, "us");
        rep.set("wire_p50_us", wireTail.p50, "us");
        return;
    }

    rep.set("tail.p99_us", busyTail.p99, "us");
    rep.set("tail.wire_p99_us", wireTail.p99, "us");

    // The low-rate schedule in-process: the walkers park between
    // requests, so every request pays a wake-up.
    PhaseOut parked;
    runPhase(low, localSubmit(*svc, pool, cq), cq, pool, false, allow, rep,
             "parked", parked);
    const Tail parkedTail = tailOf(latencies(parked, all));

    reportServiceLayer(before, after, RequestKind::Probe, rep);
    rep.set("service.parked_p50_us", parkedTail.p50, "us");
    rep.set("service.parked_p99_us", parkedTail.p99, "us");
    rep.set("service.submit_call_ns",
            median(spans.selfTimes("service.submitAsync")), "ns");
    rep.set("net.overhead_p50_us", wireTail.p50 - parkedTail.p50, "us");
    rep.set("net.client_submit_ns",
            median(spans.selfTimes("client.submitAsync")), "ns");
    reportGenerator({&in, &overTcp, &parked}, rep);
    rep.set("trace.overhead_pct",
            100 * double(spans.costNs()) / ((in.wallS + overTcp.wallS) * 1e9),
            "%");

    runLedger(d, pool.readKeys(), *svc, 1024, spans, rep);
    if (!o.traceOut.empty())
        spans.write(o.traceOut);
}

} // namespace pb
