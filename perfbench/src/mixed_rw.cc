/**
 * mixed-rw: the point-lookup read shape with Insert/Upsert/Delete
 * arrivals beside the reads in one open-loop Poisson stream (one
 * request in ten writes 32 keys). The index starts just under the
 * rebuild watermark, so the inserts push every shard across it
 * inside the measured window: epoch pins, single writers and a
 * rebuild swap all share the probe path while it is timed.
 *
 * Every key is written at most once, so the final state does not
 * depend on order: a read of an untouched key must be exact, a read
 * of a written key may see its value before or after the write, and
 * a full sweep after the run must equal a serial replay of the
 * writes.
 */

#include <thread>
#include <unordered_map>

#include "lookup.hh"
#include "net/server.hh"

namespace pb {

using namespace widx;

namespace {

/** In-process the stream runs open-loop at a busy rate, where
 *  walkers stay awake; over TCP it runs closed-loop, one request in
 *  flight, this many per second of run. */
constexpr double kRate = 16'000;
constexpr double kWireRequests = 5'000;
/** Kinds by position in a cycle of 40 arrivals: 36 reads, 2 inserts,
 *  1 upsert, 1 delete. Fixed counts, whatever the seed. */
constexpr unsigned kCycle = 40;
RequestKind
kindAt(u64 i)
{
    switch (i % kCycle) {
      case 9:
      case 29: return RequestKind::Insert;
      case 19: return RequestKind::Upsert;
      case 39: return RequestKind::Delete;
      default: return RequestKind::Probe;
    }
}
constexpr std::size_t kWriteKeys = 32;
constexpr u64 kBuckets = u64(1) << 20;
constexpr double kWatermark = 0.75; // MutationConfig::rebuildLoadFactor
/** Share of the run's net growth after which the shards cross. */
constexpr double kCrossAt = 0.4;
constexpr u64 kUpsertTag = u64(1) << 32;
constexpr std::size_t kSweepKeys = 1024;

u64
cycles(double requests)
{
    return std::max<u64>(1, u64(requests) / kCycle);
}

} // namespace

void
runMixedRw(const Options &o, Report &rep)
{
    const u64 nBase = cycles(kRate * o.seconds * (o.trace ? 0.3 : 0.5)) * kCycle;
    const u64 nWire = cycles(kWireRequests * o.seconds * 0.3) * kCycle;
    const u64 cyclesRun = (nBase + nWire) / kCycle;
    const u64 inserts = 2 * cyclesRun * kWriteKeys;
    const u64 netGrowth = inserts - cyclesRun * kWriteKeys;
    const u64 rows =
        u64(kWatermark * double(kBuckets)) - u64(kCrossAt * double(netGrowth));

    Dataset d(kSmallBits, rows, kBuckets, o.seed);
    const Zipf z(rows, kZipfTheta);
    Rng rng(o.seed ^ 0x6d69786564ull);
    Pool pool(d, z, rng);

    // Distinct existing rows for upserts and deletes (a partial
    // Fisher-Yates shuffle); fresh slots past the build for inserts.
    std::vector<u32> victims(rows);
    for (u64 r = 0; r < rows; ++r)
        victims[r] = u32(r);
    u64 nextVictim = 0, nextFresh = rows;
    std::unordered_map<u64, u64> replay; // key -> final payload

    auto schedule = [&](u64 n, double rate) {
        std::vector<Req> s(n);
        const std::vector<u64> at = poissonTimes(n, rate, rng);
        for (u64 i = 0; i < n; ++i) {
            Req &r = s[i];
            r.atNs = at[i];
            r.kind = kindAt(i);
            if (r.kind == RequestKind::Probe) {
                r.len = kReadKeys;
                r.off = pool.readSlice(rng);
                continue;
            }
            r.len = kWriteKeys;
            r.off = u32(pool.keys.size());
            for (std::size_t k = 0; k < kWriteKeys; ++k) {
                u64 slot, pay;
                if (r.kind == RequestKind::Insert) {
                    slot = nextFresh++;
                    pay = slot;
                } else {
                    const u64 j = nextVictim + rng.below(rows - nextVictim);
                    std::swap(victims[nextVictim], victims[j]);
                    slot = victims[nextVictim++];
                    pay = r.kind == RequestKind::Upsert ? slot + kUpsertTag
                                                        : kAbsent;
                }
                const u64 key = d.perm.key(slot);
                pool.keys.push_back(key);
                pool.pays.push_back(pay);
                replay[key] = pay;
            }
        }
        return s;
    };
    std::vector<Req> base = schedule(nBase, kRate);
    std::vector<Req> wire = schedule(nWire, kRate);
    if (o.breakOracle)
        d.breakFirstHit(pool.keys);

    // Reads may see a written key before or after its write.
    auto allow = [&](u64 k) {
        const Allowed old = d.exact(k);
        const auto it = replay.find(k);
        return it == replay.end() ? old : Allowed{old.a, it->second};
    };

    ServiceShape shape;
    shape.walkers = lookupWalkers();
    shape.mutation = true;
    auto svc = setUp(d, shape, o.trace ? 1 : 3, rep);
    Spans spans(o.trace);

    // In-process, reads and writes come from two generator threads:
    // the service applies a write on the thread that submits it, and
    // one client's write must not hold up another client's reads.
    std::vector<Req> reads, writes;
    for (const Req &r : base)
        (r.kind == RequestKind::Probe ? reads : writes).push_back(r);
    sw::CompletionQueue readCq, writeCq;
    const sw::ServiceStats before = svc->stats();
    svc->resetLatencyStats();
    PhaseOut in, inWrites;
    std::thread writer([&] {
        inWrites = runOpenLoop(writes, localSubmit(*svc, pool, writeCq), writeCq,
                               recordCheck(writes, pool, allow), kGraceNs);
    });
    in = runOpenLoop(reads, localSubmit(*svc, pool, readCq), readCq,
                     recordCheck(reads, pool, allow), kGraceNs);
    writer.join();
    const sw::ServiceStats after = svc->stats();
    accountPhase(reads, in, false, rep, "mixed-rw reads");
    accountPhase(writes, inWrites, false, rep, "mixed-rw writes");
    addSpans(spans, in, "service.submitAsync");
    const Tail readTail = tailOf(latencies(in, [](u64) { return true; }));
    const Tail writeTail = tailOf(latencies(inWrites, [](u64) { return true; }));
    double okKeys = 0;
    for (const auto &[s, p] : {std::pair{&reads, &in}, {&writes, &inWrites}})
        for (u64 i = 0; i < s->size(); ++i)
            if (p->done[i].done && p->done[i].status == Status::Ok)
                okKeys += (*s)[i].len;
    const double wallS = std::max(in.wallS, inWrites.wallS);

    PhaseOut overTcp;
    {
        net::TcpIndexServer server(*svc);
        net::TcpIndexClient client("127.0.0.1", server.port());
        runPhase(wire, wireSubmit(client, pool), *client.queue(), pool, false,
                 allow, rep, "mixed-rw tcp", overTcp, true);
        client.close();
        server.stop();
    }
    addSpans(spans, overTcp, "client.submitAsync");
    const Tail wireTail = tailOf(latencies(
        overTcp, [&](u64 i) { return wire[i].kind == RequestKind::Probe; }));

    // Full sweep: every slot ever used, against the serial replay.
    const u64 rebuilds = svc->stats().rebuilds;
    std::vector<u64> all(nextFresh);
    for (u64 s = 0; s < nextFresh; ++s)
        all[s] = d.perm.key(s);
    auto final = [&](u64 k) {
        const auto it = replay.find(k);
        const u64 v = it == replay.end() ? d.exact(k).a : it->second;
        return Allowed{v, v};
    };
    for (u64 off = 0; off < all.size(); off += kSweepKeys) {
        const auto part = std::span<const u64>(all).subspan(
            off, std::min<u64>(kSweepKeys, all.size() - off));
        sw::ServiceResult r = svc->submit(RequestKind::Probe, part).get();
        ++rep.attempted;
        const std::string why =
            r.status != Status::Ok
                ? std::string("status ") + sw::statusName(r.status)
                : checkRecords(part, r.recs, r.matches, final);
        if (!why.empty())
            rep.fail("mixed-rw final sweep: " + why);
    }
    if (rebuilds != svc->shards())
        rep.fail("mixed-rw: " + std::to_string(rebuilds) + " rebuilds for " +
                 std::to_string(svc->shards()) + " shards");

    std::fprintf(stderr,
                 "mixed-rw: %zu reads p50 %.1fus p99 %.1fus, %zu writes p50 "
                 "%.1fus; %zu reads over TCP p50 %.1fus p99 %.1fus; %llu "
                 "rebuilds; %zu keys swept\n",
                 readTail.n, readTail.p50, readTail.p99, writeTail.n,
                 writeTail.p50, wireTail.n, wireTail.p50, wireTail.p99,
                 (unsigned long long)rebuilds, all.size());

    if (!o.trace) {
        rep.set("keys_per_s", okKeys / wallS, "1/s");
        rep.set("p50_us", readTail.p50, "us");
        rep.set("wire_p50_us", wireTail.p50, "us");
        return;
    }

    rep.set("tail.p99_us", readTail.p99, "us");
    rep.set("tail.wire_p99_us", wireTail.p99, "us");

    reportServiceLayer(before, after, RequestKind::Probe, rep);
    rep.set("mutation.rebuilds", double(rebuilds), "count");
    rep.set("mutation.write_p50_us", writeTail.p50, "us");
    rep.set("service.submit_call_ns",
            median(spans.selfTimes("service.submitAsync")), "ns");
    rep.set("net.overhead_p50_us", wireTail.p50 - readTail.p50, "us");
    rep.set("net.client_submit_ns",
            median(spans.selfTimes("client.submitAsync")), "ns");
    reportGenerator({&in, &inWrites, &overTcp}, rep);
    rep.set("trace.overhead_pct",
            100 * double(spans.costNs()) / ((wallS + overTcp.wallS) * 1e9),
            "%");

    // The ledger reads the unmodified build relation, so it gets a
    // fresh read-only service of the same shape.
    ServiceShape ro = shape;
    ro.mutation = false;
    auto fresh = makeService(d, ro);
    runLedger(d, pool.readKeys(), *fresh, 1024, spans, rep);
    if (!o.traceOut.empty())
        spans.write(o.traceOut);
}

} // namespace pb
