#include <thread>

#include "db/hash_join.hh"
#include "swwalkers/coro.hh"
#include "swwalkers/probers.hh"
#include "workloads.hh"

namespace pb {

using namespace widx;

Dataset::Dataset(unsigned bits, u64 rows_, u64 buckets, u64 seed)
    : perm(bits, seed), rows(rows_)
{
    build = std::make_unique<db::Column>("build", db::ValueKind::U64,
                                         arena, rows);
    for (u64 r = 0; r < rows; ++r)
        build->push(perm.key(r));
    spec.buckets = buckets;
    spec.hashFn = db::HashFn::monetdbRobust();
}

std::unique_ptr<sw::IndexService>
makeService(const Dataset &d, const ServiceShape &shape)
{
    sw::ServiceConfig cfg;
    cfg.shards = 4;
    cfg.walkers = shape.walkers;
    cfg.numa = sw::NumaPolicy::FirstTouch;
    cfg.admission.adaptive = shape.adaptive;
    cfg.mutation.enabled = shape.mutation;
    return std::make_unique<sw::IndexService>(*d.build, d.spec, cfg);
}

std::unique_ptr<sw::IndexService>
setUp(const Dataset &d, const ServiceShape &shape, int reps, Report &rep)
{
    std::vector<double> s;
    std::unique_ptr<sw::IndexService> svc;
    for (int i = 0; i < reps; ++i) {
        svc.reset(); // one index resident at a time
        const u64 t0 = nowNs();
        svc = makeService(d, shape);
        s.push_back(double(nowNs() - t0) / 1e9);
    }
    rep.set("setup_s", median(s), "s");
    return svc;
}

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

Tail
tailOf(std::vector<double> ns)
{
    Tail t;
    t.n = ns.size();
    // The p99 is taken per window of consecutive requests and the
    // median window reported: a host stall of a few milliseconds
    // (vCPU steal) lands in one window instead of in every run's p99.
    constexpr std::size_t kWindow = 1000; // ten samples beyond its p99
    const std::size_t windows = std::max<std::size_t>(1, t.n / kWindow);
    std::vector<double> p99s;
    for (std::size_t w = 0; w < windows; ++w) {
        std::vector<double> part(ns.begin() + w * t.n / windows,
                                 ns.begin() + (w + 1) * t.n / windows);
        p99s.push_back(percentile(part, 99));
    }
    t.p99 = median(p99s) / 1e3;
    t.p50 = percentile(ns, 50) / 1e3;
    return t;
}

void
reportGenerator(std::initializer_list<const PhaseOut *> phases, Report &rep)
{
    std::vector<double> late;
    double grew = 0;
    for (const PhaseOut *p : phases) {
        late.insert(late.end(), p->lateNs.begin(), p->lateNs.end());
        grew += backlogGrew(*p, 100'000);
    }
    rep.set("gen.late_p99_us", percentile(late, 99) / 1e3, "us");
    rep.set("gen.backlog_phases", grew, "count");
}

void
reportServiceLayer(const sw::ServiceStats &before,
                   const sw::ServiceStats &after, RequestKind kind,
                   Report &rep)
{
    const double windows = double(after.windows - before.windows);
    const double keys = double(after.keys - before.keys);
    const double coalesced =
        double(after.coalescedWindows - before.coalescedWindows);
    rep.set("service.keys_per_window", windows ? keys / windows : 0,
            "keys");
    rep.set("service.coalesced_ratio", windows ? coalesced / windows : 0,
            "ratio");
    const sw::KindLatency &lat = after.latencyFor(kind);
    rep.set("service.queue_wait_p50_us",
            double(lat.queueWait.p50Ns) / 1e3, "us");
    rep.set("service.drain_p50_us", double(lat.drainTime.p50Ns) / 1e3,
            "us");
}

namespace {

/** Times one ledger layer and checks its records as they stream by:
 *  every record must carry the key asked at its position and the
 *  oracle's payload, and the match total must equal the oracle's. */
class LayerCheck
{
  public:
    LayerCheck(const Dataset &d, std::span<const u64> keys, u64 hits,
               Report &rep)
        : d_(d), keys_(keys), hits_(hits), rep_(rep)
    {
    }

    auto
    sink(u64 base = 0)
    {
        return [this, base](std::size_t i, u64 key, u64 payload) {
            const std::size_t at = base + i;
            if (at >= keys_.size() || keys_[at] != key ||
                d_.exact(key).a != payload)
                ++bad_;
        };
    }

    void
    finish(const char *layer, u64 matches)
    {
        if (bad_ || matches != hits_)
            rep_.fail(std::string(layer) + ": " + std::to_string(bad_) +
                      " wrong records, " + std::to_string(matches) +
                      " matches against " + std::to_string(hits_) +
                      " expected");
        bad_ = 0;
    }

  private:
    const Dataset &d_;
    std::span<const u64> keys_;
    u64 hits_;
    Report &rep_;
    u64 bad_ = 0;
};

/** Push `keys` through a service closed-loop in requests of `step`
 *  keys, checking each; returns keys per second. */
double
serviceLayer(const Dataset &d, sw::IndexService &svc,
             std::span<const u64> keys, std::size_t step, Spans &spans,
             const char *name, Report &rep)
{
    const u32 layer = spans.open(name);
    const u64 t0 = nowNs();
    for (std::size_t off = 0, id = 0; off < keys.size(); off += step, ++id) {
        const auto part = keys.subspan(off, std::min(step, keys.size() - off));
        const u32 h = spans.open("service.submit", layer, id);
        sw::ResultTicket t = svc.submit(RequestKind::Join, part);
        spans.close(h);
        sw::ServiceResult r = t.get();
        const std::string why =
            r.status != Status::Ok
                ? std::string("status ") + sw::statusName(r.status)
                : checkRecords(part, r.recs, r.matches,
                               [&](u64 k) { return d.exact(k); });
        if (!why.empty())
            rep.fail(std::string(name) + ": " + why);
    }
    const double s = double(nowNs() - t0) / 1e9;
    spans.close(layer);
    return double(keys.size()) / s;
}

} // namespace

void
runLedger(const Dataset &d, std::span<const u64> keys,
          sw::IndexService &full, std::size_t requestKeys, Spans &spans,
          Report &rep)
{
    u64 hits = 0;
    for (u64 k : keys)
        hits += d.exact(k).a != kAbsent;
    LayerCheck check(d, keys, hits, rep);
    const double n = double(keys.size());
    auto rate = [&](u64 t0) { return n / (double(nowNs() - t0) / 1e9); };

    Arena arena;
    u32 h = spans.open("db.build");
    u64 t0 = nowNs();
    db::HashIndex flat(d.spec, arena);
    flat.buildFromColumn(*d.build);
    rep.set("db.build_s", double(nowNs() - t0) / 1e9, "s");
    spans.close(h);

    h = spans.open("db.probeBatch");
    t0 = nowNs();
    u64 m = flat.probeBatch(keys, check.sink(), true);
    rep.set("db.probe_batch_keys_per_s", rate(t0), "1/s");
    spans.close(h);
    check.finish("db.probeBatch", m);

    h = spans.open("swwalkers.amac");
    t0 = nowNs();
    m = sw::AmacProber(flat, 8).probeAll(keys, check.sink());
    const double amac = rate(t0);
    rep.set("swwalkers.amac_keys_per_s", amac, "1/s");
    spans.close(h);
    check.finish("swwalkers.amac", m);

    h = spans.open("swwalkers.coro");
    t0 = nowNs();
    m = sw::CoroProber(flat, 8).probeAll(keys, check.sink());
    rep.set("swwalkers.coro_keys_per_s", rate(t0), "1/s");
    spans.close(h);
    check.finish("swwalkers.coro", m);

    // Tag filter: the share of keys the one-byte fingerprints reject
    // before any bucket line is touched, over every key swept.
    h = spans.open("db.tagFilterBatch");
    constexpr std::size_t kChunk = db::HashIndex::kMaxProbeBatch;
    std::vector<u64> hashes(kChunk), bits(kChunk / 64);
    u64 survivors = 0;
    for (std::size_t off = 0; off < keys.size(); off += kChunk) {
        const std::size_t len = std::min(kChunk, keys.size() - off);
        flat.hashBatch(keys.subspan(off, len), {hashes.data(), len});
        survivors += flat.tagFilterBatch(hashes.data(), len, bits.data());
    }
    spans.close(h);
    rep.set("swwalkers.tag_reject_ratio", (n - double(survivors)) / n,
            "ratio");
    rep.set("swwalkers.tag_keys_swept", n, "keys");

    double drain = 0;
    {
        h = spans.open("sharded.build");
        t0 = nowNs();
        sw::ShardedIndex sharded(*d.build, d.spec, 4,
                                 sw::NumaPolicy::FirstTouch);
        rep.set("sharded.build_s", double(nowNs() - t0) / 1e9, "s");
        spans.close(h);

        h = spans.open("sharded.drain");
        t0 = nowNs();
        m = 0;
        for (std::size_t off = 0; off < keys.size(); off += kChunk) {
            const std::size_t len = std::min(kChunk, keys.size() - off);
            sharded.hashBatch(keys.subspan(off, len), {hashes.data(), len});
            sw::HashedChunkStream stream(keys.data() + off, hashes.data(),
                                         len, nullptr, off);
            m += sw::amacDrain(sharded, stream, 8, true, check.sink());
        }
        drain = rate(t0);
        rep.set("sharded.drain_keys_per_s", drain, "1/s");
        spans.close(h);
        check.finish("sharded.drain", m);
    }

    double k1 = 0;
    {
        sw::ServiceConfig cfg;
        cfg.walkers = 1;
        sw::IndexService one(flat, cfg);
        k1 = serviceLayer(d, one, keys, requestKeys, spans, "service.k1",
                          rep);
    }
    rep.set("service.k1_keys_per_s", k1, "1/s");
    const double fullRate =
        serviceLayer(d, full, keys, requestKeys, spans, "service.full", rep);
    rep.set("service.full_keys_per_s", fullRate, "1/s");

    db::Column probe("probe", db::ValueKind::U64, arena, keys.size());
    for (u64 k : keys)
        probe.push(k);
    h = spans.open("db.probeAll");
    t0 = nowNs();
    const db::JoinResult jr = db::probeAll(full, probe, true);
    const double all = rate(t0);
    spans.close(h);
    rep.set("db.probe_all_keys_per_s", all, "1/s");
    std::vector<bool> seen(keys.size());
    u64 bad = 0;
    for (const db::JoinPair &p : jr.pairs) {
        if (p.probeRow >= keys.size() || seen[p.probeRow] ||
            d.exact(keys[p.probeRow]).a != p.buildRow)
            ++bad;
        else
            seen[p.probeRow] = true;
    }
    if (jr.status != Status::Ok || bad || jr.pairs.size() != hits)
        rep.fail("db.probeAll: " + std::to_string(bad) + " wrong pairs, " +
                 std::to_string(jr.pairs.size()) + " pairs against " +
                 std::to_string(hits) + " expected");

    rep.set("ledger.sharded_vs_amac", drain / amac, "ratio");
    rep.set("ledger.k1_vs_sharded", k1 / drain, "ratio");
    rep.set("ledger.full_vs_k1", fullRate / k1, "ratio");
    rep.set("ledger.probe_all_vs_full", all / fullRate, "ratio");
}

} // namespace pb
