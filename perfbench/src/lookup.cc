#include "lookup.hh"

namespace pb {

using namespace widx;

Pool::Pool(const Dataset &d, const Zipf &z, Rng &rng) : reads(kReadPool)
{
    keys.resize(reads);
    pays.resize(reads);
    for (u64 &k : keys)
        k = rng.below(100) < kReadMissPct ? d.missKey(rng)
                                          : d.perm.key(z.draw(rng) % d.rows);
}

SubmitFn
localSubmit(sw::IndexService &svc, const Pool &pool,
            sw::CompletionQueue &cq)
{
    return [&svc, &pool, &cq](u64 tag, const Req &r, u64 dueAbs) {
        sw::SubmitOptions opt;
        if (r.deadlineNs)
            opt.deadlineNs = dueAbs + r.deadlineNs;
        if (r.kind == RequestKind::Insert || r.kind == RequestKind::Upsert)
            opt.payloads = {pool.pays.data() + r.off, r.len};
        svc.submitAsync(r.kind, {pool.keys.data() + r.off, r.len}, opt, cq,
                        tag);
    };
}

SubmitFn
wireSubmit(net::TcpIndexClient &client, const Pool &pool)
{
    return [&client, &pool](u64 tag, const Req &r, u64) {
        std::span<const u64> pays;
        if (r.kind == RequestKind::Insert || r.kind == RequestKind::Upsert)
            pays = {pool.pays.data() + r.off, r.len};
        client.submitAsync(r.kind, {pool.keys.data() + r.off, r.len},
                           r.deadlineNs, tag, 0, pays);
    };
}

void
addSpans(Spans &spans, const PhaseOut &p, const char *call)
{
    for (u64 i = 0; i < p.done.size(); ++i) {
        const Done &d = p.done[i];
        if (!d.done)
            continue;
        const u32 h = spans.add("request", d.dueNs, d.doneNs, 0, i);
        spans.add(call, d.sentNs, d.sentNs + d.callNs, h, i);
    }
}

std::vector<Req>
readSchedule(const Pool &pool, u64 n, double rate, Rng &rng)
{
    std::vector<Req> s(n);
    const std::vector<u64> at = poissonTimes(n, rate, rng);
    for (u64 i = 0; i < n; ++i) {
        s[i].atNs = at[i];
        s[i].len = kReadKeys;
        s[i].off = pool.readSlice(rng);
    }
    return s;
}

} // namespace pb
